# Test helper: run PROG with the ;-list ARGS and pass only if it exits
# non-zero and its combined output matches the regex EXPECT.
#   cmake -DPROG=... -DARGS=... -DEXPECT=... -P expect_failure.cmake
execute_process(COMMAND ${PROG} ${ARGS}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE out)
if(rc EQUAL 0)
  message(FATAL_ERROR "expected a non-zero exit, got 0:\n${out}")
endif()
if(NOT out MATCHES "${EXPECT}")
  message(FATAL_ERROR "exit ${rc}, but output lacks '${EXPECT}':\n${out}")
endif()
message(STATUS "exit ${rc}: ${out}")
