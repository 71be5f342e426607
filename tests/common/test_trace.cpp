/** @file Unit tests for debug flags and the trace/pipeview sinks. */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "common/json.hh"
#include "common/trace.hh"

namespace dmp::trace
{
namespace
{

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/** Saves and restores the global flag mask + trace output around a test. */
class TraceTest : public ::testing::Test
{
  protected:
    void SetUp() override { saved = mask(); }
    void
    TearDown() override
    {
        setMask(saved);
        setOutputStderr();
        std::remove(tracePath().c_str());
    }
    std::string
    tracePath() const
    {
        return testing::TempDir() + "dmp_trace_test.log";
    }
    std::uint64_t saved = 0;
};

TEST_F(TraceTest, FlagTableMatchesEnum)
{
    const auto &table = flagTable();
    ASSERT_EQ(table.size(), std::size_t(Flag::NumFlags));
    EXPECT_STREQ(table[unsigned(Flag::Fetch)].name, "Fetch");
    EXPECT_STREQ(table[unsigned(Flag::Dpred)].name, "Dpred");
    EXPECT_STREQ(table[unsigned(Flag::Batch)].name, "Batch");
}

TEST_F(TraceTest, ParseFlagsSingleAndList)
{
    EXPECT_EQ(parseFlags("Fetch"), std::uint64_t(1) << unsigned(Flag::Fetch));
    std::uint64_t m = parseFlags("Dpred,Commit");
    EXPECT_TRUE(m & (std::uint64_t(1) << unsigned(Flag::Dpred)));
    EXPECT_TRUE(m & (std::uint64_t(1) << unsigned(Flag::Commit)));
    EXPECT_FALSE(m & (std::uint64_t(1) << unsigned(Flag::Fetch)));
}

TEST_F(TraceTest, ParseFlagsAll)
{
    std::uint64_t m = parseFlags("all");
    for (unsigned i = 0; i < unsigned(Flag::NumFlags); ++i)
        EXPECT_TRUE(m & (std::uint64_t(1) << i)) << flagTable()[i].name;
    EXPECT_EQ(parseFlags("All"), m);
}

TEST_F(TraceTest, ParseFlagsUnknownIsFatal)
{
    EXPECT_EXIT(parseFlags("NoSuchFlag"),
                ::testing::ExitedWithCode(EXIT_FAILURE), "NoSuchFlag");
}

TEST_F(TraceTest, EnabledFollowsMask)
{
    setMask(0);
    EXPECT_FALSE(enabled(Flag::Dpred));
    enableFlags("Dpred");
    EXPECT_TRUE(enabled(Flag::Dpred));
    EXPECT_FALSE(enabled(Flag::Fetch));
    enableFlags("Fetch"); // additive
    EXPECT_TRUE(enabled(Flag::Dpred));
    EXPECT_TRUE(enabled(Flag::Fetch));
}

TEST_F(TraceTest, RecordFormat)
{
    setMask(0);
    enableFlags("Dpred");
    setOutputFile(tracePath());
    DMP_TRACE(Dpred, 1234, 42, "core.dpred", "EP", 7, " enter pc=",
              hex(0x10d8));
    setOutputStderr(); // flush + close
    std::string out = slurp(tracePath());
    EXPECT_NE(out.find("1234: core.dpred: Dpred: sq=42: "
                       "EP7 enter pc=0x10d8"),
              std::string::npos)
        << out;
}

TEST_F(TraceTest, DisabledFlagEmitsNothing)
{
    setMask(0);
    enableFlags("Commit"); // anything but Dpred
    setOutputFile(tracePath());
    DMP_TRACE(Dpred, 1, 1, "core.dpred", "must not appear");
    setOutputStderr();
    EXPECT_EQ(slurp(tracePath()), "");
}

TEST_F(TraceTest, DisabledFlagSkipsArgumentEvaluation)
{
    setMask(0);
    int evaluations = 0;
    auto expensive = [&] {
        ++evaluations;
        return 1;
    };
    DMP_TRACE(Dpred, 1, 1, "test", expensive());
    EXPECT_EQ(evaluations, 0);
    enableFlags("Dpred");
    setOutputFile(tracePath());
    DMP_TRACE(Dpred, 1, 1, "test", expensive());
    EXPECT_EQ(evaluations, 1);
}

TEST_F(TraceTest, HexFormatting)
{
    EXPECT_EQ(hex(0x0), "0x0");
    EXPECT_EQ(hex(0x10d8), "0x10d8");
    EXPECT_EQ(hex(0xdeadbeef), "0xdeadbeef");
}

TEST_F(TraceTest, PipeViewEmitsO3Format)
{
    std::string path = testing::TempDir() + "dmp_pipeview_test.trace";
    {
        PipeView pv(path);
        PipeView::Record r;
        r.seq = 3;
        r.pc = 0x1000;
        r.disasm = "addi";
        r.fetch = 10;
        r.rename = 12;
        r.issue = 14;
        r.complete = 15;
        r.retire = 18;
        pv.emit(r);
        EXPECT_EQ(pv.count(), 1u);
    }
    std::string out = slurp(path);
    EXPECT_NE(out.find("O3PipeView:fetch:10:0x0000000000001000:0:3:addi"),
              std::string::npos)
        << out;
    EXPECT_NE(out.find("O3PipeView:decode:12"), std::string::npos);
    EXPECT_NE(out.find("O3PipeView:rename:12"), std::string::npos);
    EXPECT_NE(out.find("O3PipeView:dispatch:12"), std::string::npos);
    EXPECT_NE(out.find("O3PipeView:issue:14"), std::string::npos);
    EXPECT_NE(out.find("O3PipeView:complete:15"), std::string::npos);
    EXPECT_NE(out.find("O3PipeView:retire:18:store:0"), std::string::npos);
    std::remove(path.c_str());
}

TEST_F(TraceTest, PipeViewSquashedRetiresAtTickZero)
{
    std::string path = testing::TempDir() + "dmp_pipeview_squash.trace";
    {
        PipeView pv(path);
        PipeView::Record r;
        r.seq = 9;
        r.pc = 0x2000;
        r.disasm = "beq";
        r.fetch = 5;
        r.rename = 7;
        r.retire = 11; // ignored: squashed wins
        r.squashed = true;
        pv.emit(r);
    }
    std::string out = slurp(path);
    EXPECT_NE(out.find("O3PipeView:retire:0:store:0"), std::string::npos)
        << out;
    std::remove(path.c_str());
}

TEST_F(TraceTest, TraceEventWriterEmitsParsableJson)
{
    std::string path = testing::TempDir() + "dmp_trace_events.json";
    {
        TraceEventWriter w(path);
        w.threadName(1, "topdown");
        w.complete(1, 0, 10, "retire_useful", "topdown");
        w.asyncBegin(2, 2, 7, "EP@0x10d8", "episode", "{\"dual\":0}");
        w.asyncEnd(2, 9, 7, "EP@0x10d8", "episode",
                   "{\"exit_case\":2,\"dead\":0}");
        w.instant(3, 5, "flush@0x1300", "flush", "{\"squashed\":12}");
        EXPECT_EQ(w.count(), 5u);
        w.close();
        w.close(); // idempotent
    }
    std::string out = slurp(path);
    json::Value doc;
    std::string err;
    ASSERT_TRUE(json::parse(out, doc, err)) << err << "\n" << out;
    const json::Value *events = doc.get("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());
    ASSERT_EQ(events->array.size(), 5u);

    const json::Value &meta = events->array[0];
    EXPECT_EQ(meta.get("ph")->string, "M");
    EXPECT_EQ(meta.get("name")->string, "thread_name");

    const json::Value &slice = events->array[1];
    EXPECT_EQ(slice.get("ph")->string, "X");
    EXPECT_EQ(slice.get("ts")->asU64(), 0u);
    EXPECT_EQ(slice.get("dur")->asU64(), 10u);
    EXPECT_EQ(slice.get("name")->string, "retire_useful");

    const json::Value &b = events->array[2];
    const json::Value &e = events->array[3];
    EXPECT_EQ(b.get("ph")->string, "b");
    EXPECT_EQ(e.get("ph")->string, "e");
    EXPECT_EQ(b.get("id")->asU64(), e.get("id")->asU64());
    EXPECT_EQ(b.get("cat")->string, e.get("cat")->string);
    EXPECT_EQ(b.get("args")->get("dual")->asU64(), 0u);
    EXPECT_EQ(e.get("args")->get("exit_case")->asU64(), 2u);

    const json::Value &inst = events->array[4];
    EXPECT_EQ(inst.get("ph")->string, "i");
    EXPECT_EQ(inst.get("s")->string, "t");
    EXPECT_EQ(inst.get("args")->get("squashed")->asU64(), 12u);
    std::remove(path.c_str());
}

TEST_F(TraceTest, TraceEventWriterEscapesNames)
{
    std::string path = testing::TempDir() + "dmp_trace_escape.json";
    {
        TraceEventWriter w(path);
        w.instant(1, 0, "quote\"back\\slash", "cat");
        w.close();
    }
    json::Value doc;
    std::string err;
    ASSERT_TRUE(json::parse(slurp(path), doc, err)) << err;
    EXPECT_EQ(doc.get("traceEvents")->array[0].get("name")->string,
              "quote\"back\\slash");
    std::remove(path.c_str());
}

} // namespace
} // namespace dmp::trace
