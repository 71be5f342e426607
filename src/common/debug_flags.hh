/**
 * @file
 * gem5-style named debug flags.
 *
 * Each simulator component guards its trace output with one flag
 * (Fetch, Rename, Dpred, ...). Flags are runtime-enabled via
 * `dmp-run --debug-flags=Dpred,Commit`, the DMP_DEBUG environment
 * variable, or programmatically; with every flag disabled the check is
 * a single relaxed load + predictable branch.
 */

#ifndef DMP_COMMON_DEBUG_FLAGS_HH
#define DMP_COMMON_DEBUG_FLAGS_HH

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace dmp::trace
{

/** One flag per traceable component / event class. */
enum class Flag : std::uint8_t
{
    Fetch,    ///< front-end fetch, prediction, redirects
    Rename,   ///< rename/dispatch, select-uop insertion
    Issue,    ///< scheduler issue and load replay
    Complete, ///< writeback / completion events
    Commit,   ///< in-order retirement, mispredict training
    Flush,    ///< pipeline flushes and squashes
    Dpred,    ///< dynamic-predication episode lifecycle
    Dual,     ///< dual-path fork/collapse
    Cache,    ///< cache hierarchy misses
    Bpred,    ///< predictor structures (BTB/RAS/ITC)
    Batch,    ///< batch-runner task scheduling / caching
    NumFlags, // sentinel — keep last
};

/** Name + one-line description of a flag (for --list-debug-flags). */
struct FlagInfo
{
    const char *name;
    const char *desc;
};

/** Table of all flags, indexed by Flag value. */
const std::vector<FlagInfo> &flagTable();

/** Currently enabled flags as a bitmask (bit i == Flag(i)). */
std::uint64_t mask();

/** Replace the enabled-flag mask. */
void setMask(std::uint64_t m);

/**
 * Parse a comma-separated flag list ("Dpred,Commit"; case-sensitive;
 * "All" enables everything) into a mask. Fatal on an unknown name.
 */
std::uint64_t parseFlags(const std::string &csv);

/** Enable the flags named in `csv` on top of the current mask. */
void enableFlags(const std::string &csv);

namespace detail
{
extern std::atomic<std::uint64_t> gFlagMask;
} // namespace detail

/** Hot-path check: is this flag enabled? */
inline bool
enabled(Flag f)
{
    return (detail::gFlagMask.load(std::memory_order_relaxed) &
            (std::uint64_t(1) << unsigned(f))) != 0;
}

} // namespace dmp::trace

#endif // DMP_COMMON_DEBUG_FLAGS_HH
