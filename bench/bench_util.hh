/**
 * @file
 * Shared helpers of the bench/ programs (dmp-figures, perf_kips): the
 * environment knobs that size a run, the bench-default SimConfig, and
 * the canonical machine configurations the paper's figures compare.
 *
 * Environment knobs read here:
 *   DMP_BENCH_ITERS     workload loop iterations (default 2000)
 *   DMP_BENCH_WORKLOADS comma-separated subset of workloads to run
 *   DMP_BENCH_ACCT      any non-empty value attaches the cycle
 *                        accounting sink to every run, so exported
 *                        records carry the accounting block (changes
 *                        config fingerprints)
 * DMP_BENCH_JOBS is read by sim::BatchRunner. Malformed values are
 * fatal: a typo must not silently shrink or change the experiment.
 */

#ifndef DMP_BENCH_BENCH_UTIL_HH
#define DMP_BENCH_BENCH_UTIL_HH

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "sim/simulator.hh"
#include "workloads/workloads.hh"

namespace dmp::bench
{

/** Workload loop iterations for every bench run (fatal unless > 0). */
inline std::uint64_t
benchIterations()
{
    const char *env = std::getenv("DMP_BENCH_ITERS");
    return env ? parseCount("DMP_BENCH_ITERS", env, 1, UINT64_MAX) : 2000;
}

/**
 * Workloads to run: all 15 unless DMP_BENCH_WORKLOADS narrows it.
 * Fatal on a name that is not in workloads::workloadList().
 */
inline std::vector<std::string>
benchWorkloads()
{
    std::vector<std::string> all;
    for (const auto &info : workloads::workloadList())
        all.push_back(info.name);
    const char *env = std::getenv("DMP_BENCH_WORKLOADS");
    if (!env)
        return all;
    std::vector<std::string> out;
    std::string s(env);
    std::size_t pos = 0;
    while (pos < s.size()) {
        std::size_t comma = s.find(',', pos);
        if (comma == std::string::npos)
            comma = s.size();
        std::string name = s.substr(pos, comma - pos);
        if (!name.empty())
            out.push_back(name);
        pos = comma + 1;
    }
    for (const std::string &name : out) {
        if (std::find(all.begin(), all.end(), name) != all.end())
            continue;
        std::string list;
        for (const std::string &w : all)
            list += (list.empty() ? "" : ",") + w;
        dmp_fatal("DMP_BENCH_WORKLOADS: unknown workload '", name,
                  "' (known: ", list, ")");
    }
    return out.empty() ? all : out;
}

/**
 * Mutator applied to the bench-default SimConfig. Most configurations
 * only touch `cfg.core` (the Table 2 machine); the marking axes also
 * set `cfg.markMode` or `cfg.marker`.
 */
using ConfigFn = std::function<void(sim::SimConfig &)>;

/** The bench-default SimConfig for `workload` with `fn` applied. */
inline sim::SimConfig
makeConfig(const std::string &workload, const ConfigFn &fn)
{
    sim::SimConfig cfg;
    cfg.workload = workload;
    cfg.train.iterations = benchIterations();
    cfg.ref.iterations = benchIterations();
    if (const char *acct = std::getenv("DMP_BENCH_ACCT"); acct && *acct)
        cfg.accounting = true;
    if (fn)
        fn(cfg);
    return cfg;
}

/** Canonical configurations used across figures. */
inline void
cfgBaseline(sim::SimConfig &)
{
}

inline void
cfgDhp(sim::SimConfig &c)
{
    c.core.predication = core::PredicationScope::SimpleHammock;
}

inline void
cfgDhpPerfConf(sim::SimConfig &c)
{
    cfgDhp(c);
    c.core.perfectConfidence = true;
}

inline void
cfgDmpBasic(sim::SimConfig &c)
{
    c.core.predication = core::PredicationScope::Diverge;
}

inline void
cfgDmpPerfConf(sim::SimConfig &c)
{
    cfgDmpBasic(c);
    c.core.perfectConfidence = true;
}

inline void
cfgPerfectCbp(sim::SimConfig &c)
{
    c.core.perfectCondPredictor = true;
}

inline void
cfgDmpMcfm(sim::SimConfig &c)
{
    cfgDmpBasic(c);
    c.core.enhMultiCfm = true;
}

inline void
cfgDmpMcfmEexit(sim::SimConfig &c)
{
    cfgDmpMcfm(c);
    c.core.enhEarlyExit = true;
}

inline void
cfgDmpEnhanced(sim::SimConfig &c)
{
    cfgDmpMcfmEexit(c);
    c.core.enhMultiDiverge = true;
}

/** Enhanced DMP fed by static marking synthesis instead of the profiler. */
inline void
cfgDmpStatic(sim::SimConfig &c)
{
    cfgDmpEnhanced(c);
    c.markMode = sim::MarkMode::Static;
}

inline void
cfgDualPath(sim::SimConfig &c)
{
    c.core.mode = core::CoreMode::DualPath;
}

} // namespace dmp::bench

#endif // DMP_BENCH_BENCH_UTIL_HH
