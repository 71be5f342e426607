/**
 * @file
 * dmp-perfbench: the measuring program of the repo benchmark (see
 * README.md next to this file; run.py builds and drives it).
 *
 *   dmp-perfbench --workload figure-grid|cli-single|static-tools
 *                 --seed N --seconds S [--trace 0|1] [--spans PATH]
 *                 [--iters N] [--programs N] [--ref-skew N]
 *
 * Prints one JSON object on stdout: the op tally, every metric with its
 * unit, the model metrics and a digest of the simulated results.
 *
 * --trace 0 measures the end-to-end metrics, every timing scaled to the
 * nominal host speed that a memory probe sampled through the run gives
 * (HostProbe). --trace 1 runs the same measured loop untraced, then
 * again with in-memory spans around every public layer call, then the
 * layer probes, and reports the per-layer metrics; spans are written to
 * --spans at exit.
 *
 * --iters and --programs shrink the inputs (self-test); --ref-skew adds
 * to every FuncSim reference count so the correctness gate must fail.
 */

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analysis/analysis.hh"
#include "analysis/markgen.hh"
#include "bpred/confidence.hh"
#include "bpred/perceptron.hh"
#include "core/core.hh"
#include "isa/func_sim.hh"
#include "isa/mem_image.hh"
#include "mem/cache.hh"
#include "profile/profiler.hh"
#include "sim/batch.hh"
#include "sim/simulator.hh"
#include "workloads/workloads.hh"

using namespace dmp;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------
// Options

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10;
    bool trace = false;
    std::string spansPath;
    std::uint64_t iters = 0;  ///< 0: the workload's default input size
    unsigned programs = 0;    ///< 0: all guest programs
    std::uint64_t refSkew = 0;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "dmp-perfbench: %s\nusage: dmp-perfbench --workload "
                 "figure-grid|cli-single|static-tools --seed N "
                 "--seconds S [--trace 0|1] [--spans PATH] [--iters N] "
                 "[--programs N] [--ref-skew N]\n",
                 why.c_str());
    std::exit(2);
}

Options
parseOptions(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + a);
        std::string v = argv[++i];
        char *end = nullptr;
        auto num = [&]() {
            std::uint64_t x = std::strtoull(v.c_str(), &end, 0);
            if (v.empty() || *end)
                usage("bad number for " + a + ": " + v);
            return x;
        };
        if (a == "--workload")
            o.workload = v;
        else if (a == "--seed")
            o.seed = num();
        else if (a == "--seconds") {
            o.seconds = std::strtod(v.c_str(), &end);
            if (v.empty() || *end || !(o.seconds > 0))
                usage("bad --seconds: " + v);
        } else if (a == "--trace")
            o.trace = num() != 0;
        else if (a == "--spans")
            o.spansPath = v;
        else if (a == "--iters")
            o.iters = num();
        else if (a == "--programs")
            o.programs = unsigned(num());
        else if (a == "--ref-skew")
            o.refSkew = num();
        else
            usage("unknown option " + a);
    }
    if (o.workload != "figure-grid" && o.workload != "cli-single" &&
        o.workload != "static-tools")
        usage("unknown --workload '" + o.workload + "'");
    return o;
}

// ---------------------------------------------------------------------
// Spans: recorded in memory by this file around public layer calls.

struct Span
{
    const char *name;   ///< "<layer>.<call>"
    std::int32_t parent; ///< index in the same log, -1 for a root
    std::uint64_t op;    ///< op the span belongs to
    std::int64_t t0;     ///< ns since the tracer epoch
    std::int64_t t1;
};

/**
 * One thread's spans. A span never crosses threads, so parents are
 * indices into the same log.
 */
class SpanLog
{
  public:
    explicit SpanLog(Clock::time_point epoch_) : epoch(epoch_) {}

    void
    open(const char *name)
    {
        std::int32_t parent = stack.empty() ? -1 : stack.back();
        spans.push_back({name, parent, op, now(), 0});
        stack.push_back(std::int32_t(spans.size() - 1));
    }

    void
    close()
    {
        spans[std::size_t(stack.back())].t1 = now();
        stack.pop_back();
    }

    std::uint64_t op = 0; ///< op id stamped on spans opened from now on
    std::vector<Span> spans;

  private:
    std::int64_t
    now() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - epoch)
            .count();
    }

    Clock::time_point epoch;
    std::vector<std::int32_t> stack;
};

/** RAII span; a null log makes it a no-op (the untraced path). */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog *log_, const char *name) : log(log_)
    {
        if (log)
            log->open(name);
    }
    ~ScopedSpan()
    {
        if (log)
            log->close();
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanLog *log;
};

/** Duration statistics of every span, by name, over a set of logs. */
struct SpanStat
{
    std::uint64_t count = 0;
    double seconds = 0;
};

std::map<std::string, SpanStat>
spanStats(const std::vector<const std::vector<SpanLog> *> &sets)
{
    std::map<std::string, SpanStat> out;
    for (const auto *logs : sets)
        for (const SpanLog &log : *logs)
            for (const Span &s : log.spans) {
                SpanStat &st = out[s.name];
                ++st.count;
                st.seconds += double(s.t1 - s.t0) * 1e-9;
            }
    return out;
}

/** Self time (span minus its children) summed per layer prefix. */
std::map<std::string, double>
layerSelfSeconds(const std::vector<SpanLog> &logs, double &total)
{
    std::map<std::string, double> out;
    total = 0;
    for (const SpanLog &log : logs) {
        std::vector<std::int64_t> child(log.spans.size(), 0);
        for (const Span &s : log.spans)
            if (s.parent >= 0)
                child[std::size_t(s.parent)] += s.t1 - s.t0;
        for (std::size_t i = 0; i < log.spans.size(); ++i) {
            const Span &s = log.spans[i];
            std::string name = s.name;
            std::string layer = name.substr(0, name.find('.'));
            out[layer] += double(s.t1 - s.t0 - child[i]) * 1e-9;
            if (s.parent < 0)
                total += double(s.t1 - s.t0) * 1e-9;
        }
    }
    return out;
}

void
writeSpans(const std::string &path,
           const std::vector<std::pair<const char *,
                                       const std::vector<SpanLog> *>> &sets)
{
    std::ofstream out(path);
    if (!out)
        throw std::runtime_error("cannot write spans to " + path);
    out << "{\"schema\":1,\"unit\":\"ns\",\"spans\":[";
    bool first = true;
    for (const auto &[phase, logs] : sets)
        for (std::size_t t = 0; t < logs->size(); ++t)
            for (std::size_t i = 0; i < (*logs)[t].spans.size(); ++i) {
                const Span &s = (*logs)[t].spans[i];
                out << (first ? "" : ",") << "\n{\"phase\":\"" << phase
                    << "\",\"thread\":" << t << ",\"id\":" << i
                    << ",\"parent\":" << s.parent << ",\"op\":" << s.op
                    << ",\"name\":\"" << s.name << "\",\"start\":" << s.t0
                    << ",\"end\":" << s.t1 << "}";
                first = false;
            }
    out << "\n]}\n";
}

// ---------------------------------------------------------------------
// Inputs, machine columns and checking

/** Machine columns of the figure grid (Fig. 7/9 + dual + static). */
struct Column
{
    const char *name;
    void (*apply)(sim::SimConfig &);
};

void colBase(sim::SimConfig &) {}
void colDhp(sim::SimConfig &c)
{
    c.core.predication = core::PredicationScope::SimpleHammock;
}
void colDmp(sim::SimConfig &c)
{
    c.core.predication = core::PredicationScope::Diverge;
}
void colEnh(sim::SimConfig &c)
{
    c.core.predication = core::PredicationScope::Diverge;
    c.core.enhMultiCfm = true;
    c.core.enhEarlyExit = true;
    c.core.enhMultiDiverge = true;
}
void colDual(sim::SimConfig &c) { c.core.mode = core::CoreMode::DualPath; }
void colStatic(sim::SimConfig &c)
{
    colEnh(c);
    c.markMode = sim::MarkMode::Static;
}

constexpr Column kColumns[] = {{"base", colBase}, {"dhp", colDhp},
                               {"dmp", colDmp},   {"enh", colEnh},
                               {"dual", colDual}, {"static", colStatic}};
constexpr std::size_t kNumColumns = std::size(kColumns);
constexpr std::size_t kColBase = 0, kColEnh = 3, kColStatic = 5;

std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** What one workload runs on: guest programs, inputs, references. */
struct Inputs
{
    std::vector<std::string> programs;
    workloads::WorkloadParams train, ref;
    /** FuncSim instruction count of each program's ref build. */
    std::vector<std::uint64_t> refCount;
};

sim::SimConfig
configFor(const Inputs &in, std::size_t prog, std::size_t col)
{
    sim::SimConfig cfg;
    cfg.workload = in.programs[prog];
    cfg.train = in.train;
    cfg.ref = in.ref;
    kColumns[col].apply(cfg);
    return cfg;
}

std::uint64_t
funcSimCount(const isa::Program &p)
{
    isa::MemoryImage mem(core::CoreParams{}.memoryBytes);
    isa::FuncSim fs(p, mem);
    std::uint64_t n = fs.run(~0ULL);
    if (!fs.halted())
        throw std::runtime_error("FuncSim reference did not halt");
    return n;
}

/**
 * Set-up: the guest inputs for `seed` and their FuncSim reference
 * counts (the correctness gate's ground truth; untimed in ops).
 */
Inputs
makeInputs(const Options &o)
{
    Inputs in;
    for (const auto &info : workloads::workloadList())
        if (!o.programs || in.programs.size() < o.programs)
            in.programs.push_back(info.name);
    std::uint64_t iters =
        o.iters ? o.iters : (o.workload == "figure-grid" ? 2000 : 500);
    // Seed 0 is the figure harness's own input pair.
    in.train.iterations = iters;
    in.train.seed = 0x7e41a + o.seed;
    in.ref.iterations = iters;
    in.ref.seed = 0x4ef + o.seed;
    for (const std::string &name : in.programs) {
        isa::Program p = workloads::buildWorkload(name, in.ref);
        in.refCount.push_back(funcSimCount(p) + o.refSkew);
    }
    return in;
}

/** Set-up repetitions per run; setup_s is their median. */
constexpr unsigned kSetupReps = 9;

/** Pass/fail tally of every op a run attempts. */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures; ///< first few reasons

    void
    fail(const std::string &why)
    {
        ++failed;
        if (failures.size() < 8)
            failures.push_back(why);
    }
};

/** The simulated outcome of one timing run. */
struct SimRecord
{
    std::uint64_t cycles = 0;
    std::uint64_t retired = 0;
    std::uint64_t flushes = 0;
    std::uint64_t skipped = 0;
    double ipc = 0;
    double hostSeconds = 0; ///< core run wall time

    /** Same simulated outcome: the digest's (cycles, retired, flushes). */
    bool
    sameOutcome(const SimRecord &o) const
    {
        return cycles == o.cycles && retired == o.retired &&
               flushes == o.flushes;
    }
};

SimRecord
toRecord(const sim::SimResult &r)
{
    SimRecord s;
    s.cycles = r.cycles;
    s.retired = r.retiredInsts;
    s.flushes = r.require("pipeline_flushes");
    s.skipped = r.require("cycles_skipped");
    s.ipc = r.ipc;
    s.hostSeconds = r.hostSeconds;
    return s;
}

/** Outcome slot of one op: a record, or why it failed. */
struct Outcome
{
    std::optional<SimRecord> rec;
    std::string error;
};

/** FNV-1a digest of a list of (cycles, retired, flushes). */
std::string
digestOf(const std::vector<Outcome> &outs)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    auto eat = [&](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    };
    for (const Outcome &o : outs) {
        eat(o.rec ? o.rec->cycles : ~0ULL);
        eat(o.rec ? o.rec->retired : ~0ULL);
        eat(o.rec ? o.rec->flushes : ~0ULL);
    }
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016llx", (unsigned long long)h);
    return buf;
}

/**
 * The correctness gate for one simulation: no exception, retired ==
 * FuncSim reference, and equal to the reference run of the same config
 * (when one exists).
 */
void
checkSim(Tally &t, const Outcome &o, std::uint64_t refCount,
         const Outcome *first, const std::string &what)
{
    ++t.attempted;
    if (!o.rec) {
        t.fail(what + ": " + o.error);
    } else if (o.rec->retired != refCount) {
        t.fail(what + ": retired " + std::to_string(o.rec->retired) +
               " != FuncSim " + std::to_string(refCount));
    } else if (first && first->rec && !o.rec->sameOutcome(*first->rec)) {
        t.fail(what + ": (cycles, retired, flushes) differ from the "
                      "first run of this config");
    }
}

/** Paper metrics over per-program (base, enh, static) outcomes. */
struct Model
{
    double speedup = 0;
    double flushRatio = 0;
    double staticRecovery = 0;
    bool valid = false;
};

Model
modelOf(const std::vector<const Outcome *> &base,
        const std::vector<const Outcome *> &enh,
        const std::vector<const Outcome *> &stat)
{
    Model m;
    double logsum = 0;
    double fb = 0, fe = 0, fs = 0;
    for (std::size_t i = 0; i < base.size(); ++i) {
        if (!base[i]->rec || !enh[i]->rec || !stat[i]->rec)
            return m;
        logsum += std::log(enh[i]->rec->ipc / base[i]->rec->ipc);
        fb += double(base[i]->rec->flushes);
        fe += double(enh[i]->rec->flushes);
        fs += double(stat[i]->rec->flushes);
    }
    m.speedup = std::exp(logsum / double(base.size()));
    m.flushRatio = fe / fb;
    m.staticRecovery = (fb - fs) / (fb - fe);
    m.valid = std::isfinite(m.speedup) && std::isfinite(m.flushRatio) &&
              std::isfinite(m.staticRecovery);
    return m;
}

/** Run fn(thread, index) for index in [0, n) on `jobs` threads. */
template <class Fn>
void
parallelFor(std::size_t n, unsigned jobs, Fn &&fn)
{
    std::atomic<std::size_t> next{0};
    std::vector<std::jthread> threads;
    for (unsigned t = 0; t < jobs; ++t)
        threads.emplace_back([&, t] {
            for (std::size_t i; (i = next.fetch_add(1)) < n;)
                fn(t, i);
        });
}

double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    double pos = q * double(v.size() - 1);
    std::size_t lo = std::size_t(pos);
    std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

// ---------------------------------------------------------------------
// Layer calls. With a null log these are the plain public-API paths a
// user of dmp-run / dmp-mark / dmp-lint takes; with a log each public
// call gets its span.

analysis::AnalysisOptions
preflightOptions(const sim::SimConfig &cfg)
{
    analysis::AnalysisOptions ao;
    ao.marker = cfg.marker;
    ao.maxPredicateDepth = cfg.core.predRegisters;
    ao.memoryBytes = cfg.core.memoryBytes;
    return ao;
}

/** prepareMarkedProgram, split into its public calls when traced. */
std::pair<isa::Program, profile::MarkingReport>
prepare(const sim::SimConfig &cfg, SpanLog *log)
{
    if (!log)
        return sim::prepareMarkedProgram(cfg);
    isa::Program ref;
    {
        ScopedSpan s(log, "workloads.build");
        ref = workloads::buildWorkload(cfg.workload, cfg.ref);
    }
    if (cfg.markMode == sim::MarkMode::Static) {
        ScopedSpan s(log, "analysis.synth");
        profile::MarkingReport rep = sim::markTrainProgram(ref, cfg);
        return {std::move(ref), std::move(rep)};
    }
    isa::Program train;
    {
        ScopedSpan s(log, "workloads.build");
        train = workloads::buildWorkload(cfg.workload, cfg.train);
    }
    ScopedSpan s(log, "profile.mark");
    profile::MarkingReport rep = sim::markTrainProgram(train, cfg);
    profile::transferMarks(train, ref);
    return {std::move(ref), std::move(rep)};
}

/** Per-simulation core figures gathered by the traced path. */
struct CoreSample
{
    std::size_t col = 0;
    std::uint64_t retired = 0;
    std::uint64_t cycles = 0;
    std::uint64_t skipped = 0;
    double runSeconds = 0;
};

/**
 * runSimOnProgram, split into Core construction and run when traced
 * (the same calls it makes; the traced digest must equal the untraced
 * one).
 */
sim::SimResult
simulate(const isa::Program &ref, const profile::MarkingReport &report,
         const sim::SimConfig &cfg, SpanLog *log)
{
    if (!log)
        return sim::runSimOnProgram(ref, report, cfg);
    std::optional<core::Core> machine;
    {
        ScopedSpan s(log, "core.construct");
        machine.emplace(ref, cfg.core);
    }
    auto t0 = Clock::now();
    {
        ScopedSpan s(log, "core.run");
        machine->run();
    }
    sim::SimResult r;
    ScopedSpan s(log, "core.stats");
    r.hostSeconds = secondsSince(t0);
    r.marking = report;
    const core::CoreStats &st = machine->stats();
    r.cycles = st.cycles.value();
    r.retiredInsts = st.retiredInsts.value();
    r.ipc = r.cycles ? double(r.retiredInsts) / double(r.cycles) : 0.0;
    r.hostInstRate =
        r.hostSeconds > 0 ? double(r.retiredInsts) / r.hostSeconds : 0.0;
    for (const std::string &name : st.group.names())
        r.counters.emplace(name, st.group.get(name));
    for (const std::string &name : st.group.distributionNames())
        r.distributions.emplace(name,
                                st.group.distribution(name).snapshot());
    for (const std::string &name : st.group.formulaNames())
        r.formulas.emplace(name, st.group.formula(name));
    return r;
}

std::string
toJson(const sim::SimResult &r, const sim::SimConfig &cfg, SpanLog *log)
{
    ScopedSpan s(log, "sim.json");
    return sim::simResultJson(r, sim::markModeName(cfg.markMode),
                              cfg.workload);
}

// ---------------------------------------------------------------------
// Figure grid: every program x column, all submitted at once.

struct GridPass
{
    double wall = 0;
    std::vector<Outcome> outs;
    sim::BatchStats stats;
    unsigned jobs = 0;
};

/** One figure regeneration on a fresh sim::BatchRunner. */
GridPass
poolPass(const std::vector<sim::SimConfig> &grid, unsigned jobs)
{
    GridPass p;
    auto t0 = Clock::now();
    sim::BatchRunner runner(jobs);
    std::vector<std::shared_future<std::shared_ptr<const sim::SimResult>>>
        futs;
    futs.reserve(grid.size());
    for (const sim::SimConfig &cfg : grid)
        futs.push_back(runner.submit(cfg));
    p.outs.resize(grid.size());
    for (std::size_t i = 0; i < grid.size(); ++i) {
        try {
            p.outs[i].rec = toRecord(*futs[i].get());
        } catch (const std::exception &e) {
            p.outs[i].error = e.what();
        }
    }
    p.wall = secondsSince(t0);
    p.stats = runner.stats();
    p.jobs = runner.jobs();
    return p;
}

/**
 * The same grid call by call on `jobs` threads, traced: first every
 * (program, marking) is prepared and pre-flighted once — the sharing the
 * pool's profile cache gives — then every config is simulated.
 */
GridPass
tracedPass(const Inputs &in, const std::vector<sim::SimConfig> &grid,
           unsigned jobs, std::vector<SpanLog> &logs,
           std::atomic<std::uint64_t> &opIds,
           std::vector<CoreSample> &samples)
{
    GridPass p;
    auto t0 = Clock::now();
    const std::size_t np = in.programs.size();
    struct Prepared
    {
        isa::Program prog;
        profile::MarkingReport report;
        std::string error;
    };
    std::vector<Prepared> prep(np * 2); // [prog][profile, static]
    parallelFor(prep.size(), jobs, [&](unsigned t, std::size_t i) {
        SpanLog *log = &logs[t];
        log->op = opIds.fetch_add(1);
        ScopedSpan root(log, "bench.prepare");
        const sim::SimConfig &cfg =
            grid[(i / 2) * kNumColumns + (i % 2 ? kColStatic : kColEnh)];
        try {
            auto [prog, rep] = prepare(cfg, log);
            ScopedSpan s(log, "analysis.preflight");
            analysis::preflightOrThrow(prog, preflightOptions(cfg),
                                       cfg.workload);
            prep[i].prog = std::move(prog);
            prep[i].report = std::move(rep);
        } catch (const std::exception &e) {
            prep[i].error = e.what();
        }
    });
    p.outs.resize(grid.size());
    std::vector<std::vector<CoreSample>> perThread(jobs);
    parallelFor(grid.size(), jobs, [&](unsigned t, std::size_t i) {
        SpanLog *log = &logs[t];
        log->op = opIds.fetch_add(1);
        ScopedSpan root(log, "bench.op");
        const Prepared &pr =
            prep[(i / kNumColumns) * 2 + (i % kNumColumns == kColStatic)];
        if (!pr.error.empty()) {
            p.outs[i].error = pr.error;
            return;
        }
        try {
            sim::SimResult r = simulate(pr.prog, pr.report, grid[i], log);
            (void)toJson(r, grid[i], log);
            SimRecord rec = toRecord(r);
            p.outs[i].rec = rec;
            perThread[t].push_back({i % kNumColumns, rec.retired,
                                    rec.cycles, rec.skipped,
                                    rec.hostSeconds});
        } catch (const std::exception &e) {
            p.outs[i].error = e.what();
        }
    });
    p.wall = secondsSince(t0);
    p.jobs = jobs;
    for (auto &v : perThread)
        samples.insert(samples.end(), v.begin(), v.end());
    return p;
}

std::vector<sim::SimConfig>
gridOf(const Inputs &in)
{
    std::vector<sim::SimConfig> grid;
    for (std::size_t p = 0; p < in.programs.size(); ++p)
        for (std::size_t c = 0; c < kNumColumns; ++c)
            grid.push_back(configFor(in, p, c));
    return grid;
}

void
checkPass(Tally &t, const Inputs &in, const GridPass &pass,
          const GridPass *first, const char *what)
{
    for (std::size_t i = 0; i < pass.outs.size(); ++i)
        checkSim(t, pass.outs[i], in.refCount[i / kNumColumns],
                 first ? &first->outs[i] : nullptr,
                 std::string(what) + " " +
                     in.programs[i / kNumColumns] + "/" +
                     kColumns[i % kNumColumns].name);
}

Model
gridModel(const std::vector<Outcome> &outs, std::size_t np)
{
    std::vector<const Outcome *> b, e, s;
    for (std::size_t p = 0; p < np; ++p) {
        b.push_back(&outs[p * kNumColumns + kColBase]);
        e.push_back(&outs[p * kNumColumns + kColEnh]);
        s.push_back(&outs[p * kNumColumns + kColStatic]);
    }
    return modelOf(b, e, s);
}

// ---------------------------------------------------------------------
// Host speed. The benchmark runs on a few cores of a shared host whose
// speed drifts by 10-30% over tens of seconds as other tenants load its
// memory system. A fixed probe, sampled all through each timed span,
// measures that drift, and every end-to-end timing is reported at the
// probe's nominal speed (README.md, "Host speed").

/**
 * A fixed memory-bound kernel: random read-modify-writes in a 64 MiB
 * table, far larger than the share of the shared cache a tenant keeps,
 * so that nearly every access goes to memory whatever ran before it and
 * the sample's time follows the contention for the memory system. Not
 * thread-safe; one per process.
 */
class HostProbe
{
  public:
    /** Mean sample time on the reference host (README.md). */
    static constexpr double kNominalUs = 800;

    HostProbe() : table_(16u << 20, 1) {}

    /** Bytes the probe keeps resident. */
    std::size_t
    bytes() const
    {
        return table_.size() * sizeof(std::uint32_t);
    }

    /** One sample, in microseconds. */
    double
    sample()
    {
        std::uint64_t y = mix64(++runs_) | 1;
        auto t = Clock::now();
        for (std::uint32_t k = 0; k < 50000; ++k) {
            y ^= y << 13;
            y ^= y >> 7;
            y ^= y << 17;
            table_[y & (table_.size() - 1)] += k;
        }
        double us = secondsSince(t) * 1e6;
        sink_ = table_[y & (table_.size() - 1)];
        return us;
    }

  private:
    std::vector<std::uint32_t> table_;
    std::uint64_t runs_ = 0;
    volatile std::uint64_t sink_ = 0;
};

/** Probe samples across one timed span. */
struct HostSpeed
{
    /** Serial loops sample between ops at most this often. */
    static constexpr double kEvery = 0.1;

    HostProbe *probe = nullptr;
    double sumUs = 0;
    std::uint64_t samples = 0;
    double seconds = 0; ///< spent probing, excluded from the span's time
    Clock::time_point last{};

    explicit HostSpeed(HostProbe &p) : probe(&p) {}

    void
    sample(unsigned n = 1)
    {
        auto t = Clock::now();
        for (unsigned k = 0; k < n; ++k, ++samples)
            sumUs += probe->sample();
        last = Clock::now();
        seconds += std::chrono::duration<double>(last - t).count();
    }

    /** Samples when kEvery has passed since the last sample. */
    void
    tick()
    {
        if (secondsSince(last) >= kEvery)
            sample();
    }

    /**
     * Slowness over the span: the mean sample time over the nominal one
     * (1.2 when the host runs 20% slow). Timings are divided by it.
     */
    double
    factor() const
    {
        return samples ? sumUs / double(samples) / HostProbe::kNominalUs
                       : 1.0;
    }
};

// ---------------------------------------------------------------------
// Serial closed-loop ops (cli-single, static-tools)

/** What one serial op produced: a sim outcome or an analysis digest. */
struct OpResult
{
    Outcome sim;                ///< cli-single
    std::vector<std::uint64_t> facts; ///< static-tools: marks, findings
    std::size_t staticInsts = 0;
    std::string error;
};

/** cli-single op variants, interleaved per program. */
struct CliVariant
{
    std::size_t col;
    sim::MarkMode mark;
};
constexpr CliVariant kCliVariants[] = {
    {kColBase, sim::MarkMode::Profile},
    {kColEnh, sim::MarkMode::Profile},
    {kColBase, sim::MarkMode::Static},
    {kColEnh, sim::MarkMode::Static}};
constexpr std::size_t kNumCli = std::size(kCliVariants);

/** One `dmp-run --verify --stats-json` invocation. */
OpResult
cliOp(const Inputs &in, std::size_t i, SpanLog *log,
      std::vector<CoreSample> *samples)
{
    OpResult r;
    const CliVariant &v = kCliVariants[i % kNumCli];
    sim::SimConfig cfg = configFor(in, (i / kNumCli) % in.programs.size(),
                                   v.col);
    cfg.markMode = v.mark;
    try {
        auto [prog, report] = prepare(cfg, log);
        analysis::Report vr;
        {
            ScopedSpan s(log, "analysis.preflight");
            vr = analysis::analyzeProgram(prog, preflightOptions(cfg));
        }
        if (!vr.clean())
            throw std::runtime_error("--verify: " +
                                     std::to_string(vr.errors()) +
                                     " error finding(s)");
        sim::SimResult res = simulate(prog, report, cfg, log);
        (void)toJson(res, cfg, log);
        r.sim.rec = toRecord(res);
        if (samples)
            samples->push_back({v.mark == sim::MarkMode::Static &&
                                        v.col == kColEnh
                                    ? kColStatic
                                    : v.col,
                                r.sim.rec->retired, r.sim.rec->cycles,
                                r.sim.rec->skipped,
                                r.sim.rec->hostSeconds});
    } catch (const std::exception &e) {
        r.sim.error = e.what();
    }
    return r;
}

/**
 * Program of static-tools op i: even ops cycle over the guest programs,
 * odd ops build a new seeded random program each (fuzzer traffic).
 */
isa::Program
staticToolsProgram(const Inputs &in, std::uint64_t seed, std::size_t i,
                   bool &guest)
{
    std::size_t k = i / 2;
    guest = i % 2 == 0;
    if (guest)
        return workloads::buildWorkload(in.programs[k % in.programs.size()],
                                        in.ref);
    std::uint64_t s = mix64(mix64(seed) + k);
    return workloads::buildRandomProgram(s, mix64(s), unsigned(1 + k % 3));
}

/** One `dmp-mark` + `dmp-lint --deep` on one program. */
OpResult
staticOp(const Inputs &in, std::uint64_t seed, std::size_t i, SpanLog *log,
         isa::Program *keep)
{
    OpResult r;
    try {
        bool guest = false;
        isa::Program prog;
        {
            ScopedSpan s(log, "workloads.build");
            prog = staticToolsProgram(in, seed, i, guest);
        }
        analysis::MarkGenReport mr;
        {
            ScopedSpan s(log, "analysis.synth");
            mr = analysis::synthesizeMarks(prog);
        }
        if (mr.lintErrors)
            throw std::runtime_error("static marks: " +
                                     std::to_string(mr.lintErrors) +
                                     " lint error(s)");
        analysis::AnalysisOptions ao;
        ao.maxPredicateDepth = core::CoreParams{}.predRegisters;
        ao.memoryBytes = core::CoreParams{}.memoryBytes;
        ao.absint = true;
        analysis::AnalysisSummary sum;
        analysis::Report rep;
        {
            ScopedSpan s(log, "analysis.deeplint");
            rep = analysis::analyzeProgram(prog, ao, &sum);
        }
        if (guest && !rep.clean())
            throw std::runtime_error("deep lint: " +
                                     std::to_string(rep.errors()) +
                                     " error finding(s)");
        const analysis::AbsintStats &as = sum.absintStats;
        r.facts = {mr.markedDiverge, mr.markedSimpleHammock, mr.markedLoop,
                   rep.errors(), rep.warnings(), rep.infos(),
                   as.iterations, as.provedTaken + as.provedNotTaken,
                   as.branches};
        r.staticInsts = prog.size();
        if (keep)
            *keep = std::move(prog);
    } catch (const std::exception &e) {
        r.error = e.what();
    }
    return r;
}

/**
 * Timings of one measured window. Throughput is total work over total
 * time, so op kinds count by their cost. Slices (one figure
 * regeneration, or one cycle of serial ops) are kept as a disturbance
 * diagnostic: on a quiet host their rates agree.
 */
struct Window
{
    double wall = 0;          ///< timed, probe samples excluded
    double host = 1;          ///< host slowness over the window
    std::uint64_t ops = 0;
    std::uint64_t work = 0;   ///< retired (sims) or analysed insts
    std::vector<double> opMs; ///< latency of every measured op
    std::vector<double> sliceRates; ///< ops/s of each full slice

    double opsPerSecond() const { return wall > 0 ? ops / wall : 0; }
    double workPerSecond() const { return wall > 0 ? work / wall : 0; }
};

struct SerialRun
{
    std::vector<OpResult> results; ///< every op, warm-up included
    Window window;
};

/**
 * Closed loop with one client: op i+1 is sent when op i completes. The
 * first kWarmupOps ops warm the allocator and the page cache and are
 * not timed; the window then runs for `seconds` and at least one slice
 * of `slice` ops. Op i repeats op canon(i) when canon(i) < i; check(i,
 * result, want) gates it against that op of `ref` (the untraced run)
 * or of this run, and returns the op's work in instructions.
 */
constexpr std::size_t kWarmupOps = 4;

template <class Canon, class Op, class Check>
SerialRun
serialLoop(double seconds, std::size_t slice, const SerialRun *ref,
           HostProbe &probe, Canon &&canon, Op &&op, Check &&check)
{
    SerialRun run;
    Window &w = run.window;
    HostSpeed host(probe);
    Clock::time_point t0 = Clock::now(), s0 = t0;
    std::size_t inSlice = 0;
    for (std::size_t i = 0;; ++i) {
        if (i == kWarmupOps)
            t0 = s0 = Clock::now();
        if (!w.sliceRates.empty() && secondsSince(t0) >= seconds)
            break;
        if (i >= kWarmupOps)
            host.tick();
        auto s = Clock::now();
        OpResult r = op(i);
        double dt = secondsSince(s);
        std::size_t c = canon(i);
        const OpResult *want = ref && c < ref->results.size()
                                   ? &ref->results[c]
                               : c < i ? &run.results[c]
                                       : nullptr;
        std::uint64_t work = check(i, r, want);
        run.results.push_back(std::move(r));
        if (i < kWarmupOps)
            continue;
        w.opMs.push_back(dt * 1e3);
        ++w.ops;
        w.work += work;
        if (++inSlice == slice) {
            w.sliceRates.push_back(double(slice) / secondsSince(s0));
            inSlice = 0;
            s0 = Clock::now();
        }
    }
    w.wall = secondsSince(t0) - host.seconds;
    w.host = host.factor();
    return run;
}

// ---------------------------------------------------------------------
// Probes: layers only ever called from inside another layer are driven
// through their public APIs with each guest program's recorded streams.

struct Streams
{
    std::vector<std::pair<Addr, bool>> branches; ///< pc, taken
    std::vector<std::pair<Addr, bool>> mem;      ///< addr, isStore
};

constexpr std::size_t kMaxStream = 1u << 20;

struct ProbeFigures
{
    double funcsimMips = 0;
    double perceptronNs = 0, jrsNs = 0, mispredictPct = 0;
    double memAccessNs = 0, l1dHitPct = 0;
    std::uint64_t absintIters = 0;
    double provedPct = 0;
};

ProbeFigures
runProbes(const Inputs &in, SpanLog &log, std::atomic<std::uint64_t> &ids,
          Tally &t)
{
    ProbeFigures f;
    std::uint64_t insts = 0, branches = 0, mispred = 0, accesses = 0;
    std::uint64_t l1hits = 0, l1total = 0, proved = 0, condBranches = 0;
    double fsSec = 0, ppSec = 0, jrsSec = 0, memSec = 0;
    for (std::size_t p = 0; p < in.programs.size(); ++p) {
        log.op = ids.fetch_add(1);
        ScopedSpan root(&log, "bench.probe");
        ++t.attempted;
        try {
            isa::Program prog = workloads::buildWorkload(in.programs[p],
                                                         in.ref);
            isa::MemoryImage mem(core::CoreParams{}.memoryBytes);
            std::uint64_t n = 0;
            {
                isa::FuncSim fs(prog, mem);
                auto s = Clock::now();
                ScopedSpan sp(&log, "isa.funcsim");
                n = fs.run(~0ULL);
                fsSec += secondsSince(s);
            }
            insts += n;
            if (n != in.refCount[p])
                throw std::runtime_error(
                    "FuncSim probe retired " + std::to_string(n) +
                    " != reference " + std::to_string(in.refCount[p]));

            Streams st;
            {
                ScopedSpan sp(&log, "isa.record");
                isa::FuncSim fs(prog, mem);
                fs.visitRun(~0ULL, [&](Addr pc, const isa::Inst &inst,
                                       bool cond, bool taken, Addr,
                                       Addr addr) {
                    if (cond && st.branches.size() < kMaxStream)
                        st.branches.emplace_back(pc, taken);
                    if (addr != kNoAddr && st.mem.size() < kMaxStream)
                        st.mem.emplace_back(addr,
                                            isa::isStore(inst.op));
                });
            }

            std::vector<bool> wrong(st.branches.size());
            {
                bpred::PerceptronPredictor pp;
                std::uint64_t ghr = 0;
                auto s = Clock::now();
                ScopedSpan sp(&log, "bpred.perceptron");
                for (std::size_t i = 0; i < st.branches.size(); ++i) {
                    auto [pc, taken] = st.branches[i];
                    bpred::PredictionInfo info;
                    bool pred = pp.predict(pc, ghr, info);
                    wrong[i] = pred != taken;
                    pp.train(pc, taken, info);
                    ghr = (ghr << 1) | std::uint64_t(taken);
                }
                ppSec += secondsSince(s);
            }
            {
                bpred::JrsConfidenceEstimator jrs;
                std::uint64_t ghr = 0;
                auto s = Clock::now();
                ScopedSpan sp(&log, "bpred.jrs");
                for (std::size_t i = 0; i < st.branches.size(); ++i) {
                    std::uint32_t idx = 0;
                    (void)jrs.highConfidence(st.branches[i].first, ghr, idx);
                    jrs.update(idx, wrong[i]);
                    ghr = (ghr << 1) | std::uint64_t(st.branches[i].second);
                }
                jrsSec += secondsSince(s);
            }
            branches += st.branches.size();
            mispred += std::uint64_t(
                std::count(wrong.begin(), wrong.end(), true));
            {
                mem::CacheHierarchy caches;
                Cycle now = 0;
                auto s = Clock::now();
                ScopedSpan sp(&log, "mem.access");
                for (auto [addr, store] : st.mem) {
                    if (store)
                        caches.storeAccess(addr, now);
                    else
                        (void)caches.loadAccess(addr, now);
                    ++now;
                }
                memSec += secondsSince(s);
                l1hits += caches.l1d().hits();
                l1total += caches.l1d().hits() + caches.l1d().misses();
            }
            accesses += st.mem.size();

            // dmp-mark + dmp-lint --deep on the guest program.
            analysis::MarkGenReport mr;
            {
                ScopedSpan sp(&log, "analysis.synth");
                mr = analysis::synthesizeMarks(prog);
            }
            analysis::AnalysisOptions ao;
            ao.maxPredicateDepth = core::CoreParams{}.predRegisters;
            ao.memoryBytes = core::CoreParams{}.memoryBytes;
            ao.absint = true;
            analysis::AnalysisSummary sum;
            analysis::Report rep;
            {
                ScopedSpan sp(&log, "analysis.deeplint");
                rep = analysis::analyzeProgram(prog, ao, &sum);
            }
            if (mr.lintErrors || !rep.clean())
                throw std::runtime_error("static marks or deep lint "
                                         "report errors");
            f.absintIters += sum.absintStats.iterations;
            proved += sum.absintStats.provedTaken +
                      sum.absintStats.provedNotTaken;
            condBranches += sum.absintStats.branches;
        } catch (const std::exception &e) {
            t.fail("probe " + in.programs[p] + ": " + e.what());
        }
    }
    f.funcsimMips = fsSec > 0 ? double(insts) / fsSec * 1e-6 : 0;
    f.perceptronNs = branches ? ppSec / double(branches) * 1e9 : 0;
    f.jrsNs = branches ? jrsSec / double(branches) * 1e9 : 0;
    f.mispredictPct = branches ? 100.0 * double(mispred) / double(branches)
                               : 0;
    f.memAccessNs = accesses ? memSec / double(accesses) * 1e9 : 0;
    f.l1dHitPct = l1total ? 100.0 * double(l1hits) / double(l1total) : 0;
    f.provedPct = condBranches ? 100.0 * double(proved) /
                                     double(condBranches)
                               : 0;
    return f;
}

// ---------------------------------------------------------------------
// Output

struct Metrics
{
    std::vector<std::pair<std::string, std::pair<double, std::string>>> m;

    void
    add(const std::string &name, double value, const std::string &unit)
    {
        m.push_back({name, {value, unit}});
    }
};

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if ((unsigned char)c < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
num(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

// ---------------------------------------------------------------------
// Workloads

struct RunOutput
{
    Tally tally;
    Metrics metrics;
    Model model;
    std::string digest;
    std::uint64_t measuredOps = 0;
    std::vector<double> sliceRates; ///< ops/s of each measured slice
    double host = 1; ///< host slowness over the measured window
    /** figure-grid: [program, column, cycles, retired, flushes] rows of
     *  the first measured pass (the self-test diffs them with dmp-run). */
    std::string gridRows;
};

/** What every workload shares: its set-up time and the host probe. */
struct Setup
{
    double seconds = 0; ///< median set-up repetition
    double host = 1;    ///< host slowness across the repetitions
    HostProbe *probe = nullptr;
};

void
addEndToEnd(Metrics &m, const Setup &setup, const Window &w,
            const Model &model, const Tally &t)
{
    // Timings at the probe's nominal host speed; the probe's own buffers
    // are not the program's memory.
    m.add("setup_s", setup.seconds / setup.host, "s");
    m.add("kips", w.workPerSecond() * w.host * 1e-3, "kinst/s");
    m.add("ops_per_s", w.opsPerSecond() * w.host, "1/s");
    m.add("op_ms_p50", percentile(w.opMs, 0.5) / w.host, "ms");
    m.add("op_ms_p90", percentile(w.opMs, 0.9) / w.host, "ms");
    m.add("peak_rss_mb",
          peakRssMb() - double(setup.probe->bytes()) / (1 << 20), "MB");
    m.add("ok_pct",
          t.attempted ? 100.0 * double(t.attempted - t.failed) /
                            double(t.attempted)
                      : 0,
          "%");
    m.add("dmp_speedup", model.speedup, "x");
    m.add("flush_ratio", model.flushRatio, "x");
    m.add("static_recovery", model.staticRecovery, "x");
}

/** sim.* figures of a set of pool passes. */
void
addPoolMetrics(Metrics &m, const std::vector<GridPass> &passes)
{
    double sim = 0, cap = 0, tail = 0;
    std::uint64_t hits = 0, runs = 0;
    for (const GridPass &p : passes) {
        sim += p.stats.simSeconds;
        cap += p.jobs * p.wall;
        tail += p.wall - p.stats.simSeconds / p.jobs;
        hits += p.stats.profileHits;
        runs += p.stats.profileRuns;
    }
    m.add("sim.batch_util_pct", cap > 0 ? 100.0 * sim / cap : 0, "%");
    m.add("sim.profile_hit_pct",
          hits + runs ? 100.0 * double(hits) / double(hits + runs) : 0,
          "%");
    m.add("sim.tail_s", passes.empty() ? 0 : tail / double(passes.size()),
          "s");
}

/** Per-layer figures from the traced op phase and the probes. */
void
addLayerMetrics(Metrics &m, const std::vector<SpanLog> &opLogs,
                const std::vector<SpanLog> &probeLogs,
                const std::vector<CoreSample> &samples,
                const ProbeFigures &pf, double untracedRate,
                double tracedRate)
{
    auto st = spanStats({&opLogs, &probeLogs});
    auto meanMs = [&](const char *name) {
        auto it = st.find(name);
        return it == st.end() || !it->second.count
                   ? 0.0
                   : it->second.seconds / double(it->second.count) * 1e3;
    };
    m.add("workloads.build_ms", meanMs("workloads.build"), "ms");
    m.add("isa.funcsim_mips", pf.funcsimMips, "Minst/s");
    m.add("profile.mark_ms", meanMs("profile.mark"), "ms");
    m.add("analysis.synth_ms", meanMs("analysis.synth"), "ms");
    m.add("analysis.deeplint_ms", meanMs("analysis.deeplint"), "ms");
    m.add("analysis.preflight_ms", meanMs("analysis.preflight"), "ms");
    m.add("analysis.absint_iters", double(pf.absintIters), "count");
    m.add("analysis.proved_pct", pf.provedPct, "%");
    m.add("core.construct_ms", meanMs("core.construct"), "ms");

    std::uint64_t retired[kNumColumns] = {}, cycles = 0, skipped = 0;
    double secs[kNumColumns] = {}, runSec = 0;
    for (const CoreSample &s : samples) {
        retired[s.col] += s.retired;
        secs[s.col] += s.runSeconds;
        cycles += s.cycles;
        skipped += s.skipped;
        runSec += s.runSeconds;
    }
    const char *kipsNames[kNumColumns] = {
        "core.kips_base", "core.kips_dhp",  "core.kips_dmp",
        "core.kips_enh",  "core.kips_dual", "core.kips_static"};
    for (std::size_t c = 0; c < kNumColumns; ++c)
        m.add(kipsNames[c],
              secs[c] > 0 ? double(retired[c]) / secs[c] * 1e-3 : 0,
              "kinst/s");
    m.add("core.cycles_per_us", runSec > 0 ? double(cycles) / runSec * 1e-6
                                           : 0,
          "cycles/us");
    m.add("core.skip_pct",
          cycles ? 100.0 * double(skipped) / double(cycles) : 0, "%");

    m.add("bpred.perceptron_ns", pf.perceptronNs, "ns");
    m.add("bpred.jrs_ns", pf.jrsNs, "ns");
    m.add("bpred.mispredict_pct", pf.mispredictPct, "%");
    m.add("mem.access_ns", pf.memAccessNs, "ns");
    m.add("mem.l1d_hit_pct", pf.l1dHitPct, "%");
    m.add("sim.json_us", meanMs("sim.json") * 1e3, "us");

    double total = 0;
    auto self = layerSelfSeconds(opLogs, total);
    for (const char *layer :
         {"bench", "workloads", "profile", "analysis", "core", "sim"})
        m.add(std::string(layer) + ".share_pct",
              total > 0 ? 100.0 * self[layer] / total : 0, "%");
    m.add("trace.overhead_pct",
          tracedRate > 0 ? 100.0 * (untracedRate / tracedRate - 1) : 0,
          "%");
}

/** Traced-run tail shared by all workloads: probes, metrics, spans. */
void
finishTraced(const Options &o, const Inputs &in, unsigned jobs,
             Clock::time_point epoch, RunOutput &out,
             const std::vector<SpanLog> &opLogs,
             std::vector<CoreSample> &samples,
             std::atomic<std::uint64_t> &ids,
             std::vector<GridPass> poolPasses, double untracedRate,
             double tracedRate)
{
    std::vector<SpanLog> probeLogs(jobs, SpanLog(epoch));
    ProbeFigures pf = runProbes(in, probeLogs[0], ids, out.tally);
    if (poolPasses.empty()) {
        // The serial workloads bypass the pool and run three of the six
        // columns at most: one pool pass and one traced call-by-call
        // pass of the grid at this workload's input size supply the
        // sim.* and core.kips_* figures.
        std::vector<sim::SimConfig> grid = gridOf(in);
        poolPasses.push_back(poolPass(grid, jobs));
        checkPass(out.tally, in, poolPasses.back(), nullptr, "probe pool");
        GridPass tp = tracedPass(in, grid, jobs, probeLogs, ids, samples);
        checkPass(out.tally, in, tp, &poolPasses.back(), "probe traced");
    }
    addPoolMetrics(out.metrics, poolPasses);
    addLayerMetrics(out.metrics, opLogs, probeLogs, samples, pf,
                    untracedRate, tracedRate);
    if (!o.spansPath.empty())
        writeSpans(o.spansPath, {{"ops", &opLogs}, {"probes", &probeLogs}});
}

/** Probe samples taken before and after each figure-grid pass. */
constexpr unsigned kGridProbeBurst = 8;

void
runFigureGrid(const Options &o, const Inputs &in, unsigned jobs,
              const Setup &setup, Clock::time_point epoch, RunOutput &out)
{
    // A traced run splits its time between the untraced and traced
    // halves.
    const double window = o.trace ? o.seconds / 2 : o.seconds;
    Tally &t = out.tally;
    const std::vector<sim::SimConfig> grid = gridOf(in);

    // Warm-up, untimed: one simulation per worker.
    std::vector<sim::SimConfig> warm(
        grid.begin(), grid.begin() + std::min<std::size_t>(jobs, grid.size()));
    GridPass wp = poolPass(warm, jobs);
    for (std::size_t i = 0; i < wp.outs.size(); ++i)
        checkSim(t, wp.outs[i], in.refCount[i / kNumColumns], nullptr,
                 "warm-up");

    // Measured: whole-figure regenerations until the window is spent,
    // with the host probed between them while the pool is idle.
    std::vector<GridPass> passes;
    Window w;
    HostSpeed host(*setup.probe);
    auto t0 = Clock::now();
    do {
        host.sample(kGridProbeBurst);
        passes.push_back(poolPass(grid, jobs));
        const GridPass &p = passes.back();
        checkPass(t, in, p, passes.size() > 1 ? &passes.front() : nullptr,
                  "grid");
        for (const Outcome &oc : p.outs)
            if (oc.rec) {
                w.work += oc.rec->retired;
                w.opMs.push_back(oc.rec->hostSeconds * 1e3);
            }
        w.wall += p.wall;
        w.ops += p.outs.size();
        w.sliceRates.push_back(double(p.outs.size()) / p.wall);
    } while (secondsSince(t0) < window);
    host.sample(kGridProbeBurst);
    w.host = host.factor();
    out.host = w.host;
    out.model = gridModel(passes.front().outs, in.programs.size());
    for (std::size_t i = 0; i < passes.front().outs.size(); ++i) {
        const Outcome &oc = passes.front().outs[i];
        if (!oc.rec)
            continue;
        out.gridRows += (out.gridRows.empty() ? "" : ",");
        out.gridRows += "[" + jsonString(in.programs[i / kNumColumns]) +
                        "," + jsonString(kColumns[i % kNumColumns].name) +
                        "," + std::to_string(oc.rec->cycles) + "," +
                        std::to_string(oc.rec->retired) + "," +
                        std::to_string(oc.rec->flushes) + "]";
    }
    out.digest = digestOf(passes.front().outs);
    out.measuredOps = w.ops;
    out.sliceRates = w.sliceRates;
    if (!o.trace) {
        addEndToEnd(out.metrics, setup, w, out.model, t);
        return;
    }

    std::vector<SpanLog> logs(jobs, SpanLog(epoch));
    std::vector<CoreSample> samples;
    std::atomic<std::uint64_t> ids{0};
    Window tw;
    auto t1 = Clock::now();
    do {
        GridPass p = tracedPass(in, grid, jobs, logs, ids, samples);
        checkPass(t, in, p, &passes.front(), "traced grid");
        tw.wall += p.wall;
        tw.ops += p.outs.size();
    } while (secondsSince(t1) < window);
    finishTraced(o, in, jobs, epoch, out, logs, samples, ids, passes,
                 w.opsPerSecond(), tw.opsPerSecond());
}

void
runCliSingle(const Options &o, const Inputs &in, unsigned jobs,
             const Setup &setup, Clock::time_point epoch, RunOutput &out)
{
    // A traced run splits its time between the untraced and traced
    // halves.
    const double window = o.trace ? o.seconds / 2 : o.seconds;
    Tally &t = out.tally;
    const std::size_t np = in.programs.size();
    const std::size_t cycle = kNumCli * np;
    auto canon = [&](std::size_t i) { return i % cycle; };
    auto check = [&](std::size_t i, const OpResult &r,
                     const OpResult *want) -> std::uint64_t {
        std::size_t p = (i / kNumCli) % np;
        checkSim(t, r.sim, in.refCount[p], want ? &want->sim : nullptr,
                 "op " + std::to_string(i) + " " + in.programs[p]);
        return r.sim.rec ? r.sim.rec->retired : 0;
    };
    SerialRun run = serialLoop(
        window, cycle, nullptr, *setup.probe, canon,
        [&](std::size_t i) { return cliOp(in, i, nullptr, nullptr); },
        check);

    std::vector<const Outcome *> b, e, s;
    std::vector<Outcome> sims;
    for (std::size_t p = 0; p < np; ++p) {
        b.push_back(&run.results[p * kNumCli + 0].sim);
        e.push_back(&run.results[p * kNumCli + 1].sim);
        s.push_back(&run.results[p * kNumCli + 3].sim);
    }
    for (std::size_t i = 0; i < cycle; ++i)
        sims.push_back(run.results[i].sim);
    out.model = modelOf(b, e, s);
    out.digest = digestOf(sims);
    out.measuredOps = run.window.ops;
    out.sliceRates = run.window.sliceRates;
    out.host = run.window.host;
    if (!o.trace) {
        addEndToEnd(out.metrics, setup, run.window, out.model, t);
        return;
    }

    std::vector<SpanLog> logs(1, SpanLog(epoch));
    std::vector<CoreSample> samples;
    std::atomic<std::uint64_t> ids{0};
    SerialRun traced = serialLoop(
        window, cycle, &run, *setup.probe, canon,
        [&](std::size_t i) {
            logs[0].op = ids.fetch_add(1);
            ScopedSpan root(&logs[0], "bench.op");
            return cliOp(in, i, &logs[0], &samples);
        },
        check);
    finishTraced(o, in, jobs, epoch, out, logs, samples, ids, {},
                 run.window.opsPerSecond(), traced.window.opsPerSecond());
}

void
runStaticTools(const Options &o, const Inputs &in, unsigned jobs,
               const Setup &setup, Clock::time_point epoch, RunOutput &out)
{
    // A traced run splits its time between the untraced and traced
    // halves.
    const double window = o.trace ? o.seconds / 2 : o.seconds;
    Tally &t = out.tally;
    const std::size_t np = in.programs.size();
    // Guest programs repeat every 2*np ops; random programs never do.
    auto canon = [&](std::size_t i) {
        return i % 2 ? i : 2 * ((i / 2) % np);
    };
    auto check = [&](std::size_t i, const OpResult &r,
                     const OpResult *want) -> std::uint64_t {
        ++t.attempted;
        std::string what = "op " + std::to_string(i);
        if (!r.error.empty())
            t.fail(what + ": " + r.error);
        else if (want && want->facts != r.facts)
            t.fail(what + ": marks or findings differ from the first "
                          "run of this program");
        return r.staticInsts;
    };
    std::vector<isa::Program> marked(np);
    SerialRun run = serialLoop(
        window, 2 * np, nullptr, *setup.probe, canon,
        [&](std::size_t i) {
            bool keep = i < 2 * np && i % 2 == 0;
            return staticOp(in, o.seed, i, nullptr,
                            keep ? &marked[i / 2] : nullptr);
        },
        check);
    out.measuredOps = run.window.ops;
    out.sliceRates = run.window.sliceRates;
    out.host = run.window.host;

    // Model check, after the window and untimed: simulate the guest
    // programs with the static marks the ops produced, next to the base
    // and profile-marked enhanced machines.
    std::vector<Outcome> sims(np * 3);
    parallelFor(sims.size(), jobs, [&](unsigned, std::size_t i) {
        std::size_t p = i / 3, kind = i % 3;
        try {
            sim::SimResult r =
                kind == 2 ? sim::runSimOnProgram(
                                marked[p], {}, configFor(in, p, kColStatic))
                          : sim::runSim(configFor(
                                in, p, kind == 0 ? kColBase : kColEnh));
            sims[i].rec = toRecord(r);
        } catch (const std::exception &e) {
            sims[i].error = e.what();
        }
    });
    std::vector<const Outcome *> b, e, s;
    for (std::size_t i = 0; i < sims.size(); ++i) {
        checkSim(t, sims[i], in.refCount[i / 3], nullptr,
                 "model check " + in.programs[i / 3]);
        (i % 3 == 0 ? b : i % 3 == 1 ? e : s).push_back(&sims[i]);
    }
    out.model = modelOf(b, e, s);
    out.digest = digestOf(sims);
    if (!o.trace) {
        addEndToEnd(out.metrics, setup, run.window, out.model, t);
        return;
    }

    std::vector<SpanLog> logs(1, SpanLog(epoch));
    std::vector<CoreSample> samples;
    std::atomic<std::uint64_t> ids{0};
    SerialRun traced = serialLoop(
        window, 2 * np, &run, *setup.probe, canon,
        [&](std::size_t i) {
            logs[0].op = ids.fetch_add(1);
            ScopedSpan root(&logs[0], "bench.op");
            return staticOp(in, o.seed, i, &logs[0], nullptr);
        },
        check);
    finishTraced(o, in, jobs, epoch, out, logs, samples, ids, {},
                 run.window.opsPerSecond(), traced.window.opsPerSecond());
}

std::string
resultJson(const Options &o, const RunOutput &out, const Setup &setup,
           unsigned jobs)
{
    std::ostringstream js;
    js << "{\"workload\":" << jsonString(o.workload)
       << ",\"seed\":" << o.seed << ",\"trace\":" << (o.trace ? 1 : 0)
       << ",\"jobs\":" << jobs << ",\"attempted\":" << out.tally.attempted
       << ",\"failed\":" << out.tally.failed << ",\"failures\":[";
    for (std::size_t i = 0; i < out.tally.failures.size(); ++i)
        js << (i ? "," : "") << jsonString(out.tally.failures[i]);
    js << "],\"slice_ops_per_s\":[";
    for (std::size_t i = 0; i < out.sliceRates.size(); ++i)
        js << (i ? "," : "") << num(out.sliceRates[i]);
    js << "],\"measured_ops\":" << out.measuredOps
       << ",\"digest\":" << jsonString(out.digest)
       << ",\"grid\":[" << out.gridRows << "],\"model\":{"
       << "\"dmp_speedup\":" << num(out.model.speedup)
       << ",\"flush_ratio\":" << num(out.model.flushRatio)
       << ",\"static_recovery\":" << num(out.model.staticRecovery)
       << "},\"host\":{\"nominal_us\":" << num(HostProbe::kNominalUs)
       << ",\"setup\":" << num(setup.host)
       << ",\"window\":" << num(out.host)
       << "},\"build\":{\"compiler\":" << jsonString(PB_COMPILER)
       << ",\"flags\":" << jsonString(PB_CXX_FLAGS)
       << ",\"type\":" << jsonString(PB_BUILD_TYPE) << "},\"metrics\":{";
    bool first = true;
    for (const auto &[name, vu] : out.metrics.m) {
        js << (first ? "" : ",") << jsonString(name) << ":{\"value\":"
           << num(vu.first) << ",\"unit\":" << jsonString(vu.second) << "}";
        first = false;
    }
    js << "}}";
    return js.str();
}

int
runMain(int argc, char **argv)
{
    const Clock::time_point epoch = Clock::now();
    Options o = parseOptions(argc, argv);
    unsigned jobs = std::max(1u, std::thread::hardware_concurrency());

    // Set-up, repeated: the median of the repetitions is setup_s.
    HostProbe probe;
    HostSpeed setupHost(probe);
    std::vector<double> setupTimes;
    Inputs in;
    for (unsigned k = 0; k < kSetupReps; ++k) {
        setupHost.sample();
        auto s = Clock::now();
        in = makeInputs(o);
        setupTimes.push_back(secondsSince(s));
    }
    const Setup setup{percentile(setupTimes, 0.5), setupHost.factor(),
                      &probe};

    RunOutput out;
    if (o.workload == "figure-grid")
        runFigureGrid(o, in, jobs, setup, epoch, out);
    else if (o.workload == "cli-single")
        runCliSingle(o, in, jobs, setup, epoch, out);
    else
        runStaticTools(o, in, jobs, setup, epoch, out);
    if (!out.model.valid)
        out.tally.fail("model metrics undefined (a model run failed)");
    std::printf("%s\n", resultJson(o, out, setup, jobs).c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return runMain(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "dmp-perfbench: %s\n", e.what());
        return 1;
    }
}
