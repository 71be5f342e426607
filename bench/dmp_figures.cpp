/**
 * @file
 * dmp-figures: regenerates every table and figure of the paper's
 * evaluation (Tables 2-3, Figures 1 and 6-13, section 5.3, and the
 * ablations/extensions) from one declarative grid.
 *
 * Each table is a spec: a name, the (label, SimConfig mutator) columns
 * it needs for every workload, and a printer that reads the finished
 * results. The driver submits the union of the selected tables' grids
 * once to a single sim::BatchRunner (so a configuration shared by
 * several tables simulates once), then prints the tables in paper
 * order. Output is bit-identical at any DMP_BENCH_JOBS.
 *
 * Usage: dmp-figures [TABLE...]
 *   With no arguments every table is printed; otherwise only the named
 *   ones (e.g. fig09_enhanced_dmp fig11_flush_reduction).
 *
 * Environment knobs (see bench_util.hh): DMP_BENCH_ITERS,
 * DMP_BENCH_WORKLOADS, DMP_BENCH_JOBS, DMP_BENCH_ACCT, and
 *   DMP_STATS_JSON  append one schema-1 JSONL record per distinct
 *                   (label, configuration) of the selected tables to
 *                   this path (dmp-report consumes these). Within a
 *                   table, a configuration is recorded under the first
 *                   column that asks for it.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_set>
#include <vector>

#include "bench_util.hh"
#include "core/core.hh"
#include "sim/batch.hh"

using namespace dmp;
using namespace dmp::bench;

namespace
{

using Columns = std::vector<std::pair<std::string, ConfigFn>>;

/** One table's submitted grid: a result per (workload, column label). */
class Grid
{
  public:
    struct Cell
    {
        std::string workload;
        std::string label;
        std::string fingerprint;
        std::shared_future<std::shared_ptr<const sim::SimResult>> result;
    };

    Grid(sim::BatchRunner &pool, const std::vector<std::string> &wls,
         const Columns &columns)
        : wls(wls)
    {
        for (const std::string &wl : wls) {
            for (const auto &[label, fn] : columns) {
                sim::SimConfig cfg = makeConfig(wl, fn);
                index[wl + "/" + label] = cells.size();
                cells.push_back({wl, label, sim::configFingerprint(cfg),
                                 pool.submit(cfg)});
            }
        }
    }

    /** Result of column `label` on workload `wl` (waits for it). */
    const sim::SimResult &
    operator()(const std::string &wl, const std::string &label) const
    {
        return *cells.at(index.at(wl + "/" + label)).result.get();
    }

    const std::vector<std::string> &workloads() const { return wls; }

    /** Cells in submission order: workload-major, then column order. */
    const std::vector<Cell> &all() const { return cells; }

  private:
    std::vector<std::string> wls;
    std::vector<Cell> cells;
    std::map<std::string, std::size_t> index;
};

struct Table
{
    const char *name;
    Columns columns;
    void (*print)(const Grid &);
};

// ---------------------------------------------------------------------
// Configurations private to one table.
// ---------------------------------------------------------------------

void
cfgClassify(sim::SimConfig &c)
{
    c.core.classifyWrongPath = true;
}

ConfigFn
withMachine(unsigned rob, unsigned depth, ConfigFn inner)
{
    return [rob, depth, inner](sim::SimConfig &c) {
        inner(c);
        c.core.robSize = rob;
        c.core.frontendDepth = depth;
    };
}

/** Figure 13 sweep points: label prefix, ROB size, front-end depth. */
struct Point
{
    const char *label;
    unsigned rob;
    unsigned depth;
};

const Point kWindows[] = {{"w128", 128, 30},
                          {"w256", 256, 30},
                          {"w512", 512, 30}};
const Point kDepths[] = {{"d10", 256, 10}, {"d20", 256, 20},
                         {"d30", 256, 30}};

void
cfgNoEexit(sim::SimConfig &c)
{
    cfgDmpBasic(c);
    c.core.enhMultiCfm = true;
}

void
cfgCompilerN(sim::SimConfig &c)
{
    cfgNoEexit(c);
    c.core.enhEarlyExit = true;
}

ConfigFn
cfgStaticN(unsigned n)
{
    return [n](sim::SimConfig &c) {
        cfgCompilerN(c);
        c.core.forceStaticEarlyExit = true;
        c.core.staticEarlyExitThreshold = n;
    };
}

/** Loop-branch extension: the profiler must also mark loop branches. */
void
cfgLoopExt(sim::SimConfig &c)
{
    cfgDmpEnhanced(c);
    c.marker.markLoopBranches = true;
    c.core.extLoopBranches = true;
}

void
cfgSelectiveUpdate(sim::SimConfig &c)
{
    cfgDmpEnhanced(c);
    c.core.extSelectiveUpdate = true;
}

void
cfgAlwaysLow(sim::SimConfig &c)
{
    cfgDmpEnhanced(c);
    c.core.alwaysLowConfidence = true;
}

void
cfgPerfect(sim::SimConfig &c)
{
    cfgDmpEnhanced(c);
    c.core.perfectConfidence = true;
}

/** Enhanced DMP with non-default section 3.2 marking heuristics. */
ConfigFn
withMarker(unsigned max_dist, double reconv)
{
    return [max_dist, reconv](sim::SimConfig &c) {
        c.marker.maxCfmDistance = max_dist;
        c.marker.reconvergeFraction = reconv;
        cfgDmpEnhanced(c);
    };
}

const unsigned kCfmDists[] = {30, 60, 120, 240};
const std::pair<const char *, double> kReconvFracs[] = {
    {"f05", 0.05}, {"f20", 0.20}, {"f50", 0.50}};

ConfigFn
withPredictor(core::PredictorKind kind, bool dmp)
{
    return [kind, dmp](sim::SimConfig &c) {
        if (dmp)
            cfgDmpEnhanced(c);
        c.core.predictor = kind;
    };
}

const std::pair<const char *, core::PredictorKind> kPredictors[] = {
    {"perceptron", core::PredictorKind::Perceptron},
    {"hybrid", core::PredictorKind::Hybrid},
    {"gshare", core::PredictorKind::Gshare},
    {"bimodal", core::PredictorKind::Bimodal},
};

// ---------------------------------------------------------------------
// Printers, one per table.
// ---------------------------------------------------------------------

/** Table 2 — the machine this reproduction instantiates vs the paper. */
void
printTable2(const Grid &)
{
    core::CoreParams p; // Table 2 defaults
    std::printf("\n=== Table 2: baseline processor configuration ===\n");
    std::printf("%-34s %-28s %s\n", "parameter", "paper", "this model");
    auto row = [](const char *name, const char *paper,
                  const std::string &ours) {
        std::printf("%-34s %-28s %s\n", name, paper, ours.c_str());
    };
    row("fetch width", "8, up to 3 cond. branches",
        std::to_string(p.fetchWidth) + ", up to " +
            std::to_string(p.maxCondBranchesPerFetch) + " branches");
    row("fetch policy", "ends at first taken branch",
        "ends at first taken branch");
    row("min. mispredict penalty", "30 cycles",
        std::to_string(p.frontendDepth) + " cycles");
    row("instruction window", "512-entry ROB",
        std::to_string(p.robSize) + "-entry ROB");
    row("execute/retire width", "8-wide",
        std::to_string(p.issueWidth) + "/" +
            std::to_string(p.retireWidth) + "-wide");
    row("branch predictor", "64KB perceptron, 59-bit hist",
        "perceptron, 1021 entries, 59-bit hist");
    row("BTB", "4K-entry", std::to_string(p.btbEntries) + "-entry");
    row("return address stack", "64-entry",
        std::to_string(p.rasEntries) + "-entry");
    row("indirect target cache", "64K-entry",
        std::to_string(p.itcEntries) + "-entry");
    row("L1 I-cache", "64KB 2-way 2-cycle", "64KB 2-way 2-cycle");
    row("L1 D-cache", "64KB 4-way 2-cycle", "64KB 4-way 2-cycle");
    row("L2 cache", "1MB 8-way 8-bank 10-cycle",
        "1MB 8-way 8-bank 10-cycle");
    row("memory", "300-cycle min, 32 banks", "300-cycle min, 32 banks");
    row("confidence estimator", "1KB JRS, 12-bit history",
        "1KB JRS, 4-bit history (short-run adaptation)");
}

/**
 * Table 3 — baseline IPC, retired instructions, conditional branches
 * and mispredictions. Paper: IPC 0.81 (mcf) ... 4.14 (mesa);
 * mispredictions from ~0 (perlbmk) to ~9.3 per 1000 insts (vpr).
 */
void
printTable3(const Grid &g)
{
    std::printf("\n=== Table 3: baseline characteristics ===\n");
    std::printf("%-10s %8s %10s %10s %10s %9s\n", "bench", "IPC",
                "insts", "branches", "mispred", "misp/KI");
    for (const std::string &wl : g.workloads()) {
        const sim::SimResult &r = g(wl, "base");
        double mpki =
            1000.0 * double(r.require("retired_mispred_cond_branches")) /
            double(r.retiredInsts);
        std::printf("%-10s %8.2f %10llu %10llu %10llu %9.2f\n",
                    wl.c_str(), r.ipc,
                    (unsigned long long)r.retiredInsts,
                    (unsigned long long)r.require("retired_cond_branches"),
                    (unsigned long long)
                        r.require("retired_mispred_cond_branches"),
                    mpki);
    }
}

/**
 * Figure 1 — wrong-path share of fetched instructions, split into
 * control-dependent and control-independent. Paper: ~52% wrong-path,
 * ~33% of all fetched instructions control-independent.
 */
void
printFig01(const Grid &g)
{
    std::printf("\n=== Figure 1: wrong-path fetched instructions ===\n");
    std::printf("%-10s %10s %10s %10s | %8s %8s\n", "bench", "fetched",
                "wp_dep", "wp_indep", "%dep", "%indep");
    double sum_dep = 0, sum_indep = 0;
    unsigned n = 0;
    for (const std::string &wl : g.workloads()) {
        const sim::SimResult &r = g(wl, "base_classified");
        double fetched = double(r.require("fetched_insts"));
        double dep = double(r.require("wp_control_dependent"));
        double indep = double(r.require("wp_control_independent"));
        std::printf("%-10s %10.0f %10.0f %10.0f | %7.1f%% %7.1f%%\n",
                    wl.c_str(), fetched, dep, indep, 100 * dep / fetched,
                    100 * indep / fetched);
        sum_dep += 100 * dep / fetched;
        sum_indep += 100 * indep / fetched;
        ++n;
    }
    std::printf("%-10s %32s | %7.1f%% %7.1f%%\n", "average", "",
                sum_dep / n, sum_indep / n);
    std::printf("(paper: ~19%% control-dependent, ~33%% "
                "control-independent of all fetched instructions)\n");
}

/**
 * Figure 6 — mispredicted conditional branches by class (per 1000
 * insts). Paper: 57% diverge branches on average, 9% simple hammocks.
 */
void
printFig06(const Grid &g)
{
    std::printf("\n=== Figure 6: misprediction classes (per 1000 "
                "insts, from the profile run) ===\n");
    std::printf("%-10s %9s %9s %9s %9s | %7s\n", "bench", "hammock",
                "complex", "other", "total", "%div");
    double div_share_sum = 0, hammock_share_sum = 0;
    unsigned n = 0;
    for (const std::string &wl : g.workloads()) {
        const auto &c = g(wl, "base").marking.classification;
        double ki = double(c.totalInsts) / 1000.0;
        double h = double(c.simpleHammockDiverge) / ki;
        double x = double(c.complexDiverge) / ki;
        double o = double(c.otherComplex) / ki;
        double total = h + x + o;
        double div_share = total > 0 ? 100.0 * (h + x) / total : 0.0;
        std::printf("%-10s %9.2f %9.2f %9.2f %9.2f | %6.1f%%\n",
                    wl.c_str(), h, x, o, total, div_share);
        div_share_sum += div_share;
        hammock_share_sum += total > 0 ? 100.0 * h / total : 0.0;
        ++n;
    }
    std::printf("average diverge share %.1f%% (paper: 57%%), simple "
                "hammock share %.1f%% (paper: ~9%%)\n",
                div_share_sum / n, hammock_share_sum / n);
}

/**
 * One row per workload of `labels`' %IPC over the "base" column, then
 * the column averages; each cell printed with `cell` (e.g. " %+8.1f%%").
 */
void
printIpcDeltas(const Grid &g, const std::vector<const char *> &labels,
               const char *cell)
{
    std::vector<double> sums(labels.size(), 0);
    unsigned n = 0;
    for (const std::string &wl : g.workloads()) {
        double base = g(wl, "base").ipc;
        std::printf("%-10s |", wl.c_str());
        for (std::size_t i = 0; i < labels.size(); ++i) {
            double d = sim::pctDelta(g(wl, labels[i]).ipc, base);
            std::printf(cell, d);
            sums[i] += d;
        }
        std::printf("\n");
        ++n;
    }
    std::printf("%-10s |", "average");
    for (double s : sums)
        std::printf(cell, s / n);
}

/**
 * Figure 7 — basic DMP %IPC over baseline. Paper averages: DHP-jrs
 * +2.8%, DHP-perf-conf +3.4%, diverge-jrs +5%, diverge-perf-conf +19%,
 * perfect-cbp +48%.
 */
void
printFig07(const Grid &g)
{
    std::printf("\n=== Figure 7: %%IPC over baseline, basic DMP ===\n");
    std::printf("%-10s | %9s %9s %9s %9s %9s %9s\n", "bench",
                "DHP-jrs", "DHP-perf", "div-jrs", "div-perf",
                "perf-cbp", "static");
    printIpcDeltas(g,
                   {"dhp_jrs", "dhp_perf_conf", "diverge_jrs",
                    "diverge_perf_conf", "perfect_cbp", "dmp_static"},
                   " %+8.1f%%");
    std::printf("\n(paper averages: +2.8%%, +3.4%%, +5%%, +19%%, "
                "+48%%; static = enhanced DMP with profile-free "
                "marks, no paper analogue)\n");
    std::printf("note: the -perf-conf columns are lower bounds here — "
                "this reproduction's perfect-confidence oracle can only "
                "certify a misprediction while its correct-path tracker "
                "is synchronized (see DESIGN.md section 5).\n");
}

/** Figure 8 — exit cases (Table 1 cases 1-6) of the basic DMP. */
void
printFig08(const Grid &g)
{
    std::printf("\n=== Figure 8: exit cases, basic DMP ===\n");
    std::printf("%-10s %8s | %6s %6s %6s %6s %6s %6s\n", "bench",
                "entries", "c1%", "c2%", "c3%", "c4%", "c5%", "c6%");
    for (const std::string &wl : g.workloads()) {
        const sim::SimResult &r = g(wl, "diverge_jrs");
        double cases[6];
        double total = 0;
        for (int i = 0; i < 6; ++i) {
            cases[i] =
                double(r.require("exit_case" + std::to_string(i + 1)));
            total += cases[i];
        }
        std::printf("%-10s %8llu |", wl.c_str(),
                    (unsigned long long)r.require("dpred_entries"));
        for (int i = 0; i < 6; ++i)
            std::printf(" %5.1f%%",
                        total ? 100.0 * cases[i] / total : 0.0);
        std::uint64_t conv = r.require("early_exits") +
                             r.require("mdb_conversions") +
                             r.require("overflow_conversions");
        std::printf("   (conversions %llu, squashed %llu)\n",
                    (unsigned long long)conv,
                    (unsigned long long)r.require("squashed_episodes"));
    }
}

/**
 * Figure 9 — enhanced DMP, cumulative enhancements. Paper average for
 * the full enhanced machine: +10.8%.
 */
void
printFig09(const Grid &g)
{
    std::printf("\n=== Figure 9: %%IPC over baseline, enhanced DMP "
                "(cumulative; dmp_static = enhanced machine with "
                "profile-free marks) ===\n");
    std::printf("%-10s | %10s %10s %12s %15s %10s\n", "bench", "basic",
                "+mcfm", "+mcfm+eexit", "+mcfm+eexit+mdb", "static");
    printIpcDeltas(g,
                   {"basic", "mcfm", "mcfm_eexit", "mcfm_eexit_mdb",
                    "dmp_static"},
                   "   %+7.1f%%");
    std::printf("\n(paper average for the full enhanced machine: "
                "+10.8%%)\n");
}

/** Figure 10 — exit cases of the enhanced DMP. Paper: case 3 10%->3%. */
void
printFig10(const Grid &g)
{
    std::printf("\n=== Figure 10: exit cases, enhanced DMP ===\n");
    std::printf("%-10s %8s | %6s %6s %6s %6s %6s %6s | %6s %6s\n",
                "bench", "entries", "c1%", "c2%", "c3%", "c4%", "c5%",
                "c6%", "eexit", "mdb");
    double c3_basic_sum = 0, c3_enh_sum = 0;
    unsigned n = 0;
    for (const std::string &wl : g.workloads()) {
        const sim::SimResult &r = g(wl, "enhanced");
        const sim::SimResult &rb = g(wl, "basic");
        double cases[6];
        double total = 0;
        for (int i = 0; i < 6; ++i) {
            cases[i] =
                double(r.require("exit_case" + std::to_string(i + 1)));
            total += cases[i];
        }
        std::printf("%-10s %8llu |", wl.c_str(),
                    (unsigned long long)r.require("dpred_entries"));
        for (int i = 0; i < 6; ++i)
            std::printf(" %5.1f%%",
                        total ? 100.0 * cases[i] / total : 0.0);
        std::printf(" | %6llu %6llu\n",
                    (unsigned long long)r.require("early_exits"),
                    (unsigned long long)r.require("mdb_conversions"));
        double tb = 0;
        for (int i = 0; i < 6; ++i)
            tb += double(rb.require("exit_case" + std::to_string(i + 1)));
        if (total > 0 && tb > 0) {
            c3_enh_sum += 100.0 * cases[2] / total;
            c3_basic_sum += 100.0 * double(rb.require("exit_case3")) / tb;
            ++n;
        }
    }
    std::printf("average case-3 share: basic %.1f%% -> enhanced %.1f%% "
                "(paper: 10%% -> 3%%)\n",
                c3_basic_sum / n, c3_enh_sum / n);
}

/** Figure 11 — pipeline-flush reduction of enhanced DMP (paper: 31%). */
void
printFig11(const Grid &g)
{
    std::printf("\n=== Figure 11: pipeline-flush reduction, enhanced "
                "DMP ===\n");
    std::printf("%-10s %10s %10s | %10s\n", "bench", "base", "enhanced",
                "reduction");
    double sum = 0;
    unsigned n = 0;
    for (const std::string &wl : g.workloads()) {
        std::uint64_t base = g(wl, "base").require("pipeline_flushes");
        std::uint64_t enh = g(wl, "enhanced").require("pipeline_flushes");
        double red =
            base ? 100.0 * (double(base) - double(enh)) / double(base)
                 : 0.0;
        std::printf("%-10s %10llu %10llu | %9.1f%%\n", wl.c_str(),
                    (unsigned long long)base, (unsigned long long)enh,
                    red);
        sum += red;
        ++n;
    }
    std::printf("%-10s %21s | %9.1f%%   (paper: 31%%)\n", "average", "",
                sum / n);
}

/**
 * Figure 12 — fetched and executed instructions, enhanced DMP vs
 * baseline. Paper: fetch -18%, executed +9%.
 */
void
printFig12(const Grid &g)
{
    std::printf("\n=== Figure 12: fetched / executed instructions ===\n");
    std::printf("%-10s | %10s %10s %7s | %10s %10s %7s %8s %8s\n",
                "bench", "fetchBase", "fetchEnh", "d%", "execBase",
                "execEnh", "d%", "extra", "select");
    double fetch_delta_sum = 0, exec_delta_sum = 0;
    unsigned n = 0;
    for (const std::string &wl : g.workloads()) {
        const sim::SimResult &b = g(wl, "base");
        const sim::SimResult &e = g(wl, "enhanced");
        double fb = double(b.require("fetched_insts"));
        double fe = double(e.require("fetched_insts"));
        double xb = double(b.require("executed_insts"));
        double xe = double(e.require("executed_insts")) +
                    double(e.require("executed_extra_uops")) +
                    double(e.require("executed_select_uops"));
        double fd = 100.0 * (fe - fb) / fb;
        double xd = 100.0 * (xe - xb) / xb;
        std::printf("%-10s | %10.0f %10.0f %+6.1f%% | %10.0f %10.0f "
                    "%+6.1f%% %8llu %8llu\n",
                    wl.c_str(), fb, fe, fd, xb, xe, xd,
                    (unsigned long long)e.require("executed_extra_uops"),
                    (unsigned long long)e.require("executed_select_uops"));
        fetch_delta_sum += fd;
        exec_delta_sum += xd;
        ++n;
    }
    std::printf("average fetch delta %+.1f%% (paper: -18%%), executed "
                "delta %+.1f%% (paper: +9%%)\n",
                fetch_delta_sum / n, exec_delta_sum / n);
}

Columns
fig13Columns()
{
    Columns cols;
    for (const auto *pts : {kWindows, kDepths}) {
        for (int i = 0; i < 3; ++i) {
            const Point &pt = pts[i];
            std::string l = pt.label;
            cols.emplace_back(l + "_base",
                              withMachine(pt.rob, pt.depth, cfgBaseline));
            cols.emplace_back(l + "_dhp",
                              withMachine(pt.rob, pt.depth, cfgDhp));
            cols.emplace_back(l + "_enh", withMachine(pt.rob, pt.depth,
                                                      cfgDmpEnhanced));
        }
    }
    return cols;
}

/** Mean IPC of one column over all workloads. */
double
averageIpc(const Grid &g, const std::string &label)
{
    double sum = 0;
    unsigned n = 0;
    for (const std::string &wl : g.workloads()) {
        sum += g(wl, label).ipc;
        ++n;
    }
    return sum / n;
}

void
printSweep(const Grid &g, const char *title, const Point *pts,
           const char *axis)
{
    std::printf("\n=== %s ===\n", title);
    std::printf("%-18s %10s %10s %10s | %8s %8s\n", axis, "base", "DHP",
                "enhanced", "DHP%", "enh%");
    for (int i = 0; i < 3; ++i) {
        std::string l = pts[i].label;
        double base = averageIpc(g, l + "_base");
        double dhp = averageIpc(g, l + "_dhp");
        double enh = averageIpc(g, l + "_enh");
        std::printf("%-18s %10.3f %10.3f %10.3f | %+7.1f%% %+7.1f%%\n",
                    pts[i].label, base, dhp, enh, sim::pctDelta(dhp, base),
                    sim::pctDelta(enh, base));
    }
}

/**
 * Figure 13 — sensitivity to instruction window size and pipeline
 * depth. Paper: the enhanced-DMP gain grows with both.
 */
void
printFig13(const Grid &g)
{
    printSweep(g, "Figure 13a: instruction window size", kWindows,
               "window (30-stage)");
    printSweep(g, "Figure 13b: pipeline depth", kDepths,
               "depth (256-entry)");
    std::printf("(paper: enhanced-DMP gain grows with both window size "
                "and pipeline depth)\n");
}

/**
 * Section 5.3 — selective dual-path vs DHP vs enhanced DMP. Paper
 * averages: dual-path +2.6%, DHP +2.8%, enhanced DMP +10.8%.
 */
void
printSec53(const Grid &g)
{
    std::printf("\n=== Section 5.3: dual-path vs DHP vs enhanced DMP "
                "===\n");
    std::printf("%-10s %8s | %9s %9s %9s | %8s\n", "bench", "baseIPC",
                "dual%", "DHP%", "DMPenh%", "forks");
    double sums[3] = {0, 0, 0};
    unsigned n = 0;
    for (const std::string &wl : g.workloads()) {
        const sim::SimResult &b = g(wl, "base");
        const sim::SimResult &d = g(wl, "dual");
        double dd = sim::pctDelta(d.ipc, b.ipc);
        double dh = sim::pctDelta(g(wl, "dhp").ipc, b.ipc);
        double de = sim::pctDelta(g(wl, "enhanced").ipc, b.ipc);
        std::printf("%-10s %8.2f | %+8.1f%% %+8.1f%% %+8.1f%% | %8llu\n",
                    wl.c_str(), b.ipc, dd, dh, de,
                    (unsigned long long)d.require("dual_forks"));
        sums[0] += dd;
        sums[1] += dh;
        sums[2] += de;
        ++n;
    }
    std::printf("%-10s %8s | %+8.1f%% %+8.1f%% %+8.1f%%\n", "average",
                "", sums[0] / n, sums[1] / n, sums[2] / n);
    std::printf("(paper: +2.6%%, +2.8%%, +10.8%% — dual-path < DHP << "
                "enhanced DMP)\n");
}

/**
 * Ablation (section 2.7.2) — compiler-selected per-branch early-exit
 * thresholds vs one static threshold. Paper: the compiler-selected
 * threshold "performs slightly better".
 */
void
printAblEarlyExit(const Grid &g)
{
    std::printf("\n=== Ablation: early-exit threshold policy (%%IPC "
                "over baseline) ===\n");
    std::printf("%-10s | %9s %10s %9s %9s %9s\n", "bench", "none",
                "compilerN", "N=16", "N=48", "N=128");
    printIpcDeltas(g,
                   {"no_eexit", "compiler_n", "static16", "static48",
                    "static128"},
                   " %+8.1f%%");
    std::printf("\n(paper: compiler-selected N slightly beats any "
                "static N)\n");
}

/**
 * Section 2.7.4 extensions on the enhanced machine: diverge loop
 * branches (wish-loop-style predication of loop back-edges) and the
 * selective branch-predictor update policy.
 */
void
printExtFutureWork(const Grid &g)
{
    std::printf("\n=== Section 2.7.4 extensions (%%IPC over baseline) "
                "===\n");
    std::printf("%-10s | %10s %10s %10s | %10s\n", "bench", "enhanced",
                "+loopbr", "+selupd", "loop-marks");
    double sums[3] = {0, 0, 0};
    unsigned n = 0;
    for (const std::string &wl : g.workloads()) {
        double base = g(wl, "base").ipc;
        const sim::SimResult &loop = g(wl, "loop_ext");
        double d0 = sim::pctDelta(g(wl, "enhanced").ipc, base);
        double d1 = sim::pctDelta(loop.ipc, base);
        double d2 = sim::pctDelta(g(wl, "sel_update").ipc, base);
        std::printf("%-10s | %+9.1f%% %+9.1f%% %+9.1f%% | %10llu\n",
                    wl.c_str(), d0, d1, d2,
                    (unsigned long long)loop.marking.markedLoop);
        sums[0] += d0;
        sums[1] += d1;
        sums[2] += d2;
        ++n;
    }
    std::printf("%-10s | %+9.1f%% %+9.1f%% %+9.1f%%\n", "average",
                sums[0] / n, sums[1] / n, sums[2] / n);
}

/**
 * Ablation — the confidence gate, from the realistic JRS through
 * "predicate every marked instance" to the perfect oracle. Paper: DMP's
 * benefit "critically depends" on confidence estimation.
 */
void
printAblConfidence(const Grid &g)
{
    std::printf("\n=== Ablation: confidence gate (enhanced DMP, %%IPC "
                "over baseline) ===\n");
    std::printf("%-10s | %9s %9s %9s | %10s %10s\n", "bench", "JRS",
                "always", "perfect", "entr(JRS)", "entr(alw)");
    double sums[3] = {0, 0, 0};
    unsigned n = 0;
    for (const std::string &wl : g.workloads()) {
        const sim::SimResult &b = g(wl, "base");
        const sim::SimResult &j = g(wl, "jrs");
        const sim::SimResult &a = g(wl, "always");
        double dj = sim::pctDelta(j.ipc, b.ipc);
        double da = sim::pctDelta(a.ipc, b.ipc);
        double dp = sim::pctDelta(g(wl, "perfect").ipc, b.ipc);
        std::printf("%-10s | %+8.1f%% %+8.1f%% %+8.1f%% | %10llu "
                    "%10llu\n",
                    wl.c_str(), dj, da, dp,
                    (unsigned long long)j.require("dpred_entries"),
                    (unsigned long long)a.require("dpred_entries"));
        sums[0] += dj;
        sums[1] += da;
        sums[2] += dp;
        ++n;
    }
    std::printf("%-10s | %+8.1f%% %+8.1f%% %+8.1f%%\n", "average",
                sums[0] / n, sums[1] / n, sums[2] / n);
    std::printf("(paper: realistic JRS captures roughly half of the "
                "perfect-confidence potential)\n");
}

Columns
markerColumns()
{
    Columns cols = {{"base", cfgBaseline}};
    for (unsigned d : kCfmDists)
        cols.emplace_back("cfm_d" + std::to_string(d), withMarker(d, 0.20));
    for (const auto &[name, f] : kReconvFracs)
        cols.emplace_back(std::string("reconv_") + name,
                          withMarker(120, f));
    return cols;
}

/**
 * Ablation — the section 3.2 marking heuristics: the 120-instruction
 * CFM distance bound and the 20% reconvergence fraction ("chosen after
 * considering different combinations of alternatives").
 */
void
printAblMarker(const Grid &g)
{
    std::printf("\n=== Ablation: CFM distance bound (reconverge "
                "fraction 0.20, %%IPC over baseline) ===\n");
    std::printf("%-10s | %9s %9s %9s %9s\n", "bench", "d30", "d60",
                "d120", "d240");
    for (const std::string &wl : g.workloads()) {
        double base = g(wl, "base").ipc;
        std::printf("%-10s |", wl.c_str());
        for (unsigned d : kCfmDists)
            std::printf(" %+8.1f%%",
                        sim::pctDelta(
                            g(wl, "cfm_d" + std::to_string(d)).ipc, base));
        std::printf("\n");
    }

    std::printf("\n=== Ablation: reconvergence fraction (distance 120) "
                "===\n");
    std::printf("%-10s | %9s %9s %9s\n", "bench", "f05", "f20", "f50");
    for (const std::string &wl : g.workloads()) {
        double base = g(wl, "base").ipc;
        std::printf("%-10s |", wl.c_str());
        for (const auto &[name, f] : kReconvFracs)
            std::printf(" %+8.1f%%",
                        sim::pctDelta(
                            g(wl, std::string("reconv_") + name).ipc,
                            base));
        std::printf("\n");
    }
    std::printf("(paper: 120 instructions / 20%% chosen after "
                "considering alternatives)\n");
}

Columns
predictorColumns()
{
    Columns cols;
    for (const auto &[name, kind] : kPredictors) {
        cols.emplace_back(std::string(name) + "_base",
                          withPredictor(kind, false));
        cols.emplace_back(std::string(name) + "_dmp",
                          withPredictor(kind, true));
    }
    return cols;
}

/**
 * Ablation — direction-predictor sensitivity: does the diverge-merge
 * benefit survive weaker predictors? (The paper uses "a large and
 * aggressive branch predictor ... to avoid inflating the performance
 * of the diverge-merge concept".)
 */
void
printAblPredictor(const Grid &g)
{
    std::printf("\n=== Ablation: predictor sensitivity (15-benchmark "
                "average) ===\n");
    std::printf("%-12s %10s %10s | %9s\n", "predictor", "baseIPC",
                "dmpIPC", "gain");
    for (const auto &[name, kind] : kPredictors) {
        double base_sum = 0, dmp_sum = 0;
        unsigned n = 0;
        for (const std::string &wl : g.workloads()) {
            base_sum += g(wl, std::string(name) + "_base").ipc;
            dmp_sum += g(wl, std::string(name) + "_dmp").ipc;
            ++n;
        }
        std::printf("%-12s %10.3f %10.3f | %+8.1f%%\n", name,
                    base_sum / n, dmp_sum / n,
                    sim::pctDelta(dmp_sum, base_sum));
    }
    std::printf("(weaker predictors leave more mispredictions for DMP "
                "to cover: the gain should not shrink)\n");
}

/** Every table, in the order they are printed. */
std::vector<Table>
paperTables()
{
    return {
        {"table2_config", {}, printTable2},
        {"table3_baseline", {{"base", cfgBaseline}}, printTable3},
        {"fig01_wrongpath", {{"base_classified", cfgClassify}}, printFig01},
        {"fig06_branch_classes", {{"base", cfgBaseline}}, printFig06},
        {"fig07_basic_dmp",
         {{"base", cfgBaseline},
          {"dhp_jrs", cfgDhp},
          {"dhp_perf_conf", cfgDhpPerfConf},
          {"diverge_jrs", cfgDmpBasic},
          {"diverge_perf_conf", cfgDmpPerfConf},
          {"perfect_cbp", cfgPerfectCbp},
          {"dmp_static", cfgDmpStatic}},
         printFig07},
        {"fig08_exit_cases_basic", {{"diverge_jrs", cfgDmpBasic}},
         printFig08},
        {"fig09_enhanced_dmp",
         {{"base", cfgBaseline},
          {"basic", cfgDmpBasic},
          {"mcfm", cfgDmpMcfm},
          {"mcfm_eexit", cfgDmpMcfmEexit},
          {"mcfm_eexit_mdb", cfgDmpEnhanced},
          {"dmp_static", cfgDmpStatic}},
         printFig09},
        {"fig10_exit_cases_enhanced",
         {{"enhanced", cfgDmpEnhanced}, {"basic", cfgDmpBasic}},
         printFig10},
        {"fig11_flush_reduction",
         {{"base", cfgBaseline}, {"enhanced", cfgDmpEnhanced}},
         printFig11},
        {"fig12_fetch_exec_overhead",
         {{"base", cfgBaseline}, {"enhanced", cfgDmpEnhanced}},
         printFig12},
        {"fig13_window_pipeline", fig13Columns(), printFig13},
        {"sec53_dualpath",
         {{"base", cfgBaseline},
          {"dual", cfgDualPath},
          {"dhp", cfgDhp},
          {"enhanced", cfgDmpEnhanced}},
         printSec53},
        {"abl_early_exit_threshold",
         {{"base", cfgBaseline},
          {"no_eexit", cfgNoEexit},
          {"compiler_n", cfgCompilerN},
          {"static16", cfgStaticN(16)},
          {"static48", cfgStaticN(48)},
          {"static128", cfgStaticN(128)}},
         printAblEarlyExit},
        {"ext_future_work",
         {{"base", cfgBaseline},
          {"enhanced", cfgDmpEnhanced},
          {"sel_update", cfgSelectiveUpdate},
          {"loop_ext", cfgLoopExt}},
         printExtFutureWork},
        {"abl_confidence",
         {{"base", cfgBaseline},
          {"jrs", cfgDmpEnhanced},
          {"always", cfgAlwaysLow},
          {"perfect", cfgPerfect}},
         printAblConfidence},
        {"abl_marker_heuristics", markerColumns(), printAblMarker},
        {"abl_predictor", predictorColumns(), printAblPredictor},
    };
}

/**
 * Append one JSONL record per distinct (label, configuration): a table
 * records each configuration under its first column that asks for it,
 * and a pair already recorded by an earlier table is skipped.
 */
void
exportStats(const char *path, const std::vector<Grid> &grids)
{
    std::ofstream out(path, std::ios::app);
    if (!out)
        dmp_fatal("DMP_STATS_JSON: cannot append to '", path, "'");
    const std::string iters = std::to_string(benchIterations());
    std::set<std::pair<std::string, std::string>> written;
    for (const Grid &g : grids) {
        std::unordered_set<std::string> inTable;
        for (const Grid::Cell &c : g.all()) {
            if (!inTable.insert(c.fingerprint).second ||
                !written.emplace(c.label, c.fingerprint).second)
                continue;
            // Fingerprints use only JSON-string-safe characters, so
            // they can be spliced into the record without escaping.
            std::string extra = "\"fingerprint\":\"" + c.fingerprint +
                                "\",\"bench_iters\":" + iters;
            out << sim::simResultJson(*c.result.get(), c.label, c.workload,
                                      extra)
                << "\n";
        }
    }
}

} // namespace

int
main(int argc, char **argv)
{
    const auto t0 = std::chrono::steady_clock::now();
    const std::vector<Table> tables = paperTables();
    std::set<std::string> wanted(argv + 1, argv + argc);
    for (const std::string &name : wanted) {
        if (std::any_of(tables.begin(), tables.end(),
                        [&](const Table &t) { return name == t.name; }))
            continue;
        std::string list;
        for (const Table &t : tables)
            list += std::string("\n  ") + t.name;
        std::fprintf(stderr, "dmp-figures: unknown table '%s'; tables:%s\n",
                     name.c_str(), list.c_str());
        return 2;
    }
    benchIterations(); // fatal on a malformed DMP_BENCH_ITERS
    const std::vector<std::string> wls = benchWorkloads();

    sim::BatchRunner pool; // DMP_BENCH_JOBS workers (default: cores)
    std::vector<const Table *> selected;
    std::vector<Grid> grids;
    std::unordered_set<std::string> distinct;
    for (const Table &t : tables) {
        if (!wanted.empty() && !wanted.count(t.name))
            continue;
        selected.push_back(&t);
        grids.emplace_back(pool, wls, t.columns);
        for (const Grid::Cell &c : grids.back().all())
            distinct.insert(c.fingerprint);
    }
    try {
        for (std::size_t i = 0; i < selected.size(); ++i)
            selected[i]->print(grids[i]);
        std::fflush(stdout);
        if (const char *path = std::getenv("DMP_STATS_JSON"))
            exportStats(path, grids);
    } catch (const std::exception &e) { // a failed run (e.g. LintError)
        std::fflush(stdout);
        std::fprintf(stderr, "dmp-figures: %s\n", e.what());
        return 1;
    }

    const sim::BatchStats st = pool.stats();
    const double secs = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    std::fprintf(stderr,
                 "dmp-figures: %zu tables, %zu distinct configurations, "
                 "%llu simulations, %u jobs, %.2f s\n",
                 selected.size(), distinct.size(),
                 (unsigned long long)st.simRuns, pool.jobs(), secs);
    if (st.simRuns != distinct.size()) {
        std::fprintf(stderr, "dmp-figures: expected one simulation per "
                             "distinct configuration\n");
        return 1;
    }
    return 0;
}
