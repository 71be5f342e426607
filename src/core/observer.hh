/**
 * @file
 * The one interface through which anything observes the core. The
 * self-checker (src/check), the cycle-accounting sink
 * (src/analysis/accounting.hh) and the pipeline-trace writer
 * (PipeViewObserver below) all attach with Core::addObserver. Every
 * event has an empty default, so an observer overrides only what it
 * reads; the core fans each event out in attach order, and with no
 * observer attached each hook site costs one empty() test.
 *
 * dmp_analysis includes this header without linking dmp_core, so
 * everything it uses here is defined inline.
 */

#ifndef DMP_CORE_OBSERVER_HH
#define DMP_CORE_OBSERVER_HH

#include <cstdint>
#include <string>

#include "common/trace.hh"
#include "common/types.hh"

namespace dmp::core
{

struct DynInst;

// Same alias as core/dyn_inst.hh (redeclared so this header stays
// self-contained for dmp_analysis, which includes nothing else of core).
using EpisodeId = std::uint64_t;

/** What happened during one completed core cycle. */
struct AcctCycleSample
{
    Cycle cycle = 0;            ///< index of the cycle that just ran
    unsigned usefulRetired = 0; ///< committed program instructions
    unsigned falseRetired = 0;  ///< predicated-FALSE program insts
    unsigned uopRetired = 0;    ///< marker/select uops retired
    bool robEmpty = false;
    bool fetchStalled = false;   ///< fetch serving a redirect penalty
    bool frontendActive = false; ///< fetch has a live pc or queued work
    bool renameBlocked = false;  ///< rename stalled on a backend resource
};

/** Final state of one dynamic-predication (or dual-path) episode. */
struct AcctEpisodeEnd
{
    EpisodeId id = ~0ULL; // kNoEpisode
    Addr divergePc = kNoAddr;
    std::uint8_t exitCase = 0;  ///< core::ExitCase value (0 = none)
    std::uint8_t converted = 0; ///< core::ConversionReason value
    std::uint32_t fetchedInsts = 0;
    bool dead = false; ///< squashed by an older misprediction
    bool isDualPath = false;
    bool resolvedCorrect = false;
};

/** One completed pipeline flush. */
struct FlushEvent
{
    Addr branchPc = kNoAddr;      ///< the mispredicted branch
    std::uint64_t surviveSeq = 0; ///< everything younger was squashed
    Addr redirectPc = kNoAddr;    ///< where fetch resumes
    std::uint64_t squashed = 0;   ///< program insts thrown away
};

/**
 * Observer of the core's cycles, retirement, recovery and episode
 * lifecycle. An implementation may signal a broken invariant by
 * throwing; the core performs no work after a hook call that the
 * exception could leave half-done within the same event.
 */
class CoreObserver
{
  public:
    virtual ~CoreObserver() = default;

    /**
     * True when the observer must see every simulated cycle as its own
     * onCycleEnd, which turns the core's idle-cycle skipping off.
     */
    virtual bool needsEveryCycle() const { return false; }

    /**
     * End of one Core::tick(), after every stage ran and the cycle
     * counter advanced; `s.cycle` is the cycle that just ran.
     */
    virtual void onCycleEnd(const AcctCycleSample & /*s*/) {}

    /**
     * `span` consecutive cycles the core skipped because no stage had
     * work, all sharing the same classification flags; `first` carries
     * the flags and the index of the span's first cycle (retire counts
     * are zero by construction). The default expands the span into
     * per-cycle onCycleEnd calls so an observer sees exactly the
     * sequence a non-skipping core would have produced; observers with
     * a cheaper bulk form (see CycleAccounting) override this.
     */
    virtual void
    onIdleSpan(const AcctCycleSample &first, std::uint64_t span)
    {
        AcctCycleSample s = first;
        for (std::uint64_t i = 0; i < span; ++i) {
            s.cycle = first.cycle + i;
            onCycleEnd(s);
        }
    }

    /**
     * One entry retired: called right after commitInst applied its
     * architectural effects, while the DynInst is still valid in the
     * ROB. The sequence number and predicate id are passed alongside
     * because they live in the core's SoA arrays, not in DynInst.
     */
    virtual void onRetire(const DynInst &, std::uint64_t, PredId, Cycle) {}

    /** One renamed entry (DynInst, seq) squashed, youngest first. */
    virtual void onSquash(const DynInst &, std::uint64_t, Cycle) {}

    /**
     * A pipeline flush completed: everything younger than
     * `f.surviveSeq` is squashed and fetch was redirected.
     */
    virtual void onFlush(const FlushEvent & /*f*/, Cycle /*now*/) {}

    /** A dpred or dual-path episode (id, diverge pc, is_dual) fetched. */
    virtual void onEpisodeStart(EpisodeId, Addr, bool, Cycle) {}

    /**
     * An episode finished (classified, collapsed, or squashed). May be
     * reported more than once for the same id (classified, then
     * squashed later); observers deduplicate by id.
     */
    virtual void onEpisodeEnd(const AcctEpisodeEnd & /*e*/, Cycle /*now*/) {}

    /**
     * A predication-overhead entry retired: a predicated-FALSE program
     * instruction (is_uop = false) or a marker/select uop (true),
     * attributed to the episode's diverge branch.
     */
    virtual void onPredicatedRetire(Addr /*diverge_pc*/, bool /*is_uop*/) {}

    /** Core::reset() finished; observer state must restart too. */
    virtual void onReset() {}
};

/**
 * Konata/O3-pipeview writer: one lifecycle record per renamed entry,
 * emitted when it retires or is squashed.
 */
class PipeViewObserver final : public CoreObserver
{
  public:
    /** Open `path` for writing; fatal on failure. */
    explicit PipeViewObserver(const std::string &path) : out(path) {}

    void onRetire(const DynInst &di, std::uint64_t seq, PredId,
                  Cycle now) override { emit(di, seq, now, false); }
    void onSquash(const DynInst &di, std::uint64_t seq,
                  Cycle now) override { emit(di, seq, now, true); }

    /** Records written so far. */
    std::uint64_t count() const { return out.count(); }

  private:
    void emit(const DynInst &di, std::uint64_t seq, Cycle now,
              bool squashed);

    trace::PipeView out;
};

} // namespace dmp::core

#endif // DMP_CORE_OBSERVER_HH
