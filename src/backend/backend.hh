/**
 * @file
 * The modelled out-of-order back-end (Table 4: 8-wide, ROB 512,
 * IQ 240, LQ 128 / SQ 72).
 *
 * The model is deliberately simple where EMISSARY is insensitive and
 * faithful where it matters: in-order decode/dispatch from the
 * decode queue, latency-based execution with a light pseudo-
 * dependence chain (so load latency propagates to consumers),
 * in-order commit, and precise generation of the three signals the
 * paper's mechanism consumes — decode starvation, the issue-queue-
 * empty condition, and mispredicted-branch resolution times.
 */

#ifndef EMISSARY_BACKEND_BACKEND_HH
#define EMISSARY_BACKEND_BACKEND_HH

#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <queue>
#include <vector>

#include "cache/hierarchy.hh"
#include "core/inst.hh"
#include "util/ring.hh"

namespace emissary::backend
{

/** Back-end statistics for one measurement window. */
struct BackendStats
{
    std::uint64_t committed = 0;
    std::uint64_t issued = 0;
    std::uint64_t cycles = 0;
    /** Cycles where nothing committed and the ROB was empty. */
    std::uint64_t feStallCycles = 0;
    /** Cycles where nothing committed with a non-empty ROB. */
    std::uint64_t beStallCycles = 0;
    /** Cycles where decode wanted instructions but the queue was
     *  empty while a line fill was outstanding (signal S scope). */
    std::uint64_t starvationCycles = 0;
    /** Subset of starvationCycles with an empty issue queue (S&E). */
    std::uint64_t starvationIqEmptyCycles = 0;
    /** Decode-empty cycles with no line to blame (re-steer shadow). */
    std::uint64_t resteerEmptyCycles = 0;
    /** Cycles decode moved at least one instruction. */
    std::uint64_t decodeActiveCycles = 0;
    /** Cycles at least one instruction completed execution. */
    std::uint64_t issueActiveCycles = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t branchesResolved = 0;

    void reset() { *this = BackendStats{}; }

    /** Component-wise sum: adds the counters of another window
     *  slice (see core::MetricsInputs). */
    BackendStats &
    operator+=(const BackendStats &other)
    {
        committed += other.committed;
        issued += other.issued;
        cycles += other.cycles;
        feStallCycles += other.feStallCycles;
        beStallCycles += other.beStallCycles;
        starvationCycles += other.starvationCycles;
        starvationIqEmptyCycles += other.starvationIqEmptyCycles;
        resteerEmptyCycles += other.resteerEmptyCycles;
        decodeActiveCycles += other.decodeActiveCycles;
        issueActiveCycles += other.issueActiveCycles;
        loads += other.loads;
        stores += other.stores;
        branchesResolved += other.branchesResolved;
        return *this;
    }
};

/** The back-end pipeline model. */
class Backend
{
  public:
    struct Config
    {
        unsigned width = 8;        ///< Decode/issue/commit width.
        unsigned robEntries = 512;
        unsigned iqEntries = 240;
        unsigned lqEntries = 128;
        unsigned sqEntries = 72;
        unsigned intLatency = 1;
        unsigned mulLatency = 3;
        unsigned fpLatency = 3;
        unsigned branchLatency = 2;
        unsigned storeLatency = 1;
        /** Pseudo-dependence window: a dependent instruction waits on
         *  one of its last depWindow predecessors, so long-latency
         *  loads slow their consumers. */
        unsigned depWindow = 8;
        /** Fraction of instructions carrying such a dependence; the
         *  rest are independent (models the ILP the renamer finds). */
        double depFraction = 0.50;
        /** Fraction of loads that chase the previous load (linked
         *  structures), fully exposing data-miss latency. */
        double loadChainFraction = 0.20;
    };

    using ResolveCallback =
        std::function<void(std::uint64_t seq, std::uint64_t cycle)>;

    Backend(const Config &config, cache::Hierarchy &hierarchy);

    /** Register the front-end's mispredict-resolution callback. */
    void setResolveCallback(ResolveCallback cb)
    {
        resolve_ = std::move(cb);
    }

    /** A cycle no event is scheduled for. */
    static constexpr std::uint64_t kNever =
        std::numeric_limits<std::uint64_t>::max();

    /** Retire up to width completed instructions; classify stalls. */
    void commitStage(std::uint64_t now);

    /** Drain completions due this cycle; fire branch resolutions. */
    void executeStage(std::uint64_t now);

    /**
     * Dispatch up to width instructions from @p decode_queue into
     * the window, issuing memory requests for loads/stores. Also
     * evaluates the decode-starvation condition when the queue is
     * empty; @p pending_line names the line fetch is waiting on.
     * Instantiated for the simulator's FixedRing<core::DynInst> and
     * for a std::deque<core::DynInst>.
     */
    template <typename Queue>
    void issueStage(std::uint64_t now, Queue &decode_queue,
                    std::optional<std::uint64_t> pending_line);

    /** True when dispatch has window space this cycle. */
    bool canAccept() const;

    /** The paper's E signal: no incomplete instruction in flight. */
    bool issueQueueEmpty() const { return inFlightExec_ == 0; }

    bool robEmpty() const { return rob_.empty(); }

    /**
     * Earliest cycle >= @p now at which a back-end stage can change
     * state: @p now itself when dispatch can move an instruction,
     * else the next execution completion or ROB-head retirement
     * (kNever when nothing is in flight). Every cycle before it is
     * idle: the stages only count it (see accrueIdleCycles).
     */
    std::uint64_t nextEvent(std::uint64_t now,
                            bool decode_queue_empty) const;

    /**
     * Account @p cycles idle cycles in one step, exactly as that many
     * commitStage/issueStage calls would in cycles where nothing
     * completes, retires or dispatches: the cycle count, the stall
     * class, and decode starvation blamed on @p pending_line (which
     * stays constant over an idle span).
     */
    void accrueIdleCycles(std::uint64_t cycles, bool decode_queue_empty,
                          std::optional<std::uint64_t> pending_line);

    BackendStats &stats() { return stats_; }
    const BackendStats &stats() const { return stats_; }

  private:
    struct RobEntry
    {
        std::uint64_t seq = 0;
        std::uint64_t completeCycle = 0;
        bool isStore = false;
    };

    /** Completion time of the pseudo-producer of @p seq. */
    std::uint64_t depReady(std::uint64_t seq,
                           std::uint64_t pc) const;

    /** Decode found the queue empty for @p cycles cycles: count
     *  starvation or a re-steer shadow when dispatch could accept. */
    void noteDecodeEmpty(std::uint64_t cycles,
                         std::optional<std::uint64_t> pending_line);

    /** Schedule one execution completion at @p cycle. */
    void scheduleCompletion(std::uint64_t cycle, bool is_load);

    /** First cycle >= wheelBase_ with completions in the wheel, or
     *  kNever (a scan of the occupancy bits). */
    std::uint64_t scanWheel() const;

    Config config_;
    cache::Hierarchy &hierarchy_;
    ResolveCallback resolve_;

    FixedRing<RobEntry> rob_;
    unsigned lqOccupancy_ = 0;
    unsigned sqOccupancy_ = 0;
    unsigned inFlightExec_ = 0;

    /**
     * Execution completions as a per-cycle count wheel: slot
     * (cycle mod kWheelSlots) holds how many instructions, and how
     * many of them loads, complete in that cycle. The wheel covers
     * cycles [wheelBase_, wheelBase_ + kWheelSlots); executeStage
     * drains every slot up to its cycle and moves wheelBase_ past it.
     * A completion is scheduled no earlier than wheelBase_, so one
     * that falls in an already executed cycle completes at the next
     * executeStage call, as it would from a min-heap.
     */
    static constexpr unsigned kWheelSlots = 1024;
    static constexpr unsigned kWheelWords = kWheelSlots / 64;
    struct WheelSlot
    {
        std::uint32_t instrs = 0;
        std::uint32_t loads = 0;
    };
    std::vector<WheelSlot> wheel_;
    /** Bit per slot: set while the slot holds completions. */
    std::array<std::uint64_t, kWheelWords> wheelOccupied_{};
    std::uint64_t wheelBase_ = 0;
    /** scanWheel(), kept current as completions come and go. */
    std::uint64_t wheelNext_ = kNever;

    /** Completions at or beyond the wheel's horizon when scheduled
     *  (long dependence or pointer-chasing chains): (cycle, isLoad)
     *  min-heap. */
    using Overflow = std::pair<std::uint64_t, bool>;
    std::priority_queue<Overflow, std::vector<Overflow>,
                        std::greater<Overflow>>
        overflow_;

    /** The in-flight mispredicted branch. There is at most one: the
     *  front end stops forming blocks at a mispredict until it
     *  resolves. Its completion is also counted in the wheel. */
    struct Mispredict
    {
        std::uint64_t seq = 0;
        std::uint64_t cycle = 0;
    };
    std::optional<Mispredict> mispredict_;

    /** Ring buffer of recent completion times for pseudo-deps. */
    static constexpr unsigned kRingSize = 128;
    std::vector<std::uint64_t> completionRing_;
    /** Completion time of the most recent load (pointer chasing). */
    std::uint64_t lastLoadComplete_ = 0;

    BackendStats stats_;
};

} // namespace emissary::backend

#endif // EMISSARY_BACKEND_BACKEND_HH
