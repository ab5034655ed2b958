/**
 * @file
 * Trace replay cache: generate a workload's committed-path stream
 * once, then replay it under every policy of a sweep.
 *
 * The paper's methodology replays the *identical* committed-path
 * stream under every L2 policy (§6 — Algorithm 1 changes replacement
 * only), so a (workloads x policies) grid re-executing the synthetic
 * program per cell does O(workloads x policies) redundant work. A
 * RecordBuffer is the packed, immutable image of one workload's
 * stream; ReplayCursor is a cheap, non-virtual decoder over it that
 * any number of policy runs (and worker threads) can replay
 * concurrently through their own cursors.
 *
 * Determinism contract: a run fed by a ReplayCursor produces
 * bit-identical Metrics to the same run fed by a live
 * SyntheticExecutor (tests/test_replay.cpp). The buffer therefore
 * also carries what core::execute reads back from the source after
 * the run — the workload name and enough state to continue the
 * unique-code-line footprint count — and a snapshot of the generating
 * executor at end-of-buffer, so a cursor that (unexpectedly) runs off
 * the end continues the live stream exactly where generation stopped
 * instead of replaying from record zero.
 */

#ifndef EMISSARY_TRACE_REPLAY_HH
#define EMISSARY_TRACE_REPLAY_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "trace/executor.hh"
#include "trace/program.hh"
#include "trace/record.hh"

namespace emissary::trace
{

/**
 * Packed, immutable committed-path stream of one workload.
 *
 * Storage is struct-of-arrays: three 64-bit lanes (pc, nextPc,
 * memAddr) plus one byte packing the instruction class with the
 * branch outcome — 25 bytes per record against the 40 of a padded
 * TraceRecord[] — so sequential decode streams through memory.
 */
class RecordBuffer
{
  public:
    /** Packed bytes per buffered record (capacity planning). */
    static constexpr std::uint64_t kBytesPerRecord = 3 * 8 + 1;

    /**
     * Records the front-end can read past the committed-instruction
     * window: FTQ + decode queue + ROB occupancy, the final commit
     * overshoot, and batched-fill rounding. Generously padded — a
     * cursor overrun is legal but costs a live-execution tail.
     */
    static constexpr std::uint64_t kLookaheadRecords = 32768;

    /** Buffer length needed to replay a warmup+measure window. */
    static std::uint64_t
    recordsForWindow(std::uint64_t window_instructions)
    {
        return window_instructions + kLookaheadRecords;
    }

    /**
     * Generate and pack the first @p records of @p program's stream
     * (profile-seeded, exactly as runPolicy's live executor).
     */
    RecordBuffer(const SyntheticProgram &program, std::uint64_t records);

    /**
     * Produces a TraceSource continuing the stream from absolute
     * record position @p position (for cursor overrun on buffers not
     * backed by a synthetic executor).
     */
    using TailFactory = std::function<std::unique_ptr<TraceSource>(
        std::uint64_t position)>;

    /**
     * Pack the next @p records pulled from @p source — the generic
     * path the grid engine uses for file-backed workloads (the
     * source's wrap-around is unrolled into the buffer). No
     * footprint bitmap is kept: trace-backed cells take their
     * Fig. 4 footprint from the source's census (the container's
     * pack-time metadata), not from the replay (docs/workloads.md).
     *
     * @param tail_factory Optional overrun fallback; a cursor that
     *        runs off the buffer continues from the source this
     *        produces. Without one, overrun throws.
     */
    RecordBuffer(TraceSource &source, std::uint64_t records,
                 TailFactory tail_factory);

    /**
     * Preallocated trace-backed buffer of @p records zeroed slots,
     * to be populated by writeRange — the parallel EMTC decode path
     * (core::buildTraceReplay) fills disjoint spans from
     * several workers at once. The buffer must be fully written
     * before any cursor replays it; no footprint bitmap is kept,
     * exactly like the streaming trace constructor, which would
     * take @p name and @p code_line_census from the source.
     */
    RecordBuffer(std::string name, std::uint64_t code_line_census,
                 std::uint64_t records, TailFactory tail_factory);

    /**
     * Store @p n records at slots [@p start, @p start + n). Plain
     * array stores into the preallocated lanes: concurrent calls are
     * safe exactly when their ranges are disjoint.
     * @throws std::out_of_range when the span exceeds the buffer.
     */
    void writeRange(std::uint64_t start, const TraceRecord *recs,
                    std::size_t n);

    std::uint64_t size() const { return pc_.size(); }

    /** Packed bytes held (excludes the tail snapshot). */
    std::uint64_t
    packedBytes() const
    {
        return size() * kBytesPerRecord;
    }

    /** Workload name, as the live executor reports it. */
    const std::string &name() const { return name_; }

    /** Decode record @p i. */
    TraceRecord
    record(std::uint64_t i) const
    {
        TraceRecord rec;
        rec.pc = pc_[i];
        rec.nextPc = nextPc_[i];
        rec.memAddr = memAddr_[i];
        rec.cls = static_cast<InstClass>(clsTaken_[i] & 0x7f);
        rec.taken = (clsTaken_[i] & 0x80) != 0;
        return rec;
    }

    /** Footprint census of the trace a trace-backed buffer was
     *  packed from (0 for synthetic buffers, whose cursors count
     *  lines as they replay, and for traces without a census). */
    std::uint64_t codeLineCensus() const { return codeLineCensus_; }

    /** Words of the unique-code-line bitmap a cursor must allocate
     *  (same sizing as SyntheticExecutor's footprint bitmap; 0 for
     *  trace-backed buffers, which keep no bitmap). */
    std::uint64_t codeBitmapWords() const { return codeBitmapWords_; }

    /** True when generated from a SyntheticProgram (the buffer then
     *  carries a tail executor snapshot and a footprint bitmap). */
    bool synthetic() const { return tail_ != nullptr; }

    /** Generator snapshot at end-of-buffer; cursors that exhaust a
     *  synthetic buffer copy it and continue the stream live. */
    const SyntheticExecutor &tailExecutor() const { return *tail_; }

    /** Overrun continuation for a trace-backed buffer.
     *  @throws std::logic_error when no tail factory was given. */
    std::unique_ptr<TraceSource>
    makeTail(std::uint64_t position) const;

  private:
    void appendFrom(TraceSource &source, std::uint64_t records);

    std::vector<std::uint64_t> pc_;
    std::vector<std::uint64_t> nextPc_;
    std::vector<std::uint64_t> memAddr_;
    /** Bits 0..6: InstClass; bit 7: branch taken. */
    std::vector<std::uint8_t> clsTaken_;
    std::string name_;
    std::uint64_t codeBitmapWords_ = 0;
    std::uint64_t codeLineCensus_ = 0;
    std::unique_ptr<SyntheticExecutor> tail_;
    TailFactory tailFactory_;
};

/**
 * TraceSource replaying a RecordBuffer.
 *
 * The class is final and its fill() is a straight SoA decode loop, so
 * per-instruction cost is a few loads and stores — no program walk,
 * no RNG draws, no virtual dispatch inside the batch. Each cursor is
 * independent; share one buffer across any number of threads.
 */
class ReplayCursor final : public TraceSource
{
  public:
    explicit ReplayCursor(std::shared_ptr<const RecordBuffer> buffer);

    TraceRecord next() override;
    void fill(TraceRecord *out, std::size_t n) override;
    const char *name() const override;

    /** Records handed out so far. */
    std::uint64_t position() const { return pos_; }

    /** Unique 64 B instruction lines touched so far — matches the
     *  live executor's count at the same position exactly. A
     *  trace-backed buffer keeps no bitmap and reports its source's
     *  census (RecordBuffer::codeLineCensus). */
    std::uint64_t uniqueCodeLines() const override;

    /** True once the cursor ran past the buffer and switched to the
     *  tail continuation (diagnostic; should not happen when the
     *  buffer was sized with recordsForWindow). */
    bool overran() const { return tailSource_ != nullptr; }

  private:
    void touchCode(std::uint64_t pc);
    TraceSource &tail();

    std::shared_ptr<const RecordBuffer> buffer_;
    std::uint64_t pos_ = 0;
    std::vector<std::uint64_t> touchedBitmap_;
    std::uint64_t touchedLines_ = 0;
    std::unique_ptr<TraceSource> tailSource_;
    /** Non-null when the tail is a copied executor snapshot (the
     *  footprint count then hands over to the snapshot's bitmap). */
    const SyntheticExecutor *tailExecutor_ = nullptr;
};

} // namespace emissary::trace

#endif // EMISSARY_TRACE_REPLAY_HH
