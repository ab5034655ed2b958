/**
 * @file
 * Committed-path executor for SyntheticProgram.
 *
 * Walks the static program structure with a call stack, drawing
 * per-branch outcomes from the generated biases and per-access data
 * addresses from stack / heap-Zipf / streaming models, and emits one
 * TraceRecord per dynamic instruction.
 */

#ifndef EMISSARY_TRACE_EXECUTOR_HH
#define EMISSARY_TRACE_EXECUTOR_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "trace/program.hh"
#include "trace/record.hh"
#include "util/rng.hh"

namespace emissary::trace
{

/** TraceSource that executes a SyntheticProgram forever. */
class SyntheticExecutor : public TraceSource
{
  public:
    /**
     * @param program Program to execute; must outlive the executor.
     * @param seed Execution seed (branch outcomes, data draws);
     *             defaults to the program's profile seed.
     */
    explicit SyntheticExecutor(const SyntheticProgram &program,
                               std::uint64_t seed = 0);

    TraceRecord next() override;
    void fill(TraceRecord *out, std::size_t n) override;
    const char *name() const override;

    /** Unique 64 B instruction lines touched so far (Fig. 4). */
    std::uint64_t
    uniqueCodeLines() const override
    {
        return touchedLines_;
    }

    /** Unique 64 B data lines touched so far. */
    std::uint64_t uniqueDataLines() const;

    /** Committed instructions produced so far. */
    std::uint64_t instructionCount() const { return instructions_; }

    /** Completed transactions (driver invocations) so far. */
    std::uint64_t transactionCount() const { return transactions_; }

    /** Base of the modelled hot heap region. */
    static constexpr std::uint64_t kHeapBase = 0x0000200000000000ULL;
    /** Base of the modelled cold heap region. */
    static constexpr std::uint64_t kColdBase = 0x0000280000000000ULL;
    /** Base of the streaming region. */
    static constexpr std::uint64_t kStreamBase = 0x0000300000000000ULL;
    /** Top of the downward-growing stack. */
    static constexpr std::uint64_t kStackTop = 0x00007ffffffff000ULL;
    /** Modelled stack frame size in bytes. */
    static constexpr std::uint64_t kFrameBytes = 512;

  private:
    struct Frame
    {
        std::uint32_t func;
        std::uint32_t block;  ///< Function-local block index.
        std::uint32_t instr;  ///< Next instruction slot in the block.
        std::uint32_t lastLatch = ~0u;  ///< Active loop latch block.
        std::uint32_t loopIter = 0;     ///< Iterations at that latch.
    };

    const BasicBlock &currentBlock() const;
    std::uint64_t currentPc() const;

    /** Non-virtual body of next(); fill() loops it directly. */
    TraceRecord produce();

    /** Generate a data address for the memory access at @p pc. */
    std::uint64_t dataAddress(std::uint64_t pc);

    /** Note a code-line touch for footprint accounting. */
    void touchCode(std::uint64_t pc);

    const SyntheticProgram &program_;
    Rng rng_;
    std::vector<Frame> stack_;
    ZipfSampler hotDataSampler_;
    std::uint64_t coldDataLines_;
    std::uint64_t streamPtr_ = 0;
    std::uint64_t streamBytes_;
    std::uint64_t instructions_ = 0;
    std::uint64_t transactions_ = 0;
    /** Recently dispatched transaction types (burst model). */
    std::vector<std::uint32_t> recentTypes_;

    std::vector<std::uint64_t> touchedBitmap_;
    std::uint64_t touchedLines_ = 0;
    std::vector<std::uint64_t> dataBitmap_;
    std::uint64_t touchedDataLines_ = 0;
};

} // namespace emissary::trace

#endif // EMISSARY_TRACE_EXECUTOR_HH
