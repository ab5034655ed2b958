#include "backend/backend.hh"

#include <algorithm>
#include <cassert>
#include <deque>

namespace emissary::backend
{

namespace
{

std::uint64_t
mixPc(std::uint64_t pc)
{
    std::uint64_t z = pc * 0x9e3779b97f4a7c15ULL;
    return z ^ (z >> 31);
}

} // namespace

Backend::Backend(const Config &config, cache::Hierarchy &hierarchy)
    : config_(config), hierarchy_(hierarchy), rob_(config.robEntries)
{
    completionRing_.assign(kRingSize, 0);
    wheel_.resize(kWheelSlots);
}

std::uint64_t
Backend::depReady(std::uint64_t seq, std::uint64_t pc) const
{
    // A fraction of instructions pseudo-depend on one of their
    // depWindow predecessors (chosen by a PC hash so a given static
    // instruction has stable behaviour). This propagates load
    // latency into consumers without full register renaming while
    // leaving the renamer's ILP visible.
    if (config_.depWindow == 0 || seq == 0)
        return 0;
    const std::uint64_t h = mixPc(pc);
    const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
    if (u >= config_.depFraction)
        return 0;
    // h >> 32 fits 32 bits: a 32-bit modulo, not a 64-bit divide.
    const std::uint64_t distance =
        1 + static_cast<std::uint32_t>(h >> 32) % config_.depWindow;
    if (seq < distance)
        return 0;
    return completionRing_[(seq - distance) % kRingSize];
}

void
Backend::noteDecodeEmpty(std::uint64_t cycles,
                         std::optional<std::uint64_t> pending_line)
{
    // Decode starvation (§3): the decode stage wants to pull but the
    // queue feeding it is empty. It only counts as starvation when
    // the back-end could actually accept instructions (a stalled
    // decode cannot starve).
    if (!canAccept())
        return;
    if (pending_line) {
        stats_.starvationCycles += cycles;
        const bool iq_empty = issueQueueEmpty();
        if (iq_empty)
            stats_.starvationIqEmptyCycles += cycles;
        hierarchy_.noteStarvation(*pending_line, iq_empty, cycles);
    } else {
        stats_.resteerEmptyCycles += cycles;
    }
}

bool
Backend::canAccept() const
{
    return rob_.size() < config_.robEntries &&
           inFlightExec_ < config_.iqEntries &&
           lqOccupancy_ < config_.lqEntries &&
           sqOccupancy_ < config_.sqEntries;
}

template <typename Queue>
void
Backend::issueStage(std::uint64_t now, Queue &decode_queue,
                    std::optional<std::uint64_t> pending_line)
{
    if (decode_queue.empty()) {
        noteDecodeEmpty(1, pending_line);
        return;
    }

    unsigned moved = 0;
    while (moved < config_.width && !decode_queue.empty() &&
           canAccept()) {
        const core::DynInst &inst = decode_queue.front();
        const std::uint64_t dep = depReady(inst.seq, inst.rec.pc);
        const std::uint64_t start = std::max(now, dep);
        std::uint64_t complete;
        bool is_load = false;
        bool is_store = false;

        switch (inst.rec.cls) {
          case trace::InstClass::Load: {
            is_load = true;
            ++stats_.loads;
            // Pointer chasing: a slice of loads (linked structures)
            // cannot issue until the previous load's value arrives.
            std::uint64_t issue = now;
            const std::uint64_t h2 = mixPc(inst.rec.pc * 31);
            if (static_cast<double>(h2 >> 11) * 0x1.0p-53 <
                config_.loadChainFraction) {
                issue = std::max(issue, lastLoadComplete_);
            }
            const std::uint64_t mem_ready = hierarchy_.requestData(
                inst.rec.memAddr >> 6, issue, /*write=*/false);
            complete = std::max({start + 1, issue + 1, mem_ready});
            lastLoadComplete_ = complete;
            ++lqOccupancy_;
            break;
          }
          case trace::InstClass::Store: {
            is_store = true;
            ++stats_.stores;
            // Stores retire through the store queue; the fill/dirty
            // traffic is modelled but does not gate completion.
            hierarchy_.requestData(inst.rec.memAddr >> 6, now,
                                   /*write=*/true);
            complete = start + config_.storeLatency;
            ++sqOccupancy_;
            break;
          }
          case trace::InstClass::IntMul:
            complete = start + config_.mulLatency;
            break;
          case trace::InstClass::FpAlu:
            complete = start + config_.fpLatency;
            break;
          case trace::InstClass::CondBranch:
          case trace::InstClass::DirectJump:
          case trace::InstClass::IndirectJump:
          case trace::InstClass::Call:
          case trace::InstClass::IndirectCall:
          case trace::InstClass::Return:
            complete = start + config_.branchLatency;
            break;
          default:
            complete = start + config_.intLatency;
            break;
        }

        completionRing_[inst.seq % kRingSize] = complete;
        rob_.push_back(RobEntry{inst.seq, complete, is_store});
        scheduleCompletion(complete, is_load);
        if (inst.mispredicted) {
            assert(!mispredict_);
            mispredict_ = Mispredict{inst.seq, complete};
        }
        decode_queue.pop_front();
        ++inFlightExec_;
        ++stats_.issued;
        ++moved;
    }
    if (moved > 0)
        ++stats_.decodeActiveCycles;
}

template void Backend::issueStage(std::uint64_t,
                                  FixedRing<core::DynInst> &,
                                  std::optional<std::uint64_t>);
template void Backend::issueStage(std::uint64_t,
                                  std::deque<core::DynInst> &,
                                  std::optional<std::uint64_t>);

void
Backend::scheduleCompletion(std::uint64_t cycle, bool is_load)
{
    const std::uint64_t due = std::max(cycle, wheelBase_);
    if (due - wheelBase_ >= kWheelSlots) {
        overflow_.emplace(cycle, is_load);
        return;
    }
    const unsigned slot = static_cast<unsigned>(due % kWheelSlots);
    ++wheel_[slot].instrs;
    if (is_load)
        ++wheel_[slot].loads;
    wheelOccupied_[slot / 64] |= std::uint64_t{1} << (slot % 64);
    wheelNext_ = std::min(wheelNext_, due);
}

std::uint64_t
Backend::scanWheel() const
{
    // Scan the occupancy bits circularly from wheelBase_'s slot; a
    // slot's distance from it is its cycle's distance from
    // wheelBase_.
    const unsigned start =
        static_cast<unsigned>(wheelBase_ % kWheelSlots);
    unsigned word = start / 64;
    std::uint64_t bits = wheelOccupied_[word] & (~std::uint64_t{0}
                                                 << (start % 64));
    for (unsigned n = 0; n <= kWheelWords; ++n) {
        if (bits != 0) {
            const unsigned slot =
                word * 64 + static_cast<unsigned>(__builtin_ctzll(bits));
            return wheelBase_ + ((slot - start) % kWheelSlots);
        }
        word = (word + 1) % kWheelWords;
        bits = wheelOccupied_[word];
    }
    return kNever;
}

void
Backend::executeStage(std::uint64_t now)
{
    bool any = false;
    while (wheelNext_ <= now) {
        const unsigned slot =
            static_cast<unsigned>(wheelNext_ % kWheelSlots);
        WheelSlot &done = wheel_[slot];
        assert(inFlightExec_ >= done.instrs);
        assert(lqOccupancy_ >= done.loads);
        inFlightExec_ -= done.instrs;
        lqOccupancy_ -= done.loads;
        done = WheelSlot{};
        wheelOccupied_[slot / 64] &= ~(std::uint64_t{1} << (slot % 64));
        wheelBase_ = wheelNext_ + 1;
        wheelNext_ = scanWheel();
        any = true;
    }
    if (now >= wheelBase_)
        wheelBase_ = now + 1;
    while (!overflow_.empty() && overflow_.top().first <= now) {
        assert(inFlightExec_ > 0);
        --inFlightExec_;
        if (overflow_.top().second) {
            assert(lqOccupancy_ > 0);
            --lqOccupancy_;
        }
        overflow_.pop();
        any = true;
    }
    if (mispredict_ && mispredict_->cycle <= now) {
        const Mispredict done = *mispredict_;
        mispredict_.reset();
        ++stats_.branchesResolved;
        if (resolve_)
            resolve_(done.seq, done.cycle);
    }
    if (any)
        ++stats_.issueActiveCycles;
}

void
Backend::commitStage(std::uint64_t now)
{
    ++stats_.cycles;
    unsigned committed = 0;
    while (committed < config_.width && !rob_.empty() &&
           rob_.front().completeCycle <= now) {
        if (rob_.front().isStore) {
            assert(sqOccupancy_ > 0);
            --sqOccupancy_;
        }
        rob_.pop_front();
        ++committed;
    }
    stats_.committed += committed;
    if (committed == 0) {
        if (rob_.empty())
            ++stats_.feStallCycles;
        else
            ++stats_.beStallCycles;
    }
}

std::uint64_t
Backend::nextEvent(std::uint64_t now, bool decode_queue_empty) const
{
    if (!decode_queue_empty && canAccept())
        return now;
    std::uint64_t next = wheelNext_;
    if (!overflow_.empty())
        next = std::min(next, overflow_.top().first);
    if (!rob_.empty())
        next = std::min(next, rob_.front().completeCycle);
    return next;
}

void
Backend::accrueIdleCycles(std::uint64_t cycles, bool decode_queue_empty,
                          std::optional<std::uint64_t> pending_line)
{
    stats_.cycles += cycles;
    if (rob_.empty())
        stats_.feStallCycles += cycles;
    else
        stats_.beStallCycles += cycles;
    if (decode_queue_empty)
        noteDecodeEmpty(cycles, pending_line);
}

} // namespace emissary::backend
