/**
 * @file
 * Trace-backed replay-buffer construction for the grid engine.
 *
 * A sweep over an on-disk trace packs the served record window into
 * one immutable trace::RecordBuffer before any cell simulates. For
 * EMTC containers that decode was the grid's only serial phase: one
 * thread streamed every block while the pool sat idle. The builder
 * here fans the decode out instead — the container's block index
 * gives O(1) random access (workload::PackedTraceSource::skipRecords
 * is pure cursor arithmetic), so independent tasks can decode
 * disjoint record spans of the same file into disjoint slots of a
 * preallocated buffer, bit-identically to the streaming build
 * (tests/test_replay.cpp).
 */

#ifndef EMISSARY_CORE_REPLAY_BUILD_HH
#define EMISSARY_CORE_REPLAY_BUILD_HH

#include <cstdint>
#include <memory>
#include <string>

#include "core/grid.hh"
#include "trace/record.hh"
#include "trace/replay.hh"

namespace emissary::core
{

/** True when @p path names an EMTC container by extension (opening
 *  it is what checks the magic). */
bool isPackedTracePath(const std::string &path);

/**
 * Fresh streaming source over @p workload's EMTC container,
 * positioned at its configured skip offset plus @p extra_skip
 * records — the grid engine's trace open, and the random-access
 * primitive behind the parallel decode and the replay buffer's
 * overrun tail.
 * @throws std::runtime_error naming the path when the file is not
 *         a well-formed EMTC container.
 */
std::unique_ptr<trace::TraceSource>
openTraceSource(const GridWorkload &workload,
                std::uint64_t extra_skip = 0);

/**
 * Pack the first @p records of @p workload's served stream into a
 * RecordBuffer, decoding the EMTC container in parallel across
 * @p pool (serially for one worker or a short window). The output
 * is bit-identical to the serial streaming constructor at any worker
 * count: tasks own disjoint record spans and the span partition
 * depends only on (records, worker count), never on scheduling
 * order. Safe to call from inside a pool job — the caller
 * helps execute decode tasks instead of blocking
 * (ThreadPool::helpWhile).
 */
std::shared_ptr<const trace::RecordBuffer>
buildTraceReplay(const GridWorkload &workload, std::uint64_t records,
                 ThreadPool &pool);

} // namespace emissary::core

#endif // EMISSARY_CORE_REPLAY_BUILD_HH
