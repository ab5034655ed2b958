/**
 * @file
 * Binary trace file support: record any TraceSource to disk and
 * replay it later, so experiments can run against a fixed artifact
 * (or against converted traces from external simulators).
 *
 * Format: a 16-byte header ("EMTR", version, record count) followed
 * by packed fixed-width records. For large traces prefer the
 * compressed, block-indexed EMTC container (workload/emtc.hh); EMTR
 * is the uncompressed interchange format and is fully buffered in
 * RAM on replay.
 */

#ifndef EMISSARY_TRACE_FILE_HH
#define EMISSARY_TRACE_FILE_HH

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "trace/record.hh"

namespace emissary::trace
{

/** Packed on-disk bytes of one EMTR record. */
constexpr std::size_t kEmtrRecordBytes = 8 + 8 + 8 + 1 + 1;

/** Bytes of the fixed EMTR header. */
constexpr std::size_t kEmtrHeaderBytes = 16;

/** Writes a committed-path trace to a binary file. */
class TraceWriter
{
  public:
    /**
     * @param path Output file path.
     * @throws std::runtime_error when the file cannot be opened.
     */
    explicit TraceWriter(const std::string &path);
    ~TraceWriter();

    TraceWriter(const TraceWriter &) = delete;
    TraceWriter &operator=(const TraceWriter &) = delete;

    /** Append one record. */
    void append(const TraceRecord &rec);

    /** Append @p n records (batched pack + single write). */
    void append(const TraceRecord *recs, std::size_t n);

    /** Flush, back-patch the header count, and close. */
    void finish();

    std::uint64_t recordCount() const { return count_; }

  private:
    std::FILE *file_ = nullptr;
    std::string path_;
    std::uint64_t count_ = 0;
    bool finished_ = false;
};

/**
 * Replays a binary trace file; wraps around at the end so the
 * simulator's infinite-stream contract holds (a wrap is only sound
 * when the recorded slice ends near where it began, which holds for
 * dispatcher-loop workloads; see docs/workloads.md).
 *
 * Every parse failure throws std::runtime_error naming the path and
 * the specific defect: bad magic, unsupported version, truncation
 * against the header's record count, or trailing bytes after the
 * declared records.
 */
class FileTraceSource : public TraceSource
{
  public:
    /**
     * @param path Trace file to load (fully buffered in memory).
     * @param skip_records Records dropped from the front before the
     *        served window starts (catalog warmup-skip).
     * @param max_records Serve only the first @p max_records of the
     *        remaining stream, wrapping within that window
     *        (0 = all).
     * @throws std::runtime_error on open/parse failure, or when
     *         skip_records consumes the whole trace.
     */
    explicit FileTraceSource(const std::string &path,
                             std::uint64_t skip_records = 0,
                             std::uint64_t max_records = 0);

    TraceRecord next() override;
    void fill(TraceRecord *out, std::size_t n) override;
    const char *name() const override { return name_.c_str(); }

    /** Records in the served (post skip/limit) window. */
    std::uint64_t recordCount() const { return records_.size(); }

    /** Times the replay wrapped back to the window start. */
    std::uint64_t wraps() const { return wraps_; }

    /** Advance the cursor @p n records without serving them. */
    void skipRecords(std::uint64_t n);

    /** Census of the served window: unique 64 B lines of its PCs,
     *  counted once on first call (an EMTR file stores none). */
    std::uint64_t uniqueCodeLines() const override;

  private:
    std::vector<TraceRecord> records_;
    std::size_t pos_ = 0;
    std::uint64_t wraps_ = 0;
    std::string name_;
    /** uniqueCodeLines() memo; 0 until first counted. */
    mutable std::uint64_t codeLines_ = 0;
};

/**
 * Decorator that tees a source into a TraceWriter while the pipeline
 * consumes it. Overrides fill() so the batched frontend feed records
 * whole batches through the inner source's bulk path instead of
 * teeing one record at a time through virtual next() calls; a
 * recorded-then-replayed run is bit-identical to the live run
 * (tests/test_tracefile.cpp).
 */
class RecordingSource : public TraceSource
{
  public:
    RecordingSource(TraceSource &inner, TraceWriter &writer)
        : inner_(inner), writer_(writer)
    {
    }

    TraceRecord
    next() override
    {
        const TraceRecord rec = inner_.next();
        writer_.append(rec);
        return rec;
    }

    void
    fill(TraceRecord *out, std::size_t n) override
    {
        inner_.fill(out, n);
        writer_.append(out, n);
    }

    const char *name() const override { return inner_.name(); }

    std::uint64_t
    uniqueCodeLines() const override
    {
        return inner_.uniqueCodeLines();
    }

  private:
    TraceSource &inner_;
    TraceWriter &writer_;
};

} // namespace emissary::trace

#endif // EMISSARY_TRACE_FILE_HH
