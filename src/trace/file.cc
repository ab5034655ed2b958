#include "trace/file.hh"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <unordered_set>

namespace emissary::trace
{

namespace
{

constexpr char kMagic[4] = {'E', 'M', 'T', 'R'};
constexpr std::uint32_t kVersion = 1;

void
packRecord(const TraceRecord &rec, unsigned char *out)
{
    std::memcpy(out, &rec.pc, 8);
    std::memcpy(out + 8, &rec.nextPc, 8);
    std::memcpy(out + 16, &rec.memAddr, 8);
    out[24] = static_cast<unsigned char>(rec.cls);
    out[25] = rec.taken ? 1 : 0;
}

TraceRecord
unpackRecord(const unsigned char *in)
{
    TraceRecord rec;
    std::memcpy(&rec.pc, in, 8);
    std::memcpy(&rec.nextPc, in + 8, 8);
    std::memcpy(&rec.memAddr, in + 16, 8);
    rec.cls = static_cast<InstClass>(in[24]);
    rec.taken = in[25] != 0;
    return rec;
}

[[noreturn]] void
fail(const std::string &path, const std::string &defect)
{
    throw std::runtime_error("FileTraceSource: " + path + ": " +
                             defect);
}

} // namespace

TraceWriter::TraceWriter(const std::string &path) : path_(path)
{
    file_ = std::fopen(path.c_str(), "wb");
    if (!file_)
        throw std::runtime_error("TraceWriter: cannot open " + path);
    // Header: magic, version, count placeholder.
    std::fwrite(kMagic, 1, 4, file_);
    std::fwrite(&kVersion, 4, 1, file_);
    const std::uint64_t zero = 0;
    std::fwrite(&zero, 8, 1, file_);
}

TraceWriter::~TraceWriter()
{
    if (!finished_)
        finish();
}

void
TraceWriter::append(const TraceRecord &rec)
{
    append(&rec, 1);
}

void
TraceWriter::append(const TraceRecord *recs, std::size_t n)
{
    // Pack into a stack buffer and write in chunks: one fwrite per
    // ~157 records instead of one per record.
    unsigned char buffer[157 * kEmtrRecordBytes];
    constexpr std::size_t kChunk =
        sizeof(buffer) / kEmtrRecordBytes;
    std::size_t done = 0;
    while (done < n) {
        const std::size_t batch = std::min(kChunk, n - done);
        for (std::size_t i = 0; i < batch; ++i)
            packRecord(recs[done + i],
                       buffer + i * kEmtrRecordBytes);
        if (std::fwrite(buffer, kEmtrRecordBytes, batch, file_) !=
            batch)
            throw std::runtime_error("TraceWriter: " + path_ +
                                     ": short write");
        done += batch;
    }
    count_ += n;
}

void
TraceWriter::finish()
{
    if (finished_)
        return;
    finished_ = true;
    std::fseek(file_, 8, SEEK_SET);
    std::fwrite(&count_, 8, 1, file_);
    std::fclose(file_);
    file_ = nullptr;
}

std::uint64_t
FileTraceSource::uniqueCodeLines() const
{
    if (codeLines_ == 0) {
        std::unordered_set<std::uint64_t> lines;
        for (const TraceRecord &rec : records_)
            lines.insert(rec.pc >> 6);
        codeLines_ = lines.size();
    }
    return codeLines_;
}

FileTraceSource::FileTraceSource(const std::string &path,
                                 std::uint64_t skip_records,
                                 std::uint64_t max_records)
    : name_("trace:" + path)
{
    std::FILE *file = std::fopen(path.c_str(), "rb");
    if (!file)
        fail(path, "cannot open");
    struct Closer
    {
        std::FILE *f;
        ~Closer() { std::fclose(f); }
    } closer{file};

    char magic[4];
    std::uint32_t version = 0;
    std::uint64_t count = 0;
    if (std::fread(magic, 1, 4, file) != 4 ||
        std::memcmp(magic, kMagic, 4) != 0)
        fail(path, "bad magic (not an EMTR trace)");
    if (std::fread(&version, 4, 1, file) != 1)
        fail(path, "truncated header");
    if (version != kVersion)
        fail(path, "unsupported version " + std::to_string(version) +
                       " (expected " + std::to_string(kVersion) +
                       ")");
    if (std::fread(&count, 8, 1, file) != 1)
        fail(path, "truncated header");
    if (count == 0)
        fail(path, "empty trace (header declares 0 records)");

    // The payload must match the header's record count exactly: a
    // short file is a truncation, trailing bytes are a count
    // mismatch. Either way the header lied; refuse to replay.
    std::fseek(file, 0, SEEK_END);
    const long file_bytes = std::ftell(file);
    const std::uint64_t expected =
        kEmtrHeaderBytes + count * kEmtrRecordBytes;
    if (file_bytes >= 0 &&
        static_cast<std::uint64_t>(file_bytes) < expected)
        fail(path, "truncated: header declares " +
                       std::to_string(count) + " records (" +
                       std::to_string(expected) +
                       " bytes) but file holds " +
                       std::to_string(file_bytes) + " bytes");
    if (file_bytes >= 0 &&
        static_cast<std::uint64_t>(file_bytes) > expected)
        fail(path,
             "record count mismatch: " +
                 std::to_string(
                     static_cast<std::uint64_t>(file_bytes) -
                     expected) +
                 " trailing bytes after the " +
                 std::to_string(count) + " declared records");
    std::fseek(file, static_cast<long>(kEmtrHeaderBytes), SEEK_SET);

    records_.reserve(count);
    unsigned char buffer[kEmtrRecordBytes];
    for (std::uint64_t i = 0; i < count; ++i) {
        if (std::fread(buffer, 1, kEmtrRecordBytes, file) !=
            kEmtrRecordBytes)
            fail(path, "truncated at record " + std::to_string(i) +
                           " of " + std::to_string(count));
        records_.push_back(unpackRecord(buffer));
    }

    if (skip_records >= records_.size())
        fail(path, "skip_records " + std::to_string(skip_records) +
                       " consumes the whole trace (" +
                       std::to_string(records_.size()) + " records)");
    if (skip_records > 0)
        records_.erase(records_.begin(),
                       records_.begin() +
                           static_cast<std::ptrdiff_t>(skip_records));
    if (max_records > 0 && max_records < records_.size())
        records_.resize(max_records);
}

TraceRecord
FileTraceSource::next()
{
    const TraceRecord rec = records_[pos_];
    ++pos_;
    if (pos_ == records_.size()) {
        pos_ = 0;
        ++wraps_;
    }
    return rec;
}

void
FileTraceSource::fill(TraceRecord *out, std::size_t n)
{
    std::size_t i = 0;
    while (i < n) {
        const std::size_t run =
            std::min(n - i, records_.size() - pos_);
        std::copy_n(records_.begin() +
                        static_cast<std::ptrdiff_t>(pos_),
                    run, out + i);
        i += run;
        pos_ += run;
        if (pos_ == records_.size()) {
            pos_ = 0;
            ++wraps_;
        }
    }
}

void
FileTraceSource::skipRecords(std::uint64_t n)
{
    wraps_ += (pos_ + n) / records_.size();
    pos_ = (pos_ + n) % records_.size();
}

} // namespace emissary::trace
