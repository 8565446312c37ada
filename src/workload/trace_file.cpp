/**
 * @file
 * Trace file parsing, serialization and synthetic generation.
 */

#include "workload/trace_file.hpp"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <fstream>
#include <istream>
#include <memory>
#include <stdexcept>
#include <string_view>

#include <sys/mman.h>
#include <unistd.h>

#include "sim/random.hpp"
#include "workload/trace_gen.hpp"

namespace lruleak::workload {

namespace {

constexpr char kMagic[4] = {'L', 'R', 'U', 'T'};
constexpr std::uint8_t kVersion = 1;
constexpr std::size_t kHeaderBytes = 16;
constexpr std::size_t kRecordBytes = 8;
// The shortest text line that holds a record: `R 0\n`.
constexpr std::size_t kMinRecordLine = 4;

// istream::read only comes back short at the end of the stream, so
// with whole records per chunk no record straddles two chunks.
static_assert(kTraceIoChunk % kRecordBytes == 0 &&
              kHeaderBytes % kRecordBytes == 0);

[[noreturn]] void
badTrace(const std::string &source, const std::string &why)
{
    throw std::runtime_error("malformed trace " + source + ": " + why);
}

std::uint64_t
readLe64(const char *p)
{
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i)
        v = (v << 8) | static_cast<unsigned char>(p[i]);
    return v;
}

char *
writeLe64(char *p, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        p[i] = static_cast<char>(v >> (8 * i));
    return p + 8;
}

std::string
hex(sim::Addr v)
{
    char digits[16];
    const auto end = std::to_chars(digits, digits + 16, v, 16).ptr;
    return std::string(digits, end);
}

/** Reads a stream one kTraceIoChunk block at a time. */
class ChunkReader
{
  public:
    explicit ChunkReader(std::istream &in)
        : in_(in), buf_(std::make_unique<char[]>(kTraceIoChunk))
    {
    }

    /** The next block; shorter than a chunk only at the end of the
     *  stream, empty after it.  Valid until the next call. */
    std::string_view
    next()
    {
        in_.read(buf_.get(), kTraceIoChunk);
        return {buf_.get(), static_cast<std::size_t>(in_.gcount())};
    }

  private:
    std::istream &in_;
    std::unique_ptr<char[]> buf_;
};

/** Collects output in one kTraceIoChunk block and writes it to a file
 *  a block at a time. */
class ChunkWriter
{
  public:
    ChunkWriter(const std::string &path, std::ios::openmode mode)
        : path_(path), out_(path, mode | std::ios::trunc),
          buf_(std::make_unique<char[]>(kTraceIoChunk))
    {
        if (!out_)
            throw std::runtime_error("cannot write trace file: " + path);
    }

    /** Room for @p n (at most a chunk) bytes; hand the end of what was
     *  written to commit(). */
    char *
    room(std::size_t n)
    {
        if (used_ + n > kTraceIoChunk)
            flush();
        return buf_.get() + used_;
    }

    void
    commit(const char *end)
    {
        used_ = static_cast<std::size_t>(end - buf_.get());
    }

    /** Write out what is buffered.  Throws std::runtime_error if any
     *  write failed. */
    void
    finish()
    {
        flush();
        out_.flush();
        if (!out_.good())
            throw std::runtime_error("write failed: " + path_);
    }

  private:
    void
    flush()
    {
        out_.write(buf_.get(), static_cast<std::streamsize>(used_));
        used_ = 0;
    }

    const std::string path_;
    std::ofstream out_;
    std::unique_ptr<char[]> buf_;
    std::size_t used_ = 0;
};

// The separators std::istream's >> skips in the classic locale.
constexpr bool
isSpace(char c)
{
    return c == ' ' || (c >= '\t' && c <= '\r');
}

/** The next whitespace-delimited token of @p rest (empty when none is
 *  left), consumed from it. */
std::string_view
nextToken(std::string_view &rest)
{
    std::size_t begin = 0;
    while (begin < rest.size() && isSpace(rest[begin]))
        ++begin;
    std::size_t end = begin;
    while (end < rest.size() && !isSpace(rest[end]))
        ++end;
    const std::string_view token = rest.substr(begin, end - begin);
    rest.remove_prefix(end);
    return token;
}

/** Decode an address the way strtoull base 0 reads it — `0x`/`0X` hex,
 *  a leading `0` octal, else decimal — but with no sign and no value
 *  above kTraceAddrMax. */
bool
parseAddr(std::string_view text, sim::Addr &addr)
{
    int base = 10;
    if (text.size() > 1 && text[0] == '0') {
        const bool is_hex = text[1] == 'x' || text[1] == 'X';
        base = is_hex ? 16 : 8;
        text.remove_prefix(is_hex ? 2 : 1);
    }
    const char *end = text.data() + text.size();
    const auto [stop, err] = std::from_chars(text.data(), end, addr, base);
    return err == std::errc{} && stop == end && addr <= kTraceAddrMax;
}

/** Parse one text line (without its '\n') into @p trace. */
void
parseLine(std::string_view line, std::size_t lineno, TraceFile &trace)
{
    if (!line.empty() && line.back() == '\r')
        line.remove_suffix(1);
    const auto begin = line.find_first_not_of(" \t");
    if (begin == std::string_view::npos || line[begin] == '#')
        return;
    line.remove_prefix(begin);
    const std::string_view op = nextToken(line);
    const std::string_view addr_text = nextToken(line);
    const auto where = [&] { return "line " + std::to_string(lineno); };
    if (op != "R" && op != "W") {
        badTrace(trace.source, where() + ": opcode must be R or W, got '" +
                                   std::string(op) + "'");
    }
    if (addr_text.empty())
        badTrace(trace.source, where() + ": missing address");
    if (const std::string_view extra = nextToken(line); !extra.empty()) {
        badTrace(trace.source, where() + ": trailing text '" +
                                   std::string(extra) + "'");
    }
    sim::Addr addr = 0;
    if (!parseAddr(addr_text, addr)) {
        badTrace(trace.source, where() + ": bad address '" +
                                   std::string(addr_text) + "'");
    }
    trace.records.push_back(TraceRecord{addr, op == "W"});
}

/**
 * At most how many records the text from the read position of @p in
 * to its end can hold: its line count, and no more than lines of
 * kMinRecordLine bytes would fill, so a file of blank lines does not
 * size a large array.  Read in one pass through @p reader that rewinds
 * @p in afterwards; 0 when the stream cannot seek.
 */
std::size_t
textRecordBound(std::istream &in, ChunkReader &reader,
                const std::string &source)
{
    const std::streampos start = in.tellg();
    if (start < 0)
        return 0;
    std::size_t lines = 0;
    std::size_t bytes = 0;
    char last = '\n';
    for (std::string_view chunk = reader.next(); !chunk.empty();
         chunk = reader.next()) {
        bytes += chunk.size();
        last = chunk.back();
        while (const void *nl =
                   std::memchr(chunk.data(), '\n', chunk.size())) {
            ++lines;
            chunk.remove_prefix(
                static_cast<const char *>(nl) - chunk.data() + 1);
        }
    }
    if (last != '\n') // a last line with no newline
        ++lines;
    in.clear();
    if (!in.seekg(start))
        throw std::runtime_error("cannot rewind trace " + source);
    return std::min(lines, (bytes + 1) / kMinRecordLine);
}

/** Bytes from the read position to the end of @p in, or -1 when the
 *  stream cannot seek. */
std::streamoff
remainingBytes(std::istream &in)
{
    const std::streampos here = in.tellg();
    if (here < 0)
        return -1;
    in.seekg(0, std::ios::end);
    const std::streampos end = in.tellg();
    in.seekg(here);
    return end < 0 ? -1 : end - here;
}

std::size_t
pageSize()
{
    static const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
    return page;
}

/** Pages that hold @p bytes. */
std::size_t
dataPages(std::size_t bytes)
{
    return (bytes + pageSize() - 1) / pageSize();
}

} // namespace

namespace detail {

void *
mapGuarded(std::size_t bytes)
{
    const std::size_t page = pageSize();
    const std::size_t pages = dataPages(bytes);
    void *map = mmap(nullptr, (pages + 1) * page, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (map == MAP_FAILED)
        throw std::bad_alloc();
    char *guard = static_cast<char *>(map) + pages * page;
    if (mprotect(guard, page, PROT_NONE) != 0) {
        munmap(map, (pages + 1) * page);
        throw std::bad_alloc();
    }
    return guard - bytes;
}

void
unmapGuarded(void *p, std::size_t bytes) noexcept
{
    char *guard = static_cast<char *>(p) + bytes;
    const std::size_t pages = dataPages(bytes);
    munmap(guard - pages * pageSize(), (pages + 1) * pageSize());
}

} // namespace detail

void
TraceRecord::throwAddrOutOfRange(sim::Addr addr)
{
    throw std::out_of_range("trace address 0x" + hex(addr) +
                            " is above the 63-bit limit 0x" +
                            hex(kTraceAddrMax));
}

TraceFile
parseTextTrace(std::istream &in, const std::string &source)
{
    TraceFile trace;
    trace.source = source;
    ChunkReader reader(in);
    trace.records.reserve(textRecordBound(in, reader, source));
    std::string carry; // a line begun in an earlier chunk
    std::size_t lineno = 0;
    for (std::string_view chunk = reader.next(); !chunk.empty();
         chunk = reader.next()) {
        while (const void *nl =
                   std::memchr(chunk.data(), '\n', chunk.size())) {
            const std::string_view line = chunk.substr(
                0, static_cast<const char *>(nl) - chunk.data());
            chunk.remove_prefix(line.size() + 1);
            if (carry.empty()) {
                parseLine(line, ++lineno, trace);
            } else {
                carry.append(line);
                parseLine(carry, ++lineno, trace);
                carry.clear();
            }
        }
        carry.append(chunk);
    }
    if (!carry.empty()) // a last line with no newline
        parseLine(carry, ++lineno, trace);
    return trace;
}

TraceFile
parseBinaryTrace(std::istream &in, const std::string &source)
{
    const std::streamoff size = remainingBytes(in);
    ChunkReader reader(in);
    std::string_view chunk = reader.next();
    if (chunk.size() < kHeaderBytes)
        badTrace(source, "truncated header");
    if (std::memcmp(chunk.data(), kMagic, sizeof(kMagic)) != 0)
        badTrace(source, "bad magic (not an LRUT trace)");
    const auto version = static_cast<std::uint8_t>(chunk[4]);
    if (version != kVersion) {
        badTrace(source, "unsupported version " + std::to_string(version) +
                             " (expected " + std::to_string(kVersion) +
                             ")");
    }
    if (chunk[5] != 0 || chunk[6] != 0 || chunk[7] != 0)
        badTrace(source, "nonzero header padding");
    const std::uint64_t count = readLe64(chunk.data() + 8);
    chunk.remove_prefix(kHeaderBytes);

    TraceFile trace;
    trace.source = source;
    // The header's count is untrusted: reserve no more than the body
    // can hold.
    if (size >= static_cast<std::streamoff>(kHeaderBytes)) {
        const auto body_records =
            static_cast<std::uint64_t>(size - kHeaderBytes) / kRecordBytes;
        trace.records.reserve(
            static_cast<std::size_t>(std::min(count, body_records)));
    }
    for (std::uint64_t i = 0; i < count; ++i) {
        if (chunk.empty())
            chunk = reader.next();
        if (chunk.size() < kRecordBytes) {
            badTrace(source, "truncated at record " + std::to_string(i) +
                                 " of " + std::to_string(count));
        }
        trace.records.push_back(
            TraceRecord::fromBits(readLe64(chunk.data())));
        chunk.remove_prefix(kRecordBytes);
    }
    if (!chunk.empty() || !reader.next().empty())
        badTrace(source, "trailing bytes after the last record");
    return trace;
}

TraceFile
loadTrace(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("cannot open trace file: " + path);
    char magic[4] = {};
    in.read(magic, sizeof(magic));
    const bool binary = in.gcount() == sizeof(magic) &&
                        std::memcmp(magic, kMagic, sizeof(kMagic)) == 0;
    in.clear();
    in.seekg(0);
    return binary ? parseBinaryTrace(in, path) : parseTextTrace(in, path);
}

void
saveTextTrace(const TraceFile &trace, const std::string &path)
{
    ChunkWriter out(path, std::ios::out);
    for (const TraceRecord &r : trace.records) {
        char *p = out.room(4 + 16 + 1);
        *p++ = r.isWrite() ? 'W' : 'R';
        *p++ = ' ';
        *p++ = '0';
        *p++ = 'x';
        p = std::to_chars(p, p + 16, r.addr(), 16).ptr;
        *p++ = '\n';
        out.commit(p);
    }
    out.finish();
}

void
saveBinaryTrace(const TraceFile &trace, const std::string &path)
{
    ChunkWriter out(path, std::ios::out | std::ios::binary);
    char *p = out.room(kHeaderBytes);
    p = std::copy(std::begin(kMagic), std::end(kMagic), p);
    const char version_pad[4] = {static_cast<char>(kVersion), 0, 0, 0};
    p = std::copy(std::begin(version_pad), std::end(version_pad), p);
    out.commit(writeLe64(p, trace.records.size()));
    for (const TraceRecord &r : trace.records)
        out.commit(writeLe64(out.room(kRecordBytes), r.bits()));
    out.finish();
}

TraceFile
generateTrace(const std::string &workload, std::size_t count,
              std::uint64_t seed, double write_fraction)
{
    if (!(write_fraction >= 0.0 && write_fraction <= 1.0)) {
        throw std::invalid_argument(
            "write fraction must be in [0, 1], got " +
            std::to_string(write_fraction));
    }
    const auto generator = makeWorkload(workload); // throws on bad name
    sim::Xoshiro256 addr_rng(seed);
    // Separate stream for the store promotion so the address sequence
    // is identical across write fractions.
    sim::Xoshiro256 write_rng(seed ^ 0x57524954'45532121ULL);

    TraceFile trace;
    trace.source = workload;
    trace.records.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        const sim::Addr addr = generator->next(addr_rng);
        const bool is_write =
            write_fraction > 0.0 &&
            write_rng.uniform() < write_fraction;
        trace.records.push_back(TraceRecord{addr, is_write});
    }
    return trace;
}

} // namespace lruleak::workload
