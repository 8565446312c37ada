/**
 * @file
 * Trace files and their replay: format round trips, lines and records
 * that cross a read chunk, malformed-input rejection with verbatim
 * messages, a seeded mutation fuzz of loadTrace, and the equivalence
 * of export-then-replay with running the synthetic generator live — on
 * both topologies, write path included.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <sys/mman.h>
#include <unistd.h>

#include "exec/trace_program.hpp"
#include "sim/hierarchy.hpp"
#include "sim/multicore_hierarchy.hpp"
#include "sim/random.hpp"
#include "workload/trace_file.hpp"
#include "workload/trace_gen.hpp"

using namespace lruleak;
using workload::TraceFile;
using workload::TraceRecord;
using namespace std::string_literals;

namespace {

std::string
tempPath(const std::string &leaf)
{
    return (std::filesystem::path(testing::TempDir()) / leaf).string();
}

constexpr std::size_t kChunk = workload::kTraceIoChunk;

/** The message of the std::runtime_error parsing @p text throws, or
 *  "" when it loads. */
std::string
textError(const std::string &text)
{
    std::istringstream in(text);
    try {
        workload::parseTextTrace(in, "inline");
    } catch (const std::runtime_error &e) {
        return e.what();
    }
    return "";
}

/** A comment line of exactly @p bytes bytes, its newline included. */
std::string
commentOf(std::size_t bytes)
{
    return "#" + std::string(bytes - 2, '-') + "\n";
}

std::string
fileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

void
writeBytes(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/** A stringbuf that refuses to seek, as a pipe does. */
class UnseekableBuf : public std::stringbuf
{
  public:
    using std::stringbuf::stringbuf;

  protected:
    pos_type
    seekoff(off_type, std::ios::seekdir, std::ios::openmode) override
    {
        return pos_type(off_type(-1));
    }
    pos_type
    seekpos(pos_type, std::ios::openmode) override
    {
        return pos_type(off_type(-1));
    }
};

// ----------------------------------------------------------- round trips

TEST(TraceFile, TextRoundTripPreservesRecords)
{
    auto trace = workload::generateTrace("gccmix", 2000, 7, 0.3);
    // Edge addresses, as loads and as stores.
    trace.records.push_back(TraceRecord{0, true});
    trace.records.push_back(TraceRecord{workload::kTraceAddrMax, false});
    trace.records.push_back(TraceRecord{workload::kTraceAddrMax, true});
    const std::string path = tempPath("rt.trace");
    workload::saveTextTrace(trace, path);
    const TraceFile loaded = workload::loadTrace(path);
    EXPECT_EQ(loaded.records, trace.records);
    std::filesystem::remove(path);
}

TEST(TraceFile, BinaryRoundTripPreservesRecords)
{
    auto trace = workload::generateTrace("ptrchase", 2000, 11, 0.5);
    // Edge addresses the packing must keep intact.
    trace.records.push_back(TraceRecord{0, true});
    trace.records.push_back(TraceRecord{workload::kTraceAddrMax, false});
    trace.records.push_back(TraceRecord{workload::kTraceAddrMax, true});
    const std::string path = tempPath("rt.bintrace");
    workload::saveBinaryTrace(trace, path);
    const TraceFile loaded = workload::loadTrace(path);
    EXPECT_EQ(loaded.records, trace.records);
    std::filesystem::remove(path);
}

TEST(TraceFile, TextAndBinaryLoadIdentically)
{
    const auto trace = workload::generateTrace("stencil3d", 1500, 3, 0.2);
    const std::string text_path = tempPath("same.trace");
    const std::string bin_path = tempPath("same.bintrace");
    workload::saveTextTrace(trace, text_path);
    workload::saveBinaryTrace(trace, bin_path);
    EXPECT_EQ(workload::loadTrace(text_path).records,
              workload::loadTrace(bin_path).records);
    std::filesystem::remove(text_path);
    std::filesystem::remove(bin_path);
}

TEST(TraceFile, RoundTripsAroundChunkMultiples)
{
    // Binary files of exactly one chunk, one record either side of it,
    // and several chunks; the text files cross chunks mid-line.
    const std::size_t one_chunk = (kChunk - 16) / 8;
    for (const std::size_t n : {one_chunk - 1, one_chunk, one_chunk + 1,
                                std::size_t{20000}}) {
        const auto trace = workload::generateTrace("gccmix", n, n, 0.5);
        const std::string text_path = tempPath("chunks.trace");
        const std::string bin_path = tempPath("chunks.bintrace");
        workload::saveTextTrace(trace, text_path);
        workload::saveBinaryTrace(trace, bin_path);
        EXPECT_EQ(fileBytes(bin_path).size(), 16 + 8 * n);
        EXPECT_EQ(workload::loadTrace(text_path).records, trace.records)
            << n << " records";
        EXPECT_EQ(workload::loadTrace(bin_path).records, trace.records)
            << n << " records";
        // A stray byte after the last record, at a chunk start for
        // one_chunk records.
        std::istringstream trailing(fileBytes(bin_path) + "x");
        EXPECT_THROW(workload::parseBinaryTrace(trailing, "inline"),
                     std::runtime_error)
            << n << " records";
        std::filesystem::remove(text_path);
        std::filesystem::remove(bin_path);
    }
}

TEST(TraceFile, SavedTextIsOneHexLinePerRecord)
{
    TraceFile trace;
    trace.records = {TraceRecord{0, false}, TraceRecord{0xabc, true},
                     TraceRecord{workload::kTraceAddrMax, false}};
    const std::string path = tempPath("format.trace");
    workload::saveTextTrace(trace, path);
    EXPECT_EQ(fileBytes(path),
              "R 0x0\nW 0xabc\nR 0x7fffffffffffffff\n");
    std::filesystem::remove(path);
}

TEST(TraceFile, TextParserAcceptsCommentsBlanksAndBothBases)
{
    std::istringstream in("# header comment\n"
                          "\n"
                          "R 0x1000\n"
                          "  W 4096\r\n" // indented, CRLF
                          "\t#indented comment\n"
                          "W 0xABCDEF\n");
    const TraceFile trace = workload::parseTextTrace(in, "inline");
    ASSERT_EQ(trace.size(), 3u);
    EXPECT_EQ(trace.records[0], (TraceRecord{0x1000, false}));
    EXPECT_EQ(trace.records[1], (TraceRecord{4096, true}));
    EXPECT_EQ(trace.records[2], (TraceRecord{0xABCDEF, true}));
}

TEST(TraceFile, TextParserReadsAcrossChunkBoundaries)
{
    using R = TraceRecord;
    const struct
    {
        const char *what;
        std::string text;
        workload::TraceRecords want;
    } cases[] = {
        {"record line straddling the chunk boundary",
         commentOf(kChunk - 4) + "R 0x1234\n", {R{0x1234, false}}},
        {"newline as the last byte of a chunk",
         commentOf(kChunk - 9) + "R 0x1234\nW 5\n",
         {R{0x1234, false}, R{5, true}}},
        {"CRLF split: \\r ends a chunk, \\n starts the next",
         commentOf(kChunk - 7) + "W 0x10\r\nR 0x20\r\n",
         {R{0x10, true}, R{0x20, false}}},
        {"blank CRLF line split across the boundary",
         commentOf(kChunk - 1) + "\r\n \t\r\nR 7\r\n", {R{7, false}}},
        {"last line without a newline", "R 1\nW 0x2",
         {R{1, false}, R{2, true}}},
        {"last line without a newline past a chunk",
         commentOf(kChunk + 3) + "W 0x2", {R{2, true}}},
        {"\\v, \\f and tab separators",
         "R\v0x10\nW\f0x20\nR\t0x30\n \tW \v 0x40 \f\r\n",
         {R{0x10, false}, R{0x20, true}, R{0x30, false}, R{0x40, true}}},
        {"0X hex, octal and zero", "R 0X1F\nW 010\nR 0\nR 00\nW 0x0\n",
         {R{31, false}, R{8, true}, R{0, false}, R{0, false}, R{0, true}}},
        {"comment line longer than two chunks",
         "#" + std::string(2 * kChunk + 5, 'c') + "\nR 0x1\n",
         {R{1, false}}},
        {"record line longer than a chunk",
         "W" + std::string(kChunk + 9, ' ') + "0x77\n", {R{0x77, true}}},
        {"lines of only spaces and tabs", " \t \n\n\t\nR 3\n",
         {R{3, false}}},
    };
    for (const auto &c : cases) {
        std::istringstream in(c.text);
        EXPECT_EQ(workload::parseTextTrace(in, "inline").records, c.want)
            << c.what;
    }
}

// ------------------------------------------------------ malformed input

TEST(TraceFile, TextParserRejectsMalformedLines)
{
    // Checks run in a fixed order — opcode, missing address, trailing
    // text, bad address — and the message names the first that fails.
    std::string bad_far;
    for (int i = 0; i < 5000; ++i)
        bad_far += "R 0x123456789abc\n"; // 85,000 bytes
    bad_far += "R zz\n";
    ASSERT_GT(bad_far.size(), kChunk);
    const struct
    {
        std::string text;
        std::string why;
    } cases[] = {
        {"X 0x1000\n", "line 1: opcode must be R or W, got 'X'"},
        {"R\n", "line 1: missing address"},
        {"R zzz\n", "line 1: bad address 'zzz'"},
        {"R 0x10 extra\n", "line 1: trailing text 'extra'"},
        {"read 0x10\n", "line 1: opcode must be R or W, got 'read'"},
        {"X\n", "line 1: opcode must be R or W, got 'X'"},
        {"Q zz extra\n", "line 1: opcode must be R or W, got 'Q'"},
        {"R zz extra more\n", "line 1: trailing text 'extra'"},
        {"R 0x1 # note\n", "line 1: trailing text '#'"},
        {"\v\n", "line 1: opcode must be R or W, got ''"},
        {"\v# not a comment\n", "line 1: opcode must be R or W, got '#'"},
        {"# ok\nR 0x1\n\nW 0x\n", "line 4: bad address '0x'"},
        {"R 08\n", "line 1: bad address '08'"},
        {"R 0x1g\n", "line 1: bad address '0x1g'"},
        {"R 18446744073709551616\n",
         "line 1: bad address '18446744073709551616'"},
        // A NUL is part of a token; what() is a C string, so the
        // message reads up to it.
        {"R 0x1\0\n"s, "line 1: bad address '0x1"},
        {"R\0 1\n"s, "line 1: opcode must be R or W, got 'R"},
        {commentOf(kChunk - 3) + "X 0x1\n",
         "line 2: opcode must be R or W, got 'X'"},
        {bad_far, "line 5001: bad address 'zz'"},
    };
    for (const auto &c : cases) {
        EXPECT_EQ(textError(c.text), "malformed trace inline: " + c.why)
            << "input of " << c.text.size() << " bytes";
    }
}

TEST(TraceFile, TextParserRejectsSignsAndAddressesPastTheBinaryLimit)
{
    for (const std::string addr :
         {"-1", "+5", "-0x10", "+0", "0xffffffffffffffff",
          "0x8000000000000000", "9223372036854775808",
          "01000000000000000000000"}) {
        EXPECT_EQ(textError("R " + addr + "\n"),
                  "malformed trace inline: line 1: bad address '" + addr +
                      "'");
    }
    // kTraceAddrMax in all three bases loads, and fits the binary
    // format.
    std::istringstream in("R 0x7fffffffffffffff\n"
                          "W 9223372036854775807\n"
                          "R 0777777777777777777777\n");
    const TraceFile trace = workload::parseTextTrace(in, "inline");
    ASSERT_EQ(trace.size(), 3u);
    for (const TraceRecord &r : trace.records)
        EXPECT_EQ(r.addr(), workload::kTraceAddrMax);
    const std::string path = tempPath("max.bintrace");
    workload::saveBinaryTrace(trace, path);
    EXPECT_EQ(workload::loadTrace(path).records, trace.records);
    std::filesystem::remove(path);
}

TEST(TraceFile, BinaryParserRejectsCorruptStreams)
{
    const auto trace = workload::generateTrace("stream", 16, 5, 0.0);
    const std::string path = tempPath("corrupt.bintrace");
    workload::saveBinaryTrace(trace, path);
    const std::string bytes = fileBytes(path);
    std::filesystem::remove(path);

    const auto expectBad = [](std::string data, const std::string &why) {
        std::istringstream in(data);
        try {
            workload::parseBinaryTrace(in, "inline");
            ADD_FAILURE() << "accepted: " << why;
        } catch (const std::runtime_error &e) {
            EXPECT_EQ(std::string(e.what()),
                      "malformed trace inline: " + why);
        }
    };
    const auto withCount = [](std::string data, std::uint64_t count) {
        for (int i = 0; i < 8; ++i)
            data[8 + i] = static_cast<char>(count >> (8 * i));
        return data;
    };
    expectBad(bytes.substr(0, 10), "truncated header");
    expectBad(bytes.substr(0, bytes.size() - 3),
              "truncated at record 15 of 16");
    expectBad(bytes + "x", "trailing bytes after the last record");
    {
        std::string wrong_magic = bytes;
        wrong_magic[0] = 'X';
        expectBad(wrong_magic, "bad magic (not an LRUT trace)");
    }
    {
        std::string wrong_version = bytes;
        wrong_version[4] = 9;
        expectBad(wrong_version, "unsupported version 9 (expected 1)");
    }
    {
        std::string dirty_pad = bytes;
        dirty_pad[5] = 1;
        expectBad(dirty_pad, "nonzero header padding");
    }
    // A header claiming far more records than the body holds must not
    // size an allocation from the claim.
    const std::string header = bytes.substr(0, 16);
    expectBad(withCount(header, std::uint64_t{1} << 40),
              "truncated at record 0 of 1099511627776");
    expectBad(withCount(header, std::uint64_t{1} << 61),
              "truncated at record 0 of 2305843009213693952");
    expectBad(withCount(bytes, std::uint64_t{1} << 61),
              "truncated at record 16 of 2305843009213693952");
}

TEST(TraceFile, BinaryParserReadsUnseekableStreams)
{
    const auto trace = workload::generateTrace("gccmix", 9000, 4, 0.5);
    const std::string path = tempPath("pipe.bintrace");
    workload::saveBinaryTrace(trace, path);
    std::string bytes = fileBytes(path);
    std::filesystem::remove(path);
    {
        UnseekableBuf buf(bytes);
        std::istream in(&buf);
        EXPECT_EQ(workload::parseBinaryTrace(in, "pipe").records,
                  trace.records);
    }
    bytes[15] = 0x20; // a count of 2^61 + 9000
    UnseekableBuf buf(bytes);
    std::istream in(&buf);
    EXPECT_THROW(workload::parseBinaryTrace(in, "pipe"),
                 std::runtime_error);
}

// ------------------------------------------------------ memory contract

TEST(TraceFile, RecordIsThePackedLrutRecord)
{
    static_assert(sizeof(TraceRecord) == 8);
    EXPECT_EQ((TraceRecord{0x1234, false}).bits(), 0x1234u);
    EXPECT_EQ((TraceRecord{0x1234, true}).bits(),
              0x1234u | (std::uint64_t{1} << 63));
    EXPECT_EQ((TraceRecord{workload::kTraceAddrMax, true}).bits(),
              ~std::uint64_t{0});
    const TraceRecord max = TraceRecord::fromBits(~std::uint64_t{0});
    EXPECT_EQ(max.addr(), workload::kTraceAddrMax);
    EXPECT_TRUE(max.isWrite());
    EXPECT_EQ(max.ref(3).paddr, workload::kTraceAddrMax);
    EXPECT_TRUE(max.ref(3).is_write);
    EXPECT_EQ(max.ref(3).thread, 3u);
}

TEST(TraceFile, RecordBuilderRejectsAddressesPastTheLimit)
{
    for (const sim::Addr addr :
         {workload::kTraceAddrMax + 1, ~sim::Addr{0}}) {
        for (const bool is_write : {false, true}) {
            try {
                (void)TraceRecord(addr, is_write);
                ADD_FAILURE() << "accepted 0x" << std::hex << addr;
            } catch (const std::out_of_range &e) {
                EXPECT_NE(std::string(e.what()).find("above the 63-bit"),
                          std::string::npos)
                    << e.what();
            }
        }
    }
    TraceFile trace;
    EXPECT_THROW(trace.records.emplace_back(workload::kTraceAddrMax + 1,
                                            true),
                 std::out_of_range);
    EXPECT_TRUE(trace.empty());
}

TEST(TraceFile, SeekableTextLoadSizesTheRecordsOnce)
{
    // More than a chunk of text, with comment, blank and CRLF lines.
    // Grown by doubling, 5000 records would end at a capacity of 8192;
    // sized from the line count, the array is allocated once and never
    // exceeds the lines.
    const auto trace = workload::generateTrace("gccmix", 5000, 21, 0.5);
    std::string text = "# comment\r\n\r\n";
    std::size_t lines = 2;
    for (const TraceRecord &r : trace.records) {
        text += (r.isWrite() ? "W " : "R ") + std::to_string(r.addr()) +
                (lines % 3 == 0 ? "\r\n" : "\n");
        ++lines;
    }
    text += "  # trailing comment";
    ++lines;
    ASSERT_GT(text.size(), kChunk);

    std::istringstream in(text);
    const TraceFile parsed = workload::parseTextTrace(in, "inline");
    EXPECT_EQ(parsed.records, trace.records);
    EXPECT_LE(parsed.records.capacity(), lines);

    const std::string path = tempPath("sized.trace");
    writeBytes(path, text);
    const TraceFile loaded = workload::loadTrace(path);
    EXPECT_EQ(loaded.records, trace.records);
    EXPECT_LE(loaded.records.capacity(), lines);

    // Records only: the capacity is exactly the record count, a last
    // line without a newline included.
    workload::saveTextTrace(trace, path);
    EXPECT_EQ(workload::loadTrace(path).records.capacity(), trace.size());
    std::filesystem::remove(path);
    std::istringstream unterminated("R 1\nW 0x2\nR 3");
    EXPECT_EQ(workload::parseTextTrace(unterminated, "inline")
                  .records.capacity(),
              3u);
}

TEST(TraceFile, TextLoadReservesNoMoreThanShortestLinesCouldHold)
{
    // A record line is at least `R 0\n`, 4 bytes: 40004 bytes of
    // mostly blank lines size the array for 10001 records, not 40001.
    std::istringstream in(std::string(40000, '\n') + "R 0\n");
    const TraceFile trace = workload::parseTextTrace(in, "inline");
    ASSERT_EQ(trace.size(), 1u);
    EXPECT_LE(trace.records.capacity(), 10001u);
}

TEST(TraceFile, UnseekableTextStreamStillLoads)
{
    const auto trace = workload::generateTrace("gccmix", 9000, 4, 0.5);
    const std::string path = tempPath("pipe.trace");
    workload::saveTextTrace(trace, path);
    UnseekableBuf buf(fileBytes(path));
    std::filesystem::remove(path);
    std::istream in(&buf);
    EXPECT_EQ(workload::parseTextTrace(in, "pipe").records, trace.records);
}

TEST(TraceFile, BinaryLoadCapacityIsTheRecordCount)
{
    const auto trace = workload::generateTrace("stream", 5000, 6, 0.3);
    const std::string path = tempPath("sized.bintrace");
    workload::saveBinaryTrace(trace, path);
    const TraceFile loaded = workload::loadTrace(path);
    EXPECT_EQ(loaded.records, trace.records);
    EXPECT_EQ(loaded.records.capacity(), trace.size());
    std::filesystem::remove(path);
}

// ------------------------------------------------------ record storage

TEST(TraceStorage, LastHolderReleasesTheRecords)
{
    auto trace = std::make_shared<const TraceFile>(
        workload::generateTrace("gccmix", 100'000, 3, 0.5));
    // The array's pages: mincore fails with ENOMEM once any is unmapped.
    const auto page = static_cast<std::uintptr_t>(sysconf(_SC_PAGESIZE));
    const auto first =
        reinterpret_cast<std::uintptr_t>(trace->records.data());
    const std::uintptr_t begin = first & ~(page - 1);
    const std::size_t bytes =
        first + trace->size() * sizeof(TraceRecord) - begin;
    std::vector<unsigned char> residency((bytes + page - 1) / page);
    const auto mapped = [&] {
        return mincore(reinterpret_cast<void *>(begin), bytes,
                       residency.data());
    };
    ASSERT_EQ(mapped(), 0);
    auto holder = trace;
    trace.reset();
    EXPECT_EQ(mapped(), 0) << "freed while still held";
    holder.reset();
    errno = 0;
    EXPECT_EQ(mapped(), -1) << "still mapped after the last holder";
    EXPECT_EQ(errno, ENOMEM);
}

TEST(TraceStorage, CopyOwnsASeparateArray)
{
    const TraceFile trace = workload::generateTrace("stream", 3000, 8, 0.3);
    TraceFile copy = trace;
    EXPECT_EQ(copy, trace);
    EXPECT_NE(copy.records.data(), trace.records.data());
    const TraceRecord first = trace.records[0];
    copy.records[0] = TraceRecord::fromBits(first.bits() ^ (1ull << 63));
    EXPECT_EQ(trace.records[0], first);
    EXPECT_NE(copy, trace);
}

TEST(TraceStorageDeathTest, ReadingPastTheCapacityFaults)
{
    testing::GTEST_FLAG(death_test_style) = "threadsafe";
    // A partial last page, exactly one page, and several pages.
    for (const std::size_t n : {std::size_t{1}, std::size_t{512},
                                std::size_t{5000}}) {
        const TraceFile trace = workload::generateTrace("gccmix", n, 5, 0.5);
        const auto *past = reinterpret_cast<const volatile std::uint64_t *>(
            trace.records.data() + trace.records.capacity());
        EXPECT_DEATH((void)*past, "") << n << " records";
    }
}

TEST(TraceStorage, UnseekableStreamRegrowsToTheSeekableLoad)
{
    // Parsed from a pipe, the array is grown record by record, through
    // a fresh mapping at every regrowth.
    const auto trace = workload::generateTrace("gccmix", 150'000, 9, 0.4);
    const std::string path = tempPath("regrow.trace");
    workload::saveTextTrace(trace, path);
    const TraceFile seekable = workload::loadTrace(path);
    UnseekableBuf buf(fileBytes(path));
    std::filesystem::remove(path);
    std::istream in(&buf);
    const TraceFile piped = workload::parseTextTrace(in, "pipe");
    EXPECT_EQ(seekable.records, trace.records);
    EXPECT_EQ(piped.records, seekable.records);
}

TEST(TraceFile, LoadRejectsMissingFile)
{
    EXPECT_THROW(workload::loadTrace(tempPath("no-such.trace")),
                 std::runtime_error);
}

// ------------------------------------------------------ mutation fuzz
//
// Seeded byte flips, truncations and splices over generateTrace outputs
// saved as text and as LRUT, with a fixed iteration budget.  The
// contract: each mutant is either rejected with std::runtime_error, or
// the records it loads round-trip exactly through saveTextTrace and
// saveBinaryTrace.
//
// Each iteration removes a path before writing it again: truncating a
// non-empty file makes ext4 (auto_da_alloc) flush it to disk, which
// turned the 2000 iterations into minutes of wall time for under a
// second of CPU.  A newly created file has nothing to flush.

constexpr int kIterations = 2000;

/** @p path, removed first so the write that follows creates it anew. */
const std::string &
fresh(const std::string &path)
{
    std::filesystem::remove(path);
    return path;
}

struct Seed
{
    std::string bytes;
    bool binary = false;
};

/** Valid inputs in both formats; the last two cross a read chunk. */
std::vector<Seed>
seedCorpus()
{
    std::vector<Seed> corpus;
    corpus.push_back({"# hand-written\r\n  R 010\r\n\tW 4096\n\n"
                      "R 0X1f\nW 0x7fffffffffffffff",
                      false});
    const struct
    {
        const char *workload;
        std::size_t count;
        double writes;
    } traces[] = {{"gccmix", 40, 0.5},
                  {"ptrchase", 24, 0.3},
                  {"stream", 8, 0.0},
                  {"gccmix", 6000, 0.5}};
    const std::string text_path = tempPath("fuzz-seed.trace");
    const std::string bin_path = tempPath("fuzz-seed.bintrace");
    for (const auto &t : traces) {
        const auto trace =
            workload::generateTrace(t.workload, t.count, 17, t.writes);
        workload::saveTextTrace(trace, text_path);
        workload::saveBinaryTrace(trace, bin_path);
        corpus.push_back({fileBytes(text_path), false});
        corpus.push_back({fileBytes(bin_path), true});
    }
    std::filesystem::remove(text_path);
    std::filesystem::remove(bin_path);
    return corpus;
}

// Bytes that steer the text grammar and the LRUT header.
const std::string kTokens[] = {
    "\n", "\r", "\r\n", " ", "\t", "\v", "\f", "#", "-", "+", "0", "0x",
    "0X", "8", "R ", "W ", "ffffffffffffffff", "8000000000000000",
    std::string(1, '\0'), "LRUT", "\x01"};

/** One to three edits of @p bytes: a byte set to a random value, a
 *  truncation, a span replaced by a slice of @p donor, or a token
 *  inserted. */
std::string
mutate(std::string bytes, const std::string &donor, sim::Xoshiro256 &rng)
{
    const auto edits = 1 + rng.below(3);
    for (std::uint64_t e = 0; e < edits; ++e) {
        const std::size_t pos = rng.below(bytes.size() + 1);
        switch (rng.below(4)) {
        case 0:
            if (!bytes.empty()) {
                bytes[rng.below(bytes.size())] =
                    static_cast<char>(rng.below(256));
            }
            break;
        case 1:
            bytes.resize(pos);
            break;
        case 2: {
            const std::size_t from = rng.below(donor.size());
            const std::size_t len = rng.below(
                std::min<std::size_t>(donor.size() - from, 64) + 1);
            const std::size_t cut = rng.below(
                std::min<std::size_t>(bytes.size() - pos, 64) + 1);
            bytes.replace(pos, cut, donor, from, len);
            break;
        }
        default:
            bytes.insert(pos, kTokens[rng.below(std::size(kTokens))]);
        }
    }
    return bytes;
}

TEST(TraceFuzz, LoadTraceRejectsOrRoundTripsEveryMutant)
{
    const std::vector<Seed> corpus = seedCorpus();
    const std::string mutant_path = tempPath("fuzz-mutant.trace");
    const std::string text_path = tempPath("fuzz-rt.trace");
    const std::string bin_path = tempPath("fuzz-rt.bintrace");
    sim::Xoshiro256 rng(0xf022'7ace);
    // [seed is binary][mutant accepted]
    int outcomes[2][2] = {};
    for (int i = 0; i < kIterations && !HasFailure(); ++i) {
        // The two seeds that cross a chunk cost most; draw them 1 in 16.
        const std::size_t small = corpus.size() - 2;
        const std::size_t pick = rng.below(16) == 0
                                     ? small + rng.below(2)
                                     : rng.below(small);
        const Seed &seed = corpus[pick];
        const std::string &donor = corpus[rng.below(corpus.size())].bytes;
        writeBytes(fresh(mutant_path), mutate(seed.bytes, donor, rng));
        try {
            TraceFile loaded;
            try {
                loaded = workload::loadTrace(mutant_path);
            } catch (const std::runtime_error &) {
                ++outcomes[seed.binary][0];
                continue;
            }
            ++outcomes[seed.binary][1];
            workload::saveTextTrace(loaded, fresh(text_path));
            EXPECT_EQ(workload::loadTrace(text_path).records,
                      loaded.records)
                << "iteration " << i << ": text round trip";
            workload::saveBinaryTrace(loaded, fresh(bin_path));
            EXPECT_EQ(workload::loadTrace(bin_path).records,
                      loaded.records)
                << "iteration " << i << ": binary round trip";
        } catch (const std::exception &e) {
            ADD_FAILURE() << "iteration " << i << ": " << e.what();
        }
    }
    // The budget reaches both sides of the contract for both formats.
    for (const bool binary : {false, true}) {
        EXPECT_GT(outcomes[binary][0], 0) << "binary=" << binary;
        EXPECT_GT(outcomes[binary][1], 0) << "binary=" << binary;
    }
    std::filesystem::remove(mutant_path);
    std::filesystem::remove(text_path);
    std::filesystem::remove(bin_path);
}

// ----------------------------------------------------------- generation

TEST(TraceGen, DeterministicAndSeedSensitive)
{
    const auto a = workload::generateTrace("hashjoin", 1000, 42, 0.25);
    const auto b = workload::generateTrace("hashjoin", 1000, 42, 0.25);
    const auto c = workload::generateTrace("hashjoin", 1000, 43, 0.25);
    EXPECT_EQ(a.records, b.records);
    EXPECT_NE(a.records, c.records);
}

TEST(TraceGen, WriteFractionControlsStoresNotAddresses)
{
    const auto loads = workload::generateTrace("zipfobj", 1000, 9, 0.0);
    const auto mixed = workload::generateTrace("zipfobj", 1000, 9, 0.5);
    const auto stores = workload::generateTrace("zipfobj", 1000, 9, 1.0);
    ASSERT_EQ(loads.size(), mixed.size());
    std::size_t mixed_stores = 0;
    for (std::size_t i = 0; i < loads.size(); ++i) {
        // The address stream is identical across write fractions: the
        // store promotion draws from its own RNG stream.
        EXPECT_EQ(loads.records[i].addr(), mixed.records[i].addr());
        EXPECT_EQ(loads.records[i].addr(), stores.records[i].addr());
        EXPECT_FALSE(loads.records[i].isWrite());
        EXPECT_TRUE(stores.records[i].isWrite());
        mixed_stores += mixed.records[i].isWrite() ? 1 : 0;
    }
    EXPECT_GT(mixed_stores, 350u);
    EXPECT_LT(mixed_stores, 650u);
}

TEST(TraceGen, RejectsBadArguments)
{
    EXPECT_THROW(workload::generateTrace("no-such-workload", 10, 1, 0.0),
                 std::invalid_argument);
    EXPECT_THROW(workload::generateTrace("stream", 10, 1, 1.5),
                 std::invalid_argument);
    EXPECT_THROW(workload::generateTrace("stream", 10, 1, -0.1),
                 std::invalid_argument);
}

// ---------------------------------------- replay equals live execution

/** Issue the trace record-by-record and collect the exact outcome. */
struct DirectStats
{
    std::vector<sim::HitLevel> levels;
    std::uint64_t writebacks = 0;
};

/** @p access issues one MemRef to the hierarchy under test. */
template <typename AccessFn>
DirectStats
accessDirect(AccessFn access, std::uint32_t core, const TraceFile &trace)
{
    DirectStats stats;
    stats.levels.reserve(trace.size());
    for (const TraceRecord &r : trace.records) {
        const auto res = access(r.ref(core));
        stats.levels.push_back(res.level);
        stats.writebacks += res.writebacks;
    }
    return stats;
}

/** Run the generator live through @p access, exactly as generateTrace
 *  would have recorded it. */
template <typename AccessFn>
DirectStats
runGeneratorLive(AccessFn access, std::uint32_t core,
                 const std::string &workload, std::size_t count,
                 std::uint64_t seed, double write_fraction)
{
    const auto generator = workload::makeWorkload(workload);
    sim::Xoshiro256 addr_rng(seed);
    sim::Xoshiro256 write_rng(seed ^ 0x57524954'45532121ULL);
    DirectStats stats;
    stats.levels.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        const sim::Addr addr = generator->next(addr_rng);
        const bool is_write = write_fraction > 0.0 &&
                              write_rng.uniform() < write_fraction;
        const sim::MemRef ref{addr, addr, core, is_write};
        const auto res = access(ref);
        stats.levels.push_back(res.level);
        stats.writebacks += res.writebacks;
    }
    return stats;
}

TEST(TraceReplay, ExportThenReplayEqualsLiveGeneratorSingleCore)
{
    // A write-heavy mix so dirty lines and write-backs are part of
    // what must match.
    const std::string workload = "gccmix";
    const std::size_t count = 6000;
    const std::uint64_t seed = 77;
    const double writes = 0.4;
    const auto trace =
        workload::generateTrace(workload, count, seed, writes);

    sim::CacheHierarchy live_h, replay_h, batch_h;
    const auto live = [&](const sim::MemRef &r) { return live_h.access(r); };
    const auto replay = [&](const sim::MemRef &r) {
        return replay_h.access(r);
    };

    const auto direct =
        runGeneratorLive(live, 0, workload, count, seed, writes);
    const auto replayed = accessDirect(replay, 0, trace);
    EXPECT_EQ(replayed.levels, direct.levels);
    EXPECT_EQ(replayed.writebacks, direct.writebacks);
    ASSERT_GT(direct.writebacks, 0u); // the write path actually ran

    // The chunked accessBatch fast path sees the same hit/miss totals.
    const auto stats = exec::replayTrace(batch_h, trace, 512);
    std::uint64_t live_misses = 0;
    for (const auto level : direct.levels)
        live_misses += level == sim::HitLevel::Memory ? 1 : 0;
    EXPECT_EQ(stats.accesses, count);
    EXPECT_EQ(stats.misses, live_misses);
    EXPECT_EQ(stats.hits, count - live_misses);
}

TEST(TraceReplay, ExportThenReplayEqualsLiveGeneratorMultiCore)
{
    const std::string workload = "dualstream";
    const std::size_t count = 4000;
    const std::uint64_t seed = 13;
    const double writes = 0.3;
    const auto trace =
        workload::generateTrace(workload, count, seed, writes);

    sim::MultiCoreHierarchy live_h, replay_h;
    const std::uint32_t core = live_h.cores() - 1;
    const auto live = [&](const sim::MemRef &r) {
        return live_h.access(core, r);
    };
    const auto replay = [&](const sim::MemRef &r) {
        return replay_h.access(core, r);
    };

    const auto direct =
        runGeneratorLive(live, core, workload, count, seed, writes);
    const auto replayed = accessDirect(replay, core, trace);
    EXPECT_EQ(replayed.levels, direct.levels);
    EXPECT_EQ(replayed.writebacks, direct.writebacks);
    EXPECT_EQ(replay_h.auditInclusion(), std::nullopt);
}

// ------------------------------------------------------- TraceProgram

TEST(TraceProgram, ReplaysInOrderThenStops)
{
    auto trace = std::make_shared<TraceFile>();
    trace->records = {TraceRecord{0x100, false}, TraceRecord{0x200, true},
                      TraceRecord{0x300, false}};
    exec::TraceProgram program(trace);
    program.setThreadId(5);
    for (const auto &expected : trace->records) {
        const exec::Op op = program.next(0);
        ASSERT_EQ(op.kind, exec::OpKind::Access);
        EXPECT_EQ(op.ref.vaddr, expected.addr());
        EXPECT_EQ(op.ref.is_write, expected.isWrite());
        EXPECT_EQ(op.ref.thread, 5u);
    }
    EXPECT_EQ(program.next(0).kind, exec::OpKind::Done);
    EXPECT_EQ(program.replayed(), 3u);
}

TEST(TraceProgram, LoopsWithStaggeredOffset)
{
    auto trace = std::make_shared<TraceFile>();
    trace->records = {TraceRecord{0xA, false}, TraceRecord{0xB, false},
                      TraceRecord{0xC, false}};
    exec::TraceProgram program(trace, /*start_offset=*/5, /*loop=*/true);
    // 5 % 3 = 2: starts at the third record, then wraps forever.
    const sim::Addr expected[] = {0xC, 0xA, 0xB, 0xC, 0xA, 0xB, 0xC};
    for (const sim::Addr addr : expected) {
        const exec::Op op = program.next(0);
        ASSERT_EQ(op.kind, exec::OpKind::Access);
        EXPECT_EQ(op.ref.vaddr, addr);
    }
}

TEST(TraceProgram, EmptyTraceIsDone)
{
    exec::TraceProgram no_trace(nullptr);
    EXPECT_EQ(no_trace.next(0).kind, exec::OpKind::Done);
    exec::TraceProgram empty(std::make_shared<TraceFile>(),
                             /*start_offset=*/3, /*loop=*/true);
    EXPECT_EQ(empty.next(0).kind, exec::OpKind::Done);
}

} // namespace
