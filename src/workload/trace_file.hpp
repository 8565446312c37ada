/**
 * @file
 * Memory-access trace files: load, store, generate.
 *
 * A trace is the fleet-mode answer to "what does the victim's traffic
 * look like?": instead of wiring a synthetic generator into every
 * scenario, a workload is captured ONCE into a file and replayed
 * against either hierarchy — noise cores beside a covert Session, the
 * bench harness, or a bare hierarchy in a test.  Two formats share
 * one in-memory representation:
 *
 *   text    one access per line, `R <addr>` / `W <addr>`, fields split
 *           by any whitespace (space, tab, \v, \f, \r).  One
 *           trailing `\r` is dropped (CRLF files load).  A line of
 *           only spaces and tabs, or whose first other character is
 *           `#`, is ignored; there are no comments after a record.
 *           An address is `0x`/`0X` hex, octal when it starts with `0`
 *           (`010` is 8), or decimal; it takes no sign and is at most
 *           kTraceAddrMax.  Trivially hand-editable and diffable;
 *
 *   binary  "LRUT" magic, a version byte, a record count, then one
 *           little-endian u64 per access with the write flag in bit 63
 *           (simulator addresses stay far below it) — 8 bytes per
 *           access for traces with millions of records.
 *
 * In memory a record IS the LRUT record: one u64, the address in bits
 * 0-62 and the write flag in bit 63, so a loaded trace costs 8 bytes
 * per access whichever format it came from.  A load sizes the record
 * array once, before parsing: the binary loader from the header count
 * (capped by what the body holds), the text loader from a line count
 * taken in a first pass over a seekable stream (an unseekable one
 * grows the array as it parses).  The array lives in its own anonymous
 * mapping that ends against a PROT_NONE guard page (GuardedAllocator):
 * a read one record past its capacity faults, and freeing the trace
 * returns every page to the system at once.
 *
 * Loading sniffs the magic, so callers never pass a format flag.  Both
 * loaders reject malformed input with error messages naming the
 * offending line/offset; round-tripping either format preserves the
 * record sequence exactly.  Reads and writes go through one buffer of
 * kTraceIoChunk bytes, never the whole file.
 */

#ifndef LRULEAK_WORKLOAD_TRACE_FILE_HPP
#define LRULEAK_WORKLOAD_TRACE_FILE_HPP

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <new>
#include <string>
#include <vector>

#include "sim/address.hpp"

namespace lruleak::workload {

/** Highest address a trace record can carry (bit 63 is the write
 *  flag). */
inline constexpr sim::Addr kTraceAddrMax = ~(sim::Addr{1} << 63);

/** One replayable access, an address and a load/store direction,
 *  packed like an LRUT record: the write flag in bit 63. */
class TraceRecord
{
  public:
    constexpr TraceRecord() = default;

    /** Throws std::out_of_range when @p addr is above kTraceAddrMax: a
     *  record never truncates an address. */
    constexpr TraceRecord(sim::Addr addr, bool is_write)
        // A shift, not a select: GCC turns `is_write ? bit : 0` into a
        // branch, which a random store mix mispredicts.
        : bits_(addr | std::uint64_t{is_write} << 63)
    {
        if (addr > kTraceAddrMax)
            throwAddrOutOfRange(addr);
    }

    /** The record an LRUT body stores as @p bits (every u64 is one). */
    static constexpr TraceRecord
    fromBits(std::uint64_t bits)
    {
        TraceRecord r;
        r.bits_ = bits;
        return r;
    }

    constexpr sim::Addr addr() const { return bits_ & kTraceAddrMax; }
    constexpr bool isWrite() const { return (bits_ >> 63) != 0; }
    /** The packed form, as the binary format stores it. */
    constexpr std::uint64_t bits() const { return bits_; }

    /** As a MemRef issued by @p thread (same VA/PA, like the synthetic
     *  generators). */
    constexpr sim::MemRef
    ref(sim::ThreadId thread = 0) const
    {
        return sim::MemRef{addr(), addr(), thread, isWrite()};
    }

    friend constexpr bool
    operator==(const TraceRecord &a, const TraceRecord &b)
    {
        return a.bits_ == b.bits_;
    }

  private:
    [[noreturn]] static void throwAddrOutOfRange(sim::Addr addr);

    std::uint64_t bits_ = 0;
};

static_assert(sizeof(TraceRecord) == 8);

namespace detail {

/** Map @p bytes of zeroed memory that ends exactly where a PROT_NONE
 *  guard page begins.  Throws std::bad_alloc when the map fails. */
void *mapGuarded(std::size_t bytes);

/** Unmap what mapGuarded(@p bytes) returned as @p p, guard page
 *  included. */
void unmapGuarded(void *p, std::size_t bytes) noexcept;

} // namespace detail

/**
 * Gives every array its own anonymous mapping, ended by a guard page:
 * an access one element past the capacity faults, and the memory goes
 * back to the system when the array is freed, whatever the heap's
 * state (a freed multi-megabyte malloc block can stay resident).
 */
template <class T>
struct GuardedAllocator
{
    using value_type = T;

    GuardedAllocator() = default;
    template <class U>
    constexpr GuardedAllocator(const GuardedAllocator<U> &) noexcept
    {
    }

    T *
    allocate(std::size_t n)
    {
        if (n > PTRDIFF_MAX / sizeof(T))
            throw std::bad_array_new_length();
        return static_cast<T *>(detail::mapGuarded(n * sizeof(T)));
    }

    void
    deallocate(T *p, std::size_t n) noexcept
    {
        detail::unmapGuarded(p, n * sizeof(T));
    }

    friend constexpr bool
    operator==(const GuardedAllocator &, const GuardedAllocator &)
    {
        return true;
    }
};

/** A trace's record array. */
using TraceRecords = std::vector<TraceRecord, GuardedAllocator<TraceRecord>>;

/** An ordered access sequence plus where it came from.  The records
 *  are released as soon as the TraceFile is destroyed: hold it in a
 *  shared_ptr and the last holder frees them. */
struct TraceFile
{
    TraceRecords records;
    std::string source; //!< path or generator label, for messages

    bool empty() const { return records.empty(); }
    std::size_t size() const { return records.size(); }

    friend bool operator==(const TraceFile &, const TraceFile &) = default;
};

/** Bytes a trace read or write moves per block. */
inline constexpr std::size_t kTraceIoChunk = 64 * 1024;

/** Parse the text format from a stream.  @p source names the input in
 *  error messages.  A seekable stream is read twice: once to count its
 *  lines, which sizes the record array, then to parse.  Throws
 *  std::runtime_error on malformed lines. */
TraceFile parseTextTrace(std::istream &in, const std::string &source);

/** Parse the binary format ("LRUT") from a stream.  Throws
 *  std::runtime_error on bad magic/version, truncation or trailing
 *  bytes; the header's record count never sizes an allocation beyond
 *  what the stream holds. */
TraceFile parseBinaryTrace(std::istream &in, const std::string &source);

/**
 * Load a trace from @p path, sniffing the format from the first bytes
 * (binary magic wins, anything else is text).  Throws
 * std::runtime_error on an unreadable file or malformed content.
 */
TraceFile loadTrace(const std::string &path);

/** Write the text format.  Throws std::runtime_error on I/O failure. */
void saveTextTrace(const TraceFile &trace, const std::string &path);

/** Write the binary format.  Throws std::runtime_error on I/O failure. */
void saveBinaryTrace(const TraceFile &trace, const std::string &path);

/**
 * Materialize @p count accesses of a synthetic workload (trace_gen
 * suite name) into a trace.  The generators produce load addresses;
 * each access is independently promoted to a store with probability
 * @p write_fraction, so one trace exercises the write path too.
 * Deterministic in (workload, count, seed, write_fraction).  Throws
 * std::invalid_argument on an unknown workload name or a
 * write_fraction outside [0, 1].
 */
TraceFile generateTrace(const std::string &workload, std::size_t count,
                        std::uint64_t seed, double write_fraction);

} // namespace lruleak::workload

#endif // LRULEAK_WORKLOAD_TRACE_FILE_HPP
