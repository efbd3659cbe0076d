#pragma once

#include <fstream>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "memsim/request.hpp"
#include "memsim/source.hpp"

/// NVMain-style text traces.
///
/// The paper evaluates with "memory traces from the SPEC benchmark suite"
/// replayed through a modified NVMain 2.0. We support NVMain's simple
/// text format, one access per line (trailing fields — data payload,
/// thread id — are ignored, '#' starts a comment):
///
///     <cycle> <R|W> <hex address>
///
/// Cycles are converted to picoseconds with a configurable CPU clock
/// (NVMain traces are recorded in CPU cycles).
///
/// Reading: TraceFileSource pulls the stream in fixed blocks of
/// kBlockBytes, allocated on the first pull, and keeps a '\n' just past
/// the data of each block. A canonical record line (below) whose '\n'
/// is in the block is parsed in place, and ends at that '\n', which the
/// parse reaches without a search unless trailing fields follow. Every
/// other line (a comment, a blank line, a non-canonical record, or a
/// line the block does not hold whole) is split with memchr, carrying a
/// partial line across a refill. A line longer than the block grows the
/// carry, so memory is bounded by the block or the longest line, never
/// by the trace length. The std::istream& constructor therefore reads
/// ahead of the records it has returned, by up to a block. Lines are
/// counted exactly as std::getline counts them; a last line without
/// '\n' is still a line.
///
/// Parsing: the canonical form (decimal cycle of at most 19 digits,
/// one-letter op, hex address of at most 16 digits with an optional 0x)
/// is parsed in place without allocation, one table load per digit.
/// Every other line goes to the stream-extraction parser the reader has
/// always used. On each line the fast path accepts, that parser returns
/// the same record (the argument is in trace.cpp), so which path reads a
/// line changes speed only, never a record or a diagnostic.
///
/// Diagnostics: every parse error is a std::runtime_error naming the
/// 1-based line number and the offending line text; records whose cycle
/// count goes backwards, or whose arrival time overflows 64-bit
/// picoseconds at the configured clock, are rejected in the same style
/// (mirroring require_sorted_by_arrival), so a broken trace fails loudly
/// at its first bad line rather than deep inside a replay. A stream that
/// fails mid-read (a disk fault, a directory opened as a trace) throws
/// "read error after line N" once the complete lines before the fault
/// are consumed; it never replays as a silently truncated trace.
namespace comet::memsim {

struct TraceConfig {
  double cpu_clock_ghz = 2.0;     ///< Trace cycle -> time conversion.
  std::uint32_t line_bytes = 64;  ///< Request size attached to records.
};

/// Parses a trace stream into a materialized vector. Throws
/// std::runtime_error (see the diagnostics note above) on malformed
/// lines or non-monotonic cycle counts.
std::vector<Request> read_trace(std::istream& in, const TraceConfig& config);

/// Streaming trace reader: parses records a block at a time — O(1)
/// memory however long the file — and enforces the sorted-by-arrival
/// contract incrementally as records are pulled, with the same
/// line-numbered diagnostics as read_trace. read_trace is implemented on
/// top of this class, so both paths accept exactly the same inputs.
class TraceFileSource final : public RequestSource {
 public:
  /// Bytes requested from the stream per refill (see the note above).
  static constexpr std::size_t kBlockBytes = 64 * 1024;

  /// Opens `path`; throws std::runtime_error naming the path when the
  /// file cannot be opened.
  TraceFileSource(const std::string& path, const TraceConfig& config);

  /// Streams from a caller-owned stream (which must outlive the source);
  /// `name` labels diagnostics.
  TraceFileSource(std::istream& in, const TraceConfig& config,
                  std::string name = "trace");

  // in_ may point at owned_; default copy/move would leave it dangling
  // at the old object.
  TraceFileSource(const TraceFileSource&) = delete;
  TraceFileSource& operator=(const TraceFileSource&) = delete;

  /// Parses up to `max` records straight into `out`. Throws on a bad
  /// line or a read fault, naming the line.
  std::size_t next_batch(Request* out, std::size_t max) override;

  /// 1-based number of the last line consumed (0 before the first).
  std::uint64_t line_number() const { return line_no_; }

 private:
  /// Parses the next record into `out`; false once the stream is
  /// exhausted. Throws on a bad line or a read fault.
  bool pull(Request& out);
  /// Sets [begin, end) to the next line without its '\n'; false at the
  /// end of the stream.
  bool next_line(const char*& begin, const char*& end);
  /// Moves the carried partial line to the front of the block (growing
  /// it when the carry fills it) and appends what the stream yields.
  void refill();

  std::ifstream owned_;
  std::istream* in_;
  TraceConfig config_;
  double ps_per_cycle_;
  std::string name_;
  std::uint64_t line_no_ = 0;
  std::uint64_t emitted_ = 0;
  std::uint64_t prev_cycle_ = 0;
  std::unique_ptr<char[]> block_;  ///< Allocated on the first pull.
  std::size_t capacity_ = 0;       ///< Data bytes block_ can hold; one
                                   ///< more holds the '\n' after them.
  std::size_t begin_ = 0;          ///< Unconsumed bytes are
  std::size_t end_ = 0;            ///< block_[begin_, end_).
  std::size_t scanned_ = 0;        ///< block_[begin_, scanned_) has no '\n'.
  bool drained_ = false;           ///< The stream yields no more bytes.
};

/// Serializes a request stream to the text format (cycles re-derived
/// from arrival times with the same clock), draining the source.
void write_trace(std::ostream& out, RequestSource& source,
                 const TraceConfig& config);

/// Materialized-vector convenience overload.
void write_trace(std::ostream& out, const std::vector<Request>& requests,
                 const TraceConfig& config);

}  // namespace comet::memsim
