#include "memsim/trace.hpp"

#include <array>
#include <cstring>
#include <istream>
#include <memory>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string_view>

namespace comet::memsim {

namespace {

struct TraceRecord {
  std::uint64_t cycle = 0;
  Op op = Op::kRead;
  std::uint64_t address = 0;
};

[[noreturn]] void parse_error(const std::string& context,
                              std::uint64_t line_no, std::string_view line,
                              const std::string& reason) {
  std::ostringstream msg;
  msg << context << ": malformed line " << line_no << ": '" << line << "' ("
      << reason << ")";
  throw std::runtime_error(msg.str());
}

/// Parses one record line (never a comment/blank — callers skip those).
/// Trailing fields beyond the address (NVMain data payload, thread id)
/// are ignored. Kept out of line, so that the stream's state stays out
/// of the frame of TraceFileSource::pull.
[[gnu::noinline]] TraceRecord parse_record(const std::string& context,
                                           std::uint64_t line_no,
                                           std::string_view line) {
  std::istringstream ls{std::string(line)};
  TraceRecord rec;
  std::string op;
  std::string addr;
  if (!(ls >> rec.cycle >> op >> addr)) {
    parse_error(context, line_no, line,
                "expected '<cycle> <R|W> <hex address>'");
  }
  if (op == "R" || op == "r") {
    rec.op = Op::kRead;
  } else if (op == "W" || op == "w") {
    rec.op = Op::kWrite;
  } else {
    parse_error(context, line_no, line, "bad op '" + op + "'");
  }
  try {
    std::size_t consumed = 0;
    rec.address = std::stoull(addr, &consumed, 16);
    if (consumed != addr.size()) throw std::invalid_argument(addr);
  } catch (const std::exception&) {
    parse_error(context, line_no, line, "bad hex address '" + addr + "'");
  }
  return rec;
}

/// The cycle-count analogue of check_arrival_order, with the trace
/// line's position and text in place of the request index. Called only
/// once the order has failed, so a good line never builds its text.
[[noreturn]] void cycle_order_error(const std::string& context,
                                    std::uint64_t line_no,
                                    std::string_view line,
                                    std::uint64_t prev_cycle,
                                    std::uint64_t cycle) {
  std::ostringstream msg;
  msg << context << ": non-monotonic cycle at line " << line_no << ": '"
      << line << "' arrives at cycle " << cycle
      << ", before the previous record's " << prev_cycle;
  throw std::runtime_error(msg.str());
}

/// 2^64: the first picosecond count an arrival_ps cannot hold.
constexpr double kArrivalLimitPs = 18446744073709551616.0;

[[noreturn]] void arrival_overflow_error(const std::string& context,
                                         std::uint64_t line_no,
                                         std::string_view line,
                                         std::uint64_t cycle,
                                         double cpu_clock_ghz) {
  std::ostringstream msg;
  msg << context << ": arrival overflow at line " << line_no << ": '" << line
      << "' arrives at cycle " << cycle << ", which at " << cpu_clock_ghz
      << " GHz is past 2^64 ps";
  throw std::runtime_error(msg.str());
}

bool is_blank(char c) { return c == ' ' || c == '\t'; }

/// kDigit[c] is the value of the hex digit c (0-9 for the decimal ones),
/// else kNotADigit: one load replaces the range tests of each character.
constexpr std::uint8_t kNotADigit = 0xff;
constexpr std::array<std::uint8_t, 256> kDigit = [] {
  std::array<std::uint8_t, 256> table{};
  table.fill(kNotADigit);
  for (int i = 0; i < 10; ++i) table['0' + i] = static_cast<std::uint8_t>(i);
  for (int i = 0; i < 6; ++i) {
    table['a' + i] = table['A' + i] = static_cast<std::uint8_t>(10 + i);
  }
  return table;
}();

std::uint8_t digit_of(char c) {
  return kDigit[static_cast<unsigned char>(c)];
}

/// The fast path: parses the fields of a record line of the canonical
/// form
///
///     <1-19 decimal digits> [ \t]+ <R|r|W|w> [ \t]+ [0x|0X]<1-16 hex digits>
///
/// from `p`, which a '\n' must follow in readable memory: the line's
/// own, or the one TraceFileSource keeps just past its block's data.
/// Every loop stops at that '\n' (a '\n' also fails the 0x test), so
/// no field reads into the next line and the answer is the one for the
/// line alone. Returns the position just past the hex digits, having
/// filled `rec`, or nullptr. The line is canonical only if the end of
/// the line, a space, a tab or '\r' follows (anything after that is
/// ignored: canonical_line_end); every other line goes to parse_record.
///
/// Why the two paths agree. The fast path only answers lines it
/// accepts, so it suffices that parse_record returns the same record
/// for each of them (it then cannot throw either):
///   - `ls >> rec.cycle` has no whitespace to skip (the line starts with
///     a digit) and reads the digit run up to the space or tab after it.
///     At most 19 digits are below 10^19 < 2^64, so it cannot overflow
///     and its value is the one accumulated here. No sign is accepted
///     here, so stream extraction's sign handling never arises, and the
///     program never leaves the classic "C" locale, so no grouping.
///   - `>> op` skips the spaces and tabs and reads to the next
///     whitespace. A space or tab must follow the letter, so the token
///     is that one letter, which parse_record maps to the same Op.
///   - `>> addr` skips the spaces and tabs and reads to the next
///     whitespace or the end of the line. Space, tab and '\r' are
///     whitespace, so the token is exactly the optional prefix and the
///     hex digits. `stoull(addr, &consumed, 16)` takes a 0x or 0X that is
///     followed by a hex digit as the base prefix, consumes every digit
///     (consumed == addr.size()) and cannot overflow (16 hex digits fit
///     in 64 bits), so its value is the one accumulated here.
///   - Both ignore whatever follows the address.
const char* parse_canonical(const char* p, TraceRecord& rec) {
  const char* const cycle_begin = p;
  std::uint64_t cycle = 0;
  for (std::uint8_t digit; (digit = digit_of(*p)) < 10; ++p) {
    cycle = cycle * 10 + digit;
  }
  if (p == cycle_begin || p - cycle_begin > 19 || !is_blank(*p)) {
    return nullptr;
  }
  while (is_blank(*p)) ++p;
  Op op;
  if (*p == 'R' || *p == 'r') {
    op = Op::kRead;
  } else if (*p == 'W' || *p == 'w') {
    op = Op::kWrite;
  } else {
    return nullptr;
  }
  ++p;
  if (!is_blank(*p)) return nullptr;
  while (is_blank(*p)) ++p;
  if (p[0] == '0' && (p[1] == 'x' || p[1] == 'X')) p += 2;
  const char* const hex_begin = p;
  std::uint64_t address = 0;
  for (std::uint8_t digit; (digit = digit_of(*p)) < 16; ++p) {
    address = address << 4 | digit;
  }
  if (p == hex_begin || p - hex_begin > 16) return nullptr;
  rec.cycle = cycle;
  rec.op = op;
  rec.address = address;
  return p;
}

/// The '\n' that ends a line whose fields parse_canonical read up to
/// `tail`, or nullptr when the line is not canonical. The search stops
/// at the '\n' at `stop`, so `stop` itself means the line's '\n' was
/// not found before it.
const char* canonical_line_end(const char* tail, const char* stop) {
  if (*tail == '\n') return tail;
  if (!is_blank(*tail) && *tail != '\r') return nullptr;
  return static_cast<const char*>(std::memchr(tail, '\n', stop - tail + 1));
}

void validate_config(const TraceConfig& config) {
  if (!(config.cpu_clock_ghz > 0.0)) {  // NaN too
    throw std::invalid_argument("read_trace: bad cpu clock");
  }
  if (config.line_bytes == 0) {
    throw std::invalid_argument("read_trace: bad line size");
  }
}

}  // namespace

TraceFileSource::TraceFileSource(const std::string& path,
                                 const TraceConfig& config)
    : owned_(path),
      in_(&owned_),
      config_(config),
      ps_per_cycle_(1e3 / config.cpu_clock_ghz),
      name_(path) {
  validate_config(config_);
  if (!owned_) {
    throw std::runtime_error("cannot open trace file '" + path + "'");
  }
}

TraceFileSource::TraceFileSource(std::istream& in, const TraceConfig& config,
                                 std::string name)
    : in_(&in),
      config_(config),
      ps_per_cycle_(1e3 / config.cpu_clock_ghz),
      name_(std::move(name)) {
  validate_config(config_);
}

void TraceFileSource::refill() {
  if (!block_) {
    block_ = std::make_unique<char[]>(kBlockBytes + 1);
    capacity_ = kBlockBytes;
  }
  const std::size_t carry = end_ - begin_;
  std::memmove(block_.get(), block_.get() + begin_, carry);
  scanned_ -= begin_;
  begin_ = 0;
  end_ = carry;
  if (end_ == capacity_) {  // One line fills the block: grow the carry.
    auto grown = std::make_unique<char[]>(2 * capacity_ + 1);
    std::memcpy(grown.get(), block_.get(), carry);
    block_ = std::move(grown);
    capacity_ *= 2;
  }
  // The '\n' after the data stops parse_canonical, so it moves with
  // end_. Should the stream throw mid-refill, the zero-filled allocation
  // still keeps the parse from reading an unset byte or past the block.
  block_[end_] = '\n';
  // readsome() copies only what the streambuf already holds and peek()
  // forces each underflow on its own, so a streambuf that throws from
  // underflow (istream turns that into badbit) loses none of the bytes
  // it served before. istream::read would: gcount() is 0 when the
  // sgetn inside it throws.
  while (end_ < capacity_) {
    if (in_->peek() == std::char_traits<char>::eof()) {
      drained_ = true;  // End of stream, or a fault: next_line tells.
      break;
    }
    std::streamsize got = in_->readsome(block_.get() + end_,
                                        static_cast<std::streamsize>(
                                            capacity_ - end_));
    if (got == 0) {  // An unbuffered streambuf: take one char at a time.
      const int c = in_->get();
      if (c == std::char_traits<char>::eof()) continue;  // peek decides.
      block_[end_] = static_cast<char>(c);
      got = 1;
    }
    end_ += static_cast<std::size_t>(got);
    block_[end_] = '\n';
  }
}

bool TraceFileSource::next_line(const char*& begin, const char*& end) {
  for (;;) {
    if (scanned_ < end_) {
      char* const base = block_.get();
      const void* const newline =
          std::memchr(base + scanned_, '\n', end_ - scanned_);
      if (newline != nullptr) {
        begin = base + begin_;
        end = static_cast<const char*>(newline);
        begin_ = scanned_ = static_cast<std::size_t>(end - base) + 1;
        ++line_no_;
        return true;
      }
      scanned_ = end_;
    }
    if (drained_) break;
    refill();
  }
  // Distinguish clean EOF from an I/O error (unreadable path, disk
  // fault mid-file): the latter must fail loudly, never replay as a
  // silently truncated trace. Like std::getline, a fault drops the
  // partial line it interrupted.
  if (in_->bad()) {
    throw std::runtime_error(name_ + ": read error after line " +
                             std::to_string(line_no_));
  }
  if (begin_ == end_) return false;
  begin = block_.get() + begin_;  // A last line without '\n'.
  end = block_.get() + end_;
  begin_ = scanned_ = end_;
  ++line_no_;
  return true;
}

bool TraceFileSource::pull(Request& out) {
  TraceRecord rec;
  const char* begin = nullptr;
  const char* end = nullptr;
  for (;;) {
    // The common line, a canonical record whose '\n' the block holds,
    // is parsed in place and ends at that '\n'.
    if (begin_ < end_) {
      char* const base = block_.get();
      const char* const stop = base + end_;
      begin = base + begin_;
      const char* const tail = parse_canonical(begin, rec);
      end = tail != nullptr ? canonical_line_end(tail, stop) : nullptr;
      if (end != nullptr && end != stop) {
        begin_ = scanned_ = static_cast<std::size_t>(end - base) + 1;
        ++line_no_;
        break;
      }
    }
    // Comments, blanks, other records and a line the block does not
    // hold whole. On a canonical line parse_record returns the fast
    // path's record, so which path reads a line never shows.
    if (!next_line(begin, end)) return false;
    if (begin == end || *begin == '#') continue;
    rec = parse_record(name_, line_no_, std::string_view(begin, end));
    break;
  }
  if (emitted_ > 0 && rec.cycle < prev_cycle_) {
    cycle_order_error(name_, line_no_, std::string_view(begin, end),
                      prev_cycle_, rec.cycle);
  }
  const double arrival_ps = static_cast<double>(rec.cycle) * ps_per_cycle_;
  if (!(arrival_ps < kArrivalLimitPs)) {
    arrival_overflow_error(name_, line_no_, std::string_view(begin, end),
                           rec.cycle, config_.cpu_clock_ghz);
  }
  prev_cycle_ = rec.cycle;
  out = Request{};
  out.id = emitted_++;
  out.arrival_ps = static_cast<std::uint64_t>(arrival_ps);
  out.op = rec.op;
  out.address = rec.address;
  out.size_bytes = config_.line_bytes;
  return true;
}

std::size_t TraceFileSource::next_batch(Request* out, std::size_t max) {
  std::size_t filled = 0;
  while (filled < max && pull(out[filled])) ++filled;
  return filled;
}

std::vector<Request> read_trace(std::istream& in, const TraceConfig& config) {
  TraceFileSource source(in, config, "read_trace");
  std::vector<Request> requests;
  std::vector<Request> block(kFeedBlockRequests);
  while (const std::size_t pulled =
             source.next_batch(block.data(), block.size())) {
    requests.insert(requests.end(), block.begin(),
                    block.begin() + static_cast<std::ptrdiff_t>(pulled));
  }
  return requests;
}

void write_trace(std::ostream& out, RequestSource& source,
                 const TraceConfig& config) {
  const double cycles_per_ps = config.cpu_clock_ghz / 1e3;
  std::vector<Request> block(kFeedBlockRequests);
  while (const std::size_t pulled =
             source.next_batch(block.data(), block.size())) {
    for (std::size_t i = 0; i < pulled; ++i) {
      const Request& req = block[i];
      const auto cycle = static_cast<std::uint64_t>(
          static_cast<double>(req.arrival_ps) * cycles_per_ps);
      out << cycle << ' ' << (req.op == Op::kRead ? 'R' : 'W') << " 0x"
          << std::hex << req.address << std::dec << '\n';
    }
  }
}

void write_trace(std::ostream& out, const std::vector<Request>& requests,
                 const TraceConfig& config) {
  VectorSource source(requests);
  write_trace(out, source, config);
}

}  // namespace comet::memsim
