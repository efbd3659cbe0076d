#pragma once

// The oracle for memsim::TraceFileSource: the NVMain trace reader as it
// was before the block reader and its fast path (std::getline, one
// std::istringstream per line, std::stoull), copied here so that the
// tests compare the library against an independent transcript of the
// old accept/reject behaviour rather than against itself.
//
// One deliberate change: the old reader converted cycles to picoseconds
// with a cast that is undefined once the product reaches 2^64. Here that
// record stops the read with ArrivalOverflow instead, which is where the
// library now throws its arrival-overflow diagnostic.

#include <cstdint>
#include <istream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>

#include "memsim/request.hpp"
#include "memsim/trace.hpp"

namespace comet::test {

/// Thrown where the old reader's picosecond cast would overflow.
struct ArrivalOverflow {
  std::uint64_t line_no = 0;
};

class ReferenceTraceReader {
 public:
  ReferenceTraceReader(std::istream& in, const memsim::TraceConfig& config,
                       std::string name = "trace")
      : in_(&in),
        config_(config),
        ps_per_cycle_(1e3 / config.cpu_clock_ghz),
        name_(std::move(name)) {}

  std::optional<memsim::Request> next() {
    std::string line;
    while (std::getline(*in_, line)) {
      ++line_no_;
      if (line.empty() || line[0] == '#') continue;
      const TraceRecord rec = parse_record(name_, line_no_, line);
      if (emitted_ > 0) {
        check_cycle_order(name_, line_no_, line, prev_cycle_, rec.cycle);
      }
      prev_cycle_ = rec.cycle;
      const double arrival = static_cast<double>(rec.cycle) * ps_per_cycle_;
      if (!(arrival < 18446744073709551616.0)) throw ArrivalOverflow{line_no_};
      memsim::Request req;
      req.id = emitted_++;
      req.arrival_ps = static_cast<std::uint64_t>(arrival);
      req.op = rec.op;
      req.address = rec.address;
      req.size_bytes = config_.line_bytes;
      return req;
    }
    if (in_->bad()) {
      throw std::runtime_error(name_ + ": read error after line " +
                               std::to_string(line_no_));
    }
    return std::nullopt;
  }

 private:
  struct TraceRecord {
    std::uint64_t cycle = 0;
    memsim::Op op = memsim::Op::kRead;
    std::uint64_t address = 0;
  };

  [[noreturn]] static void parse_error(const std::string& context,
                                       std::uint64_t line_no,
                                       const std::string& line,
                                       const std::string& reason) {
    std::ostringstream msg;
    msg << context << ": malformed line " << line_no << ": '" << line
        << "' (" << reason << ")";
    throw std::runtime_error(msg.str());
  }

  static TraceRecord parse_record(const std::string& context,
                                  std::uint64_t line_no,
                                  const std::string& line) {
    std::istringstream ls(line);
    TraceRecord rec;
    std::string op;
    std::string addr;
    if (!(ls >> rec.cycle >> op >> addr)) {
      parse_error(context, line_no, line,
                  "expected '<cycle> <R|W> <hex address>'");
    }
    if (op == "R" || op == "r") {
      rec.op = memsim::Op::kRead;
    } else if (op == "W" || op == "w") {
      rec.op = memsim::Op::kWrite;
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

  static void check_cycle_order(const std::string& context,
                                std::uint64_t line_no,
                                const std::string& line,
                                std::uint64_t prev_cycle,
                                std::uint64_t cycle) {
    if (cycle >= prev_cycle) return;
    std::ostringstream msg;
    msg << context << ": non-monotonic cycle at line " << line_no << ": '"
        << line << "' arrives at cycle " << cycle
        << ", before the previous record's " << prev_cycle;
    throw std::runtime_error(msg.str());
  }

  std::istream* in_;
  memsim::TraceConfig config_;
  double ps_per_cycle_;
  std::string name_;
  std::uint64_t line_no_ = 0;
  std::uint64_t emitted_ = 0;
  std::uint64_t prev_cycle_ = 0;
};

}  // namespace comet::test
