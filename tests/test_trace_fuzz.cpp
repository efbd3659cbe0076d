// Differential fuzzer for the NVMain trace reader. Seeded mutants of
// valid traces go through memsim::TraceFileSource and through the old
// getline + istringstream reader (tests/trace_reader_reference.hpp).
// Both must yield the same Request sequence, or the same records
// followed by the same what() text. The one allowed difference is an
// arrival past 2^64 ps, where the old reader's cast was undefined and
// the library throws its arrival-overflow diagnostic.
//
// Stdlib only (no libFuzzer on a gcc toolchain); the sanitizer lane runs
// it under ASan+UBSan like every other gtest.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <sstream>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <vector>

#include "memsim/trace.hpp"
#include "trace_reader_reference.hpp"

namespace ms = comet::memsim;

namespace {

constexpr int kMutants = 6000;

/// Serves a string in chunks of random size, or (chunk 0) one char per
/// uflow with no get area at all, like an unbuffered streambuf.
class ChunkedBuf : public std::streambuf {
 public:
  ChunkedBuf(std::string data, std::size_t max_chunk, std::uint64_t seed)
      : data_(std::move(data)), max_chunk_(max_chunk), rng_(seed) {}

 protected:
  int_type underflow() override {
    if (max_chunk_ == 0) {
      return pos_ < data_.size() ? traits_type::to_int_type(data_[pos_])
                                 : traits_type::eof();
    }
    if (pos_ == data_.size()) return traits_type::eof();
    const std::size_t n =
        std::min(data_.size() - pos_, 1 + rng_() % max_chunk_);
    char* const at = data_.data() + pos_;
    setg(at, at, at + n);
    pos_ += n;
    return traits_type::to_int_type(*at);
  }

  int_type uflow() override {
    if (max_chunk_ != 0) return std::streambuf::uflow();
    return pos_ < data_.size() ? traits_type::to_int_type(data_[pos_++])
                               : traits_type::eof();
  }

 private:
  std::string data_;
  std::size_t max_chunk_;
  std::mt19937_64 rng_;
  std::size_t pos_ = 0;
};

struct Outcome {
  std::vector<ms::Request> records;
  std::string error;               ///< what() of the final throw, if any.
  std::uint64_t overflow_line = 0; ///< Reference only: ArrivalOverflow.
};

Outcome run_reference(const std::string& text, const ms::TraceConfig& config) {
  std::istringstream in(text);
  comet::test::ReferenceTraceReader reader(in, config, "fuzz");
  Outcome out;
  try {
    while (const auto req = reader.next()) out.records.push_back(*req);
  } catch (const std::runtime_error& e) {
    out.error = e.what();
  } catch (const comet::test::ArrivalOverflow& overflow) {
    out.overflow_line = overflow.line_no;
  }
  return out;
}

/// Drains the library reader through a mix of next() and next_batch()
/// of random sizes, so both entry points see every kind of line. A
/// batch that throws has still written the records before the bad line;
/// they are the slots whose sentinel id was overwritten.
Outcome run_library(const std::string& text, const ms::TraceConfig& config,
                    std::size_t max_chunk, std::mt19937_64& rng) {
  ChunkedBuf buf(text, max_chunk, rng());
  std::istream in(&buf);
  ms::TraceFileSource source(in, config, "fuzz");
  constexpr std::uint64_t kUnwritten = ~std::uint64_t{0};
  ms::Request block[13];
  for (auto& slot : block) slot.id = kUnwritten;
  Outcome out;
  try {
    for (;;) {
      if (rng() % 4 == 0) {
        const auto req = source.next();
        if (!req) break;
        out.records.push_back(*req);
        continue;
      }
      const std::size_t pulled = source.next_batch(block, 1 + rng() % 13);
      if (pulled == 0) break;
      out.records.insert(out.records.end(), block, block + pulled);
      for (auto& slot : block) slot.id = kUnwritten;
    }
  } catch (const std::runtime_error& e) {
    out.error = e.what();
    for (const auto& slot : block) {
      if (slot.id == kUnwritten) break;
      out.records.push_back(slot);
    }
  }
  return out;
}

bool same_request(const ms::Request& a, const ms::Request& b) {
  return a.id == b.id && a.arrival_ps == b.arrival_ps && a.op == b.op &&
         a.address == b.address && a.size_bytes == b.size_bytes &&
         a.tenant == b.tenant;
}

std::string digits(std::mt19937_64& rng, std::size_t n, const char* set) {
  const std::size_t base = std::char_traits<char>::length(set);
  std::string s;
  for (std::size_t i = 0; i < n; ++i) s += set[rng() % base];
  return s;
}

const char* const kDec = "0123456789";
const char* const kHex = "0123456789abcdefABCDEF";

std::string blanks(std::mt19937_64& rng) {
  return digits(rng, 1 + rng() % 3, rng() % 4 == 0 ? " \t" : " ");
}

/// A valid trace: non-decreasing cycles, every op spelling, addresses
/// of 1-16 hex digits with and without a prefix, the odd comment, blank
/// line, trailing field and CRLF ending.
std::vector<std::string> valid_trace(std::mt19937_64& rng,
                                     std::size_t lines) {
  std::vector<std::string> out;
  std::uint64_t cycle = rng() % 1'000'000;
  const bool crlf = rng() % 8 == 0;
  for (std::size_t i = 0; i < lines; ++i) {
    if (rng() % 16 == 0) out.emplace_back(rng() % 2 ? "# comment" : "");
    cycle += rng() % 4 == 0 ? 0 : rng() % 1000;
    static const char* const kOps[] = {"R", "W", "r", "w"};
    static const char* const kPrefixes[] = {"0x", "0X", ""};
    std::string line = std::to_string(cycle) + blanks(rng) + kOps[rng() % 4] +
                       blanks(rng) + kPrefixes[rng() % 3] +
                       digits(rng, 1 + rng() % 16, kHex);
    if (rng() % 8 == 0) line += " 0xdeadbeef 3";
    if (crlf) line += '\r';
    out.push_back(std::move(line));
  }
  return out;
}

/// The 19-, 20- and 21-digit cycles, including both sides of 2^64.
std::string long_cycle(std::mt19937_64& rng) {
  static const char* const kEdges[] = {
      "18446744073709551615", "18446744073709551616", "99999999999999999999",
      "9999999999999999999", "0000000000000000000001"};
  if (rng() % 3 == 0) return kEdges[rng() % 5];
  return std::string(1, "123456789"[rng() % 9]) +
         digits(rng, 18 + rng() % 3, kDec);
}

/// An address token from the edges of the fast path and of stoull.
std::string odd_address(std::mt19937_64& rng) {
  static const char* const kOdd[] = {"0x", "0X", "-1", "+ff", "0x-1", "0xg",
                                     "x10", "00x1", "0x0x1", " ", "-0x10"};
  switch (rng() % 3) {
    case 0:
      return kOdd[rng() % 11];
    case 1:
      return "0x" + digits(rng, 16 + rng() % 2, kHex);
    default:
      return digits(rng, 16 + rng() % 2, kHex);
  }
}

/// Replaces the whitespace-separated field `index` of `line`, if any.
void replace_field(std::string& line, int index, const std::string& with) {
  std::size_t pos = 0;
  for (int field = 0;; ++field) {
    pos = line.find_first_not_of(" \t", pos);
    if (pos == std::string::npos) return;
    const std::size_t stop = std::min(line.find_first_of(" \t\r", pos),
                                      line.size());
    if (field == index) {
      line.replace(pos, stop - pos, with);
      return;
    }
    pos = stop;
  }
}

std::string mutant(std::mt19937_64& rng) {
  // One in 50 is several thousand lines, longer than the reader's block
  // (kBlockBytes), so canonical records straddle refills.
  std::vector<std::string> lines = valid_trace(
      rng, rng() % 50 == 0 ? 4000 + rng() % 6000 : 1 + rng() % 30);
  const int edits = static_cast<int>(rng() % 5);
  for (int e = 0; e < edits; ++e) {
    std::string& line = lines[rng() % lines.size()];
    switch (rng() % 9) {
      case 0:
        replace_field(line, 0, long_cycle(rng));
        break;
      case 1:
        replace_field(line, 2, odd_address(rng));
        break;
      case 2: {
        static const char* const kTails[] = {" 0xdeadbeef 3", "\t# note",
                                             "\r", " extra", "\v", "\r\r"};
        line += kTails[rng() % 6];
        break;
      }
      case 3:
        lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(
                                         rng() % (lines.size() + 1)),
                     rng() % 2 ? "#" + digits(rng, rng() % 9, kHex) : "");
        break;
      case 4:
        std::swap(line, lines[rng() % lines.size()]);
        break;
      case 5:
        if (rng() % 20 == 0) {  // Longer than the reader's block.
          const std::size_t n = ms::TraceFileSource::kBlockBytes + rng() % 9000;
          line += rng() % 2 ? " " + std::string(n, 'f')
                            : "\n#" + std::string(n, 'c');
        }
        break;
      default: {  // A character edit anywhere in the line.
        // The last candidate is a NUL; sizeof - 1 drops only the
        // literal's own terminator.
        static const char kChars[] = "0123456789 \t\r\v\f+-#xXRWrwabcdefg\n\0";
        const std::size_t at = rng() % (line.size() + 1);
        const char c = kChars[rng() % (sizeof kChars - 1)];
        switch (rng() % 3) {
          case 0:
            line.insert(line.begin() + static_cast<std::ptrdiff_t>(at), c);
            break;
          case 1:
            if (at < line.size()) line.erase(at, 1);
            break;
          default:
            if (at < line.size()) line[at] = c;
        }
      }
    }
  }
  std::string text;
  for (const auto& line : lines) text += line + '\n';
  if (rng() % 4 == 0) text.pop_back();  // No final newline.
  return text;
}

std::string printable(const std::string& text) {
  if (text.size() > 400) return "<" + std::to_string(text.size()) + " bytes>";
  std::string out;
  for (const char c : text) {
    if (c == '\n') out += "\\n\n";
    else if (c == '\r') out += "\\r";
    else if (c == '\t') out += "\\t";
    else if (c == '\v') out += "\\v";
    else if (c == '\0') out += "\\0";
    else out += c;
  }
  return out;
}

}  // namespace

TEST(TraceReaderFuzz, MatchesTheGetlineReaderOnSeededMutants) {
  static const double kClocks[] = {2.0, 3.2, 1000.0, 1e6};
  std::mt19937_64 rng(20261017);
  int accepted = 0;
  int rejected = 0;
  int overflows = 0;
  int past_block = 0;
  for (int i = 0; i < kMutants; ++i) {
    const std::string text = mutant(rng);
    past_block += text.size() > ms::TraceFileSource::kBlockBytes;
    const ms::TraceConfig config{.cpu_clock_ghz = kClocks[rng() % 4],
                                 .line_bytes = 64};
    static const std::size_t kChunks[] = {0, 1, 7, 4096, 1 << 20};
    const std::size_t chunk = kChunks[rng() % 5];
    const Outcome want = run_reference(text, config);
    const Outcome got = run_library(text, config, chunk, rng);

    ASSERT_EQ(got.records.size(), want.records.size())
        << "mutant " << i << ":\n" << printable(text) << "\ngot error: "
        << got.error << "\nwant error: " << want.error;
    for (std::size_t r = 0; r < got.records.size(); ++r) {
      ASSERT_TRUE(same_request(got.records[r], want.records[r]))
          << "mutant " << i << " record " << r << ":\n" << printable(text);
    }
    if (want.overflow_line != 0) {
      ++overflows;
      const std::string prefix = "fuzz: arrival overflow at line " +
                                 std::to_string(want.overflow_line) + ": '";
      ASSERT_EQ(got.error.rfind(prefix, 0), 0u)
          << "mutant " << i << ":\n" << printable(text) << "\ngot: "
          << got.error;
    } else {
      ASSERT_EQ(got.error, want.error) << "mutant " << i << ":\n"
                                       << printable(text);
      (want.error.empty() ? accepted : rejected) += 1;
    }
  }
  // The mutants must reach every outcome, or the comparison proves
  // little.
  EXPECT_GT(accepted, kMutants / 10);
  EXPECT_GT(rejected, kMutants / 10);
  EXPECT_GT(overflows, kMutants / 100);
  EXPECT_GT(past_block, kMutants / 100);
}

// The reader parses a canonical record in place when the block holds
// its '\n', and reads any other line, or one cut by the block's end,
// through its line splitter. Each edge line here starts at every offset
// around the end of the first block, so that both paths see it whole
// and cut at every character, with and without a line after it.
TEST(TraceReaderFuzz, EdgeLinesMatchAcrossTheBlockEnd) {
  static const char* const kEdges[] = {
      "7 R 0x1f",                     // Canonical.
      "7\tr\t0X1F",                   // Tabs, a lower-case op, 0X.
      "7 w ffffffffffffffff",         // 16 hex digits.
      "7 W 0x1ffffffffffffffff",      // 17: too many for the fast path.
      "7 W 1ffffffffffffffff",        // 17 without a prefix.
      "9999999999999999999 R 0x40",   // 19 decimal digits.
      "18446744073709551615 R 0x40",  // 20 digits: 2^64 - 1.
      "18446744073709551616 R 0x40",  // 2^64.
      "7 R 0x40\r",                   // CRLF.
      "7 R 0x40 0xdeadbeef 3",        // Trailing fields.
      "7 R 0x40\t# note\r",           // A trailing field and CRLF.
      "7  \t R \t 0x40 \t",           // Runs of mixed blanks.
      "7 R 0x",                       // A prefix without digits.
      "7 R 0xg",                      // A bad digit.
      "7 R 0x40\v",                   // Not canonical, yet a record.
      "7 R",                          // No address.
      "# 7 R 0x40",                   // A comment.
      "",                             // A blank line.
  };
  const ms::TraceConfig config{.cpu_clock_ghz = 1e6, .line_bytes = 64};
  const std::string lead = "5 R 0x40\n";  // Canonical lines before the edge.
  std::mt19937_64 rng(20261020);
  int runs = 0;
  for (const std::string edge : kEdges) {
    for (std::size_t cut = 0; cut <= edge.size() + 1; ++cut) {
      // After the edge line: one more record, its '\n' alone, or nothing.
      for (const char* const after : {"\n9 W 0x80\n", "\n", ""}) {
        // A comment pads the block so that the edge line starts `cut`
        // bytes before its end.
        const std::size_t pad =
            ms::TraceFileSource::kBlockBytes - cut - 8 * lead.size() - 2;
        std::string text(pad + 2, 'c');
        text.front() = '#';
        text.back() = '\n';
        for (int i = 0; i < 8; ++i) text += lead;
        text += edge + after;
        const Outcome want = run_reference(text, config);
        const Outcome got = run_library(text, config, 1 << 20, rng);
        ++runs;
        const std::string where =
            "edge '" + printable(edge) + "' cut " + std::to_string(cut);
        ASSERT_EQ(got.error, want.error) << where;
        ASSERT_EQ(want.overflow_line, 0u) << where;
        ASSERT_EQ(got.records.size(), want.records.size()) << where;
        for (std::size_t r = 0; r < got.records.size(); ++r) {
          ASSERT_TRUE(same_request(got.records[r], want.records[r]))
              << where << " record " << r;
        }
      }
    }
  }
  EXPECT_GT(runs, 400);
}
