#include "prof/slo.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "util/format.hpp"

namespace comet::prof {
namespace {

[[noreturn]] void bad(const std::string& predicate, const std::string& why) {
  throw std::invalid_argument("bad SLO predicate '" + predicate + "': " + why);
}

std::string strip(const std::string& s) {
  std::size_t begin = s.find_first_not_of(" \t");
  if (begin == std::string::npos) return "";
  std::size_t end = s.find_last_not_of(" \t");
  return s.substr(begin, end - begin + 1);
}

SloPredicate parse_predicate(const std::string& text) {
  // Two-character operators first so "<=" is not read as "<" + "=2500".
  struct OpToken {
    const char* token;
    SloPredicate::Op op;
  };
  static const OpToken kOps[] = {
      {"<=", SloPredicate::Op::kLe}, {">=", SloPredicate::Op::kGe},
      {"==", SloPredicate::Op::kEq}, {"<", SloPredicate::Op::kLt},
      {">", SloPredicate::Op::kGt},
  };

  for (const OpToken& candidate : kOps) {
    const std::size_t pos = text.find(candidate.token);
    if (pos == std::string::npos) continue;

    SloPredicate predicate;
    predicate.op = candidate.op;
    predicate.metric = strip(text.substr(0, pos));
    const std::string rhs =
        strip(text.substr(pos + std::string(candidate.token).size()));

    if (predicate.metric.empty()) bad(text, "missing metric name");
    if (rhs.empty()) bad(text, "missing threshold");

    const char* begin = rhs.c_str();
    char* end = nullptr;
    predicate.threshold = std::strtod(begin, &end);
    if (end != begin + rhs.size()) {
      bad(text, "invalid threshold '" + rhs + "'");
    }
    if (!std::isfinite(predicate.threshold)) {
      bad(text, "threshold must be finite");
    }
    return predicate;
  }
  bad(text, "expected metric OP threshold with OP in {<=, >=, <, >, ==}");
}

}  // namespace

bool SloPredicate::holds(double value) const {
  switch (op) {
    case Op::kLe:
      return value <= threshold;
    case Op::kGe:
      return value >= threshold;
    case Op::kLt:
      return value < threshold;
    case Op::kGt:
      return value > threshold;
    case Op::kEq:
      return value == threshold;
  }
  return false;
}

std::string SloPredicate::to_string() const {
  const char* token = "<=";
  switch (op) {
    case Op::kLe:
      token = "<=";
      break;
    case Op::kGe:
      token = ">=";
      break;
    case Op::kLt:
      token = "<";
      break;
    case Op::kGt:
      token = ">";
      break;
    case Op::kEq:
      token = "==";
      break;
  }
  // Integral thresholds print as plain integers ("2500", not "2.5e+03"),
  // the rest in the shortest form that parses back to exactly
  // `threshold`, so predicates survive the --dump-config round trip.
  if (threshold == std::floor(threshold) && std::fabs(threshold) < 1e15) {
    char buffer[32];
    std::snprintf(buffer, sizeof buffer, "%.0f", threshold);
    return metric + token + buffer;
  }
  return metric + token + util::shortest_double(threshold);
}

std::vector<SloPredicate> parse_slo(const std::string& text) {
  std::vector<SloPredicate> predicates;
  std::size_t begin = 0;
  while (begin <= text.size()) {
    std::size_t end = text.find(',', begin);
    if (end == std::string::npos) end = text.size();
    const std::string piece = strip(text.substr(begin, end - begin));
    if (!piece.empty()) {
      predicates.push_back(parse_predicate(piece));
    } else if (end < text.size() || begin > 0) {
      // "a<=1,,b>=2" or a trailing/leading comma: reject rather than
      // silently dropping a predicate the user thought was active.
      if (!strip(text).empty()) bad(text, "empty predicate in list");
    }
    begin = end + 1;
  }
  return predicates;
}

std::string slo_to_string(const std::vector<SloPredicate>& predicates) {
  std::string out;
  for (const SloPredicate& predicate : predicates) {
    if (!out.empty()) out += ",";
    out += predicate.to_string();
  }
  return out;
}

}  // namespace comet::prof
