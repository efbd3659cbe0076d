#include "util/format.hpp"

#include <cstdio>
#include <cstdlib>

namespace comet::util {

std::string shortest_double(double v) {
  char buf[40];
  for (int precision = 1; precision < 17; ++precision) {
    std::snprintf(buf, sizeof buf, "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) return buf;
  }
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(std::string_view s) {
  std::string out = "\"";
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char escape[8];
          std::snprintf(escape, sizeof escape, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += escape;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

}  // namespace comet::util
