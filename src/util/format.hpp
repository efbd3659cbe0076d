#pragma once

#include <string>
#include <string_view>

/// Text forms shared by every report writer: the shortest round-trip
/// decimal of a double and the JSON string literal.
namespace comet::util {

/// The shortest "%.Ng" form (N = 1..17) that parses back to exactly
/// `v`, e.g. "0.1", "2.5e+03", "6596.5683996641455".
std::string shortest_double(double v);

/// `s` as a quoted JSON string: `"` and `\` are backslash-escaped,
/// \b \f \n \r \t use their short escapes and every other byte below
/// 0x20 is written as \u00XX. Bytes from 0x20 up pass through, so UTF-8
/// text stays as it is.
std::string json_string(std::string_view s);

}  // namespace comet::util
