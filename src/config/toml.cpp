#include "config/toml.hpp"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "util/format.hpp"

namespace comet::config::toml {

namespace {

bool is_bare_key_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '-';
}

std::string trim(const std::string& s) {
  std::size_t begin = s.find_first_not_of(" \t");
  if (begin == std::string::npos) return "";
  std::size_t end = s.find_last_not_of(" \t");
  return s.substr(begin, end - begin + 1);
}

/// Drops a trailing `# comment`, respecting quoted strings.
std::string strip_comment(const std::string& line) {
  bool in_string = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (in_string) {
      if (c == '\\') {
        ++i;  // Skip the escaped character.
      } else if (c == '"') {
        in_string = false;
      }
    } else if (c == '"') {
      in_string = true;
    } else if (c == '#') {
      return line.substr(0, i);
    }
  }
  return line;
}

/// Stateful value scanner over one line's `= ...` tail.
class ValueParser {
 public:
  ValueParser(const std::string& text, const std::string& source,
              std::uint64_t line)
      : text_(text), source_(source), line_(line) {}

  Value parse() {
    Value value = parse_one();
    skip_spaces();
    if (pos_ != text_.size()) {
      fail("unexpected trailing text '" + text_.substr(pos_) + "' after value");
    }
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& message) const {
    throw ParseError(source_, line_, message);
  }

  void skip_spaces() {
    while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\t')) {
      ++pos_;
    }
  }

  Value parse_one() {
    skip_spaces();
    if (pos_ >= text_.size()) fail("missing value after '='");
    Value value;
    value.line = line_;
    const char c = text_[pos_];
    if (c == '"') return parse_string(std::move(value));
    if (c == '[') return parse_array(std::move(value));
    if (c == '\'') fail("literal (single-quoted) strings are not supported");
    if (c == '{') fail("inline tables are not supported");
    return parse_scalar(std::move(value));
  }

  Value parse_string(Value value) {
    value.type = Value::Type::kString;
    ++pos_;  // Opening quote.
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return value;
      if (c != '\\') {
        value.str += c;
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': value.str += '"'; break;
        case '\\': value.str += '\\'; break;
        case 'n': value.str += '\n'; break;
        case 'r': value.str += '\r'; break;
        case 't': value.str += '\t'; break;
        default:
          fail(std::string("unsupported string escape '\\") + esc + "'");
      }
    }
    fail("unterminated string");
  }

  Value parse_array(Value value) {
    value.type = Value::Type::kArray;
    ++pos_;  // Opening bracket.
    skip_spaces();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return value;
    }
    for (;;) {
      value.array.push_back(parse_one());
      skip_spaces();
      if (pos_ >= text_.size()) {
        fail("unterminated array (arrays are single-line)");
      }
      const char c = text_[pos_++];
      if (c == ']') return value;
      if (c != ',') {
        fail(std::string("expected ',' or ']' in array, got '") + c + "'");
      }
      skip_spaces();
      if (pos_ < text_.size() && text_[pos_] == ']') {  // Trailing comma.
        ++pos_;
        return value;
      }
    }
  }

  Value parse_scalar(Value value) {
    std::size_t end = pos_;
    while (end < text_.size() && text_[end] != ',' && text_[end] != ']' &&
           text_[end] != ' ' && text_[end] != '\t') {
      ++end;
    }
    const std::string token = text_.substr(pos_, end - pos_);
    pos_ = end;
    if (token == "true" || token == "false") {
      value.type = Value::Type::kBoolean;
      value.boolean = token == "true";
      return value;
    }

    // Underscore digit separators are allowed anywhere a digit pair is;
    // normalize them away before numeric parsing.
    std::string digits;
    digits.reserve(token.size());
    for (std::size_t i = 0; i < token.size(); ++i) {
      if (token[i] != '_') {
        digits += token[i];
        continue;
      }
      const bool digit_before =
          i > 0 && std::isdigit(static_cast<unsigned char>(token[i - 1]));
      const bool digit_after =
          i + 1 < token.size() &&
          std::isdigit(static_cast<unsigned char>(token[i + 1]));
      if (!digit_before || !digit_after) {
        fail("misplaced '_' separator in number '" + token + "'");
      }
    }
    if (digits.empty()) fail("missing value");

    const bool looks_float = digits.find_first_of(".eE") != std::string::npos;
    errno = 0;
    char* parse_end = nullptr;
    if (!looks_float) {
      const long long parsed = std::strtoll(digits.c_str(), &parse_end, 10);
      if (errno == 0 && parse_end == digits.c_str() + digits.size()) {
        value.type = Value::Type::kInteger;
        value.integer = parsed;
        value.number = static_cast<double>(parsed);
        return value;
      }
      fail("unrecognized value '" + token +
           "' (expected a string, integer, float, boolean or array)");
    }
    const double parsed = std::strtod(digits.c_str(), &parse_end);
    if (errno != 0 || parse_end != digits.c_str() + digits.size() ||
        !std::isfinite(parsed)) {
      fail("unrecognized value '" + token +
           "' (expected a string, integer, float, boolean or array)");
    }
    value.type = Value::Type::kFloat;
    value.number = parsed;
    return value;
  }

  const std::string& text_;
  const std::string& source_;
  std::uint64_t line_;
  std::size_t pos_ = 0;
};

/// Splits a `[a.b.c]` header path and validates each component.
std::vector<std::string> split_header_path(const std::string& path,
                                           const std::string& source,
                                           std::uint64_t line) {
  std::vector<std::string> parts;
  std::string part;
  std::istringstream is(path);
  while (std::getline(is, part, '.')) parts.push_back(trim(part));
  if (!path.empty() && path.back() == '.') parts.push_back("");
  for (const auto& p : parts) {
    if (p.empty()) {
      throw ParseError(source, line,
                       "empty component in section name [" + path + "]");
    }
    for (const char c : p) {
      if (!is_bare_key_char(c)) {
        throw ParseError(source, line,
                         "invalid character '" + std::string(1, c) +
                             "' in section name [" + path + "]");
      }
    }
  }
  if (parts.empty()) {
    throw ParseError(source, line, "empty section name");
  }
  return parts;
}

/// Walks a header path from the root, descending into the *last*
/// element of any array-of-tables on the way (TOML's rule for
/// `[[device]]` followed by `[device.timing]`).
Table* descend(Table* table, const std::vector<std::string>& parts,
               std::size_t count, const std::string& source,
               std::uint64_t line) {
  for (std::size_t i = 0; i < count; ++i) {
    const std::string& name = parts[i];
    if (table->values.count(name)) {
      throw ParseError(source, line,
                       "'" + name + "' is already a key, not a section");
    }
    if (auto it = table->arrays.find(name); it != table->arrays.end()) {
      table = &it->second.back();
    } else {
      table = &table->children[name];
    }
  }
  return table;
}

}  // namespace

const char* Value::type_name() const {
  switch (type) {
    case Type::kString: return "string";
    case Type::kInteger: return "integer";
    case Type::kFloat: return "float";
    case Type::kBoolean: return "boolean";
    case Type::kArray: return "array";
  }
  return "value";
}

Document parse(std::istream& in, const std::string& source) {
  Document doc;
  doc.source = source;
  Table* current = &doc.root;

  std::string raw;
  std::uint64_t line_no = 0;
  while (std::getline(in, raw)) {
    ++line_no;
    if (!raw.empty() && raw.back() == '\r') raw.pop_back();
    const std::string line = trim(strip_comment(raw));
    if (line.empty()) continue;

    if (line.front() == '[') {
      const bool is_array = line.size() > 1 && line[1] == '[';
      const std::string closer = is_array ? "]]" : "]";
      const std::size_t open = is_array ? 2 : 1;
      if (line.size() < open + closer.size() ||
          line.compare(line.size() - closer.size(), closer.size(), closer) !=
              0) {
        throw ParseError(source, line_no,
                         "malformed section header '" + line + "'");
      }
      const std::string path =
          trim(line.substr(open, line.size() - open - closer.size()));
      const auto parts = split_header_path(path, source, line_no);
      Table* parent =
          descend(&doc.root, parts, parts.size() - 1, source, line_no);
      const std::string& leaf = parts.back();
      if (parent->values.count(leaf)) {
        throw ParseError(source, line_no,
                         "'" + leaf + "' is already a key, not a section");
      }
      if (is_array) {
        if (parent->children.count(leaf)) {
          throw ParseError(source, line_no,
                           "[[" + path + "]] conflicts with the [" + path +
                               "] table defined earlier");
        }
        auto& array = parent->arrays[leaf];
        array.emplace_back();
        array.back().line = line_no;
        array.back().defined = true;
        current = &array.back();
      } else {
        if (parent->arrays.count(leaf)) {
          throw ParseError(source, line_no,
                           "[" + path + "] conflicts with the [[" + path +
                               "]] array defined earlier");
        }
        Table& table = parent->children[leaf];
        if (table.defined) {
          throw ParseError(source, line_no,
                           "duplicate section [" + path + "]");
        }
        table.defined = true;
        table.line = line_no;
        current = &table;
      }
      continue;
    }

    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) {
      throw ParseError(source, line_no,
                       "expected 'key = value' or a [section], got '" + line +
                           "'");
    }
    const std::string key = trim(line.substr(0, eq));
    if (key.empty()) {
      throw ParseError(source, line_no, "missing key before '='");
    }
    for (const char c : key) {
      if (!is_bare_key_char(c)) {
        throw ParseError(source, line_no,
                         "invalid character '" + std::string(1, c) +
                             "' in key '" + key +
                             "' (dotted/quoted keys are not supported)");
      }
    }
    if (current->values.count(key) || current->children.count(key) ||
        current->arrays.count(key)) {
      throw ParseError(source, line_no, "duplicate key '" + key + "'");
    }
    current->values[key] =
        ValueParser(line.substr(eq + 1), source, line_no).parse();
  }
  return doc;
}

Document parse_string(const std::string& text, const std::string& source) {
  std::istringstream is(text);
  return parse(is, source);
}

Document parse_file(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) {
    throw ParseError(path, 0, "cannot open config file");
  }
  in.peek();  // A directory opens but cannot be read; force the failure.
  if (in.bad()) {
    throw ParseError(path, 0, "cannot read config file");
  }
  in.clear();
  in.seekg(0);
  return parse(in, path);
}

std::string format_float(double v) {
  std::string shortest = util::shortest_double(v);
  // Keep the float-ness visible so the value re-parses as a float.
  if (shortest.find_first_of(".eE") == std::string::npos) shortest += ".0";
  return shortest;
}

std::string format_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
  out += '"';
  return out;
}

std::string format_boolean(bool b) { return b ? "true" : "false"; }

}  // namespace comet::config::toml
