#include "src/common/strings.h"

#include <algorithm>
#include <cctype>
#include <charconv>

namespace paw {

std::string ToLowerAscii(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

std::vector<std::string> Split(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string_view Trim(std::string_view s) {
  size_t b = 0;
  while (b < s.size() && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  size_t e = s.size();
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i) out += sep;
    out += parts[i];
  }
  return out;
}

std::vector<std::string> Tokenize(std::string_view s) {
  std::vector<std::string> out;
  std::string cur;
  for (char ch : s) {
    if (std::isalnum(static_cast<unsigned char>(ch))) {
      cur.push_back(static_cast<char>(std::tolower(
          static_cast<unsigned char>(ch))));
    } else if (!cur.empty()) {
      out.push_back(std::move(cur));
      cur.clear();
    }
  }
  if (!cur.empty()) out.push_back(std::move(cur));
  return out;
}

bool ContainsIgnoreCase(std::string_view haystack, std::string_view needle) {
  if (needle.empty()) return true;
  std::string h = ToLowerAscii(haystack);
  std::string n = ToLowerAscii(needle);
  return h.find(n) != std::string::npos;
}

bool TokensContainPhrase(const std::vector<std::string>& text_tokens,
                         std::string_view phrase) {
  for (const std::string& want : Tokenize(phrase)) {
    if (std::find(text_tokens.begin(), text_tokens.end(), want) ==
        text_tokens.end()) {
      return false;
    }
  }
  return true;
}

std::string QuoteField(const std::string& s) {
  std::string out;
  AppendQuotedField(s, &out);
  return out;
}

void AppendQuotedField(std::string_view s, std::string* out) {
  constexpr std::string_view kEscaped = "\"\\";
  out->push_back('"');
  size_t run = 0;  // start of the run not yet appended
  for (size_t i = s.find_first_of(kEscaped); i != std::string_view::npos;
       i = s.find_first_of(kEscaped, i + 1)) {
    out->append(s.substr(run, i - run));
    out->push_back('\\');
    run = i;
  }
  out->append(s.substr(run));
  out->push_back('"');
}

void AppendInt(int64_t v, std::string* out) {
  char buf[24];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  out->append(buf, res.ptr);
}

Result<std::vector<std::string>> SplitFields(const std::string& line) {
  std::vector<std::string> out;
  std::string cur;
  bool in_quote = false;
  bool any = false;
  for (size_t i = 0; i < line.size(); ++i) {
    char c = line[i];
    if (in_quote) {
      if (c == '\\' && i + 1 < line.size()) {
        cur.push_back(line[++i]);
      } else if (c == '"') {
        in_quote = false;
      } else {
        cur.push_back(c);
      }
    } else if (c == '"') {
      in_quote = true;
      any = true;
    } else if (c == ' ' || c == '\t') {
      if (any || !cur.empty()) out.push_back(cur);
      cur.clear();
      any = false;
    } else {
      cur.push_back(c);
    }
  }
  if (in_quote) return Status::InvalidArgument("unterminated quote: " + line);
  if (any || !cur.empty()) out.push_back(cur);
  return out;
}

bool KeyValueField(const std::string& field, std::string_view key,
                   std::string* value) {
  // >=: `key=` carries a legitimately empty value (e.g. an execution
  // item whose value is "" serializes as `value=""`).
  if (field.size() >= key.size() + 1 &&
      field.compare(0, key.size(), key) == 0 && field[key.size()] == '=') {
    // SplitFields has already consumed the syntactic quotes of
    // key="v" fields; any quotes still present are data and must
    // survive (round-trip of values like "\"x\"").
    *value = field.substr(key.size() + 1);
    return true;
  }
  return false;
}

}  // namespace paw
