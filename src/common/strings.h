#ifndef PAW_COMMON_STRINGS_H_
#define PAW_COMMON_STRINGS_H_

/// \file strings.h
/// \brief Small string utilities used across the library (tokenization for
/// keyword search, joining for diagnostics, trimming for the serializer).

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"

namespace paw {

/// \brief Lowercases ASCII characters in `s`.
std::string ToLowerAscii(std::string_view s);

/// \brief Splits `s` on `sep`, keeping empty fields.
std::vector<std::string> Split(std::string_view s, char sep);

/// \brief Strips leading/trailing ASCII whitespace.
std::string_view Trim(std::string_view s);

/// \brief Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// \brief Lowercased alphanumeric word tokens of `s` ("Query OMIM" ->
/// {"query", "omim"}). This is the tokenization used by the keyword index.
std::vector<std::string> Tokenize(std::string_view s);

/// \brief True iff `haystack` contains `needle` case-insensitively.
bool ContainsIgnoreCase(std::string_view haystack, std::string_view needle);

/// \brief True iff every word token of `phrase` appears among the tokens of
/// `text` (order-insensitive phrase match; used by keyword covering).
bool TokensContainPhrase(const std::vector<std::string>& text_tokens,
                         std::string_view phrase);

// ---- Line-oriented field syntax (shared by the text serializers) ----
//
// The spec, provenance and policy serializers all emit lines of
// whitespace-separated fields where double-quoted fields may contain
// spaces and backslash-escaped quotes, and `key=value` stays one field.

/// \brief Wraps `s` in double quotes, escaping `"` and `\`.
std::string QuoteField(const std::string& s);

/// \brief Appends `QuoteField(s)` to `out` without a temporary.
void AppendQuotedField(std::string_view s, std::string* out);

/// \brief Appends the decimal form of `v` to `out`.
void AppendInt(int64_t v, std::string* out);

/// \brief Splits a serializer line into fields (see syntax above).
Result<std::vector<std::string>> SplitFields(const std::string& line);

/// \brief If `field` is `key=value`, stores the value (possibly
/// empty) and returns true; otherwise leaves `value` alone and
/// returns false.
bool KeyValueField(const std::string& field, std::string_view key,
                   std::string* value);

}  // namespace paw

#endif  // PAW_COMMON_STRINGS_H_
