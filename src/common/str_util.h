// Small string utilities shared across the wsv library.

#ifndef WSV_COMMON_STR_UTIL_H_
#define WSV_COMMON_STR_UTIL_H_

#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

namespace wsv {

/// The concatenation of `parts`, built by appending into one buffer.
/// Prefer it to `"literal" + std::string` chains, which GCC 12 flags
/// with a false -Wrestrict in optimized builds.
std::string StrCat(std::initializer_list<std::string_view> parts);

/// Joins the elements of `parts` with `sep` between consecutive elements.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Splits `s` on `sep`, trimming surrounding whitespace from each piece.
/// Empty pieces are preserved.
std::vector<std::string> Split(std::string_view s, char sep);

/// Removes leading and trailing ASCII whitespace.
std::string_view Trim(std::string_view s);

/// True iff `s` starts with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// True iff the string is a valid identifier: [A-Za-z_][A-Za-z0-9_]*.
bool IsIdentifier(std::string_view s);

/// Quotes a string for display: wraps in double quotes and escapes
/// backslash, quote, and newline characters.
std::string QuoteString(std::string_view s);

/// Appends `s` to `*out` escaped for a JSON string body (no surrounding
/// quotes): quote, backslash, newline, tab and carriage return take their
/// short escapes, every other control character \u00XX.
void AppendJsonEscaped(std::string_view s, std::string* out);

}  // namespace wsv

#endif  // WSV_COMMON_STR_UTIL_H_
