#ifndef AUTOGLOBE_COMMON_STRINGS_H_
#define AUTOGLOBE_COMMON_STRINGS_H_

#include <cstdarg>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace autoglobe {

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Appends `value` in decimal, zero-padded to at least `width`
/// characters (the sign counts) — the bytes of printf's "%0*lld",
/// without the format parse. For names built once per entity.
void AppendInt(std::string* out, long long value, int width = 0);

/// Removes leading and trailing ASCII whitespace.
std::string_view StripWhitespace(std::string_view s);

/// Splits `s` at every occurrence of `sep`; empty pieces are kept.
std::vector<std::string_view> Split(std::string_view s, char sep);

/// Splits on runs of ASCII whitespace; empty pieces are dropped.
std::vector<std::string_view> SplitWhitespace(std::string_view s);

/// ASCII case conversions.
std::string ToLower(std::string_view s);
std::string ToUpper(std::string_view s);

/// Case-insensitive ASCII comparison.
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

/// Strict numeric parsing of the complete (whitespace-stripped) input.
/// ParseDouble accepts finite values only (no "nan"/"inf").
Result<double> ParseDouble(std::string_view s);
Result<long long> ParseInt(std::string_view s);
Result<bool> ParseBool(std::string_view s);

/// Joins pieces with `sep`.
std::string Join(const std::vector<std::string>& pieces,
                 std::string_view sep);

}  // namespace autoglobe

#endif  // AUTOGLOBE_COMMON_STRINGS_H_
