#include "common/strings.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace autoglobe {

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

void AppendInt(std::string* out, long long value, int width) {
  char digits[24];
  char* end = std::to_chars(digits, digits + sizeof digits, value).ptr;
  size_t length = static_cast<size_t>(end - digits);
  // printf pads between the sign and the digits.
  size_t sign = value < 0 ? 1 : 0;
  out->append(digits, sign);
  if (width > 0 && static_cast<size_t>(width) > length) {
    out->append(static_cast<size_t>(width) - length, '0');
  }
  out->append(digits + sign, length - sign);
}

std::string_view StripWhitespace(std::string_view s) {
  size_t begin = 0;
  while (begin < s.size() &&
         std::isspace(static_cast<unsigned char>(s[begin]))) {
    ++begin;
  }
  size_t end = s.size();
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(s[end - 1]))) {
    --end;
  }
  return s.substr(begin, end - begin);
}

std::vector<std::string_view> Split(std::string_view s, char sep) {
  std::vector<std::string_view> pieces;
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      pieces.push_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return pieces;
}

std::vector<std::string_view> SplitWhitespace(std::string_view s) {
  std::vector<std::string_view> pieces;
  size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) {
      ++i;
    }
    size_t start = i;
    while (i < s.size() && !std::isspace(static_cast<unsigned char>(s[i]))) {
      ++i;
    }
    if (i > start) pieces.push_back(s.substr(start, i - start));
  }
  return pieces;
}

std::string ToLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

std::string ToUpper(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  return out;
}

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

Result<double> ParseDouble(std::string_view s) {
  std::string trimmed(StripWhitespace(s));
  if (trimmed.empty()) {
    return Status::ParseError("empty string is not a number");
  }
  errno = 0;
  char* end = nullptr;
  double value = std::strtod(trimmed.c_str(), &end);
  // strtod accepts "nan"/"inf"; NaN would slip past every `<= 0`
  // range check downstream, so only finite values parse.
  if (end != trimmed.c_str() + trimmed.size() || errno == ERANGE ||
      !std::isfinite(value)) {
    return Status::ParseError(StrFormat("not a number: \"%s\"",
                                        trimmed.c_str()));
  }
  return value;
}

Result<long long> ParseInt(std::string_view s) {
  std::string trimmed(StripWhitespace(s));
  if (trimmed.empty()) {
    return Status::ParseError("empty string is not an integer");
  }
  errno = 0;
  char* end = nullptr;
  long long value = std::strtoll(trimmed.c_str(), &end, 10);
  if (end != trimmed.c_str() + trimmed.size() || errno == ERANGE) {
    return Status::ParseError(StrFormat("not an integer: \"%s\"",
                                        trimmed.c_str()));
  }
  return value;
}

Result<bool> ParseBool(std::string_view s) {
  std::string_view trimmed = StripWhitespace(s);
  if (EqualsIgnoreCase(trimmed, "true") || trimmed == "1" ||
      EqualsIgnoreCase(trimmed, "yes") || EqualsIgnoreCase(trimmed, "on")) {
    return true;
  }
  if (EqualsIgnoreCase(trimmed, "false") || trimmed == "0" ||
      EqualsIgnoreCase(trimmed, "no") || EqualsIgnoreCase(trimmed, "off")) {
    return false;
  }
  return Status::ParseError(
      StrFormat("not a boolean: \"%.*s\"",
                static_cast<int>(trimmed.size()), trimmed.data()));
}

std::string Join(const std::vector<std::string>& pieces,
                 std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < pieces.size(); ++i) {
    if (i != 0) out.append(sep);
    out.append(pieces[i]);
  }
  return out;
}

}  // namespace autoglobe
