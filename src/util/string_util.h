#ifndef TRICLUST_SRC_UTIL_STRING_UTIL_H_
#define TRICLUST_SRC_UTIL_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

namespace triclust {

/// Splits `text` on `delim`, keeping empty fields (so TSV round-trips).
std::vector<std::string> Split(std::string_view text, char delim);

/// Splits `text` on any run of ASCII whitespace, dropping empty fields.
std::vector<std::string> SplitWhitespace(std::string_view text);

/// Joins `parts` with `delim`.
std::string Join(const std::vector<std::string>& parts,
                 std::string_view delim);

/// Strips leading/trailing ASCII whitespace.
std::string_view Trim(std::string_view text);

bool StartsWith(std::string_view text, std::string_view prefix);

/// Parses a finite double, with surrounding whitespace allowed; returns
/// false on malformed or trailing garbage and on "nan", "inf" or a literal
/// beyond the double range ("1e999"). Denormals parse.
bool ParseDouble(std::string_view text, double* out);

/// Parses decimal digits, with surrounding whitespace allowed; returns
/// false on a sign, any other character, or a value above SIZE_MAX.
bool ParseSizeT(std::string_view text, size_t* out);

/// Parses a signed integer; returns false on malformed or trailing
/// garbage (no whitespace trimming — fields are expected pre-trimmed).
bool ParseInt64(std::string_view text, long long* out);

/// Appends `value` to `out` byte for byte as printf's "%.17g" prints it —
/// 17 significant digits, which read back as the same double — through
/// std::to_chars, with no printf call and no string per value.
void AppendDouble17(double value, std::string* out);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace triclust

#endif  // TRICLUST_SRC_UTIL_STRING_UTIL_H_
