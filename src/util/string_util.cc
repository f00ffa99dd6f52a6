#include "src/util/string_util.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

#include "src/util/logging.h"

namespace triclust {

std::vector<std::string> Split(std::string_view text, char delim) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == delim) {
      out.emplace_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::vector<std::string> SplitWhitespace(std::string_view text) {
  std::vector<std::string> out;
  size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() &&
           std::isspace(static_cast<unsigned char>(text[i]))) {
      ++i;
    }
    const size_t start = i;
    while (i < text.size() &&
           !std::isspace(static_cast<unsigned char>(text[i]))) {
      ++i;
    }
    if (i > start) out.emplace_back(text.substr(start, i - start));
  }
  return out;
}

std::string Join(const std::vector<std::string>& parts,
                 std::string_view delim) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += delim;
    out += parts[i];
  }
  return out;
}

std::string_view Trim(std::string_view text) {
  size_t begin = 0;
  size_t end = text.size();
  while (begin < end &&
         std::isspace(static_cast<unsigned char>(text[begin]))) {
    ++begin;
  }
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(text[end - 1]))) {
    --end;
  }
  return text.substr(begin, end - begin);
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

bool ParseDouble(std::string_view text, double* out) {
  const std::string buf(Trim(text));
  if (buf.empty()) return false;
  char* end = nullptr;
  const double v = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size()) return false;
  // strtod takes "nan" and "inf", and overflow gives HUGE_VAL. Its ERANGE
  // is no test: it flags denormals too, which the writers emit.
  if (!std::isfinite(v)) return false;
  *out = v;
  return true;
}

bool ParseSizeT(std::string_view text, size_t* out) {
  // from_chars accepts no sign and reports overflow, so "-1" and values
  // above SIZE_MAX fail rather than wrap.
  const std::string_view digits = Trim(text);
  const char* end = digits.data() + digits.size();
  size_t v = 0;
  const auto [ptr, ec] = std::from_chars(digits.data(), end, v);
  if (ec != std::errc() || ptr != end) return false;
  *out = v;
  return true;
}

bool ParseInt64(std::string_view text, long long* out) {
  const char* begin = text.data();
  const char* end = begin + text.size();
  const auto [ptr, ec] = std::from_chars(begin, end, *out);
  return ec == std::errc() && ptr == end;
}

void AppendDouble17(double value, std::string* out) {
  // The longest "%.17g" text is 24 bytes: "-1.2345678901234567e-308".
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value,
                                       std::chars_format::general, 17);
  TRICLUST_CHECK(ec == std::errc());
  out->append(buf, end);
}

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

}  // namespace triclust
