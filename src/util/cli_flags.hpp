// Validated numeric flag values for the command-line tools. A malformed
// value prints "<tool>: <flag> expects <what>, got '<text>'" and exits
// with status 2, where a bare std::stoul would abort on an uncaught
// exception or wrap a negative count to a huge one.
#pragma once

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <cstdlib>

namespace eewa::util {

class FlagParser {
 public:
  explicit FlagParser(const char* tool) : tool_(tool) {}

  /// A finite, non-negative decimal.
  double real(const char* flag, const char* text) const {
    char* end = nullptr;
    errno = 0;
    const double v = std::strtod(text, &end);
    if (end == text || *end != '\0' || errno == ERANGE ||
        !std::isfinite(v) || v < 0.0) {
      bad_value(flag, text, "a finite non-negative number");
    }
    return v;
  }
  /// A non-negative base-10 integer.
  std::size_t count(const char* flag, const char* text) const {
    return integer(flag, text, 0, "a non-negative integer");
  }
  /// A positive base-10 integer.
  std::size_t positive(const char* flag, const char* text) const {
    return integer(flag, text, 1, "a positive integer");
  }

 private:
  std::size_t integer(const char* flag, const char* text,
                      unsigned long long min, const char* want) const {
    // strtoull skips leading space and takes a sign (wrapping "-3"), so
    // the text must start with a digit.
    char* end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (!std::isdigit(static_cast<unsigned char>(text[0])) || *end != '\0' ||
        errno == ERANGE || v < min) {
      bad_value(flag, text, want);
    }
    return static_cast<std::size_t>(v);
  }
  [[noreturn]] void bad_value(const char* flag, const char* text,
                              const char* want) const {
    std::fprintf(stderr, "%s: %s expects %s, got '%s'\n", tool_, flag, want,
                 text);
    std::exit(2);
  }

  const char* tool_;
};

}  // namespace eewa::util
