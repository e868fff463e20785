// The argv reader of the command-line tools. A tool walks its arguments
// with a cursor:
//
//   util::FlagParser flags("bench_fleet", argc, argv);
//   while (flags.next()) {
//     if (flags.is("--machines")) cfg.machines = flags.positive();
//     else if (flags.is("--out")) cfg.out = flags.text();
//     else flags.reject();
//   }
//
// A missing value, an unknown argument and a malformed value each print
// one "<tool>: ..." line and exit with status 2, where a bare std::stoul
// would abort on an uncaught exception or wrap a negative count to a huge
// one. The two-argument forms check list items (--stuck 0,3,7) and
// positional arguments the same way.
#pragma once

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace eewa::util {

class FlagParser {
 public:
  FlagParser(const char* tool, int argc, const char* const* argv)
      : tool_(tool), argc_(argc), argv_(argv) {}

  /// Steps to the next argument; false once argv is used up.
  bool next() {
    if (++at_ >= argc_) return false;
    arg_ = argv_[at_];
    return true;
  }
  /// The argument under the cursor (the flag, while its value is read).
  const char* arg() const { return arg_; }
  bool is(const char* name) const { return std::strcmp(arg_, name) == 0; }
  /// The value after the current flag.
  const char* text() {
    if (at_ + 1 >= argc_) {
      std::fprintf(stderr, "%s: %s expects a value\n", tool_, arg_);
      std::exit(2);
    }
    return argv_[++at_];
  }
  double real() { return real(arg_, text()); }
  std::size_t count() { return count(arg_, text()); }
  std::size_t positive() { return positive(arg_, text()); }
  [[noreturn]] void reject() const {
    std::fprintf(stderr, "%s: unknown argument '%s'\n", tool_, arg_);
    std::exit(2);
  }

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
  /// Rejects `text` as a value of `flag`, which expects `want`.
  [[noreturn]] void bad_value(const char* flag, const char* text,
                              const char* want) const {
    std::fprintf(stderr, "%s: %s expects %s, got '%s'\n", tool_, flag, want,
                 text);
    std::exit(2);
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

  const char* tool_;
  int argc_;
  const char* const* argv_;
  int at_ = 0;  ///< argv_[0] is the program name
  const char* arg_ = nullptr;
};

}  // namespace eewa::util
