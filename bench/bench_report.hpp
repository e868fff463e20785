// The one path by which a bench writes its JSON report. The text is
// re-parsed with the in-repo json_lite parser and its row array counted
// before anything is written, so an artifact CI cannot parse fails the
// bench instead of the consumer; util::write_file checks the stream after
// close, so a failed write is not reported as a success.
#pragma once

#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <stdexcept>
#include <string>

#include "obs/json_lite.hpp"
#include "util/write_file.hpp"

namespace eewa::bench {

/// Validates `json` (it parses, its array `rows_key` holds `rows` entries
/// and `check`, when given, does not throw), writes it to `path` and
/// prints "report: <path> (validated with json_lite)". Any failure prints
/// a message and exits 1.
inline void write_report(
    const std::string& path, const std::string& json, const char* rows_key,
    std::size_t rows,
    const std::function<void(const obs::JsonValue&)>& check = {}) {
  try {
    const auto doc = obs::parse_json(json);
    if (doc.at(rows_key).array.size() != rows) {
      throw std::runtime_error(std::string(rows_key) + " rows went missing");
    }
    if (check) check(doc);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s failed validation: %s\n", path.c_str(),
                 e.what());
    std::exit(1);
  }
  if (!util::write_file(path, json)) std::exit(1);
  std::printf("report: %s (validated with json_lite)\n", path.c_str());
}

}  // namespace eewa::bench
