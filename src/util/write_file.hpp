// The one way the command-line tools write a whole file (a bench report,
// a trace, a fuzz repro): the stream is checked after close, so a full
// disk, a short write or a failed final flush is reported instead of
// being taken for success.
#pragma once

#include <cstdio>
#include <fstream>
#include <string>
#include <string_view>

namespace eewa::util {

/// Writes `text` to `path`, replacing it. On failure prints
/// "cannot write <path>" to stderr and returns false, for the tool to
/// exit nonzero.
[[nodiscard]] inline bool write_file(const std::string& path,
                                     std::string_view text) {
  std::ofstream out(path);
  out << text;
  out.close();
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  return true;
}

}  // namespace eewa::util
