// Minimal CSV writer for exporting experiment series (one file per figure).
// Rows build in memory; a caller that saves them writes str() through
// util::write_file, which checks the stream after close.
#pragma once

#include <sstream>
#include <string>
#include <vector>

namespace eewa::util {

/// Builds rows of a CSV document in memory. Values containing commas,
/// quotes or newlines are quoted per RFC 4180.
class CsvWriter {
 public:
  /// Write a full row of string cells.
  void row(const std::vector<std::string>& cells);

  /// Convenience: write a row of heterogeneous printable values.
  template <typename... Ts>
  void row_values(const Ts&... vals) {
    std::vector<std::string> cells;
    (cells.push_back(to_cell(vals)), ...);
    row(cells);
  }

  /// The document so far.
  std::string str() const { return buffer_.str(); }

  /// Number of rows written.
  std::size_t rows_written() const { return rows_; }

 private:
  template <typename T>
  static std::string to_cell(const T& v) {
    std::ostringstream os;
    os.precision(12);  // keep floats round-trippable through import
    os << v;
    return os.str();
  }

  static std::string escape(const std::string& cell);

  std::ostringstream buffer_;
  std::size_t rows_ = 0;
};

}  // namespace eewa::util
