#include "util/csv.hpp"

namespace eewa::util {

std::string CsvWriter::escape(const std::string& cell) {
  if (cell.find_first_of(",\"\n") == std::string::npos) return cell;
  std::string out = "\"";
  for (char c : cell) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

void CsvWriter::row(const std::vector<std::string>& cells) {
  std::string line;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i) line += ',';
    line += escape(cells[i]);
  }
  line += '\n';
  buffer_ << line;
  ++rows_;
}

}  // namespace eewa::util
