#include "support/csv.hpp"

#include <cstdlib>

#include "support/assert.hpp"

namespace gather::support {

void write_csv_row(std::ostream& os, const std::vector<std::string>& cells) {
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i != 0) os << ',';
    const std::string& cell = cells[i];
    if (cell.find_first_of(",\"\n") == std::string::npos) {
      os << cell;
      continue;
    }
    os << '"';
    for (const char c : cell) {
      if (c == '"') os << '"';
      os << c;
    }
    os << '"';
  }
  os << '\n';
}

CsvWriter::CsvWriter(const std::string& path, const std::vector<std::string>& header)
    : out_(path), columns_(header.size()) {
  GATHER_EXPECTS(!header.empty());
  if (out_) write_csv_row(out_, header);
}

void CsvWriter::add_row(const std::vector<std::string>& cells) {
  GATHER_EXPECTS(cells.size() == columns_);
  if (out_) write_csv_row(out_, cells);
}

std::string csv_output_dir() {
  const char* dir = std::getenv("GATHER_CSV_DIR");
  return dir == nullptr ? std::string{} : std::string{dir};
}

}  // namespace gather::support
