// Minimal CSV writer so benches can optionally dump machine-readable
// series alongside the human-readable tables (set GATHER_CSV_DIR). The
// row writer is shared with the sweep CSV (scenario::SweepRunner).
#pragma once

#include <fstream>
#include <ostream>
#include <string>
#include <vector>

namespace gather::support {

/// Write one row and its newline. A cell holding a comma, quote or
/// newline is quoted, with inner quotes doubled (RFC 4180).
void write_csv_row(std::ostream& os, const std::vector<std::string>& cells);

class CsvWriter {
 public:
  /// Opens `path` for writing and emits the header row.
  CsvWriter(const std::string& path, const std::vector<std::string>& header);

  void add_row(const std::vector<std::string>& cells);

  [[nodiscard]] bool ok() const { return static_cast<bool>(out_); }

 private:
  std::ofstream out_;
  std::size_t columns_ = 0;
};

/// Directory benches should write CSVs into, from the environment variable
/// GATHER_CSV_DIR; empty string means "CSV output disabled".
[[nodiscard]] std::string csv_output_dir();

}  // namespace gather::support
