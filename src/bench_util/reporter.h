// Table/CSV output for the figure-reproduction benches.
//
// Every bench prints one table per paper panel: rows are the swept
// parameter, columns are the competing implementations, cells are GFLOPS
// (best of reps, as each table title says) - the same series the paper
// plots. --csv switches to machine-readable output for replotting.
#pragma once

#include <string>
#include <vector>

namespace shalom::bench {

class Table {
 public:
  Table(std::string title, std::vector<std::string> columns);

  void add_row(std::vector<std::string> cells);
  /// Convenience: first cell is a label, the rest are numbers.
  void add_row(const std::string& label, const std::vector<double>& values,
               int precision = 2);

  /// Renders aligned text (or CSV) to stdout.
  void print(bool csv = false) const;

 private:
  std::string title_;
  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with fixed precision.
std::string fmt(double v, int precision = 2);

}  // namespace shalom::bench
