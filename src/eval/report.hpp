#pragma once
// Tabular report writer: aligned console output plus CSV artifacts, used
// by the benches so every reproduced table also lands on disk.

#include <cstdio>
#include <string>
#include <vector>

namespace hidap {

class ReportTable {
 public:
  explicit ReportTable(std::vector<std::string> columns);

  /// Adds one row; missing cells become empty, extras are dropped.
  void add_row(std::vector<std::string> cells);

  // Formatting helpers.
  static std::string num(double value, int decimals = 3);

  /// Aligned fixed-width dump.
  void print(std::FILE* out = stdout) const;

  /// RFC-4180-ish CSV (quotes cells containing commas/quotes).
  void write_csv(const std::string& path) const;

  std::size_t row_count() const { return rows_.size(); }

 private:
  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace hidap
