// Console table / series printers used by the benchmark harnesses to emit
// paper-style rows ("Fig. 5a: reliability vs interference level", ...).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace dimmer::util {

/// A simple aligned text table. Add a header, then rows; print() pads columns.
class Table {
 public:
  explicit Table(std::vector<std::string> header);

  /// Append one row; must have the same arity as the header.
  void add_row(std::vector<std::string> row);

  /// Convenience: format doubles with fixed precision.
  static std::string num(double v, int precision = 2);
  static std::string pct(double fraction, int precision = 1);

  /// Render with column alignment to the stream.
  void print(std::ostream& os) const;

  std::size_t rows() const { return rows_.size(); }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace dimmer::util
