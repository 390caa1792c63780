#include "util/table.hpp"

#include <iomanip>
#include <ostream>
#include <sstream>

#include "util/check.hpp"

namespace dimmer::util {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {
  DIMMER_REQUIRE(!header_.empty(), "Table requires at least one column");
}

void Table::add_row(std::vector<std::string> row) {
  DIMMER_REQUIRE(row.size() == header_.size(), "row arity != header arity");
  rows_.push_back(std::move(row));
}

std::string Table::num(double v, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << v;
  return os.str();
}

std::string Table::pct(double fraction, int precision) {
  return num(fraction * 100.0, precision) + "%";
}

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> width(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) width[c] = header_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c)
      width[c] = std::max(width[c], row[c].size());

  auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << (c == 0 ? "| " : " | ") << std::left << std::setw(static_cast<int>(width[c]))
         << row[c];
    }
    os << " |\n";
  };
  emit(header_);
  for (std::size_t c = 0; c < header_.size(); ++c) {
    os << (c == 0 ? "|-" : "-|-") << std::string(width[c], '-');
  }
  os << "-|\n";
  for (const auto& row : rows_) emit(row);
}

}  // namespace dimmer::util
