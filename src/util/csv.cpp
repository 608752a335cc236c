#include "util/csv.hpp"

#include <ostream>
#include <string_view>

namespace nevermind::util {

namespace {

bool needs_quoting(std::string_view s) {
  return s.find_first_of(",\"\n\r") != std::string_view::npos;
}

void write_field(std::ostream& os, std::string_view s) {
  if (!needs_quoting(s)) {
    os << s;
    return;
  }
  os << '"';
  for (char c : s) {
    if (c == '"') os << '"';
    os << c;
  }
  os << '"';
}

}  // namespace

CsvWriter::CsvWriter(std::ostream& os) : os_(os) {}

void CsvWriter::write_row(const std::vector<std::string>& cells) {
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i != 0) os_ << ',';
    write_field(os_, cells[i]);
  }
  os_ << '\n';
}

}  // namespace nevermind::util
