// Minimal CSV writer. The simulator can export its generated
// datasets (line measurements, tickets, disposition notes) so that the
// pipeline can also be studied outside C++ (e.g. plotting bench output).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace nevermind::util {

/// Streaming CSV writer; quotes fields containing separators/quotes per
/// RFC 4180.
class CsvWriter {
 public:
  explicit CsvWriter(std::ostream& os);

  void write_row(const std::vector<std::string>& cells);

 private:
  std::ostream& os_;
};

}  // namespace nevermind::util
