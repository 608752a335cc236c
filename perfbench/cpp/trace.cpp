#include "trace.hpp"

#include <cstdio>
#include <iomanip>

namespace perfbench {

namespace {

std::string layer_of(const std::string& name) {
  const auto dot = name.find('.');
  return dot == std::string::npos ? name : name.substr(0, dot);
}

void write_json_string(std::ostream& os, const std::string& s) {
  os << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      os << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      os << buf;
    } else {
      os << c;
    }
  }
  os << '"';
}

}  // namespace

double Tracer::total(const std::string& name, int run) const {
  double s = 0.0;
  for (const auto& span : spans_) {
    if (span.run == run && span.name == name) s += span.seconds();
  }
  return s;
}

std::vector<double> Tracer::child_seconds() const {
  std::vector<double> child(spans_.size(), 0.0);
  for (const auto& s : spans_) {
    if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.seconds();
  }
  return child;
}

double Tracer::self_total(const std::string& name, int run) const {
  const std::vector<double> child = child_seconds();
  double total = 0.0;
  for (const auto& s : spans_) {
    if (s.run == run && s.name == name) {
      total += s.seconds() - child[static_cast<std::size_t>(s.id)];
    }
  }
  return total;
}

std::size_t Tracer::count(const std::string& name, int run) const {
  std::size_t n = 0;
  for (const auto& span : spans_) {
    if (span.run == run && span.name == name) ++n;
  }
  return n;
}

void Tracer::write_chrome_json(std::ostream& os) const {
  const auto us = [&](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  };
  os << std::fixed << std::setprecision(3);
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const auto& [run, label] : run_labels_) {
    os << (first ? "" : ",") << "{\"name\":\"process_name\",\"ph\":\"M\","
       << "\"pid\":" << run << ",\"tid\":0,\"args\":{\"name\":";
    write_json_string(os, label);
    os << "}}";
    first = false;
  }
  for (const auto& s : spans_) {
    os << (first ? "" : ",") << "\n{\"name\":";
    write_json_string(os, s.name);
    os << ",\"cat\":";
    write_json_string(os, layer_of(s.name));
    os << ",\"ph\":\"X\",\"pid\":" << s.run << ",\"tid\":0,\"ts\":"
       << us(s.start) << ",\"dur\":" << us(s.end) - us(s.start)
       << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
       << ",\"run\":" << s.run << "}}";
    first = false;
  }
  os << "\n]}\n";
}

void Tracer::write_self_time_table(std::ostream& os) const {
  const std::vector<double> child_s = child_seconds();
  struct Row {
    std::size_t spans = 0;
    double total_s = 0.0;  // spans not nested in a span of the same layer
    double self_s = 0.0;
  };
  std::map<std::pair<int, std::string>, Row> rows;
  for (const auto& s : spans_) {
    const std::string layer = layer_of(s.name);
    Row& row = rows[{s.run, layer}];
    ++row.spans;
    row.self_s += s.seconds() - child_s[static_cast<std::size_t>(s.id)];
    const bool nested_in_layer =
        s.parent >= 0 &&
        layer_of(spans_[static_cast<std::size_t>(s.parent)].name) == layer;
    if (!nested_in_layer) row.total_s += s.seconds();
  }
  os << std::left << std::setw(24) << "run" << std::setw(12) << "layer"
     << std::right << std::setw(8) << "spans" << std::setw(12) << "total_s"
     << std::setw(12) << "self_s" << '\n';
  os << std::fixed << std::setprecision(4);
  for (const auto& [key, row] : rows) {
    const auto label = run_labels_.find(key.first);
    os << std::left << std::setw(24)
       << (label == run_labels_.end() ? std::to_string(key.first)
                                      : label->second)
       << std::setw(12) << key.second << std::right << std::setw(8)
       << row.spans << std::setw(12) << row.total_s << std::setw(12)
       << row.self_s << '\n';
  }
  os.unsetf(std::ios::floatfield);
}

}  // namespace perfbench
