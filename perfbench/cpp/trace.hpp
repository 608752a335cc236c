// Span recorder for the benchmark's traced run. Spans are recorded by
// the benchmark's own code around each public call it makes into a
// library layer; nothing inside the program is instrumented. A span's
// name is "<layer>.<operation>", so the layer is the text before the
// first dot.
//
// Spans are opened and closed on the main thread only (the library
// parallelizes inside a call, the benchmark never calls two layers at
// once), so the recorder needs no locking: a stack of open span ids
// gives each new span its parent. Everything stays in memory until the
// run ends, then goes out as Chrome trace-event JSON (loadable offline
// in Perfetto) and as a per-layer self-time table.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct SpanRecord {
  std::string name;
  std::int64_t id = 0;
  std::int64_t parent = -1;  // -1 = root
  int run = 0;               // which pass of the run recorded it
  Clock::time_point start;
  Clock::time_point end;
  [[nodiscard]] double seconds() const { return seconds_between(start, end); }
};

class Tracer {
 public:
  /// A disabled tracer records nothing; Span objects are then free
  /// apart from the enabled() test.
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  void set_enabled(bool on) noexcept { enabled_ = on; }

  /// Spans recorded from now on carry this run id.
  void set_run(int run, std::string label) {
    run_ = run;
    run_labels_[run] = std::move(label);
  }

  [[nodiscard]] std::int64_t open(std::string name) {
    if (!enabled_) return -1;
    SpanRecord s;
    s.name = std::move(name);
    s.id = static_cast<std::int64_t>(spans_.size());
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.run = run_;
    s.start = Clock::now();
    spans_.push_back(std::move(s));
    stack_.push_back(spans_.back().id);
    return spans_.back().id;
  }

  void close(std::int64_t id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end = Clock::now();
    if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
  }

  [[nodiscard]] const std::vector<SpanRecord>& spans() const noexcept {
    return spans_;
  }

  /// Total seconds of every span named `name` in run `run`.
  [[nodiscard]] double total(const std::string& name, int run) const;
  /// Self time of every span named `name` in run `run`: its duration
  /// minus the time its child spans cover.
  [[nodiscard]] double self_total(const std::string& name, int run) const;
  /// Number of spans named `name` in run `run`.
  [[nodiscard]] std::size_t count(const std::string& name, int run) const;

  /// Chrome trace-event JSON: one complete ("X") event per span, with
  /// the span id, parent id and run id in args; pid is the run id.
  void write_chrome_json(std::ostream& os) const;

  /// Per layer and run: busy time (union of its top-most spans) and
  /// self time (span time minus the time its child spans cover).
  void write_self_time_table(std::ostream& os) const;

 private:
  bool enabled_;
  /// child_seconds()[i] = time covered by span i's direct children.
  /// Children of one span run one after another on the main thread,
  /// so their durations never overlap and simply add up.
  [[nodiscard]] std::vector<double> child_seconds() const;

  Clock::time_point origin_;
  int run_ = 0;
  std::map<int, std::string> run_labels_;
  std::vector<SpanRecord> spans_;
  std::vector<std::int64_t> stack_;
};

/// RAII span: opens on construction, closes on destruction.
class Span {
 public:
  Span(Tracer& tracer, std::string name)
      : tracer_(tracer), id_(tracer.open(std::move(name))) {}
  ~Span() { tracer_.close(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
  std::int64_t id_;
};

}  // namespace perfbench
