// The benchmark's own in-memory spans. Each span records a name, a start
// and end in host seconds since the tracer was made, and the span that
// was open when it began. Phase spans are always recorded (one per phase,
// so they cost nothing measurable and give run_s its breakdown); spans
// around individual calls into a layer only when call tracing is on.
//
// A span's name is "<layer>.<call>"; its layer is the part before the
// first dot. Self time is a span's duration minus the time its child
// spans cover.
//
// Accounting check: in a traced run, the call spans must cover the run's
// stopwatch time to within kPhaseSlack, so no layer's time goes
// unattributed.
#pragma once

#include <algorithm>
#include <chrono>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace simbench {

/// Largest share of run_s a traced run may leave outside every call span.
inline constexpr double kPhaseSlack = 0.01;

struct Span {
  const char* name = "";  // a string literal
  double start = 0.0;
  double end = 0.0;
  int parent = -1;  // index into Tracer::spans(), -1 for a root span

  [[nodiscard]] double seconds() const { return end - start; }
};

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  explicit Tracer(bool trace_calls)
      : trace_calls_(trace_calls), epoch_(Clock::now()) {}

  /// Closes its span when it goes out of scope; an empty scope records
  /// nothing.
  class Scope {
   public:
    Scope() = default;
    Scope(Tracer* tracer, int id) : tracer_(tracer), id_(id) {}
    ~Scope() {
      if (tracer_ != nullptr) tracer_->close(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_ = nullptr;
    int id_ = -1;
  };

  [[nodiscard]] Scope phase(const char* name) { return Scope(this, open(name)); }
  [[nodiscard]] Scope call(const char* name) {
    return trace_calls_ ? Scope(this, open(name)) : Scope();
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Sum of the durations of every span called `name`.
  [[nodiscard]] double total(std::string_view name) const {
    double sum = 0.0;
    for (const Span& s : spans_) {
      if (name == s.name) sum += s.seconds();
    }
    return sum;
  }

  /// Share of `run_s`, a stopwatch timed apart from the spans, that no
  /// call span covers: time outside every phase span plus the phases'
  /// self time (glue inside a phase but outside every call span).
  [[nodiscard]] double unattributed_share(double run_s) const {
    double calls = 0.0;
    for (const Span& s : spans_) {
      if (s.parent >= 0 && spans_[s.parent].parent < 0) calls += s.seconds();
    }
    return run_s > 0.0 ? (run_s - calls) / run_s : 0.0;
  }

  /// Self time per layer: each span's duration minus its children's.
  [[nodiscard]] std::map<std::string, double> self_seconds_by_layer() const {
    std::vector<double> child_time(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child_time[s.parent] += s.seconds();
    }
    std::map<std::string, double> by_layer;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      by_layer[layer_of(spans_[i].name)] +=
          spans_[i].seconds() - child_time[i];
    }
    return by_layer;
  }

  /// Writes `spans` as JSONL, one object per span, tagged with `run`.
  static void write_jsonl(std::ostream& os, const std::vector<Span>& spans,
                          std::string_view run) {
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      os << "{\"run\":\"" << run << "\",\"id\":" << i
         << ",\"parent\":" << s.parent << ",\"name\":\"" << s.name
         << "\",\"start\":" << s.start << ",\"end\":" << s.end << "}\n";
    }
  }

  [[nodiscard]] static std::string layer_of(std::string_view name) {
    return std::string(name.substr(0, name.find('.')));
  }

 private:
  int open(const char* name) {
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({name, now(), 0.0, current_});
    current_ = id;
    return id;
  }
  void close(int id) {
    spans_[id].end = now();
    current_ = spans_[id].parent;
  }
  [[nodiscard]] double now() const {
    return std::chrono::duration<double>(Clock::now() - epoch_).count();
  }

  bool trace_calls_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  int current_ = -1;
};

}  // namespace simbench
