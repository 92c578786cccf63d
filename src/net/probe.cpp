#include "net/probe.hpp"

#include <utility>

namespace net {

ConvergenceProbe::ConvergenceProbe(Network& network, obs::Histogram& histogram,
                                   SimTime quiet_window)
    : network_(network),
      events_(network.events()),
      histogram_(&histogram),
      quiet_window_(quiet_window) {
  network_.add_activity_listener([this]() { on_activity(); });
}

void ConvergenceProbe::arm(std::string label) {
  armed_ = true;
  label_ = std::move(label);
  armed_at_ = events_.now();
  last_activity_ = armed_at_;
  record_marker(obs::SpanEvent::Kind::kProbeArm, armed_at_);
  schedule_check(armed_at_ + quiet_window_);
}

void ConvergenceProbe::record_marker(obs::SpanEvent::Kind kind, SimTime at) {
  // Measurement-window markers for the span stream: arm stamps the
  // perturbation, fire stamps the convergence instant, so a (sampled)
  // spans JSONL is self-contained for critical-path analysis. Markers
  // bypass head-based sampling (see obs::SamplingSpanSink).
  obs::SpanSink* sink = network_.span_sink();
  if (sink == nullptr) return;
  obs::SpanEvent event;
  event.trace_id = 0;
  event.sim_time = at;
  event.kind = kind;
  event.from = "probe";
  event.message = label_;
  sink->record(event);
}

void ConvergenceProbe::on_activity() {
  if (armed_) last_activity_ = events_.now();
}

void ConvergenceProbe::schedule_check(SimTime at) {
  if (check_scheduled_) events_.cancel(check_id_);
  check_scheduled_ = true;
  check_id_ = events_.schedule_at(at, [this]() { check(); }, "net.probe");
}

void ConvergenceProbe::check() {
  check_scheduled_ = false;
  if (!armed_) return;
  if (events_.now() - last_activity_ < quiet_window_) {
    // Traffic since the last check; converge means a full quiet window.
    schedule_check(last_activity_ + quiet_window_);
    return;
  }
  // Quiet: the system converged at the last activity. One sample per arm().
  armed_ = false;
  ++samples_;
  const SimTime converge = last_activity_ - armed_at_;
  histogram_->observe(converge.to_seconds());
  // Stamped with the convergence instant, not the check time; nothing was
  // recorded in between (that is what quiet means), so the span stream
  // stays time-ordered.
  record_marker(obs::SpanEvent::Kind::kProbeFire, last_activity_);
}

}  // namespace net
