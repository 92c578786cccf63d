#include "obs/span.hpp"

#include <cstdio>
#include <ostream>

#include "obs/metrics.hpp"  // detail::json_escape

namespace obs {

std::string_view to_string(SpanEvent::Kind kind) {
  switch (kind) {
    case SpanEvent::Kind::kSend: return "send";
    case SpanEvent::Kind::kDeliver: return "deliver";
    case SpanEvent::Kind::kHold: return "hold";
    case SpanEvent::Kind::kDrop: return "drop";
    case SpanEvent::Kind::kProbeArm: return "probe-arm";
    case SpanEvent::Kind::kProbeFire: return "probe-fire";
    case SpanEvent::Kind::kLog: return "log";
  }
  return "?";
}

bool kind_from_string(std::string_view text, SpanEvent::Kind& out) {
  for (const auto kind :
       {SpanEvent::Kind::kSend, SpanEvent::Kind::kDeliver,
        SpanEvent::Kind::kHold, SpanEvent::Kind::kDrop,
        SpanEvent::Kind::kProbeArm, SpanEvent::Kind::kProbeFire,
        SpanEvent::Kind::kLog}) {
    if (text == to_string(kind)) {
      out = kind;
      return true;
    }
  }
  return false;
}

std::uint64_t span_hash(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

SamplingSpanSink::SamplingSpanSink(SpanSink& inner, double rate)
    : inner_(&inner),
      rate_(rate < 0.0 ? 0.0 : (rate > 1.0 ? 1.0 : rate)),
      keep_all_(rate_ >= 1.0),
      // rate × 2^64 via a 2^53 intermediate: the product stays below 2^53
      // for every rate < 1, so the cast is exact and never overflows.
      threshold_(keep_all_
                     ? ~0ull
                     : static_cast<std::uint64_t>(rate_ * 9007199254740992.0)
                           << 11) {}

bool SamplingSpanSink::wants(std::uint64_t trace_id) const {
  if (keep_all_) return true;
  return trace_id != 0 && span_hash(trace_id) < threshold_;
}

void SamplingSpanSink::record(const SpanEvent& event) {
  // Self-gating keeps direct record() calls (tests) consistent with the
  // network's wants() pre-filter; probe markers bypass it.
  const bool marker = event.kind == SpanEvent::Kind::kProbeArm ||
                      event.kind == SpanEvent::Kind::kProbeFire;
  if (!marker && !wants(event.trace_id)) return;
  ++recorded_;
  inner_->record(event);
}

namespace detail {

void write_span_jsonl(const SpanEvent& event, std::ostream& os) {
  char time_buf[32];
  std::snprintf(time_buf, sizeof time_buf, "%.9f",
                event.sim_time.to_seconds());
  os << "{\"trace_id\":" << event.trace_id << ",\"sim_time_seconds\":"
     << time_buf << ",\"event\":\"" << to_string(event.kind) << "\",\"from\":\""
     << json_escape(event.from) << "\",\"to\":\"" << json_escape(event.to)
     << "\",\"message\":\"" << json_escape(event.message) << "\"}\n";
}

}  // namespace detail

void JsonlSpanSink::record(const SpanEvent& event) {
  detail::write_span_jsonl(event, *os_);
}

void MemorySpanSink::record(const SpanEvent& event) {
  events_.push_back(event);
}

std::vector<SpanEvent> MemorySpanSink::events_for(
    std::uint64_t trace_id) const {
  std::vector<SpanEvent> out;
  for (const SpanEvent& e : events_) {
    if (e.trace_id == trace_id) out.push_back(e);
  }
  return out;
}

}  // namespace obs
