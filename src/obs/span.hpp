// Causal message spans: the simulator's one event stream.
//
// net::Network stamps every originated message with a monotonically
// increasing trace id and propagates it to messages derived inside a
// delivery (see network.hpp). Each send/deliver/hold/drop becomes a
// SpanEvent pushed at a SpanSink, and so does each protocol log line
// (Network::log), so one protocol-level causal chain — a BGMP join
// travelling leaf→root, a MASC claim through its collision and re-claim —
// can be reconstructed, narration included, by filtering the recorded
// events on a single trace id.
//
// JSONL schema (one object per line, documented in DESIGN.md):
//   {"trace_id":7,"sim_time_seconds":0.01,"event":"send",
//    "from":"D2/bgmp","to":"D1/bgmp","message":"JOIN (*,G) ..."}
//
// This header must stay free of net's .cpp symbols:
// net links obs, not the other way around, so only net's inline headers
// (SimTime) appear here.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "net/time.hpp"

namespace obs {

/// One hop-level event in a message's causal span.
struct SpanEvent {
  enum class Kind : std::uint8_t {
    kSend,     ///< message handed to the network
    kDeliver,  ///< message arrived at its destination endpoint
    kHold,     ///< message parked in a partition queue (channel down)
    kDrop,     ///< message lost (channel down with drop-when-down)
    /// Convergence-probe markers (net::ConvergenceProbe): arm stamps the
    /// perturbation instant, fire stamps the convergence instant (the last
    /// activity before the quiet window). Markers carry trace_id 0 — they
    /// bypass head-based sampling, so a sampled span stream still contains
    /// the measurement windows the critical-path analyzer cuts on.
    kProbeArm,
    kProbeFire,
    /// A protocol log line (Network::log): `from` is the emitting node,
    /// `to` is empty. It rides the chain it belongs to (0 outside any), so
    /// it is sampled with that chain; an unchained line is kept only by
    /// sinks that keep everything.
    kLog,
  };

  std::uint64_t trace_id = 0;
  net::SimTime sim_time;
  Kind kind = Kind::kSend;
  std::string from;     ///< sending endpoint name
  std::string to;       ///< receiving endpoint name
  std::string message;  ///< describe(); probe markers: label; log: text
};

[[nodiscard]] std::string_view to_string(SpanEvent::Kind kind);
/// Inverse of to_string; false if `text` names no kind.
[[nodiscard]] bool kind_from_string(std::string_view text,
                                    SpanEvent::Kind& out);

/// Receives every span event the network records. Implementations must not
/// send messages from record() (re-entrancy on the network is undefined).
class SpanSink {
 public:
  virtual ~SpanSink() = default;
  virtual void record(const SpanEvent& event) = 0;
  /// Head-based pre-filter: the network asks before *building* an event
  /// (describing a message allocates), so a sampling sink skips the whole
  /// cost of unsampled chains, not just their storage. Must be pure —
  /// equal ids always get equal answers, or chains tear apart.
  [[nodiscard]] virtual bool wants(std::uint64_t /*trace_id*/) const {
    return true;
  }
};

/// Streams each event as one JSON object per line (see schema above).
class JsonlSpanSink final : public SpanSink {
 public:
  /// The stream must outlive the sink.
  explicit JsonlSpanSink(std::ostream& os) : os_(&os) {}
  void record(const SpanEvent& event) override;

 private:
  std::ostream* os_;
};

/// Keeps every event in memory; for tests and small runs.
class MemorySpanSink final : public SpanSink {
 public:
  void record(const SpanEvent& event) override;
  [[nodiscard]] const std::vector<SpanEvent>& events() const {
    return events_;
  }
  /// All events of one causal chain, in recording order.
  [[nodiscard]] std::vector<SpanEvent> events_for(std::uint64_t trace_id) const;
  void clear() { events_.clear(); }

 private:
  std::vector<SpanEvent> events_;
};

/// Deterministic head-based sampling: a chain is kept iff a fixed hash of
/// its trace id falls under the rate threshold, so a 1% rate keeps whole
/// causal chains intact (every hop of a kept chain passes) and the kept
/// set is byte-identical across reruns and thread counts — the sample is
/// a function of the id, never of arrival order or wall clock. Probe
/// markers always pass; other records outside any chain (trace_id 0:
/// unchained log lines) pass only at rate 1.
class SamplingSpanSink final : public SpanSink {
 public:
  /// `inner` receives the sampled events and must outlive this sink.
  /// `rate` in [0,1]: 0 keeps only markers, 1 keeps everything.
  SamplingSpanSink(SpanSink& inner, double rate);

  [[nodiscard]] bool wants(std::uint64_t trace_id) const override;
  void record(const SpanEvent& event) override;

  /// Events actually forwarded to the inner sink.
  [[nodiscard]] std::uint64_t recorded() const { return recorded_; }
  [[nodiscard]] double rate() const { return rate_; }

 private:
  SpanSink* inner_;
  double rate_;
  bool keep_all_;
  std::uint64_t threshold_;  ///< keep iff span_hash(id) < threshold_
  std::uint64_t recorded_ = 0;
};

/// The stateless 64-bit mixer (splitmix64 finalizer) behind head-based
/// sampling. Exposed so tests can predict which ids a rate keeps.
[[nodiscard]] std::uint64_t span_hash(std::uint64_t x);

namespace detail {
/// The JSONL rendering behind JsonlSpanSink (also used for offline dumps).
void write_span_jsonl(const SpanEvent& event, std::ostream& os);
}  // namespace detail

}  // namespace obs
