#include "eval/critical_path.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <istream>
#include <ostream>
#include <tuple>
#include <utility>

#include "obs/metrics.hpp"  // detail::json_escape

namespace eval {

namespace {

/// %.9f matches the span JSONL time rendering — nanosecond sim-time
/// resolution round-trips exactly, and the fixed width keeps reports
/// byte-stable.
std::string fmt_time(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.9f", v);
  return buf;
}

/// Hop matching state for one trace inside one window. Starts are keyed
/// by (from, to, message) because retransmitted/flushed copies of the
/// same logical message are indistinguishable beyond that; FIFO matching
/// within a key follows the network's in-order delivery per direction.
struct TraceState {
  struct PendingStart {
    double at;
    bool held;
  };
  std::map<std::tuple<std::string, std::string, std::string>,
           std::vector<PendingStart>>
      pending;
  std::vector<CriticalHop> hops;
  double last_deliver = 0.0;
  bool delivered = false;
};

ConvergenceWindow close_window(const std::string& label, double armed_at,
                               double converged_at,
                               const std::map<std::uint64_t, TraceState>& traces) {
  ConvergenceWindow win;
  win.label = label;
  win.armed_at = armed_at;
  win.converged_at = converged_at;
  win.traces = traces.size();
  for (const auto& [id, state] : traces) win.hops += state.hops.size();

  // Critical chain: latest final delivery; std::map iteration order makes
  // the "first strict improvement wins" rule resolve ties to the lowest id.
  const TraceState* critical = nullptr;
  for (const auto& [id, state] : traces) {
    if (!state.delivered) continue;
    if (critical == nullptr || state.last_deliver > critical->last_deliver) {
      critical = &state;
      win.critical_trace = id;
    }
  }
  if (critical == nullptr) return win;

  win.critical_hops = critical->hops;
  std::sort(win.critical_hops.begin(), win.critical_hops.end(),
            [](const CriticalHop& a, const CriticalHop& b) {
              if (a.start != b.start) return a.start < b.start;
              return a.end < b.end;
            });

  // Phase attribution sums hop latencies (hops of a fanout can overlap in
  // time, so phases are about work, not disjoint wall-clock shares);
  // "wait" is the window time no critical-chain hop covers — computed
  // from the interval union so overlap never counts twice.
  for (const CriticalHop& hop : win.critical_hops) {
    win.phase_seconds[hop_phase(hop)] += hop.latency();
  }
  double covered = 0.0;
  double cursor = win.armed_at;
  for (const CriticalHop& hop : win.critical_hops) {  // sorted by start
    const double from = std::max(cursor, hop.start);
    if (hop.end > from) {
      covered += hop.end - from;
      cursor = hop.end;
    }
  }
  const double wait = win.duration() - covered;
  win.phase_seconds["wait"] = wait > 0.0 ? wait : 0.0;
  return win;
}

}  // namespace

std::string hop_phase(const CriticalHop& hop) {
  const std::size_t slash = hop.to.rfind('/');
  if (slash == std::string::npos) return "bgp";
  const std::string suffix = hop.to.substr(slash + 1);
  if (suffix == "bgmp" || suffix == "masc") return suffix;
  return "bgp";
}

CriticalPathReport analyze_spans(const std::vector<obs::SpanEvent>& events) {
  CriticalPathReport report;
  report.events_seen = events.size();

  bool armed = false;
  double armed_at = 0.0;
  std::string label;
  std::map<std::uint64_t, TraceState> traces;

  for (const obs::SpanEvent& e : events) {
    switch (e.kind) {
      case obs::SpanEvent::Kind::kProbeArm:
        // A newer perturbation supersedes the pending one, exactly like
        // ConvergenceProbe::arm() restarting the measurement.
        armed = true;
        armed_at = e.sim_time.to_seconds();
        label = e.message;
        traces.clear();
        break;
      case obs::SpanEvent::Kind::kProbeFire: {
        if (!armed) {
          ++report.unmatched_fires;
          break;
        }
        report.windows.push_back(close_window(
            label, armed_at, e.sim_time.to_seconds(), traces));
        armed = false;
        traces.clear();
        break;
      }
      case obs::SpanEvent::Kind::kSend:
      case obs::SpanEvent::Kind::kHold: {
        if (!armed || e.trace_id == 0) break;
        TraceState& state = traces[e.trace_id];
        auto& starts = state.pending[{e.from, e.to, e.message}];
        // A held message is re-recorded as a send when the channel heals;
        // keep the hold timestamp — the parked time is on the path.
        if (e.kind == obs::SpanEvent::Kind::kSend && !starts.empty() &&
            starts.front().held) {
          break;
        }
        starts.push_back({e.sim_time.to_seconds(),
                          e.kind == obs::SpanEvent::Kind::kHold});
        break;
      }
      case obs::SpanEvent::Kind::kDeliver: {
        if (!armed || e.trace_id == 0) break;
        TraceState& state = traces[e.trace_id];
        const double at = e.sim_time.to_seconds();
        CriticalHop hop;
        hop.trace_id = e.trace_id;
        hop.from = e.from;
        hop.to = e.to;
        hop.message = e.message;
        hop.end = at;
        auto it = state.pending.find({e.from, e.to, e.message});
        if (it != state.pending.end() && !it->second.empty()) {
          hop.start = it->second.front().at;
          hop.held = it->second.front().held;
          it->second.erase(it->second.begin());
        } else {
          // Send fell before the window start: clamp the hop to the
          // window so durations stay well-formed.
          hop.start = std::min(armed_at, at);
        }
        state.hops.push_back(std::move(hop));
        state.last_deliver = at;
        state.delivered = true;
        break;
      }
      case obs::SpanEvent::Kind::kDrop:
        // A dropped copy never completes a hop; nothing to unmatch —
        // the pending start simply stays unconsumed.
      case obs::SpanEvent::Kind::kLog:
        // Narration, not a hop: the chain's timing is in its messages.
        break;
    }
  }
  return report;
}

std::size_t CriticalPathReport::longest_window() const {
  std::size_t best = static_cast<std::size_t>(-1);
  double best_duration = -1.0;
  for (std::size_t i = 0; i < windows.size(); ++i) {
    if (windows[i].duration() > best_duration) {
      best_duration = windows[i].duration();
      best = i;
    }
  }
  return best;
}

void CriticalPathReport::write_json(std::ostream& os) const {
  os << "{\n  \"report\": \"critical_path\",\n  \"events_seen\": "
     << events_seen << ",\n  \"unmatched_fires\": " << unmatched_fires
     << ",\n  \"window_count\": " << windows.size() << ",\n  \"windows\": [";
  bool first = true;
  for (const ConvergenceWindow& w : windows) {
    os << (first ? "" : ",") << "\n    {\"label\": \""
       << obs::detail::json_escape(w.label) << "\", \"armed_at\": "
       << fmt_time(w.armed_at) << ", \"converged_at\": "
       << fmt_time(w.converged_at) << ", \"duration\": "
       << fmt_time(w.duration()) << ", \"traces\": " << w.traces
       << ", \"hops\": " << w.hops << ", \"critical_trace\": "
       << w.critical_trace << ",\n     \"phases\": {";
    bool first_phase = true;
    for (const auto& [phase, seconds] : w.phase_seconds) {
      os << (first_phase ? "" : ", ") << "\"" << obs::detail::json_escape(phase)
         << "\": " << fmt_time(seconds);
      first_phase = false;
    }
    os << "},\n     \"critical_hops\": [";
    bool first_hop = true;
    for (const CriticalHop& h : w.critical_hops) {
      os << (first_hop ? "" : ",") << "\n      {\"from\": \""
         << obs::detail::json_escape(h.from) << "\", \"to\": \""
         << obs::detail::json_escape(h.to) << "\", \"phase\": \""
         << hop_phase(h) << "\", \"start\": " << fmt_time(h.start)
         << ", \"end\": " << fmt_time(h.end) << ", \"latency\": "
         << fmt_time(h.latency()) << ", \"held\": "
         << (h.held ? "true" : "false") << ", \"message\": \""
         << obs::detail::json_escape(h.message) << "\"}";
      first_hop = false;
    }
    os << (first_hop ? "" : "\n     ") << "]}";
    first = false;
  }
  os << (first ? "" : "\n  ") << "]\n}\n";
}

void CriticalPathReport::write_text(std::ostream& os) const {
  os << "critical-path report: " << windows.size() << " window(s), "
     << events_seen << " span event(s)\n";
  const std::size_t longest = longest_window();
  for (std::size_t i = 0; i < windows.size(); ++i) {
    const ConvergenceWindow& w = windows[i];
    os << "\nwindow " << i << (i == longest ? " [longest]" : "") << ": "
       << (w.label.empty() ? "(unlabeled)" : w.label) << "\n  converged in "
       << fmt_time(w.duration()) << "s (" << fmt_time(w.armed_at) << " -> "
       << fmt_time(w.converged_at) << "), " << w.traces
       << " sampled trace(s), " << w.hops << " hop(s)\n";
    if (w.critical_hops.empty()) {
      os << "  no sampled chain completed inside the window\n";
      continue;
    }
    os << "  critical chain: trace " << w.critical_trace << ", phases:";
    for (const auto& [phase, seconds] : w.phase_seconds) {
      os << " " << phase << "=" << fmt_time(seconds) << "s";
    }
    os << "\n";
    // The long pole: the slowest hop on the critical chain.
    const auto pole = std::max_element(
        w.critical_hops.begin(), w.critical_hops.end(),
        [](const CriticalHop& a, const CriticalHop& b) {
          return a.latency() < b.latency();
        });
    os << "  long pole: " << pole->from << " -> " << pole->to << " ("
       << hop_phase(*pole) << (pole->held ? ", held" : "") << ") "
       << fmt_time(pole->latency()) << "s: " << pole->message << "\n";
    for (const CriticalHop& h : w.critical_hops) {
      os << "    " << fmt_time(h.start) << " +" << fmt_time(h.latency())
         << "s " << h.from << " -> " << h.to << (h.held ? " [held]" : "")
         << " " << h.message << "\n";
    }
  }
}

namespace {

/// Minimal scraper for the fixed write_span_jsonl schema. Finds
/// "\"<key>\":" and returns the value start, or npos.
std::size_t value_pos(const std::string& line, const char* key) {
  const std::string needle = std::string("\"") + key + "\":";
  const std::size_t at = line.find(needle);
  return at == std::string::npos ? std::string::npos : at + needle.size();
}

/// Inverse of obs::detail::json_escape for the subset it emits.
bool parse_string(const std::string& line, std::size_t pos, std::string& out) {
  if (pos >= line.size() || line[pos] != '"') return false;
  out.clear();
  for (std::size_t i = pos + 1; i < line.size(); ++i) {
    const char c = line[i];
    if (c == '"') return true;
    if (c != '\\') {
      out += c;
      continue;
    }
    if (++i >= line.size()) return false;
    switch (line[i]) {
      case '"': out += '"'; break;
      case '\\': out += '\\'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      case 't': out += '\t'; break;
      case 'u': {
        if (i + 4 >= line.size()) return false;
        unsigned code = 0;
        if (std::sscanf(line.c_str() + i + 1, "%4x", &code) != 1) return false;
        out += static_cast<char>(code & 0x7F);
        i += 4;
        break;
      }
      default: return false;
    }
  }
  return false;  // unterminated
}

}  // namespace

std::vector<obs::SpanEvent> read_spans_jsonl(std::istream& is) {
  std::vector<obs::SpanEvent> events;
  std::string line;
  while (std::getline(is, line)) {
    obs::SpanEvent event;
    const std::size_t id_at = value_pos(line, "trace_id");
    const std::size_t time_at = value_pos(line, "sim_time_seconds");
    const std::size_t kind_at = value_pos(line, "event");
    if (id_at == std::string::npos || time_at == std::string::npos ||
        kind_at == std::string::npos) {
      continue;
    }
    event.trace_id = std::strtoull(line.c_str() + id_at, nullptr, 10);
    event.sim_time =
        net::SimTime::seconds_f(std::strtod(line.c_str() + time_at, nullptr));
    std::string kind_text;
    if (!parse_string(line, kind_at, kind_text) ||
        !obs::kind_from_string(kind_text, event.kind)) {
      continue;
    }
    const std::size_t from_at = value_pos(line, "from");
    const std::size_t to_at = value_pos(line, "to");
    const std::size_t msg_at = value_pos(line, "message");
    if (from_at != std::string::npos) parse_string(line, from_at, event.from);
    if (to_at != std::string::npos) parse_string(line, to_at, event.to);
    if (msg_at != std::string::npos) parse_string(line, msg_at, event.message);
    events.push_back(std::move(event));
  }
  return events;
}

}  // namespace eval
