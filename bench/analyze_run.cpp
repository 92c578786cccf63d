// Offline critical-path analysis of a spans JSONL artifact.
//
// Any harness that ran with span sampling (macro_scenario --telemetry,
// chaos_scenario --telemetry, sweep_scenario --telemetry-dir) leaves a
// `.spans.jsonl` file: probe arm/fire markers plus the head-sampled
// causal chains. This tool reconstructs each convergence measurement's
// critical path from that file alone — the longest chain of
// send/hold/deliver hops behind every `core.convergence_latency`
// observation, broken down by protocol phase (bgp / bgmp / masc / wait)
// with its single slowest hop called out.
//
// The report is a pure function of the input bytes: the same spans file
// produces a byte-identical report no matter the host, thread count or
// how many times it is run — determinism the telemetry tests gate on.
//
// Usage:
//   analyze_run SPANS.jsonl [--json] [--out FILE]
//
// Default output is the human-readable long-pole summary; --json emits
// the machine-readable report instead.
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "eval/args.hpp"
#include "eval/critical_path.hpp"

int main(int argc, char** argv) {
  bool json = false;
  std::string out_path;
  std::string in_path;

  eval::Args args("analyze_run",
                  "critical-path analysis of a sampled spans JSONL file");
  args.positional("SPANS.jsonl", &in_path, "spans JSONL file to analyze");
  args.opt("--spans", &in_path, "spans JSONL file (or the bare argument)");
  args.flag("--json", &json, "emit the machine-readable JSON report");
  args.opt("--out", &out_path, "also write the report here");
  if (!args.parse(argc, argv)) return args.exit_code();
  if (in_path.empty()) {
    std::cerr << "analyze_run: no spans file given (positional or --spans)\n";
    return 2;
  }

  std::ifstream in(in_path);
  if (!in) {
    std::cerr << "analyze_run: cannot read " << in_path << "\n";
    return 2;
  }
  const std::vector<obs::SpanEvent> events = eval::read_spans_jsonl(in);
  const eval::CriticalPathReport report = eval::analyze_spans(events);

  if (json) {
    report.write_json(std::cout);
  } else {
    report.write_text(std::cout);
  }
  if (!out_path.empty()) {
    std::ofstream out(out_path);
    if (!out) {
      std::cerr << "analyze_run: cannot write " << out_path << "\n";
      return 2;
    }
    if (json) {
      report.write_json(out);
    } else {
      report.write_text(out);
    }
  }
  return 0;
}
