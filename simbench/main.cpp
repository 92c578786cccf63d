// simbench — one rep of one workload of the end-to-end benchmark.
//
//   simbench --workload flap-4k|churn-1k|masc-alloc --seed N
//            [--no-telemetry] [--trace] [--spans-out FILE]
//            [--inject-bad-digest]
//   simbench --host-probe
//
// A rep is one whole batch job in a fresh process, as a user runs it: set
// up, run every phase, check the outputs. run.py repeats reps for the
// measured time and reports medians; README.md explains the workloads and
// metrics. The rep builds its scenario through the libraries' public API
// and times each phase from this file. --trace also wraps every call into
// a layer in a span, turns on the simulator's step profiling, appends the
// spans to --spans-out as JSONL and reports per-layer values.
//
// Prints one JSON object: the rep's timings, its check outcomes, the
// digests that must agree across reps, the simulated end-to-end metrics
// and, traced, the per-layer values. Exits 1 if the rep could not run.
// --host-probe runs only the host probe (see host_probe) and prints its
// CPU seconds.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bgmp/router.hpp"
#include "bgp/speaker.hpp"
#include "core/domain.hpp"
#include "core/internet.hpp"
#include "eval/args.hpp"
#include "eval/masc_sim.hpp"
#include "eval/scenario.hpp"
#include "eval/telemetry.hpp"
#include "masc/types.hpp"
#include "net/prefix.hpp"
#include "trace.hpp"
#include "workload/session.hpp"
#include "workload_loop.hpp"

namespace simbench {
namespace {

using Clock = std::chrono::steady_clock;
using Values = std::map<std::string, double>;

/// CPU seconds of the whole process, user and system, all threads. A
/// kernel that accounts steal time leaves out the time the host ran other
/// guests on this vCPU.
double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Times an interval on the wall clock and in process CPU time. The
/// end-to-end timings are CPU seconds: the rep runs on one thread, so they
/// are its wall time less the time it waited for a CPU, which on a shared
/// host is other programs' load. The wall clock times the spans, so the
/// accounting check compares spans with wall seconds.
struct Stopwatch {
  Clock::time_point wall0 = Clock::now();
  double cpu0 = cpu_seconds();

  [[nodiscard]] double wall_s() const {
    return std::chrono::duration<double>(Clock::now() - wall0).count();
  }
  [[nodiscard]] double cpu_s() const { return cpu_seconds() - cpu0; }
};

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double peak_rss_mib() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ------------------------------------------------------------ host probe

/// Fixed work of the simulator's kind, timed in CPU seconds: a pointer
/// chase through a 32 MiB table and a hash map's inserts and lookups, both
/// bound by memory latency. The host's memory speed drifts with other
/// programs' load by a quarter either way over minutes, and the workloads'
/// CPU time with it; run.py scales each rep's timings by the probes run
/// next to it (README.md, "Timing").
volatile std::uint64_t probe_sink;  // keeps the probe's work

double host_probe() {
  const Stopwatch probe;
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  const auto draw = [&x] {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    return x >> 33;
  };
  constexpr std::uint32_t kTable = 1u << 23;
  std::vector<std::uint32_t> next(kTable);
  for (std::uint32_t i = 0; i < kTable; ++i) {
    next[i] = static_cast<std::uint32_t>(draw()) & (kTable - 1);
  }
  std::uint32_t at = 0;
  for (std::uint32_t i = 0; i < 2'000'000; ++i) at = next[at] ^ (i & 1);
  std::unordered_map<std::uint64_t, std::uint64_t> map;
  std::uint64_t found = 0;
  for (std::uint64_t i = 0; i < 600'000; ++i) {
    map[draw() >> 12] += i;
    found += map.count(draw() >> 12);
  }
  probe_sink = at + found;
  return probe.cpu_s();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  bool no_telemetry = false;
  bool trace = false;
  std::string spans_out;
  bool inject_bad_digest = false;
  bool host_probe = false;
};

struct Check {
  std::string name;
  bool ok;
  std::string detail;
};

/// Everything one rep reports.
struct Rep {
  std::vector<double> setup_cpu_s;
  double run_s = 0.0;  // wall
  double run_cpu_s = 0.0;
  /// The work the rep's throughput counts: messages delivered, or block
  /// requests served on masc-alloc.
  double work = 0.0;
  std::uint64_t attempted = 0;
  std::vector<Check> checks;
  /// Must be identical in every rep of a run, whatever its telemetry or
  /// tracing (decimal strings: they are 64-bit).
  std::map<std::string, std::string> digests;
  Values sim;     // simulated end-to-end metrics
  Values layers;  // per-layer values (traced reps)
  std::vector<Span> spans;

  void check(const std::string& name, bool ok, const std::string& detail) {
    checks.push_back({name, ok, ok ? std::string() : detail});
  }
  void check_equal(const std::string& name, std::uint64_t got,
                   std::uint64_t want) {
    check(name, got == want,
          "got " + std::to_string(got) + ", want " + std::to_string(want));
  }
};

void add_trace_values(const Tracer& tracer, double run_s, Rep& rep) {
  for (const auto& [layer, seconds] : tracer.self_seconds_by_layer()) {
    // Phase spans hold the benchmark's own glue between calls.
    rep.layers[(layer == "phase" ? std::string("bench") : layer) +
               ".self_s"] += seconds;
  }
  const double gap = tracer.unattributed_share(run_s);
  rep.layers["trace.unattributed_share"] = gap;
  rep.check("spans_cover_run_s", gap >= -1e-9 && gap <= kPhaseSlack,
            "unattributed share " + std::to_string(gap));
  rep.spans = tracer.spans();
}

// ------------------------------------------------------------ internet

/// Telemetry as a user who explains a run afterwards attaches it: a
/// recorder frame every simulated second, 1% head-sampled spans.
eval::TelemetrySpec user_telemetry() {
  eval::TelemetrySpec t;
  t.recorder_interval_seconds = 1.0;
  t.span_sample_rate = 0.01;
  return t;
}

/// The committed ladder shape above 512 domains: 64 backbone tops, 256
/// active children, 2 flapped ring pairs, 128 groups × 4 joins.
eval::ScenarioSpec ladder_spec(int domains, std::uint64_t seed,
                               bool with_workload) {
  eval::ScenarioSpec spec;
  spec.domains = domains;
  spec.seed = seed;
  spec.groups = 128;
  spec.joins = 4;
  spec.max_tops = 64;
  spec.active_children = 256;
  spec.flap_pairs = 2;
  spec.workload.enabled = with_workload;
  return spec;
}

/// Each rep times this many set-ups of its internet: it builds and drops
/// kInternetSetups - 1 internets, then builds the one it runs.
constexpr int kInternetSetups = 5;

/// One rep of flap-4k or churn-1k: set up, then claim → groups → (lease →
/// workload) → flap, each phase a span. The phases replicate
/// eval::phase_claim / phase_groups / phase_workload / phase_flap call for
/// call, so the committed digests reproduce.
Rep run_internet(const Options& opt) {
  const bool churn = opt.workload == "churn-1k";
  const eval::ScenarioSpec spec = churn ? ladder_spec(1024, opt.seed, true)
                                        : ladder_spec(4096, opt.seed, false);
  const bool telemetry_on = churn && !opt.no_telemetry;
  Rep rep;
  Tracer tracer(opt.trace);

  for (int i = 1; i < kInternetSetups; ++i) {
    const Stopwatch setup;
    core::Internet scratch(spec.seed);
    std::optional<eval::TelemetrySession> t;
    if (telemetry_on) t.emplace(scratch, user_telemetry());
    if (opt.trace) scratch.enable_step_profiling();
    (void)eval::build_scenario(scratch, spec);
    rep.setup_cpu_s.push_back(setup.cpu_s());
  }  // torn down untimed

  const Stopwatch setup;
  core::Internet net(spec.seed);
  // Declared after the internet so it detaches before the network dies.
  std::optional<eval::TelemetrySession> telemetry;
  if (telemetry_on) telemetry.emplace(net, user_telemetry());
  if (opt.trace) net.enable_step_profiling();
  const eval::BuiltScenario topo = eval::build_scenario(net, spec);
  rep.setup_cpu_s.push_back(setup.cpu_s());

  const auto settle = [&] {
    const auto span = tracer.call("net.settle");
    net.settle();
  };
  // Traced reps snapshot the registry at the end of each phase, inside the
  // phase span; per-phase BGP update counts are the snapshot deltas.
  std::uint64_t updates_seen = 0;
  std::uint64_t claim_flap_updates = 0;
  const auto phase_end_updates = [&] {
    if (!opt.trace) return std::uint64_t{0};
    const auto span = tracer.call("obs.snapshot");
    const std::uint64_t now =
        net.metrics_snapshot().counter_value("bgp.updates_sent");
    const std::uint64_t delta = now - updates_seen;
    updates_seen = now;
    return delta;
  };
  // MAAS leases. A refusal is a modelled outcome, not a failure: the
  // domain's MASC claim gave up after max_retries collisions in the claim
  // storm of the 64 backbone tops. It is the same on every rep and pinned
  // by the digests.
  std::uint64_t masc_calls = 0;
  std::uint64_t refusals = 0;
  const auto lease = [&](core::Domain& initiator) {
    ++rep.attempted;
    std::optional<masc::AddressLease> l;
    {
      const auto span = tracer.call("masc.create_group");
      l = initiator.create_group();
      ++masc_calls;
    }
    if (!l.has_value()) {
      settle();  // the claim path is asynchronous; retry once settled
      const auto span = tracer.call("masc.create_group");
      l = initiator.create_group();
      ++masc_calls;
    }
    if (!l.has_value()) ++refusals;
    return l;
  };

  const Stopwatch run;
  {
    const auto phase = tracer.phase("phase.claim");
    for (core::Domain* t : topo.tops) {
      const auto span = tracer.call("masc.request_space");
      t->masc_node().set_spaces({net::multicast_space()});
      t->masc_node().request_space(65536);
      ++masc_calls;
    }
    settle();
    for (core::Domain* c : topo.active) {
      const auto span = tracer.call("masc.request_space");
      c->masc_node().request_space(256);
      ++masc_calls;
    }
    settle();
    claim_flap_updates += phase_end_updates();
  }

  {
    const auto phase = tracer.phase("phase.groups");
    net::Rng rng = eval::make_workload_rng(spec.seed);
    std::vector<std::pair<core::Domain*, net::Ipv4Addr>> live;
    for (int g = 0; g < spec.effective_groups() && !topo.active.empty(); ++g) {
      core::Domain* initiator =
          topo.active[static_cast<std::size_t>(g) % topo.active.size()];
      if (const auto l = lease(*initiator)) {
        live.emplace_back(initiator, l->address);
      }
    }
    settle();
    for (const auto& [root, group] : live) {
      for (int j = 0; j < spec.joins; ++j) {
        // One draw per pick whether or not it lands, as phase_groups does.
        core::Domain& member = net.domain(rng.index(net.domain_count()));
        if (&member == root) continue;
        const auto span = tracer.call("bgmp.host_join");
        member.host_join(group);
      }
    }
    settle();
    for (const auto& [root, group] : live) {
      const auto span = tracer.call("bgmp.send");
      root->send(group);
    }
    settle();
    (void)phase_end_updates();
  }

  std::unique_ptr<workload::Session> session;
  if (spec.workload.enabled) {
    net::SimTime start;
    {
      const auto phase = tracer.phase("phase.lease");
      std::vector<workload::GroupSite> sites;
      std::uint64_t failures = 0;
      for (int g = 0; g < spec.workload.groups; ++g) {
        const std::size_t pick =
            static_cast<std::size_t>(g) % topo.active.size();
        if (const auto l = lease(*topo.active[pick])) {
          // Domains were added tops-first, so child k is domain tops+k.
          sites.push_back({topo.tops.size() + pick, l->address});
        } else {
          ++failures;
        }
      }
      settle();
      if (sites.empty()) throw std::runtime_error("no workload group leased");
      const auto span = tracer.call("workload.session");
      session = std::make_unique<workload::Session>(
          net, spec.workload, std::move(sites), spec.seed);
      session->set_lease_failures(failures);
      start = net.events().now();
    }
    {
      const auto phase = tracer.phase("phase.workload");
      run_workload(net, *session, spec.workload, start, tracer);
      (void)phase_end_updates();
    }
  }

  {
    const auto phase = tracer.phase("phase.flap");
    const int tops = static_cast<int>(topo.tops.size());
    for (int i = 0; i + 1 < tops; i += 2) {
      if (spec.flap_pairs > 0 && i / 2 >= spec.flap_pairs) break;
      for (const bool up : {false, true}) {
        {
          const auto span = tracer.call("core.set_link_state");
          net.set_link_state(*topo.tops[i], *topo.tops[i + 1], up);
        }
        settle();
      }
    }
    if (telemetry.has_value()) {
      const auto span = tracer.call("obs.final_tick");
      telemetry->final_tick();
    }
    claim_flap_updates += phase_end_updates();
  }
  rep.run_s = run.wall_s();
  rep.run_cpu_s = run.cpu_s();

  // ---- outputs and checks (untimed)
  const obs::Snapshot m = net.metrics_snapshot();
  const auto count = [&](const char* name) {
    return static_cast<double>(m.counter_value(name));
  };
  const std::uint64_t rib_digest = eval::rib_digest(net);
  std::optional<workload::SessionReport> report;
  if (session) report = session->report();
  rep.work = count("net.messages_delivered");
  const double domains = static_cast<double>(net.domain_count());

  rep.digests["rib_digest"] = std::to_string(rib_digest);
  rep.digests["events_run"] = std::to_string(net.events().events_run());
  rep.digests["lease_refusals"] = std::to_string(refusals);
  if (report) {
    rep.digests["engine_digest"] = std::to_string(report->engine_digest);
    rep.digests["members_total"] = std::to_string(report->members_total);
  }
  if (opt.seed == 1) {
    // The committed seed-1 values: BENCH_macro.json's 4096-domain rung and
    // its 1024-domain one-week workload rung.
    const std::uint64_t flip = opt.inject_bad_digest ? 1 : 0;
    if (churn) {
      rep.check_equal("rib_digest_committed", rib_digest,
                      17190861011502143753ull ^ flip);
      rep.check_equal("members_total_committed", report->members_total,
                      1274207);
      rep.check_equal("engine_digest_committed", report->engine_digest,
                      15244100238329976196ull);
    } else {
      rep.check_equal("rib_digest_committed", rib_digest,
                      12383433717242051977ull ^ flip);
    }
  }

  rep.sim = {
      {"msgs_sent", count("net.messages_sent")},
      {"state_bytes_per_domain", m.gauge_value("core.state_bytes_per_domain")},
      {"join_mean_sim_s",
       m.histogram_stats("bgmp.join_propagation_latency").mean()},
      {"reconverge_mean_sim_s",
       m.histogram_stats("core.convergence_latency").mean()},
      {"addr_utilization", m.gauge_value("masc.pool_utilization")},
      {"grib_routes_avg", m.gauge_value("bgp.grib_routes") / domains},
  };
  if (!opt.trace) return rep;

  // ---- per-layer values
  const auto total = [&](std::string_view name) { return tracer.total(name); };
  Values& lv = rep.layers;
  lv["net.events_run"] = static_cast<double>(net.events().events_run());
  lv["net.msgs_delivered"] = count("net.messages_delivered");
  lv["net.batched_share"] =
      ratio(count("net.deliveries_batched"), count("net.messages_delivered"));
  lv["net.deliver_s"] =
      m.histogram_stats("sim.step_wall_seconds.net.deliver").sum;
  const topology::DynamicPaths::Stats& paths = net.domain_paths().stats();
  lv["topology.path_nodes_touched"] = static_cast<double>(paths.nodes_touched);
  lv["topology.path_full_builds"] = static_cast<double>(paths.full_builds);
  lv["phase.claim_s"] = total("phase.claim");
  lv["phase.flap_s"] = total("phase.flap");
  lv["bgp.updates_sent"] = count("bgp.updates_sent");
  lv["bgp.routes_announced"] = count("bgp.routes_announced");
  lv["bgp.routes_withdrawn"] = count("bgp.routes_withdrawn");
  lv["bgp.routes_per_update"] =
      ratio(count("bgp.routes_announced") + count("bgp.routes_withdrawn"),
            count("bgp.updates_sent"));
  lv["bgp.us_per_update"] =
      1e6 * ratio(total("phase.claim") + total("phase.flap"),
                  static_cast<double>(claim_flap_updates));
  double speaker_bytes = 0.0;
  double router_bytes = 0.0;
  for (std::size_t i = 0; i < net.domain_count(); ++i) {
    core::Domain& d = net.domain(i);
    for (std::size_t b = 0; b < d.border_count(); ++b) {
      speaker_bytes += static_cast<double>(d.speaker(b).state_bytes());
      router_bytes += static_cast<double>(d.bgmp_router(b).state_bytes());
    }
  }
  lv["bgp.state_bytes_per_domain"] = speaker_bytes / domains;
  lv["phase.groups_s"] = total("phase.groups");
  lv["bgmp.joins_sent"] = count("bgmp.joins_sent");
  lv["bgmp.prunes_sent"] = count("bgmp.prunes_sent");
  lv["bgmp.entries_created"] = count("bgmp.entries_created");
  lv["bgmp.state_bytes_per_domain"] = router_bytes / domains;
  lv["step.bgmp.reresolve_s"] =
      m.histogram_stats("sim.step_wall_seconds.bgmp.reresolve").sum;
  if (report) {
    // The workload phase's event-queue catch-up: run_until between ticks
    // plus the closing settle.
    double settle_s = total("net.run_until");
    for (const Span& s : tracer.spans()) {
      if (s.parent >= 0 && std::string_view(s.name) == "net.settle" &&
          std::string_view(tracer.spans()[s.parent].name) ==
              "phase.workload") {
        settle_s += s.seconds();
      }
    }
    const auto ticks = static_cast<double>(report->ticks_run);
    lv["workload.settle_s"] = settle_s;
    lv["workload.advance_s"] = total("workload.advance_to");
    lv["workload.lease_s"] = total("phase.lease");
    lv["workload.ticks"] = ticks;
    lv["workload.us_per_tick"] =
        1e6 * ratio(total("workload.advance_to"), ticks);
    lv["workload.tree_join_share"] =
        ratio(static_cast<double>(report->tree_joins),
              static_cast<double>(report->joins_total));
  }
  if (telemetry) {
    lv["obs.recorder_frames"] =
        static_cast<double>(telemetry->recorder_frames());
    lv["obs.spans_sampled"] = static_cast<double>(telemetry->spans_recorded());
  }
  lv["obs.snapshot_s"] = total("obs.snapshot");
  lv["masc.claims_sent"] = count("masc.claims_sent");
  lv["masc.claims_granted"] = count("masc.claims_granted");
  lv["masc.grant_ratio"] =
      ratio(count("masc.claims_granted"), count("masc.claims_sent"));
  lv["masc.collisions"] = count("masc.collisions_suffered");
  lv["masc.requests_served"] = static_cast<double>(rep.attempted - refusals);
  lv["masc.leases_refused"] = static_cast<double>(refusals);
  lv["masc.us_per_request"] =
      1e6 * ratio(total("masc.create_group") + total("masc.request_space"),
                  static_cast<double>(masc_calls));
  add_trace_values(tracer, rep.run_s, rep);
  return rep;
}

// ------------------------------------------------------------ masc-alloc

/// masc-alloc's set-up takes well under a millisecond, so each rep times
/// it this many times.
constexpr int kMascSetups = 9;

Rep run_masc(const Options& opt) {
  Rep rep;
  eval::MascSimParams params;  // Figure 2: 50 × 50 domains, 800 days
  params.seed = opt.seed;
  // Set-up is everything run_masc_sim does before the first request: a
  // zero horizon builds the hierarchy, seeds every request process and
  // checks the (empty) invariants, then stops.
  eval::MascSimParams empty = params;
  empty.horizon = net::SimTime::days(0);
  for (int i = 0; i < kMascSetups; ++i) {
    const Stopwatch setup;
    const eval::MascSimResult r = eval::run_masc_sim(empty);
    rep.setup_cpu_s.push_back(setup.cpu_s());
    if (r.requests_served != 0) throw std::logic_error("set-up served work");
  }

  Tracer tracer(opt.trace);
  eval::MascSimResult result;
  const Stopwatch run;
  {
    const auto phase = tracer.phase("phase.masc");
    const auto span = tracer.call("masc.run_masc_sim");
    result = eval::run_masc_sim(params);
  }
  rep.run_s = run.wall_s();
  rep.run_cpu_s = run.cpu_s();

  const eval::MascSimSample steady = result.steady_state(400.0);
  const obs::Snapshot& m = result.final_metrics;
  const obs::HistogramStats grants =
      m.histogram_stats("masc.claim_grant_latency");
  const obs::HistogramStats collisions =
      m.histogram_stats("masc.collision_resolution_latency");
  const auto failures = static_cast<std::uint64_t>(result.allocation_failures);
  rep.work = static_cast<double>(result.requests_served);
  rep.attempted = result.requests_served + failures;
  rep.check("invariants_ok", result.invariants_ok,
            "allocation invariants violated");
  rep.check_equal("allocation_failures", failures, 0);
  if (opt.inject_bad_digest) {
    rep.check("injected_failure", false, "--inject-bad-digest");
  }
  rep.digests["requests_served"] = std::to_string(result.requests_served);
  rep.digests["claims"] = std::to_string(grants.count + collisions.count);

  const double domains = static_cast<double>(
      params.top_level_domains * (1 + params.children_per_top));
  rep.sim = {
      // No message network here: a message is one claim, granted or
      // collided, as the protocol-level node would send it.
      {"msgs_sent", static_cast<double>(grants.count + collisions.count)},
      // Per-domain state is the claim records the domains hold.
      {"state_bytes_per_domain",
       static_cast<double>(steady.total_prefixes) *
           static_cast<double>(sizeof(masc::ClaimedPrefix)) / domains},
      // A "join" waits out a claim before the new block is usable;
      // convergence is any claim wait, collisions included.
      {"join_mean_sim_s", grants.mean()},
      {"reconverge_mean_sim_s",
       ratio(grants.sum + collisions.sum,
             static_cast<double>(grants.count + collisions.count))},
      {"addr_utilization", steady.utilization},
      {"grib_routes_avg", steady.grib_average},
  };
  if (!opt.trace) return rep;

  Values& lv = rep.layers;
  lv["masc.claims_sent"] = static_cast<double>(grants.count + collisions.count);
  lv["masc.claims_granted"] = static_cast<double>(grants.count);
  lv["masc.grant_ratio"] =
      ratio(static_cast<double>(grants.count),
            static_cast<double>(grants.count + collisions.count));
  lv["masc.collisions"] = static_cast<double>(collisions.count);
  lv["masc.requests_served"] = static_cast<double>(result.requests_served);
  lv["masc.expansions"] =
      static_cast<double>(m.counter_value("masc.expansions_executed"));
  lv["masc.us_per_request"] =
      1e6 * ratio(rep.run_s, static_cast<double>(result.requests_served));
  add_trace_values(tracer, rep.run_s, rep);
  return rep;
}

// ------------------------------------------------------------ output

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + '"';
}

void write_values(std::ostream& os, const Values& values) {
  os << '{';
  const char* sep = "";
  for (const auto& [name, value] : values) {
    os << sep << json_string(name) << ": " << json_number(value);
    sep = ", ";
  }
  os << '}';
}

void write_rep(std::ostream& os, const Rep& rep) {
  const auto write_list = [&](const std::vector<double>& v) {
    os << '[';
    for (std::size_t i = 0; i < v.size(); ++i) {
      os << (i == 0 ? "" : ", ") << json_number(v[i]);
    }
    os << ']';
  };
  os << "{\"setup_cpu_s\": ";
  write_list(rep.setup_cpu_s);
  os << ", \"run_s\": " << json_number(rep.run_s)
     << ", \"run_cpu_s\": " << json_number(rep.run_cpu_s)
     << ", \"peak_rss_mib\": " << json_number(peak_rss_mib())
     << ", \"work\": " << json_number(rep.work)
     << ", \"attempted\": " << rep.attempted << ", \"checks\": [";
  for (std::size_t i = 0; i < rep.checks.size(); ++i) {
    const Check& c = rep.checks[i];
    os << (i == 0 ? "" : ", ") << "{\"name\": " << json_string(c.name)
       << ", \"ok\": " << (c.ok ? "true" : "false")
       << ", \"detail\": " << json_string(c.detail) << '}';
  }
  os << "], \"digests\": {";
  const char* sep = "";
  for (const auto& [name, value] : rep.digests) {
    os << sep << json_string(name) << ": " << json_string(value);
    sep = ", ";
  }
  os << "}, \"sim\": ";
  write_values(os, rep.sim);
  os << ", \"layers\": ";
  write_values(os, rep.layers);
  os << "}\n";
}

int run(int argc, char** argv) {
  Options opt;
  eval::Args args("simbench", "one rep of one end-to-end benchmark workload");
  args.opt("--workload", &opt.workload, "flap-4k | churn-1k | masc-alloc");
  args.opt("--seed", &opt.seed, "input seed (1 = the committed seed)");
  args.flag("--no-telemetry", &opt.no_telemetry,
            "churn-1k: run without the telemetry the workload attaches");
  args.flag("--trace", &opt.trace,
            "span every call into a layer and report per-layer values");
  args.opt("--spans-out", &opt.spans_out,
           "with --trace: append the spans to this file as JSONL");
  args.flag("--inject-bad-digest", &opt.inject_bad_digest,
            "self-test: expect a wrong value, so the rep's checks fail");
  args.flag("--host-probe", &opt.host_probe,
            "run only the host probe and print its CPU seconds");
  if (!args.parse(argc, argv)) return args.exit_code();
  if (opt.host_probe) {
    std::cout << "{\"probe_cpu_s\": " << json_number(host_probe()) << "}\n";
    return 0;
  }

  Rep rep;
  if (opt.workload == "flap-4k" || opt.workload == "churn-1k") {
    rep = run_internet(opt);
  } else if (opt.workload == "masc-alloc") {
    rep = run_masc(opt);
  } else {
    std::cerr << "simbench: unknown workload '" << opt.workload << "'\n";
    return 2;
  }
  if (!opt.spans_out.empty()) {
    std::ofstream out(opt.spans_out, std::ios::app);
    if (!out) {
      std::cerr << "simbench: cannot write " << opt.spans_out << "\n";
      return 2;
    }
    Tracer::write_jsonl(out, rep.spans,
                        opt.workload + "/seed" + std::to_string(opt.seed));
  }
  write_rep(std::cout, rep);
  return 0;
}

}  // namespace
}  // namespace simbench

int main(int argc, char** argv) {
  try {
    return simbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "simbench: " << e.what() << "\n";
    return 1;
  }
}
