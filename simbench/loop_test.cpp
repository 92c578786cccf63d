// The benchmark's workload loop (workload_loop.hpp) must reproduce
// workload::Session::run() exactly: same engine digest, member count,
// BGMP transitions, converged RIBs and message count. Each case runs the
// same scenario twice, once per loop, and compares. Exits 1 on any
// difference.
#include <cstdint>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>

#include "core/internet.hpp"
#include "eval/scenario.hpp"
#include "trace.hpp"
#include "workload/session.hpp"
#include "workload_loop.hpp"

namespace {

struct Outcome {
  std::uint64_t engine_digest = 0;
  std::uint64_t members_total = 0;
  std::uint64_t tree_joins = 0;
  std::uint64_t tree_prunes = 0;
  std::int64_t ticks_run = 0;
  std::uint64_t rib_digest = 0;
  std::uint64_t messages_sent = 0;
  std::uint64_t events_run = 0;
};

Outcome run(const eval::ScenarioSpec& spec, bool benchmark_loop) {
  core::Internet net(spec.seed);
  const eval::BuiltScenario topo = eval::build_scenario(net, spec);
  eval::phase_claim(net, topo);
  net::Rng rng = eval::make_workload_rng(spec.seed);
  (void)eval::phase_groups(net, spec, topo, rng);
  std::unique_ptr<workload::Session> session =
      eval::phase_workload(net, spec, topo);
  if (!session) throw std::runtime_error("no workload session");
  if (benchmark_loop) {
    simbench::Tracer tracer(/*trace_calls=*/true);
    simbench::run_workload(net, *session, spec.workload, net.events().now(),
                           tracer);
  } else {
    session->run();
  }
  const workload::SessionReport report = session->report();
  return {report.engine_digest,
          report.members_total,
          report.tree_joins,
          report.tree_prunes,
          report.ticks_run,
          eval::rib_digest(net),
          net.metrics_snapshot().counter_value("net.messages_sent"),
          net.events().events_run()};
}

int check(const std::string& name, const eval::ScenarioSpec& spec) {
  const Outcome want = run(spec, false);
  const Outcome got = run(spec, true);
  int failures = 0;
  const auto same = [&](const char* what, std::uint64_t a, std::uint64_t b) {
    if (a == b) return;
    std::cerr << name << ": " << what << " differs: Session::run " << a
              << ", benchmark loop " << b << "\n";
    ++failures;
  };
  same("engine_digest", want.engine_digest, got.engine_digest);
  same("members_total", want.members_total, got.members_total);
  same("tree_joins", want.tree_joins, got.tree_joins);
  same("tree_prunes", want.tree_prunes, got.tree_prunes);
  same("ticks_run", static_cast<std::uint64_t>(want.ticks_run),
       static_cast<std::uint64_t>(got.ticks_run));
  same("rib_digest", want.rib_digest, got.rib_digest);
  same("messages_sent", want.messages_sent, got.messages_sent);
  same("events_run", want.events_run, got.events_run);
  if (want.members_total == 0 || want.tree_joins == 0) {
    std::cerr << name << ": the workload did no work\n";
    ++failures;
  }
  std::cout << name << ": " << (failures == 0 ? "ok" : "FAILED")
            << " (engine digest " << got.engine_digest << ", "
            << got.members_total << " members, " << got.ticks_run
            << " ticks)\n";
  return failures;
}

}  // namespace

int main() {
  int failures = 0;
  // The small spec: every churn process at test scale.
  eval::ScenarioSpec small;
  small.domains = 64;
  small.seed = 3;
  small.workload = workload::Spec::small();
  failures += check("small-64", small);
  // The churn-1k process parameters (default Spec) over one simulated day
  // on a 256-domain capped scenario: diurnal swing and flash crowds.
  eval::ScenarioSpec day;
  day.domains = 256;
  day.seed = 1;
  day.groups = 32;
  day.max_tops = 16;
  day.active_children = 64;
  day.workload.enabled = true;
  day.workload.groups = 400;
  day.workload.sim_days = 1.0;
  failures += check("day-256", day);
  return failures == 0 ? 0 : 1;
}
