// Injection self-test of the traced run's accounting check
// (Tracer::unattributed_share against kPhaseSlack): a run whose call spans
// cover its stopwatch time passes, and host time spent outside every call
// span, inside a phase or between phases, trips it. Exits 1 if the check
// does not decide each case as expected.
#include <chrono>
#include <iostream>
#include <string>

#include "trace.hpp"

namespace {

using Clock = std::chrono::steady_clock;

/// Spins for `ms` host milliseconds, so the time is spent, not slept.
void busy(int ms) {
  const auto until = Clock::now() + std::chrono::milliseconds(ms);
  while (Clock::now() < until) {
  }
}

enum class Glue { kNone, kInsidePhase, kBetweenPhases };

/// Two phases of one 50 ms call each, with 5 ms of glue where `glue`
/// says; returns the run's unattributed share.
double run(Glue glue) {
  simbench::Tracer tracer(/*trace_calls=*/true);
  const auto t0 = Clock::now();
  {
    const auto phase = tracer.phase("phase.one");
    {
      const auto span = tracer.call("net.settle");
      busy(50);
    }
    if (glue == Glue::kInsidePhase) busy(5);
  }
  if (glue == Glue::kBetweenPhases) busy(5);
  {
    const auto phase = tracer.phase("phase.two");
    const auto span = tracer.call("net.settle");
    busy(50);
  }
  const double run_s = std::chrono::duration<double>(Clock::now() - t0).count();
  return tracer.unattributed_share(run_s);
}

int expect(const std::string& name, Glue glue, bool want_pass) {
  const double share = run(glue);
  const bool pass = share >= -1e-9 && share <= simbench::kPhaseSlack;
  const bool ok = pass == want_pass;
  std::cout << name << ": " << (ok ? "ok" : "FAILED") << " (unattributed "
            << share << ", check " << (pass ? "passes" : "trips") << ")\n";
  return ok ? 0 : 1;
}

}  // namespace

int main() {
  int failures = 0;
  failures += expect("covered", Glue::kNone, true);
  failures += expect("glue-inside-phase", Glue::kInsidePhase, false);
  failures += expect("glue-between-phases", Glue::kBetweenPhases, false);
  return failures == 0 ? 0 : 1;
}
