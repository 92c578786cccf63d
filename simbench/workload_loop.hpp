// The benchmark's replacement for workload::Session::run(). It applies
// the same tick schedule through the session's public calls, but keeps
// the churn (advance_to, the workload engine) and the protocol catch-up
// (run_until, BGMP joins and prunes on the event queue) as separate calls
// so each half can be timed. loop_test.cpp proves it reproduces
// Session::run() exactly.
#pragma once

#include <cstdint>

#include "core/internet.hpp"
#include "net/time.hpp"
#include "trace.hpp"
#include "workload/session.hpp"
#include "workload/spec.hpp"

namespace simbench {

/// `start` is the simulated time the session was constructed at (its
/// tick 0); no events may have run since.
inline void run_workload(core::Internet& net, workload::Session& session,
                         const workload::Spec& spec, net::SimTime start,
                         Tracer& tracer) {
  const auto tick_time = [&](std::int64_t i) {
    return start +
           net::SimTime::seconds_f(spec.tick_seconds * static_cast<double>(i));
  };
  const std::int64_t ticks = spec.ticks();
  for (std::int64_t i = 0; i < ticks; ++i) {
    {
      const auto span = tracer.call("workload.advance_to");
      session.advance_to(tick_time(i));
    }
    const auto span = tracer.call("net.run_until");
    net.run_until(tick_time(i + 1));
  }
  {
    const auto span = tracer.call("net.settle");
    net.settle();
  }
  const auto span = tracer.call("workload.finish");
  session.finish();
}

}  // namespace simbench
