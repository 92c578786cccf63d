// Stack-level tests for the second observability tier: causal trace-id
// propagation across lossy and partitioned links, span reconstruction of a
// BGMP join leaf→root from the span JSONL format, the convergence probe's
// one-sample-per-perturbation contract, protocol log records on the span
// stream (clock, chain, sampling, JSONL, analyzer), the five
// <module>.<noun>_latency instruments, and gauge stability across
// back-to-back snapshots of a quiescent network.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/domain.hpp"
#include "core/internet.hpp"
#include "eval/critical_path.hpp"
#include "masc/node.hpp"
#include "net/network.hpp"
#include "net/probe.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace {

using core::Domain;
using core::Internet;

// ------------------------------------------------------- net-level helpers

struct TestMsg final : net::Message {
  [[nodiscard]] std::string describe() const override { return "TEST"; }
};

struct TestEndpoint final : net::Endpoint {
  explicit TestEndpoint(std::string name) : name_(std::move(name)) {}
  void on_message(net::ChannelId,
                  std::unique_ptr<net::Message> msg) override {
    received_trace_ids.push_back(msg->trace_id);
  }
  [[nodiscard]] std::string name() const override { return name_; }

  std::string name_;
  std::vector<std::uint64_t> received_trace_ids;
};

TEST(TraceIds, HeldMessageKeepsTraceIdAndCountsHoldTimeAsLatency) {
  net::EventQueue events;
  net::Network network(events);
  obs::MemorySpanSink sink;
  network.set_span_sink(&sink);
  TestEndpoint a("A");
  TestEndpoint b("B");
  const net::ChannelId ch =
      network.connect(a, b, net::SimTime::milliseconds(10));

  network.set_up(ch, false);
  const std::uint64_t id = network.send(ch, a, std::make_unique<TestMsg>());
  ASSERT_NE(id, 0u);
  {
    const auto held = sink.events_for(id);
    ASSERT_EQ(held.size(), 1u);
    EXPECT_EQ(held[0].kind, obs::SpanEvent::Kind::kHold);
  }

  // Heal the partition five seconds later: the message flushes with its
  // original trace id, and the delivery latency includes the hold time.
  events.run_until(net::SimTime::seconds(5));
  network.set_up(ch, true);
  events.run();

  ASSERT_EQ(b.received_trace_ids.size(), 1u);
  EXPECT_EQ(b.received_trace_ids[0], id);
  const auto span = sink.events_for(id);
  ASSERT_EQ(span.size(), 3u);
  EXPECT_EQ(span[0].kind, obs::SpanEvent::Kind::kHold);
  EXPECT_EQ(span[1].kind, obs::SpanEvent::Kind::kSend);
  EXPECT_EQ(span[2].kind, obs::SpanEvent::Kind::kDeliver);

  const obs::HistogramStats latency =
      network.metrics().snapshot().histogram_stats("net.delivery_latency");
  EXPECT_EQ(latency.count, 1u);
  EXPECT_GE(latency.min, 5.0);  // partition time counts
}

TEST(TraceIds, DropWhenDownRecordsDropSpanWithTraceId) {
  net::EventQueue events;
  net::Network network(events);
  obs::MemorySpanSink sink;
  network.set_span_sink(&sink);
  TestEndpoint a("A");
  TestEndpoint b("B");
  const net::ChannelId ch = network.connect(a, b);
  network.set_drop_when_down(ch, true);
  network.set_up(ch, false);

  const std::uint64_t id = network.send(ch, a, std::make_unique<TestMsg>());
  events.run();

  EXPECT_TRUE(b.received_trace_ids.empty());
  const auto span = sink.events_for(id);
  ASSERT_EQ(span.size(), 1u);
  EXPECT_EQ(span[0].kind, obs::SpanEvent::Kind::kDrop);
  EXPECT_EQ(span[0].trace_id, id);
  EXPECT_EQ(network.messages_dropped(), 1u);
}

TEST(TraceIds, DerivedMessagesInheritTheAmbientTraceId) {
  // A handler that relays inside on_message must produce a send carrying
  // the delivered message's trace id — the ambient-context rule every
  // protocol layer (BGMP joins, BGP re-advertisements) relies on.
  net::EventQueue events;
  net::Network network(events);
  obs::MemorySpanSink sink;
  network.set_span_sink(&sink);

  struct Relay final : net::Endpoint {
    net::Network* network = nullptr;
    net::ChannelId out{};
    void on_message(net::ChannelId,
                    std::unique_ptr<net::Message>) override {
      network->send(out, *this, std::make_unique<TestMsg>());
    }
    [[nodiscard]] std::string name() const override { return "relay"; }
  };

  TestEndpoint a("A");
  Relay relay;
  TestEndpoint c("C");
  const net::ChannelId in = network.connect(a, relay);
  relay.network = &network;
  relay.out = network.connect(relay, c);

  const std::uint64_t id = network.send(in, a, std::make_unique<TestMsg>());
  events.run();

  ASSERT_EQ(c.received_trace_ids.size(), 1u);
  EXPECT_EQ(c.received_trace_ids[0], id);
  // One causal chain: send a→relay, deliver, send relay→c, deliver.
  EXPECT_EQ(sink.events_for(id).size(), 4u);
}

// -------------------------------------------------- span JSONL round trip

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

TEST(Spans, BgmpJoinReconstructsLeafToRootFromJsonl) {
  // A three-domain chain; the member joins at the leaf. Filtering the span
  // JSONL on the join's single trace id must reconstruct the hop-by-hop
  // path leaf → mid → root.
  Internet net;
  Domain& root = net.add_domain({.id = 1, .name = "root"});
  Domain& mid = net.add_domain({.id = 2, .name = "mid"});
  Domain& leaf = net.add_domain({.id = 3, .name = "leaf"});
  net.link(root, mid);
  net.link(mid, leaf);

  std::ostringstream spans;
  obs::JsonlSpanSink sink(spans);
  net.network().set_span_sink(&sink);

  const core::Group group = net::Ipv4Addr::parse("224.0.128.1");
  root.originate_group_range(net::Prefix::parse("224.0.128.0/24"));
  net.settle();
  spans.str("");  // keep only the join's events

  leaf.host_join(group);
  net.settle();

  const std::vector<std::string> lines = split_lines(spans.str());
  ASSERT_FALSE(lines.empty());

  // The join's trace id: the JOIN send leaving the leaf's BGMP router.
  std::uint64_t trace_id = 0;
  for (const std::string& line : lines) {
    if (line.find("\"event\":\"send\"") == std::string::npos) continue;
    if (line.find("\"from\":\"leaf/bgmp\"") == std::string::npos) continue;
    if (line.find("JOIN") == std::string::npos) continue;
    trace_id = std::stoull(line.substr(line.find(':') + 1));
    break;
  }
  ASSERT_NE(trace_id, 0u) << "no JOIN send from leaf/bgmp recorded";

  // Filter on that one id and check the leaf→root sequence.
  const std::string key = "\"trace_id\":" + std::to_string(trace_id) + ",";
  std::vector<std::string> chain;
  for (const std::string& line : lines) {
    if (line.find(key) != std::string::npos) chain.push_back(line);
  }
  const char* expected[] = {
      "\"event\":\"send\",\"from\":\"leaf/bgmp\",\"to\":\"mid/bgmp\"",
      "\"event\":\"deliver\",\"from\":\"leaf/bgmp\",\"to\":\"mid/bgmp\"",
      "\"event\":\"send\",\"from\":\"mid/bgmp\",\"to\":\"root/bgmp\"",
      "\"event\":\"deliver\",\"from\":\"mid/bgmp\",\"to\":\"root/bgmp\"",
  };
  std::size_t at = 0;
  for (const char* want : expected) {
    bool found = false;
    for (; at < chain.size(); ++at) {
      if (chain[at].find(want) != std::string::npos) {
        found = true;
        ++at;
        break;
      }
    }
    EXPECT_TRUE(found) << "missing (in order): " << want;
  }
}

// ------------------------------------------------------------ log records

std::vector<obs::SpanEvent> log_records(const obs::MemorySpanSink& sink) {
  std::vector<obs::SpanEvent> out;
  for (const obs::SpanEvent& e : sink.events()) {
    if (e.kind == obs::SpanEvent::Kind::kLog) out.push_back(e);
  }
  return out;
}

/// A top-level MASC domain whose request logs "claiming …" at once.
Domain& claimer(Internet& net) {
  Domain& d = net.add_domain({.id = 1, .name = "top"});
  d.masc_node().set_spaces({net::multicast_space()});
  return d;
}

TEST(LogRecords, CoexistingInternetsEachStampTheirOwnSimTime) {
  // Each record takes its time from the network that emits it, so an
  // internet built (and dropped) later cannot restamp an earlier one's.
  Internet first;
  obs::MemorySpanSink first_sink;
  first.network().set_span_sink(&first_sink);
  Domain& a = claimer(first);
  first.run_until(net::SimTime::seconds(5));
  {
    Internet second;
    obs::MemorySpanSink second_sink;
    second.network().set_span_sink(&second_sink);
    Domain& b = claimer(second);
    second.run_until(net::SimTime::seconds(9));
    b.masc_node().request_space(256);
    a.masc_node().request_space(256);
    const auto theirs = log_records(second_sink);
    ASSERT_EQ(theirs.size(), 1u);
    EXPECT_EQ(theirs[0].sim_time, net::SimTime::seconds(9));
    EXPECT_EQ(theirs[0].message.rfind("claiming ", 0), 0u);
    second.network().set_span_sink(nullptr);
  }
  first.settle();  // the claim is granted after its waiting period
  const auto ours = log_records(first_sink);
  ASSERT_EQ(ours.size(), 2u);
  EXPECT_EQ(ours[0].sim_time, net::SimTime::seconds(5));
  EXPECT_EQ(ours[0].from, a.masc_node().name());
  EXPECT_GT(ours[1].sim_time, net::SimTime::seconds(5));
  EXPECT_EQ(ours[1].message.rfind("granted ", 0), 0u);
  // Both lines narrate one claim: they share its chain.
  EXPECT_NE(ours[0].trace_id, 0u);
  EXPECT_EQ(ours[1].trace_id, ours[0].trace_id);
}

/// Logs one line per delivered message, on the ambient chain.
struct Narrator final : net::Endpoint {
  net::Network* network = nullptr;
  void on_message(net::ChannelId, std::unique_ptr<net::Message>) override {
    network->log(*this, [](std::ostream& os) { os << "got it"; });
  }
  [[nodiscard]] std::string name() const override { return "narrator"; }
};

TEST(LogRecords, InsideADeliveryTheyRideTheAmbientChainAndItsSample) {
  net::EventQueue events;
  net::Network network(events);
  obs::MemorySpanSink memory;
  obs::SamplingSpanSink sampler(memory, 0.5);
  network.set_span_sink(&sampler);
  TestEndpoint a("A");
  Narrator narrator;
  narrator.network = &network;
  const net::ChannelId ch = network.connect(a, narrator);

  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 64; ++i) {
    ids.push_back(network.send(ch, a, std::make_unique<TestMsg>()));
  }
  events.run();

  std::size_t kept = 0;
  for (const std::uint64_t id : ids) {
    const auto chain = memory.events_for(id);
    if (!sampler.wants(id)) {
      EXPECT_TRUE(chain.empty()) << "chain " << id;
      continue;
    }
    ++kept;
    // send, deliver, then the line the handler logged on that chain.
    ASSERT_EQ(chain.size(), 3u) << "chain " << id;
    EXPECT_EQ(chain[2].kind, obs::SpanEvent::Kind::kLog);
    EXPECT_EQ(chain[2].from, "narrator");
    EXPECT_EQ(chain[2].message, "got it");
    EXPECT_EQ(chain[2].sim_time, chain[1].sim_time);
  }
  EXPECT_GT(kept, 0u);
  EXPECT_LT(kept, ids.size());
  EXPECT_EQ(memory.events_for(0).size(), 0u);
}

TEST(LogRecords, UnchainedLinesAreDroppedBelowRateOneWithoutFormatting) {
  net::EventQueue events;
  net::Network network(events);
  TestEndpoint a("A");
  int formatted = 0;
  const auto fill = [&formatted](std::ostream& os) {
    ++formatted;
    os << "outside any chain";
  };

  network.log(a, fill);  // no sink: nothing to format for
  EXPECT_EQ(formatted, 0);

  obs::MemorySpanSink memory;
  obs::SamplingSpanSink sampled(memory, 0.99);
  network.set_span_sink(&sampled);
  network.log(a, fill);
  EXPECT_EQ(formatted, 0);
  EXPECT_TRUE(memory.events().empty());

  obs::SamplingSpanSink everything(memory, 1.0);
  network.set_span_sink(&everything);
  network.log(a, fill);
  network.set_span_sink(&memory);
  network.log(a, fill);
  EXPECT_EQ(formatted, 2);
  ASSERT_EQ(memory.events().size(), 2u);
  for (const obs::SpanEvent& e : memory.events()) {
    EXPECT_EQ(e.kind, obs::SpanEvent::Kind::kLog);
    EXPECT_EQ(e.trace_id, 0u);
    EXPECT_EQ(e.from, "A");
    EXPECT_EQ(e.message, "outside any chain");
  }
}

TEST(LogRecords, RoundTripThroughJsonl) {
  obs::SpanEvent log;
  log.trace_id = 42;
  log.sim_time = net::SimTime::milliseconds(2250);
  log.kind = obs::SpanEvent::Kind::kLog;
  log.from = "AS7-R0";
  log.message = "collision on 224.0.1.0/24 from AS3; \"retrying\"\tnow";
  std::stringstream jsonl;
  obs::detail::write_span_jsonl(log, jsonl);
  const std::vector<obs::SpanEvent> back = eval::read_spans_jsonl(jsonl);
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back[0].trace_id, log.trace_id);
  EXPECT_EQ(back[0].sim_time, log.sim_time);
  EXPECT_EQ(back[0].kind, obs::SpanEvent::Kind::kLog);
  EXPECT_EQ(back[0].from, log.from);
  EXPECT_EQ(back[0].to, "");
  EXPECT_EQ(back[0].message, log.message);
}

TEST(LogRecords, AnalyzerWindowsAndHopsIgnoreInterleavedLogs) {
  // A link flap under a BGMP tree: the repair narration lands inside the
  // measurement windows, and the critical-path report is the one the
  // same stream gives without it.
  Internet net;
  obs::MemorySpanSink sink;
  net.network().set_span_sink(&sink);
  Domain& root = net.add_domain({.id = 1, .name = "root"});
  Domain& mid = net.add_domain({.id = 2, .name = "mid"});
  Domain& leaf = net.add_domain({.id = 3, .name = "leaf"});
  net.link(root, mid);
  net.link(mid, leaf);
  for (Domain* d : {&root, &mid, &leaf}) d->announce_unicast();
  root.originate_group_range(net::Prefix::parse("224.0.128.0/24"));
  net.settle();
  leaf.host_join(net::Ipv4Addr::parse("224.0.128.1"));
  net.settle();
  net.set_link_state(mid, leaf, false);
  net.settle();
  net.set_link_state(mid, leaf, true);
  net.settle();

  std::vector<obs::SpanEvent> without_logs;
  for (const obs::SpanEvent& e : sink.events()) {
    if (e.kind != obs::SpanEvent::Kind::kLog) without_logs.push_back(e);
  }
  const eval::CriticalPathReport with = eval::analyze_spans(sink.events());
  eval::CriticalPathReport without = eval::analyze_spans(without_logs);
  ASSERT_EQ(with.windows.size(), 2u);
  std::size_t logs_inside = 0;
  for (const obs::SpanEvent& e : log_records(sink)) {
    const double at = e.sim_time.to_seconds();
    for (const eval::ConvergenceWindow& w : with.windows) {
      if (at >= w.armed_at && at <= w.converged_at) ++logs_inside;
    }
  }
  EXPECT_GT(logs_inside, 0u);
  EXPECT_GT(with.windows[0].hops + with.windows[1].hops, 0u);
  EXPECT_GT(with.events_seen, without.events_seen);
  without.events_seen = with.events_seen;  // the only field logs change
  std::ostringstream a;
  std::ostringstream b;
  with.write_json(a);
  without.write_json(b);
  EXPECT_EQ(a.str(), b.str());
}

// -------------------------------------------------------- convergence probe

TEST(ConvergenceProbe, RecordsExactlyOneSamplePerPerturbation) {
  Internet net;
  Domain& a = net.add_domain({.id = 1, .name = "A"});
  Domain& b = net.add_domain({.id = 2, .name = "B"});
  net.link(a, b);
  a.announce_unicast();
  b.announce_unicast();
  net.settle();
  // Initial topology construction is not a perturbation.
  EXPECT_EQ(net.convergence_probe().samples_recorded(), 0u);

  net.set_link_state(a, b, false);
  EXPECT_TRUE(net.convergence_probe().armed());
  net.settle();
  EXPECT_FALSE(net.convergence_probe().armed());
  EXPECT_EQ(net.convergence_probe().samples_recorded(), 1u);

  net.set_link_state(a, b, true);
  net.settle();
  EXPECT_EQ(net.convergence_probe().samples_recorded(), 2u);

  // A domain joining the running internet is also a perturbation; linking
  // it re-arms (restarts) the same measurement rather than adding one.
  Domain& c = net.add_domain({.id = 3, .name = "C"});
  EXPECT_TRUE(net.convergence_probe().armed());
  net.link(b, c);
  c.announce_unicast();
  net.settle();
  EXPECT_EQ(net.convergence_probe().samples_recorded(), 3u);

  const obs::HistogramStats converge =
      net.metrics_snapshot().histogram_stats("core.convergence_latency");
  EXPECT_EQ(converge.count, 3u);
}

TEST(ConvergenceProbe, ReArmingRestartsTheMeasurement) {
  net::EventQueue events;
  net::Network network(events);
  obs::Histogram latency;
  net::ConvergenceProbe probe(network, latency, net::SimTime::seconds(2));
  probe.arm("first");
  probe.arm("second");  // restart — still one pending measurement
  events.run();
  EXPECT_EQ(probe.samples_recorded(), 1u);
  EXPECT_EQ(latency.count(), 1u);
}

TEST(ConvergenceProbe, CrashRestartRecordsOneSamplePerPerturbation) {
  // A domain crash-restart is a perturbation like any other: the probe
  // re-arms at the crash instant and, once the sessions re-establish and
  // the trees repair, records exactly one time-to-converge sample — not
  // zero (probe never re-armed after a restart) and not one per bounced
  // channel.
  Internet net;
  Domain& a = net.add_domain({.id = 1, .name = "A"});
  Domain& b = net.add_domain({.id = 2, .name = "B"});
  Domain& c = net.add_domain({.id = 3, .name = "C"});
  net.link(a, b);
  net.link(b, c);
  for (Domain* d : {&a, &b, &c}) d->announce_unicast();
  a.originate_group_range(net::Prefix::parse("224.0.128.0/24"));
  net.settle();
  c.host_join(net::Ipv4Addr::parse("224.0.128.1"));
  net.settle();
  const std::uint64_t baseline = net.convergence_probe().samples_recorded();

  // Crash the transit domain — both its channels bounce, BGMP soft state
  // vanishes, membership is re-expressed on restart.
  net.crash_restart_domain(b);
  EXPECT_TRUE(net.convergence_probe().armed());
  net.settle();
  EXPECT_FALSE(net.convergence_probe().armed());
  EXPECT_EQ(net.convergence_probe().samples_recorded(), baseline + 1);

  // The probe survives repeated crash cycles: one sample each.
  net.crash_restart_domain(c);
  net.settle();
  net.crash_restart_domain(b);
  net.settle();
  EXPECT_EQ(net.convergence_probe().samples_recorded(), baseline + 3);

  const obs::HistogramStats converge =
      net.metrics_snapshot().histogram_stats("core.convergence_latency");
  EXPECT_EQ(converge.count, baseline + 3);
  EXPECT_GT(converge.min, 0.0);
}

// ------------------------------------------------------ latency instruments

TEST(Instruments, LatencyHistogramsPopulateAcrossTheStack) {
  // One run exercising MASC claiming, BGP convergence, a BGMP join and
  // data delivery; the snapshot must carry samples in the corresponding
  // <module>.<noun>_latency histograms.
  Internet net;
  Domain& t = net.add_domain({.id = 1, .name = "T"});
  Domain& c = net.add_domain({.id = 2, .name = "C"});
  Domain& m = net.add_domain({.id = 3, .name = "M"});
  net.link(t, c, bgp::Relationship::kCustomer);
  net.link(t, m, bgp::Relationship::kLateral);
  net.masc_parent(c, t);
  for (Domain* d : {&t, &c, &m}) d->announce_unicast();

  t.masc_node().set_spaces({net::multicast_space()});
  t.masc_node().request_space(65536);
  net.settle();  // waits out the 48h claim waiting period
  c.masc_node().request_space(256);
  net.settle();

  const core::Group group = net::Ipv4Addr::parse("224.0.128.1");
  c.originate_group_range(net::Prefix::parse("224.0.128.0/24"));
  net.settle();
  m.host_join(group);
  net.settle();
  c.send(group);
  net.settle();

  const obs::Snapshot snap = net.metrics_snapshot();
  const obs::HistogramStats claim =
      snap.histogram_stats("masc.claim_grant_latency");
  EXPECT_EQ(claim.count, 2u);  // T's top-level claim + C's child claim
  EXPECT_DOUBLE_EQ(claim.max, 48.0 * 3600.0);  // the waiting period

  EXPECT_GT(snap.histogram_stats("bgp.route_convergence_latency").count, 0u);
  EXPECT_GT(snap.histogram_stats("bgmp.join_propagation_latency").count, 0u);
  EXPECT_GT(snap.histogram_stats("net.delivery_latency").count, 0u);
  // The collision histogram is registered (empty — nothing collided).
  EXPECT_NE(snap.find_histogram("masc.collision_resolution_latency"),
            nullptr);
}

TEST(Instruments, CollisionResolutionLatencySpansCollisionToGrant) {
  // Two top-level siblings claim the same range (deterministic first-fit);
  // the loser's histogram sample covers first collision → eventual grant.
  net::EventQueue events;
  net::Network network(events);
  masc::MascNode::Params params;
  params.pool.strategy = masc::ClaimStrategy::kFirstFit;
  masc::MascNode a(network, 10, "A", params, 1010);
  masc::MascNode b(network, 20, "B", params, 1020);
  masc::MascNode::connect(a, b, masc::MascNode::PeerKind::kSibling);
  a.set_spaces({net::multicast_space()});
  b.set_spaces({net::multicast_space()});
  a.request_space(65536);
  events.run_until(net::SimTime::milliseconds(1));
  b.request_space(65536);  // later timestamp → loses, retries
  events.run(1'000'000);

  ASSERT_EQ(b.collisions_suffered(), 1);
  const obs::Snapshot snap = network.metrics().snapshot();
  const obs::HistogramStats grants =
      snap.histogram_stats("masc.claim_grant_latency");
  EXPECT_EQ(grants.count, 2u);  // both nodes eventually granted
  const obs::HistogramStats collisions =
      snap.histogram_stats("masc.collision_resolution_latency");
  EXPECT_EQ(collisions.count, 1u);  // only the loser resolved a collision
  // Resolution takes at least the restarted waiting period.
  EXPECT_GE(collisions.min, 48.0 * 3600.0);
  // The loser's total grant latency exceeds the winner's single wait.
  EXPECT_GT(grants.max, grants.min);
}

// ----------------------------------------------------------- gauge hygiene

TEST(Snapshots, QuiescentBackToBackSnapshotsReportIdenticalGauges) {
  // Sampled gauges must set() absolute values at refresh time, never
  // accumulate: snapshotting twice with no simulation progress in between
  // has to report the same numbers.
  Internet net;
  Domain& a = net.add_domain({.id = 1, .name = "A"});
  Domain& b = net.add_domain({.id = 2, .name = "B"});
  net.link(a, b);
  a.announce_unicast();
  b.announce_unicast();
  a.originate_group_range(net::Prefix::parse("224.0.128.0/24"));
  net.settle();
  b.host_join(net::Ipv4Addr::parse("224.0.128.1"));
  net.settle();

  const obs::Snapshot first = net.metrics_snapshot();
  const obs::Snapshot second = net.metrics_snapshot();
  std::size_t gauges_compared = 0;
  for (const obs::Sample& s : first.samples) {
    if (s.kind != obs::Sample::Kind::kGauge) continue;
    EXPECT_DOUBLE_EQ(second.gauge_value(s.name), s.value) << s.name;
    ++gauges_compared;
  }
  EXPECT_GT(gauges_compared, 5u);
  // Counters are monotone totals and must match for the same reason.
  for (const obs::Sample& s : first.samples) {
    if (s.kind != obs::Sample::Kind::kCounter) continue;
    EXPECT_EQ(second.counter_value(s.name), s.count) << s.name;
  }
}

}  // namespace
