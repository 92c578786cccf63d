// Tests for the observability layer: the metrics registry / snapshots,
// latency histograms, and the span sinks — message spans, probe markers
// and log records on one stream, with head-based sampling.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/event.hpp"
#include "net/time.hpp"
#include "obs/histogram.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "obs/span.hpp"

namespace obs {
namespace {

// ---------------------------------------------------------------- Metrics

TEST(Metrics, SameNameReturnsSameInstrument) {
  Metrics m;
  Counter& a = m.counter("net.messages_sent");
  Counter& b = m.counter("net.messages_sent");
  EXPECT_EQ(&a, &b);
  a.inc();
  b.inc(2);
  EXPECT_EQ(a.value(), 3u);

  Gauge& g1 = m.gauge("net.channels");
  Gauge& g2 = m.gauge("net.channels");
  EXPECT_EQ(&g1, &g2);
  EXPECT_EQ(m.instrument_count(), 2u);
}

TEST(Metrics, SnapshotCapturesValuesAndSimTime) {
  Metrics m;
  m.counter("bgmp.joins_sent").inc(7);
  m.gauge("bgp.grib_routes").set(42.5);
  const Snapshot snap = m.snapshot(12.25);
  EXPECT_DOUBLE_EQ(snap.sim_time_seconds, 12.25);
  EXPECT_EQ(snap.counter_value("bgmp.joins_sent"), 7u);
  EXPECT_DOUBLE_EQ(snap.gauge_value("bgp.grib_routes"), 42.5);
  EXPECT_EQ(snap.counter_count(), 1u);
  // Unknown names read as zero rather than throwing.
  EXPECT_EQ(snap.counter_value("no.such_counter"), 0u);
  EXPECT_DOUBLE_EQ(snap.gauge_value("no.such_gauge"), 0.0);
}

TEST(Metrics, RefreshHookRunsAtSnapshotTime) {
  Metrics m;
  int sampled = 0;
  m.add_refresh_hook([&m, &sampled]() {
    ++sampled;
    m.gauge("test.live_value").set(static_cast<double>(sampled));
  });
  EXPECT_EQ(sampled, 0);
  EXPECT_DOUBLE_EQ(m.snapshot().gauge_value("test.live_value"), 1.0);
  EXPECT_DOUBLE_EQ(m.snapshot().gauge_value("test.live_value"), 2.0);
  EXPECT_EQ(sampled, 2);
}

TEST(Metrics, WriteJsonEmitsSchema) {
  Metrics m;
  m.counter("masc.claims_sent").inc(3);
  m.gauge("masc.pool_utilization").set(0.5);
  std::ostringstream out;
  m.snapshot(1.5).write_json(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"sim_time_seconds\": 1.5"), std::string::npos);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"masc.claims_sent\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"masc.pool_utilization\": 0.5"), std::string::npos);
}

TEST(Metrics, WriteCsvListsEveryInstrument) {
  Metrics m;
  m.counter("a.b_c").inc();
  m.gauge("d.e").set(2.0);
  std::ostringstream out;
  m.snapshot().write_csv(out);
  const std::string csv = out.str();
  EXPECT_NE(csv.find("a.b_c"), std::string::npos);
  EXPECT_NE(csv.find("d.e"), std::string::npos);
}

// -------------------------------------------------------------- Histogram

TEST(Histogram, EmptyHistogramReportsZeroEverywhere) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 0.0);
  const HistogramStats stats = h.stats();
  EXPECT_EQ(stats.count, 0u);
  EXPECT_DOUBLE_EQ(stats.p50, 0.0);
  EXPECT_DOUBLE_EQ(stats.mean(), 0.0);
}

TEST(Histogram, SingleSampleQuantilesAreExact) {
  // Quantiles clamp to [min, max], so one sample answers exactly itself at
  // every quantile despite the log-bucket approximation.
  Histogram h;
  h.observe(0.037);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.037);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.037);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.037);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 0.037);
}

TEST(Histogram, BucketIndexFollowsLog2Scheme) {
  // Bucket 0 holds [0, 1ns); bucket i >= 1 holds [1ns * 2^(i-1), 1ns * 2^i).
  EXPECT_EQ(Histogram::bucket_index(0.0), 0);
  EXPECT_EQ(Histogram::bucket_index(0.5e-9), 0);
  EXPECT_EQ(Histogram::bucket_index(1e-9), 1);
  EXPECT_EQ(Histogram::bucket_index(1.9e-9), 1);
  EXPECT_EQ(Histogram::bucket_index(2e-9), 2);
  // A value exactly on a boundary lands in the bucket it opens.
  for (int i = 1; i < 40; ++i) {
    const double bound = 1e-9 * std::ldexp(1.0, i - 1);
    EXPECT_EQ(Histogram::bucket_index(bound), i) << "boundary 2^" << (i - 1);
  }
  // Out-of-range values saturate rather than index out of bounds.
  EXPECT_EQ(Histogram::bucket_index(1e30), Histogram::kBucketCount - 1);
  EXPECT_EQ(Histogram::bucket_index(-4.0), 0);
  EXPECT_EQ(Histogram::bucket_index(std::nan("")), 0);
}

TEST(Histogram, QuantilesClampToObservedRange) {
  Histogram h;
  for (int i = 0; i < 100; ++i) h.observe(0.010);
  // Every sample shares one bucket; interpolation inside the bucket must
  // not invent values outside [min, max].
  EXPECT_DOUBLE_EQ(h.quantile(0.01), 0.010);
  EXPECT_DOUBLE_EQ(h.quantile(0.50), 0.010);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 0.010);
  EXPECT_DOUBLE_EQ(h.min(), 0.010);
  EXPECT_DOUBLE_EQ(h.max(), 0.010);
}

TEST(Histogram, QuantilesOrderAcrossDecades) {
  Histogram h;
  for (int i = 0; i < 90; ++i) h.observe(0.001);   // 90% fast
  for (int i = 0; i < 10; ++i) h.observe(1.0);     // 10% slow tail
  const HistogramStats stats = h.stats();
  EXPECT_EQ(stats.count, 100u);
  EXPECT_NEAR(stats.sum, 10.09, 1e-9);
  // p50 sits in the fast bucket, p95/p99 in the tail bucket; the log
  // buckets bound the error to a factor of two.
  EXPECT_LT(stats.p50, 0.002);
  EXPECT_GT(stats.p95, 0.5);
  EXPECT_LE(stats.p95, 1.0);
  EXPECT_LE(stats.p50, stats.p95);
  EXPECT_LE(stats.p95, stats.p99);
  EXPECT_DOUBLE_EQ(stats.min, 0.001);
  EXPECT_DOUBLE_EQ(stats.max, 1.0);
}

TEST(Histogram, ResetClearsEverything) {
  Histogram h;
  h.observe(1.0);
  h.observe(2.0);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
}

TEST(Histogram, MergeAddsBucketsElementWise) {
  Histogram a;
  Histogram b;
  a.observe(1e-6);
  a.observe(1e-3);
  b.observe(1e-6);
  b.observe(1.0);
  b.observe(1.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 5u);
  EXPECT_DOUBLE_EQ(a.sum(), 2e-6 + 1e-3 + 2.0);
  EXPECT_DOUBLE_EQ(a.min(), 1e-6);
  EXPECT_DOUBLE_EQ(a.max(), 1.0);
  // The fixed bucket scheme means no realignment: each source bucket's
  // population lands in the same index in the destination.
  EXPECT_EQ(a.bucket(Histogram::bucket_index(1e-6)), 2u);
  EXPECT_EQ(a.bucket(Histogram::bucket_index(1e-3)), 1u);
  EXPECT_EQ(a.bucket(Histogram::bucket_index(1.0)), 2u);
}

TEST(Histogram, MergeWithEmptyIsIdentityEitherWay) {
  Histogram empty;
  Histogram h;
  h.observe(0.5);
  h.observe(2.0);

  Histogram into_h = h;
  into_h.merge(empty);
  EXPECT_EQ(into_h.count(), 2u);
  EXPECT_DOUBLE_EQ(into_h.min(), 0.5);
  EXPECT_DOUBLE_EQ(into_h.max(), 2.0);

  Histogram into_empty;
  into_empty.merge(h);
  EXPECT_EQ(into_empty.count(), 2u);
  EXPECT_DOUBLE_EQ(into_empty.min(), 0.5);
  EXPECT_DOUBLE_EQ(into_empty.max(), 2.0);
  EXPECT_DOUBLE_EQ(into_empty.quantile(0.5), h.quantile(0.5));
}

TEST(Histogram, MergedQuantilesMatchConcatenatedSamples) {
  // The sweep aggregation claim: merging per-run histograms must yield
  // the same p50/p95/p99 as observing every underlying sample into one
  // histogram. With bucket-level merging this holds exactly, not just
  // approximately.
  Histogram shard_a;
  Histogram shard_b;
  Histogram shard_c;
  Histogram all;
  int i = 0;
  for (Histogram* shard : {&shard_a, &shard_b, &shard_c}) {
    for (int k = 0; k < 400; ++k, ++i) {
      // Deterministic spread over ~6 decades, interleaved across shards.
      const double v = 1e-6 * std::pow(10.0, (i % 61) / 10.0);
      shard->observe(v);
      all.observe(v);
    }
  }
  Histogram merged = shard_a;
  merged.merge(shard_b);
  merged.merge(shard_c);
  EXPECT_EQ(merged.count(), all.count());
  // Sums associate differently (per-shard subtotals vs one running sum),
  // so equality is only up to floating-point rounding.
  EXPECT_NEAR(merged.sum(), all.sum(), 1e-12 * all.sum());
  EXPECT_DOUBLE_EQ(merged.min(), all.min());
  EXPECT_DOUBLE_EQ(merged.max(), all.max());
  EXPECT_DOUBLE_EQ(merged.quantile(0.50), all.quantile(0.50));
  EXPECT_DOUBLE_EQ(merged.quantile(0.95), all.quantile(0.95));
  EXPECT_DOUBLE_EQ(merged.quantile(0.99), all.quantile(0.99));
  for (int b = 0; b < Histogram::kBucketCount; ++b) {
    ASSERT_EQ(merged.bucket(b), all.bucket(b)) << "bucket " << b;
  }
}

TEST(Metrics, SnapshotMergeFromCombinesRegistries) {
  Metrics run1;
  run1.counter("net.messages_sent").inc(10);
  run1.counter("only.in_run1").inc(1);
  run1.gauge("bgp.grib_routes").set(5.0);
  run1.histogram("net.delivery_latency").observe(0.01);
  run1.histogram("net.delivery_latency").observe(0.02);

  Metrics run2;
  run2.counter("net.messages_sent").inc(32);
  run2.counter("only.in_run2").inc(2);
  run2.gauge("bgp.grib_routes").set(7.0);
  run2.histogram("net.delivery_latency").observe(0.04);

  Snapshot merged = run1.snapshot(100.0);
  merged.merge_from(run2.snapshot(250.0));

  EXPECT_EQ(merged.counter_value("net.messages_sent"), 42u);
  EXPECT_EQ(merged.counter_value("only.in_run1"), 1u);
  EXPECT_EQ(merged.counter_value("only.in_run2"), 2u);
  EXPECT_DOUBLE_EQ(merged.gauge_value("bgp.grib_routes"), 12.0);
  EXPECT_DOUBLE_EQ(merged.sim_time_seconds, 250.0);  // max, not sum

  const HistogramStats stats =
      merged.histogram_stats("net.delivery_latency");
  EXPECT_EQ(stats.count, 3u);
  EXPECT_DOUBLE_EQ(stats.sum, 0.07);
  EXPECT_DOUBLE_EQ(stats.min, 0.01);
  EXPECT_DOUBLE_EQ(stats.max, 0.04);
  // Quantiles recomputed from merged buckets, not averaged stats.
  Histogram reference;
  reference.observe(0.01);
  reference.observe(0.02);
  reference.observe(0.04);
  EXPECT_DOUBLE_EQ(stats.p50, reference.quantile(0.50));
  EXPECT_DOUBLE_EQ(stats.p99, reference.quantile(0.99));
}

TEST(Metrics, HistogramRegistersLikeOtherInstruments) {
  Metrics m;
  Histogram& a = m.histogram("net.delivery_latency");
  Histogram& b = m.histogram("net.delivery_latency");
  EXPECT_EQ(&a, &b);
  a.observe(0.25);
  m.counter("x.y").inc();
  EXPECT_EQ(m.instrument_count(), 2u);

  const Snapshot snap = m.snapshot(3.0);
  const HistogramStats stats = snap.histogram_stats("net.delivery_latency");
  EXPECT_EQ(stats.count, 1u);
  EXPECT_DOUBLE_EQ(stats.p50, 0.25);
  // Absent histograms read as zero stats, mirroring counter_value().
  EXPECT_EQ(snap.histogram_stats("no.such").count, 0u);
}

TEST(Metrics, WriteJsonAndJsonlIncludeHistograms) {
  Metrics m;
  m.histogram("bgmp.join_propagation_latency").observe(0.04);
  std::ostringstream pretty;
  m.snapshot(1.0).write_json(pretty);
  const std::string json = pretty.str();
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"bgmp.join_propagation_latency\""),
            std::string::npos);
  for (const char* field : {"count", "sum", "min", "max", "p50", "p95",
                            "p99"}) {
    EXPECT_NE(json.find("\"" + std::string(field) + "\""), std::string::npos)
        << field;
  }

  std::ostringstream compact;
  m.snapshot(1.0).write_jsonl(compact);
  const std::string line = compact.str();
  // One JSON object per line: exactly one newline, at the end.
  EXPECT_EQ(line.find('\n'), line.size() - 1);
  EXPECT_NE(line.find("\"histograms\":{"), std::string::npos);
}

TEST(Metrics, WriteCsvExpandsHistogramRows) {
  Metrics m;
  m.histogram("masc.claim_grant_latency").observe(2.0);
  std::ostringstream out;
  m.snapshot().write_csv(out);
  const std::string csv = out.str();
  for (const char* suffix : {".count", ".sum", ".min", ".max", ".p50",
                             ".p95", ".p99"}) {
    EXPECT_NE(csv.find("masc.claim_grant_latency" + std::string(suffix)),
              std::string::npos)
        << suffix;
  }
  EXPECT_NE(csv.find("histogram"), std::string::npos);
}

// ------------------------------------------------------------------ Spans

SpanEvent make_span(std::uint64_t trace_id, SpanEvent::Kind kind) {
  SpanEvent ev;
  ev.trace_id = trace_id;
  ev.sim_time = net::SimTime::milliseconds(1500);
  ev.kind = kind;
  ev.from = "D1/bgmp";
  ev.to = "D2/bgmp";
  ev.message = "JOIN (*,G)";
  return ev;
}

TEST(Spans, MemorySinkFiltersByTraceId) {
  MemorySpanSink sink;
  sink.record(make_span(1, SpanEvent::Kind::kSend));
  sink.record(make_span(2, SpanEvent::Kind::kSend));
  sink.record(make_span(1, SpanEvent::Kind::kDeliver));
  EXPECT_EQ(sink.events().size(), 3u);
  const auto one = sink.events_for(1);
  ASSERT_EQ(one.size(), 2u);
  EXPECT_EQ(one[0].kind, SpanEvent::Kind::kSend);
  EXPECT_EQ(one[1].kind, SpanEvent::Kind::kDeliver);
  sink.clear();
  EXPECT_TRUE(sink.events().empty());
}

TEST(Spans, JsonlSinkEmitsDocumentedSchema) {
  std::ostringstream out;
  JsonlSpanSink sink(out);
  sink.record(make_span(7, SpanEvent::Kind::kSend));
  const std::string line = out.str();
  EXPECT_NE(line.find("\"trace_id\":7"), std::string::npos);
  EXPECT_NE(line.find("\"sim_time_seconds\":1.500000000"),
            std::string::npos);
  EXPECT_NE(line.find("\"event\":\"send\""), std::string::npos);
  EXPECT_NE(line.find("\"from\":\"D1/bgmp\""), std::string::npos);
  EXPECT_NE(line.find("\"to\":\"D2/bgmp\""), std::string::npos);
  EXPECT_NE(line.find("\"message\":\"JOIN (*,G)\""), std::string::npos);
  EXPECT_EQ(line.back(), '\n');
}

TEST(Spans, LogRecordsUseTheSpanSchema) {
  SpanEvent log;
  log.trace_id = 0;
  log.sim_time = net::SimTime::milliseconds(1500);
  log.kind = SpanEvent::Kind::kLog;
  log.from = "AS7-R0";
  log.message = "he said \"hi\"";
  std::ostringstream out;
  JsonlSpanSink sink(out);
  sink.record(log);
  const std::string line = out.str();
  EXPECT_NE(line.find("\"trace_id\":0,"), std::string::npos);
  EXPECT_NE(line.find("\"event\":\"log\""), std::string::npos);
  EXPECT_NE(line.find("\"from\":\"AS7-R0\""), std::string::npos);
  EXPECT_NE(line.find("\"to\":\"\""), std::string::npos);
  EXPECT_NE(line.find("\\\"hi\\\""), std::string::npos);  // quotes escaped
  EXPECT_EQ(line.back(), '\n');
  SpanEvent::Kind kind = SpanEvent::Kind::kSend;
  ASSERT_TRUE(kind_from_string("log", kind));
  EXPECT_EQ(kind, SpanEvent::Kind::kLog);
}

// ---------------------------------------------------- registry kind checks

TEST(Metrics, DuplicateRegistrationWithDifferentKindThrows) {
  Metrics m;
  m.counter("net.messages_sent");
  EXPECT_THROW(m.gauge("net.messages_sent"), std::logic_error);
  EXPECT_THROW(m.histogram("net.messages_sent"), std::logic_error);
  EXPECT_THROW(m.sharded_counter("net.messages_sent"), std::logic_error);
  EXPECT_THROW(m.sharded_gauge("net.messages_sent"), std::logic_error);
  // Same kind re-registers fine (and returns the same instrument).
  EXPECT_EQ(&m.counter("net.messages_sent"), &m.counter("net.messages_sent"));

  m.sharded_counter("bgp.updates_sent.by_domain");
  EXPECT_THROW(m.counter("bgp.updates_sent.by_domain"), std::logic_error);
  EXPECT_THROW(m.sharded_gauge("bgp.updates_sent.by_domain"),
               std::logic_error);

  m.sharded_gauge("core.state_bytes.by_domain");
  EXPECT_THROW(m.sharded_counter("core.state_bytes.by_domain"),
               std::logic_error);
}

// --------------------------------------------------- sharded instruments

TEST(Sharded, CounterIsExactUnderCapacity) {
  // Fewer keys than the export limit: every key is exported, exact.
  DomainTable c;
  for (std::uint64_t key = 1; key <= 4; ++key) c.add(key, key * 10);
  for (std::uint64_t key = 1; key <= 4; ++key) {
    EXPECT_EQ(c.value_of(key), static_cast<double>(key * 10));
  }
  EXPECT_EQ(c.value_of(5), 0.0);
  ShardedSample out;
  c.export_to(out);
  EXPECT_DOUBLE_EQ(out.total, 100.0);
  ASSERT_EQ(out.items.size(), 4u);
  for (std::size_t i = 0; i < out.items.size(); ++i) {
    EXPECT_EQ(out.items[i].key, 4 - i);  // value descending
    EXPECT_DOUBLE_EQ(out.items[i].value, static_cast<double>((4 - i) * 10));
  }
}

TEST(Sharded, CounterKeepsHeavyHittersAcrossEviction) {
  // Two heavy keys interleaved with a stream of one-shot keys — the
  // pattern that made a bounded sketch evict on nearly every add. The
  // dense table keeps the heavy keys on top and every count exact.
  DomainTable c;
  for (int i = 0; i < 500; ++i) {
    c.add(1);
    c.add(2);
    c.add(1000 + static_cast<std::uint64_t>(i));  // singleton churn
  }
  EXPECT_EQ(c.value_of(1), 500.0);
  EXPECT_EQ(c.value_of(2), 500.0);
  for (std::uint64_t key = 1000; key < 1500; ++key) {
    ASSERT_EQ(c.value_of(key), 1.0) << "key " << key;
  }
  ShardedSample out;
  c.export_to(out);
  EXPECT_DOUBLE_EQ(out.total, 1500.0);
  ASSERT_EQ(out.items.size(), DomainTable::kExportTop);
  EXPECT_EQ(out.items[0].key, 1u);
  EXPECT_EQ(out.items[1].key, 2u);
  EXPECT_DOUBLE_EQ(out.items[1].value, 500.0);
  EXPECT_EQ(out.items[2].key, 1000u);  // singletons tie; key ascending
  EXPECT_DOUBLE_EQ(out.items[2].value, 1.0);
}

TEST(Sharded, CounterIsExactAcrossTenThousandKeys) {
  // Zipf-skewed counts over 10,000 distinct keys, added one at a time in
  // round-robin passes so every key stays live the whole run: each
  // per-key count, the total and the exported top 16 must be exact.
  constexpr std::uint64_t kKeys = 10000;
  const auto expected = [](std::uint64_t key) { return kKeys / key + 1; };
  Metrics m;
  DomainTable& c = m.sharded_counter("net.messages_delivered.by_domain");
  std::uint64_t total = 0;
  for (std::uint64_t round = 0; round < expected(1); ++round) {
    for (std::uint64_t key = 1; key <= kKeys && expected(key) > round;
         ++key) {
      c.add(key);
      ++total;
    }
  }
  for (std::uint64_t key = 1; key <= kKeys; ++key) {
    ASSERT_EQ(c.value_of(key), static_cast<double>(expected(key)))
        << "key " << key;
  }

  const Snapshot snap = m.snapshot();
  const ShardedSample* sample =
      snap.find_sharded("net.messages_delivered.by_domain");
  ASSERT_NE(sample, nullptr);
  EXPECT_DOUBLE_EQ(sample->total, static_cast<double>(total));
  ASSERT_EQ(sample->items.size(), DomainTable::kExportTop);
  for (std::size_t i = 0; i < sample->items.size(); ++i) {
    EXPECT_EQ(sample->items[i].key, i + 1);
    EXPECT_EQ(sample->items[i].value, static_cast<double>(expected(i + 1)));
  }
}

TEST(Sharded, TopOrdersValueDescendingThenKeyAscending) {
  DomainTable c;
  c.add(5, 10);
  c.add(3, 10);
  c.add(9, 20);
  ShardedSample out;
  c.export_to(out);
  EXPECT_DOUBLE_EQ(out.total, 40.0);
  ASSERT_EQ(out.items.size(), 3u);
  EXPECT_EQ(out.items[0].key, 9u);
  EXPECT_EQ(out.items[1].key, 3u);  // ties break key-ascending — deterministic
  EXPECT_EQ(out.items[2].key, 5u);
}

TEST(Sharded, GaugeReSetOverwritesAndZerosAreNotExported) {
  Metrics m;
  DomainTable& g = m.sharded_gauge("workload.members.by_domain");
  for (std::uint64_t key = 1; key <= 10; ++key) {
    g.set(key, static_cast<double>(key * 100));
  }
  const Snapshot first = m.snapshot();
  const ShardedSample* sample = first.find_sharded("workload.members.by_domain");
  ASSERT_NE(sample, nullptr);
  EXPECT_EQ(sample->kind, ShardedSample::Kind::kGauge);
  EXPECT_DOUBLE_EQ(sample->total, 5500.0);
  ASSERT_EQ(sample->items.size(), 10u);
  EXPECT_EQ(sample->items[0].key, 10u);

  // The next sample overwrites: key 10 drops to zero and leaves the
  // export, key 3 becomes the largest, and the total follows.
  g.set(10, 0.0);
  g.set(3, 5000.0);
  const Snapshot second = m.snapshot();
  sample = second.find_sharded("workload.members.by_domain");
  ASSERT_NE(sample, nullptr);
  EXPECT_DOUBLE_EQ(sample->total, 5500.0 - 1000.0 - 300.0 + 5000.0);
  ASSERT_EQ(sample->items.size(), 9u);
  EXPECT_EQ(sample->items[0].key, 3u);
  EXPECT_DOUBLE_EQ(sample->items[0].value, 5000.0);
  for (const ShardedItem& item : sample->items) EXPECT_NE(item.key, 10u);
}

TEST(Sharded, SnapshotExportsBoundedTopAndExactTotal) {
  Metrics m;
  DomainTable& c = m.sharded_counter("bgp.updates_sent.by_domain");
  for (std::uint64_t key = 1; key <= 20; ++key) c.add(key, key);
  const Snapshot snap = m.snapshot();
  const ShardedSample* sample = snap.find_sharded("bgp.updates_sent.by_domain");
  ASSERT_NE(sample, nullptr);
  EXPECT_EQ(sample->kind, ShardedSample::Kind::kCounter);
  EXPECT_DOUBLE_EQ(sample->total, 210.0);  // every key, not just the top
  ASSERT_EQ(sample->items.size(), DomainTable::kExportTop);
  EXPECT_EQ(sample->items.front().key, 20u);
  EXPECT_EQ(sample->items.back().key, 5u);
  EXPECT_DOUBLE_EQ(snap.sharded_total("bgp.updates_sent.by_domain"), 210.0);
  EXPECT_EQ(snap.find_sharded("no.such"), nullptr);

  std::ostringstream os;
  snap.write_json(os);
  EXPECT_NE(os.str().find("\"sharded\""), std::string::npos);
  EXPECT_NE(os.str().find("\"bgp.updates_sent.by_domain\""),
            std::string::npos);
  EXPECT_EQ(os.str().find("\"error\""), std::string::npos);
}

// ------------------------------------------------ snapshot binary search

TEST(Snapshots, FindLocatesEveryInstrumentInLargeSnapshots) {
  // 300 instruments: the binary-search path must find every name exactly
  // and miss cleanly — this is the lookup bench/micro_core benchmarks.
  Metrics m;
  std::vector<std::string> names;
  for (int i = 0; i < 300; ++i) {
    std::string name = "bench.metric." + std::to_string(i);
    if (i % 2 == 0) {
      m.counter(name).inc(static_cast<std::uint64_t>(i) + 1);
    } else {
      m.gauge(name).set(static_cast<double>(i) + 0.5);
    }
    names.push_back(std::move(name));
  }
  m.histogram("bench.latency").observe(1.0);
  const Snapshot snap = m.snapshot();
  ASSERT_EQ(snap.samples.size(), 300u);
  for (int i = 0; i < 300; ++i) {
    const Sample* s = snap.find(names[static_cast<std::size_t>(i)]);
    ASSERT_NE(s, nullptr) << names[static_cast<std::size_t>(i)];
    if (i % 2 == 0) {
      EXPECT_EQ(s->kind, Sample::Kind::kCounter);
      EXPECT_EQ(s->count, static_cast<std::uint64_t>(i) + 1);
    } else {
      EXPECT_EQ(s->kind, Sample::Kind::kGauge);
      EXPECT_DOUBLE_EQ(s->value, static_cast<double>(i) + 0.5);
    }
  }
  // Misses: before the first name, between names, after the last.
  EXPECT_EQ(snap.find("aaaa"), nullptr);
  EXPECT_EQ(snap.find("bench.metric.1500"), nullptr);
  EXPECT_EQ(snap.find("zzzz"), nullptr);
  ASSERT_NE(snap.find_histogram("bench.latency"), nullptr);
  EXPECT_EQ(snap.find_histogram("bench.metric.0"), nullptr);
}

// ---------------------------------------------------------- flight recorder

TEST(Recorder, DeltaFramesCarryOnlyChangedSeries) {
  Metrics m;
  Counter& moving = m.counter("test.moving");
  m.counter("test.frozen").inc(5);
  Recorder rec;
  rec.tick(m.snapshot(0.0));  // first frame captures everything
  moving.inc();
  rec.tick(m.snapshot(1.0));
  moving.inc();
  rec.tick(m.snapshot(2.0));
  EXPECT_EQ(rec.ticks(), 3u);
  EXPECT_EQ(rec.frames(), 3u);
  EXPECT_EQ(rec.series(), 2u);

  std::ostringstream os;
  rec.flush_jsonl(os);
  const std::string text = os.str();
  // "test.frozen" appears once (the first full frame), not per-frame.
  std::size_t frozen_mentions = 0;
  for (std::size_t at = text.find("test.frozen"); at != std::string::npos;
       at = text.find("test.frozen", at + 1)) {
    ++frozen_mentions;
  }
  EXPECT_EQ(frozen_mentions, 1u);
  EXPECT_NE(text.find("\"recorder\""), std::string::npos);
}

TEST(Recorder, EvictionFoldsOldFramesIntoBase) {
  Metrics m;
  Counter& c = m.counter("test.count");
  Recorder rec(Recorder::Config{.capacity = 2});
  for (int t = 0; t < 5; ++t) {
    c.inc(10);
    rec.tick(m.snapshot(static_cast<double>(t)));
  }
  EXPECT_EQ(rec.ticks(), 5u);
  EXPECT_EQ(rec.frames(), 2u);   // ring is bounded
  EXPECT_EQ(rec.evicted(), 3u);  // the rest folded into the base

  std::ostringstream os;
  rec.flush_jsonl(os);
  const std::string text = os.str();
  // Base line reconstructs the absolute value at eviction time (t=2,
  // count=30), and the retained frames still replay to the final 50.
  EXPECT_NE(text.find("\"base\":true"), std::string::npos);
  EXPECT_NE(text.find("\"test.count\":30"), std::string::npos);
  EXPECT_NE(text.find("\"test.count\":50"), std::string::npos);
}

TEST(Recorder, HistogramsExpandToCountAndSum) {
  Metrics m;
  m.histogram("net.delivery_latency").observe(2.0);
  m.histogram("net.delivery_latency").observe(3.0);
  Recorder rec;
  rec.tick(m.snapshot(0.0));
  std::ostringstream os;
  rec.flush_jsonl(os);
  EXPECT_NE(os.str().find("\"net.delivery_latency.count\":2"),
            std::string::npos);
  EXPECT_NE(os.str().find("\"net.delivery_latency.sum\":5"),
            std::string::npos);
}

// ------------------------------------------------------ span head sampling

SpanEvent sampled_span(std::uint64_t trace_id, SpanEvent::Kind kind) {
  SpanEvent event;
  event.trace_id = trace_id;
  event.kind = kind;
  event.from = "a";
  event.to = "b";
  event.message = "m";
  return event;
}

TEST(Sampling, RateOneKeepsEverythingRateZeroKeepsOnlyMarkers) {
  MemorySpanSink memory;
  SamplingSpanSink all(memory, 1.0);
  for (std::uint64_t id = 1; id <= 50; ++id) {
    EXPECT_TRUE(all.wants(id));
    all.record(sampled_span(id, SpanEvent::Kind::kSend));
  }
  EXPECT_EQ(all.recorded(), 50u);
  EXPECT_EQ(memory.events().size(), 50u);

  memory.clear();
  SamplingSpanSink none(memory, 0.0);
  for (std::uint64_t id = 1; id <= 50; ++id) EXPECT_FALSE(none.wants(id));
  // Probe markers (trace_id 0) bypass sampling at any rate: the analyzer
  // needs the measurement windows even in a 0%-sampled stream. They pass
  // by kind: id 0 itself is "outside any chain", which is not wanted.
  EXPECT_FALSE(none.wants(0));
  none.record(sampled_span(0, SpanEvent::Kind::kProbeArm));
  none.record(sampled_span(0, SpanEvent::Kind::kProbeFire));
  EXPECT_EQ(none.recorded(), 2u);
}

TEST(Sampling, UnchainedLogRecordsPassOnlyAtRateOne) {
  // A log line outside any chain belongs to no sampled chain: a sampler
  // below rate 1 drops it (and says so before it is built), rate 1 and
  // unsampled sinks keep it.
  MemorySpanSink memory;
  SamplingSpanSink half(memory, 0.5);
  EXPECT_FALSE(half.wants(0));
  half.record(sampled_span(0, SpanEvent::Kind::kLog));
  EXPECT_EQ(half.recorded(), 0u);
  SamplingSpanSink all(memory, 1.0);
  EXPECT_TRUE(all.wants(0));
  all.record(sampled_span(0, SpanEvent::Kind::kLog));
  EXPECT_EQ(all.recorded(), 1u);
  EXPECT_TRUE(memory.wants(0));
  ASSERT_EQ(memory.events().size(), 1u);
  EXPECT_EQ(memory.events()[0].kind, SpanEvent::Kind::kLog);
}

TEST(Sampling, KeptSetIsAPureFunctionOfTheTraceId) {
  MemorySpanSink sink_a;
  MemorySpanSink sink_b;
  SamplingSpanSink first(sink_a, 0.25);
  SamplingSpanSink second(sink_b, 0.25);
  std::size_t kept = 0;
  for (std::uint64_t id = 1; id <= 2000; ++id) {
    const bool want = first.wants(id);
    // Two independent sinks at the same rate agree on every id, and
    // asking twice never changes the answer — no order/time dependence.
    EXPECT_EQ(second.wants(id), want);
    EXPECT_EQ(first.wants(id), want);
    if (want) ++kept;
  }
  // A hash-based 25% sample of 2000 ids lands near 500.
  EXPECT_GT(kept, 350u);
  EXPECT_LT(kept, 650u);
}

TEST(Sampling, KeepsWholeCausalChainsIntact) {
  // Every hop of a chain carries the same trace id, so a kept chain is
  // kept in full: record() must never split a chain across the decision.
  MemorySpanSink memory;
  SamplingSpanSink sampler(memory, 0.5);
  constexpr std::uint64_t kIds = 200;
  for (std::uint64_t id = 1; id <= kIds; ++id) {
    for (const SpanEvent::Kind kind :
         {SpanEvent::Kind::kSend, SpanEvent::Kind::kDeliver,
          SpanEvent::Kind::kSend, SpanEvent::Kind::kDeliver}) {
      if (sampler.wants(id)) sampler.record(sampled_span(id, kind));
    }
  }
  std::set<std::uint64_t> seen;
  for (const SpanEvent& event : memory.events()) seen.insert(event.trace_id);
  for (const std::uint64_t id : seen) {
    EXPECT_EQ(memory.events_for(id).size(), 4u) << "chain " << id << " torn";
  }
  EXPECT_GT(seen.size(), 0u);
  EXPECT_LT(seen.size(), kIds);
}

TEST(Sampling, WantsMatchesTheExposedHash) {
  // The sink's decision is exactly `span_hash(id) < rate * 2^53 << 11` —
  // the contract tests and offline tooling can rely on to predict samples.
  const double rate = 0.01;
  MemorySpanSink memory;
  SamplingSpanSink sampler(memory, rate);
  const std::uint64_t threshold =
      static_cast<std::uint64_t>(rate * 9007199254740992.0) << 11;
  for (std::uint64_t id = 1; id <= 5000; ++id) {
    EXPECT_EQ(sampler.wants(id), span_hash(id) < threshold) << id;
  }
}

}  // namespace
}  // namespace obs
