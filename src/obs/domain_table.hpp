// Per-domain attribution: metrics that would otherwise fold a whole
// simulated internet into one number, kept as one value per domain id.
//
// Domain ids are dense (1..N; 0 = unattributed), so the table is a plain
// vector indexed by key and grown on first sight: 8 B per domain, 80 KB
// per instrument at the 10k-domain rung. Counters add(), sampled gauges
// set() — a re-set overwrites, so a refresh hook that sets every domain
// leaves no stale value behind. Every value is exact.
//
// Exports carry the exact total plus the kExportTop largest non-zero
// items, value descending then key ascending, so equal runs produce
// byte-identical snapshots.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace obs {

/// One exported per-domain item.
struct ShardedItem {
  std::uint64_t key = 0;  ///< domain / AS id (0 = unattributed)
  double value = 0.0;     ///< count (counters) or sampled value (gauges)
};

/// One exported per-domain instrument (mirrors Sample for scalar ones).
struct ShardedSample {
  enum class Kind { kCounter, kGauge };
  std::string name;
  Kind kind = Kind::kCounter;
  double total = 0.0;              ///< sum over every key
  std::vector<ShardedItem> items;  ///< value desc, key asc; top kExportTop
};

/// One value per domain id.
class DomainTable {
 public:
  static constexpr std::size_t kExportTop = 16;

  void add(std::uint64_t key, std::uint64_t n = 1) {
    slot(key) += static_cast<double>(n);
  }
  void set(std::uint64_t key, double value) { slot(key) = value; }

  /// The value recorded for `key` (0 if never seen).
  [[nodiscard]] double value_of(std::uint64_t key) const {
    return key < values_.size() ? values_[key] : 0.0;
  }

  /// Fills `out`'s total and items from the current values.
  void export_to(ShardedSample& out) const;

 private:
  double& slot(std::uint64_t key) {
    if (key >= values_.size()) values_.resize(key + 1, 0.0);
    return values_[key];
  }

  std::vector<double> values_;
};

/// Folds `from` into `into` (the sweep engine's cross-cell aggregation):
/// totals add and per-key values add where the two top lists meet. The
/// result keeps the larger of the two item counts.
void merge_sharded_items(ShardedSample& into, const ShardedSample& from);

}  // namespace obs
