#include "obs/domain_table.hpp"

#include <algorithm>

namespace obs {

namespace {

/// Export order: hottest first, ties broken by key so equal runs export
/// identical bytes.
bool item_order(const ShardedItem& a, const ShardedItem& b) {
  if (a.value != b.value) return a.value > b.value;
  return a.key < b.key;
}

}  // namespace

void DomainTable::export_to(ShardedSample& out) const {
  out.total = 0.0;
  out.items.clear();
  for (std::uint64_t key = 0; key < values_.size(); ++key) {
    if (values_[key] == 0.0) continue;
    out.total += values_[key];
    out.items.push_back(ShardedItem{key, values_[key]});
  }
  const std::size_t keep = std::min(out.items.size(), kExportTop);
  std::partial_sort(out.items.begin(), out.items.begin() + keep,
                    out.items.end(), item_order);
  out.items.resize(keep);
}

void merge_sharded_items(ShardedSample& into, const ShardedSample& from) {
  into.total += from.total;
  const std::size_t budget = std::max(into.items.size(), from.items.size());
  for (const ShardedItem& item : from.items) {
    const auto hit = std::find_if(
        into.items.begin(), into.items.end(),
        [&](const ShardedItem& mine) { return mine.key == item.key; });
    if (hit != into.items.end()) {
      hit->value += item.value;
    } else {
      into.items.push_back(item);
    }
  }
  std::sort(into.items.begin(), into.items.end(), item_order);
  if (into.items.size() > budget) into.items.resize(budget);
}

}  // namespace obs
