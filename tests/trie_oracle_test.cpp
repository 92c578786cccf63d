// Differential test: the path-compressed PrefixTrie against a brute-force
// std::map oracle, over randomized insert/erase/lookup sequences shaped
// like the library's real workloads — nested claim hierarchies, doubling
// (parent/sibling) patterns, and plain scatter. Every divergence in
// find/longest_match/overlaps_any/entries, or in the filtered free-space
// searches (first_overlap/free_within/first_free, with odd values filtered
// out), is a trie bug by construction.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "net/prefix.hpp"
#include "net/prefix_trie.hpp"
#include "net/rng.hpp"

namespace net {
namespace {

/// Brute-force reference: a sorted map plus O(n) scans.
class Oracle {
 public:
  bool insert(const Prefix& p, int v) {
    const bool added = !map_.contains(key(p));
    map_[key(p)] = {p, v};
    return added;
  }
  bool erase(const Prefix& p) { return map_.erase(key(p)) > 0; }

  [[nodiscard]] const int* find(const Prefix& p) const {
    const auto it = map_.find(key(p));
    return it == map_.end() ? nullptr : &it->second.second;
  }

  [[nodiscard]] std::optional<std::pair<Prefix, int>> longest_match(
      Ipv4Addr addr) const {
    std::optional<std::pair<Prefix, int>> best;
    for (const auto& [k, pv] : map_) {
      if (pv.first.contains(addr) &&
          (!best || pv.first.length() > best->first.length())) {
        best = pv;
      }
    }
    return best;
  }

  [[nodiscard]] std::optional<std::pair<Prefix, int>> longest_match(
      const Prefix& p) const {
    std::optional<std::pair<Prefix, int>> best;
    for (const auto& [k, pv] : map_) {
      if (pv.first.contains(p) &&
          (!best || pv.first.length() > best->first.length())) {
        best = pv;
      }
    }
    return best;
  }

  [[nodiscard]] bool overlaps_any(const Prefix& p) const {
    for (const auto& [k, pv] : map_) {
      if (pv.first.overlaps(p)) return true;
    }
    return false;
  }

  // The filtered searches, with `live` a predicate on the stored value.

  [[nodiscard]] std::optional<std::pair<Prefix, int>> first_overlap(
      const Prefix& p, bool (*live)(int)) const {
    std::optional<std::pair<Prefix, int>> outer;  // shortest container
    std::optional<std::pair<Prefix, int>> inner;  // first inside, map order
    for (const auto& [k, pv] : map_) {
      if (!live(pv.second)) continue;
      if (pv.first.contains(p)) {
        if (!outer || pv.first.length() < outer->first.length()) outer = pv;
      } else if (p.contains(pv.first) && !inner) {
        inner = pv;
      }
    }
    return outer ? outer : inner;
  }

  void free_within(const Prefix& space, bool (*live)(int),
                   std::vector<Prefix>& out) const {
    std::vector<Prefix> taken;
    for (const auto& [k, pv] : map_) {
      if (live(pv.second)) taken.push_back(pv.first);
    }
    decompose(space, taken, out);
  }

  /// Splits `space` until a piece overlaps nothing in `taken` (free) or
  /// lies inside one of them (taken whole).
  static void decompose(const Prefix& space, const std::vector<Prefix>& taken,
                        std::vector<Prefix>& out) {
    std::vector<Prefix> overlapping;
    for (const Prefix& t : taken) {
      if (t.contains(space)) return;
      if (t.overlaps(space)) overlapping.push_back(t);
    }
    if (overlapping.empty()) {
      out.push_back(space);
      return;
    }
    decompose(space.left_child(), overlapping, out);
    decompose(space.right_child(), overlapping, out);
  }

  /// Scans every aligned slot of `within` in address order.
  [[nodiscard]] std::optional<Prefix> first_free(const Prefix& within,
                                                 int len,
                                                 bool (*live)(int)) const {
    if (len < within.length()) return std::nullopt;
    std::vector<Prefix> taken;  // the live entries that can block a slot
    for (const auto& [k, pv] : map_) {
      if (live(pv.second) && pv.first.overlaps(within)) {
        taken.push_back(pv.first);
      }
    }
    const std::uint64_t slots = std::uint64_t{1} << (len - within.length());
    for (std::uint64_t s = 0; s < slots; ++s) {
      const Prefix slot = within.subprefix_at(len, s);
      if (std::none_of(taken.begin(), taken.end(), [&](const Prefix& t) {
            return t.overlaps(slot);
          })) {
        return slot;
      }
    }
    return std::nullopt;
  }

  /// Entries in trie traversal order: base ascending, ancestors first.
  [[nodiscard]] std::vector<std::pair<Prefix, int>> entries() const {
    std::vector<std::pair<Prefix, int>> out;
    out.reserve(map_.size());
    for (const auto& [k, pv] : map_) out.push_back(pv);
    return out;
  }

  [[nodiscard]] std::size_t size() const { return map_.size(); }

 private:
  // (base, length) sorts identically to the trie's value-first DFS.
  static std::pair<std::uint32_t, int> key(const Prefix& p) {
    return {p.base().value(), p.length()};
  }
  std::map<std::pair<std::uint32_t, int>, std::pair<Prefix, int>> map_;
};

/// Draws prefixes biased toward overlap: a handful of "claim centers"
/// whose subtrees keep colliding, parent/sibling derivations (the MASC
/// doubling walk), and uniform scatter across 224/4.
class PrefixSource {
 public:
  explicit PrefixSource(std::uint64_t seed) : rng_(seed) {
    for (int i = 0; i < 8; ++i) {
      centers_.push_back(random_prefix(8, 14));
    }
  }

  Prefix next() {
    switch (rng_.uniform_int(0, 3)) {
      case 0: {  // inside a claim center: nested / overlapping
        const Prefix& c = centers_[static_cast<std::size_t>(
            rng_.uniform_int(0, static_cast<std::int64_t>(centers_.size()) -
                                    1))];
        const int len = static_cast<int>(
            rng_.uniform_int(c.length(), std::min(c.length() + 12, 32)));
        const std::uint32_t span = c.length() == 0
                                       ? ~std::uint32_t{0}
                                       : (~std::uint32_t{0} >> c.length());
        const std::uint32_t addr =
            c.base().value() |
            (static_cast<std::uint32_t>(rng_.uniform_int(0, span)) & span);
        return Prefix::containing(Ipv4Addr{addr}, len);
      }
      case 1: {  // doubling pattern: a recent prefix's parent or buddy
        if (!recent_.empty()) {
          const Prefix p = recent_[static_cast<std::size_t>(
              rng_.uniform_int(0,
                               static_cast<std::int64_t>(recent_.size()) - 1))];
          if (const auto up = p.parent(); up.has_value()) return *up;
        }
        return random_prefix(8, 28);
      }
      default:
        return random_prefix(8, 28);
    }
  }

  void remember(const Prefix& p) {
    recent_.push_back(p);
    if (recent_.size() > 64) recent_.erase(recent_.begin());
  }

  Ipv4Addr probe() {
    // Half the probes land inside centers (hit-heavy), half anywhere.
    if (rng_.uniform_int(0, 1) == 0 && !centers_.empty()) {
      const Prefix& c = centers_[static_cast<std::size_t>(
          rng_.uniform_int(0, static_cast<std::int64_t>(centers_.size()) - 1))];
      const std::uint32_t span =
          c.length() == 0 ? ~std::uint32_t{0} : (~std::uint32_t{0} >> c.length());
      return Ipv4Addr{c.base().value() |
                      (static_cast<std::uint32_t>(rng_.uniform_int(0, span)) &
                       span)};
    }
    return Ipv4Addr{0xE0000000u | static_cast<std::uint32_t>(
                                      rng_.uniform_int(0, 0x0FFFFFFF))};
  }

 private:
  Prefix random_prefix(int min_len, int max_len) {
    const int len = static_cast<int>(rng_.uniform_int(min_len, max_len));
    return Prefix::containing(
        Ipv4Addr{0xE0000000u |
                 static_cast<std::uint32_t>(rng_.uniform_int(0, 0x0FFFFFFF))},
        len);
  }

  net::Rng rng_;
  std::vector<Prefix> centers_;
  std::vector<Prefix> recent_;
};

/// The filter for the free-space searches: odd values count as absent.
bool even(int v) { return v % 2 == 0; }

/// Compares the filtered searches at `p`, with slots up to `extra` bits
/// longer than `p`.
void check_filtered(const PrefixTrie<int>& trie, const Oracle& oracle,
                    const Prefix& p, int extra) {
  const auto hit = trie.first_overlap(p, even);
  const auto want = oracle.first_overlap(p, even);
  ASSERT_EQ(hit.has_value(), want.has_value()) << p.to_string();
  if (hit) {
    EXPECT_EQ(hit->first, want->first) << p.to_string();
    EXPECT_EQ(*hit->second, want->second);
  }
  std::vector<Prefix> got;
  trie.free_within(p, even, got);
  std::vector<Prefix> expect;
  oracle.free_within(p, even, expect);
  ASSERT_EQ(got, expect) << "free_within(" << p.to_string() << ")";
  const int len = std::min(32, p.length() + extra);
  ASSERT_EQ(trie.first_free(p, len, even), oracle.first_free(p, len, even))
      << "first_free(" << p.to_string() << ", /" << len << ")";
  if (p.length() > 0) {  // a slot longer than the space never fits
    ASSERT_EQ(trie.first_free(p, p.length() - 1, even), std::nullopt);
  }
}

void check_equivalent(const PrefixTrie<int>& trie, const Oracle& oracle,
                      PrefixSource& source, int probes) {
  ASSERT_EQ(trie.size(), oracle.size());
  ASSERT_EQ(trie.entries(), oracle.entries());
  for (int i = 0; i < probes; ++i) {
    const Ipv4Addr addr = source.probe();
    const auto got = trie.longest_match(addr);
    const auto want = oracle.longest_match(addr);
    ASSERT_EQ(got.has_value(), want.has_value()) << addr.to_string();
    if (got.has_value()) {
      EXPECT_EQ(got->first, want->first) << addr.to_string();
      EXPECT_EQ(*got->second, want->second);
    }
  }
}

TEST(TrieOracle, RandomizedMutationsMatchBruteForce) {
  for (const std::uint64_t seed : {7u, 99u, 1234u}) {
    PrefixTrie<int> trie;
    Oracle oracle;
    PrefixSource source(seed);
    net::Rng rng(seed * 31 + 5);
    std::vector<Prefix> alive;

    for (int step = 0; step < 4000; ++step) {
      const auto roll = rng.uniform_int(0, 99);
      if (roll < 55 || alive.empty()) {  // insert
        const Prefix p = source.next();
        const int v = static_cast<int>(rng.uniform_int(0, 1 << 20));
        ASSERT_EQ(trie.insert(p, v), oracle.insert(p, v))
            << "step " << step << " insert " << p.to_string();
        source.remember(p);
        alive.push_back(p);
      } else if (roll < 85) {  // erase (sometimes a never-inserted key)
        Prefix p = rng.uniform_int(0, 4) == 0
                       ? source.next()
                       : alive[static_cast<std::size_t>(rng.uniform_int(
                             0, static_cast<std::int64_t>(alive.size()) - 1))];
        ASSERT_EQ(trie.erase(p), oracle.erase(p))
            << "step " << step << " erase " << p.to_string();
      } else if (roll < 92) {  // exact find + prefix-form longest match
        const Prefix p = source.next();
        const int* got = trie.find(p);
        const int* want = oracle.find(p);
        ASSERT_EQ(got != nullptr, want != nullptr) << p.to_string();
        if (got != nullptr) EXPECT_EQ(*got, *want);
        const auto lm = trie.longest_match(p);
        const auto olm = oracle.longest_match(p);
        ASSERT_EQ(lm.has_value(), olm.has_value()) << p.to_string();
        if (lm.has_value()) EXPECT_EQ(lm->first, olm->first);
      } else {  // overlap query, plain and filtered
        const Prefix p = source.next();
        ASSERT_EQ(trie.overlaps_any(p), oracle.overlaps_any(p))
            << "step " << step << " overlaps " << p.to_string();
        check_filtered(trie, oracle, p, step % 9);
        // And over the enclosing space, where whole subtrees nest.
        check_filtered(trie, oracle, Prefix::containing(p.base(), 6),
                       4 + step % 9);
      }
      if (step % 500 == 499) check_equivalent(trie, oracle, source, 64);
    }
    check_equivalent(trie, oracle, source, 512);
  }
}

TEST(TrieOracle, JumpTableAgreesAfterMutationBursts) {
  // Grow past the jump-table threshold, hammer longest_match so the table
  // builds, then mutate and verify lookups stay consistent through the
  // invalidate → stale-descent → rebuild cycle.
  PrefixTrie<int> trie;
  Oracle oracle;
  PrefixSource source(4242);
  net::Rng rng(17);

  std::vector<Prefix> alive;
  for (int i = 0; i < 3000; ++i) {
    const Prefix p = source.next();
    trie.insert(p, i);
    oracle.insert(p, i);
    source.remember(p);
    alive.push_back(p);
  }
  for (int burst = 0; burst < 20; ++burst) {
    // Enough lookups to force a rebuild of the stale table…
    check_equivalent(trie, oracle, source, 400);
    // …then churn: erase and reinsert a batch.
    for (int i = 0; i < 50; ++i) {
      const auto at = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(alive.size()) - 1));
      trie.erase(alive[at]);
      oracle.erase(alive[at]);
      const Prefix p = source.next();
      trie.insert(p, burst * 1000 + i);
      oracle.insert(p, burst * 1000 + i);
      alive[at] = p;
    }
  }
  check_equivalent(trie, oracle, source, 400);
}

}  // namespace
}  // namespace net
