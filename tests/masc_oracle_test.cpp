// Differential tests for the MASC allocation state machines against
// brute-force oracles (the trie_oracle_test approach): ClaimRegistry vs. a
// flat interval list replaying the documented claim/fold semantics, and
// DomainPool vs. exhaustive scans of its own published invariants —
// blocks aligned, disjoint, inside active prefixes, and a request
// returning exactly the first-fit slot (failing exactly when none exists).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "masc/pool.hpp"
#include "masc/registry.hpp"
#include "masc/types.hpp"
#include "net/prefix.hpp"
#include "net/rng.hpp"
#include "net/time.hpp"

namespace masc {
namespace {

using net::Prefix;
using net::SimTime;

// ----------------------------------------------------- registry vs oracle

/// Brute-force reference for ClaimRegistry: a flat entry list with O(n)
/// scans, replaying the header-documented semantics directly.
class RegistryOracle {
 public:
  struct Entry {
    Prefix prefix;
    DomainId owner;
    SimTime expires;
  };

  bool claim(const Prefix& prefix, DomainId owner, SimTime expires,
             SimTime now) {
    for (const Entry& e : entries_) {
      if (e.expires > now && e.owner != owner && e.prefix.overlaps(prefix)) {
        return false;  // collision with a live foreign claim
      }
    }
    // Fold live own overlaps into the new claim; an exact-prefix entry is
    // replaced regardless (the trie node is overwritten).
    std::erase_if(entries_, [&](const Entry& e) {
      return (e.expires > now && e.owner == owner &&
              e.prefix.overlaps(prefix)) ||
             e.prefix == prefix;
    });
    entries_.push_back({prefix, owner, expires});
    return true;
  }

  void release(const Prefix& prefix) {
    std::erase_if(entries_, [&](const Entry& e) { return e.prefix == prefix; });
  }

  void purge_expired(SimTime now) {
    std::erase_if(entries_, [&](const Entry& e) { return e.expires <= now; });
  }

  [[nodiscard]] bool is_free(const Prefix& prefix, SimTime now) const {
    return std::none_of(entries_.begin(), entries_.end(), [&](const Entry& e) {
      return e.expires > now && e.prefix.overlaps(prefix);
    });
  }

  [[nodiscard]] std::optional<DomainId> owner_of(const Prefix& prefix,
                                                 SimTime now) const {
    for (const Entry& e : entries_) {
      if (e.prefix == prefix && e.expires > now) return e.owner;
    }
    return std::nullopt;
  }

  /// Live claims as a comparable sorted set.
  [[nodiscard]] std::vector<std::tuple<std::uint32_t, int, DomainId>> claims(
      SimTime now) const {
    std::vector<std::tuple<std::uint32_t, int, DomainId>> out;
    for (const Entry& e : entries_) {
      if (e.expires > now) {
        out.emplace_back(e.prefix.base().value(), e.prefix.length(), e.owner);
      }
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  /// The claim algorithm's "first sub-prefix of the desired size in the
  /// first large-enough free block", read off the decomposition.
  [[nodiscard]] std::optional<Prefix> first_free(const Prefix& within,
                                                 int len, SimTime now) const {
    std::vector<Prefix> free;
    free_prefixes(within, now, free);
    for (const Prefix& block : free) {
      if (block.length() <= len) return block.first_subprefix(len);
    }
    return std::nullopt;
  }

  /// Maximal free decomposition of `space`: split until a piece overlaps
  /// no live claim (free) or lies inside one (taken), over the flat list.
  void free_prefixes(const Prefix& space, SimTime now,
                     std::vector<Prefix>& out) const {
    if (is_free(space, now)) {
      out.push_back(space);
      return;
    }
    const bool covered =
        std::any_of(entries_.begin(), entries_.end(), [&](const Entry& e) {
          return e.expires > now && e.prefix.contains(space);
        });
    if (covered || space.length() == 32) return;
    free_prefixes(space.left_child(), now, out);
    free_prefixes(space.right_child(), now, out);
  }

 private:
  std::vector<Entry> entries_;
};

std::vector<std::tuple<std::uint32_t, int, DomainId>> live_claims(
    const ClaimRegistry& registry, SimTime now) {
  std::vector<std::tuple<std::uint32_t, int, DomainId>> out;
  for (const auto& [prefix, entry] : registry.claims(now)) {
    out.emplace_back(prefix.base().value(), prefix.length(), entry.owner);
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(RegistryOracle, RandomClaimChurnMatchesBruteForce) {
  const Prefix space = Prefix::parse("224.0.0.0/8");
  net::Rng rng(0xC1A1Full);
  ClaimRegistry registry;
  RegistryOracle oracle;
  SimTime now = SimTime::seconds(0);

  const auto random_prefix = [&]() {
    // Lengths 10..16 inside 224/8: deep enough to nest, shallow enough to
    // collide often.
    const int len = static_cast<int>(rng.uniform_int(10, 16));
    const std::uint64_t slots = 1ull << (len - space.length());
    return space.subprefix_at(len, rng.uniform_int(0, static_cast<std::int64_t>(slots) - 1));
  };

  std::vector<Prefix> touched;
  for (int op = 0; op < 4000; ++op) {
    now = now + SimTime::seconds(rng.uniform_int(0, 30));
    const int kind = static_cast<int>(rng.uniform_int(0, 9));
    if (kind < 6) {  // claim
      const Prefix p = random_prefix();
      const auto owner = static_cast<DomainId>(rng.uniform_int(1, 4));
      const SimTime expires = now + SimTime::seconds(rng.uniform_int(1, 600));
      EXPECT_EQ(registry.claim(p, owner, expires, now),
                oracle.claim(p, owner, expires, now))
          << "claim " << p.to_string() << " by " << owner << " at op " << op;
      touched.push_back(p);
    } else if (kind < 8 && !touched.empty()) {  // release
      const Prefix p = touched[rng.index(touched.size())];
      registry.release(p);
      oracle.release(p);
    } else {  // purge
      registry.purge_expired(now);
      oracle.purge_expired(now);
    }

    // Probe agreement on a few random prefixes every step, full-state
    // agreement periodically.
    for (int probe = 0; probe < 4; ++probe) {
      const Prefix p = random_prefix();
      ASSERT_EQ(registry.is_free(p, now), oracle.is_free(p, now))
          << "is_free(" << p.to_string() << ") diverged at op " << op;
      const auto hit = registry.conflicting(p, now);
      ASSERT_EQ(hit.has_value(), !oracle.is_free(p, now));
      if (hit) {  // a live claim that really overlaps the probe
        ASSERT_TRUE(hit->first.overlaps(p));
        ASSERT_EQ(oracle.owner_of(hit->first, now), hit->second.owner);
      }
      ASSERT_EQ(registry.owner_of(p, now), oracle.owner_of(p, now));
      // Slot lengths from the probe's own up to 6 bits deeper, drawn
      // without the rng so the churn sequence stays as it was.
      const int len = p.length() + (op + probe) % 7;
      ASSERT_EQ(registry.first_free(p, len, now),
                oracle.first_free(p, len, now))
          << "first_free(" << p.to_string() << ", /" << len
          << ") diverged at op " << op;
    }
    if (op % 200 == 0) {
      ASSERT_EQ(live_claims(registry, now), oracle.claims(now))
          << "live claim sets diverged at op " << op;
      std::vector<Prefix> expect;
      oracle.free_prefixes(space, now, expect);
      ASSERT_EQ(registry.free_prefixes(space, now), expect)
          << "free decomposition diverged at op " << op;
      for (int len = 10; len <= 20; ++len) {
        ASSERT_EQ(registry.first_free(space, len, now),
                  oracle.first_free(space, len, now))
            << "first_free(/" << len << ") diverged at op " << op;
      }
    }
  }
}

TEST(RegistryRegression, ExpiredDeepEntryDoesNotShadowLiveAncestor) {
  // Found by the differential test: expiry is lazy, and the overlap scan
  // used to consult only the DEEPEST stored ancestor of a probe. An
  // expired /12 sitting on the path masked a live /10 above it, so space
  // inside a live claim was reported free (and could be claimed again).
  ClaimRegistry registry;
  const SimTime start = SimTime::seconds(0);
  ASSERT_TRUE(registry.claim(Prefix::parse("224.16.0.0/12"), 2,
                             SimTime::seconds(100), start));
  const SimTime later = SimTime::seconds(200);  // the /12 has now lapsed
  ASSERT_TRUE(registry.claim(Prefix::parse("224.0.0.0/10"), 1,
                             SimTime::days(1), later));
  const Prefix probe = Prefix::parse("224.16.0.0/14");  // under both
  EXPECT_FALSE(registry.is_free(probe, later));
  const auto hit = registry.conflicting(probe, later);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->second.owner, 1u);  // the live /10, not the expired /12
  // And the whole /10 decomposes to no free space at all.
  EXPECT_TRUE(
      registry.free_prefixes(Prefix::parse("224.0.0.0/10"), later).empty());
}

// --------------------------------------------------------- pool vs oracle

struct PoolModel {
  /// Mirror of the pool's published state, rebuilt from its accessors.
  std::vector<ClaimedPrefix> prefixes;
  std::vector<Block> blocks;
};

PoolModel snapshot(const DomainPool& pool, const std::set<std::uint64_t>& ids,
                   const std::vector<Block>& ours) {
  PoolModel m;
  m.prefixes = pool.prefixes();
  for (const Block& b : ours) {
    if (ids.contains(b.id)) m.blocks.push_back(b);
  }
  return m;
}

/// Brute force first fit: the lowest free aligned slot of `len` in the
/// lowest-addressed active prefix that has one. The pool's placement must
/// return exactly this slot, and fail exactly when there is none.
std::optional<Prefix> first_fit_slot(const PoolModel& m, int len) {
  std::vector<Prefix> active;
  for (const ClaimedPrefix& cp : m.prefixes) {
    if (cp.active) active.push_back(cp.prefix);
  }
  std::sort(active.begin(), active.end());
  for (const Prefix& held : active) {
    if (held.length() > len) continue;
    const std::uint64_t slots = 1ull << (len - held.length());
    for (std::uint64_t s = 0; s < slots; ++s) {
      const Prefix candidate = held.subprefix_at(len, s);
      const bool occupied =
          std::any_of(m.blocks.begin(), m.blocks.end(), [&](const Block& b) {
            return b.range.overlaps(candidate);
          });
      if (!occupied) return candidate;
    }
  }
  return std::nullopt;
}

TEST(PoolOracle, RandomBlockChurnKeepsPublishedInvariants) {
  PoolParams params;
  params.strategy = ClaimStrategy::kFirstFit;  // deterministic placement
  params.max_prefixes = 4;
  DomainPool pool(1, params);
  net::Rng rng(0xB10C5ull);
  SimTime now = SimTime::seconds(0);

  // Hand the pool a few /24s out of disjoint space, as MASC would, out of
  // address order so that first fit must order the held prefixes itself.
  const std::vector<Prefix> claimable = {
      Prefix::parse("224.9.0.0/24"), Prefix::parse("224.1.3.0/24"),
      Prefix::parse("225.4.4.0/24"), Prefix::parse("224.1.1.0/24")};
  std::size_t next_claim = 0;
  pool.add_prefix(claimable[next_claim++], now + SimTime::days(30));

  std::vector<Block> issued;       // every block ever returned
  std::set<std::uint64_t> live;    // ids we have not released / seen expire
  for (int op = 0; op < 2000; ++op) {
    now = now + SimTime::seconds(rng.uniform_int(0, 120));
    const int kind = static_cast<int>(rng.uniform_int(0, 9));
    if (kind < 6) {  // request
      const std::uint64_t addresses = 1ull << rng.uniform_int(0, 6);
      const int len = mask_length_for(addresses);
      const PoolModel before = snapshot(pool, live, issued);
      const SimTime lifetime = SimTime::seconds(rng.uniform_int(60, 3600));
      const auto block = pool.request_block(addresses, now, lifetime);
      const std::optional<Prefix> expect = first_fit_slot(before, len);
      ASSERT_EQ(block.has_value(), expect.has_value())
          << "request_block(" << addresses << ") at op " << op
          << " disagrees with the brute-force free-slot scan";
      if (block) {
        EXPECT_EQ(block->range, *expect)
            << "request_block(" << addresses << ") at op " << op
            << " is not the first-fit slot";
        // Aligned, correctly sized, inside an active prefix, disjoint from
        // every other live block.
        EXPECT_EQ(block->range.length(), len);
        EXPECT_TRUE(std::any_of(
            before.prefixes.begin(), before.prefixes.end(),
            [&](const ClaimedPrefix& cp) {
              return cp.active && cp.prefix.contains(block->range);
            }));
        for (const Block& other : before.blocks) {
          EXPECT_FALSE(other.range.overlaps(block->range))
              << block->range.to_string() << " overlaps live block "
              << other.range.to_string() << " at op " << op;
        }
        issued.push_back(*block);
        live.insert(block->id);
      } else if (pool.prefixes().size() <
                 static_cast<std::size_t>(params.max_prefixes) &&
                 next_claim < claimable.size()) {
        // Out of space: grow like the owner would after a claim.
        pool.add_prefix(claimable[next_claim++], now + SimTime::days(30));
      }
    } else if (kind < 8 && !live.empty()) {  // release
      auto it = live.begin();
      std::advance(it, rng.index(live.size()));
      EXPECT_TRUE(pool.release_block(*it));
      live.erase(it);
    } else {  // age
      (void)pool.age(now);
      std::erase_if(live, [&](std::uint64_t id) {
        const auto it =
            std::find_if(issued.begin(), issued.end(),
                         [&](const Block& b) { return b.id == id; });
        return it != issued.end() && it->expires <= now;
      });
    }

    // Cross-check the aggregate accounting every step.
    ASSERT_EQ(pool.blocks().size(), live.size()) << "at op " << op;
    std::uint64_t allocated = 0;
    for (const Block& b : issued) {
      if (live.contains(b.id)) {
        allocated += 1ull << (32 - b.range.length());
      }
    }
    ASSERT_EQ(pool.allocated_addresses(), allocated) << "at op " << op;
  }
  // Releasing everything must leave the pool empty of allocations.
  for (const std::uint64_t id : live) EXPECT_TRUE(pool.release_block(id));
  EXPECT_EQ(pool.allocated_addresses(), 0u);
  EXPECT_TRUE(pool.blocks().empty());
}

}  // namespace
}  // namespace masc
