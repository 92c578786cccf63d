// A registry of claimed address ranges with lifetimes — the "local record
// of those prefixes that have already been claimed by its siblings" that
// the claim algorithm consults (§4.3.3), and the bookkeeping a parent
// domain keeps of claims inside its space (§4.1).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "net/prefix.hpp"
#include "net/prefix_trie.hpp"
#include "net/time.hpp"
#include "masc/types.hpp"

namespace masc {

class ClaimRegistry {
 public:
  struct Entry {
    DomainId owner;
    net::SimTime expires;
  };

  /// Records a claim. Returns false (and records nothing) if it overlaps a
  /// live claim by a DIFFERENT owner — a collision. Re-claiming one's own
  /// exact prefix renews its expiry; an own-overlapping but different
  /// prefix (doubling) replaces the old entries it covers.
  bool claim(const net::Prefix& prefix, DomainId owner, net::SimTime expires,
             net::SimTime now);

  /// Removes an exact claim (idempotent).
  void release(const net::Prefix& prefix);

  /// True if no live claim overlaps `prefix` at `now`.
  [[nodiscard]] bool is_free(const net::Prefix& prefix, net::SimTime now) const;

  /// The live claim overlapping `prefix`, if any.
  [[nodiscard]] std::optional<std::pair<net::Prefix, Entry>> conflicting(
      const net::Prefix& prefix, net::SimTime now) const;

  /// Owner of the exact live claim on `prefix`, if present.
  [[nodiscard]] std::optional<DomainId> owner_of(const net::Prefix& prefix,
                                                 net::SimTime now) const;

  /// Drops expired entries. Call periodically (or before metrics).
  void purge_expired(net::SimTime now);

  /// Maximal free sub-prefixes of `space` at `now`, in address order: the
  /// decomposition of the unclaimed space the claim algorithm searches.
  [[nodiscard]] std::vector<net::Prefix> free_prefixes(
      const net::Prefix& space, net::SimTime now) const;

  /// The lowest aligned /`len` sub-prefix of `within` that no live claim
  /// overlaps at `now` — the first sub-prefix of the desired size in the
  /// first large-enough block of free_prefixes(within, now), found without
  /// building the decomposition.
  [[nodiscard]] std::optional<net::Prefix> first_free(
      const net::Prefix& within, int len, net::SimTime now) const;

  /// All live claims, in address order.
  [[nodiscard]] std::vector<std::pair<net::Prefix, Entry>> claims(
      net::SimTime now) const;

  [[nodiscard]] std::size_t size() const { return trie_.size(); }

 private:
  net::PrefixTrie<Entry> trie_;
};

}  // namespace masc
