#include "masc/registry.hpp"

#include <stdexcept>

namespace masc {

namespace {

bool is_live(const ClaimRegistry::Entry& entry, net::SimTime now) {
  return entry.expires > now;
}

/// The trie searches' filter: expiry is lazy, so an expired entry still
/// sits in the trie and must be treated as absent.
auto live_at(net::SimTime now) {
  return [now](const ClaimRegistry::Entry& e) { return is_live(e, now); };
}

}  // namespace

bool ClaimRegistry::claim(const net::Prefix& prefix, DomainId owner,
                          net::SimTime expires, net::SimTime now) {
  if (expires <= now) {
    throw std::invalid_argument("ClaimRegistry::claim: already expired");
  }
  // Collect live overlapping claims; any foreign one is a collision.
  std::vector<net::Prefix> own_overlaps;
  bool foreign = false;
  const auto consider = [&](const net::Prefix& p, const Entry& e) {
    if (!is_live(e, now)) return;
    if (e.owner == owner) {
      own_overlaps.push_back(p);
    } else {
      foreign = true;
    }
  };
  trie_.for_each_ancestor(prefix, [&](const net::Prefix& p, const Entry& e) {
    consider(p, e);
  });
  trie_.for_each_within(prefix, [&](const net::Prefix& p, const Entry& e) {
    if (p.length() > prefix.length()) consider(p, e);
  });
  if (foreign) return false;
  // Doubling/renewal: own claims covered by (or covering) the new prefix
  // are folded into it.
  for (const net::Prefix& p : own_overlaps) trie_.erase(p);
  trie_.insert(prefix, Entry{owner, expires});
  return true;
}

void ClaimRegistry::release(const net::Prefix& prefix) {
  trie_.erase(prefix);
}

bool ClaimRegistry::is_free(const net::Prefix& prefix,
                            net::SimTime now) const {
  return !trie_.first_overlap(prefix, live_at(now)).has_value();
}

std::optional<std::pair<net::Prefix, ClaimRegistry::Entry>>
ClaimRegistry::conflicting(const net::Prefix& prefix, net::SimTime now) const {
  const auto hit = trie_.first_overlap(prefix, live_at(now));
  if (!hit) return std::nullopt;
  return {{hit->first, *hit->second}};
}

std::optional<DomainId> ClaimRegistry::owner_of(const net::Prefix& prefix,
                                                net::SimTime now) const {
  const Entry* entry = trie_.find(prefix);
  if (entry == nullptr || !is_live(*entry, now)) return std::nullopt;
  return entry->owner;
}

void ClaimRegistry::purge_expired(net::SimTime now) {
  std::vector<net::Prefix> dead;
  trie_.for_each([&](const net::Prefix& p, const Entry& e) {
    if (!is_live(e, now)) dead.push_back(p);
  });
  for (const net::Prefix& p : dead) trie_.erase(p);
}

std::vector<net::Prefix> ClaimRegistry::free_prefixes(
    const net::Prefix& space, net::SimTime now) const {
  std::vector<net::Prefix> out;
  trie_.free_within(space, live_at(now), out);
  return out;
}

std::optional<net::Prefix> ClaimRegistry::first_free(const net::Prefix& within,
                                                     int len,
                                                     net::SimTime now) const {
  return trie_.first_free(within, len, live_at(now));
}

std::vector<std::pair<net::Prefix, ClaimRegistry::Entry>>
ClaimRegistry::claims(net::SimTime now) const {
  std::vector<std::pair<net::Prefix, Entry>> out;
  trie_.for_each([&](const net::Prefix& p, const Entry& e) {
    if (is_live(e, now)) out.emplace_back(p, e);
  });
  return out;
}

}  // namespace masc
