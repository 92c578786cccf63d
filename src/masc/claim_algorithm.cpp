#include "masc/claim_algorithm.hpp"

#include <algorithm>

namespace masc {

std::vector<net::Prefix> shortest_free_prefixes(
    std::span<const net::Prefix> spaces, const ClaimRegistry& registry,
    net::SimTime now) {
  std::vector<net::Prefix> all;
  for (const net::Prefix& space : spaces) {
    const std::vector<net::Prefix> free = registry.free_prefixes(space, now);
    all.insert(all.end(), free.begin(), free.end());
  }
  if (all.empty()) return all;
  const int shortest =
      std::min_element(all.begin(), all.end(),
                       [](const net::Prefix& a, const net::Prefix& b) {
                         return a.length() < b.length();
                       })
          ->length();
  std::erase_if(all,
                [shortest](const net::Prefix& p) {
                  return p.length() != shortest;
                });
  std::sort(all.begin(), all.end());
  return all;
}

std::optional<net::Prefix> choose_claim(std::span<const net::Prefix> spaces,
                                        const ClaimRegistry& registry,
                                        int desired_len, net::SimTime now,
                                        net::Rng& rng,
                                        ClaimStrategy strategy) {
  // Candidate blocks: free prefixes large enough for the desired size.
  std::vector<net::Prefix> blocks;
  for (const net::Prefix& space : spaces) {
    for (const net::Prefix& free : registry.free_prefixes(space, now)) {
      if (free.length() <= desired_len) blocks.push_back(free);
    }
  }
  if (blocks.empty()) return std::nullopt;
  // Keep only the shortest-mask (largest) blocks — claiming inside the
  // biggest holes maximizes everyone's future doubling headroom.
  const int shortest =
      std::min_element(blocks.begin(), blocks.end(),
                       [](const net::Prefix& a, const net::Prefix& b) {
                         return a.length() < b.length();
                       })
          ->length();
  std::erase_if(blocks, [shortest](const net::Prefix& p) {
    return p.length() != shortest;
  });
  std::sort(blocks.begin(), blocks.end());

  switch (strategy) {
    case ClaimStrategy::kRandomBlockFirstSub: {
      const net::Prefix& block = blocks[rng.index(blocks.size())];
      return block.first_subprefix(desired_len);
    }
    case ClaimStrategy::kFirstFit:
      return blocks.front().first_subprefix(desired_len);
    case ClaimStrategy::kRandomBlockRandomSub: {
      const net::Prefix& block = blocks[rng.index(blocks.size())];
      const std::uint64_t count = std::uint64_t{1}
                                  << (desired_len - block.length());
      return block.subprefix_at(
          desired_len,
          static_cast<std::uint64_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(count) - 1)));
    }
  }
  return std::nullopt;
}

std::optional<net::Prefix> choose_claim_near(
    std::span<const net::Prefix> own, std::span<const net::Prefix> spaces,
    const ClaimRegistry& registry, int desired_len, net::SimTime now,
    net::Rng& rng, ClaimStrategy strategy) {
  // Walk outward from each own prefix through its enclosing blocks; claim
  // the lowest free slot of the desired size in the nearest one. Anchors
  // are tried largest-first (grow the domain's main block).
  std::vector<net::Prefix> anchors(own.begin(), own.end());
  std::sort(anchors.begin(), anchors.end(),
            [](const net::Prefix& a, const net::Prefix& b) {
              if (a.length() != b.length()) return a.length() < b.length();
              return a < b;
            });
  for (const net::Prefix& anchor : anchors) {
    std::optional<net::Prefix> enclosing = anchor.parent();
    while (enclosing) {
      const bool inside_space = std::any_of(
          spaces.begin(), spaces.end(),
          [&](const net::Prefix& s) { return s.contains(*enclosing); });
      if (!inside_space) break;
      if (auto slot = registry.first_free(*enclosing, desired_len, now)) {
        return slot;
      }
      enclosing = enclosing->parent();
    }
  }
  return choose_claim(spaces, registry, desired_len, now, rng, strategy);
}

bool can_double(const net::Prefix& prefix, std::span<const net::Prefix> spaces,
                const ClaimRegistry& registry, net::SimTime now) {
  const std::optional<net::Prefix> sibling = prefix.sibling();
  const std::optional<net::Prefix> parent = prefix.parent();
  if (!sibling || !parent) return false;
  const bool inside_space =
      std::any_of(spaces.begin(), spaces.end(), [&](const net::Prefix& s) {
        return s.contains(*parent);
      });
  return inside_space && registry.is_free(*sibling, now);
}

int mask_length_for(std::uint64_t addresses) {
  if (addresses == 0) {
    throw std::invalid_argument("mask_length_for: zero addresses");
  }
  if (addresses > (std::uint64_t{1} << 32)) {
    throw std::invalid_argument("mask_length_for: more than 2^32 addresses");
  }
  int len = 32;
  std::uint64_t capacity = 1;
  while (capacity < addresses) {
    capacity <<= 1;
    --len;
  }
  return len;
}

}  // namespace masc
