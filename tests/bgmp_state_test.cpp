// Tests for BGMP forwarding-state aggregation (§7), soft prune state and
// the running state-byte total the telemetry gauges read.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/domain.hpp"
#include "core/internet.hpp"
#include "net/prefix.hpp"
#include "net/rng.hpp"
#include "topology/graph.hpp"

namespace core {
namespace {

using net::Ipv4Addr;
using net::Prefix;

Group nth_group(int n) {
  return Ipv4Addr{Ipv4Addr::parse("224.0.128.0").value() +
                  static_cast<std::uint32_t>(n)};
}

struct StateNet {
  Internet net;
  Domain& root;
  Domain& transit;
  Domain& m1;
  Domain& m2;

  StateNet()
      : root(net.add_domain({.id = 1, .name = "root"})),
        transit(net.add_domain({.id = 2, .name = "transit"})),
        m1(net.add_domain({.id = 3, .name = "m1"})),
        m2(net.add_domain({.id = 4, .name = "m2"})) {
    net.link(root, transit);
    net.link(transit, m1);
    net.link(transit, m2);
    root.originate_group_range(Prefix::parse("224.0.128.0/24"));
    net.settle();
  }
};

TEST(StateAggregation, IdenticalTargetListsCollapseToOneEntry) {
  StateNet t;
  for (int g = 0; g < 16; ++g) {
    t.m1.host_join(nth_group(g));
    t.m2.host_join(nth_group(g));
  }
  t.net.settle();
  EXPECT_EQ(t.transit.bgmp_router().entry_count(), 16u);
  // All sixteen groups form one aligned /28 with one target list.
  EXPECT_EQ(t.transit.bgmp_router().aggregated_star_count(), 1u);
}

TEST(StateAggregation, DivergentMemberSetsResistAggregation) {
  StateNet t;
  for (int g = 0; g < 16; ++g) {
    if (g % 2 == 0) {
      t.m1.host_join(nth_group(g));
    } else {
      t.m2.host_join(nth_group(g));
    }
  }
  t.net.settle();
  // Alternating signatures: no sibling pair matches.
  EXPECT_EQ(t.transit.bgmp_router().aggregated_star_count(), 16u);
}

TEST(StateAggregation, BlockwiseMembershipAggregatesPerBlock) {
  StateNet t;
  for (int g = 0; g < 8; ++g) t.m1.host_join(nth_group(g));        // /29
  for (int g = 8; g < 16; ++g) t.m2.host_join(nth_group(g));       // /29
  t.net.settle();
  EXPECT_EQ(t.transit.bgmp_router().aggregated_star_count(), 2u);
}

TEST(StateAggregation, MisalignedRangesSplitIntoCidrBlocks) {
  StateNet t;
  // Groups 1..6 (inclusive): the minimal CIDR cover of {1,2,3,4,5,6} with
  // one signature is {1/32, 2/31, 4/31, 6/32} = 4 entries.
  for (int g = 1; g <= 6; ++g) t.m1.host_join(nth_group(g));
  t.net.settle();
  EXPECT_EQ(t.transit.bgmp_router().entry_count(), 6u);
  EXPECT_EQ(t.transit.bgmp_router().aggregated_star_count(), 4u);
}

TEST(StateAggregation, EmptyRouterHasZero) {
  StateNet t;
  EXPECT_EQ(t.transit.bgmp_router().aggregated_star_count(), 0u);
}

// ----------------------------------------------------- soft prune state

TEST(SoftPruneState, ExpiredPruneRestoresSharedTreeFlow) {
  // source--root--member: member builds a branch via a direct
  // source--member link, pruning S off the root-side path; the link then
  // dies. After the prune lifetime the shared tree serves S again.
  Internet net;
  Domain& root = net.add_domain({.id = 1, .name = "root"});
  Domain& member = net.add_domain({.id = 2, .name = "member"});
  Domain& source = net.add_domain({.id = 3, .name = "source"});
  std::map<const Domain*, int> copies;
  net.set_delivery_observer(
      [&](const Delivery& d) { ++copies[d.domain]; });
  net.link(root, member);
  net.link(root, source);
  net.link(source, member);
  root.originate_group_range(Prefix::parse("224.0.128.0/24"));
  source.announce_unicast();
  net.settle();
  const Group group = nth_group(1);
  member.host_join(group);
  net.settle();
  const Ipv4Addr s = source.host_address(1);
  member.build_source_branch(s, group);
  net.settle();
  copies.clear();
  source.send(group);
  net.settle();
  EXPECT_EQ(copies[&member], 1);  // via the branch, shared path pruned

  net.set_link_state(source, member, false);
  net.settle();  // prune state expires during the settle
  copies.clear();
  source.send(group);
  net.settle();
  EXPECT_EQ(copies[&member], 1);  // shared tree again
}

TEST(SoftPruneState, LiveBranchReprunesAfterExpiry) {
  // Same shape, but the branch stays alive: after the upstream prune
  // expires, a stray tree copy reaching the member is re-pruned
  // data-driven, and the member still sees exactly one copy per packet.
  Internet net;
  Domain& root = net.add_domain({.id = 1, .name = "root"});
  Domain& member = net.add_domain({.id = 2, .name = "member"});
  Domain& source = net.add_domain({.id = 3, .name = "source"});
  std::map<const Domain*, int> copies;
  net.set_delivery_observer(
      [&](const Delivery& d) { ++copies[d.domain]; });
  net.link(root, member);
  net.link(root, source);
  net.link(source, member);
  root.originate_group_range(Prefix::parse("224.0.128.0/24"));
  source.announce_unicast();
  net.settle();
  const Group group = nth_group(1);
  member.host_join(group);
  net.settle();
  const Ipv4Addr s = source.host_address(1);
  member.build_source_branch(s, group);
  net.settle();  // prune state installed… and expires during settle
  for (int packet = 0; packet < 3; ++packet) {
    copies.clear();
    source.send(group);
    net.settle();
    EXPECT_EQ(copies[&member], 1) << "packet " << packet;
  }
}

// ------------------------------------------------------ state-byte ledger

void expect_ledger_matches(Internet& net, const std::string& where) {
  for (std::size_t i = 0; i < net.domain_count(); ++i) {
    Domain& d = net.domain(i);
    for (std::size_t b = 0; b < d.border_count(); ++b) {
      const bgmp::Router& r = d.bgmp_router(b);
      ASSERT_EQ(r.state_bytes(), r.recount_state_bytes())
          << r.name() << " " << where;
    }
  }
}

// Random joins, leaves, source branches, data (which drives the
// source-specific prunes of §5.3), link flaps and crash-restarts
// (lose_all_state) over a small internet. After every settle each
// router's O(1) state_bytes() must equal the full walk.
TEST(StateByteLedger, RunningTotalMatchesRecountUnderChurn) {
  std::size_t max_source_entries = 0;
  std::size_t max_bytes = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Internet net;
    Domain& root = net.add_domain({.id = 1, .name = "root"});
    Domain& source = net.add_domain({.id = 2, .name = "source"});
    Domain& transit = net.add_domain({.id = 3, .name = "transit"});
    Domain& m1 = net.add_domain({.id = 4, .name = "m1"});
    Domain& m2 = net.add_domain({.id = 5, .name = "m2"});
    const std::vector<Domain*> domains{&root, &source, &transit, &m1, &m2};
    // The source--m1 shortcut lets m1 branch off the shared tree.
    const std::vector<std::pair<Domain*, Domain*>> links{
        {&root, &transit}, {&transit, &m1}, {&transit, &m2},
        {&root, &source},  {&source, &m1},  {&m1, &m2}};
    for (const auto& [a, b] : links) net.link(*a, *b);
    root.originate_group_range(Prefix::parse("224.0.128.0/24"));
    for (Domain* d : domains) d->announce_unicast();
    net.settle();

    net::Rng rng(seed);
    std::set<std::pair<Domain*, int>> joined;
    std::vector<bool> link_up(links.size(), true);
    for (int step = 0; step < 80; ++step) {
      Domain& d = *domains[rng.index(domains.size())];
      const int g = static_cast<int>(rng.index(4));
      switch (rng.index(7)) {
        case 0:
        case 1:
          if (joined.emplace(&d, g).second) d.host_join(nth_group(g));
          break;
        case 2:
          if (joined.erase({&d, g}) > 0) d.host_leave(nth_group(g));
          break;
        case 3:
          d.build_source_branch(source.host_address(1), nth_group(g));
          break;
        case 4:
          source.send(nth_group(g));
          break;
        case 5: {
          const std::size_t l = rng.index(links.size());
          link_up[l] = !link_up[l];
          net.set_link_state(*links[l].first, *links[l].second, link_up[l]);
          break;
        }
        case 6:
          net.crash_restart_domain(d);
          break;
      }
      net.settle();
      expect_ledger_matches(net, "seed " + std::to_string(seed) +
                                     " step " + std::to_string(step));
      if (HasFatalFailure()) return;
      for (Domain* dom : domains) {
        const bgmp::Router& r = dom->bgmp_router();
        max_source_entries =
            std::max(max_source_entries, r.source_entries().size());
        max_bytes = std::max(max_bytes, r.state_bytes());
      }
    }
  }
  // The sequences built real tree state, source-specific entries included.
  EXPECT_GT(max_source_entries, 0u);
  EXPECT_GT(max_bytes, 0u);
}

// The encapsulation path of §5.3 through a two-border domain (Figure 3(b)):
// data enters F at the RPF-wrong border, is encapsulated, F2 builds a
// branch and prunes the encapsulator once native data flows. The ledger
// must track the (S,G) copies and the encapsulator bookkeeping throughout.
TEST(StateByteLedger, RunningTotalTracksEncapsulationAndBranchPrune) {
  topology::Graph pair(2);
  pair.add_edge(0, 1);
  Internet net;
  Domain& b = net.add_domain({.id = 20, .name = "B"});
  Domain& d = net.add_domain({.id = 40, .name = "D"});
  Domain& f = net.add_domain(
      {.id = 60, .name = "F", .internal_graph = pair, .borders = {0, 1}});
  net.link(b, f, bgp::Relationship::kLateral, 0, 0);  // B1 -- F1
  net.link(b, d, bgp::Relationship::kLateral, 0, 0);  // B1 -- D1
  net.link(d, f, bgp::Relationship::kLateral, 0, 1);  // D1 -- F2 shortcut
  b.originate_group_range(Prefix::parse("224.0.128.0/24"));
  for (Domain* dom : {&b, &d, &f}) dom->announce_unicast();
  net.settle();
  const Group group = nth_group(1);
  f.host_join(group, /*at=*/0);
  net.settle();
  expect_ledger_matches(net, "after join");
  for (int packet = 0; packet < 3; ++packet) {
    d.send(group);
    net.settle();
    expect_ledger_matches(net, "after packet " + std::to_string(packet));
  }
  EXPECT_NE(f.bgmp_router(1).source_entry(d.host_address(1), group), nullptr);
  net.set_link_state(d, f, false);
  net.settle();
  expect_ledger_matches(net, "after branch link down");
  f.host_leave(group, /*at=*/0);
  net.settle();
  expect_ledger_matches(net, "after leave");
  net.crash_restart_domain(f);
  net.settle();
  expect_ledger_matches(net, "after crash-restart");
  EXPECT_EQ(f.bgmp_router(0).state_bytes(), 0u);
}

}  // namespace
}  // namespace core
