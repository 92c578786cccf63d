// A BGP speaker: one per border router.
//
// Speakers hold the three MBGP routing-table views (unicast, M-RIB, G-RIB),
// exchange update messages over peering channels, run the decision process,
// and apply export policy. Two behaviours from the paper are first-class:
//
// * Group-route aggregation (§4.3.2): a speaker whose domain originates a
//   covering prefix does not propagate its children's more-specific group
//   routes to external peers — "the border routers of the parent domain
//   need not propagate their children's group routes explicitly".
// * Policy as selective propagation (§2, §4.2): provider/customer export
//   rules ("Gao–Rexford") limit which routes a domain will carry, for
//   multicast exactly as for unicast.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "net/network.hpp"
#include "net/prefix_trie.hpp"
#include "bgp/messages.hpp"
#include "bgp/rib.hpp"
#include "bgp/route_table.hpp"
#include "bgp/types.hpp"

namespace bgp {

class Speaker;

/// Export policy applied on a peering, per direction.
enum class ExportPolicy : std::uint8_t {
  kAdvertiseAll,  ///< no policy filter
  /// Advertise to customers everything; to providers/laterals only routes
  /// that are locally originated or learned from customers (inferred from
  /// LOCAL_PREF >= 100, the standard encoding).
  kGaoRexford,
};

/// Result of a longest-prefix-match query against one RIB view, as consumed
/// by BGMP: which peer is the next hop toward the prefix's origin.
struct LookupResult {
  net::Prefix prefix;
  Route route;
  /// The speaker to forward toward; nullptr when the route is locally
  /// originated (this domain is the root/origin — §5.2's "no BGP next hop").
  Speaker* next_hop = nullptr;
  /// True if next_hop is an internal (same-domain) peer — the best exit
  /// router reached through the MIGP rather than directly.
  bool internal = false;
};

class Speaker final : public net::Endpoint {
 public:
  Speaker(net::Network& network, DomainId as, std::string name);

  Speaker(const Speaker&) = delete;
  Speaker& operator=(const Speaker&) = delete;

  /// Establishes a peering between two speakers. `a_sees_b` is the
  /// relationship from a's perspective (kInternal iff same domain, which is
  /// enforced). Each side immediately advertises its table to the other,
  /// as on BGP session establishment. Returns the channel (for
  /// link-failure experiments).
  static net::ChannelId connect(
      Speaker& a, Speaker& b, Relationship a_sees_b,
      net::SimTime latency = net::SimTime::milliseconds(10),
      ExportPolicy a_export = ExportPolicy::kAdvertiseAll,
      ExportPolicy b_export = ExportPolicy::kAdvertiseAll);

  /// Injects a locally-originated route (e.g. a MASC allocation as a group
  /// route). Idempotent.
  void originate(RouteType type, const net::Prefix& prefix);

  /// Withdraws a locally-originated route (e.g. an expired MASC range).
  void withdraw(RouteType type, const net::Prefix& prefix);

  [[nodiscard]] const Rib& rib(RouteType type) const {
    return ribs_[static_cast<std::size_t>(type)];
  }

  /// Longest-match lookup in one view; how BGMP resolves "the next hop
  /// towards the group's root domain".
  [[nodiscard]] std::optional<LookupResult> lookup(RouteType type,
                                                   net::Ipv4Addr addr) const;

  [[nodiscard]] DomainId as() const { return as_; }
  [[nodiscard]] std::uint64_t uid() const { return uid_; }
  [[nodiscard]] std::string name() const override { return name_; }
  [[nodiscard]] std::uint64_t owner_id() const override { return as_; }

  /// Turns §4.3.2's export-time aggregation on/off (on by default). With it
  /// off, every more-specific learned route is propagated — the ablation
  /// baseline for the G-RIB-size experiments.
  void set_aggregation(bool enabled);

  /// Registers a callback fired whenever a loc-RIB best route changes
  /// (installed, replaced or lost). BGMP uses it to migrate shared-tree
  /// parents when the path toward a root domain moves.
  using RouteChangeListener =
      std::function<void(RouteType, const net::Prefix&)>;
  void add_route_change_listener(RouteChangeListener listener) {
    listeners_.push_back(std::move(listener));
  }

  /// Session introspection for invariant checkers: the number of peerings
  /// (the PeerIndex range), the speaker behind one, and whether its
  /// transport session is currently up. A RIB candidate whose `via` names
  /// a down session is stale state the session teardown should have
  /// flushed.
  [[nodiscard]] std::size_t peer_count() const { return peers_.size(); }
  [[nodiscard]] Speaker* peer_speaker(PeerIndex index) const {
    return peers_.at(index).speaker;
  }
  [[nodiscard]] bool peer_session_up(PeerIndex index) const {
    return network_.is_up(peers_.at(index).channel);
  }

  /// The Adj-RIB-Out toward one peer, derived from its export class: calls
  /// `fn(prefix, route)`, in address order, for every route of `type` the
  /// peer has been sent (while its session is down: will be sent on re-
  /// establishment). Read-only; for invariant checkers and tests.
  template <typename Fn>
  void for_each_advertised(PeerIndex index, RouteType type, Fn&& fn) const {
    const Peer& peer = peers_.at(index);
    const ExportClass& cls = classes_[peer.export_class];
    cls.table[static_cast<std::size_t>(type)].for_each(
        [&](const net::Prefix& prefix, const RouteRef& ref) {
          if (sends(cls, ref, peer)) fn(prefix, ref.get());
        });
  }

  /// Test-only fault injection: the next non-empty update due to peer
  /// `index` is counted as sent but never delivered.
  void debug_lose_next_update(PeerIndex index) { lose_next_update_ = index; }

  /// Bytes of routing state held by this speaker: the three RIB views
  /// (trie pools + candidate slots), the origin tables, and each export
  /// class's Adj-RIB-Out trie. Feeds the core.state_bytes_per_domain gauge.
  [[nodiscard]] std::size_t state_bytes() const;

  // net::Endpoint:
  void on_message(net::ChannelId channel,
                  std::unique_ptr<net::Message> msg) override;
  /// Session loss: all routes learned over the peering are flushed and
  /// withdrawals cascade (BGP hold-timer expiry semantics).
  void on_channel_down(net::ChannelId channel) override;
  /// Session re-establishment: the full table is re-advertised.
  void on_channel_up(net::ChannelId channel) override;

 private:
  /// The export rule a peering gets; one ExportClass per kind in use.
  enum class ExportKind : std::uint8_t {
    kInternal,    ///< iBGP: the best route, unchanged, unless iBGP-learned
    kExternal,    ///< eBGP with no policy filter (incl. Gao-Rexford customers)
    kRestricted,  ///< Gao-Rexford provider/lateral: own and customer routes
  };

  /// An update group: every peering with the same export rule shares one
  /// Adj-RIB-Out and one set of batch deltas, so a best-route change is
  /// evaluated once per class, not once per peer. A member's own
  /// Adj-RIB-Out is the class table minus routes whose AS path holds the
  /// member's AS (see sends()); the table stores a route only if at least
  /// one member would be sent it.
  struct ExportClass {
    ExportKind kind;
    std::vector<DomainId> member_ases;  ///< distinct, ascending
    /// Per view, 4-byte interned handles (see route_table.hpp).
    std::array<net::PrefixTrie<RouteRef>, kRouteTypeCount> table;
    /// Deltas accumulated during the current update batch (see
    /// BatchScope). `before` snapshots the table content when the batch
    /// first touched the key, so churn that nets out to no wire change is
    /// dropped at flush. Keyed map: deterministic flush order. Both sides
    /// are interned handles (null = absent/withdraw): the netting check is
    /// an id compare.
    struct PendingDelta {
      RouteRef before;
      RouteRef latest;
      net::SimTime origin_time = net::SimTime::nanoseconds(-1);
    };
    std::map<std::pair<RouteType, net::Prefix>, PendingDelta> pending;
  };

  struct Peer {
    Speaker* speaker;
    net::ChannelId channel;
    DomainId as;  ///< speaker->as(), kept here for the flush-time filter
    Relationship relationship;
    std::uint8_t export_class;  ///< index into classes_
    bool synced = false;  ///< sent the full table since the session came up
  };

  /// Whether a member of `cls` is sent the class route `ref` (null: no):
  /// eBGP never sends a route whose AS path holds the peer's AS, which also
  /// covers split horizon (the sender prepended its AS).
  static bool sends(const ExportClass& cls, const RouteRef& ref,
                    const Peer& peer) {
    return ref.has_value() && (cls.kind == ExportKind::kInternal ||
                               !ref.get().contains_as(peer.as));
  }

  Rib& rib_mut(RouteType type) {
    return ribs_[static_cast<std::size_t>(type)];
  }

  /// RAII save/restore of the origin-stamp context (update_origin_ /
  /// remote_origin_) around one originate/withdraw/handle_update.
  class OriginScope {
   public:
    OriginScope(Speaker& speaker, net::SimTime origin, bool remote)
        : speaker_(speaker),
          prev_origin_(speaker.update_origin_),
          prev_remote_(speaker.remote_origin_) {
      speaker.update_origin_ = origin;
      speaker.remote_origin_ = remote;
    }
    ~OriginScope() {
      speaker_.update_origin_ = prev_origin_;
      speaker_.remote_origin_ = prev_remote_;
    }
    OriginScope(const OriginScope&) = delete;
    OriginScope& operator=(const OriginScope&) = delete;

   private:
    Speaker& speaker_;
    net::SimTime prev_origin_;
    bool prev_remote_;
  };

  /// RAII update batch: while a scope is open, export-class changes
  /// accumulate as pending deltas; when the outermost scope closes, each
  /// peer receives at most ONE UpdateMessage carrying every coalesced delta.
  /// One received update (or one originate/withdraw, or a session
  /// establishment's full table) therefore costs one message per peer, not
  /// one per prefix.
  class BatchScope {
   public:
    explicit BatchScope(Speaker& speaker) : speaker_(speaker) {
      ++speaker.batch_depth_;
    }
    ~BatchScope() {
      if (--speaker_.batch_depth_ == 0) speaker_.flush_updates();
    }
    BatchScope(const BatchScope&) = delete;
    BatchScope& operator=(const BatchScope&) = delete;

   private:
    Speaker& speaker_;
  };

  PeerIndex add_peer(Speaker& peer, net::ChannelId channel, Relationship rel,
                     ExportPolicy export_policy);
  [[nodiscard]] PeerIndex peer_by_channel(net::ChannelId channel) const;

  void handle_update(PeerIndex from, const UpdateMessage& update);

  /// Sends each peer its coalesced deltas as one UpdateMessage: the full
  /// class table to a peer not yet synced, else the class's pending deltas
  /// filtered for the peer.
  void flush_updates();

  /// Best-route change fan-out: notifies listeners and resyncs classes.
  /// `entry` is the loc-RIB entry the triggering mutation touched (nullptr
  /// when it was erased) — passed through so the fan-out does not repeat
  /// the trie descent the mutation just performed.
  void best_changed(RouteType type, const net::Prefix& prefix,
                    const RibEntry* entry);

  /// Re-evaluates every export class for one prefix (`entry` as above).
  void sync_classes(RouteType type, const net::Prefix& prefix,
                    const RibEntry* entry);
  /// Re-evaluates one class for every loc-RIB prefix in every view.
  void sync_class(ExportClass& cls);
  /// Session establishment: the peer gets its full table at the next flush.
  void establish(PeerIndex index);
  /// Re-evaluates all loc-RIB prefixes strictly inside `prefix` — needed
  /// when an own origination appears/disappears and changes which
  /// more-specifics aggregation suppresses.
  void resync_specifics(RouteType type, const net::Prefix& prefix);

  /// Per-prefix export state shared by every class in one sync fan-out:
  /// the loc-RIB best plus the parts of the export decision that do not
  /// depend on the class.
  struct SyncContext {
    const Candidate* best = nullptr;      ///< nullptr: withdraw everywhere
    bool aggregation_suppressed = false;  ///< covered by an own origination
    bool gao_blocked = false;  ///< provenance is not customer-or-local
    /// The prepended/reset eBGP route, built (and its AS path interned)
    /// on the first eBGP class that exports it.
    std::optional<Route> ebgp_export;
  };
  [[nodiscard]] SyncContext make_sync_context(RouteType type,
                                              const net::Prefix& prefix,
                                              const RibEntry* entry) const;
  /// The class's export decision (nullptr = withdraw): iBGP reflection
  /// rule, aggregation, relationship policy, and — for eBGP — whether any
  /// member would be sent the route at all.
  [[nodiscard]] const Route* class_route(SyncContext& ctx,
                                         const ExportClass& cls) const;
  /// Reconciles the class table with `route`, queueing the delta.
  void apply_desired(RouteType type, const net::Prefix& prefix,
                     ExportClass& cls, const Route* route);

  net::Network& network_;
  DomainId as_;
  std::string name_;
  std::uint64_t uid_;

  /// bgp.* counters in the network's registry — shared by every speaker on
  /// the network, so they aggregate per simulation.
  struct SpeakerMetrics {
    obs::Counter* updates_sent;
    /// Per-domain attribution of updates_sent, keyed by the sending AS.
    obs::DomainTable* updates_sent_by_domain;
    obs::Counter* updates_received;
    obs::Counter* routes_announced;
    obs::Counter* routes_withdrawn;
    obs::Counter* routes_originated;
    /// Class-level export decisions (one per class per re-evaluated prefix).
    obs::Counter* export_evaluations;
    /// Origination → this speaker's best route changing, sampled at every
    /// speaker a received update flips (the update carries origin_time).
    obs::Histogram* route_convergence_latency;
  };
  SpeakerMetrics metrics_;

  /// Origin time of the routing change being processed (negative = none):
  /// set around originate()/withdraw()/handle_update() and copied into the
  /// deltas apply_desired() queues, so the stamp survives re-advertisement.
  net::SimTime update_origin_ = net::SimTime::nanoseconds(-1);
  /// True while handling a *received* update — gates convergence-latency
  /// sampling so the originator's own (zero-latency) flip is not counted.
  bool remote_origin_ = false;

  bool aggregation_ = true;
  int batch_depth_ = 0;
  std::array<Rib, kRouteTypeCount> ribs_;
  /// Locally-originated prefixes per view.
  std::array<net::PrefixTrie<bool>, kRouteTypeCount> origins_;
  std::vector<Peer> peers_;
  /// At most one per ExportKind.
  std::vector<ExportClass> classes_;
  /// peers_[i].channel, hoisted into a flat ascending vector (channels are
  /// allocated in connect order): peer_by_channel() binary-searches 4-byte
  /// ids instead of striding across the full Peer structs per delivery.
  std::vector<net::ChannelId> peer_channels_;
  /// Set when a class queues a delta or a peer awaits its full table:
  /// batches that changed nothing skip the flush's peer scan.
  bool dirty_ = false;
  /// debug_lose_next_update() target (kLocalPeer = none).
  PeerIndex lose_next_update_ = kLocalPeer;
  std::vector<RouteChangeListener> listeners_;
};

}  // namespace bgp
