#include "bgp/speaker.hpp"

#include <algorithm>
#include <stdexcept>

namespace bgp {

std::string Route::describe() const {
  std::string out = prefix.to_string() + " path[";
  bool first = true;
  for (const DomainId hop : as_path) {
    if (!first) out += ' ';
    out += std::to_string(hop);
    first = false;
  }
  out += "] origin AS" + std::to_string(origin_as);
  return out;
}

std::string UpdateMessage::describe() const {
  std::string out = "UPDATE";
  for (const Delta& d : deltas) {
    out += d.route.has_value() ? " +" : " -";
    out += d.prefix.to_string();
    out += '/';
    out += to_string(d.type);
  }
  return out;
}

Speaker::Speaker(net::Network& network, DomainId as, std::string name)
    : network_(network),
      as_(as),
      name_(std::move(name)),
      // Per-network allocation: uid tie-breaks are a function of creation
      // order within this simulation, never of process-global history —
      // required for parallel sweep cells to be schedule-independent.
      uid_(network.allocate_uid()),
      metrics_{&network.metrics().counter("bgp.updates_sent"),
               &network.metrics().sharded_counter("bgp.updates_sent.by_domain"),
               &network.metrics().counter("bgp.updates_received"),
               &network.metrics().counter("bgp.routes_announced"),
               &network.metrics().counter("bgp.routes_withdrawn"),
               &network.metrics().counter("bgp.routes_originated"),
               &network.metrics().counter("bgp.export_evaluations"),
               &network.metrics().histogram(
                   "bgp.route_convergence_latency")} {}

net::ChannelId Speaker::connect(Speaker& a, Speaker& b,
                                Relationship a_sees_b, net::SimTime latency,
                                ExportPolicy a_export,
                                ExportPolicy b_export) {
  const bool same_domain = a.as_ == b.as_;
  if (same_domain != (a_sees_b == Relationship::kInternal)) {
    throw std::invalid_argument(
        "Speaker::connect: internal relationship iff same domain (" +
        a.name_ + " AS" + std::to_string(a.as_) + " / " + b.name_ + " AS" +
        std::to_string(b.as_) + ")");
  }
  const net::ChannelId channel = a.network_.connect(a, b, latency);
  // A broken peering is a reset transport session, not a lossless pause:
  // both sides flush and resynchronize when it returns.
  a.network_.set_drop_when_down(channel, true);
  const PeerIndex at_a = a.add_peer(b, channel, a_sees_b, a_export);
  const PeerIndex at_b = b.add_peer(a, channel, reverse(a_sees_b), b_export);
  a.establish(at_a);
  b.establish(at_b);
  return channel;
}

PeerIndex Speaker::add_peer(Speaker& peer, net::ChannelId channel,
                            Relationship rel, ExportPolicy export_policy) {
  const ExportKind kind =
      rel == Relationship::kInternal ? ExportKind::kInternal
      : export_policy == ExportPolicy::kGaoRexford &&
              rel != Relationship::kCustomer
          ? ExportKind::kRestricted
          : ExportKind::kExternal;
  auto cls = std::find_if(classes_.begin(), classes_.end(),
                          [&](const ExportClass& c) { return c.kind == kind; });
  if (cls == classes_.end()) cls = classes_.insert(cls, ExportClass{kind});
  const auto as_at = std::lower_bound(cls->member_ases.begin(),
                                      cls->member_ases.end(), peer.as_);
  if (as_at == cls->member_ases.end() || *as_at != peer.as_) {
    cls->member_ases.insert(as_at, peer.as_);
  }
  peers_.push_back(Peer{&peer, channel, peer.as_, rel,
                        static_cast<std::uint8_t>(cls - classes_.begin())});
  peer_channels_.push_back(channel);
  return static_cast<PeerIndex>(peers_.size() - 1);
}

void Speaker::establish(PeerIndex index) {
  const BatchScope batch(*this);
  // The class table must now hold routes only the new member is sent;
  // existing members filter those out, so they are sent nothing new.
  sync_class(classes_[peers_[index].export_class]);
  dirty_ = true;  // the new peer is unsynced: flush sends it its table
}

PeerIndex Speaker::peer_by_channel(net::ChannelId channel) const {
  // Channel ids are allocated in connect order, so this vector is
  // ascending and a hub speaker's lookup is a binary search.
  const auto it = std::lower_bound(peer_channels_.begin(),
                                   peer_channels_.end(), channel);
  if (it == peer_channels_.end() || *it != channel) {
    throw std::logic_error("Speaker: message on unknown channel");
  }
  return static_cast<PeerIndex>(it - peer_channels_.begin());
}

void Speaker::originate(RouteType type, const net::Prefix& prefix) {
  auto& origins = origins_[static_cast<std::size_t>(type)];
  if (origins.contains(prefix)) return;
  // This call starts a routing change: stamp the updates it triggers.
  const OriginScope scope(*this, network_.events().now(), /*remote=*/false);
  const BatchScope batch(*this);
  origins.insert(prefix, true);
  metrics_.routes_originated->inc();
  Candidate local;
  local.route =
      Route{prefix, /*as_path=*/{}, /*origin_as=*/as_, /*local_pref=*/100};
  local.via = kLocalPeer;
  local.internal = false;
  local.exit_uid = uid_;
  const RibEntry* entry = nullptr;
  if (rib_mut(type).upsert(prefix, std::move(local), &entry)) {
    best_changed(type, prefix, entry);
  }
  // A new covering origination changes which more-specifics are
  // aggregation-suppressed at export.
  resync_specifics(type, prefix);
}

void Speaker::withdraw(RouteType type, const net::Prefix& prefix) {
  auto& origins = origins_[static_cast<std::size_t>(type)];
  if (!origins.erase(prefix)) return;
  const OriginScope scope(*this, network_.events().now(), /*remote=*/false);
  const BatchScope batch(*this);
  const RibEntry* entry = nullptr;
  if (rib_mut(type).remove(prefix, kLocalPeer, &entry)) {
    best_changed(type, prefix, entry);
  }
  resync_specifics(type, prefix);
}

void Speaker::set_aggregation(bool enabled) {
  if (aggregation_ == enabled) return;
  aggregation_ = enabled;
  const BatchScope batch(*this);
  for (ExportClass& cls : classes_) sync_class(cls);
}

std::optional<LookupResult> Speaker::lookup(RouteType type,
                                            net::Ipv4Addr addr) const {
  const auto hit = rib(type).longest_match(addr);
  if (!hit) return std::nullopt;
  const Candidate& best = *hit->second;
  LookupResult result;
  result.prefix = hit->first;
  result.route = best.route;
  if (best.via != kLocalPeer) {  // else: no next hop, this is the root
    result.next_hop = peers_[best.via].speaker;
    result.internal = best.internal;
  }
  return result;
}

void Speaker::on_message(net::ChannelId channel,
                         std::unique_ptr<net::Message> msg) {
  if (msg->kind != net::MessageKind::kBgpUpdate) {
    throw std::logic_error("Speaker: unexpected message type");
  }
  handle_update(peer_by_channel(channel),
                static_cast<const UpdateMessage&>(*msg));
}

void Speaker::on_channel_down(net::ChannelId channel) {
  const PeerIndex index = peer_by_channel(channel);
  // Flushes skip the peer while its session is down; re-establishment
  // sends it the whole class table.
  const BatchScope batch(*this);
  for (int t = 0; t < kRouteTypeCount; ++t) {
    const auto type = static_cast<RouteType>(t);
    // Flush the Adj-RIB-In from this peer; best-route changes cascade.
    Rib& table = rib_mut(type);
    std::vector<net::Prefix> learned;
    learned.reserve(table.size());
    table.for_each_best([&](const net::Prefix& prefix, const Candidate&) {
      learned.push_back(prefix);
    });
    for (const net::Prefix& prefix : learned) {
      const RibEntry* entry = nullptr;
      if (table.remove(prefix, index, &entry)) {
        best_changed(type, prefix, entry);
      }
    }
  }
}

void Speaker::on_channel_up(net::ChannelId channel) {
  const BatchScope batch(*this);
  peers_[peer_by_channel(channel)].synced = false;
  dirty_ = true;
}

void Speaker::handle_update(PeerIndex from, const UpdateMessage& update) {
  Peer& peer = peers_[from];
  metrics_.updates_received->inc();
  // Everything this delivery triggers — reselections across all deltas —
  // coalesces into at most one outgoing update per peer.
  const BatchScope batch(*this);
  for (const UpdateMessage::Delta& delta : update.deltas) {
    Rib& rib = rib_mut(delta.type);
    // Carry each delta's own origin stamp through local flips (sampled in
    // best_changed) and into the re-advertisements it queues.
    const OriginScope scope(*this,
                            delta.origin_time.ns() >= 0
                                ? delta.origin_time
                                : network_.events().now(),
                            /*remote=*/true);
    const RibEntry* entry = nullptr;
    if (!delta.route.has_value()) {
      metrics_.routes_withdrawn->inc();
      if (rib.remove(delta.prefix, from, &entry)) {
        best_changed(delta.type, delta.prefix, entry);
      }
      continue;
    }
    const Route& announced = *delta.route;
    metrics_.routes_announced->inc();
    // AS-path loop prevention: a route that already crossed this domain is
    // treated as unreachable via this peer.
    if (announced.contains_as(as_)) {
      if (rib.remove(announced.prefix, from, &entry)) {
        best_changed(delta.type, announced.prefix, entry);
      }
      continue;
    }
    Candidate candidate;
    candidate.route = announced;
    candidate.via = from;
    candidate.internal = peer.relationship == Relationship::kInternal;
    if (!candidate.internal) {
      candidate.route.local_pref = default_local_pref(peer.relationship);
    }
    // The exit router for an eBGP candidate is this router itself; for an
    // iBGP candidate it is the internal sender. The lowest-uid rule then
    // elects one best exit domain-wide.
    candidate.exit_uid = candidate.internal ? peer.speaker->uid() : uid_;
    if (rib.upsert(announced.prefix, std::move(candidate), &entry)) {
      best_changed(delta.type, announced.prefix, entry);
    }
  }
}

Speaker::SyncContext Speaker::make_sync_context(
    RouteType type, const net::Prefix& prefix, const RibEntry* entry) const {
  SyncContext ctx;
  ctx.best = entry != nullptr ? entry->best() : nullptr;
  if (ctx.best == nullptr) return ctx;
  const Candidate& best = *ctx.best;
  if (best.via != kLocalPeer) {
    // Gao-Rexford provenance: LOCAL_PREF >= 100 encodes customer-or-local.
    ctx.gao_blocked = best.route.local_pref < 100;
    // §4.3.2 aggregation: suppress a more-specific covered by an own
    // origination — the covering group route already provides reachability
    // toward this domain, which will then use its more-specific entry.
    if (aggregation_) {
      const auto& origins = origins_[static_cast<std::size_t>(type)];
      const auto cover = origins.longest_match(prefix);
      ctx.aggregation_suppressed =
          cover && cover->first.length() < prefix.length();
    }
  }
  return ctx;
}

const Route* Speaker::class_route(SyncContext& ctx,
                                  const ExportClass& cls) const {
  metrics_.export_evaluations->inc();
  if (ctx.best == nullptr) return nullptr;
  const Candidate& best = *ctx.best;
  if (cls.kind == ExportKind::kInternal) {
    // iBGP: re-advertise only what we learned externally or originated,
    // path and LOCAL_PREF unchanged.
    return best.internal ? nullptr : &best.route;
  }
  if (ctx.aggregation_suppressed) return nullptr;
  // Only own/customer routes go to Gao-Rexford providers and laterals.
  if (cls.kind == ExportKind::kRestricted && ctx.gao_blocked) return nullptr;
  // Store the route only if some member's AS is off its path (a path
  // shorter than the member list always misses one).
  const PathRef& path = best.route.as_path;
  if (path.size() >= cls.member_ases.size() &&
      std::all_of(cls.member_ases.begin(), cls.member_ases.end(),
                  [&](DomainId as) { return path.contains(as); })) {
    return nullptr;
  }
  if (!ctx.ebgp_export.has_value()) {
    Route exported = best.route;
    exported.as_path = exported.as_path.prepend(as_);
    exported.local_pref = 100;  // reset; the importer assigns its own
    ctx.ebgp_export = std::move(exported);
  }
  return &*ctx.ebgp_export;
}

void Speaker::apply_desired(RouteType type, const net::Prefix& prefix,
                            ExportClass& cls, const Route* route) {
  auto& table = cls.table[static_cast<std::size_t>(type)];
  RouteRef before;
  RouteRef latest;
  if (route != nullptr) {
    // Single descent covers both the agree check and the install: a fresh
    // slot holds the null ref, which never equals an interned id.
    RouteRef& slot = table.get_or_insert(prefix);
    latest = RouteRef::intern(*route);
    if (slot == latest) return;  // the class table already agrees
    before = slot;
    slot = latest;
  } else {
    // Withdraw: erase returns the previous ref in the same descent; an
    // absent entry already agrees.
    if (!table.erase(prefix, before)) return;
  }
  // Queue the delta; the table above is already updated, so later syncs
  // in the same batch compute against the post-change state. The wire
  // messages go out when the outermost batch scope flushes.
  dirty_ = true;
  const auto [it, inserted] = cls.pending.try_emplace(std::pair(type, prefix));
  if (inserted) it->second.before = std::move(before);
  it->second.latest = std::move(latest);
  it->second.origin_time =
      update_origin_.ns() >= 0 ? update_origin_ : network_.events().now();
}

void Speaker::flush_updates() {
  if (!dirty_) return;
  dirty_ = false;
  const net::SimTime now_origin =
      update_origin_.ns() >= 0 ? update_origin_ : network_.events().now();
  for (PeerIndex index = 0; index < peers_.size(); ++index) {
    Peer& peer = peers_[index];
    const ExportClass& cls = classes_[peer.export_class];
    if (peer.synced && cls.pending.empty()) continue;
    // No session, no updates: re-establishment sends the full table.
    if (!network_.is_up(peer.channel)) continue;
    auto update = std::make_unique<UpdateMessage>();
    const auto add = [&](RouteType type, const net::Prefix& prefix,
                         const RouteRef* ref, net::SimTime origin) {
      update->deltas.push_back(UpdateMessage::Delta{
          type, prefix,
          ref != nullptr ? std::optional<Route>(ref->get()) : std::nullopt,
          origin});
    };
    if (!peer.synced) {
      // The whole table, stamped like the change that last touched each
      // entry this batch (if any).
      peer.synced = true;
      for (int t = 0; t < kRouteTypeCount; ++t) {
        const auto type = static_cast<RouteType>(t);
        cls.table[t].for_each([&](const net::Prefix& p, const RouteRef& ref) {
          if (!sends(cls, ref, peer)) return;
          const auto pd = cls.pending.find(std::pair(type, p));
          add(type, p, &ref,
              pd != cls.pending.end() ? pd->second.origin_time : now_origin);
        });
      }
    } else {
      for (const auto& [key, pd] : cls.pending) {
        // Canonical ids: equal ids mean equal routes, so churn that netted
        // out to no wire change for this peer is one integer compare.
        const bool announce = sends(cls, pd.latest, peer);
        const bool had = sends(cls, pd.before, peer);
        if (had == announce && (!had || pd.before == pd.latest)) continue;
        add(key.first, key.second, announce ? &pd.latest : nullptr,
            pd.origin_time);
      }
    }
    if (update->deltas.empty()) continue;
    metrics_.updates_sent->inc();
    metrics_.updates_sent_by_domain->add(as_);
    if (index == lose_next_update_) {
      lose_next_update_ = kLocalPeer;
      continue;
    }
    network_.send(peer.channel, *this, std::move(update));
  }
  for (ExportClass& cls : classes_) cls.pending.clear();
}

void Speaker::best_changed(RouteType type, const net::Prefix& prefix,
                           const RibEntry* entry) {
  // A received update flipped this speaker's best route: the change has
  // now "reached" this domain — record origination → here.
  if (remote_origin_ && update_origin_.ns() >= 0) {
    metrics_.route_convergence_latency->observe(
        (network_.events().now() - update_origin_).to_seconds());
  }
  sync_classes(type, prefix, entry);
  for (const RouteChangeListener& listener : listeners_) {
    listener(type, prefix);
  }
}

void Speaker::sync_classes(RouteType type, const net::Prefix& prefix,
                           const RibEntry* entry) {
  // One context for the whole fan-out: the cover check and the exported
  // route's AS-path prepend happen once, not once per class.
  SyncContext ctx = make_sync_context(type, prefix, entry);
  for (ExportClass& cls : classes_) {
    apply_desired(type, prefix, cls, class_route(ctx, cls));
  }
}

void Speaker::sync_class(ExportClass& cls) {
  // The class table never holds a prefix the loc-RIB lacks, so walking
  // the loc-RIB covers every entry; apply_desired only touches the class
  // table, never the loc-RIB being walked.
  for (int t = 0; t < kRouteTypeCount; ++t) {
    const auto type = static_cast<RouteType>(t);
    rib(type).for_each_entry([&](const net::Prefix& p, const RibEntry& e) {
      SyncContext ctx = make_sync_context(type, p, &e);
      apply_desired(type, p, cls, class_route(ctx, cls));
    });
  }
}

std::size_t Speaker::state_bytes() const {
  std::size_t total = 0;
  for (const Rib& r : ribs_) total += r.state_bytes();
  for (const auto& origins : origins_) total += origins.memory_bytes();
  for (const ExportClass& cls : classes_) {
    for (const auto& table : cls.table) total += table.memory_bytes();
  }
  return total;
}

void Speaker::resync_specifics(RouteType type, const net::Prefix& prefix) {
  // sync_classes only touches class tables, never the loc-RIB being
  // walked, so no snapshot copy is needed here.
  rib(type).for_each_best_within(
      prefix, [&](const net::Prefix& p, const Candidate&) {
        if (p.length() > prefix.length()) {
          sync_classes(type, p, rib(type).find(p));
        }
      });
}

}  // namespace bgp
