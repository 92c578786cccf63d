#include <map>
#include <string>
#include <vector>

#include "bgp/rib.hpp"
#include "bgp/speaker.hpp"
#include "check/invariant.hpp"
#include "core/internet.hpp"

namespace check {

namespace {

template <typename Fn>
void for_each_speaker(core::Internet& net, Fn&& fn) {
  for (std::size_t i = 0; i < net.domain_count(); ++i) {
    core::Domain& d = net.domain(i);
    for (std::size_t b = 0; b < d.border_count(); ++b) fn(d.speaker(b));
  }
}

}  // namespace

void BgpDecisionInvariant::check(core::Internet& net,
                                 std::vector<Violation>& out) {
  for_each_speaker(net, [&](bgp::Speaker& speaker) {
    for (int t = 0; t < bgp::kRouteTypeCount; ++t) {
      const auto type = static_cast<bgp::RouteType>(t);
      speaker.rib(type).for_each_entry(
          [&](const net::Prefix& prefix, const bgp::RibEntry& entry) {
            const bgp::Candidate* best = entry.best();
            if (best == nullptr) {
              if (!entry.empty()) {
                out.push_back(Violation{
                    std::string(name()),
                    speaker.name() + " " + bgp::to_string(type) + " " +
                        prefix.to_string(),
                    "entry has candidates but no selection"});
              }
              return;
            }
            for (const bgp::Candidate& candidate : entry.candidates()) {
              if (bgp::better(candidate, *best)) {
                out.push_back(Violation{
                    std::string(name()),
                    speaker.name() + " " + bgp::to_string(type) + " " +
                        prefix.to_string(),
                    "stored best route is not maximal under the decision "
                    "process (a better candidate exists)"});
                break;
              }
            }
          });
    }
  });
}

void BgpNextHopLiveInvariant::check(core::Internet& net,
                                    std::vector<Violation>& out) {
  for_each_speaker(net, [&](bgp::Speaker& speaker) {
    for (int t = 0; t < bgp::kRouteTypeCount; ++t) {
      const auto type = static_cast<bgp::RouteType>(t);
      speaker.rib(type).for_each_entry(
          [&](const net::Prefix& prefix, const bgp::RibEntry& entry) {
            for (const bgp::Candidate& candidate : entry.candidates()) {
              if (candidate.via == bgp::kLocalPeer) continue;
              if (speaker.peer_session_up(candidate.via)) continue;
              const bgp::Speaker* peer = speaker.peer_speaker(candidate.via);
              out.push_back(Violation{
                  std::string(name()),
                  speaker.name() + " " + bgp::to_string(type) + " " +
                      prefix.to_string(),
                  "candidate learned from " +
                      (peer != nullptr ? peer->name() : std::string("?")) +
                      " survives while that session is down"});
            }
          });
    }
  });
}

void BgpSessionConsistencyInvariant::check(core::Internet& net,
                                           std::vector<Violation>& out) {
  // Two routes "agree" on everything the sender controls: the receiver
  // resets LOCAL_PREF at eBGP import.
  const auto same = [](const bgp::Route& a, const bgp::Route& b) {
    return a.as_path == b.as_path && a.origin_as == b.origin_as;
  };
  for_each_speaker(net, [&](bgp::Speaker& receiver) {
    for (bgp::PeerIndex from = 0; from < receiver.peer_count(); ++from) {
      if (!receiver.peer_session_up(from)) continue;
      const bgp::Speaker& sender = *receiver.peer_speaker(from);
      // The sender's index for this session (a pair of speakers shares at
      // most one).
      bgp::PeerIndex to = 0;
      while (sender.peer_speaker(to) != &receiver) ++to;
      for (int t = 0; t < bgp::kRouteTypeCount; ++t) {
        const auto type = static_cast<bgp::RouteType>(t);
        std::map<net::Prefix, bgp::Route> sent;
        sender.for_each_advertised(
            to, type, [&](const net::Prefix& p, const bgp::Route& route) {
              sent.emplace(p, route);
            });
        const auto report = [&](const net::Prefix& p, const char* what) {
          out.push_back(Violation{
              std::string(name()),
              receiver.name() + " " + bgp::to_string(type) + " " +
                  p.to_string(),
              std::string(what) + " over the session from " + sender.name()});
        };
        receiver.rib(type).for_each_entry(
            [&](const net::Prefix& p, const bgp::RibEntry& entry) {
              for (const bgp::Candidate& c : entry.candidates()) {
                if (c.via != from) continue;
                const auto it = sent.find(p);
                if (it == sent.end()) {
                  report(p, "route held that the sender no longer advertises");
                } else {
                  if (!same(it->second, c.route)) {
                    report(p, "route differs from the one advertised");
                  }
                  sent.erase(it);
                }
              }
            });
        for (const auto& [p, route] : sent) {
          report(p, "advertised route never reached the receiver");
        }
      }
    }
  });
}

}  // namespace check
