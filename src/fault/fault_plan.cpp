#include "fault/fault_plan.h"

#include <algorithm>
#include <map>
#include <queue>
#include <random>

namespace newton {

void FaultPlan::sort() {
  std::stable_sort(events.begin(), events.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.at_packet < b.at_packet;
                   });
}

std::string FaultPlan::describe(const Topology& t) const {
  auto name = [&](int n) { return t.nodes.at(static_cast<std::size_t>(n)).name; };
  std::string out;
  for (const FaultEvent& e : events) {
    out += '@';
    out += std::to_string(e.at_packet);
    out += ' ';
    switch (e.kind) {
      case FaultEvent::Kind::LinkDown:
        out += "link-down " + name(e.a) + "--" + name(e.b);
        break;
      case FaultEvent::Kind::LinkUp:
        out += "link-up " + name(e.a) + "--" + name(e.b);
        break;
      case FaultEvent::Kind::SwitchDown:
        out += "switch-down " + name(e.a);
        break;
      case FaultEvent::Kind::SwitchUp:
        out += "switch-up " + name(e.a);
        break;
    }
    out += "\n";
  }
  return out;
}

bool all_hosts_connected(const Topology& t) {
  const auto hosts = t.hosts();
  if (hosts.size() < 2) return true;
  std::vector<bool> seen(t.nodes.size(), false);
  std::queue<int> q;
  seen[static_cast<std::size_t>(hosts[0])] = true;
  q.push(hosts[0]);
  while (!q.empty()) {
    const int u = q.front();
    q.pop();
    for (int v : t.neighbors(u)) {
      if (seen[static_cast<std::size_t>(v)]) continue;
      seen[static_cast<std::size_t>(v)] = true;
      // Hosts terminate paths; they do not transit (mirrors routing.cpp).
      if (t.is_switch(v)) q.push(v);
    }
  }
  return std::all_of(hosts.begin(), hosts.end(), [&](int h) {
    return seen[static_cast<std::size_t>(h)];
  });
}

FaultPlan make_random_link_plan(const Topology& t, uint32_t seed,
                                std::size_t n_link_events,
                                uint64_t horizon_packets,
                                uint64_t repair_after) {
  std::mt19937 rng(seed);
  std::vector<std::pair<int, int>> links;
  for (int s : t.switches())
    for (int n : t.adj.at(static_cast<std::size_t>(s)))
      if (t.is_switch(n) && s < n) links.push_back({s, n});

  FaultPlan plan;
  if (links.empty() || horizon_packets == 0) return plan;

  // Walk candidate failure positions in time order against a simulated copy
  // of the topology (with pending repairs applied as time advances), so the
  // connectivity check sees exactly the failure set live at that moment.
  Topology sim = t;
  std::multimap<uint64_t, std::pair<int, int>> pending_up;
  std::vector<uint64_t> positions;
  const uint64_t lo = horizon_packets / 10;
  std::uniform_int_distribution<uint64_t> pos_dist(
      lo, horizon_packets > 1 ? horizon_packets - 1 : 0);
  for (std::size_t i = 0; i < n_link_events; ++i)
    positions.push_back(pos_dist(rng));
  std::sort(positions.begin(), positions.end());

  std::uniform_int_distribution<std::size_t> link_dist(0, links.size() - 1);
  for (uint64_t pos : positions) {
    while (!pending_up.empty() && pending_up.begin()->first <= pos) {
      const auto [a, b] = pending_up.begin()->second;
      sim.restore_link(a, b);
      pending_up.erase(pending_up.begin());
    }
    const auto [a, b] = links[link_dist(rng)];
    if (!sim.link_up(a, b)) continue;  // already down right now
    sim.fail_link(a, b);
    if (!all_hosts_connected(sim)) {
      sim.restore_link(a, b);  // would partition: skip this candidate
      continue;
    }
    const uint64_t up_at = pos + repair_after;
    plan.events.push_back({FaultEvent::Kind::LinkDown, pos, a, b});
    plan.events.push_back({FaultEvent::Kind::LinkUp, up_at, a, b});
    pending_up.insert({up_at, {a, b}});
  }
  plan.sort();
  return plan;
}

FaultPlan make_random_churn_plan(const Topology& t, uint32_t seed,
                                 std::size_t n_events,
                                 uint64_t horizon_packets,
                                 uint64_t repair_after) {
  std::mt19937 rng(seed);
  std::vector<std::pair<int, int>> links;
  for (int s : t.switches())
    for (int n : t.adj.at(static_cast<std::size_t>(s)))
      if (t.is_switch(n) && s < n) links.push_back({s, n});
  const std::vector<int> switches = t.switches();

  FaultPlan plan;
  if (links.empty() || switches.empty() || horizon_packets == 0) return plan;

  // Same sim-forward walk as make_random_link_plan: repairs due by each
  // candidate position are applied first, so the connectivity check sees
  // exactly the failure set live at that moment.
  Topology sim = t;
  struct Repair {
    FaultEvent::Kind kind;
    int a, b;
  };
  std::multimap<uint64_t, Repair> pending_up;
  std::vector<uint64_t> positions;
  const uint64_t lo = horizon_packets / 10;
  std::uniform_int_distribution<uint64_t> pos_dist(
      lo, horizon_packets > 1 ? horizon_packets - 1 : 0);
  for (std::size_t i = 0; i < n_events; ++i)
    positions.push_back(pos_dist(rng));
  std::sort(positions.begin(), positions.end());

  std::uniform_int_distribution<std::size_t> link_dist(0, links.size() - 1);
  std::uniform_int_distribution<std::size_t> sw_dist(0, switches.size() - 1);
  std::uniform_int_distribution<int> kind_dist(0, 2);
  for (uint64_t pos : positions) {
    while (!pending_up.empty() && pending_up.begin()->first <= pos) {
      const Repair r = pending_up.begin()->second;
      if (r.kind == FaultEvent::Kind::SwitchUp)
        sim.restore_node(r.a);
      else
        sim.restore_link(r.a, r.b);
      pending_up.erase(pending_up.begin());
    }
    if (kind_dist(rng) == 0) {
      const int s = switches[sw_dist(rng)];
      if (!sim.node_up(s)) continue;  // already dead right now
      sim.fail_node(s);
      if (!all_hosts_connected(sim)) {
        sim.restore_node(s);  // would partition: skip this candidate
        continue;
      }
      const uint64_t up_at = pos + repair_after;
      plan.events.push_back({FaultEvent::Kind::SwitchDown, pos, s, -1});
      plan.events.push_back({FaultEvent::Kind::SwitchUp, up_at, s, -1});
      pending_up.insert({up_at, {FaultEvent::Kind::SwitchUp, s, -1}});
    } else {
      const auto [a, b] = links[link_dist(rng)];
      if (!sim.link_up(a, b)) continue;  // already down right now
      sim.fail_link(a, b);
      if (!all_hosts_connected(sim)) {
        sim.restore_link(a, b);
        continue;
      }
      const uint64_t up_at = pos + repair_after;
      plan.events.push_back({FaultEvent::Kind::LinkDown, pos, a, b});
      plan.events.push_back({FaultEvent::Kind::LinkUp, up_at, a, b});
      pending_up.insert({up_at, {FaultEvent::Kind::LinkUp, a, b}});
    }
  }
  plan.sort();
  return plan;
}

}  // namespace newton
