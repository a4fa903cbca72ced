#include "net/topology.h"

#include <stdexcept>

namespace newton {

int Topology::add_node(NodeType type, std::string name) {
  nodes.push_back({type, std::move(name)});
  adj.emplace_back();
  ++generation;
  return static_cast<int>(nodes.size()) - 1;
}

void Topology::add_link(int a, int b) {
  if (a == b) throw std::invalid_argument("add_link: self loop");
  adj.at(a).insert(b);
  adj.at(b).insert(a);
  ++generation;
}

void Topology::fail_link(int a, int b) {
  failed.insert({std::min(a, b), std::max(a, b)});
  ++generation;
}

void Topology::restore_link(int a, int b) {
  failed.erase({std::min(a, b), std::max(a, b)});
  ++generation;
}

bool Topology::link_up(int a, int b) const {
  return adj.at(a).contains(b) && node_up(a) && node_up(b) &&
         !failed.contains({std::min(a, b), std::max(a, b)});
}

void Topology::fail_node(int n) {
  if (!is_switch(n))
    throw std::invalid_argument("fail_node: only switches can fail");
  failed_nodes.insert(n);
  ++generation;
}

void Topology::restore_node(int n) {
  failed_nodes.erase(n);
  ++generation;
}

std::vector<int> Topology::neighbors(int n) const {
  std::vector<int> out;
  for (int m : adj.at(n))
    if (link_up(n, m)) out.push_back(m);
  return out;
}

std::vector<int> Topology::switches() const {
  std::vector<int> out;
  for (std::size_t i = 0; i < nodes.size(); ++i)
    if (nodes[i].type == NodeType::Switch) out.push_back(static_cast<int>(i));
  return out;
}

std::vector<int> Topology::hosts() const {
  std::vector<int> out;
  for (std::size_t i = 0; i < nodes.size(); ++i)
    if (nodes[i].type == NodeType::Host) out.push_back(static_cast<int>(i));
  return out;
}

std::vector<int> Topology::edge_switches() const {
  std::vector<int> out;
  for (int s : switches()) {
    if (!node_up(s)) continue;
    for (int n : adj[s]) {
      if (nodes[n].type == NodeType::Host) {
        out.push_back(s);
        break;
      }
    }
  }
  return out;
}

Topology make_fat_tree(int k) {
  if (k < 2 || k % 2 != 0)
    throw std::invalid_argument("make_fat_tree: k must be even and >= 2");
  Topology t;
  const int half = k / 2;
  // Core switches.
  std::vector<int> core;
  for (int i = 0; i < half * half; ++i)
    core.push_back(t.add_node(NodeType::Switch, "core" + std::to_string(i)));
  // Pods.
  for (int p = 0; p < k; ++p) {
    std::vector<int> aggs, edges;
    for (int a = 0; a < half; ++a)
      aggs.push_back(t.add_node(
          NodeType::Switch, "agg" + std::to_string(p) + "_" + std::to_string(a)));
    for (int e = 0; e < half; ++e)
      edges.push_back(t.add_node(
          NodeType::Switch, "edge" + std::to_string(p) + "_" + std::to_string(e)));
    for (int a = 0; a < half; ++a)
      for (int e = 0; e < half; ++e) t.add_link(aggs[a], edges[e]);
    for (int a = 0; a < half; ++a)
      for (int c = 0; c < half; ++c) t.add_link(aggs[a], core[a * half + c]);
    for (int e = 0; e < half; ++e)
      for (int h = 0; h < half; ++h) {
        std::string host = "h";
        host += std::to_string(p);
        host += '_';
        host += std::to_string(e);
        host += '_';
        host += std::to_string(h);
        t.add_link(edges[e], t.add_node(NodeType::Host, host));
      }
  }
  return t;
}

Topology make_isp_backbone() {
  Topology t;
  const std::vector<std::string> pops{
      "Seattle",   "Portland",  "Sacramento", "SanFrancisco", "SanJose",
      "LosAngeles","SanDiego",  "SaltLake",   "Phoenix",      "Denver",
      "Albuquerque","Dallas",   "Houston",    "SanAntonio",   "KansasCity",
      "StLouis",   "Chicago",   "Minneapolis","Indianapolis", "Nashville",
      "Atlanta",   "Orlando",   "Miami",      "WashingtonDC", "Philadelphia",
      "NewYork",   "Boston"};
  std::vector<int> id;
  for (const auto& name : pops) id.push_back(t.add_node(NodeType::Switch, name));
  auto link = [&](int a, int b) { t.add_link(id[a], id[b]); };
  // West coast chain + inland.
  link(0, 1); link(1, 2); link(2, 3); link(3, 4); link(4, 5); link(5, 6);
  link(0, 7); link(2, 7); link(5, 8); link(6, 8);
  // Mountain / central.
  link(7, 9); link(9, 14); link(8, 10); link(10, 11); link(9, 10);
  link(11, 12); link(12, 13); link(11, 13); link(11, 14); link(14, 15);
  link(15, 16); link(16, 17); link(0, 17); link(16, 18); link(18, 19);
  link(19, 20); link(11, 20);
  // South-east + east coast.
  link(20, 21); link(21, 22); link(12, 22); link(20, 23); link(23, 24);
  link(24, 25); link(25, 26); link(16, 25); link(15, 18);
  // One stub host per PoP.
  for (std::size_t i = 0; i < pops.size(); ++i) {
    const int h = t.add_node(NodeType::Host, pops[i] + "_host");
    t.add_link(id[i], h);
  }
  return t;
}

Topology make_line(int n_switches) {
  if (n_switches < 1) throw std::invalid_argument("make_line: n >= 1");
  Topology t;
  std::vector<int> sw;
  for (int i = 0; i < n_switches; ++i)
    sw.push_back(t.add_node(NodeType::Switch,
                            std::string("s").append(std::to_string(i))));
  for (int i = 0; i + 1 < n_switches; ++i) t.add_link(sw[i], sw[i + 1]);
  const int h1 = t.add_node(NodeType::Host, "h1");
  const int h2 = t.add_node(NodeType::Host, "h2");
  t.add_link(h1, sw.front());
  t.add_link(sw.back(), h2);
  return t;
}

}  // namespace newton
