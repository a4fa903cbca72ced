// Network topologies for the network-wide experiments: k-ary fat-trees
// (Fig. 17's data-center case), a North-America ISP backbone modeled after
// the public AT&T OC-768 map (Fig. 17's WAN case), and the 3-switch line of
// the paper's testbed (Fig. 8, used by Fig. 13/14).
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <vector>

namespace newton {

enum class NodeType : uint8_t { Switch, Host };

struct Topology {
  struct Node {
    NodeType type;
    std::string name;
  };

  std::vector<Node> nodes;
  std::vector<std::set<int>> adj;           // undirected links
  std::set<std::pair<int, int>> failed;     // failed links (min,max) pairs
  std::set<int> failed_nodes;               // failed (dead) switch nodes
  // Bumped by every mutator below, so a cache of the live graph (the route
  // tables in `Network`) can tell it is stale with one compare.  Mutate
  // only through these methods: direct writes to the fields above are not
  // seen.
  uint64_t generation = 0;

  int add_node(NodeType type, std::string name);
  void add_link(int a, int b);
  // Fail / restore a link at runtime (later routes avoid a failed link).
  void fail_link(int a, int b);
  void restore_link(int a, int b);
  bool link_up(int a, int b) const;
  // Fail / restore a whole switch: all of its links go down with it.
  void fail_node(int n);
  void restore_node(int n);
  bool node_up(int n) const { return !failed_nodes.contains(n); }

  // Live neighbors of `n`.
  std::vector<int> neighbors(int n) const;
  std::vector<int> switches() const;
  std::vector<int> hosts() const;
  bool is_switch(int n) const {
    return nodes.at(static_cast<std::size_t>(n)).type == NodeType::Switch;
  }
  // Live switches adjacent to at least one host (candidate first hops).
  std::vector<int> edge_switches() const;
};

// k-ary fat-tree: k pods of k/2 edge + k/2 aggregation switches, (k/2)^2
// cores, k/2 hosts per edge switch.  k must be even.
Topology make_fat_tree(int k);

// ~25-PoP North-America backbone (AT&T OC-768-style connectivity), one
// stub host per PoP.
Topology make_isp_backbone();

// The paper's testbed shape: `n` switches in a line, one host at each end.
Topology make_line(int n_switches);

}  // namespace newton
