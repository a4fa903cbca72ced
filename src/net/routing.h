// Shortest-path routing with ECMP over the live topology.  Paths react to
// link failures (failed links are invisible to the BFS), which drives the
// reroute scenarios the resilient placement must survive (§5.2, Fig. 9).
//
// route() runs a fresh BFS per call and is the reference: `Network` answers
// send() and path() from its own route tables (docs/fleet.md "Routing"),
// and tests/test_net.cpp checks those tables against route() under churn.
#pragma once

#include <optional>
#include <vector>

#include "net/topology.h"

namespace newton {

// Shortest path between two nodes; among equal-cost next hops, picks by
// `flow_hash` (ECMP).  Returns nullopt if disconnected.
std::optional<std::vector<int>> route(const Topology& t, int src, int dst,
                                      uint32_t flow_hash = 0);

// All switches on a path (strips hosts).
std::vector<int> switches_on(const Topology& t, const std::vector<int>& path);

}  // namespace newton
