#include "overlay/blatant.hpp"

#include <cassert>

namespace aria::overlay {

BlatantMaintainer::BlatantMaintainer(Topology& topo, BlatantParams params,
                                     Rng rng)
    : topo_{topo}, params_{params}, rng_{rng} {
  assert(params_.beta <= params_.alpha);
}

NodeId BlatantMaintainer::random_walk(NodeId origin) const {
  NodeId prev = kInvalidNode;
  NodeId cur = origin;
  for (std::size_t step = 0; step < params_.walk_length; ++step) {
    const auto& ns = topo_.neighbors(cur);
    if (ns.empty()) break;
    // Avoid immediate backtracking when another option exists; never step
    // onto a crashed node (an ant is a message, and dead machines receive
    // none). A dead pick burns the attempt without becoming `next`, so the
    // walk can no longer land on an invalid/dead hop when every draw fails.
    NodeId next = kInvalidNode;
    for (int attempt = 0; attempt < 4; ++attempt) {
      const auto pick = ns[static_cast<std::size_t>(
          rng_.uniform_int(0, static_cast<std::int64_t>(ns.size()) - 1))];
      if (!alive(pick)) continue;
      next = pick;
      if (pick != prev || ns.size() == 1) break;
    }
    if (!next.valid()) {
      // All draws hit dead neighbors: fall back to a deterministic scan so
      // the ant keeps moving whenever any live hop exists at all.
      for (NodeId n : ns) {
        if (!alive(n)) continue;
        next = n;
        if (n != prev) break;  // prefer progress over backtracking
      }
      if (!next.valid()) break;  // stranded: every neighbor is dead
    }
    prev = cur;
    cur = next;
  }
  assert(cur == kInvalidNode || topo_.has_node(cur));
  return cur;
}

void BlatantMaintainer::discovery_ant(NodeId origin) {
  ++stats_.discovery_ants;
  const NodeId target = random_walk(origin);
  if (target == origin || !target.valid()) return;
  if (topo_.has_link(origin, target)) return;
  // Unbounded on purpose: an unreachable target (nullopt) must not read as
  // "farther than alpha".
  const auto d = topo_.distance(origin, target);
  if (d && *d > params_.alpha) {
    topo_.add_link(origin, target);
    ++stats_.links_added;
  }
}

void BlatantMaintainer::pruning_ant(NodeId origin) {
  ++stats_.pruning_ants;
  const auto& ns = topo_.neighbors(origin);
  if (ns.size() <= params_.min_degree) return;
  const NodeId victim = ns[static_cast<std::size_t>(
      rng_.uniform_int(0, static_cast<std::int64_t>(ns.size()) - 1))];
  // Both endpoints must stay above the degree floor...
  if (topo_.degree(victim) <= params_.min_degree) return;
  // ...and an alternative path of length <= beta must exist, which both
  // preserves connectivity and keeps the alpha bound intact. Only that
  // yes/no matters, so the search stops at depth beta.
  const auto detour = topo_.distance_without_link(origin, victim, origin,
                                                  victim, params_.beta);
  if (detour) {
    topo_.remove_link(origin, victim);
    ++stats_.links_removed;
  }
}

bool BlatantMaintainer::settled() const {
  if (topo_.diameter() > params_.alpha) return false;
  for (const NodeId a : topo_.nodes()) {
    if (topo_.degree(a) <= params_.min_degree) continue;
    for (const NodeId b : topo_.neighbors(a)) {
      if (b < a || topo_.degree(b) <= params_.min_degree) continue;
      if (topo_.distance_without_link(a, b, a, b, params_.beta)) return false;
    }
  }
  return true;
}

void BlatantMaintainer::tick() {
  // Snapshot the node set: ants may mutate the topology while iterating.
  const auto nodes = topo_.nodes();
  for (NodeId n : nodes) {
    // Draw first, gate second: crashed origins emit no ants, but the
    // Bernoulli stream stays identical to the all-alive run, so enabling
    // the liveness oracle cannot perturb fault-free topologies.
    if (rng_.bernoulli(params_.discovery_rate) && alive(n)) discovery_ant(n);
    if (rng_.bernoulli(params_.pruning_rate) && alive(n)) pruning_ant(n);
  }
}

void BlatantMaintainer::converge(std::size_t max_rounds,
                                 std::size_t quiet_rounds) {
  std::size_t quiet = 0;
  for (std::size_t round = 0; round < max_rounds && quiet < quiet_rounds;
       ++round) {
    const auto added = stats_.links_added;
    const auto removed = stats_.links_removed;
    tick();
    const bool changed =
        stats_.links_added != added || stats_.links_removed != removed;
    quiet = changed ? 0 : quiet + 1;
  }
}

}  // namespace aria::overlay
