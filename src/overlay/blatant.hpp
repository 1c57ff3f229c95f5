// BLATANT-S-style self-organized overlay maintenance.
//
// The paper relies on a separate publication ([28], Brocco & Hirsbrunner,
// GridPeer 2009) for its overlay: ant-like agents wander the topology,
// adding logical links when the sampled path length exceeds a bound (alpha)
// and pruning links that an alternative path of length <= beta can replace.
// The source of BLATANT-S is unavailable, so this is a faithful
// reimplementation of that mechanism's observable behaviour: bounded
// average path length, near-minimal link count, preserved connectivity, and
// seamless integration of joining nodes. ARiA only depends on these
// properties (paper §IV-A).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>

#include "common/rng.hpp"
#include "overlay/topology.hpp"

namespace aria::overlay {

struct BlatantParams {
  /// Maximum acceptable hop distance between sampled node pairs; a
  /// discovery ant finding a longer path creates a shortcut link.
  std::size_t alpha{9};
  /// A link is redundant — and prunable — if its endpoints stay within
  /// `beta` hops without it. Must be <= alpha to keep the bound.
  std::size_t beta{5};
  /// Random-walk length of discovery ants.
  std::size_t walk_length{12};
  /// Pruning never drops a node's degree below this. 4 reproduces the
  /// paper's reported average node degree (§IV-A).
  std::size_t min_degree{4};
  /// Fraction of nodes emitting a discovery ant per tick.
  double discovery_rate{0.25};
  /// Fraction of nodes emitting a pruning ant per tick.
  double pruning_rate{0.25};
};

class BlatantMaintainer {
 public:
  struct Stats {
    std::uint64_t discovery_ants{0};
    std::uint64_t pruning_ants{0};
    std::uint64_t links_added{0};
    std::uint64_t links_removed{0};
  };

  BlatantMaintainer(Topology& topo, BlatantParams params, Rng rng);

  /// Installs a liveness oracle for churn-aware maintenance: crashed nodes
  /// emit no ants and random walks do not step onto them (an ant is a
  /// message exchange, and dead machines exchange nothing). Unset, every
  /// node counts as alive. The per-node Bernoulli draws are made before the
  /// oracle is consulted, so installing it leaves fault-free runs
  /// bit-identical.
  void set_liveness(std::function<bool(NodeId)> alive) {
    liveness_ = std::move(alive);
  }

  /// One maintenance round: every node emits ants with the configured
  /// probabilities.
  void tick();

  /// Convenience: ticks until the topology stabilizes (no link churn for
  /// `quiet_rounds` consecutive ticks) or `max_rounds` elapse.
  void converge(std::size_t max_rounds = 200, std::size_t quiet_rounds = 5);

  /// True when no ant can change the topology any more, so every further
  /// tick is a no-op: no two nodes lie more than alpha hops apart (no
  /// discovery ant finds a shortcut to add) and no link between two nodes
  /// above the degree floor has a detour of at most beta hops (no pruning
  /// ant finds one to drop). Costs an all-pairs BFS; call it rarely.
  bool settled() const;

  /// A single discovery ant from `origin`: random walk, then shortcut
  /// creation if the walked pair is further apart than alpha.
  void discovery_ant(NodeId origin);

  /// A single pruning ant at `origin`: drops one redundant incident link if
  /// degrees and the beta-detour test allow it.
  void pruning_ant(NodeId origin);

  const Stats& stats() const { return stats_; }
  const BlatantParams& params() const { return params_; }

 private:
  NodeId random_walk(NodeId origin) const;
  bool alive(NodeId n) const { return !liveness_ || liveness_(n); }

  Topology& topo_;
  BlatantParams params_;
  mutable Rng rng_;
  Stats stats_;
  std::function<bool(NodeId)> liveness_;
};

}  // namespace aria::overlay
