#include "overlay/blatant.hpp"

#include <gtest/gtest.h>

#include <unordered_map>
#include <unordered_set>

#include "overlay/bootstrap.hpp"

namespace aria::overlay {
namespace {

TEST(Blatant, ConvergePreservesConnectivity) {
  Rng rng{1};
  Topology t = bootstrap_random(300, 4.0, rng);
  BlatantMaintainer m{t, BlatantParams{}, rng.fork(1)};
  m.converge(60, 3);
  EXPECT_TRUE(t.connected());
}

TEST(Blatant, KeepsAveragePathLengthBounded) {
  Rng rng{2};
  Topology t = bootstrap_random(400, 4.0, rng);
  BlatantParams p;
  BlatantMaintainer m{t, p, rng.fork(1)};
  m.converge(60, 3);
  EXPECT_LE(t.average_path_length(), static_cast<double>(p.alpha));
}

TEST(Blatant, RespectsDegreeFloor) {
  Rng rng{3};
  Topology t = bootstrap_random(300, 6.0, rng);
  BlatantParams p;
  BlatantMaintainer m{t, p, rng.fork(1)};
  m.converge(80, 3);
  // Pruning must never take a node below min_degree unless it started there.
  for (NodeId node : t.nodes()) {
    EXPECT_GE(t.degree(node), 2u);  // ring bootstrap guarantees >= 2 initially
  }
  EXPECT_GE(t.average_degree(), static_cast<double>(p.min_degree) * 0.8);
}

TEST(Blatant, PrunesOverProvisionedGraph) {
  Rng rng{4};
  Topology t = bootstrap_random(200, 10.0, rng);  // way too many links
  const std::size_t before = t.link_count();
  BlatantMaintainer m{t, BlatantParams{}, rng.fork(1)};
  m.converge(80, 3);
  EXPECT_LT(t.link_count(), before);
  EXPECT_TRUE(t.connected());
  EXPECT_GT(m.stats().links_removed, 0u);
}

TEST(Blatant, SettledOnlyWhenNoAntCanChangeALink) {
  Rng rng{6};
  BlatantParams p;
  // A ring: short paths, every node at the degree floor -> settled.
  Topology ring;
  for (std::uint32_t i = 0; i < 8; ++i) {
    ring.add_link(NodeId{i}, NodeId{(i + 1) % 8});
  }
  EXPECT_TRUE(BlatantMaintainer(ring, p, rng.fork(1)).settled());
  // A path longer than alpha: a discovery ant may still add a shortcut.
  Topology path;
  for (std::uint32_t i = 0; i + 1 < p.alpha + 3; ++i) {
    path.add_link(NodeId{i}, NodeId{i + 1});
  }
  EXPECT_FALSE(BlatantMaintainer(path, p, rng.fork(2)).settled());
  // A clique: every link has a 2-hop detour between nodes above the floor.
  Topology clique;
  for (std::uint32_t a = 0; a < 7; ++a) {
    for (std::uint32_t b = a + 1; b < 7; ++b) {
      clique.add_link(NodeId{a}, NodeId{b});
    }
  }
  BlatantMaintainer m{clique, p, rng.fork(3)};
  EXPECT_FALSE(m.settled());
  for (int i = 0; i < 500 && !m.settled(); ++i) m.tick();
  ASSERT_TRUE(m.settled());
  // Once settled, ticks are no-ops.
  const std::size_t links = clique.link_count();
  const auto changes = m.stats().links_added + m.stats().links_removed;
  for (int i = 0; i < 50; ++i) m.tick();
  EXPECT_EQ(clique.link_count(), links);
  EXPECT_EQ(m.stats().links_added + m.stats().links_removed, changes);
}

TEST(Blatant, RepairsStretchedTopology) {
  // A long path graph violates the alpha bound badly; discovery ants must
  // add shortcuts.
  Rng rng{5};
  Topology t;
  for (std::uint32_t i = 0; i < 99; ++i) {
    t.add_link(NodeId{i}, NodeId{i + 1});
  }
  const double before = t.average_path_length();
  BlatantParams p;
  p.walk_length = 30;  // let ants reach far nodes on the path
  BlatantMaintainer m{t, p, rng.fork(1)};
  m.converge(120, 5);
  EXPECT_GT(m.stats().links_added, 0u);
  EXPECT_LT(t.average_path_length(), before);
  EXPECT_TRUE(t.connected());
}

TEST(Blatant, DiscoveryAntNoOpOnIsolatedNode) {
  Rng rng{6};
  Topology t;
  t.add_node(NodeId{0});
  BlatantMaintainer m{t, BlatantParams{}, rng};
  m.discovery_ant(NodeId{0});
  EXPECT_EQ(t.link_count(), 0u);
}

TEST(Blatant, PruningAntKeepsSmallGraphsIntact) {
  Rng rng{7};
  Topology t;
  t.add_link(NodeId{0}, NodeId{1});
  t.add_link(NodeId{1}, NodeId{2});
  BlatantMaintainer m{t, BlatantParams{}, rng};
  for (int i = 0; i < 50; ++i) {
    m.pruning_ant(NodeId{0});
    m.pruning_ant(NodeId{1});
  }
  EXPECT_EQ(t.link_count(), 2u);  // degrees are at/below the floor
}

TEST(Blatant, NeverDisconnectsUnderHeavyPruning) {
  Rng rng{8};
  Topology t = bootstrap_random(150, 8.0, rng);
  BlatantParams p;
  p.pruning_rate = 1.0;
  p.discovery_rate = 0.0;
  BlatantMaintainer m{t, p, rng.fork(1)};
  for (int round = 0; round < 30; ++round) {
    m.tick();
    ASSERT_TRUE(t.connected()) << "disconnected after round " << round;
  }
}

TEST(Blatant, StatsCountAnts) {
  Rng rng{9};
  Topology t = bootstrap_random(50, 4.0, rng);
  BlatantParams p;
  p.discovery_rate = 1.0;
  p.pruning_rate = 1.0;
  BlatantMaintainer m{t, p, rng.fork(1)};
  m.tick();
  EXPECT_EQ(m.stats().discovery_ants, 50u);
  EXPECT_EQ(m.stats().pruning_ants, 50u);
}

TEST(Blatant, CrashedOriginsEmitNoAnts) {
  Rng rng{11};
  Topology t = bootstrap_random(60, 4.0, rng);
  BlatantParams p;
  p.discovery_rate = 1.0;
  p.pruning_rate = 1.0;
  BlatantMaintainer m{t, p, rng.fork(1)};
  std::unordered_set<NodeId> dead;
  for (std::uint32_t i = 0; i < 30; ++i) dead.insert(NodeId{i});
  m.set_liveness([&dead](NodeId n) { return !dead.contains(n); });
  m.tick();
  // At rate 1.0 every *live* node emits both ants; dead origins none.
  EXPECT_EQ(m.stats().discovery_ants, 30u);
  EXPECT_EQ(m.stats().pruning_ants, 30u);
}

TEST(Blatant, LivenessGateDoesNotPerturbAllAliveRuns) {
  // Installing an all-true oracle must leave the topology bit-identical:
  // the Bernoulli draws happen before the gate, and walks consult the
  // oracle only on picks (which all pass).
  Rng rng{12};
  Topology plain = bootstrap_random(120, 4.0, rng);
  Topology gated = plain;
  BlatantMaintainer m1{plain, BlatantParams{}, Rng{99}};
  BlatantMaintainer m2{gated, BlatantParams{}, Rng{99}};
  m2.set_liveness([](NodeId) { return true; });
  for (int round = 0; round < 20; ++round) {
    m1.tick();
    m2.tick();
  }
  EXPECT_EQ(plain.link_count(), gated.link_count());
  for (NodeId n : plain.nodes()) {
    EXPECT_EQ(plain.neighbors(n), gated.neighbors(n));
  }
}

TEST(Blatant, WalksNeverLandOnDeadNodes) {
  // Discovery ants add links only between the origin and the walk's end;
  // with half the grid dead, no new link may touch a dead node.
  Rng rng{13};
  Topology t = bootstrap_random(80, 5.0, rng);
  const std::size_t before = t.link_count();
  BlatantParams p;
  p.discovery_rate = 1.0;
  p.pruning_rate = 0.0;
  p.alpha = 2;  // aggressive: almost every walked pair wants a shortcut
  p.beta = 2;
  BlatantMaintainer m{t, p, rng.fork(1)};
  auto dead = [](NodeId n) { return n.value() % 2 == 1; };
  m.set_liveness([&dead](NodeId n) { return !dead(n); });
  std::unordered_map<NodeId, std::vector<NodeId>> old_links;
  for (NodeId n : t.nodes()) old_links[n] = t.neighbors(n);
  for (int round = 0; round < 10; ++round) m.tick();
  EXPECT_GT(t.link_count(), before);
  for (NodeId n : t.nodes()) {
    if (!dead(n)) continue;
    // A dead node's neighbor list may only have shrunk (pruning is off, so
    // it is in fact unchanged) — discovery never attached to it.
    EXPECT_EQ(t.neighbors(n), old_links[n]);
  }
}

TEST(Blatant, WalkSurroundedByDeadNeighborsStaysPut) {
  // Star topology, all leaves dead: the walk cannot leave the center, the
  // ant terminates without adding links, and nothing crashes (the
  // fallback-scan path when every anti-backtrack draw hits a dead pick).
  Rng rng{14};
  Topology t;
  for (std::uint32_t i = 1; i <= 5; ++i) t.add_link(NodeId{0}, NodeId{i});
  BlatantMaintainer m{t, BlatantParams{}, rng};
  m.set_liveness([](NodeId n) { return n == NodeId{0}; });
  for (int i = 0; i < 20; ++i) m.discovery_ant(NodeId{0});
  EXPECT_EQ(t.link_count(), 5u);
}

TEST(Blatant, IntegratesJoinedNodes) {
  Rng rng{10};
  Topology t = bootstrap_random(100, 4.0, rng);
  BlatantMaintainer m{t, BlatantParams{}, rng.fork(1)};
  m.converge(40, 3);
  for (std::uint32_t i = 100; i < 150; ++i) {
    join_node(t, NodeId{i}, 2, rng);
  }
  m.converge(40, 3);
  EXPECT_TRUE(t.connected());
  EXPECT_LE(t.average_path_length(), static_cast<double>(m.params().alpha));
}

}  // namespace
}  // namespace aria::overlay
