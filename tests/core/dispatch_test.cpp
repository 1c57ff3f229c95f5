// Message dispatch: every wire type reaches its AriaNode handler through
// the type-id dispatch in AriaNode::handle, and the plane-gated types
// (PING/PONG/LINK_* for healing, REGION_* for the hierarchy) are ignored
// while their plane is off.
//
// Node 0 is a real AriaNode; peers 1..9 are bare network endpoints that
// record what node 0 sends them, so each test injects exactly one message
// and watches for that handler's own side effect.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "tests/core/test_grid.hpp"

namespace aria::proto {
namespace {

using aria::test::TestGrid;
using namespace aria::literals;
using sched::SchedulerKind;

constexpr NodeId kPeer{7};

class Dispatch : public ::testing::Test {
 protected:
  Dispatch() {
    // Two regions of two candidates each: node 0 aggregates region 0, and
    // peers 1 and 3 are region 1's candidates (digest recipients).
    g.config.hierarchy.region_count = 2;
    g.config.hierarchy.agg_standby = 2;
  }

  AriaNode& start_node() {
    AriaNode& n = g.add_node(SchedulerKind::kFcfs);
    for (std::uint32_t p = 1; p <= 9; ++p) listen(NodeId{p});
    return n;
  }

  /// Records every message sent to `peer`; `reply` (if set) answers it.
  void listen(NodeId peer) {
    g.net().attach(peer, [this, peer](sim::Envelope env) {
      if (reply) reply(peer, *env.message);
      inbox[peer].push_back(std::move(env.message));
    });
  }

  template <typename M>
  std::vector<const M*> received(NodeId peer) const {
    std::vector<const M*> out;
    const auto it = inbox.find(peer);
    if (it == inbox.end()) return out;
    for (const auto& m : it->second) {
      if (m->type_id() == M::static_type()) {
        out.push_back(static_cast<const M*>(m.get()));
      }
    }
    return out;
  }

  void deliver(NodeId from, std::unique_ptr<sim::Message> msg) {
    g.net().send(from, NodeId{0}, std::move(msg));
    g.run_for(100_ms);
  }

  /// Flood bookkeeping for a message on its final hop (no forwarding).
  FloodMeta last_hop(NodeId origin) {
    return FloodMeta{Uuid::generate(uuids_), 0, origin};
  }

  /// Node 0 initiates `job`, collects one winning ACCEPT from kPeer and
  /// delegates to it once the accept window closes.
  void delegate_to_peer(AriaNode& n, const grid::JobSpec& job) {
    g.config.initiator_self_candidate = false;
    n.submit(job);
    deliver(kPeer, std::make_unique<AcceptMsg>(kPeer, job.id, 0.0));
    g.run_for(2_s);
  }

  TestGrid g;
  std::map<NodeId, std::vector<std::unique_ptr<sim::Message>>> inbox;
  std::function<void(NodeId, const sim::Message&)> reply;
  Rng uuids_{99};
};

// --- protocol plane (always dispatched) --------------------------------------

TEST_F(Dispatch, RequestGetsAnAccept) {
  start_node();
  const auto job = g.make_job(1_h);
  deliver(kPeer, std::make_unique<RequestMsg>(kPeer, job, last_hop(kPeer)));
  ASSERT_EQ(received<AcceptMsg>(kPeer).size(), 1u);
  EXPECT_EQ(received<AcceptMsg>(kPeer)[0]->job_id, job.id);
}

TEST_F(Dispatch, InformGetsACheaperOffer) {
  start_node();
  const auto job = g.make_job(1_h);
  deliver(kPeer,
          std::make_unique<InformMsg>(kPeer, job, 1e9, last_hop(kPeer)));
  EXPECT_EQ(received<AcceptMsg>(kPeer).size(), 1u);
}

TEST_F(Dispatch, AcceptWinsTheDelegation) {
  AriaNode& n = start_node();
  const auto job = g.make_job(1_h);
  delegate_to_peer(n, job);
  ASSERT_EQ(received<AssignMsg>(kPeer).size(), 1u);
  EXPECT_EQ(received<AssignMsg>(kPeer)[0]->job.id, job.id);
}

TEST_F(Dispatch, AssignEnqueuesTheJob) {
  AriaNode& n = start_node();
  const auto job = g.make_job(1_h);
  deliver(kPeer, std::make_unique<AssignMsg>(kPeer, job));
  EXPECT_TRUE(n.holds(job.id));
}

TEST_F(Dispatch, AssignAckEndsRetransmission) {
  g.config.assign_ack = true;
  AriaNode& n = start_node();
  reply = [this](NodeId peer, const sim::Message& m) {
    if (const auto* a = sim::message_cast<AssignMsg>(m, m.type_id())) {
      g.net().send(peer, NodeId{0}, std::make_unique<AssignAckMsg>(
                                        peer, a->job.id, a->assign_id));
    }
  };
  const auto job = g.make_job(1_h);
  delegate_to_peer(n, job);
  ASSERT_EQ(received<AssignMsg>(kPeer).size(), 1u);
  EXPECT_FALSE(n.discovering(job.id));  // acknowledged: nothing pending
}

TEST_F(Dispatch, NotifyCompletesTheWatch) {
  g.config.failsafe = true;
  AriaNode& n = start_node();
  const auto job = g.make_job(1_h);
  n.submit(job);
  ASSERT_TRUE(n.watching(job.id));
  deliver(kPeer, std::make_unique<NotifyMsg>(NotifyMsg::Kind::kCompleted,
                                             job.id, kPeer));
  EXPECT_FALSE(n.watching(job.id));
}

TEST_F(Dispatch, RejectRediscovers) {
  g.config.overload.enabled = true;
  AriaNode& n = start_node();
  const auto job = g.make_job(1_h);
  delegate_to_peer(n, job);
  ASSERT_EQ(received<AssignMsg>(kPeer).size(), 1u);
  deliver(kPeer, std::make_unique<RejectMsg>(kPeer, job, NodeId{0}, false,
                                             Uuid::generate(uuids_)));
  EXPECT_EQ(n.counters().reject_rediscoveries, 1u);
}

// --- healing plane -------------------------------------------------------------

class HealingDispatch : public Dispatch,
                        public ::testing::WithParamInterface<bool> {
 protected:
  HealingDispatch() { g.config.healing.enabled = GetParam(); }
  bool on() const { return GetParam(); }
};

TEST_P(HealingDispatch, PingGetsAPong) {
  start_node();
  g.topo.add_link(NodeId{0}, kPeer);
  deliver(kPeer, std::make_unique<PingMsg>(kPeer, 5));
  EXPECT_EQ(received<PongMsg>(kPeer).size(), on() ? 1u : 0u);
}

TEST_P(HealingDispatch, PongTeachesContacts) {
  AriaNode& n = start_node();
  deliver(kPeer, std::make_unique<PongMsg>(
                     kPeer, 5, std::vector<NodeId>{NodeId{8}, NodeId{9}}));
  EXPECT_EQ(n.neighbor_view().contacts().size(), on() ? 2u : 0u);
}

TEST_P(HealingDispatch, LinkReqIsAcknowledged) {
  start_node();
  deliver(kPeer, std::make_unique<LinkReqMsg>(kPeer));
  EXPECT_EQ(received<LinkAckMsg>(kPeer).size(), on() ? 1u : 0u);
  EXPECT_EQ(g.topo.has_link(NodeId{0}, kPeer), on());
}

TEST_P(HealingDispatch, LinkAckTracksThePeer) {
  AriaNode& n = start_node();
  deliver(kPeer, std::make_unique<LinkAckMsg>(kPeer, std::vector<NodeId>{}));
  EXPECT_EQ(n.neighbor_view().tracked(kPeer), on());
}

INSTANTIATE_TEST_SUITE_P(PlaneOnOff, HealingDispatch, ::testing::Bool());

// --- hierarchy plane -------------------------------------------------------------

class HierarchyDispatch : public Dispatch,
                          public ::testing::WithParamInterface<bool> {
 protected:
  HierarchyDispatch() { g.config.hierarchy.enabled = GetParam(); }
  bool on() const { return GetParam(); }
};

TEST_P(HierarchyDispatch, RegionLoadIsCountedInTheDigest) {
  start_node();
  deliver(NodeId{4}, std::make_unique<RegionLoadMsg>(
                         NodeId{4}, overlay::MemberLoad{true, 0.0, 0}));
  g.run_for(6_min);  // one digest period, whatever the timer phase
  const auto digests = received<RegionDigestMsg>(NodeId{1});
  ASSERT_EQ(digests.empty(), !on());
  if (on()) {
    EXPECT_EQ(digests.back()->digest.members, 2u);  // node 0 plus node 4
  }
}

TEST_P(HierarchyDispatch, RegionDigestIsStored) {
  AriaNode& n = start_node();
  overlay::RegionDigest d;
  d.region = 1;
  d.members = 1;
  deliver(NodeId{1}, std::make_unique<RegionDigestMsg>(NodeId{1}, d));
  EXPECT_EQ(n.region_digest_of(1).has_value(), on());
}

TEST_P(HierarchyDispatch, RegionQueryIsServed) {
  AriaNode& n = start_node();
  deliver(kPeer, std::make_unique<RegionQueryMsg>(kPeer, g.make_job(1_h), 1));
  EXPECT_EQ(n.counters().region_queries_served, on() ? 1u : 0u);
}

TEST_P(HierarchyDispatch, RegionFwdStartsARemoteFlood) {
  AriaNode& n = start_node();
  deliver(kPeer, std::make_unique<RegionFwdMsg>(kPeer, g.make_job(1_h), 1));
  EXPECT_EQ(n.counters().region_floods, on() ? 1u : 0u);
  EXPECT_EQ(received<AcceptMsg>(kPeer).size(), on() ? 1u : 0u);
}

TEST_P(HierarchyDispatch, RegionPullIsAnsweredWithALoadReport) {
  start_node();
  // Peer 6 is no aggregator candidate, so no periodic report reaches it.
  deliver(NodeId{6},
          std::make_unique<RegionPullMsg>(NodeId{6}, last_hop(NodeId{6})));
  EXPECT_EQ(received<RegionLoadMsg>(NodeId{6}).size(), on() ? 1u : 0u);
}

INSTANTIATE_TEST_SUITE_P(PlaneOnOff, HierarchyDispatch, ::testing::Bool());

}  // namespace
}  // namespace aria::proto
