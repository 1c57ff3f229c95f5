#include "overlay/liveness.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "common/rng.hpp"

namespace aria::overlay {
namespace {

HealingParams quick_params() {
  HealingParams p;
  p.enabled = true;
  p.suspect_after = 2;
  p.evict_after = 4;
  p.degree_floor = 4;
  p.contact_cache = 4;
  return p;
}

TEST(NeighborView, TrackStartsLive) {
  NeighborView v;
  v.track(NodeId{1});
  EXPECT_TRUE(v.tracked(NodeId{1}));
  EXPECT_EQ(v.state(NodeId{1}), PeerState::kLive);
  EXPECT_EQ(v.live_degree(), 1u);
  EXPECT_FALSE(v.tracked(NodeId{2}));
  EXPECT_EQ(v.state(NodeId{2}), PeerState::kEvicted);  // unknown == gone
}

TEST(NeighborView, MissedProbesSuspectThenEvict) {
  const HealingParams p = quick_params();
  NeighborView v;
  v.track(NodeId{1});
  v.probe_sent(NodeId{1}, 1);
  EXPECT_EQ(v.record_miss(NodeId{1}, p), NeighborView::Transition::kNone);
  EXPECT_EQ(v.state(NodeId{1}), PeerState::kLive);
  EXPECT_EQ(v.record_miss(NodeId{1}, p), NeighborView::Transition::kSuspected);
  EXPECT_EQ(v.state(NodeId{1}), PeerState::kSuspected);
  EXPECT_EQ(v.record_miss(NodeId{1}, p), NeighborView::Transition::kNone);
  EXPECT_EQ(v.record_miss(NodeId{1}, p), NeighborView::Transition::kEvicted);
  EXPECT_EQ(v.state(NodeId{1}), PeerState::kEvicted);
  EXPECT_EQ(v.stats().evictions, 1u);
  EXPECT_EQ(v.stats().false_suspicions, 0u);
}

TEST(NeighborView, PongClearsMissesAndCountsFalseSuspicion) {
  const HealingParams p = quick_params();
  NeighborView v;
  v.track(NodeId{1});
  v.probe_sent(NodeId{1}, 7);
  v.record_miss(NodeId{1}, p);
  v.record_miss(NodeId{1}, p);
  EXPECT_EQ(v.state(NodeId{1}), PeerState::kSuspected);
  v.probe_sent(NodeId{1}, 8);
  v.pong_received(NodeId{1}, 8);
  EXPECT_EQ(v.state(NodeId{1}), PeerState::kLive);
  EXPECT_EQ(v.stats().false_suspicions, 1u);
  // The miss counter reset: eviction needs the full run of misses again.
  v.probe_sent(NodeId{1}, 9);
  EXPECT_EQ(v.record_miss(NodeId{1}, p), NeighborView::Transition::kNone);
}

TEST(NeighborView, StalePongIsIgnored) {
  NeighborView v;
  v.track(NodeId{1});
  v.probe_sent(NodeId{1}, 5);
  v.pong_received(NodeId{1}, 4);  // answer to an older probe
  EXPECT_TRUE(v.outstanding(NodeId{1}));
  v.pong_received(NodeId{1}, 5);
  EXPECT_FALSE(v.outstanding(NodeId{1}));
  v.pong_received(NodeId{3}, 5);  // never tracked: no-op
}

TEST(NeighborView, TargetsKeepSuspectedDropEvicted) {
  const HealingParams p = quick_params();
  NeighborView v;
  v.track(NodeId{1});
  v.track(NodeId{2});
  v.track(NodeId{3});
  v.probe_sent(NodeId{2}, 1);
  v.record_miss(NodeId{2}, p);
  v.record_miss(NodeId{2}, p);  // 2 -> suspected
  v.probe_sent(NodeId{3}, 2);
  for (int i = 0; i < 4; ++i) v.record_miss(NodeId{3}, p);  // 3 -> evicted
  std::vector<NodeId> out{NodeId{7}};  // stale contents are replaced
  v.targets(out);
  EXPECT_EQ(out, (std::vector<NodeId>{NodeId{1}, NodeId{2}}));
  v.live_neighbors(out);
  EXPECT_EQ(out, (std::vector<NodeId>{NodeId{1}}));
  v.tracked_peers(out);
  EXPECT_EQ(out, (std::vector<NodeId>{NodeId{1}, NodeId{2}, NodeId{3}}));
}

TEST(NeighborView, TrackRevivesEvictedPeer) {
  const HealingParams p = quick_params();
  NeighborView v;
  v.track(NodeId{1});
  v.probe_sent(NodeId{1}, 1);
  for (int i = 0; i < 4; ++i) v.record_miss(NodeId{1}, p);
  EXPECT_EQ(v.state(NodeId{1}), PeerState::kEvicted);
  v.track(NodeId{1});  // link re-established
  EXPECT_EQ(v.state(NodeId{1}), PeerState::kLive);
  EXPECT_FALSE(v.outstanding(NodeId{1}));
  // Miss history restarted from zero.
  v.probe_sent(NodeId{1}, 2);
  EXPECT_EQ(v.record_miss(NodeId{1}, p), NeighborView::Transition::kNone);
}

TEST(NeighborView, ContactCacheDedupesAndBounds) {
  NeighborView v;
  v.track(NodeId{9});
  v.learn_contact(NodeId{9}, NodeId{0}, 4);   // tracked: rejected
  v.learn_contact(NodeId{0}, NodeId{0}, 4);   // self: rejected
  v.learn_contact(kInvalidNode, NodeId{0}, 4);
  v.learn_contact(NodeId{1}, NodeId{0}, 4);
  v.learn_contact(NodeId{1}, NodeId{0}, 4);   // duplicate
  v.learn_contact(NodeId{2}, NodeId{0}, 4);
  EXPECT_EQ(v.contacts(), (std::vector<NodeId>{NodeId{1}, NodeId{2}}));
  v.learn_contact(NodeId{3}, NodeId{0}, 4);
  v.learn_contact(NodeId{4}, NodeId{0}, 4);
  v.learn_contact(NodeId{5}, NodeId{0}, 4);  // overflows: FIFO drops 1
  EXPECT_EQ(v.contacts(), (std::vector<NodeId>{NodeId{2}, NodeId{3}, NodeId{4},
                                               NodeId{5}}));
}

TEST(NeighborView, TakeContactSkipsTrackedAndExhausts) {
  NeighborView v;
  v.learn_contact(NodeId{1}, NodeId{0}, 8);
  v.learn_contact(NodeId{2}, NodeId{0}, 8);
  v.track(NodeId{1});  // became a neighbor meanwhile (also purges the cache)
  EXPECT_EQ(v.take_contact(), NodeId{2});
  EXPECT_EQ(v.take_contact(), kInvalidNode);
}

TEST(NeighborView, ClearWipesPeersButKeepsStats) {
  const HealingParams p = quick_params();
  NeighborView v;
  v.track(NodeId{1});
  v.probe_sent(NodeId{1}, 1);
  for (int i = 0; i < 4; ++i) v.record_miss(NodeId{1}, p);
  v.learn_contact(NodeId{5}, NodeId{0}, 4);
  v.clear();
  EXPECT_EQ(v.tracked_count(), 0u);
  EXPECT_TRUE(v.contacts().empty());
  EXPECT_EQ(v.stats().evictions, 1u);  // counters model the whole lifetime
}

// ---------------------------------------------------------------------------
// Equivalence with the ordered-map reference
// ---------------------------------------------------------------------------

// Reference model: NeighborView's contract implemented the obvious way, on a
// std::map. The flat id-sorted storage must be indistinguishable from it.
class MapView {
 public:
  void track(NodeId id) {
    Peer& p = peers_[id];
    p.state = PeerState::kLive;
    p.missed = 0;
    p.outstanding = false;
    contacts_.erase(std::remove(contacts_.begin(), contacts_.end(), id),
                    contacts_.end());
  }
  void untrack(NodeId id) { peers_.erase(id); }
  bool tracked(NodeId id) const { return peers_.contains(id); }
  PeerState state(NodeId id) const {
    const auto it = peers_.find(id);
    return it == peers_.end() ? PeerState::kEvicted : it->second.state;
  }
  bool outstanding(NodeId id) const {
    const auto it = peers_.find(id);
    return it != peers_.end() && it->second.outstanding;
  }
  void probe_sent(NodeId id, std::uint32_t seq) {
    const auto it = peers_.find(id);
    if (it == peers_.end()) return;
    it->second.outstanding = true;
    it->second.probe_seq = seq;
  }
  NeighborView::Transition record_miss(NodeId id, const HealingParams& hp) {
    const auto it = peers_.find(id);
    if (it == peers_.end()) return NeighborView::Transition::kNone;
    Peer& p = it->second;
    p.outstanding = false;
    ++p.missed;
    if (p.missed >= hp.evict_after) {
      p.state = PeerState::kEvicted;
      ++evictions_;
      return NeighborView::Transition::kEvicted;
    }
    if (p.missed >= hp.suspect_after && p.state == PeerState::kLive) {
      p.state = PeerState::kSuspected;
      return NeighborView::Transition::kSuspected;
    }
    return NeighborView::Transition::kNone;
  }
  void pong_received(NodeId id, std::uint32_t seq) {
    const auto it = peers_.find(id);
    if (it == peers_.end()) return;
    Peer& p = it->second;
    if (!p.outstanding || p.probe_seq != seq) return;
    p.outstanding = false;
    p.missed = 0;
    if (p.state == PeerState::kSuspected) {
      ++false_suspicions_;
      p.state = PeerState::kLive;
    }
  }
  void learn_contact(NodeId c, NodeId self, std::size_t bound) {
    if (!c.valid() || c == self || peers_.contains(c)) return;
    if (std::find(contacts_.begin(), contacts_.end(), c) != contacts_.end()) {
      return;
    }
    contacts_.push_back(c);
    if (contacts_.size() > bound) contacts_.erase(contacts_.begin());
  }
  NodeId take_contact() {
    while (!contacts_.empty()) {
      const NodeId c = contacts_.front();
      contacts_.erase(contacts_.begin());
      if (!peers_.contains(c)) return c;
    }
    return kInvalidNode;
  }
  void clear() {
    peers_.clear();
    contacts_.clear();
  }

  std::vector<NodeId> listing(bool live_only, bool drop_evicted) const {
    std::vector<NodeId> out;
    for (const auto& [id, p] : peers_) {
      if (live_only && p.state != PeerState::kLive) continue;
      if (drop_evicted && p.state == PeerState::kEvicted) continue;
      out.push_back(id);
    }
    return out;
  }
  const std::vector<NodeId>& contacts() const { return contacts_; }
  std::uint64_t evictions() const { return evictions_; }
  std::uint64_t false_suspicions() const { return false_suspicions_; }

 private:
  struct Peer {
    PeerState state{PeerState::kLive};
    std::size_t missed{0};
    bool outstanding{false};
    std::uint32_t probe_seq{0};
  };
  std::map<NodeId, Peer> peers_;
  std::vector<NodeId> contacts_;
  std::uint64_t evictions_{0};
  std::uint64_t false_suspicions_{0};
};

void expect_same(const NeighborView& v, const MapView& m, std::size_t ids,
                 std::size_t step) {
  SCOPED_TRACE(testing::Message() << "step " << step);
  std::vector<NodeId> out;
  v.tracked_peers(out);
  EXPECT_EQ(out, m.listing(false, false));
  v.targets(out);
  EXPECT_EQ(out, m.listing(false, true));
  v.live_neighbors(out);
  EXPECT_EQ(out, m.listing(true, false));
  EXPECT_EQ(v.live_degree(), m.listing(true, false).size());
  EXPECT_EQ(v.tracked_count(), m.listing(false, false).size());
  EXPECT_EQ(v.contacts(), m.contacts());
  EXPECT_EQ(v.stats().evictions, m.evictions());
  EXPECT_EQ(v.stats().false_suspicions, m.false_suspicions());
  for (std::uint32_t i = 0; i < ids; ++i) {
    const NodeId id{i};
    EXPECT_EQ(v.tracked(id), m.tracked(id)) << i;
    EXPECT_EQ(v.state(id), m.state(id)) << i;
    EXPECT_EQ(v.outstanding(id), m.outstanding(id)) << i;
  }
}

TEST(NeighborView, RandomOpsMatchOrderedMapReference) {
  constexpr std::size_t kIds = 12;  // small universe: frequent collisions
  constexpr std::size_t kSteps = 3000;
  const HealingParams hp = quick_params();
  const NodeId self{0};
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    Rng rng{seed};
    NeighborView v;
    MapView m;
    std::uint32_t seq = 0;
    for (std::size_t step = 0; step < kSteps; ++step) {
      const NodeId id{static_cast<std::uint32_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(kIds) - 1))};
      switch (rng.uniform_int(0, 19)) {
        case 0: case 1: case 2: case 3:
          v.track(id);
          m.track(id);
          break;
        case 4: case 5:
          v.untrack(id);
          m.untrack(id);
          break;
        case 6: case 7: case 8: {
          ++seq;
          v.probe_sent(id, seq);
          m.probe_sent(id, seq);
          break;
        }
        case 9: case 10: case 11:
          ASSERT_EQ(v.record_miss(id, hp), m.record_miss(id, hp));
          break;
        case 12: case 13: {
          // Mostly the current probe, sometimes a straggler.
          const std::uint32_t s = rng.bernoulli(0.7) ? seq : seq - 1;
          v.pong_received(id, s);
          m.pong_received(id, s);
          break;
        }
        case 14: case 15: case 16: {
          const NodeId c = rng.bernoulli(0.05) ? kInvalidNode : id;
          v.learn_contact(c, self, hp.contact_cache);
          m.learn_contact(c, self, hp.contact_cache);
          break;
        }
        case 17: case 18:
          ASSERT_EQ(v.take_contact(), m.take_contact());
          break;
        default:
          if (rng.bernoulli(0.1)) {
            v.clear();
            m.clear();
          }
          break;
      }
      expect_same(v, m, kIds, step);
      if (HasFailure()) return;
    }
  }
}

}  // namespace
}  // namespace aria::overlay
