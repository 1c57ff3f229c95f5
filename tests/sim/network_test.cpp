#include "sim/network.hpp"

#include <gtest/gtest.h>

#include <map>
#include <utility>
#include <vector>

namespace aria::sim {
namespace {

using namespace aria::literals;

struct TestMsg final : Message {
  int payload;
  explicit TestMsg(int p) : payload{p} {}
  std::size_t wire_size() const override { return 100; }
  MessageTypeId type_id() const override {
    static const MessageTypeId id = MessageTypeRegistry::intern("TEST");
    return id;
  }
};

struct BigMsg final : Message {
  std::size_t wire_size() const override { return 4096; }
  MessageTypeId type_id() const override {
    static const MessageTypeId id = MessageTypeRegistry::intern("BIG");
    return id;
  }
};

class NetworkTest : public ::testing::Test {
 protected:
  NetworkTest()
      : net_{sim_, std::make_unique<FixedLatencyModel>(10_ms), Rng{1}} {}

  Simulator sim_;
  Network net_;
};

TEST_F(NetworkTest, DeliversToAttachedHandler) {
  std::vector<int> received;
  net_.attach(NodeId{2}, [&](Envelope env) {
    received.push_back(dynamic_cast<const TestMsg&>(*env.message).payload);
    EXPECT_EQ(env.from, NodeId{1});
    EXPECT_EQ(env.to, NodeId{2});
  });
  net_.send(NodeId{1}, NodeId{2}, std::make_unique<TestMsg>(42));
  sim_.run();
  EXPECT_EQ(received, (std::vector<int>{42}));
}

TEST_F(NetworkTest, DeliveryTakesLatency) {
  TimePoint delivered;
  net_.attach(NodeId{2}, [&](Envelope) { delivered = sim_.now(); });
  net_.send(NodeId{1}, NodeId{2}, std::make_unique<TestMsg>(0));
  sim_.run();
  EXPECT_EQ(delivered, TimePoint::origin() + 10_ms);
}

TEST_F(NetworkTest, UnattachedDestinationDropsAndCounts) {
  net_.send(NodeId{1}, NodeId{99}, std::make_unique<TestMsg>(0));
  sim_.run();
  EXPECT_EQ(net_.dropped_messages(), 1u);
  EXPECT_EQ(net_.delivered_messages(), 0u);
  EXPECT_EQ(net_.traffic().drops("TEST"), 1u);
  // Bytes still hit the wire.
  EXPECT_EQ(net_.traffic().of("TEST").bytes, 100u);
}

TEST_F(NetworkTest, DownNodeDropsUntilBackUp) {
  int received = 0;
  net_.attach(NodeId{2}, [&](Envelope) { ++received; });
  net_.set_up(NodeId{2}, false);
  net_.send(NodeId{1}, NodeId{2}, std::make_unique<TestMsg>(0));
  sim_.run();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(net_.dropped_messages(), 1u);

  net_.set_up(NodeId{2}, true);
  net_.send(NodeId{1}, NodeId{2}, std::make_unique<TestMsg>(0));
  sim_.run();
  EXPECT_EQ(received, 1);
}

TEST_F(NetworkTest, CrashBetweenSendAndDeliveryDrops) {
  int received = 0;
  net_.attach(NodeId{2}, [&](Envelope) { ++received; });
  net_.send(NodeId{1}, NodeId{2}, std::make_unique<TestMsg>(0));
  // The message is in flight; the destination goes down before delivery.
  net_.set_up(NodeId{2}, false);
  sim_.run();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(net_.dropped_messages(), 1u);
}

TEST_F(NetworkTest, DetachStopsDelivery) {
  int received = 0;
  net_.attach(NodeId{2}, [&](Envelope) { ++received; });
  net_.detach(NodeId{2});
  EXPECT_FALSE(net_.is_attached(NodeId{2}));
  net_.send(NodeId{1}, NodeId{2}, std::make_unique<TestMsg>(0));
  sim_.run();
  EXPECT_EQ(received, 0);
}

TEST_F(NetworkTest, TrafficLedgerAccumulatesByType) {
  net_.attach(NodeId{2}, [](Envelope) {});
  net_.send(NodeId{1}, NodeId{2}, std::make_unique<TestMsg>(0));
  net_.send(NodeId{1}, NodeId{2}, std::make_unique<TestMsg>(0));
  net_.send(NodeId{1}, NodeId{2}, std::make_unique<BigMsg>());
  sim_.run();
  EXPECT_EQ(net_.traffic().of("TEST").messages, 2u);
  EXPECT_EQ(net_.traffic().of("TEST").bytes, 200u);
  EXPECT_EQ(net_.traffic().of("BIG").messages, 1u);
  EXPECT_EQ(net_.traffic().of("BIG").bytes, 4096u);
  EXPECT_EQ(net_.traffic().total().messages, 3u);
  EXPECT_EQ(net_.traffic().total().bytes, 4296u);
}

TEST_F(NetworkTest, SentAndDeliveredCounters) {
  net_.attach(NodeId{2}, [](Envelope) {});
  for (int i = 0; i < 5; ++i) {
    net_.send(NodeId{1}, NodeId{2}, std::make_unique<TestMsg>(i));
  }
  sim_.run();
  EXPECT_EQ(net_.sent_messages(), 5u);
  EXPECT_EQ(net_.delivered_messages(), 5u);
  EXPECT_EQ(net_.dropped_messages(), 0u);
}

TEST_F(NetworkTest, FifoBetweenSamePairUnderFixedLatency) {
  std::vector<int> received;
  net_.attach(NodeId{2}, [&](Envelope env) {
    received.push_back(dynamic_cast<const TestMsg&>(*env.message).payload);
  });
  for (int i = 0; i < 10; ++i) {
    net_.send(NodeId{1}, NodeId{2}, std::make_unique<TestMsg>(i));
  }
  sim_.run();
  ASSERT_EQ(received.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(received[static_cast<std::size_t>(i)], i);
}

TEST_F(NetworkTest, ReattachReplacesHandler) {
  int first = 0, second = 0;
  net_.attach(NodeId{2}, [&](Envelope) { ++first; });
  net_.attach(NodeId{2}, [&](Envelope) { ++second; });
  net_.send(NodeId{1}, NodeId{2}, std::make_unique<TestMsg>(0));
  sim_.run();
  EXPECT_EQ(first, 0);
  EXPECT_EQ(second, 1);
}

// --- dense per-node tables ---------------------------------------------------

TEST_F(NetworkTest, TablesGrowForIdsBeyondTheirSize) {
  // Ids far past every table, in descending order, and control calls on ids
  // nothing ever attached: all must behave like the small-id cases above.
  int far = 0, near = 0;
  net_.set_up(NodeId{5000}, true);  // unknown id: no-op
  net_.detach(NodeId{7000});        // unknown id: no-op
  EXPECT_FALSE(net_.is_attached(NodeId{5000}));
  EXPECT_FALSE(net_.is_up(NodeId{5000}));
  net_.attach(NodeId{1000}, [&](Envelope) { ++far; });
  net_.attach(NodeId{3}, [&](Envelope) { ++near; });
  EXPECT_TRUE(net_.is_attached(NodeId{1000}));
  EXPECT_TRUE(net_.is_up(NodeId{1000}));
  EXPECT_FALSE(net_.is_attached(NodeId{999}));
  net_.set_up(NodeId{1000}, false);
  EXPECT_FALSE(net_.is_up(NodeId{1000}));
  net_.set_up(NodeId{1000}, true);
  // First send from an id beyond the sender tables.
  net_.send(NodeId{4000}, NodeId{1000}, std::make_unique<TestMsg>(0));
  net_.send(NodeId{4000}, NodeId{3}, std::make_unique<TestMsg>(0));
  sim_.run();
  EXPECT_EQ(far, 1);
  EXPECT_EQ(near, 1);
  net_.detach(NodeId{1000});
  EXPECT_FALSE(net_.is_attached(NodeId{1000}));
  EXPECT_FALSE(net_.is_up(NodeId{1000}));
  net_.set_up(NodeId{1000}, true);  // detached: stays unattached
  EXPECT_FALSE(net_.is_attached(NodeId{1000}));
  EXPECT_TRUE(net_.is_attached(NodeId{3}));
}

TEST_F(NetworkTest, DeliveryToDetachedOrDownIdCountsAsDrop) {
  int received = 0;
  for (std::uint32_t id : {10u, 11u, 12u}) {
    net_.attach(NodeId{id}, [&](Envelope) { ++received; });
  }
  net_.detach(NodeId{10});
  net_.set_up(NodeId{11}, false);
  for (std::uint32_t id : {10u, 11u, 12u, 13u}) {
    net_.send(NodeId{1}, NodeId{id}, std::make_unique<TestMsg>(0));
  }
  sim_.run();
  EXPECT_EQ(received, 1);  // only 12 is attached and up
  EXPECT_EQ(net_.delivered_messages(), 1u);
  EXPECT_EQ(net_.dropped_messages(), 3u);  // detached, down, never attached
  EXPECT_EQ(net_.traffic().drops("TEST"), 3u);
}

// --- delivery keys and per-sender jitter -----------------------------------

TEST(DeliveryKeys, SameInstantDeliveriesFireInSenderSeqOrder) {
  // Two senders whose messages land on the same recipient at the same
  // microsecond (fixed latency, simultaneous sends). Whatever order the
  // sends were issued in, delivery order must be (sender id, send seq).
  Simulator sim;
  Network net{sim, std::make_unique<FixedLatencyModel>(5_ms), Rng{1}};
  std::vector<std::uint32_t> arrivals;
  net.attach(NodeId{1}, [](Envelope) {});
  net.attach(NodeId{2}, [](Envelope) {});
  net.attach(NodeId{9}, [&](Envelope e) { arrivals.push_back(e.from.value()); });
  // Higher-id sender sends first; key order must still deliver n1 first.
  sim.schedule_at(TimePoint::from_micros(100), [&] {
    net.send(NodeId{2}, NodeId{9}, std::make_unique<TestMsg>(0));
    net.send(NodeId{1}, NodeId{9}, std::make_unique<TestMsg>(0));
  });
  sim.run();
  EXPECT_EQ(arrivals, (std::vector<std::uint32_t>{1, 2}));
}

/// Records the scheduled delivery instant of every send.
struct DeliveryRecorder final : MessageTap {
  void on_message(NodeId, NodeId, const Message&, TimePoint,
                  TimePoint deliver, bool) override {
    deliver_at.push_back(deliver);
  }
  std::vector<TimePoint> deliver_at;
};

TEST(NetworkKeys, PerSenderKeysAndJitterFollowTheSendScript) {
  // A fixed interleaved send script. Each sender's jitter must be the
  // stream of the base RNG forked on its id, drawn in its own send order,
  // and its deliveries must be keyed by (sender, own send count), whatever
  // the other senders did in between and however large the ids are.
  const std::vector<std::pair<std::uint32_t, std::uint32_t>> script = {
      {3, 9}, {900, 3}, {3, 900}, {7, 3}, {900, 7}, {3, 7}, {7, 900}, {3, 9}};

  // Jitter: every send's delivery instant, read off a tap.
  {
    Simulator sim;
    Network net{sim, std::make_unique<GeoLatencyModel>(), Rng{5}};
    DeliveryRecorder tap;
    net.set_tap(&tap);
    for (const auto& [from, to] : script) {
      net.send(NodeId{from}, NodeId{to}, std::make_unique<TestMsg>(0));
    }
    ASSERT_EQ(tap.deliver_at.size(), script.size());
    std::map<std::uint32_t, Rng> jitter;
    GeoLatencyModel model;
    Rng base{5};
    for (std::size_t i = 0; i < script.size(); ++i) {
      const auto [from, to] = script[i];
      auto it = jitter.try_emplace(from, base.fork(from)).first;
      const Duration delay =
          model.latency(NodeId{from}, NodeId{to}, it->second);
      EXPECT_EQ(tap.deliver_at[i], TimePoint::origin() + delay) << i;
    }
  }

  // Keys: under a fixed latency every delivery lands at the same instant,
  // so handler order is key order — ascending sender id, then each
  // sender's own send order — not the interleaved schedule order.
  Simulator sim;
  Network net{sim, std::make_unique<FixedLatencyModel>(5_ms), Rng{5}};
  std::vector<std::pair<std::uint32_t, int>> arrivals;
  for (const std::uint32_t id : {3u, 7u, 9u, 900u}) {
    net.attach(NodeId{id}, [&](Envelope e) {
      arrivals.emplace_back(
          e.from.value(), static_cast<const TestMsg&>(*e.message).payload);
    });
  }
  for (std::size_t i = 0; i < script.size(); ++i) {
    const auto [from, to] = script[i];
    net.send(NodeId{from}, NodeId{to},
             std::make_unique<TestMsg>(static_cast<int>(i)));
  }
  sim.run();
  EXPECT_EQ(arrivals, (std::vector<std::pair<std::uint32_t, int>>{
                          {3, 0}, {3, 2}, {3, 5}, {3, 7},
                          {7, 3}, {7, 6}, {900, 1}, {900, 4}}));
}

TEST(NetworkStress, ThousandsOfMessagesDeliveredExactlyOnce) {
  Simulator sim;
  Network net{sim, std::make_unique<GeoLatencyModel>(), Rng{77}};
  constexpr std::uint32_t kNodes = 50;
  std::vector<int> received(kNodes, 0);
  for (std::uint32_t i = 0; i < kNodes; ++i) {
    net.attach(NodeId{i}, [&received, i](Envelope) { ++received[i]; });
  }
  Rng rng{78};
  constexpr int kMessages = 10000;
  std::vector<int> expected(kNodes, 0);
  for (int m = 0; m < kMessages; ++m) {
    const auto from = static_cast<std::uint32_t>(rng.uniform_int(0, kNodes - 1));
    const auto to = static_cast<std::uint32_t>(rng.uniform_int(0, kNodes - 1));
    ++expected[to];
    net.send(NodeId{from}, NodeId{to}, std::make_unique<TestMsg>(m));
  }
  sim.run();
  EXPECT_EQ(net.delivered_messages(), static_cast<std::uint64_t>(kMessages));
  EXPECT_EQ(net.dropped_messages(), 0u);
  for (std::uint32_t i = 0; i < kNodes; ++i) {
    EXPECT_EQ(received[i], expected[i]) << "node " << i;
  }
  EXPECT_EQ(net.traffic().of("TEST").messages,
            static_cast<std::uint64_t>(kMessages));
}

TEST(NetworkStress, JitteredLatencyCanReorderSamePairMessages) {
  // Documents why the protocol must tolerate reordering: per-message jitter
  // makes the network non-FIFO even between one pair of nodes.
  Simulator sim;
  Network net{sim, std::make_unique<GeoLatencyModel>(), Rng{79}};
  std::vector<int> order;
  net.attach(NodeId{2}, [&order](Envelope env) {
    order.push_back(dynamic_cast<const TestMsg&>(*env.message).payload);
  });
  for (int i = 0; i < 200; ++i) {
    net.send(NodeId{1}, NodeId{2}, std::make_unique<TestMsg>(i));
  }
  sim.run();
  ASSERT_EQ(order.size(), 200u);
  bool reordered = false;
  for (std::size_t i = 1; i < order.size(); ++i) {
    if (order[i] < order[i - 1]) reordered = true;
  }
  EXPECT_TRUE(reordered);
}

TEST(TrafficLedger, MergeAndClear) {
  TrafficLedger a, b;
  a.record("X", 10);
  b.record("X", 5);
  b.record("Y", 7);
  b.record_drop("Y");
  a.merge(b);
  EXPECT_EQ(a.of("X").messages, 2u);
  EXPECT_EQ(a.of("X").bytes, 15u);
  EXPECT_EQ(a.of("Y").bytes, 7u);
  EXPECT_EQ(a.drops("Y"), 1u);
  a.clear();
  EXPECT_EQ(a.total().messages, 0u);
  EXPECT_EQ(a.of("X").bytes, 0u);
}

}  // namespace
}  // namespace aria::sim
