// Point-to-point message transport over the simulator.
//
// The network knows nothing about the overlay topology: any node may send to
// any address it has learned (the paper's overlay "enables communication
// between any pair of nodes"). Topology constraints — who forwards to whom —
// live in the protocol layer. Every send is metered in a TrafficLedger;
// messages to unregistered or down nodes are dropped and counted.
//
// An optional FaultPlane (see sim/fault.hpp) can be attached to inject
// loss, duplication and latency spikes per message; without one — or with
// one whose master switch is off — the send path is exactly the historic
// fault-free path, down to the RNG draws.
#pragma once

#include <cassert>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <typeinfo>
#include <vector>

#include "common/ids.hpp"
#include "common/rng.hpp"
#include "sim/fault.hpp"
#include "sim/latency.hpp"
#include "sim/message_types.hpp"
#include "sim/simulator.hpp"
#include "sim/traffic.hpp"

namespace aria::sim {

/// Base class for everything that travels on the wire. `wire_size` feeds the
/// traffic ledger; `type_id` keys the per-type accounting (an interned
/// MessageTypeId — implementations register their name once, typically via
/// a function-local static, so the send path never builds a string).
class Message {
 public:
  virtual ~Message() = default;
  virtual std::size_t wire_size() const = 0;
  virtual MessageTypeId type_id() const = 0;

  /// Registered name of this type (report formatting only).
  const std::string& type_name() const {
    return MessageTypeRegistry::name(type_id());
  }

  /// Deep copy, used only by fault-plane duplication. The default makes a
  /// type non-clonable (never duplicated); copyable message types override
  /// with a one-line copy.
  virtual std::unique_ptr<Message> clone() const { return nullptr; }

  /// Remaining hop budget for flooded message types (REQUEST/INFORM);
  /// kNoHops for point-to-point messages. Lets a MessageTap record hop
  /// counts without downcasting per concrete type.
  static constexpr std::uint32_t kNoHops = UINT32_MAX;
  virtual std::uint32_t flood_hops_left() const { return kNoHops; }
};

/// Checked downcast by interned type id, the handler dispatch idiom:
/// returns `message` as an `M` when `type` (the message's type_id(), read
/// once by the caller) is `M::static_type()`, else null. One integer compare
/// instead of an RTTI walk; exact because every wire type interns its own
/// name and is final.
template <typename M>
const M* message_cast(const Message& message, MessageTypeId type) {
  if (type != M::static_type()) return nullptr;
  assert(typeid(message) == typeid(M));
  return static_cast<const M*>(&message);
}

/// Observer of sends, for the tracing plane (src/trace). Attached like the
/// FaultPlane — a non-owning pointer the network never dereferences unless
/// set — so the sim layer needs no dependency on the trace library and an
/// unattached tap leaves the send path exactly as it was.
class MessageTap {
 public:
  virtual ~MessageTap() = default;

  /// One sampled send. `deliver` is the scheduled delivery instant (the
  /// latency draw happens at send time, so it is known here); for messages
  /// the fault plane dropped, `faulted` is true and `deliver == sent`.
  /// Must not send messages or mutate simulation state.
  virtual void on_message(NodeId from, NodeId to, const Message& message,
                          TimePoint sent, TimePoint deliver, bool faulted) = 0;
};

struct Envelope {
  NodeId from;
  NodeId to;
  std::unique_ptr<Message> message;
};

class Network {
 public:
  using Handler = std::function<void(Envelope)>;

  Network(Simulator& sim, std::unique_ptr<LatencyModel> latency, Rng rng)
      : sim_{sim}, latency_{std::move(latency)}, base_rng_{rng} {
    assert(latency_);
  }

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Attaches a node; replaces any previous handler for the same id.
  void attach(NodeId node, Handler handler) {
    assert(node.valid() && handler);
    if (node.index() >= nodes_.size()) nodes_.resize(node.index() + 1);
    nodes_[node.index()] = NodeState{std::move(handler), /*up=*/true};
  }

  void detach(NodeId node) {
    if (node.index() < nodes_.size()) nodes_[node.index()] = NodeState{};
  }

  /// Simulates a crash/recovery: down nodes silently drop incoming traffic.
  void set_up(NodeId node, bool up) {
    if (is_attached(node)) nodes_[node.index()].up = up;
  }

  bool is_attached(NodeId node) const {
    return node.index() < nodes_.size() &&
           static_cast<bool>(nodes_[node.index()].handler);
  }
  bool is_up(NodeId node) const {
    return is_attached(node) && nodes_[node.index()].up;
  }

  /// Sends `message` from `from` to `to`; delivery happens after the
  /// latency-model delay. The send is metered immediately (the bytes hit the
  /// wire even if the destination is down at delivery time).
  void send(NodeId from, NodeId to, std::unique_ptr<Message> message);

  /// Attaches a fault plane (non-owning; must outlive the network). Null or
  /// an inactive plane leaves the send path byte-identical to fault-free.
  void set_fault_plane(FaultPlane* plane) { faults_ = plane; }
  FaultPlane* fault_plane() const { return faults_; }

  /// Attaches a message tap (non-owning; must outlive the network); the tap
  /// sees every `sample_every`-th send, counted deterministically — no RNG
  /// draws, so attaching a tap never perturbs the simulation. Null detaches.
  void set_tap(MessageTap* tap, std::uint64_t sample_every = 1) {
    tap_ = tap;
    tap_every_ = sample_every == 0 ? 1 : sample_every;
    tap_counter_ = 0;
  }
  MessageTap* tap() const { return tap_; }

  /// Enables the intra/cross-region traffic split: with `regions` > 1 every
  /// send is classified by the sender's and receiver's region (id mod
  /// regions — the same stateless partition overlay::region_of uses; the
  /// modulo is inlined here so the sim layer needs no overlay dependency).
  /// 0 (the default) disables the split entirely — not even the modulo runs,
  /// keeping non-hierarchical sends on the exact historic path.
  void set_region_count(std::size_t regions) { region_count_ = regions; }

  std::uint64_t intra_region_messages() const { return intra_region_messages_; }
  std::uint64_t cross_region_messages() const { return cross_region_messages_; }
  std::uint64_t intra_region_bytes() const { return intra_region_bytes_; }
  std::uint64_t cross_region_bytes() const { return cross_region_bytes_; }

  TrafficLedger& traffic() { return traffic_; }
  const TrafficLedger& traffic() const { return traffic_; }

  std::uint64_t sent_messages() const { return sent_; }
  std::uint64_t delivered_messages() const { return delivered_; }
  /// Organic failures only: destination unknown or down at delivery time.
  std::uint64_t dropped_messages() const { return dropped_; }
  /// Fault-plane injections: random loss + partition blocking.
  std::uint64_t faulted_messages() const { return faulted_; }
  /// Extra deliveries injected by fault-plane duplication.
  std::uint64_t duplicated_messages() const { return duplicated_; }

 private:
  /// An empty handler marks an unattached slot.
  struct NodeState {
    Handler handler;
    bool up{false};
  };

  void schedule_delivery(NodeId from, NodeId to, MessageTypeId type,
                         Duration delay, std::unique_ptr<Message> message);

  /// Same-instant delivery ordering key: (sender, per-sender delivery
  /// count), packed so keys from different senders never collide and a
  /// sender's deliveries keep their send order. The counter advances once
  /// per scheduled delivery, so the key is a pure function of the sender's
  /// own send history (docs/kernel.md "Determinism contract"). The +1 keeps
  /// every delivery key above 0, the key timers and engine events schedule
  /// with.
  std::uint64_t next_delivery_key(NodeId from) {
    if (from.index() >= delivery_seq_.size()) {
      delivery_seq_.resize(from.index() + 1, 0);
    }
    return ((static_cast<std::uint64_t>(from.value()) + 1) << 32) |
           (delivery_seq_[from.index()]++ & 0xFFFFFFFFull);
  }

  /// Latency jitter is drawn from a per-sender stream (base_rng_ forked on
  /// the sender id, cached lazily) rather than one shared stream, so the
  /// draw sequence a sender sees is a function of that sender's own send
  /// order only, not of the global interleaving of all senders
  /// (docs/kernel.md "Determinism contract").
  Rng& jitter_rng(NodeId from) {
    if (from.index() >= sender_rng_.size()) {
      sender_rng_.resize(from.index() + 1);
    }
    std::optional<Rng>& rng = sender_rng_[from.index()];
    if (!rng) rng.emplace(base_rng_.fork(from.value()));
    return *rng;
  }

  /// Sampling gate + forward to the tap; called only when tap_ != nullptr.
  void tap_message(NodeId from, NodeId to, const Message& message,
                   TimePoint deliver, bool faulted) {
    if (tap_counter_++ % tap_every_ != 0) return;
    tap_->on_message(from, to, message, sim_.now(), deliver, faulted);
  }

  Simulator& sim_;
  std::unique_ptr<LatencyModel> latency_;
  Rng base_rng_;
  // The per-node tables (sender_rng_, delivery_seq_, nodes_) are dense
  // vectors indexed by NodeId::index() (ids are small engine-assigned
  // integers), so the per-message path does no hashing. They grow on
  // attach() and on the first send from an id, which covers nodes that join
  // mid-run.
  std::vector<std::optional<Rng>> sender_rng_;
  std::vector<std::uint64_t> delivery_seq_;
  TrafficLedger traffic_;
  FaultPlane* faults_{nullptr};
  MessageTap* tap_{nullptr};
  std::uint64_t tap_every_{1};
  std::uint64_t tap_counter_{0};
  std::vector<NodeState> nodes_;
  std::size_t region_count_{0};
  std::uint64_t intra_region_messages_{0};
  std::uint64_t cross_region_messages_{0};
  std::uint64_t intra_region_bytes_{0};
  std::uint64_t cross_region_bytes_{0};
  std::uint64_t sent_{0};
  std::uint64_t delivered_{0};
  std::uint64_t dropped_{0};
  std::uint64_t faulted_{0};
  std::uint64_t duplicated_{0};
};

}  // namespace aria::sim
