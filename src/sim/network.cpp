#include "sim/network.hpp"

#include <utility>

namespace aria::sim {

void Network::schedule_delivery(NodeId from, NodeId to, MessageTypeId type,
                                Duration delay,
                                std::unique_ptr<Message> message) {
  // The message moves straight into the delivery closure (UniqueCallback is
  // move-only, so no shared_ptr shim and no extra allocation).
  sim_.schedule_at_keyed(
      sim_.now() + delay, next_delivery_key(from),
      [this, from, to, type, msg = std::move(message)]() mutable {
        if (!is_up(to)) {
          ++dropped_;
          traffic_.record_drop(type);
          return;
        }
        ++delivered_;
        nodes_[to.index()].handler(Envelope{from, to, std::move(msg)});
      });
}

void Network::send(NodeId from, NodeId to, std::unique_ptr<Message> message) {
  assert(message);
  assert(from.valid() && to.valid());
  const MessageTypeId type = message->type_id();
  const std::size_t bytes = message->wire_size();
  traffic_.record(type, bytes);
  ++sent_;
  if (region_count_ > 1) {
    if (from.value() % region_count_ == to.value() % region_count_) {
      ++intra_region_messages_;
      intra_region_bytes_ += bytes;
    } else {
      ++cross_region_messages_;
      cross_region_bytes_ += bytes;
    }
  }

  // Fault injection: one cheap null/flag test on the fault-free path; all
  // fault RNG draws happen on a dedicated stream inside the plane, so the
  // latency RNG below never shifts when faults are disabled.
  if (faults_ != nullptr && faults_->active()) {
    const FaultPlane::Verdict v = faults_->on_send(from, to, type, sim_.now());
    if (v.drop) {
      ++faulted_;
      traffic_.record_fault(type);
      if (tap_ != nullptr) {
        tap_message(from, to, *message, sim_.now(), /*faulted=*/true);
      }
      return;
    }
    const Duration delay =
        latency_->latency(from, to, jitter_rng(from)) + v.extra_delay;
    if (v.duplicate) {
      if (auto copy = message->clone()) {
        ++duplicated_;
        schedule_delivery(from, to, type, delay + v.duplicate_lag,
                          std::move(copy));
      }
    }
    if (tap_ != nullptr) {
      // One tap per logical send: an injected duplicate is the same message
      // on the wire twice, and the trace records the primary delivery.
      tap_message(from, to, *message, sim_.now() + delay, /*faulted=*/false);
    }
    schedule_delivery(from, to, type, delay, std::move(message));
    return;
  }

  const Duration delay = latency_->latency(from, to, jitter_rng(from));
  if (tap_ != nullptr) {
    tap_message(from, to, *message, sim_.now() + delay, /*faulted=*/false);
  }
  schedule_delivery(from, to, type, delay, std::move(message));
}

}  // namespace aria::sim
