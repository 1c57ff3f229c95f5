// Deterministic discrete-event simulation kernel.
//
// Events are (time, key, sequence) ordered: two events at the same instant
// fire in key order, then scheduling order, which makes whole runs
// bit-reproducible. The key defaults to 0; message deliveries pass an
// explicit (sender, per-sender seq) key via schedule_at_keyed so that
// same-instant deliveries fire in an order independent of *when* each one
// was scheduled (docs/kernel.md "Determinism contract").
//
// Storage layout (see docs/kernel.md for the full design):
//   - Event records live in a slab (std::vector<Slot>) with a free list;
//     after warm-up, scheduling allocates nothing beyond what the closure
//     itself needs (small closures are stored inline in the slot).
//   - The ready queue is a 4-ary heap of 32-byte PODs {time, key, seq,
//     slot, generation} — sift swaps move four words, never a closure.
//   - EventHandle is a POD {simulator, slot, generation} triple. Cancelling
//     frees the slot immediately (bumping the generation so the handle and
//     any stale heap entry are recognized as dead) and counts the orphaned
//     heap entry in cancelled_pending(); when dead entries dominate the
//     heap, it is compacted in one pass.
//   - Periodic events re-arm by recycling their slot: one heap push per
//     tick, zero allocation.
//
// Lifetime: an EventHandle must not be used after its Simulator is
// destroyed (a default-constructed handle is always inert). Every component
// in this codebase destroys nodes/timers before the simulator.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/time.hpp"
#include "sim/callback.hpp"

namespace aria::sim {

class Simulator;

/// Handle to a scheduled event; cheap to copy. cancel() is idempotent and a
/// no-op once the event fired; for periodic events it stops the series.
class EventHandle {
 public:
  EventHandle() = default;

  /// Prevents the event from firing; idempotent.
  void cancel();

  /// True while the event is still scheduled and not cancelled.
  bool pending() const;

 private:
  friend class Simulator;
  EventHandle(Simulator* sim, std::uint32_t slot, std::uint32_t generation)
      : sim_{sim}, slot_{slot}, generation_{generation} {}

  Simulator* sim_{nullptr};
  std::uint32_t slot_{0};
  std::uint32_t generation_{0};
};

class Simulator {
 public:
  using Callback = UniqueCallback;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  TimePoint now() const { return now_; }

  /// Schedules `fn` at absolute time `at`; `at` must not precede now().
  EventHandle schedule_at(TimePoint at, Callback fn);

  /// Like schedule_at, but with an explicit same-instant ordering key:
  /// events at equal times fire in ascending key order (ties by scheduling
  /// order). Key 0 — what schedule_at uses — sorts before every nonzero
  /// key, so timers and engine-plane events keep firing ahead of
  /// same-instant deliveries. The Network keys deliveries by
  /// (sender, per-sender wire seq), making same-instant delivery order a
  /// pure function of message identity (docs/kernel.md "Determinism
  /// contract").
  EventHandle schedule_at_keyed(TimePoint at, std::uint64_t key, Callback fn);

  /// Schedules `fn` after `delay` (clamped to zero if negative).
  EventHandle schedule_after(Duration delay, Callback fn);

  /// Schedules `fn` every `period` starting at now() + `phase`. The callback
  /// keeps firing until the returned handle is cancelled or the run ends.
  EventHandle schedule_periodic(Duration phase, Duration period, Callback fn);

  /// Runs until the queue drains. Returns the number of events fired.
  std::uint64_t run();

  /// Runs until the queue drains or simulated time would pass `deadline`;
  /// the clock is then left at `deadline`. Events scheduled exactly at
  /// `deadline` do fire.
  std::uint64_t run_until(TimePoint deadline);

  /// Fires at most one event. Returns false if the queue was empty.
  bool step();

  /// Time of the next live event without firing it (prunes dead heap tops
  /// as a side effect), or nullopt when the queue is drained.
  std::optional<TimePoint> peek();

  /// Requests run()/run_until() to return after the current event.
  void stop() { stop_requested_ = true; }

  /// Discards every pending event: the agenda is empty afterwards, so
  /// peek() returns nullopt and any driving loop ends on its own. Every
  /// outstanding EventHandle goes inert, and a periodic event that is being
  /// dispatched is not re-armed. The clock stays where it is.
  void clear();

  /// Live (not cancelled) scheduled events.
  std::size_t pending_events() const {
    return heap_.size() - static_cast<std::size_t>(cancelled_pending_);
  }
  std::uint64_t fired_events() const { return fired_; }

  // --- introspection (tests, docs/kernel.md invariants) -----------------
  /// Dead heap entries awaiting lazy skip or compaction.
  std::uint64_t cancelled_pending() const { return cancelled_pending_; }
  /// Times the heap was rebuilt to shed dead entries.
  std::uint64_t compactions() const { return compactions_; }
  /// Event-record slots ever allocated (slab high-water mark).
  std::size_t slab_slots() const { return slots_.size(); }

 private:
  friend class EventHandle;

  struct Slot {
    Callback fn;
    std::uint32_t generation{0};
    bool periodic{false};
    /// A heap entry for the current generation exists (false while the
    /// event is being dispatched).
    bool in_heap{false};
    Duration period{};
  };

  /// 32-byte POD the heap orders by (at, key, seq).
  struct HeapEntry {
    TimePoint at;
    std::uint64_t key;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t generation;
  };

  static bool earlier(const HeapEntry& a, const HeapEntry& b) {
    if (a.at != b.at) return a.at < b.at;
    if (a.key != b.key) return a.key < b.key;
    return a.seq < b.seq;
  }

  // Compaction triggers when at least kCompactMinDead dead entries make up
  // half the heap; the rebuild is O(n) and amortizes to O(1) per cancel.
  static constexpr std::uint64_t kCompactMinDead = 64;

  bool slot_live(const HeapEntry& e) const {
    return slots_[e.slot].generation == e.generation;
  }

  std::uint32_t alloc_slot();
  void free_slot(std::uint32_t slot);
  void cancel(std::uint32_t slot, std::uint32_t generation);
  bool is_pending(std::uint32_t slot, std::uint32_t generation) const {
    return slot < slots_.size() && slots_[slot].generation == generation;
  }

  void heap_push(HeapEntry entry);
  void heap_pop_front();
  void sift_down(std::size_t i);
  void maybe_compact();

  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<HeapEntry> heap_;
  TimePoint now_{};
  std::uint64_t next_seq_{0};
  std::uint64_t fired_{0};
  std::uint64_t cancelled_pending_{0};
  std::uint64_t compactions_{0};
  bool stop_requested_{false};
};

inline void EventHandle::cancel() {
  if (sim_ != nullptr) sim_->cancel(slot_, generation_);
}

inline bool EventHandle::pending() const {
  return sim_ != nullptr && sim_->is_pending(slot_, generation_);
}

}  // namespace aria::sim
