#include "sim/simulator.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace aria::sim {

namespace {
// 4-ary beats binary here: the heap holds 32-byte PODs, so one cache line
// covers a parent's whole child group and the shallower tree wins on sift
// depth.
constexpr std::size_t kArity = 4;
}  // namespace

// ---------------------------------------------------------------------------
// Slab
// ---------------------------------------------------------------------------

std::uint32_t Simulator::alloc_slot() {
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void Simulator::free_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.fn.reset();
  s.periodic = false;
  s.in_heap = false;
  ++s.generation;  // invalidates every outstanding handle and heap entry
  free_slots_.push_back(slot);
}

void Simulator::cancel(std::uint32_t slot, std::uint32_t generation) {
  if (slot >= slots_.size()) return;
  Slot& s = slots_[slot];
  if (s.generation != generation) return;  // already fired or cancelled
  const bool orphans_heap_entry = s.in_heap;
  // A periodic event cancelled from inside its own callback has no heap
  // entry (it was popped for dispatch); freeing the slot here is what stops
  // the re-arm.
  free_slot(slot);
  if (orphans_heap_entry) {
    ++cancelled_pending_;
    maybe_compact();
  }
}

void Simulator::clear() {
  // Freeing every slot also bumps the generation of a periodic slot whose
  // callback is running right now (its heap entry is already popped), so
  // step() sees the mismatch and does not re-arm it. Slots are pushed in
  // descending order so reuse starts from slot 0 again.
  heap_.clear();
  cancelled_pending_ = 0;
  free_slots_.clear();
  for (std::size_t i = slots_.size(); i-- > 0;) {
    free_slot(static_cast<std::uint32_t>(i));
  }
}

// ---------------------------------------------------------------------------
// 4-ary heap over (at, key, seq)
// ---------------------------------------------------------------------------

void Simulator::heap_push(HeapEntry entry) {
  heap_.push_back(entry);
  std::size_t i = heap_.size() - 1;
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!earlier(heap_[i], heap_[parent])) break;
    std::swap(heap_[i], heap_[parent]);
    i = parent;
  }
}

void Simulator::sift_down(std::size_t i) {
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first_child = i * kArity + 1;
    if (first_child >= n) return;
    std::size_t best = first_child;
    const std::size_t last_child = std::min(first_child + kArity, n);
    for (std::size_t c = first_child + 1; c < last_child; ++c) {
      if (earlier(heap_[c], heap_[best])) best = c;
    }
    if (!earlier(heap_[best], heap_[i])) return;
    std::swap(heap_[i], heap_[best]);
    i = best;
  }
}

void Simulator::heap_pop_front() {
  assert(!heap_.empty());
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);
}

void Simulator::maybe_compact() {
  if (cancelled_pending_ < kCompactMinDead ||
      cancelled_pending_ * 2 < heap_.size()) {
    return;
  }
  std::erase_if(heap_, [this](const HeapEntry& e) { return !slot_live(e); });
  // Rebuild: sift down every internal node, deepest first.
  if (heap_.size() > 1) {
    for (std::size_t i = (heap_.size() - 2) / kArity + 1; i-- > 0;) {
      sift_down(i);
    }
  }
  cancelled_pending_ = 0;
  ++compactions_;
}

// ---------------------------------------------------------------------------
// Scheduling
// ---------------------------------------------------------------------------

EventHandle Simulator::schedule_at(TimePoint at, Callback fn) {
  return schedule_at_keyed(at, 0, std::move(fn));
}

EventHandle Simulator::schedule_at_keyed(TimePoint at, std::uint64_t key,
                                         Callback fn) {
  assert(fn);
  if (at < now_) at = now_;  // never schedule into the past
  const std::uint32_t slot = alloc_slot();
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  s.in_heap = true;
  const std::uint32_t generation = s.generation;
  heap_push(HeapEntry{at, key, next_seq_++, slot, generation});
  return EventHandle{this, slot, generation};
}

EventHandle Simulator::schedule_after(Duration delay, Callback fn) {
  if (delay.is_negative()) delay = Duration::zero();
  return schedule_at(now_ + delay, std::move(fn));
}

EventHandle Simulator::schedule_periodic(Duration phase, Duration period,
                                         Callback fn) {
  assert(period > Duration::zero());
  if (phase.is_negative()) phase = Duration::zero();
  const std::uint32_t slot = alloc_slot();
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  s.periodic = true;
  s.period = period;
  s.in_heap = true;
  const std::uint32_t generation = s.generation;
  heap_push(HeapEntry{now_ + phase, 0, next_seq_++, slot, generation});
  return EventHandle{this, slot, generation};
}

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

std::optional<TimePoint> Simulator::peek() {
  while (!heap_.empty()) {
    if (slot_live(heap_.front())) return heap_.front().at;
    heap_pop_front();
    --cancelled_pending_;
  }
  return std::nullopt;
}

bool Simulator::step() {
  for (;;) {
    if (heap_.empty()) return false;
    const HeapEntry top = heap_.front();
    heap_pop_front();
    if (!slot_live(top)) {  // cancelled: lazy skip
      --cancelled_pending_;
      continue;
    }
    slots_[top.slot].in_heap = false;
    now_ = top.at;
    ++fired_;
    if (slots_[top.slot].periodic) {
      // The callback runs outside its slot: it may cancel its own handle
      // (which frees the slot) or schedule events that grow the slab.
      Callback fn = std::move(slots_[top.slot].fn);
      fn();
      Slot& s = slots_[top.slot];  // re-acquire: the slab may have grown
      if (s.generation == top.generation) {
        s.fn = std::move(fn);
        s.in_heap = true;
        heap_push(HeapEntry{now_ + s.period, 0, next_seq_++, top.slot,
                            top.generation});
      }
    } else {
      // Free before invoking: one-shot slots recycle even when the callback
      // schedules new events (the generation bump keeps handles inert).
      Callback fn = std::move(slots_[top.slot].fn);
      free_slot(top.slot);
      fn();
    }
    return true;
  }
}

std::uint64_t Simulator::run() {
  stop_requested_ = false;
  std::uint64_t n = 0;
  while (!stop_requested_ && step()) ++n;
  return n;
}

std::uint64_t Simulator::run_until(TimePoint deadline) {
  stop_requested_ = false;
  std::uint64_t n = 0;
  while (!stop_requested_) {
    const std::optional<TimePoint> next = peek();
    if (!next || *next > deadline) break;  // no pop + push-back round trip
    step();
    ++n;
  }
  if (now_ < deadline) now_ = deadline;
  return n;
}

}  // namespace aria::sim
