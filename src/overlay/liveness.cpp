#include "overlay/liveness.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace aria::overlay {

std::vector<NeighborView::Entry>::const_iterator NeighborView::lower(
    NodeId peer) const {
  return std::lower_bound(
      peers_.begin(), peers_.end(), peer,
      [](const Entry& e, NodeId id) { return e.id < id; });
}

const NeighborView::Peer* NeighborView::find(NodeId peer) const {
  const auto it = lower(peer);
  return it != peers_.end() && it->id == peer ? &it->peer : nullptr;
}

NeighborView::Peer* NeighborView::find(NodeId peer) {
  return const_cast<Peer*>(std::as_const(*this).find(peer));
}

void NeighborView::track(NodeId peer) {
  assert(peer.valid());
  Peer* p = find(peer);
  if (p == nullptr) p = &peers_.insert(lower(peer), Entry{peer, Peer{}})->peer;
  p->state = PeerState::kLive;
  p->missed = 0;
  p->outstanding = false;
  // A revived peer is a neighbor again; it no longer belongs in the
  // candidate cache.
  contacts_.erase(std::remove(contacts_.begin(), contacts_.end(), peer),
                  contacts_.end());
}

void NeighborView::untrack(NodeId peer) {
  const auto it = lower(peer);
  if (it != peers_.end() && it->id == peer) peers_.erase(it);
}

bool NeighborView::tracked(NodeId peer) const { return find(peer) != nullptr; }

PeerState NeighborView::state(NodeId peer) const {
  const Peer* p = find(peer);
  return p == nullptr ? PeerState::kEvicted : p->state;
}

void NeighborView::tracked_peers(std::vector<NodeId>& out) const {
  out.clear();
  for (const Entry& e : peers_) out.push_back(e.id);
}

void NeighborView::targets(std::vector<NodeId>& out) const {
  out.clear();
  for (const Entry& e : peers_) {
    if (e.peer.state != PeerState::kEvicted) out.push_back(e.id);
  }
}

void NeighborView::live_neighbors(std::vector<NodeId>& out) const {
  out.clear();
  for (const Entry& e : peers_) {
    if (e.peer.state == PeerState::kLive) out.push_back(e.id);
  }
}

std::size_t NeighborView::live_degree() const {
  return static_cast<std::size_t>(
      std::count_if(peers_.begin(), peers_.end(), [](const Entry& e) {
        return e.peer.state == PeerState::kLive;
      }));
}

void NeighborView::probe_sent(NodeId peer, std::uint32_t seq) {
  Peer* p = find(peer);
  if (p == nullptr) return;
  p->outstanding = true;
  p->probe_seq = seq;
}

bool NeighborView::outstanding(NodeId peer) const {
  const Peer* p = find(peer);
  return p != nullptr && p->outstanding;
}

NeighborView::Transition NeighborView::record_miss(
    NodeId peer, const HealingParams& params) {
  Peer* found = find(peer);
  if (found == nullptr) return Transition::kNone;
  Peer& p = *found;
  p.outstanding = false;
  ++p.missed;
  if (p.missed >= params.evict_after) {
    p.state = PeerState::kEvicted;
    ++stats_.evictions;
    return Transition::kEvicted;
  }
  if (p.missed >= params.suspect_after && p.state == PeerState::kLive) {
    p.state = PeerState::kSuspected;
    return Transition::kSuspected;
  }
  return Transition::kNone;
}

void NeighborView::pong_received(NodeId peer, std::uint32_t seq) {
  Peer* found = find(peer);
  if (found == nullptr) return;
  Peer& p = *found;
  // A straggler from an older round says nothing about the current probe.
  if (!p.outstanding || p.probe_seq != seq) return;
  p.outstanding = false;
  p.missed = 0;
  if (p.state == PeerState::kSuspected) {
    ++stats_.false_suspicions;
    p.state = PeerState::kLive;
  }
}

void NeighborView::learn_contact(NodeId contact, NodeId self,
                                 std::size_t cache_bound) {
  if (!contact.valid() || contact == self) return;
  if (tracked(contact)) return;
  if (std::find(contacts_.begin(), contacts_.end(), contact) !=
      contacts_.end()) {
    return;
  }
  contacts_.push_back(contact);
  if (contacts_.size() > cache_bound) {
    contacts_.erase(contacts_.begin());  // FIFO: oldest knowledge goes first
  }
}

NodeId NeighborView::take_contact() {
  while (!contacts_.empty()) {
    const NodeId c = contacts_.front();
    contacts_.erase(contacts_.begin());
    if (!tracked(c)) return c;
  }
  return kInvalidNode;
}

void NeighborView::clear() {
  peers_.clear();
  contacts_.clear();
}

}  // namespace aria::overlay
