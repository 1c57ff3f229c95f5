#include "core/tracker.hpp"

namespace aria::proto {
namespace {

bool was_assigned(const JobRecord& r, NodeId node) {
  for (const auto& [assignee, at] : r.assignments) {
    if (assignee == node) return true;
  }
  return false;
}

}  // namespace

JobRecord* JobTracker::must_find(const JobId& id, const char* context) {
  auto it = records_.find(id);
  if (it == records_.end()) {
    violations_.push_back(std::string{context} + " for unknown job " +
                          id.to_string());
    return nullptr;
  }
  return &it->second;
}

void JobTracker::note_terminal(bool was_terminal, const JobRecord& r) {
  if (!was_terminal && r.terminal()) ++terminal_;
}

void JobTracker::on_submitted(const grid::JobSpec& job, NodeId initiator,
                              TimePoint at) {
  auto [it, inserted] = records_.try_emplace(job.id);
  if (!inserted) {
    violations_.push_back("job " + job.id.to_string() + " submitted twice");
    return;
  }
  it->second.spec = job;
  it->second.initiator = initiator;
  it->second.submitted = at;
}

void JobTracker::on_request_retry(const JobId& id, std::size_t, TimePoint) {
  if (JobRecord* r = must_find(id, "retry")) ++r->retries;
}

void JobTracker::on_unschedulable(const JobId& id, TimePoint) {
  if (JobRecord* r = must_find(id, "unschedulable")) {
    const bool was_terminal = r->terminal();
    r->unschedulable = true;
    ++unschedulable_;
    note_terminal(was_terminal, *r);
  }
}

void JobTracker::on_assigned(const grid::JobSpec& job, NodeId node,
                             TimePoint at, bool reschedule) {
  JobRecord* r = must_find(job.id, "assignment");
  if (r == nullptr) return;
  // A job that has undergone a recovery is tracked with at-least-once
  // semantics for the rest of its life: the presumed-dead assignee may have
  // been alive all along (only its ACKs/NOTIFYs were lost) and race the
  // recovery round, so re-assignment after a start is legitimate there.
  if (r->started && r->recoveries == 0) {
    violations_.push_back("job " + job.id.to_string() +
                          " assigned after execution started");
  }
  if (r->recoveries == 0 && reschedule != !r->assignments.empty()) {
    violations_.push_back("job " + job.id.to_string() +
                          " reschedule flag inconsistent with history");
  }
  if (reschedule) ++reschedules_;
  r->assignments.emplace_back(node, at);
}

void JobTracker::on_started(const JobId& id, NodeId node, TimePoint at) {
  JobRecord* r = must_find(id, "start");
  if (r == nullptr) return;
  if (r->started && r->recoveries == 0) {
    violations_.push_back("job " + id.to_string() + " started twice");
    return;
  }
  // Normally only the latest assignee may start the job; after a recovery
  // any node it was ever assigned to may (the original assignee races the
  // recovery assignee — at-least-once).
  const bool assigned_here =
      r->recoveries > 0
          ? was_assigned(*r, node)
          : !r->assignments.empty() && r->assignments.back().first == node;
  if (!assigned_here) {
    violations_.push_back("job " + id.to_string() +
                          " started on a node it was not assigned to");
  }
  if (!r->started) r->started = at;
  r->executor = node;
  ++r->executions;
}

void JobTracker::on_completed(const JobId& id, NodeId node, TimePoint at,
                              Duration art) {
  JobRecord* r = must_find(id, "completion");
  if (r == nullptr) return;
  if (!r->started) {
    violations_.push_back("job " + id.to_string() +
                          " completed without starting");
    return;
  }
  if (r->completed) {
    // After a failsafe recovery the job runs at-least-once: if the original
    // assignee was alive all along (only its NOTIFYs were lost), both the
    // original and the recovered execution legitimately complete. The first
    // completion wins; replays are dropped silently.
    if (r->recoveries == 0) {
      violations_.push_back("job " + id.to_string() + " completed twice");
    }
    return;
  }
  if (r->executor != node) {
    if (r->recoveries > 0 && was_assigned(*r, node)) {
      // The racing execution finished first; record the actual winner.
      r->executor = node;
    } else {
      violations_.push_back("job " + id.to_string() +
                            " completed on a different node than it started");
    }
  }
  const bool was_terminal = r->terminal();
  r->completed = at;
  r->art = art;
  ++completed_;
  note_terminal(was_terminal, *r);
}

void JobTracker::on_recovery(const JobId& id, std::size_t, TimePoint) {
  if (JobRecord* r = must_find(id, "recovery")) {
    ++r->recoveries;
    ++recoveries_;
  }
}

void JobTracker::on_abandoned(const JobId& id, TimePoint) {
  JobRecord* r = must_find(id, "abandonment");
  if (r == nullptr) return;
  if (r->done()) {
    violations_.push_back("job " + id.to_string() +
                          " abandoned after completing");
    return;
  }
  if (!r->abandoned) {
    const bool was_terminal = r->terminal();
    r->abandoned = true;
    ++abandoned_;
    note_terminal(was_terminal, *r);
  }
}

void JobTracker::on_shed(const grid::JobSpec& job, NodeId, TimePoint) {
  if (JobRecord* r = must_find(job.id, "shed")) {
    ++r->sheds;
    ++sheds_;
  }
}

void JobTracker::on_rejected(const JobId& id, NodeId, TimePoint) {
  if (JobRecord* r = must_find(id, "rejection")) {
    ++r->rejects;
    ++rejects_;
  }
}

std::size_t JobTracker::rejected_incomplete_count() const {
  std::size_t n = 0;
  for (const auto& [id, r] : records_) {
    if (r.rejects > 0 && !r.done()) ++n;
  }
  return n;
}

const JobRecord* JobTracker::find(const JobId& id) const {
  auto it = records_.find(id);
  return it == records_.end() ? nullptr : &it->second;
}

}  // namespace aria::proto
