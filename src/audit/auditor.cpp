#include "audit/auditor.hpp"

#include <algorithm>
#include <cmath>

#include "core/messages.hpp"

namespace aria::audit {

namespace {

/// Population of region `r` under the arithmetic partition n % R (the
/// overlay's region_of): node_count / R rounded up for the low regions.
std::size_t region_population(std::size_t node_count, std::uint32_t regions,
                              std::uint32_t r) {
  if (regions == 0) return 0;
  return node_count / regions + (r < node_count % regions ? 1 : 0);
}

}  // namespace

AuditCollector::AuditCollector(const AuditConfig& config, AuditContext ctx,
                               proto::ProtocolObserver* next)
    : config_{config}, ctx_{ctx}, next_{next} {}

void AuditCollector::set_forward_tap(sim::MessageTap* tap,
                                     std::uint64_t sample_every) {
  fwd_tap_ = tap;
  fwd_every_ = sample_every == 0 ? 1 : sample_every;
  fwd_counter_ = 0;
}

void AuditCollector::violate(std::string kind, std::string detail,
                             TimePoint at) {
  ++violation_count_;
  ++by_kind_[kind];
  if (violations_.size() < config_.max_recorded) {
    violations_.push_back(
        Violation{std::move(kind), std::move(detail), at});
  }
}

AuditCollector::JobAudit& AuditCollector::touch(const JobId& id,
                                                TimePoint at) {
  JobAudit& j = jobs_[id];
  j.last_event = at;
  j.pending_delegation.reset();  // the escalation produced *some* signal
  return j;
}

bool AuditCollector::offer_known(const JobAudit& j, NodeId collector,
                                 NodeId bidder) const {
  return std::find(j.offers.begin(), j.offers.end(),
                   std::make_pair(collector, bidder)) != j.offers.end();
}

// --- observer forwarding + online checks -----------------------------------

void AuditCollector::on_submitted(const grid::JobSpec& job, NodeId initiator,
                                  TimePoint at) {
  if (next_) next_->on_submitted(job, initiator, at);
  touch(job.id, at);
}

void AuditCollector::on_request_retry(const JobId& id, std::size_t attempt,
                                      TimePoint at) {
  if (next_) next_->on_request_retry(id, attempt, at);
  touch(id, at);
}

void AuditCollector::on_unschedulable(const JobId& id, TimePoint at) {
  if (next_) next_->on_unschedulable(id, at);
  touch(id, at).terminal = true;
}

void AuditCollector::on_bid_sent(const JobId& id, NodeId bidder, NodeId to,
                                 double cost, TimePoint at) {
  if (next_) next_->on_bid_sent(id, bidder, to, cost, at);
  touch(id, at);
}

void AuditCollector::on_bid_received(const JobId& id, NodeId collector,
                                     NodeId bidder, double cost,
                                     TimePoint at) {
  if (next_) next_->on_bid_received(id, collector, bidder, cost, at);
  JobAudit& j = touch(id, at);
  if (!offer_known(j, collector, bidder)) {
    j.offers.emplace_back(collector, bidder);
  }
}

void AuditCollector::on_delegated(const JobId& id, NodeId from, NodeId to,
                                  TimePoint at, bool reschedule) {
  if (next_) next_->on_delegated(id, from, to, at, reschedule);
  JobAudit& j = touch(id, at);
  // No ASSIGN without a matching ACCEPT: the delegator must have collected
  // an offer from the chosen assignee in some earlier round. Crashes wipe a
  // node's round state but not the audit record, so the check is a strict
  // superset of what any live delegator could legitimately know.
  if (!offer_known(j, from, to)) {
    violate("assign-without-accept",
            "job " + id.to_string() + ": " + from.to_string() +
                " delegated to " + to.to_string() +
                " which never offered to it",
            at);
  }
}

void AuditCollector::on_assigned(const grid::JobSpec& job, NodeId node,
                                 TimePoint at, bool reschedule) {
  if (next_) next_->on_assigned(job, node, at, reschedule);
  touch(job.id, at);
}

void AuditCollector::on_started(const JobId& id, NodeId node, TimePoint at) {
  if (next_) next_->on_started(id, node, at);
  touch(id, at);
}

void AuditCollector::on_completed(const JobId& id, NodeId node, TimePoint at,
                                  Duration art) {
  if (next_) next_->on_completed(id, node, at, art);
  JobAudit& j = touch(id, at);
  // Exactly-once modulo recovery: each failsafe recovery (watchdog re-flood
  // or ASSIGN_ACK rediscovery) licenses at most one extra execution, each
  // hedged re-dispatch (the revoked straggler may still finish) one more,
  // and the watchdog may fire *before* the original run finishes — so the
  // orderings are free but the budget is not: completions <= 1 + recoveries
  // + hedges always. A completion past that budget is a protocol bug.
  if (j.completions > 0 && j.completions > j.recoveries + j.hedges) {
    violate("duplicate-completion",
            "job " + id.to_string() + " completed again on " +
                node.to_string() + " (" +
                std::to_string(j.completions + 1) + " completions, " +
                std::to_string(j.recoveries) + " recoveries, " +
                std::to_string(j.hedges) + " hedges)",
            at);
  }
  ++j.completions;
  j.terminal = true;
}

void AuditCollector::on_recovery(const JobId& id, std::size_t attempt,
                                 TimePoint at) {
  if (next_) next_->on_recovery(id, attempt, at);
  JobAudit& j = touch(id, at);
  ++j.recoveries;
  // Budget: watchdog recovery attempts are 1-based and abandon past
  // failsafe_max_recoveries, so a larger attempt number must never appear.
  if (ctx_.failsafe_max_recoveries > 0 &&
      attempt > ctx_.failsafe_max_recoveries) {
    violate("recovery-budget-exceeded",
            "job " + id.to_string() + " recovery attempt " +
                std::to_string(attempt) + " > budget " +
                std::to_string(ctx_.failsafe_max_recoveries),
            at);
  }
}

void AuditCollector::on_abandoned(const JobId& id, TimePoint at) {
  if (next_) next_->on_abandoned(id, at);
  touch(id, at).terminal = true;
}

void AuditCollector::on_shed(const grid::JobSpec& job, NodeId node,
                             TimePoint at) {
  if (next_) next_->on_shed(job, node, at);
  touch(job.id, at);
}

void AuditCollector::on_rejected(const JobId& id, NodeId node, TimePoint at) {
  if (next_) next_->on_rejected(id, node, at);
  touch(id, at);
}

void AuditCollector::on_region_delegated(const JobId& id, NodeId aggregator,
                                         std::uint32_t from_region,
                                         std::uint32_t to_region,
                                         TimePoint at) {
  if (next_) next_->on_region_delegated(id, aggregator, from_region,
                                        to_region, at);
  JobAudit& j = touch(id, at);
  j.pending_delegation = at;  // must produce some later event for the job
  if (ctx_.region_count > 0 &&
      (from_region >= ctx_.region_count || to_region >= ctx_.region_count)) {
    violate("delegation-bad-region",
            "job " + id.to_string() + ": delegation " +
                std::to_string(from_region) + " -> " +
                std::to_string(to_region) + " outside R=" +
                std::to_string(ctx_.region_count),
            at);
  }
}

void AuditCollector::on_digest_clamped(NodeId owner, NodeId from,
                                       std::uint32_t region,
                                       std::uint64_t epoch, TimePoint at) {
  if (next_) next_->on_digest_clamped(owner, from, region, epoch, at);
  // A clamp must be *justified*: the rejected digest's (originator, region,
  // epoch) must have failed a conservation check when it crossed the tap
  // (send precedes delivery, so the key is always recorded first). A clamp
  // with no matching lie threw away an honest aggregator's digest — the
  // defense harming the protocol it guards.
  if (bad_digests_.find({static_cast<std::uint32_t>(from.value()), region,
                         epoch}) == bad_digests_.end()) {
    violate("clamp-without-cause",
            owner.to_string() + " clamped a conserving digest from " +
                from.to_string() + " (region " + std::to_string(region) +
                ", epoch " + std::to_string(epoch) + ")",
            at);
  }
}

void AuditCollector::on_reputation(NodeId owner, NodeId subject, double score,
                                   TimePoint at) {
  if (next_) next_->on_reputation(owner, subject, score, at);
  if (ctx_.reputation_alpha <= 0.0) return;  // defense off: stream must be
                                             // empty anyway, nothing to bound
  constexpr double kEps = 1e-9;
  if (score < -kEps || score > 1.0 + kEps) {
    violate("reputation-out-of-range",
            owner.to_string() + " scored " + subject.to_string() + " at " +
                std::to_string(score),
            at);
  }
  // EWMA movement bound: one observation moves a score by at most
  // alpha * |outcome - score| <= alpha. A larger jump means the ledger is
  // folding something other than single clamped observations.
  const std::uint64_t key =
      (static_cast<std::uint64_t>(owner.value()) << 32) |
      static_cast<std::uint64_t>(subject.value());
  const auto it = rep_scores_.find(key);
  const double prev =
      it == rep_scores_.end() ? ctx_.reputation_initial : it->second;
  if (std::abs(score - prev) > ctx_.reputation_alpha + kEps) {
    violate("reputation-jump",
            owner.to_string() + " moved " + subject.to_string() + " from " +
                std::to_string(prev) + " to " + std::to_string(score) +
                " (bound " + std::to_string(ctx_.reputation_alpha) + ")",
            at);
  }
  rep_scores_[key] = score;
}

// --- wire tap ---------------------------------------------------------------

void AuditCollector::on_message(NodeId from, NodeId to,
                                const sim::Message& message, TimePoint sent,
                                TimePoint deliver, bool faulted) {
  // Digest conservation against ground truth: a REGION_DIGEST may summarize
  // fewer members than the region holds (staleness ages reporters out) but
  // never more, idle capacity can never exceed the member count, backlogs
  // are non-negative, and epochs never run backwards per aggregator (the
  // fault plane may *duplicate* a digest, so equality is legitimate).
  // Conservation failures from *designated* adversaries (the poison
  // injection doing its job) are re-attributed to an informational counter;
  // either way the (originator, region, epoch) key is remembered so the
  // defense clamp's rejections can be matched against real lies.
  const sim::MessageTypeId type = message.type_id();
  if (const auto* rd =
          sim::message_cast<proto::RegionDigestMsg>(message, type)) {
    const overlay::RegionDigest& d = rd->digest;
    bool bad = false;
    const bool expected =
        ctx_.expected_adversary && ctx_.expected_adversary(rd->from);
    const auto flag = [&](std::string kind, std::string detail) {
      bad = true;
      if (expected) {
        ++expected_adversary_digests_;
      } else {
        violate(std::move(kind), std::move(detail), sent);
      }
    };
    if (ctx_.region_count > 0 && d.region >= ctx_.region_count) {
      flag("digest-bad-region",
           from.to_string() + " digests region " + std::to_string(d.region) +
               " outside R=" + std::to_string(ctx_.region_count));
    } else if (ctx_.region_count > 0 &&
               d.members >
                   region_population(ctx_.node_count, ctx_.region_count,
                                     d.region)) {
      flag("digest-overcount",
           from.to_string() + " claims " + std::to_string(d.members) +
               " members in region " + std::to_string(d.region) +
               " (population " +
               std::to_string(region_population(
                   ctx_.node_count, ctx_.region_count, d.region)) +
               ")");
    }
    if (d.idle > d.members) {
      flag("digest-idle-overcount",
           from.to_string() + ": idle " + std::to_string(d.idle) + " > " +
               std::to_string(d.members) + " members");
    }
    if (d.backlog_seconds < 0.0) {
      flag("digest-negative-backlog",
           from.to_string() + ": backlog " +
               std::to_string(d.backlog_seconds) + "s");
    }
    if (bad) {
      bad_digests_.insert({static_cast<std::uint32_t>(rd->from.value()),
                           d.region, d.epoch});
    }
    const auto it = digest_epochs_.find(rd->from);
    if (it != digest_epochs_.end() && d.epoch < it->second) {
      violate("digest-epoch-regression",
              rd->from.to_string() + ": epoch " + std::to_string(d.epoch) +
                  " after " + std::to_string(it->second),
              sent);
    } else {
      digest_epochs_[rd->from] = d.epoch;
    }
  }
  // Hedge metering: every hedged delegation carries the flag on the wire,
  // and ACK retransmissions reuse the assign_id — so distinct ids per job
  // count dispatch decisions, compared against the per-job budget. A nil id
  // (hedging without acknowledged delegation) cannot be deduplicated, so
  // each send counts; the engine always arms assign_ack with the defenses.
  if (const auto* as = sim::message_cast<proto::AssignMsg>(message, type)) {
    if (as->hedge) {
      JobAudit& j = job(as->job.id);
      bool fresh = as->assign_id.is_nil();
      if (!fresh && std::find(j.hedge_ids.begin(), j.hedge_ids.end(),
                              as->assign_id) == j.hedge_ids.end()) {
        j.hedge_ids.push_back(as->assign_id);
        fresh = true;
      }
      if (fresh) {
        ++j.hedges;
        if (j.hedges > ctx_.hedge_budget) {
          violate("hedge-budget-exceeded",
                  "job " + as->job.id.to_string() + ": hedge " +
                      std::to_string(j.hedges) + " from " + from.to_string() +
                      " exceeds budget " + std::to_string(ctx_.hedge_budget),
                  sent);
        }
      }
    }
  }
  // Re-sample for the displaced tap with the Network's own arithmetic, so
  // e.g. the trace plane records exactly the messages it would have seen
  // had the auditor not been in between.
  if (fwd_tap_ != nullptr && fwd_counter_++ % fwd_every_ == 0) {
    fwd_tap_->on_message(from, to, message, sent, deliver, faulted);
  }
}

// --- end-of-run checks ------------------------------------------------------

void AuditCollector::finish(TimePoint end) {
  if (finished_) return;
  finished_ = true;
  // Every cross-region delegation must resolve: after an aggregator
  // forwarded a job, *something* must happen to that job — an offer, a
  // retry, a recovery, a terminal state. A job whose last trace is the
  // delegation itself fell into a void (unless the run ended right away, or
  // the job did terminate through a path the delegation raced with).
  for (const auto& [id, j] : jobs_) {
    if (!j.pending_delegation || j.terminal) continue;
    if (*j.pending_delegation + config_.delegation_grace > end) continue;
    violate("unresolved-delegation",
            "job " + id.to_string() +
                ": nothing happened after its cross-region delegation",
            *j.pending_delegation);
  }
}

}  // namespace aria::audit
