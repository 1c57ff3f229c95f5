#include "workload/run_metrics.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <stdexcept>

#include "workload/engine.hpp"

namespace aria::workload {

namespace {

using C = proto::AriaNode::Counters;
using R = const RunResult&;
using U64 = std::uint64_t;

constexpr double kMiB = 1024.0 * 1024.0;

// One line per metric, in sink order: fingerprint lines, report columns
// and console lines follow it.
// clang-format off
constexpr RunMetric kMetrics[] = {
  // --- core: the paper's per-run metrics (Table I, Figs. 1-10) ---------------------------------------------
  {"completed",               "jobs",    Plane::core, [](R r) -> U64 { return r.completed(); }, Fold::stats},
  {"completion_minutes",      "min",     Plane::core, [](R r) { return r.mean_completion_minutes(); }, Fold::stats},
  {"waiting_minutes",         "min",     Plane::core, [](R r) { return r.mean_waiting_minutes(); }, Fold::stats},
  {"execution_minutes",       "min",     Plane::core, [](R r) { return r.mean_execution_minutes(); }, Fold::stats},
  {"reschedules",             "jobs",    Plane::core, [](R r) -> U64 { return r.tracker.total_reschedules(); }, Fold::stats},
  {"missed_deadlines",        "jobs",    Plane::core, [](R r) -> U64 { return r.missed_deadlines(); }, Fold::stats},
  {"met_slack_minutes",       "min",     Plane::core, [](R r) { return r.mean_met_slack_minutes(); }, Fold::stats},
  {"missed_time_minutes",     "min",     Plane::core, [](R r) { return r.mean_missed_time_minutes(); }, Fold::stats},
  {"busy_time_gini",          "frac",    Plane::core, [](R r) { return r.busy_time_balance().gini; }, Fold::stats},
  {"stranded",                "jobs",    Plane::core, [](R r) -> U64 { return r.stranded(); }, Fold::sum},
  {"jobs_abandoned",          "jobs",    Plane::core, [](R r) -> U64 { return r.tracker.abandoned_count(); }, Fold::sum},
  {"lifecycle_violations",    "count",   Plane::core, [](R r) -> U64 { return r.tracker.violations().size(); }, Fold::sum},
  {"traffic_messages",        "msgs",    Plane::core, [](R r) -> U64 { return r.traffic.total().messages; }, Fold::sum},
  {"traffic_bytes",           "B",       Plane::core, [](R r) -> U64 { return r.traffic.total().bytes; }, Fold::sum},
  {"traffic_mib",             "MiB",     Plane::core, [](R r) { return static_cast<double>(r.traffic.total().bytes) / kMiB; }, Fold::stats},
  {"events_fired",            "events",  Plane::core, [](R r) -> U64 { return r.events_fired; }, Fold::sum},
  {"end_min",                 "min",     Plane::core, [](R r) { return r.end_minutes; }, Fold::stats},
  {"final_node_count",        "nodes",   Plane::core, [](R r) -> U64 { return r.final_node_count; }, Fold::max},
  {"overlay_links",           "links",   Plane::core, [](R r) -> U64 { return r.overlay_links; }, Fold::stats},
  {"overlay_avg_degree",      "links",   Plane::core, [](R r) { return r.overlay_avg_degree; }, Fold::stats},
  {"overlay_avg_path_length", "hops",    Plane::core, [](R r) { return r.overlay_avg_path_length; }, Fold::stats},
  {"requests_initiated",      "msgs",    Plane::core, &C::requests_initiated, Fold::sum},
  {"requests_forwarded",      "msgs",    Plane::core, &C::requests_forwarded, Fold::sum},
  {"accepts_sent",            "msgs",    Plane::core, &C::accepts_sent, Fold::sum},
  {"informs_initiated",       "msgs",    Plane::core, &C::informs_initiated, Fold::sum},
  {"informs_forwarded",       "msgs",    Plane::core, &C::informs_forwarded, Fold::sum},
  {"assigns_sent",            "msgs",    Plane::core, &C::assigns_sent, Fold::sum},
  {"jobs_executed",           "jobs",    Plane::core, &C::jobs_executed, Fold::sum},
  {"reschedules_out",         "jobs",    Plane::core, &C::reschedules_out, Fold::sum},
  {"reschedules_in",          "jobs",    Plane::core, &C::reschedules_in, Fold::sum},
  {"recoveries",              "floods",  Plane::core, &C::recoveries, Fold::sum},
  {"assign_acks_sent",        "msgs",    Plane::core, &C::assign_acks_sent, Fold::sum},
  {"assign_retries",          "msgs",    Plane::core, &C::assign_retries, Fold::sum},
  {"assign_rediscoveries",    "floods",  Plane::core, &C::assign_rediscoveries, Fold::sum},
  {"completion_replays",      "msgs",    Plane::core, &C::completion_replays, Fold::sum},
  // --- faults (docs/faults.md) ------------------------------------------------------------------------------
  {"messages_lost",           "msgs",    Plane::faults, [](R r) -> U64 { return r.faults.lost; }, Fold::sum},
  {"messages_duplicated",     "msgs",    Plane::faults, [](R r) -> U64 { return r.faults.duplicated; }, Fold::sum},
  {"messages_delayed",        "msgs",    Plane::faults, [](R r) -> U64 { return r.faults.delayed; }, Fold::sum},
  {"partition_drops",         "msgs",    Plane::faults, [](R r) -> U64 { return r.faults.partition_drops; }, Fold::sum},
  {"node_crashes",            "nodes",   Plane::faults, [](R r) -> U64 { return r.faults.crashes; }, Fold::sum},
  {"node_restarts",           "nodes",   Plane::faults, [](R r) -> U64 { return r.faults.restarts; }, Fold::sum},
  {"targeted_crashes",        "nodes",   Plane::faults, [](R r) -> U64 { return r.faults.targeted_crashes; }, Fold::sum},
  {"faulted_messages",        "msgs",    Plane::faults, [](R r) -> U64 { return r.faulted_messages; }, Fold::sum},
  {"duplicated_messages",     "msgs",    Plane::faults, [](R r) -> U64 { return r.duplicated_messages; }, Fold::sum},
  {"submissions_dropped",     "jobs",    Plane::faults, [](R r) -> U64 { return r.submissions_dropped; }, Fold::sum},
  // --- healing (docs/overlay.md) ----------------------------------------------------------------------------
  {"neighbor_evictions",      "links",   Plane::healing, [](R r) -> U64 { return r.neighbor_evictions; }, Fold::sum},
  {"false_suspicions",        "count",   Plane::healing, [](R r) -> U64 { return r.false_suspicions; }, Fold::sum},
  {"repair_links",            "links",   Plane::healing, [](R r) -> U64 { return r.repair_links; }, Fold::sum},
  {"rejoin_requests",         "msgs",    Plane::healing, [](R r) -> U64 { return r.rejoin_requests; }, Fold::sum},
  {"probe_rounds",            "count",   Plane::healing, [](R r) -> U64 { return r.probe_rounds; }, Fold::sum},
  {"live_disconnected_samples", "samples", Plane::healing, [](R r) -> U64 { return r.live_disconnected_samples; }, Fold::sum},
  {"max_heal_minutes",        "min",     Plane::healing, [](R r) { return r.max_heal_minutes; }, Fold::max},
  {"live_subgraph_connected_at_end", "flag", Plane::healing, [](R r) -> U64 { return r.live_subgraph_connected_at_end; }, Fold::all},
  // --- overload (docs/overload.md) --------------------------------------------------------------------------
  {"jobs_shed",               "jobs",    Plane::overload, &C::jobs_shed, Fold::sum},
  {"sheds_rescheduled",       "jobs",    Plane::overload, &C::sheds_rescheduled, Fold::sum},
  {"sheds_failsafe",          "floods",  Plane::overload, &C::sheds_failsafe, Fold::sum},
  {"rejects_sent",            "msgs",    Plane::overload, &C::rejects_sent, Fold::sum},
  {"reject_rediscoveries",    "floods",  Plane::overload, &C::reject_rediscoveries, Fold::sum},
  {"bids_suppressed",         "msgs",    Plane::overload, &C::bids_suppressed, Fold::sum},
  {"peak_queue_depth",        "jobs",    Plane::overload, &C::peak_queue_depth, Fold::max},
  {"rejected_incomplete",     "jobs",    Plane::overload, [](R r) -> U64 { return r.tracker.rejected_incomplete_count(); }, Fold::sum},
  // --- hierarchy (docs/hierarchy.md) ------------------------------------------------------------------------
  {"region_count",            "regions", Plane::hierarchy, [](R r) -> U64 { return r.region_count; }, Fold::max},
  {"region_queries_sent",     "msgs",    Plane::hierarchy, &C::region_queries_sent, Fold::sum},
  {"region_queries_served",   "msgs",    Plane::hierarchy, &C::region_queries_served, Fold::sum},
  {"region_forwards",         "msgs",    Plane::hierarchy, &C::region_forwards, Fold::sum},
  {"region_floods",           "floods",  Plane::hierarchy, &C::region_floods, Fold::sum},
  {"load_reports_sent",       "msgs",    Plane::hierarchy, &C::load_reports_sent, Fold::sum},
  {"digests_sent",            "msgs",    Plane::hierarchy, &C::digests_sent, Fold::sum},
  {"digests_received",        "msgs",    Plane::hierarchy, &C::digests_received, Fold::sum},
  {"wide_floods",             "floods",  Plane::hierarchy, &C::wide_floods, Fold::sum},
  {"region_pulls_sent",       "floods",  Plane::hierarchy, &C::region_pulls_sent, Fold::sum},
  {"region_handoffs",         "msgs",    Plane::hierarchy, &C::region_handoffs, Fold::sum},
  {"early_wide_escalations",  "floods",  Plane::hierarchy, &C::early_wide_escalations, Fold::sum},
  {"intra_region_messages",   "msgs",    Plane::hierarchy, [](R r) -> U64 { return r.intra_region_messages; }, Fold::sum},
  {"cross_region_messages",   "msgs",    Plane::hierarchy, [](R r) -> U64 { return r.cross_region_messages; }, Fold::sum},
  {"intra_region_bytes",      "B",       Plane::hierarchy, [](R r) -> U64 { return r.intra_region_bytes; }, Fold::sum},
  {"cross_region_bytes",      "B",       Plane::hierarchy, [](R r) -> U64 { return r.cross_region_bytes; }, Fold::sum},
  // --- adversaries (docs/adversary.md) ----------------------------------------------------------------------
  {"adversary_count",         "nodes",   Plane::adversaries, [](R r) -> U64 { return r.adversary_count; }, Fold::sum},
  {"adv_underbids",           "msgs",    Plane::adversaries, &C::adv_underbids, Fold::sum},
  {"adv_informs_deflated",    "msgs",    Plane::adversaries, &C::adv_informs_deflated, Fold::sum},
  {"adv_assigns_swallowed",   "jobs",    Plane::adversaries, &C::adv_assigns_swallowed, Fold::sum},
  {"adv_digests_poisoned",    "msgs",    Plane::adversaries, &C::adv_digests_poisoned, Fold::sum},
  // --- defenses (docs/adversary.md) -------------------------------------------------------------------------
  {"offers_distrusted",       "msgs",    Plane::defenses, &C::offers_distrusted, Fold::sum},
  {"stragglers_detected",     "jobs",    Plane::defenses, &C::stragglers_detected, Fold::sum},
  {"revokes_sent",            "msgs",    Plane::defenses, &C::revokes_sent, Fold::sum},
  {"revoke_acks_sent",        "jobs",    Plane::defenses, &C::revoke_acks_sent, Fold::sum},
  {"hedges_dispatched",       "msgs",    Plane::defenses, &C::hedges_dispatched, Fold::sum},
  {"digests_clamped",         "msgs",    Plane::defenses, &C::digests_clamped, Fold::sum},
  {"reputation_evictions",    "links",   Plane::defenses, &C::reputation_evictions, Fold::sum},
  // --- audit (docs/audit.md) --------------------------------------------------------------------------------
  {"audit_violations",        "count",   Plane::audit, [](R r) -> U64 { return r.audit_violations; }, Fold::sum},
};
// clang-format on

constexpr std::size_t kNodeCounterMetrics = static_cast<std::size_t>(
    std::ranges::count_if(kMetrics, [](const RunMetric& m) {
      return m.read.counter != nullptr;
    }));
static_assert(sizeof(proto::AriaNode::Counters) ==
                  kNodeCounterMetrics * sizeof(std::uint64_t),
              "every AriaNode::Counters field needs a line in kMetrics");

struct PlaneInfo {
  const char* name;
  bool RunResult::*enabled;  // null: always on
};
constexpr PlaneInfo kPlaneInfo[] = {  // indexed by Plane
    {"core", nullptr},
    {"faults", &RunResult::faults_enabled},
    {"healing", &RunResult::healing_enabled},
    {"overload", &RunResult::overload_enabled},
    {"hierarchy", &RunResult::hierarchy_enabled},
    {"adversaries", &RunResult::adversaries_enabled},
    {"defenses", &RunResult::defense_enabled},
    {"audit", &RunResult::audit_enabled}};
static_assert(std::size(kPlaneInfo) == std::size(kPlanes));

}  // namespace

const char* plane_name(Plane plane) {
  return kPlaneInfo[static_cast<std::size_t>(plane)].name;
}

bool plane_enabled(const RunResult& r, Plane plane) {
  const auto enabled = kPlaneInfo[static_cast<std::size_t>(plane)].enabled;
  return enabled == nullptr || r.*enabled;
}

MetricValue RunMetric::value(const RunResult& r) const {
  if (read.counter != nullptr) return r.counters.*read.counter;
  if (read.count != nullptr) return read.count(r);
  return read.real(r);
}

std::span<const RunMetric> run_metrics() { return kMetrics; }

std::size_t metric_index(std::string_view name) {
  for (std::size_t i = 0; i < std::size(kMetrics); ++i) {
    if (kMetrics[i].name == name) return i;
  }
  throw std::out_of_range("unknown run metric: " + std::string{name});
}

std::vector<MetricValue> read_metrics(const RunResult& r) {
  std::vector<MetricValue> values;
  values.reserve(std::size(kMetrics));
  for (const RunMetric& m : kMetrics) values.push_back(m.value(r));
  return values;
}

void fold_node_counters(proto::AriaNode::Counters& into,
                        const proto::AriaNode::Counters& node) {
  for (const RunMetric& m : kMetrics) {
    if (m.read.counter == nullptr) continue;
    std::uint64_t& acc = into.*m.read.counter;
    const std::uint64_t v = node.*m.read.counter;
    acc = m.fold == Fold::max ? std::max(acc, v) : acc + v;
  }
}

std::string format_metric(const MetricValue& v) {
  if (const auto* count = std::get_if<std::uint64_t>(&v)) {
    return std::to_string(*count);
  }
  char buf[40];  // as the trace exporters: a pure function of the bits
  std::snprintf(buf, sizeof buf, "%.9g", std::get<double>(v));
  return buf;
}

MetricTotals::MetricTotals() : stats_(std::size(kMetrics)) {
  for (const RunMetric& m : kMetrics) {
    values_.push_back(m.read.real ? MetricValue{0.0}
                                   : MetricValue{std::uint64_t{0}});
  }
}

void MetricTotals::add(std::span<const MetricValue> run) {
  for (std::size_t i = 0; i < std::size(kMetrics); ++i) {
    stats_[i].add(
        std::visit([](auto x) { return static_cast<double>(x); }, run[i]));
    if (runs_ == 0) {
      values_[i] = run[i];
      continue;
    }
    values_[i] = std::visit(
        [&](auto acc) -> MetricValue {
          const auto x = std::get<decltype(acc)>(run[i]);
          switch (kMetrics[i].fold) {
            case Fold::max: return std::max(acc, x);
            case Fold::all: return std::min(acc, x);
            default: return acc + x;  // Fold::stats reads stats_ instead
          }
        },
        values_[i]);
  }
  ++runs_;
}

MetricValue MetricTotals::value(std::size_t i) const {
  if (kMetrics[i].fold == Fold::stats) return stats_[i].mean();
  return values_[i];
}

void print_plane_blocks(std::ostream& out,
                        std::span<const RunResult> results) {
  if (results.empty()) return;
  MetricTotals totals;
  for (const RunResult& r : results) totals.add(r);
  bool printed = false;
  for (const Plane plane : kPlanes) {
    if (plane == Plane::core || plane == Plane::audit ||
        !plane_enabled(results.front(), plane)) {
      continue;
    }
    out << '\n' << plane_name(plane) << " (totals over " << results.size()
        << " run(s)):\n";
    for (std::size_t i = 0; i < std::size(kMetrics); ++i) {
      if (kMetrics[i].plane != plane) continue;
      out << "  " << kMetrics[i].name << " [" << kMetrics[i].unit
          << "]: " << format_metric(totals.value(i)) << '\n';
    }
    printed = true;
  }
  if (printed) {
    out << "\nstranded [jobs]: " << totals.count("stranded") << '\n';
  }
}

}  // namespace aria::workload
