// The simulation engine: builds a grid from a ScenarioConfig, runs it, and
// extracts the metrics the paper's figures are made of.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "audit/auditor.hpp"
#include "common/arena.hpp"
#include "common/rng.hpp"
#include "core/centralized.hpp"
#include "core/config.hpp"
#include "core/node.hpp"
#include "core/tracker.hpp"
#include "metrics/timeseries.hpp"
#include "overlay/blatant.hpp"
#include "overlay/flooding.hpp"
#include "overlay/topology.hpp"
#include "sim/fault.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "sim/traffic.hpp"
#include "trace/collector.hpp"
#include "workload/jobgen.hpp"
#include "workload/scenario.hpp"

namespace aria::workload {

/// Everything measured in one simulated run.
struct RunResult {
  std::string scenario_name;
  std::uint64_t seed{0};

  proto::JobTracker tracker;
  /// Every node's protocol counters folded over the grid (summed; max for
  /// peak_queue_depth). A plane's counters stay zero while it is off.
  /// Reported through the metric table (workload/run_metrics.hpp).
  proto::AriaNode::Counters counters{};
  sim::TrafficLedger traffic;
  metrics::Series idle_series;        // idle-node count over time
  metrics::Series node_count_series;  // grid size over time (expansion)

  // --- fault plane (zero / false on fault-free runs) --------------------
  bool faults_enabled{false};
  sim::FaultPlane::Counters faults{};
  std::uint64_t faulted_messages{0};     // injected loss + partition drops
  std::uint64_t duplicated_messages{0};  // extra deliveries injected
  /// Submissions that found no alive node to accept them (whole-grid
  /// outage); these jobs never reach the tracker, so stranded() adds them.
  std::uint64_t submissions_dropped{0};

  // --- self-healing overlay plane (all zero when healing is off) --------
  bool healing_enabled{false};
  std::uint64_t neighbor_evictions{0};   // links dropped after missed probes
  std::uint64_t false_suspicions{0};     // suspected peers that answered
  std::uint64_t repair_links{0};         // links re-established via LINK_ACK
  std::uint64_t rejoin_requests{0};      // LINK_REQs sent by restarted nodes
  std::uint64_t probe_rounds{0};         // summed over nodes
  /// Metric samples at which the live-node subgraph was disconnected.
  std::uint64_t live_disconnected_samples{0};
  /// Longest consecutive disconnected streak, in minutes (an upper bound on
  /// the worst time-to-heal, quantized to the sampling period).
  double max_heal_minutes{0.0};
  bool live_subgraph_connected_at_end{true};

  // --- overload plane (empty when overload is off) ----------------------
  bool overload_enabled{false};
  metrics::Series queue_depth_series;  // max queue depth across nodes
  metrics::Series shed_series;         // cumulative sheds over time
  metrics::Series reject_series;       // cumulative REJECTs over time

  // --- hierarchy plane (all zero when hierarchy is off) -----------------
  bool hierarchy_enabled{false};
  /// Resolved region count R (the engine writes auto-sizing back).
  std::size_t region_count{0};
  /// Wire split by the sender/receiver region partition (see
  /// sim::Network::set_region_count).
  std::uint64_t intra_region_messages{0};
  std::uint64_t cross_region_messages{0};
  std::uint64_t intra_region_bytes{0};
  std::uint64_t cross_region_bytes{0};

  // --- adversary plane (all zero when no adversaries designated) --------
  bool adversaries_enabled{false};
  /// Nodes the stateless designation hash marked as adversaries (over the
  /// final grid, expansion joiners included).
  std::size_t adversary_count{0};
  // --- defense plane (all zero when defenses are off) -------------------
  bool defense_enabled{false};
  // --- audit plane (all empty when auditing is off) ---------------------
  bool audit_enabled{false};
  /// Total invariant violations detected (docs/audit.md). Must be 0 on
  /// every run — aria_sim exits nonzero otherwise.
  std::uint64_t audit_violations{0};
  /// The first AuditConfig::max_recorded violations, in detection order.
  std::vector<audit::Violation> violations{};
  /// Violation totals per kind, name-sorted (feeds sweep reports).
  std::map<std::string, std::uint64_t> audit_by_kind{};

  // --- tracing plane (null when tracing is off) -------------------------
  bool trace_enabled{false};
  /// The collected stream (job lifecycle + sampled messages); feed to
  /// trace::export_jsonl / export_chrome / critical_paths.
  std::shared_ptr<const trace::TraceBuffer> trace{};

  std::size_t final_node_count{0};
  std::size_t overlay_links{0};
  double overlay_avg_degree{0.0};
  double overlay_avg_path_length{0.0};
  std::uint64_t events_fired{0};
  /// Simulated minutes at which the run ended: when its work drained, or
  /// the horizon if it never did (docs/kernel.md "How a run ends").
  double end_minutes{0.0};
  double wall_seconds{0.0};

  // --- derived job metrics (over completed jobs) -----------------------
  std::size_t completed() const { return tracker.completed_count(); }
  double mean_completion_minutes() const;
  double mean_waiting_minutes() const;
  double mean_execution_minutes() const;

  // --- deadline metrics (deadline scenarios) ----------------------------
  std::size_t deadline_jobs() const;
  std::size_t missed_deadlines() const;
  /// Mean slack (deadline - completion) over jobs that met their deadline,
  /// in minutes ("average lateness" in the paper's Fig. 4 terminology).
  double mean_met_slack_minutes() const;
  /// Mean overrun past the deadline over jobs that missed, in minutes.
  double mean_missed_time_minutes() const;

  /// Cumulative completed-jobs curve (Fig. 1), bucketed.
  metrics::Series completed_series(Duration bucket,
                                   TimePoint horizon) const;

  /// Total bytes per message type / per node, in MiB.
  double traffic_mib(const std::string& type) const;
  double traffic_mib_total() const;
  /// Healing-plane control traffic (PING + PONG + LINK_REQ + LINK_ACK).
  double probe_traffic_mib() const;

  /// Load-balance over executed-job counts per node (paper abstract:
  /// "improving the overall performance in terms of ... load-balancing").
  metrics::LoadBalance execution_balance() const;
  /// Load-balance over busy seconds (sum of actual running times) per node.
  metrics::LoadBalance busy_time_balance() const;

  /// Submitted jobs with no terminal state (completed / unschedulable /
  /// abandoned) plus submissions dropped before reaching any node. Must be
  /// 0 even under faults — the no-stranded-jobs guarantee the failsafe
  /// provides.
  std::size_t stranded() const {
    return tracker.stranded_count() +
           static_cast<std::size_t>(submissions_dropped);
  }
};

/// One grid simulation. Construct, optionally inspect/customize after
/// build(), then run(). A GridSimulation is single-use.
class GridSimulation {
 public:
  GridSimulation(ScenarioConfig config, std::uint64_t seed);
  GridSimulation(const GridSimulation&) = delete;
  GridSimulation& operator=(const GridSimulation&) = delete;

  /// Constructs overlay, nodes and schedules the workload. Idempotent.
  void build();

  /// build() + run until the work drains (the horizon is a cap) + collect
  /// results.
  RunResult run();

  // --- component access (valid after build()) ---------------------------
  sim::Simulator& simulator() { return sim_; }
  sim::Network& network() { return *net_; }
  overlay::Topology& topology() { return topo_; }
  proto::JobTracker& tracker() { return tracker_; }
  const ScenarioConfig& config() const { return config_; }

  std::size_t node_count() const { return nodes_.size(); }
  proto::AriaNode* node(NodeId id);
  std::vector<proto::AriaNode*> all_nodes();

  /// Nodes that are neither executing nor holding queued jobs. O(1): nodes
  /// maintain a shared gauge on every queue/executor transition.
  std::size_t idle_count() const { return idle_nodes_; }

  /// O(N) recount of idle_count(); debug cross-check for tests.
  std::size_t idle_count_scan() const;

 private:
  void build_overlay();
  void build_nodes();
  void spawn_node();  // one node: profile + scheduler + protocol engine
  void schedule_workload();
  void schedule_expansion();
  void expansion_step(const ScenarioConfig::Expansion& plan, Rng join_rng);
  void schedule_maintenance();
  void schedule_sampling();
  void sample_live_connectivity();
  void sample_overload();
  void end_if_drained();
  void finish_maintenance();
  void schedule_churn();
  void schedule_targeted_churn();
  void churn_crash(NodeId id, sim::FaultConfig::Churn plan, Rng rng,
                   bool targeted = false);
  void churn_restart(NodeId id, sim::FaultConfig::Churn plan, Rng rng,
                     bool targeted = false);
  void submit_one();

  ScenarioConfig config_;
  std::uint64_t seed_;
  Rng rng_;

  // Order matters: node_arena_ must be destroyed before net_/sim_ (node
  // dtors detach from the network and cancel simulator events).
  sim::Simulator sim_;
  overlay::Topology topo_;
  /// Null on fault-free runs; must outlive net_ (which holds a raw pointer).
  std::unique_ptr<sim::FaultPlane> faults_;
  std::unique_ptr<sim::Network> net_;
  std::unique_ptr<overlay::FloodRelay> relay_;
  std::unique_ptr<overlay::BlatantMaintainer> maintainer_;
  grid::ErtErrorModel ert_error_;
  proto::JobTracker tracker_;
  /// Null unless config_.trace.enabled; decorates tracker_ as the nodes'
  /// observer and taps net_ for sampled wire messages.
  std::unique_ptr<trace::TraceCollector> tracer_;
  /// Null unless config_.audit.enabled; outermost observer decorator
  /// (auditor -> tracer -> tracker) and the network tap (sample_every 1,
  /// re-sampling forwards to the tracer). See docs/audit.md.
  std::unique_ptr<audit::AuditCollector> auditor_;
  std::unique_ptr<JobGenerator> jobgen_;
  Rng submit_rng_{0};
  // Declared before the arena: nodes decrement the gauge in their destructor.
  std::size_t idle_nodes_{0};
  /// Arena-backed node storage (common/arena.hpp): one placement-new per
  /// node into contiguous slabs with stable addresses — AriaNode pins its
  /// own address inside scheduled lambdas, and at 10k+ nodes the slabs
  /// avoid a heap allocation and a pointer chase per node. nodes_ is the
  /// id-indexed view over the arena.
  SlabArena<proto::AriaNode> node_arena_;
  std::vector<proto::AriaNode*> nodes_;

  metrics::Series idle_series_;
  metrics::Series node_count_series_;
  // Overload-plane sampling (only fed when the plane is on).
  metrics::Series queue_depth_series_;
  metrics::Series shed_series_;
  metrics::Series reject_series_;
  std::uint64_t submissions_dropped_{0};
  std::size_t submissions_fired_{0};
  std::uint64_t maintenance_ticks_{0};
  /// Set by the sampler when the run drains; the agenda is empty from then.
  std::optional<TimePoint> drained_at_;
  // Healing-plane sampling state (live-subgraph connectivity over time).
  std::uint64_t live_disconnected_samples_{0};
  std::uint64_t disconnect_streak_{0};
  std::uint64_t max_disconnect_streak_{0};
  bool built_{false};
};

/// Convenience: run `scenario` once with `seed`.
RunResult run_scenario(const ScenarioConfig& scenario, std::uint64_t seed);

/// Canonical textual digest of every deterministic field of a RunResult —
/// plane switches, one `metric <name> <value>` line per run_metrics() entry,
/// per-job lifecycle lines sorted by job id, per-type traffic, series
/// checksums; floats rendered as hexfloat so equality is bit-equality.
/// Excludes wall_seconds (host time).
std::string run_fingerprint(const RunResult& r);

}  // namespace aria::workload
