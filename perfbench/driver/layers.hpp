// The traced run of one simulation and the per-layer probes, shared by the
// single-run and sweep workloads.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "sched/scheduler.hpp"
#include "workload/engine.hpp"

namespace perfbench {

/// The eight message types the benchmark reports per type.
const std::vector<std::string>& reported_types();

/// Correctness-gate fields of one run (or of a whole sweep, summed):
/// completion counts, violations, deterministic counts and the fingerprint.
struct GateFields {
  std::uint64_t submitted{0};
  std::uint64_t completed{0};
  std::uint64_t abandoned{0};  // terminal: the failsafe gave up on them
  std::uint64_t stranded{0};
  std::uint64_t violations{0};
  std::uint64_t audit_violations{0};
  std::string first_violation{};
  double completion_minutes_sum{0.0};  // over completed jobs
  std::uint64_t wire_bytes{0};
  std::uint64_t events{0};
  std::uint64_t sent{0};
  std::vector<std::uint64_t> sent_by_type =
      std::vector<std::uint64_t>(reported_types().size());
  std::string fingerprint{};

  void add(const aria::workload::RunResult& r);
  void write(JsonLine& line) const;
};

/// Additive per-layer counters of traced runs; per-type counts come from
/// the network's TrafficLedger.
struct LayerTotals {
  double build_s{0.0};
  double collect_s{0.0};
  double loop_s{0.0};
  std::uint64_t events{0};
  std::uint64_t deliveries{0};
  std::uint64_t heap_peak{0};  // max over runs
  std::uint64_t compactions{0};
  std::uint64_t sent{0};
  std::uint64_t bytes{0};
  std::uint64_t dropped{0};
  std::vector<std::uint64_t> sent_by_type =
      std::vector<std::uint64_t>(reported_types().size());
  std::vector<std::uint64_t> bytes_by_type =
      std::vector<std::uint64_t>(reported_types().size());
  std::uint64_t submitted{0};
  std::uint64_t reschedules{0};
  std::uint64_t recoveries{0};
  std::uint64_t links{0};
  std::uint64_t evictions{0};
  std::uint64_t repair_links{0};
  std::uint64_t blatant_ticks{0};
  StepHistogram steps{};
};

/// One sampled send, kept for the network replay.
struct RecordedSend {
  aria::NodeId from;
  aria::NodeId to;
  aria::sim::MessageTypeId type;
  std::uint32_t bytes{0};
  aria::TimePoint at;
};

/// Builds and runs `config` at `seed` exactly as GridSimulation::run()
/// does, but drives the event loop itself (peek/step, as run_until does)
/// and a tap on the network that keeps every `replay_every`-th send in
/// `sends` (bounded), then calls run() to collect. Adds to `totals` and
/// `gate`, sets `gate.fingerprint` to this run's, and returns the final
/// overlay for the probes.
aria::overlay::Topology trace_one(const aria::workload::ScenarioConfig& config,
                                  std::uint64_t seed,
                                  std::uint64_t replay_every,
                                  SpanRecorder& spans, LayerTotals& totals,
                                  GateFields& gate,
                                  std::vector<RecordedSend>& sends);

/// Timings of single-layer entry points, measured once per traced run.
struct Probes {
  double blatant_tick_ms{0.0};
  double distance_us{0.0};
  double apl_ms{0.0};
  double send_ns{0.0};
  double enqueue_ns{0.0};
  double ettc_ns{0.0};
};

/// Overlay probes on a copy of a run's final topology; the BLATANT tick is
/// timed only when `blatant` (the workload runs the maintainer).
void probe_overlay(const aria::overlay::Topology& final_topology, bool blatant,
                   std::uint64_t seed, SpanRecorder& spans, Probes& out);

/// Replays recorded sends through a fresh Network with the engine's
/// latency model and no-op handlers; returns nanoseconds per message.
double probe_network(const std::vector<RecordedSend>& sends,
                     std::uint64_t seed, SpanRecorder& spans);

/// (local scheduling policy, parameters of the jobs it is fed) pairs.
using SchedKinds = std::vector<
    std::pair<aria::sched::SchedulerKind, aria::workload::JobGenParams>>;

/// Scheduler enqueue/ettc_of/pop_next on queues filled with jobs drawn
/// from each (policy, job parameters) pair.
void probe_sched(const SchedKinds& kinds, std::uint64_t seed,
                 SpanRecorder& spans, Probes& out);

/// Whether `config` runs the BLATANT maintainer (flat BLATANT overlay).
bool runs_blatant(const aria::workload::ScenarioConfig& config);

/// BLATANT maintenance ticks the engine schedules over the horizon.
std::uint64_t blatant_ticks(const aria::workload::ScenarioConfig& config);

/// Fills the per-layer table from traced totals and probes. The sweep
/// metrics are left for the caller.
void fill_layer_metrics(const LayerTotals& t, const Probes& p,
                        MetricTable& out);

}  // namespace perfbench
