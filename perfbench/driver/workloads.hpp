// The benchmark's workloads and the run modes the driver offers for them.
// Each workload is one generated configuration; the driver hands the
// library only that config and a seed. README.md says why each was chosen.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "workload/cli.hpp"
#include "workload/scenario.hpp"

namespace perfbench {

struct Workload {
  std::string name;
  /// Single workloads run one GridSimulation; sweep workloads run a preset
  /// matrix through sweep::run_all.
  bool sweep{false};
  /// Single: the aria_sim flags this workload stands for.
  aria::workload::CliOptions options{};
  /// Sweep: preset name, seeds per row and worker threads.
  std::string preset{};
  std::size_t preset_seeds{0};
  std::size_t workers{1};
  /// Sweep: simulated horizon of every row in minutes, replacing the
  /// preset's.
  double horizon_min{0.0};
};

/// Throws std::invalid_argument for an unknown name.
const Workload& workload_by_name(const std::string& name);

/// The generated config of a single workload.
aria::workload::ScenarioConfig make_config(const Workload& w);

/// Result of one run, as printed on the child's stdout.
struct RunOutput {
  JsonLine line;
  bool ok{true};
};

struct RunArgs {
  std::uint64_t seed{1};
  std::size_t setup_reps{3};
  /// Traced runs only: record every Nth send for the network replay
  /// (single workloads; a sweep replays its first run in full), and where
  /// to write the spans.
  std::uint64_t replay_every{1};
  std::string spans_path{};
};

/// Set-up only: `setup_reps` timed set-ups and no run. Set-up time varies
/// more between processes than within one, so run.py adds these short
/// processes where a workload's runs are too few to average that out.
std::vector<double> time_setups_single(const Workload& w, const RunArgs& args);
std::vector<double> time_setups_sweep(const Workload& w, const RunArgs& args);

/// Untraced run: one timed run and `setup_reps` timed set-ups (single: the
/// run's own and the rest after it; sweep: all before it).
RunOutput run_plain_single(const Workload& w, const RunArgs& args);
RunOutput run_plain_sweep(const Workload& w, const RunArgs& args);

/// Traced run: the same run driven step by step with spans and per-layer
/// probes; prints the per-layer metric table alongside the gate fields.
RunOutput run_traced_single(const Workload& w, const RunArgs& args);
RunOutput run_traced_sweep(const Workload& w, const RunArgs& args);

}  // namespace perfbench
