// Deterministic merged reports over a sweep's RunResults.
//
// build() folds results in matrix order (row-major, seeds ascending — the
// order expand() produced, independent of which worker finished what when),
// so every emitted byte is a pure function of (matrix, seeds). Every column
// and key comes from the run metric table (workload/run_metrics.hpp): counts
// render as exact integers, doubles with the same fixed "%.9g" the trace
// exporters use. Nondeterministic measurements (wall-clock) are deliberately
// excluded — timing lives in BENCH_sweep_scaling.json, not in the report
// files. See docs/sweep.md for the schema and the determinism contract.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "sim/traffic.hpp"
#include "sweep/matrix.hpp"
#include "workload/engine.hpp"
#include "workload/run_metrics.hpp"

namespace aria::sweep {

/// One executed run: its identity plus one value per run metric.
struct RunRow {
  std::string label;
  std::string scenario;
  std::uint64_t seed{0};
  std::vector<workload::MetricValue> values;  // indexed like run_metrics()
};

/// Runs folded together: every run metric by its Fold rule (Welford stats
/// for Fold::stats), the auditor's per-kind totals and the traffic ledger.
struct RunFold {
  workload::MetricTotals metrics;
  std::map<std::string, std::uint64_t> audit_by_kind;  // name-sorted
  sim::TrafficLedger traffic;  // summed; divide by runs for per-run means

  std::size_t runs() const { return metrics.runs(); }
  void add(std::span<const workload::MetricValue> values,
           const workload::RunResult& r);
};

/// One matrix row (every seed of one label).
struct RowSummary : RunFold {
  std::string label;
  std::string scenario;
  std::size_t nodes{0};
  std::size_t jobs{0};
  std::uint64_t base_seed{0};
};

struct SweepReport {
  std::vector<RowSummary> rows;  // matrix row order
  std::vector<RunRow> runs;      // matrix order: row-major, seeds ascending
  RunFold totals;                // every run

  /// Folds results (indexed like specs, the expand() order) into the
  /// report. Never reorders: two calls with the same inputs produce
  /// identical reports regardless of how the results were computed.
  static SweepReport build(const std::vector<RunSpec>& specs,
                           const std::vector<workload::RunResult>& results);

  /// The sweep's bar: no stranded job, no lifecycle violation and no
  /// auditor violation in any run. aria_sweep exits 1 otherwise.
  bool passed() const;

  /// summary.json: metric declarations, per-row folds, traffic tables,
  /// totals.
  void write_json(std::ostream& out) const;
  /// summary.csv: one line per matrix row.
  void write_summary_csv(std::ostream& out) const;
  /// runs.csv: one line per run — the serial-golden anchor (`--workers 1`
  /// rows equal the metrics of plain run_scenario calls).
  void write_runs_csv(std::ostream& out) const;
};

}  // namespace aria::sweep
