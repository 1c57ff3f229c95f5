// Declarative run matrices for the parallel sweep engine.
//
// A SweepMatrix is a list of rows, each naming a Table-II scenario plus the
// same knob overrides `aria_sim` takes on its command line, fanned out over
// N seeds. `expand()` resolves every row into concrete (ScenarioConfig,
// seed) run specs in a deterministic order — row-major, seeds ascending —
// which is the order every merged report is keyed by, independent of how
// the runs are later scheduled across workers. See docs/sweep.md.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "workload/cli.hpp"
#include "workload/scenario.hpp"

namespace aria::sweep {

/// One matrix row: a scenario + overrides, repeated over `options.runs`
/// seeds starting at `options.seed`.
struct MatrixEntry {
  /// Report key; defaults to the scenario name. Rows must have distinct
  /// labels so merged per-row aggregates never silently pool two
  /// configurations.
  std::string label;
  workload::CliOptions options;
};

/// One concrete simulation to run: fully resolved config + seed.
struct RunSpec {
  std::string label;
  workload::ScenarioConfig config;
  std::uint64_t seed{0};
  std::size_t entry_index{0};  // row in the matrix
  std::size_t rep_index{0};    // seed index within the row
};

class SweepMatrix {
 public:
  /// Appends a row. Throws std::invalid_argument on a duplicate label or an
  /// option that is meaningless inside a matrix (help/list/quiet/csv/trace).
  void add(MatrixEntry entry);

  const std::vector<MatrixEntry>& entries() const { return entries_; }
  bool empty() const { return entries_.empty(); }
  std::size_t run_count() const;

  /// Rows × seeds, row-major with ascending seeds. Resolves scenario names;
  /// throws std::invalid_argument for an empty matrix or an unknown
  /// scenario.
  std::vector<RunSpec> expand() const;

  /// Parses the matrix file format: one row per line, each line the same
  /// flags `aria_sim` accepts (e.g. `--scenario iMixed --runs 10`) plus
  /// `--label NAME` to name the row. `#` starts a comment; blank lines are
  /// skipped. `source` names the stream in error messages.
  static SweepMatrix parse(std::istream& in, const std::string& source = "<matrix>");
  static SweepMatrix parse_file(const std::string& path);

  /// Built-in presets (docs/sweep.md):
  ///   "table2"        all 26 Table-II scenarios at paper scale
  ///   "table2-smoke"  all 26, downsized (100 nodes / 150 jobs / 30 h)
  ///   "quick"         4 representative scenarios, tiny (40 nodes / 60 jobs)
  ///   "scale2k"       flat vs --hierarchy head-to-head at 2 000 nodes
  ///   "scale10k-hier" 10 000 nodes, --hierarchy, churn + 1% loss cocktail
  /// Throws std::invalid_argument for unknown names.
  static SweepMatrix preset(const std::string& name, std::size_t seeds,
                            std::uint64_t base_seed);

  static const std::vector<std::string>& preset_names();

 private:
  std::vector<MatrixEntry> entries_;
};

}  // namespace aria::sweep
