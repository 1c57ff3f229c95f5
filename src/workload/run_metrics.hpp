// The per-run metric table: every scalar a run reports, declared once as
// {name, unit, plane, read, fold}. Collection (GridSimulation::run), the
// determinism fingerprint, the sweep reports and aria_sim's plane blocks all
// loop over it, so a new node counter is one AriaNode::Counters field plus
// one table line; a field without a line fails the build.
#pragma once

#include <concepts>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "common/stats.hpp"
#include "core/node.hpp"

namespace aria::workload {

struct RunResult;

/// `core` is always on. Nodes count a plane's counters only while it is
/// on, so they read zero otherwise.
enum class Plane : std::uint8_t {
  core, faults, healing, overload, hierarchy, adversaries, defenses, audit
};
inline constexpr Plane kPlanes[] = {
    Plane::core,      Plane::faults,      Plane::healing,  Plane::overload,
    Plane::hierarchy, Plane::adversaries, Plane::defenses, Plane::audit};
const char* plane_name(Plane plane);
bool plane_enabled(const RunResult& r, Plane plane);

/// How values combine across a run's nodes and across runs.
enum class Fold : std::uint8_t {
  sum,    // counts add up
  max,    // high-water marks
  all,    // 0/1 flags: 1 only if every run reports 1
  stats,  // per-run samples summarized as mean/stddev/min/max
};

/// One run's value of one metric: an exact count or a real.
using MetricValue = std::variant<std::uint64_t, double>;

/// A node counter (folded over the run's nodes) or a RunResult getter.
struct MetricRead {
  using Counter = std::uint64_t proto::AriaNode::Counters::*;
  using CountGetter = std::uint64_t (*)(const RunResult&);
  using RealGetter = double (*)(const RunResult&);

  constexpr MetricRead(Counter c) : counter{c} {}
  template <std::convertible_to<CountGetter> F>
  constexpr MetricRead(F f) : count{f} {}
  template <std::convertible_to<RealGetter> F>
  constexpr MetricRead(F f) : real{f} {}

  Counter counter{nullptr};
  CountGetter count{nullptr};
  RealGetter real{nullptr};
};

struct RunMetric {
  const char* name;  // unique snake_case: the key in every sink
  const char* unit;
  Plane plane;
  MetricRead read;
  Fold fold;

  MetricValue value(const RunResult& r) const;
};

/// The table, in sink order.
std::span<const RunMetric> run_metrics();
/// Position of `name` in run_metrics(); throws std::out_of_range if absent.
std::size_t metric_index(std::string_view name);
std::vector<MetricValue> read_metrics(const RunResult& r);
/// Folds one node's counters into a run's by each counter's Fold.
void fold_node_counters(proto::AriaNode::Counters& into,
                        const proto::AriaNode::Counters& node);
/// Exact decimal for counts, "%.9g" for reals.
std::string format_metric(const MetricValue& v);

/// Every metric folded over runs, in add() order.
class MetricTotals {
 public:
  MetricTotals();
  /// One run's values, indexed like run_metrics().
  void add(std::span<const MetricValue> run);
  void add(const RunResult& r) { add(read_metrics(r)); }

  std::size_t runs() const { return runs_; }
  /// Metric i folded by its rule; Fold::stats gives the mean.
  MetricValue value(std::size_t i) const;
  const RunningStats& stats(std::size_t i) const { return stats_[i]; }
  const RunningStats& stats(std::string_view name) const {
    return stats(metric_index(name));
  }
  /// A count metric's folded value.
  std::uint64_t count(std::string_view name) const {
    return std::get<std::uint64_t>(value(metric_index(name)));
  }

 private:
  std::size_t runs_{0};
  std::vector<MetricValue> values_;
  std::vector<RunningStats> stats_;
};

/// aria_sim's plane blocks: for each plane the runs had on (core is the
/// main table, audit prints per kind), one "name [unit]: value" line per
/// metric folded over `results`; then the stranded total once.
void print_plane_blocks(std::ostream& out, std::span<const RunResult> results);

}  // namespace aria::workload
