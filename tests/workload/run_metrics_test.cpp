// The run metric table (workload/run_metrics.hpp): its declarations, the
// node fold, the run fold, and the claim that every entry reaches every
// sink — fingerprint, the three sweep report files and aria_sim's plane
// blocks — under its one name.
#include "workload/run_metrics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "sweep/report.hpp"
#include "workload/engine.hpp"

namespace aria::workload {
namespace {

bool is_snake_case(const std::string& s) {
  if (s.empty() || s.front() == '_' || s.back() == '_') return false;
  if (s.front() < 'a' || s.front() > 'z') return false;
  char prev = 0;
  for (const char c : s) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                    c == '_';
    if (!ok || (c == '_' && prev == '_')) return false;
    prev = c;
  }
  return true;
}

/// A hand-made result with every plane switched on, so every plane block
/// prints and every metric has a line to land on.
RunResult all_planes_result() {
  RunResult r;
  r.scenario_name = "table";
  r.seed = 3;
  r.faults_enabled = true;
  r.healing_enabled = true;
  r.overload_enabled = true;
  r.hierarchy_enabled = true;
  r.adversaries_enabled = true;
  r.defense_enabled = true;
  r.audit_enabled = true;
  r.counters.jobs_shed = 4;
  r.counters.peak_queue_depth = 9;
  r.region_count = 2;
  return r;
}

TEST(RunMetrics, NamesAreUniqueSnakeCase) {
  std::set<std::string> seen;
  for (const RunMetric& m : run_metrics()) {
    EXPECT_TRUE(is_snake_case(m.name)) << m.name;
    EXPECT_TRUE(seen.insert(m.name).second) << "duplicate " << m.name;
    EXPECT_NE(std::string{m.unit}, "") << m.name;
  }
  // Report rows carry these identity keys next to the metric keys.
  for (const char* reserved :
       {"label", "scenario", "seed", "runs", "nodes", "jobs", "base_seed",
        "audit_by_kind", "traffic"}) {
    EXPECT_FALSE(seen.contains(reserved)) << reserved;
  }
}

TEST(RunMetrics, EachReadIsOneCounterOrOneGetter) {
  std::vector<MetricRead::Counter> counters;  // member pointers: no order
  for (const RunMetric& m : run_metrics()) {
    const int sources = (m.read.counter != nullptr) +
                        (m.read.count != nullptr) + (m.read.real != nullptr);
    EXPECT_EQ(sources, 1) << m.name;
    if (m.read.counter == nullptr) continue;
    EXPECT_EQ(std::count(counters.begin(), counters.end(), m.read.counter), 0)
        << m.name << " reads a counter another line already reads";
    counters.push_back(m.read.counter);
    EXPECT_TRUE(m.fold == Fold::sum || m.fold == Fold::max) << m.name;
  }
  EXPECT_EQ(counters.size() * sizeof(std::uint64_t),
            sizeof(proto::AriaNode::Counters));
}

TEST(RunMetrics, MetricIndexFindsEveryNameAndRejectsUnknown) {
  const auto metrics = run_metrics();
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    EXPECT_EQ(metric_index(metrics[i].name), i);
  }
  EXPECT_THROW(metric_index("no_such_metric"), std::out_of_range);
}

TEST(RunMetrics, NodeFoldSumsCountsAndTakesMaxOfPeakQueueDepth) {
  proto::AriaNode::Counters a{}, b{}, run{};
  a.jobs_shed = 2;
  b.jobs_shed = 3;
  a.peak_queue_depth = 7;
  b.peak_queue_depth = 4;
  a.digests_clamped = 1;
  fold_node_counters(run, a);
  fold_node_counters(run, b);
  EXPECT_EQ(run.jobs_shed, 5u);
  EXPECT_EQ(run.peak_queue_depth, 7u);
  EXPECT_EQ(run.digests_clamped, 1u);

  // Every counter line, not just the three above: sum unless Fold::max.
  proto::AriaNode::Counters x{}, y{}, folded{};
  std::uint64_t seed = 1;
  for (const RunMetric& m : run_metrics()) {
    if (m.read.counter == nullptr) continue;
    x.*m.read.counter = seed;
    y.*m.read.counter = 3 * seed;
    ++seed;
  }
  fold_node_counters(folded, y);
  fold_node_counters(folded, x);
  for (const RunMetric& m : run_metrics()) {
    if (m.read.counter == nullptr) continue;
    const std::uint64_t vx = x.*m.read.counter, vy = y.*m.read.counter;
    EXPECT_EQ(folded.*m.read.counter,
              m.fold == Fold::max ? std::max(vx, vy) : vx + vy)
        << m.name;
  }
}

TEST(RunMetrics, TotalsFoldEachMetricByItsRule) {
  RunResult a, b;
  a.counters.jobs_shed = 2;
  b.counters.jobs_shed = 5;
  a.counters.peak_queue_depth = 9;
  b.counters.peak_queue_depth = 3;
  a.live_subgraph_connected_at_end = true;
  b.live_subgraph_connected_at_end = false;
  a.max_heal_minutes = 1.5;
  b.max_heal_minutes = 0.5;
  a.overlay_avg_degree = 2.0;
  b.overlay_avg_degree = 4.0;

  MetricTotals totals;
  totals.add(a);
  totals.add(b);
  EXPECT_EQ(totals.runs(), 2u);
  EXPECT_EQ(totals.count("jobs_shed"), 7u);
  EXPECT_EQ(totals.count("peak_queue_depth"), 9u);
  EXPECT_EQ(totals.count("live_subgraph_connected_at_end"), 0u);
  const auto real = [&](std::string_view name) {
    return std::get<double>(totals.value(metric_index(name)));
  };
  EXPECT_EQ(real("max_heal_minutes"), 1.5);
  EXPECT_EQ(real("overlay_avg_degree"), 3.0);  // Fold::stats: the mean
  EXPECT_EQ(totals.stats("overlay_avg_degree").min(), 2.0);
  EXPECT_EQ(totals.stats("overlay_avg_degree").max(), 4.0);
}

TEST(RunMetrics, CountsRenderExactAndRealsAsPercentNineG) {
  EXPECT_EQ(format_metric(std::uint64_t{18446744073709551615ULL}),
            "18446744073709551615");
  EXPECT_EQ(format_metric(0.1), "0.1");
  EXPECT_EQ(format_metric(1.0 / 3.0), "0.333333333");
}

TEST(RunMetrics, EveryMetricReachesEverySinkUnderItsName) {
  const RunResult r = all_planes_result();

  const std::string fingerprint = run_fingerprint(r);

  sweep::RunSpec spec;
  spec.label = "table";
  const auto report = sweep::SweepReport::build({spec}, {r});
  std::ostringstream json, summary, runs;
  report.write_json(json);
  report.write_summary_csv(summary);
  report.write_runs_csv(runs);
  const std::string summary_header =
      summary.str().substr(0, summary.str().find('\n')) + ',';
  const std::string runs_header =
      runs.str().substr(0, runs.str().find('\n')) + ',';

  std::ostringstream console;
  print_plane_blocks(console, std::vector<RunResult>{r});
  const std::string blocks = console.str();

  for (const RunMetric& m : run_metrics()) {
    const std::string name = m.name;
    EXPECT_NE(fingerprint.find("\nmetric " + name + " "), std::string::npos)
        << name;
    EXPECT_NE(runs_header.find(',' + name + ','), std::string::npos) << name;
    const std::string column =
        m.fold == Fold::stats ? name + "_mean" : name;
    EXPECT_NE(summary_header.find(',' + column + ','), std::string::npos)
        << name;
    EXPECT_NE(json.str().find("{\"name\":\"" + name + "\",\"unit\":\"" +
                              m.unit + "\",\"plane\":\"" +
                              plane_name(m.plane) + "\"}"),
              std::string::npos)
        << name;
    // Once per row and once in the totals.
    const std::string key = "\"" + name + "\":";
    const auto first = json.str().find(key);
    ASSERT_NE(first, std::string::npos) << name;
    EXPECT_NE(json.str().find(key, first + 1), std::string::npos) << name;

    // Core metrics are the main table's and audit prints per kind: neither
    // has a plane block. Every other metric sits in its plane's block.
    const std::string line =
        "  " + name + " [" + std::string{m.unit} + "]: ";
    if (m.plane == Plane::core || m.plane == Plane::audit) {
      EXPECT_EQ(blocks.find(line), std::string::npos) << name;
      continue;
    }
    const std::string header =
        std::string{"\n"} + plane_name(m.plane) + " (totals over 1 run(s)):\n";
    const auto block = blocks.find(header);
    ASSERT_NE(block, std::string::npos) << plane_name(m.plane);
    const auto end = blocks.find("\n\n", block + 1);
    const auto at = blocks.find(line, block);
    ASSERT_NE(at, std::string::npos) << name;
    EXPECT_LT(at, end) << name << " printed outside its plane's block";
  }
  EXPECT_NE(blocks.find("  jobs_shed [jobs]: 4\n"), std::string::npos);
  EXPECT_NE(blocks.find("  peak_queue_depth [jobs]: 9\n"), std::string::npos);
  EXPECT_NE(blocks.find("  region_count [regions]: 2\n"), std::string::npos);
  // Stranded jobs print once, after the plane blocks.
  const auto stranded = blocks.find("stranded [jobs]: 0\n");
  ASSERT_NE(stranded, std::string::npos);
  EXPECT_EQ(blocks.find("stranded [jobs]", stranded + 1), std::string::npos);
}

TEST(RunMetrics, PlaneBlocksStaySilentWhenEveryPlaneIsOff) {
  RunResult plain;
  plain.audit_enabled = true;  // audit prints its own per-kind block
  std::ostringstream console;
  print_plane_blocks(console, std::vector<RunResult>{plain});
  EXPECT_EQ(console.str(), "");
  print_plane_blocks(console, {});
  EXPECT_EQ(console.str(), "");
}

}  // namespace
}  // namespace aria::workload
