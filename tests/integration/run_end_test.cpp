// How a run ends (docs/kernel.md "How a run ends"): the engine stops once
// its work has drained, and the horizon is only a cap. These tests pin the
// properties that make the early end invisible in the results: a loop that
// drives the kernel by hand sees the same run as run(), the sampled series
// still span the horizon, and the end comes within one sample period of the
// last job's terminal event.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "sweep/matrix.hpp"
#include "workload/cli.hpp"
#include "workload/engine.hpp"
#include "workload/scenario.hpp"

namespace aria::workload {
namespace {

ScenarioConfig cli_scenario(const std::vector<std::string>& args) {
  CliOptions options;
  const auto error = parse_cli(args, options);
  EXPECT_FALSE(error.has_value()) << *error;
  return resolve_scenario(options);
}

// The plane-off golden of determinism_test.cpp.
ScenarioConfig golden_scenario() {
  ScenarioConfig c = scenario_by_name("iMixed");
  c.node_count = 60;
  c.job_count = 80;
  c.submission_interval = c.submission_interval / 2;
  c.horizon = Duration::hours(30);
  return c;
}

struct Case {
  const char* name;
  ScenarioConfig config;
  std::uint64_t seed;
};

std::vector<Case> cases() {
  return {
      {"default", golden_scenario(), 42},
      {"healing-churn",
       cli_scenario({"--scenario", "iMixed", "--nodes", "80", "--jobs", "60",
                     "--horizon", "720", "--healing", "--churn", "--seed",
                     "11"}),
       11},
      {"hierarchy",
       cli_scenario({"--scenario", "iMixed", "--nodes", "120", "--jobs", "100",
                     "--horizon", "1200", "--hierarchy"}),
       7},
  };
}

// A caller that steps the kernel itself up to the horizon (a tracing or
// profiling harness) must see the same run as run(): the drain empties the
// agenda, so its loop ends where run() ends.
TEST(RunEnd, SteppedLoopMatchesRun) {
  for (const Case& c : cases()) {
    const RunResult plain = run_scenario(c.config, c.seed);

    GridSimulation g{c.config, c.seed};
    g.build();
    sim::Simulator& kernel = g.simulator();
    const TimePoint horizon = TimePoint::origin() + c.config.horizon;
    for (;;) {
      const auto next = kernel.peek();
      if (!next || *next > horizon) break;
      kernel.step();
    }
    EXPECT_EQ(kernel.pending_events(), 0u) << c.name;
    const RunResult stepped = g.run();

    EXPECT_EQ(stepped.events_fired, plain.events_fired) << c.name;
    EXPECT_LT(plain.end_minutes, c.config.horizon.to_minutes()) << c.name;
    EXPECT_EQ(run_fingerprint(stepped), run_fingerprint(plain)) << c.name;
  }
}

TEST(RunEnd, EndsWithinOneSamplePeriodOfTheLastCompletion) {
  const ScenarioConfig config = golden_scenario();
  const RunResult r = run_scenario(config, 42);
  ASSERT_EQ(r.completed(), config.job_count);
  TimePoint last = TimePoint::origin();
  for (const auto& [id, rec] : r.tracker.records()) {
    last = std::max(last, *rec.completed);
  }
  const double last_min = (last - TimePoint::origin()).to_minutes();
  EXPECT_GE(r.end_minutes, last_min);
  EXPECT_LE(r.end_minutes,
            last_min + config.metrics_sample_period.to_minutes());
}

// Captured from the plain golden run at the full 30 h horizon, before runs
// ended on drain: padding keeps every sampled series byte-identical.
TEST(RunEnd, PaddedSeriesMatchTheFullHorizonRun) {
  const std::string fp = run_fingerprint(run_scenario(golden_scenario(), 42));
  std::istringstream in{fp};
  std::vector<std::string> series;
  for (std::string line; std::getline(in, line);) {
    if (line.starts_with("series ")) series.push_back(line);
  }
  const std::vector<std::string> full_horizon = {
      "series idle n=1801 sum=0x1.8662p+16 last=0x1.ep+5",
      "series nodes n=1801 sum=0x1.a61cp+16 last=0x1.ep+5",
      "series  n=0 sum=0x0p+0 last=0x0p+0",
      "series  n=0 sum=0x0p+0 last=0x0p+0",
      "series  n=0 sum=0x0p+0 last=0x0p+0",
  };
  EXPECT_EQ(series, full_horizon);
}

// The table2-smoke iDeadline row at seed 405003 is the slowest of the
// preset: its last job completes at minute 1805.
ScenarioConfig smoke_deadline_row() {
  const auto specs =
      sweep::SweepMatrix::preset("table2-smoke", 1, 405003).expand();
  const auto it = std::find_if(specs.begin(), specs.end(), [](const auto& s) {
    return s.config.name == "iDeadline";
  });
  EXPECT_NE(it, specs.end());
  return it->config;
}

TEST(RunEnd, SmokeDeadlineRowCompletesWithinThePresetHorizon) {
  const RunResult r = run_scenario(smoke_deadline_row(), 405003);
  EXPECT_EQ(r.completed(), 150u);
  EXPECT_EQ(r.stranded(), 0u);
  TimePoint last = TimePoint::origin();
  for (const auto& [id, rec] : r.tracker.records()) {
    last = std::max(last, *rec.completed);
  }
  EXPECT_EQ(static_cast<int>((last - TimePoint::origin()).to_minutes()),
            1805);
  EXPECT_LT(r.end_minutes, 60.0 * 60.0);
}

TEST(RunEnd, HittingTheHorizonCapStaysVisible) {
  ScenarioConfig config = smoke_deadline_row();
  config.horizon = Duration::hours(30);
  const RunResult r = run_scenario(config, 405003);
  EXPECT_EQ(r.completed(), 149u);
  EXPECT_EQ(r.stranded(), 1u);
  EXPECT_EQ(r.end_minutes, 1800.0);
}

// An initiator used to report a supervised job unschedulable each time one
// of its recovery rounds ran out of attempts (three times for one job here,
// which then completed anyway). Exhausted rounds now hand the job back to
// the watchdog, so every job gets at most one terminal report.
TEST(RunEnd, EachJobGetsAtMostOneTerminalReport) {
  const ScenarioConfig config =
      cli_scenario({"--scenario", "iMixed", "--nodes", "30", "--jobs", "20",
                    "--horizon", "600", "--overload", "--churn", "--seed",
                    "3"});
  const RunResult r = run_scenario(config, 3);
  std::size_t unschedulable = 0;
  for (const auto& [id, rec] : r.tracker.records()) {
    const int terminal_reports =
        int{rec.done()} + int{rec.unschedulable} + int{rec.abandoned};
    EXPECT_LE(terminal_reports, 1) << id.to_string();
    if (rec.unschedulable) ++unschedulable;
  }
  EXPECT_EQ(r.tracker.unschedulable_count(), unschedulable);
  EXPECT_EQ(r.completed(), 20u);
  EXPECT_EQ(r.stranded(), 0u);
  EXPECT_TRUE(r.tracker.violations().empty());
}

}  // namespace
}  // namespace aria::workload
