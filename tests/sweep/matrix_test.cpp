#include "sweep/matrix.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

namespace aria::sweep {
namespace {

workload::CliOptions options(const std::string& scenario, std::size_t runs = 1,
                             std::uint64_t seed = 1) {
  workload::CliOptions o;
  o.scenario = scenario;
  o.runs = runs;
  o.seed = seed;
  return o;
}

TEST(SweepMatrix, ExpandIsRowMajorWithAscendingSeeds) {
  SweepMatrix m;
  m.add({"a", options("FCFS", 3, 10)});
  m.add({"b", options("iMixed", 2, 7)});
  EXPECT_EQ(m.run_count(), 5u);

  const auto specs = m.expand();
  ASSERT_EQ(specs.size(), 5u);
  const char* labels[] = {"a", "a", "a", "b", "b"};
  const std::uint64_t seeds[] = {10, 11, 12, 7, 8};
  const std::size_t entries[] = {0, 0, 0, 1, 1};
  const std::size_t reps[] = {0, 1, 2, 0, 1};
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(specs[i].label, labels[i]) << i;
    EXPECT_EQ(specs[i].seed, seeds[i]) << i;
    EXPECT_EQ(specs[i].entry_index, entries[i]) << i;
    EXPECT_EQ(specs[i].rep_index, reps[i]) << i;
  }
  EXPECT_EQ(specs[0].config.name, "FCFS");
  EXPECT_EQ(specs[3].config.name, "iMixed");
}

TEST(SweepMatrix, EmptyMatrixThrowsWithClearMessage) {
  SweepMatrix m;
  EXPECT_TRUE(m.empty());
  try {
    m.expand();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string{e.what()}.find("empty sweep matrix"),
              std::string::npos);
  }
}

TEST(SweepMatrix, SingleSeedSingleRow) {
  SweepMatrix m;
  m.add({"", options("FCFS", 1, 42)});
  const auto specs = m.expand();
  ASSERT_EQ(specs.size(), 1u);
  EXPECT_EQ(specs[0].label, "FCFS");  // label defaults to the scenario
  EXPECT_EQ(specs[0].seed, 42u);
  EXPECT_EQ(specs[0].rep_index, 0u);
}

TEST(SweepMatrix, DuplicateLabelsRejected) {
  SweepMatrix m;
  m.add({"", options("FCFS")});
  try {
    m.add({"", options("FCFS", 5, 9)});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("duplicate matrix label 'FCFS'"), std::string::npos);
    EXPECT_NE(what.find("--label"), std::string::npos);  // names the fix
  }
}

TEST(SweepMatrix, SameScenarioTwiceWithDistinctLabelsOk) {
  SweepMatrix m;
  m.add({"fcfs-a", options("FCFS", 1, 1)});
  m.add({"fcfs-b", options("FCFS", 1, 100)});
  const auto specs = m.expand();
  ASSERT_EQ(specs.size(), 2u);
  EXPECT_EQ(specs[0].config.name, specs[1].config.name);
  EXPECT_NE(specs[0].seed, specs[1].seed);
}

TEST(SweepMatrix, UnknownScenarioNamesTheRow) {
  SweepMatrix m;
  m.add({"bad-row", options("NoSuchScenario")});
  try {
    m.expand();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("bad-row"), std::string::npos);
    EXPECT_NE(what.find("NoSuchScenario"), std::string::npos);
  }
}

TEST(SweepMatrix, RejectsProcessOnlyOptions) {
  SweepMatrix m;
  workload::CliOptions o = options("FCFS");
  o.quiet = true;
  EXPECT_THROW(m.add({"q", o}), std::invalid_argument);
  o = options("FCFS");
  o.csv_dir = "out";
  EXPECT_THROW(m.add({"c", o}), std::invalid_argument);
  o = options("FCFS");
  o.trace_path = "t.json";
  EXPECT_THROW(m.add({"t", o}), std::invalid_argument);
}

TEST(SweepMatrix, ParsesRowsCommentsAndLabels) {
  std::istringstream in{
      "# full-scale rows\n"
      "--scenario FCFS --runs 2 --seed 5\n"
      "\n"
      "--label tiny --scenario FCFS --nodes 40 --jobs 60  # downsized\n"};
  const SweepMatrix m = SweepMatrix::parse(in, "test.matrix");
  ASSERT_EQ(m.entries().size(), 2u);
  EXPECT_EQ(m.entries()[0].label, "FCFS");
  EXPECT_EQ(m.entries()[0].options.runs, 2u);
  EXPECT_EQ(m.entries()[0].options.seed, 5u);
  EXPECT_EQ(m.entries()[1].label, "tiny");
  EXPECT_EQ(m.entries()[1].options.nodes, 40u);
  EXPECT_EQ(m.entries()[1].options.jobs, 60u);
}

TEST(SweepMatrix, ParseErrorsCarrySourceAndLine) {
  std::istringstream bad_flag{"--scenario FCFS\n--bogus 1\n"};
  try {
    SweepMatrix::parse(bad_flag, "m.txt");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string{e.what()}.find("m.txt:2:"), std::string::npos);
  }

  std::istringstream dup{"--scenario FCFS\n--scenario FCFS\n"};
  try {
    SweepMatrix::parse(dup, "m.txt");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("m.txt:2:"), std::string::npos);
    EXPECT_NE(what.find("duplicate matrix label"), std::string::npos);
  }

  std::istringstream trailing_label{"--scenario FCFS --label\n"};
  EXPECT_THROW(SweepMatrix::parse(trailing_label, "m.txt"),
               std::invalid_argument);
}

TEST(SweepMatrix, ParseFileMissingPathThrows) {
  EXPECT_THROW(SweepMatrix::parse_file("/nonexistent/matrix.txt"),
               std::invalid_argument);
}

TEST(SweepMatrix, PresetsExist) {
  for (const auto& name : SweepMatrix::preset_names()) {
    const SweepMatrix m = SweepMatrix::preset(name, 2, 1);
    EXPECT_FALSE(m.empty()) << name;
    EXPECT_EQ(m.run_count(), m.entries().size() * 2) << name;
  }
  EXPECT_THROW(SweepMatrix::preset("nope", 1, 1), std::invalid_argument);
}

TEST(SweepMatrix, Table2PresetCoversAllScenarios) {
  const SweepMatrix m = SweepMatrix::preset("table2", 10, 1);
  EXPECT_EQ(m.entries().size(), workload::all_scenarios().size());
  EXPECT_EQ(m.run_count(), workload::all_scenarios().size() * 10);
}

TEST(SweepMatrix, SmokePresetAppliesTheBenchDownsizing) {
  const SweepMatrix m = SweepMatrix::preset("table2-smoke", 1, 3);
  const auto specs = m.expand();
  ASSERT_EQ(specs.size(), workload::all_scenarios().size());
  for (const auto& spec : specs) {
    EXPECT_EQ(spec.config.node_count, 100u);
    EXPECT_EQ(spec.config.job_count, 150u);
    EXPECT_EQ(spec.config.horizon, Duration::hours(60));
    EXPECT_EQ(spec.seed, 3u);
    const auto& full = workload::scenario_by_name(spec.config.name);
    EXPECT_EQ(spec.config.submission_interval, full.submission_interval / 2);
    if (full.expansion) {
      ASSERT_TRUE(spec.config.expansion.has_value());
      EXPECT_EQ(spec.config.expansion->target_node_count, 140u);
      EXPECT_EQ(spec.config.expansion->mean_interval, Duration::seconds(30));
    }
  }
}

TEST(SweepMatrix, ZeroSeedsClampToOne) {
  const SweepMatrix m = SweepMatrix::preset("quick", 0, 1);
  EXPECT_EQ(m.run_count(), m.entries().size());
}

}  // namespace
}  // namespace aria::sweep
