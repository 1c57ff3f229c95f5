// aria_sim: command-line runner for the paper's evaluation scenarios.
//
//   aria_sim --list
//   aria_sim --scenario iMixed --runs 3 --seed 7
//   aria_sim --scenario HighLoad --resched --nodes 200 --jobs 400 --csv out/

#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>

#include "metrics/report.hpp"
#include "trace/critical_path.hpp"
#include "trace/export.hpp"
#include "workload/aggregate.hpp"
#include "workload/cli.hpp"
#include "workload/engine.hpp"
#include "workload/run_metrics.hpp"

int main(int argc, char** argv) {
  using namespace aria;

  std::vector<std::string> args{argv + 1, argv + argc};
  workload::CliOptions options;
  if (const auto error = workload::parse_cli(args, options)) {
    std::cerr << "error: " << *error << "\n\n" << workload::cli_usage();
    return 2;
  }
  if (options.show_help) {
    std::cout << workload::cli_usage();
    return 0;
  }
  if (options.list_scenarios) {
    metrics::Table table{{"name", "description"}};
    for (const auto& s : workload::all_scenarios()) {
      table.add_row({s.name, s.description});
    }
    table.print(std::cout);
    return 0;
  }

  workload::ScenarioConfig cfg;
  try {
    cfg = workload::resolve_scenario(options);
  } catch (const std::out_of_range& e) {
    std::cerr << "error: " << e.what() << " (use --list)\n";
    return 2;
  }

  if (!options.quiet) {
    std::cout << "scenario " << cfg.name << ": " << cfg.node_count
              << " nodes, " << cfg.job_count << " jobs, rescheduling "
              << (cfg.aria.dynamic_rescheduling ? "on" : "off") << ", "
              << options.runs << " run(s), base seed " << options.seed
              << "\n";
  }

  const std::vector<workload::RunResult> results =
      workload::run_scenario_repeated(cfg, options.runs, options.seed);
  const auto summary = workload::summarize(cfg, results);

  metrics::Table table{{"metric", "mean", "stddev", "min", "max"}};
  auto row = [&](const std::string& name, const RunningStats& s,
                 int precision = 1) {
    table.add_row({name, metrics::Table::num(s.mean(), precision),
                   metrics::Table::num(s.stddev(), precision),
                   metrics::Table::num(s.min(), precision),
                   metrics::Table::num(s.max(), precision)});
  };
  row("completed jobs", summary.completed_jobs, 0);
  row("completion [min]", summary.completion_minutes);
  row("waiting [min]", summary.waiting_minutes);
  row("execution [min]", summary.execution_minutes);
  row("reschedules", summary.reschedules, 0);
  if (cfg.deadline_scenario()) {
    row("missed deadlines", summary.missed_deadlines);
    row("met slack [min]", summary.met_slack_minutes);
    row("missed time [min]", summary.missed_time_minutes);
  }
  row("overlay avg path length", summary.overlay_avg_path_length, 2);
  row("overlay avg degree", summary.overlay_avg_degree, 2);
  RunningStats gini;
  for (const auto& r : results) gini.add(r.busy_time_balance().gini);
  row("busy-time Gini", gini, 3);
  table.print(std::cout);

  std::cout << "\ntraffic (mean per run):\n";
  for (const auto& [type, entry] : summary.traffic.by_type()) {
    std::cout << "  " << type << ": "
              << metrics::Table::num(summary.traffic_mib_mean(type), 2)
              << " MiB\n";
  }

  // Jobs with no terminal state feed the exit code whenever a robustness
  // plane ran: under faults, overload, *and* hierarchical discovery the
  // protocol promises every submitted job still terminates.
  std::size_t stranded = 0;
  if (cfg.faults.enabled || cfg.aria.overload.enabled ||
      cfg.aria.hierarchy.enabled) {
    for (const auto& r : results) stranded += r.stranded();
  }

  // One block per plane the runs had on, each metric of the plane folded
  // over the runs (workload/run_metrics.hpp); plane-off runs print nothing
  // here, so their output stays byte-identical to historical runs.
  workload::print_plane_blocks(std::cout, results);

  // Printed only when the tracing plane ran (same byte-identity contract):
  // the per-job critical-path summary from the first run's trace.
  if (cfg.trace.enabled && !results.empty() && results.front().trace) {
    const auto& buf = *results.front().trace;
    const auto paths = trace::critical_paths(buf);
    const auto agg = trace::aggregate(paths);
    std::cout << "\ntrace critical path (first run, " << agg.jobs
              << " traced jobs: " << agg.completed << " completed, "
              << agg.unschedulable << " unschedulable, " << agg.abandoned
              << " abandoned, " << agg.open << " open at horizon):\n";
    metrics::Table cp{{"metric", "mean", "stddev", "min", "max", "jobs"}};
    auto cp_row = [&](const std::string& name, const RunningStats& s,
                      int precision) {
      cp.add_row({name, metrics::Table::num(s.mean(), precision),
                  metrics::Table::num(s.stddev(), precision),
                  metrics::Table::num(s.min(), precision),
                  metrics::Table::num(s.max(), precision),
                  std::to_string(s.count())});
    };
    cp_row("time to first bid [s]", agg.time_to_first_bid_s, 3);
    cp_row("bids per job", agg.bids, 1);
    cp_row("delegation latency [s]", agg.delegation_latency_s, 3);
    cp_row("queue wait [s]", agg.queue_wait_s, 1);
    cp_row("reschedules", agg.reschedules, 2);
    cp_row("makespan [s]", agg.makespan_s, 1);
    cp.print(std::cout);
    std::cout << "  records: " << buf.total_recorded() << " collected, "
              << buf.dropped_job_events() << " job + "
              << buf.dropped_message_events()
              << " message records dropped at ring capacity\n";
  }

  // Printed only when the auditor ran (same byte-identity contract).
  std::uint64_t audit_violations = 0;
  if (cfg.audit.enabled) {
    std::map<std::string, std::uint64_t> by_kind;
    for (const auto& r : results) {
      audit_violations += r.audit_violations;
      for (const auto& [kind, n] : r.audit_by_kind) by_kind[kind] += n;
    }
    std::cout << "\ninvariant audit (totals over " << results.size()
              << " run(s)): " << audit_violations << " violation(s)\n";
    for (const auto& [kind, n] : by_kind) {
      std::cout << "  " << kind << ": " << n << "\n";
    }
    for (const auto& r : results) {
      for (const auto& v : r.violations) {
        std::cout << "  [" << v.kind << "] " << v.detail << "\n";
      }
    }
  }

  bool violations = false;
  for (const auto& r : results) {
    if (!r.tracker.violations().empty()) violations = true;
  }
  std::cout << "lifecycle violations: " << (violations ? "YES" : "none")
            << "\n";

  if (!options.csv_dir.empty()) {
    std::filesystem::create_directories(options.csv_dir);
    const auto base = std::filesystem::path{options.csv_dir};
    {
      std::ofstream out{base / (cfg.name + "_idle.csv")};
      metrics::write_series_csv(out, {summary.idle_series});
    }
    {
      std::ofstream out{base / (cfg.name + "_completed.csv")};
      metrics::write_series_csv(out, {summary.completed_curve});
    }
    {
      std::ofstream out{base / (cfg.name + "_nodes.csv")};
      metrics::write_series_csv(out, {summary.node_count_series});
    }
    if (cfg.aria.overload.enabled) {
      std::ofstream out{base / (cfg.name + "_overload.csv")};
      metrics::write_series_csv(out,
                                {summary.queue_depth_series,
                                 summary.shed_series, summary.reject_series});
    }
    std::cout << "CSV series written to " << options.csv_dir << "\n";
  }

  if (options.tracing() && !results.empty() && results.front().trace) {
    const auto& buf = *results.front().trace;
    if (!options.trace_path.empty()) {
      std::ofstream out{options.trace_path};
      if (!out) {
        std::cerr << "error: cannot write " << options.trace_path << "\n";
        return 2;
      }
      trace::export_chrome(buf, out);
      std::cout << "Chrome trace written to " << options.trace_path
                << " (load at ui.perfetto.dev)\n";
    }
    if (!options.trace_jsonl_path.empty()) {
      std::ofstream out{options.trace_jsonl_path};
      if (!out) {
        std::cerr << "error: cannot write " << options.trace_jsonl_path << "\n";
        return 2;
      }
      trace::export_jsonl(buf, out);
      std::cout << "JSONL trace written to " << options.trace_jsonl_path
                << "\n";
    }
  }
  return (violations || stranded != 0 || audit_violations != 0) ? 1 : 0;
}
