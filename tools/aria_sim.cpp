// aria_sim: command-line runner for the paper's evaluation scenarios.
//
//   aria_sim --list
//   aria_sim --scenario iMixed --runs 3 --seed 7
//   aria_sim --scenario HighLoad --resched --nodes 200 --jobs 400 --csv out/

#include <algorithm>
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

  // Printed only when the fault plane ran, so fault-free output stays
  // byte-identical to historical runs.
  if (cfg.faults.enabled) {
    std::uint64_t lost = 0, duplicated = 0, delayed = 0, partition_drops = 0;
    std::uint64_t crashes = 0, restarts = 0, recoveries = 0, dropped = 0;
    std::size_t abandoned = 0;
    for (const auto& r : results) {
      lost += r.faults.lost;
      duplicated += r.faults.duplicated;
      delayed += r.faults.delayed;
      partition_drops += r.faults.partition_drops;
      crashes += r.faults.crashes;
      restarts += r.faults.restarts;
      recoveries += r.tracker.total_recoveries();
      abandoned += r.tracker.abandoned_count();
      dropped += r.submissions_dropped;
    }
    std::cout << "\nfault injection (totals over " << results.size()
              << " run(s)):\n"
              << "  messages lost: " << lost << ", duplicated: " << duplicated
              << ", delayed: " << delayed
              << ", partition drops: " << partition_drops << "\n"
              << "  node crashes: " << crashes << ", restarts: " << restarts
              << "\n"
              << "  failsafe recoveries: " << recoveries
              << ", jobs abandoned: " << abandoned
              << ", submissions dropped: " << dropped
              << ", jobs stranded: " << stranded << "\n";
  }

  // Printed only when the healing plane ran (same byte-identity contract as
  // the fault block above).
  if (cfg.aria.healing.enabled) {
    std::uint64_t evictions = 0, false_susp = 0, repairs = 0, rejoins = 0;
    std::uint64_t rounds = 0, disconnected = 0;
    double max_heal = 0.0, probe_mib = 0.0;
    bool end_connected = true;
    for (const auto& r : results) {
      evictions += r.neighbor_evictions;
      false_susp += r.false_suspicions;
      repairs += r.repair_links;
      rejoins += r.rejoin_requests;
      rounds += r.probe_rounds;
      disconnected += r.live_disconnected_samples;
      max_heal = std::max(max_heal, r.max_heal_minutes);
      probe_mib += r.probe_traffic_mib();
      end_connected = end_connected && r.live_subgraph_connected_at_end;
    }
    std::cout << "\noverlay health (totals over " << results.size()
              << " run(s)):\n"
              << "  evictions: " << evictions
              << ", false suspicions: " << false_susp
              << ", repair links: " << repairs
              << ", rejoin requests: " << rejoins << "\n"
              << "  probe rounds: " << rounds << ", probe traffic: "
              << metrics::Table::num(probe_mib, 2) << " MiB\n"
              << "  live subgraph disconnected samples: " << disconnected
              << ", worst heal window: "
              << metrics::Table::num(max_heal, 1) << " min"
              << ", connected at end: " << (end_connected ? "yes" : "NO")
              << "\n";
  }

  // Printed only when the overload plane ran (same byte-identity contract).
  if (cfg.aria.overload.enabled) {
    std::uint64_t shed = 0, shed_resched = 0, shed_failsafe = 0;
    std::uint64_t rejects = 0, rediscoveries = 0, suppressed = 0;
    std::uint64_t peak_depth = 0;
    std::size_t rejected_incomplete = 0;
    for (const auto& r : results) {
      shed += r.jobs_shed;
      shed_resched += r.sheds_rescheduled;
      shed_failsafe += r.sheds_failsafe;
      rejects += r.assign_rejects;
      rediscoveries += r.reject_rediscoveries;
      suppressed += r.bids_suppressed;
      peak_depth = std::max(peak_depth, r.peak_queue_depth);
      rejected_incomplete += r.tracker.rejected_incomplete_count();
    }
    std::cout << "\noverload (totals over " << results.size() << " run(s)):\n"
              << "  jobs shed: " << shed << " (re-placed via INFORM: "
              << shed_resched << ", via re-flood: " << shed_failsafe << ")\n"
              << "  ASSIGN rejects: " << rejects
              << ", re-discoveries: " << rediscoveries
              << ", bids suppressed: " << suppressed << "\n"
              << "  peak queue depth: " << peak_depth
              << ", rejected jobs left incomplete: " << rejected_incomplete
              << ", jobs stranded: " << stranded << "\n";
  }

  // Printed only when the hierarchy plane ran (same byte-identity contract).
  if (cfg.aria.hierarchy.enabled && !results.empty()) {
    std::uint64_t queries = 0, served = 0, forwards = 0, floods = 0;
    std::uint64_t wide = 0, reports = 0, digests = 0;
    std::uint64_t intra_msgs = 0, cross_msgs = 0;
    std::uint64_t intra_bytes = 0, cross_bytes = 0;
    double region_mib = 0.0;
    for (const auto& r : results) {
      queries += r.region_queries;
      served += r.region_queries_served;
      forwards += r.region_forwards;
      floods += r.region_floods;
      wide += r.wide_floods;
      reports += r.load_reports;
      digests += r.digests_sent;
      intra_msgs += r.intra_region_messages;
      cross_msgs += r.cross_region_messages;
      intra_bytes += r.intra_region_bytes;
      cross_bytes += r.cross_region_bytes;
      region_mib += r.region_traffic_mib();
    }
    const double mib = 1024.0 * 1024.0;
    std::cout << "\nhierarchy (totals over " << results.size() << " run(s), "
              << results.front().region_count << " regions):\n"
              << "  region queries: " << queries << " sent, " << served
              << " served, " << forwards << " forwarded, " << floods
              << " remote floods, " << wide << " wide floods\n"
              << "  load reports: " << reports
              << ", digests broadcast: " << digests
              << ", region-plane traffic: "
              << metrics::Table::num(region_mib, 2) << " MiB\n"
              << "  intra-region wire: " << intra_msgs << " msgs / "
              << metrics::Table::num(static_cast<double>(intra_bytes) / mib, 2)
              << " MiB; cross-region: " << cross_msgs << " msgs / "
              << metrics::Table::num(static_cast<double>(cross_bytes) / mib, 2)
              << " MiB\n"
              << "  jobs stranded: " << stranded << "\n";
    if (cfg.faults.enabled) {
      // Chaos-hardening telemetry; gated on the fault plane so fault-free
      // hierarchy output stays byte-identical to historical runs.
      std::uint64_t pulls = 0, handoffs = 0, escalations = 0;
      std::uint64_t targeted = 0;
      for (const auto& r : results) {
        pulls += r.region_pulls;
        handoffs += r.region_handoffs;
        escalations += r.early_wide_escalations;
        targeted += r.faults.targeted_crashes;
      }
      std::cout << "  targeted crashes: " << targeted
                << ", cold-restart pulls: " << pulls
                << ", query handoffs: " << handoffs
                << ", early wide escalations: " << escalations << "\n";
    }
  }

  // Printed only when adversaries were designated (same byte-identity
  // contract: honest runs never reach this block).
  if (!results.empty() && results.front().adversaries_enabled) {
    std::size_t cast = 0;
    std::uint64_t underbids = 0, deflated = 0, swallowed = 0, poisoned = 0;
    for (const auto& r : results) {
      cast += r.adversary_count;
      underbids += r.adv_underbids;
      deflated += r.adv_informs_deflated;
      swallowed += r.adv_assigns_swallowed;
      poisoned += r.adv_digests_poisoned;
    }
    std::cout << "\nadversaries (totals over " << results.size()
              << " run(s), " << cast << " designated):\n"
              << "  bids underquoted: " << underbids
              << ", INFORMs deflated: " << deflated
              << ", ASSIGNs swallowed: " << swallowed
              << ", digests poisoned: " << poisoned
              << ", jobs stranded: " << stranded << "\n";
  }

  // Printed only when the defense plane ran (same byte-identity contract).
  if (cfg.aria.defense.enabled) {
    std::uint64_t distrusted = 0, stragglers = 0, revokes = 0, acks = 0;
    std::uint64_t hedges = 0, clamped = 0, evicted = 0;
    for (const auto& r : results) {
      distrusted += r.offers_distrusted;
      stragglers += r.stragglers_detected;
      revokes += r.revokes_sent;
      acks += r.revoke_acks_sent;
      hedges += r.hedges_dispatched;
      clamped += r.digests_clamped;
      evicted += r.reputation_evictions;
    }
    std::cout << "\ndefenses (totals over " << results.size() << " run(s)):\n"
              << "  offers distrusted: " << distrusted
              << ", reputation evictions: " << evicted << "\n"
              << "  stragglers detected: " << stragglers << ", revokes sent: "
              << revokes << ", surrendered: " << acks
              << ", hedges dispatched: " << hedges << "\n"
              << "  digests clamped: " << clamped
              << ", jobs stranded: " << stranded << "\n";
  }

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
