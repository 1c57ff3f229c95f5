#include "sweep/report.hpp"

#include <ostream>
#include <stdexcept>

namespace aria::sweep {

namespace {

using workload::Fold;
using workload::format_metric;
using workload::run_metrics;

constexpr double kMiB = 1024.0 * 1024.0;

void write_stats(std::ostream& out, const RunningStats& s) {
  out << "{\"mean\":" << format_metric(s.mean())
      << ",\"stddev\":" << format_metric(s.stddev())
      << ",\"min\":" << format_metric(s.min())
      << ",\"max\":" << format_metric(s.max()) << '}';
}

void write_traffic(std::ostream& out, const sim::TrafficLedger& ledger,
                   std::size_t runs) {
  const auto total = ledger.total();
  out << "{\"messages\":" << total.messages << ",\"bytes\":" << total.bytes
      << ",\"mib_per_run\":"
      << format_metric(runs ? static_cast<double>(total.bytes) /
                                  (kMiB * static_cast<double>(runs))
                            : 0.0)
      << ",\"by_type\":{";
  bool first = true;
  for (const auto& [type, entry] : ledger.by_type()) {
    if (!first) out << ',';
    first = false;
    out << '"' << type << "\":{\"messages\":" << entry.messages
        << ",\"bytes\":" << entry.bytes << '}';
  }
  out << "}}";
}

void write_audit_by_kind(std::ostream& out,
                         const std::map<std::string, std::uint64_t>& by_kind) {
  out << '{';
  bool first = true;
  for (const auto& [kind, count] : by_kind) {  // std::map => name-sorted
    if (!first) out << ',';
    first = false;
    out << '"' << kind << "\":" << count;
  }
  out << '}';
}

// The keys every fold carries after its identity keys: "runs", one key per
// run metric (a stats object for Fold::stats), audit kinds and traffic.
void write_fold(std::ostream& out, const RunFold& fold) {
  out << "\"runs\":" << fold.runs();
  const auto metrics = run_metrics();
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << ",\"" << metrics[i].name << "\":";
    if (metrics[i].fold == Fold::stats) {
      write_stats(out, fold.metrics.stats(i));
    } else {
      out << format_metric(fold.metrics.value(i));
    }
  }
  out << ",\"audit_by_kind\":";
  write_audit_by_kind(out, fold.audit_by_kind);
  out << ",\"traffic\":";
  write_traffic(out, fold.traffic, fold.runs());
}

}  // namespace

void RunFold::add(std::span<const workload::MetricValue> values,
                  const workload::RunResult& r) {
  metrics.add(values);
  for (const auto& [kind, count] : r.audit_by_kind) {
    audit_by_kind[kind] += count;
  }
  traffic.merge(r.traffic);
}

SweepReport SweepReport::build(
    const std::vector<RunSpec>& specs,
    const std::vector<workload::RunResult>& results) {
  if (specs.size() != results.size()) {
    throw std::invalid_argument("sweep report: spec/result count mismatch");
  }
  SweepReport report;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const RunSpec& spec = specs[i];
    const workload::RunResult& r = results[i];

    if (spec.rep_index != 0 &&
        (report.rows.empty() || report.rows.back().label != spec.label)) {
      throw std::invalid_argument(
          "sweep report: specs are not in expand() order (row-major, seeds "
          "ascending)");
    }
    if (spec.rep_index == 0) {
      RowSummary row;
      row.label = spec.label;
      row.scenario = spec.config.name;
      row.nodes = spec.config.node_count;
      row.jobs = spec.config.job_count;
      row.base_seed = spec.seed;
      report.rows.push_back(std::move(row));
    }
    RunRow run{spec.label, spec.config.name, spec.seed,
               workload::read_metrics(r)};
    report.rows.back().add(run.values, r);
    report.totals.add(run.values, r);
    report.runs.push_back(std::move(run));
  }
  return report;
}

bool SweepReport::passed() const {
  return totals.metrics.count("stranded") == 0 &&
         totals.metrics.count("lifecycle_violations") == 0 &&
         totals.metrics.count("audit_violations") == 0;
}

void SweepReport::write_json(std::ostream& out) const {
  out << "{\"schema\":\"aria-sweep-report-v2\",\"metrics\":[";
  const auto metrics = run_metrics();
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) out << ',';
    out << "{\"name\":\"" << metrics[i].name << "\",\"unit\":\""
        << metrics[i].unit << "\",\"plane\":\""
        << workload::plane_name(metrics[i].plane) << "\"}";
  }
  out << "],\"rows\":[";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const RowSummary& row = rows[i];
    if (i != 0) out << ',';
    out << "{\"label\":\"" << row.label << "\",\"scenario\":\""
        << row.scenario << "\",\"nodes\":" << row.nodes
        << ",\"jobs\":" << row.jobs << ",\"base_seed\":" << row.base_seed
        << ',';
    write_fold(out, row);
    out << '}';
  }
  out << "],\"totals\":{";
  write_fold(out, totals);
  out << "}}\n";
}

void SweepReport::write_summary_csv(std::ostream& out) const {
  out << "label,scenario,runs,nodes,jobs,base_seed";
  const auto metrics = run_metrics();
  for (const workload::RunMetric& m : metrics) {
    if (m.fold == Fold::stats) {
      for (const char* stat : {"_mean", "_stddev", "_min", "_max"}) {
        out << ',' << m.name << stat;
      }
    } else {
      out << ',' << m.name;
    }
  }
  out << '\n';
  for (const RowSummary& row : rows) {
    out << row.label << ',' << row.scenario << ',' << row.runs() << ','
        << row.nodes << ',' << row.jobs << ',' << row.base_seed;
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      if (metrics[i].fold == Fold::stats) {
        const RunningStats& s = row.metrics.stats(i);
        out << ',' << format_metric(s.mean()) << ','
            << format_metric(s.stddev()) << ',' << format_metric(s.min())
            << ',' << format_metric(s.max());
      } else {
        out << ',' << format_metric(row.metrics.value(i));
      }
    }
    out << '\n';
  }
}

void SweepReport::write_runs_csv(std::ostream& out) const {
  out << "label,scenario,seed";
  for (const workload::RunMetric& m : run_metrics()) out << ',' << m.name;
  out << '\n';
  for (const RunRow& run : runs) {
    out << run.label << ',' << run.scenario << ',' << run.seed;
    for (const workload::MetricValue& v : run.values) {
      out << ',' << format_metric(v);
    }
    out << '\n';
  }
}

}  // namespace aria::sweep
