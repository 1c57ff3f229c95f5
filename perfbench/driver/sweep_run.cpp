// Sweep workloads: a preset matrix through sweep::run_all and the report
// writers, untraced and traced.
#include <algorithm>
#include <optional>
#include <sstream>

#include "layers.hpp"
#include "sweep/report.hpp"
#include "sweep/runner.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace sweep = aria::sweep;

std::vector<sweep::RunSpec> expand(const Workload& w, std::uint64_t seed) {
  const auto preset = sweep::SweepMatrix::preset(w.preset, w.preset_seeds, seed);
  sweep::SweepMatrix matrix;
  for (auto entry : preset.entries()) {
    entry.options.horizon_min = w.horizon_min;
    matrix.add(std::move(entry));
  }
  return matrix.expand();
}

/// The three merged report files, concatenated: the sweep's output and the
/// bytes its determinism contract is stated on.
std::string write_reports(const sweep::SweepReport& report,
                          SpanRecorder* spans) {
  std::ostringstream json;
  std::ostringstream summary;
  std::ostringstream runs;
  {
    std::optional<SpanRecorder::Scope> s;
    if (spans) s.emplace(*spans, "sweep.write_json");
    report.write_json(json);
  }
  {
    std::optional<SpanRecorder::Scope> s;
    if (spans) s.emplace(*spans, "sweep.write_summary_csv");
    report.write_summary_csv(summary);
  }
  {
    std::optional<SpanRecorder::Scope> s;
    if (spans) s.emplace(*spans, "sweep.write_runs_csv");
    report.write_runs_csv(runs);
  }
  return json.str() + summary.str() + runs.str();
}

}  // namespace

std::vector<double> time_setups_sweep(const Workload& w, const RunArgs& args) {
  std::vector<double> setup_s;
  std::vector<sweep::RunSpec> specs;
  for (std::size_t i = 0; i < args.setup_reps; ++i) {
    const auto t0 = Clock::now();
    specs = expand(w, args.seed);
    setup_s.push_back(seconds_since(t0));
  }
  return setup_s;
}

RunOutput run_plain_sweep(const Workload& w, const RunArgs& args) {
  std::vector<double> setup_s;
  std::vector<sweep::RunSpec> specs;
  for (std::size_t i = 0; i < std::max<std::size_t>(args.setup_reps, 1); ++i) {
    const auto t0 = Clock::now();
    specs = expand(w, args.seed);
    setup_s.push_back(seconds_since(t0));
  }
  const auto t0 = Clock::now();
  const auto results = sweep::run_all(specs, {.workers = w.workers});
  const std::string reports =
      write_reports(sweep::SweepReport::build(specs, results), nullptr);
  const double run_s = seconds_since(t0);

  GateFields gate;
  for (const auto& r : results) gate.add(r);
  gate.fingerprint = fnv1a_hex(reports);
  RunOutput out;
  out.line.list("setup_s", setup_s).num("run_s", run_s);
  gate.write(out.line);
  return out;
}

RunOutput run_traced_sweep(const Workload& w, const RunArgs& args) {
  SpanRecorder spans;
  GateFields gate;
  LayerTotals totals;
  Probes probes;
  MetricTable metrics;
  std::vector<RecordedSend> sends;
  std::uint64_t mismatches = 0;
  double traced_run_s = 0.0;
  {
    SpanRecorder::Scope root(spans, "traced " + w.name);
    std::vector<sweep::RunSpec> specs;
    {
      SpanRecorder::Scope s(spans, "sweep.expand");
      specs = expand(w, args.seed);
    }

    std::vector<aria::workload::RunResult> results;
    std::size_t progress_calls = 0;
    double run_all_s = 0.0;
    {
      SpanRecorder::Scope s(spans, "sweep.run_all");
      sweep::RunnerOptions options{.workers = w.workers};
      options.progress = [&](std::size_t, std::size_t, const sweep::RunSpec&) {
        ++progress_calls;  // serialized by run_all
      };
      results = sweep::run_all(specs, options);
      run_all_s = s.elapsed();
    }
    double report_s = 0.0;
    {
      SpanRecorder::Scope s(spans, "sweep.report");
      const sweep::SweepReport report = [&] {
        SpanRecorder::Scope b(spans, "sweep.report_build");
        return sweep::SweepReport::build(specs, results);
      }();
      gate.fingerprint = fnv1a_hex(write_reports(report, &spans));
      report_s = s.elapsed();
    }
    traced_run_s = run_all_s + report_s;
    for (const auto& r : results) gate.add(r);

    double busy_s = 0.0;
    double slowest_s = 0.0;
    for (const auto& r : results) {
      busy_s += r.wall_seconds;
      slowest_s = std::max(slowest_s, r.wall_seconds);
    }
    if (progress_calls != specs.size()) ++mismatches;

    // Every spec again, serially and traced: per-layer counts for the whole
    // sweep, and each traced fingerprint checked against run_all's result.
    // The network replay uses every send of the first spec (a short run, so
    // within the recorder's bound); --replay-every does not apply here.
    aria::overlay::Topology first_topology;
    std::vector<RecordedSend> discard;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      GateFields one;
      auto topo = trace_one(specs[i].config, specs[i].seed,
                            i == 0 ? 1 : UINT64_MAX, spans, totals, one,
                            i == 0 ? sends : discard);
      if (one.fingerprint !=
          fnv1a_hex(aria::workload::run_fingerprint(results[i]))) {
        ++mismatches;
      }
      if (i == 0) first_topology = std::move(topo);
    }

    probe_overlay(first_topology, runs_blatant(specs.front().config),
                  specs.front().seed, spans, probes);
    probes.send_ns = probe_network(sends, specs.front().seed, spans);
    SchedKinds kinds;
    for (const auto& spec : specs) {
      for (const auto k : spec.config.scheduler_mix) {
        const bool seen = std::any_of(kinds.begin(), kinds.end(),
                                      [&](const auto& e) { return e.first == k; });
        if (!seen) kinds.emplace_back(k, spec.config.jobs);
      }
    }
    probe_sched(kinds, args.seed, spans, probes);

    fill_layer_metrics(totals, probes, metrics);
    metrics["sweep.busy_frac"] =
        busy_s / (static_cast<double>(w.workers) * run_all_s);
    metrics["sweep.run_s.max"] = slowest_s;
    metrics["sweep.report_s"] = report_s;
  }

  RunOutput out;
  out.ok = args.spans_path.empty() || spans.write(args.spans_path);
  JsonLine table;
  for (const auto& [name, value] : metrics) table.num(name, value);
  out.line.num("traced_run_s", traced_run_s)
      .count("replayed_sends", sends.size())
      .count("traced_spec_mismatches", mismatches)
      .object("layers", table);
  gate.write(out.line);
  return out;
}

}  // namespace perfbench
