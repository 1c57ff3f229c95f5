// Single-simulation workloads: the untraced run behind the end-to-end
// metrics and the traced run behind the per-layer metrics.
#include <memory>

#include "layers.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

SchedKinds sched_kinds(const aria::workload::ScenarioConfig& config) {
  SchedKinds kinds;
  for (const auto k : config.scheduler_mix) kinds.emplace_back(k, config.jobs);
  return kinds;
}

std::unique_ptr<aria::workload::GridSimulation> set_up(
    const aria::workload::ScenarioConfig& config, std::uint64_t seed) {
  auto g = std::make_unique<aria::workload::GridSimulation>(config, seed);
  g->build();
  return g;
}

}  // namespace

std::vector<double> time_setups_single(const Workload& w, const RunArgs& args) {
  const aria::workload::ScenarioConfig config = make_config(w);
  std::vector<double> setup_s;
  for (std::size_t i = 0; i < args.setup_reps; ++i) {
    const auto t0 = Clock::now();
    const auto g = set_up(config, args.seed);
    setup_s.push_back(seconds_since(t0));
  }
  return setup_s;
}

RunOutput run_plain_single(const Workload& w, const RunArgs& args) {
  const aria::workload::ScenarioConfig config = make_config(w);
  std::vector<double> setup_s;
  double run_s = 0.0;
  GateFields gate;
  {
    auto t0 = Clock::now();
    auto g = set_up(config, args.seed);
    setup_s.push_back(seconds_since(t0));
    t0 = Clock::now();
    const aria::workload::RunResult r = g->run();
    run_s = seconds_since(t0);
    gate.add(r);
    gate.fingerprint = fnv1a_hex(aria::workload::run_fingerprint(r));
  }
  // The remaining set-ups run after the simulation and its result are gone,
  // so they reuse freed memory and leave the process's peak RSS to the run.
  for (std::size_t i = 1; i < args.setup_reps; ++i) {
    const auto t0 = Clock::now();
    const auto g = set_up(config, args.seed);
    setup_s.push_back(seconds_since(t0));
  }

  RunOutput out;
  out.line.list("setup_s", setup_s).num("run_s", run_s);
  gate.write(out.line);
  return out;
}

RunOutput run_traced_single(const Workload& w, const RunArgs& args) {
  const aria::workload::ScenarioConfig config = make_config(w);
  SpanRecorder spans;
  LayerTotals totals;
  GateFields gate;
  std::vector<RecordedSend> sends;
  Probes probes;
  {
    SpanRecorder::Scope root(spans, "traced " + w.name);
    const aria::overlay::Topology final_topology = trace_one(
        config, args.seed, args.replay_every, spans, totals, gate, sends);
    probe_overlay(final_topology, runs_blatant(config), args.seed, spans,
                  probes);
    probes.send_ns = probe_network(sends, args.seed, spans);
    probe_sched(sched_kinds(config), args.seed, spans, probes);
  }
  MetricTable metrics;
  fill_layer_metrics(totals, probes, metrics);

  // The traced interval that corresponds to the plain run's run_s.
  const double traced_run_s = totals.loop_s + totals.collect_s;
  RunOutput out;
  out.ok = args.spans_path.empty() || spans.write(args.spans_path);
  JsonLine table;
  for (const auto& [name, value] : metrics) table.num(name, value);
  out.line.num("traced_run_s", traced_run_s)
      .count("replayed_sends", sends.size())
      .object("layers", table);
  gate.write(out.line);
  return out;
}

}  // namespace perfbench
