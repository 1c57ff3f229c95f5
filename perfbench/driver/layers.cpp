#include "layers.hpp"

#include <algorithm>
#include <memory>

#include "overlay/blatant.hpp"
#include "sim/latency.hpp"
#include "workload/jobgen.hpp"

namespace perfbench {

namespace {

using aria::NodeId;
using aria::TimePoint;
namespace sim = aria::sim;

std::uint64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

/// Keeps the sends the Network's own sampling gate passes on, up to a
/// bound, for the replay probe.
class SendSampler final : public sim::MessageTap {
 public:
  explicit SendSampler(std::vector<RecordedSend>& sends) : sends_{sends} {}

  void on_message(NodeId from, NodeId to, const sim::Message& message,
                  TimePoint sent, TimePoint, bool) override {
    if (sends_.size() >= kMaxRecorded) return;
    sends_.push_back(RecordedSend{
        from, to, message.type_id(),
        static_cast<std::uint32_t>(message.wire_size()), sent});
  }

 private:
  // Bounds the replay sample's memory (about 6 MB).
  static constexpr std::size_t kMaxRecorded = 250'000;

  std::vector<RecordedSend>& sends_;
};

/// A wire message with only a type and a size, for the replay probe.
class ReplayMessage final : public sim::Message {
 public:
  ReplayMessage(sim::MessageTypeId type, std::size_t bytes)
      : type_{type}, bytes_{bytes} {}
  std::size_t wire_size() const override { return bytes_; }
  sim::MessageTypeId type_id() const override { return type_; }

 private:
  sim::MessageTypeId type_;
  std::size_t bytes_;
};

}  // namespace

const std::vector<std::string>& reported_types() {
  static const std::vector<std::string> types{
      "REQUEST", "ACCEPT", "ASSIGN", "INFORM",
      "REGION_LOAD", "REGION_DIGEST", "PING", "PONG"};
  return types;
}

void GateFields::add(const aria::workload::RunResult& r) {
  submitted += r.tracker.submitted_count() + r.submissions_dropped;
  completed += r.completed();
  abandoned += r.tracker.abandoned_count() + r.tracker.unschedulable_count();
  stranded += r.stranded();
  violations += r.tracker.violations().size();
  if (first_violation.empty() && !r.tracker.violations().empty()) {
    first_violation = r.tracker.violations().front();
  }
  audit_violations += r.audit_violations;
  completion_minutes_sum +=
      r.mean_completion_minutes() * static_cast<double>(r.completed());
  const auto total = r.traffic.total();
  wire_bytes += total.bytes;
  sent += total.messages;
  events += r.events_fired;
  for (std::size_t i = 0; i < reported_types().size(); ++i) {
    sent_by_type[i] += r.traffic.of(reported_types()[i]).messages;
  }
}

void GateFields::write(JsonLine& line) const {
  JsonLine by_type;
  for (std::size_t i = 0; i < reported_types().size(); ++i) {
    by_type.count(reported_types()[i], sent_by_type[i]);
  }
  line.count("submitted", submitted)
      .count("completed", completed)
      .count("abandoned", abandoned)
      .count("stranded", stranded)
      .count("violations", violations)
      .count("audit_violations", audit_violations)
      .str("first_violation", first_violation)
      .num("completion_min",
           completed == 0 ? 0.0
                          : completion_minutes_sum /
                                static_cast<double>(completed))
      .count("wire_bytes", wire_bytes)
      .count("events", events)
      .count("sent", sent)
      .object("sent_by_type", by_type)
      .str("fingerprint", fingerprint);
}

bool runs_blatant(const aria::workload::ScenarioConfig& config) {
  return !config.aria.hierarchy.enabled &&
         config.overlay_family ==
             aria::workload::ScenarioConfig::OverlayFamily::kBlatant;
}

std::uint64_t blatant_ticks(const aria::workload::ScenarioConfig& config) {
  if (!runs_blatant(config)) return 0;
  return static_cast<std::uint64_t>(config.horizon.count_micros() /
                                    config.maintenance_period.count_micros());
}

aria::overlay::Topology trace_one(const aria::workload::ScenarioConfig& config,
                                  std::uint64_t seed,
                                  std::uint64_t replay_every,
                                  SpanRecorder& spans, LayerTotals& totals,
                                  GateFields& gate,
                                  std::vector<RecordedSend>& sends) {
  SpanRecorder::Scope root(spans, "run");
  const auto setup_start = Clock::now();
  std::unique_ptr<aria::workload::GridSimulation> g;
  {
    SpanRecorder::Scope s(spans, "workload.construct");
    g = std::make_unique<aria::workload::GridSimulation>(config, seed);
  }
  {
    SpanRecorder::Scope s(spans, "workload.build");
    g->build();
  }
  totals.build_s += seconds_since(setup_start);

  SendSampler sampler(sends);
  g->network().set_tap(&sampler, replay_every);
  sim::Simulator& kernel = g->simulator();
  const TimePoint deadline = TimePoint::origin() + config.horizon;
  std::uint64_t heap_peak = kernel.pending_events();
  {
    SpanRecorder::Scope s(spans, "sim.loop");
    // Timing every step would double the loop's cost on this kernel's
    // ~0.5 us events, so one step in kStepSample is timed.
    constexpr std::uint64_t kStepSample = 16;
    for (std::uint64_t n = 0;; ++n) {
      const auto next = kernel.peek();
      if (!next || *next > deadline) break;
      if (n % kStepSample == 0) {
        const auto t0 = Clock::now();
        kernel.step();
        totals.steps.add(ns_between(t0, Clock::now()));
      } else {
        kernel.step();
      }
      heap_peak = std::max<std::uint64_t>(heap_peak, kernel.pending_events());
    }
    totals.loop_s += s.elapsed();
  }
  totals.events += kernel.fired_events();
  totals.deliveries +=
      g->network().delivered_messages() + g->network().dropped_messages();
  totals.dropped += g->network().dropped_messages();
  totals.heap_peak = std::max(totals.heap_peak, heap_peak);
  totals.compactions += kernel.compactions();

  aria::workload::RunResult r;
  {
    SpanRecorder::Scope s(spans, "workload.collect");
    r = g->run();
    totals.collect_s += s.elapsed();
  }
  g->network().set_tap(nullptr);
  const sim::TrafficLedger& ledger = g->network().traffic();
  totals.sent += ledger.total().messages;
  totals.bytes += ledger.total().bytes;
  for (std::size_t i = 0; i < reported_types().size(); ++i) {
    const auto e = ledger.of(reported_types()[i]);
    totals.sent_by_type[i] += e.messages;
    totals.bytes_by_type[i] += e.bytes;
  }

  totals.submitted += r.tracker.submitted_count() + r.submissions_dropped;
  totals.reschedules += r.tracker.total_reschedules();
  totals.recoveries += r.tracker.total_recoveries();
  totals.links += r.overlay_links;
  totals.evictions += r.neighbor_evictions;
  totals.repair_links += r.repair_links;
  totals.blatant_ticks += blatant_ticks(config);
  gate.add(r);
  gate.fingerprint = fnv1a_hex(aria::workload::run_fingerprint(r));
  return g->topology();
}

void probe_overlay(const aria::overlay::Topology& final_topology, bool blatant,
                   std::uint64_t seed, SpanRecorder& spans, Probes& out) {
  if (blatant) {
    SpanRecorder::Scope s(spans, "overlay.blatant_tick");
    aria::overlay::Topology copy = final_topology;
    aria::overlay::BlatantMaintainer maintainer(
        copy, aria::overlay::BlatantParams{}, aria::Rng(seed).fork(6));
    std::vector<double> ms;
    for (int i = 0; i < 20; ++i) {
      const auto t0 = Clock::now();
      maintainer.tick();
      ms.push_back(seconds_since(t0) * 1e3);
    }
    out.blatant_tick_ms = median(ms);
  }
  const std::vector<NodeId> nodes = final_topology.nodes();
  if (nodes.size() >= 2) {
    SpanRecorder::Scope s(spans, "overlay.distance");
    aria::Rng rng = aria::Rng(seed).fork(0xD157);
    constexpr int kPairs = 2000;
    std::vector<std::pair<NodeId, NodeId>> pairs;
    for (int i = 0; i < kPairs; ++i) {
      const auto pick = [&] {
        return nodes[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(nodes.size()) - 1))];
      };
      pairs.emplace_back(pick(), pick());
    }
    std::size_t sink = 0;
    const auto t0 = Clock::now();
    for (const auto& [a, b] : pairs) {
      sink += final_topology.distance(a, b).value_or(0);
    }
    out.distance_us = seconds_since(t0) * 1e6 / kPairs;
    if (sink == SIZE_MAX) out.distance_us = 0.0;  // keeps `sink` live
  }
  {
    SpanRecorder::Scope s(spans, "overlay.apl");
    std::vector<double> ms;
    double total = 0.0;
    double sink = 0.0;
    while (ms.size() < 5 && (ms.size() < 3 || total < 0.3)) {
      const auto t0 = Clock::now();
      sink += final_topology.average_path_length();
      ms.push_back(seconds_since(t0) * 1e3);
      total += ms.back() / 1e3;
    }
    out.apl_ms = median(ms);
    if (sink < 0.0) out.apl_ms = 0.0;  // keeps `sink` live
  }
}

double probe_network(const std::vector<RecordedSend>& sends,
                     std::uint64_t seed, SpanRecorder& spans) {
  if (sends.empty()) return 0.0;
  SpanRecorder::Scope s(spans, "net.replay");
  sim::Simulator kernel;
  // The engine's latency model: GeoLatencyModel seeded from the run seed
  // (GridSimulation::build).
  sim::Network net(kernel,
                   std::make_unique<sim::GeoLatencyModel>(
                       sim::GeoLatencyModel::Params{.seed = seed ^ 0xA51C17ULL}),
                   aria::Rng(seed).fork(1));
  std::uint32_t max_id = 0;
  for (const auto& m : sends) {
    max_id = std::max({max_id, m.from.value(), m.to.value()});
  }
  for (std::uint32_t id = 0; id <= max_id; ++id) {
    net.attach(NodeId{id}, [](sim::Envelope) {});
  }
  const auto t0 = Clock::now();
  for (const auto& m : sends) {
    kernel.run_until(m.at);
    net.send(m.from, m.to, std::make_unique<ReplayMessage>(m.type, m.bytes));
  }
  kernel.run();
  return seconds_since(t0) * 1e9 / static_cast<double>(sends.size());
}

void probe_sched(const SchedKinds& kinds, std::uint64_t seed,
                 SpanRecorder& spans, Probes& out) {
  SpanRecorder::Scope s(spans, "sched.probe");
  constexpr std::size_t kDepth = 32;
  constexpr std::size_t kBlocks = 200;
  double enqueue_s = 0.0;
  double ettc_s = 0.0;
  std::uint64_t ops = 0;
  std::int64_t sink = 0;
  for (const auto& [kind, params] : kinds) {
    aria::workload::JobGenerator gen(params, aria::Rng(seed).fork(0x5C4ED));
    const auto scheduler = aria::sched::make_scheduler(kind);
    for (std::size_t b = 0; b < kBlocks; ++b) {
      const TimePoint now =
          TimePoint::origin() + aria::Duration::minutes(static_cast<std::int64_t>(b));
      std::vector<aria::grid::JobSpec> jobs;
      for (std::size_t i = 0; i < kDepth; ++i) jobs.push_back(gen.next(now));
      auto t0 = Clock::now();
      for (const auto& j : jobs) {
        scheduler->enqueue(aria::sched::QueuedJob{j, j.ert, now, 0});
      }
      enqueue_s += seconds_since(t0);
      t0 = Clock::now();
      for (const auto& j : jobs) {
        sink += scheduler->ettc_of(j.id, aria::Duration::minutes(30))
                    .count_micros();
      }
      ettc_s += seconds_since(t0);
      while (scheduler->pop_next()) {
      }
      ops += kDepth;
    }
  }
  if (ops == 0) return;
  out.enqueue_ns = enqueue_s * 1e9 / static_cast<double>(ops);
  out.ettc_ns = ettc_s * 1e9 / static_cast<double>(ops);
  if (sink == INT64_MIN) out.ettc_ns = 0.0;  // keeps `sink` live
}

void fill_layer_metrics(const LayerTotals& t, const Probes& p,
                        MetricTable& out) {
  const auto ratio = [](double num, double den) {
    return den == 0.0 ? 0.0 : num / den;
  };
  const auto sent_of = [&](const std::string& type) {
    const auto& types = reported_types();
    const auto it = std::find(types.begin(), types.end(), type);
    return static_cast<double>(
        t.sent_by_type[static_cast<std::size_t>(it - types.begin())]);
  };

  out["workload.build_s"] = t.build_s;
  out["workload.collect_s"] = t.collect_s;

  out["sim.events"] = static_cast<double>(t.events);
  out["sim.timer_events"] = static_cast<double>(t.events - t.deliveries);
  out["sim.delivery_events"] = static_cast<double>(t.deliveries);
  out["sim.loop_s"] = t.loop_s;
  out["sim.ns_per_event"] = ratio(t.loop_s * 1e9, static_cast<double>(t.events));
  out["sim.step_ns.p50"] = t.steps.quantile(0.50);
  out["sim.step_ns.p99"] = t.steps.quantile(0.99);
  out["sim.heap_peak"] = static_cast<double>(t.heap_peak);
  out["sim.compactions"] = static_cast<double>(t.compactions);

  out["net.sent"] = static_cast<double>(t.sent);
  out["net.bytes"] = static_cast<double>(t.bytes);
  out["net.dropped"] = static_cast<double>(t.dropped);
  for (std::size_t i = 0; i < reported_types().size(); ++i) {
    out["net.sent." + reported_types()[i]] =
        static_cast<double>(t.sent_by_type[i]);
    out["net.bytes." + reported_types()[i]] =
        static_cast<double>(t.bytes_by_type[i]);
  }
  out["net.send_ns"] = p.send_ns;

  const double blatant_s = static_cast<double>(t.blatant_ticks) *
                           p.blatant_tick_ms / 1e3;
  out["overlay.blatant_tick_ms"] = p.blatant_tick_ms;
  out["overlay.blatant_ticks"] = static_cast<double>(t.blatant_ticks);
  out["overlay.blatant_s_est"] = blatant_s;
  out["overlay.distance_us"] = p.distance_us;
  out["overlay.apl_ms"] = p.apl_ms;
  out["overlay.links"] = static_cast<double>(t.links);
  out["overlay.evictions"] = static_cast<double>(t.evictions);
  out["overlay.repair_links"] = static_cast<double>(t.repair_links);
  out["overlay.probe_yield"] =
      ratio(static_cast<double>(t.evictions), sent_of("PING"));

  out["core.reschedules"] = static_cast<double>(t.reschedules);
  out["core.inform_yield"] =
      ratio(static_cast<double>(t.reschedules), sent_of("INFORM"));
  out["core.requests_per_job"] =
      ratio(sent_of("REQUEST"), static_cast<double>(t.submitted));
  out["core.accepts_per_request"] = ratio(sent_of("ACCEPT"), sent_of("REQUEST"));
  out["core.failsafe_recoveries"] = static_cast<double>(t.recoveries);
  out["core.residual_s"] = t.loop_s -
                           p.send_ns * static_cast<double>(t.sent) / 1e9 -
                           blatant_s;

  out["sched.enqueue_ns"] = p.enqueue_ns;
  out["sched.ettc_ns"] = p.ettc_ns;

  out["sweep.busy_frac"] = 0.0;
  out["sweep.run_s.max"] = 0.0;
  out["sweep.report_s"] = 0.0;
}

}  // namespace perfbench
