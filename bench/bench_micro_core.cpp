// Microbenchmarks of the hot paths a protocol round exercises: cost
// functions over realistic queue depths, scheduler queue operations, flood
// target selection, raw simulator event throughput, and the network
// send/deliver/metering path. Run the binary directly; the `Simulator*`,
// `Network*` and `Traffic*` benches cover the event kernel:
//
//   ./build/bench/bench_micro_core
//       --benchmark_filter='Simulator|Network|Traffic' --benchmark_repetitions=3
#include <benchmark/benchmark.h>

#include "core/messages.hpp"
#include "overlay/bootstrap.hpp"
#include "overlay/flooding.hpp"
#include "sched/policies.hpp"
#include "sim/latency.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "sim/traffic.hpp"

namespace {

using namespace aria;
using namespace aria::literals;

grid::JobSpec make_job(Rng& rng, Duration ert,
                       std::optional<TimePoint> deadline = {}) {
  grid::JobSpec j;
  j.id = JobId::generate(rng);
  j.ert = ert;
  j.deadline = deadline;
  return j;
}

template <typename Sched>
void fill_queue(Sched& s, Rng& rng, std::size_t depth, bool deadlines) {
  for (std::size_t i = 0; i < depth; ++i) {
    const Duration ert = Duration::minutes(rng.uniform_int(60, 240));
    auto spec = make_job(
        rng, ert,
        deadlines ? std::optional<TimePoint>{TimePoint::origin() + 10_h}
                  : std::nullopt);
    s.enqueue({spec, ert, TimePoint::origin(), 0});
  }
}

void BM_EttcCostOfAdding(benchmark::State& state) {
  Rng rng{1};
  sched::SjfScheduler s;
  fill_queue(s, rng, static_cast<std::size_t>(state.range(0)), false);
  const auto job = make_job(rng, 2_h);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        s.cost_of_adding(job, 90_min, 30_min, TimePoint::origin()));
  }
}
BENCHMARK(BM_EttcCostOfAdding)->Arg(0)->Arg(4)->Arg(16)->Arg(64);

void BM_NalCostOfAdding(benchmark::State& state) {
  Rng rng{2};
  sched::EdfScheduler s;
  fill_queue(s, rng, static_cast<std::size_t>(state.range(0)), true);
  const auto job = make_job(rng, 2_h, TimePoint::origin() + 8_h);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        s.cost_of_adding(job, 90_min, 30_min, TimePoint::origin()));
  }
}
BENCHMARK(BM_NalCostOfAdding)->Arg(0)->Arg(4)->Arg(16)->Arg(64);

void BM_SchedulerEnqueuePop(benchmark::State& state) {
  Rng rng{3};
  sched::SjfScheduler s;
  for (auto _ : state) {
    auto spec = make_job(rng, Duration::minutes(rng.uniform_int(60, 240)));
    s.enqueue({spec, spec.ert, TimePoint::origin(), 0});
    if (s.size() > 32) benchmark::DoNotOptimize(s.pop_next());
  }
}
BENCHMARK(BM_SchedulerEnqueuePop);

void BM_ReschedulingCandidates(benchmark::State& state) {
  Rng rng{4};
  sched::FcfsScheduler s;
  fill_queue(s, rng, 32, false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        s.rescheduling_candidates(2, 30_min, TimePoint::origin()));
  }
}
BENCHMARK(BM_ReschedulingCandidates);

void BM_FloodPickTargets(benchmark::State& state) {
  Rng rng{5};
  overlay::Topology topo = overlay::bootstrap_random(500, 4.0, rng);
  overlay::FloodRelay relay{topo, rng.fork(1)};
  std::uint32_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(relay.pick_targets(NodeId{i++ % 500}, 4));
  }
}
BENCHMARK(BM_FloodPickTargets);

void BM_FloodMarkSeen(benchmark::State& state) {
  Rng rng{6};
  overlay::Topology topo;
  overlay::FloodRelay relay{topo, rng.fork(1)};
  const Uuid flood = Uuid::generate(rng);
  std::uint32_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(relay.mark_seen(NodeId{i++}, flood));
  }
}
BENCHMARK(BM_FloodMarkSeen);

void BM_SimulatorEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    sim::Simulator simulator;
    Rng rng{7};
    for (int i = 0; i < 10000; ++i) {
      simulator.schedule_after(rng.uniform_duration(0_s, 1_h), [] {});
    }
    state.ResumeTiming();
    simulator.run();
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_SimulatorEventThroughput)->Unit(benchmark::kMillisecond);

// Schedule + cancel half + drain: the watchdog/timeout churn pattern every
// protocol round produces (every REQUEST arms a timeout that is usually
// cancelled before it fires).
void BM_SimulatorScheduleCancelDispatch(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator simulator;
    Rng rng{11};
    std::vector<sim::EventHandle> handles;
    handles.reserve(10000);
    for (int i = 0; i < 10000; ++i) {
      handles.push_back(
          simulator.schedule_after(rng.uniform_duration(0_s, 1_h), [] {}));
    }
    for (std::size_t i = 0; i < handles.size(); i += 2) handles[i].cancel();
    simulator.run();
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_SimulatorScheduleCancelDispatch)->Unit(benchmark::kMillisecond);

// Re-arm churn: cancel + reschedule the same logical timer over and over
// (the failsafe watchdog pattern). Dead entries must not accumulate.
void BM_SimulatorCancelRearmChurn(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator simulator;
    sim::EventHandle h;
    for (int i = 0; i < 10000; ++i) {
      h.cancel();
      h = simulator.schedule_after(10_h, [] {});
    }
    simulator.run();
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_SimulatorCancelRearmChurn)->Unit(benchmark::kMillisecond);

// A single periodic timer ticking many times (INFORM/maintenance timers).
void BM_SimulatorPeriodicTicks(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator simulator;
    std::uint64_t ticks = 0;
    simulator.schedule_periodic(0_s, 1_s, [&] { ++ticks; });
    simulator.run_until(TimePoint::origin() + Duration::seconds(9999));
    benchmark::DoNotOptimize(ticks);
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_SimulatorPeriodicTicks)->Unit(benchmark::kMillisecond);

// Many interleaved run_until() horizons over a periodic-heavy queue:
// stresses the deadline boundary (peek vs pop+push-back).
void BM_SimulatorRunUntilBoundaries(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator simulator;
    std::uint64_t ticks = 0;
    for (int p = 0; p < 8; ++p) {
      simulator.schedule_periodic(Duration::millis(125 * p), 1_s,
                                  [&] { ++ticks; });
    }
    for (int slice = 1; slice <= 1000; ++slice) {
      simulator.run_until(TimePoint::origin() +
                          Duration::millis(10 * slice));
    }
    benchmark::DoNotOptimize(ticks);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SimulatorRunUntilBoundaries)->Unit(benchmark::kMillisecond);

// Full network hot path: one send = metering + event + delivery dispatch.
void BM_NetworkSendDeliver(benchmark::State& state) {
  sim::Simulator simulator;
  sim::Network net{simulator,
                   std::make_unique<sim::FixedLatencyModel>(Duration::millis(5)),
                   Rng{12}};
  net.attach(NodeId{0}, [](sim::Envelope) {});
  net.attach(NodeId{1}, [](sim::Envelope) {});
  Rng rng{13};
  for (auto _ : state) {
    net.send(NodeId{0}, NodeId{1},
             std::make_unique<proto::AcceptMsg>(NodeId{0},
                                                JobId::generate(rng), 1.0));
    simulator.run();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NetworkSendDeliver);

// Traffic metering alone, via the string-keyed convenience entry point.
void BM_TrafficRecordByName(benchmark::State& state) {
  sim::TrafficLedger ledger;
  for (auto _ : state) {
    ledger.record("REQUEST", 1024);
    benchmark::DoNotOptimize(ledger);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TrafficRecordByName);

void BM_TopologyBfsDistance(benchmark::State& state) {
  Rng rng{8};
  overlay::Topology topo = overlay::bootstrap_random(500, 4.0, rng);
  std::uint32_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        topo.distance(NodeId{i % 500}, NodeId{(i * 13 + 7) % 500}));
    ++i;
  }
}
BENCHMARK(BM_TopologyBfsDistance);

void BM_RngNormal(benchmark::State& state) {
  Rng rng{9};
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.normal(150.0, 75.0));
  }
}
BENCHMARK(BM_RngNormal);

}  // namespace
