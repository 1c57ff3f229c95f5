#include "workloads.hpp"

#include <stdexcept>

namespace perfbench {

namespace {

Workload single(std::string name, aria::workload::CliOptions o) {
  Workload w;
  w.name = std::move(name);
  w.options = std::move(o);
  return w;
}

std::vector<Workload> make_workloads() {
  std::vector<Workload> out;

  // aria_sim --scenario iMixed: the paper's headline 500-node / 1000-job
  // flat BLATANT run with rescheduling.
  aria::workload::CliOptions paper;
  paper.scenario = "iMixed";
  out.push_back(single("paper-imixed", paper));

  // aria_sim --scenario iMixed --nodes 2000 --jobs 400 --hierarchy
  aria::workload::CliOptions hier;
  hier.scenario = "iMixed";
  hier.nodes = 2000;
  hier.jobs = 400;
  hier.hierarchy = true;
  out.push_back(single("hier-2k", hier));

  // aria_sim --scenario iMixed --nodes 300 --jobs 200 --healing --churn
  aria::workload::CliOptions heal;
  heal.scenario = "iMixed";
  heal.nodes = 300;
  heal.jobs = 200;
  heal.healing = true;
  heal.churn = true;
  out.push_back(single("healing-churn", heal));

  // aria_sweep --preset table2-smoke --seeds 2 --workers 2, every row with
  // --horizon 3600: the preset's 30 h horizon ends before the last job of
  // some seeds has finished (README.md, "Known defects").
  Workload sweep;
  sweep.name = "sweep-table2";
  sweep.sweep = true;
  sweep.preset = "table2-smoke";
  sweep.preset_seeds = 2;
  sweep.workers = 2;
  sweep.horizon_min = 60.0 * 60.0;
  out.push_back(std::move(sweep));
  return out;
}

}  // namespace

const Workload& workload_by_name(const std::string& name) {
  static const std::vector<Workload> all = make_workloads();
  for (const auto& w : all) {
    if (w.name == name) return w;
  }
  throw std::invalid_argument("unknown workload: " + name);
}

aria::workload::ScenarioConfig make_config(const Workload& w) {
  return aria::workload::resolve_scenario(w.options);
}

}  // namespace perfbench
