// aria_perfbench: runs one benchmark workload once and prints one JSON line.
//
//   aria_perfbench info
//   aria_perfbench plain  --workload NAME --seed S [--setup-reps N]
//   aria_perfbench setup  --workload NAME --seed S [--setup-reps N]
//   aria_perfbench traced --workload NAME --seed S [--replay-every K]
//                         [--spans PATH]
//
// perfbench/run.py starts one process per run, so each run's peak memory
// is measured on its own; it owns the loop, the medians and the gate.
#include <exception>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace {

const char kUsage[] =
    "usage: aria_perfbench info\n"
    "       aria_perfbench plain  --workload NAME --seed S [--setup-reps N]\n"
    "       aria_perfbench setup  --workload NAME --seed S [--setup-reps N]\n"
    "       aria_perfbench traced --workload NAME --seed S [--replay-every K]"
    " [--spans PATH]\n";

#ifdef NDEBUG
constexpr bool kAssertsOn = false;
#else
constexpr bool kAssertsOn = true;
#endif

/// Peak resident set of this process's address space since exec, in KiB
/// (VmHWM; 0 where /proc is unavailable). getrusage's ru_maxrss is not used
/// because Linux carries the parent's peak across fork and exec into it.
std::uint64_t peak_rss_kib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stoull(line.substr(6));
  }
  return 0;
}

/// Lowers VmHWM to the current resident set (Linux `clear_refs` value 5).
/// False where the kernel does not allow it.
bool reset_peak_rss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  return static_cast<bool>(clear);
}

/// Calibration walks on each side of a run: about 0.15 s each on a quiet
/// host.
constexpr std::size_t kCalibrationReps = 3;

std::uint64_t parse_count(const std::string& flag, const std::string& v) {
  std::size_t used = 0;
  const unsigned long long n = std::stoull(v, &used);
  if (used != v.size()) throw std::invalid_argument(flag + ": not a number");
  return n;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) {
    std::cerr << kUsage;
    return 2;
  }
  const std::string& mode = args[0];
  if (mode == "info") {
    perfbench::JsonLine line;
    line.str("build_type", PERFBENCH_BUILD_TYPE)
        .str("compiler", PERFBENCH_CXX_COMPILER)
        .raw("asserts", kAssertsOn ? "true" : "false");
    std::cout << line.text() << "\n";
    return 0;
  }
  if (mode != "plain" && mode != "setup" && mode != "traced") {
    std::cerr << "error: unknown mode " << mode << "\n" << kUsage;
    return 2;
  }

  std::string name;
  perfbench::RunArgs run;
  try {
    for (std::size_t i = 1; i < args.size(); ++i) {
      if (i + 1 >= args.size()) {
        throw std::invalid_argument(args[i] + " needs a value");
      }
      const std::string& flag = args[i];
      const std::string& value = args[++i];
      if (flag == "--workload") {
        name = value;
      } else if (flag == "--seed") {
        run.seed = parse_count(flag, value);
      } else if (flag == "--setup-reps") {
        run.setup_reps = parse_count(flag, value);
      } else if (flag == "--replay-every") {
        run.replay_every = parse_count(flag, value);
      } else if (flag == "--spans") {
        run.spans_path = value;
      } else {
        throw std::invalid_argument("unknown option " + flag);
      }
    }
    const perfbench::Workload& w = perfbench::workload_by_name(name);
    const bool traced = mode == "traced";
    // Every run is bracketed by calibration walks, so it carries the host's
    // speed around it. The walks before it are taken only where the peak-RSS
    // mark can be reset after them: the table must not count in the run's
    // peak.
    std::vector<double> cal_s;
    if (reset_peak_rss()) {
      cal_s = perfbench::calibrate(kCalibrationReps);
      if (!reset_peak_rss()) throw std::runtime_error("cannot reset VmHWM");
    }
    perfbench::RunOutput out;
    if (mode == "setup") {
      out.line.list("setup_s", w.sweep ? time_setups_sweep(w, run)
                                       : time_setups_single(w, run));
    } else if (w.sweep) {
      out = traced ? run_traced_sweep(w, run) : run_plain_sweep(w, run);
    } else {
      out = traced ? run_traced_single(w, run) : run_plain_single(w, run);
    }
    out.line.count("peak_rss_kib", peak_rss_kib());
    const auto after = perfbench::calibrate(kCalibrationReps);
    cal_s.insert(cal_s.end(), after.begin(), after.end());
    out.line.list("cal_s", cal_s);
    std::cout << out.line.text() << "\n";
    return out.ok ? 0 : 1;
  } catch (const std::invalid_argument& e) {
    std::cerr << "error: " << e.what() << "\n" << kUsage;
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
