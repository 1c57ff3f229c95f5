#!/usr/bin/env python3
"""ARiA benchmark: builds the driver, runs one workload for a fixed time,
checks every run, and prints one JSON result line.

    python3 perfbench/run.py --workload healing-churn --seed 1 --seconds 55 --trace 0

Run it from the repository root. With --trace 0 it reports the end-to-end
metrics of BENCHMARK.json from untraced runs; with --trace 1 it reports the
per-layer metrics from traced runs. Each simulation runs in its own process
so its peak memory is measured alone, and each process times a fixed
calibration kernel around its simulation so its wall times can be scaled
to a reference host speed. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD_DIR, "aria_perfbench")

# Distinct simulation seeds per benchmark run, derived from --seed. Several
# seeds average out how much one seed's inputs differ from another's; a
# healing run takes 10-15 s, so two seeds and the mandatory repeat already
# take most of a 55-s run. paper-imixed and hier-2k are not in
# BENCHMARK.json (see README.md) but stay runnable by name.
SEEDS_PER_RUN = {
    "paper-imixed": 6,
    "hier-2k": 6,
    "healing-churn": 2,
    "sweep-table2": 8,
}
# Under crash/restart churn the failsafe gives up on a job after its bounded
# recovery attempts. Such a job is terminal (not stranded) and counts as not
# completed in completed_frac; on every other workload a run must complete
# every job it submits.
MAY_ABANDON = {"healing-churn"}
# Set-up repetitions per process: the sweep's matrix expansion takes
# microseconds, so it needs many to give a stable median.
SETUP_REPS = {"sweep-table2": 50}
DEFAULT_SETUP_REPS = 5
# Set-up-only driver processes started after each timed run. Set-up time is
# steady within one process but differs up to twofold between processes
# (healing-churn: 6 to 14 ms), and a healing-churn run takes 10-15 s, so a
# 55-s run has too few processes of its own to average that out.
SETUP_PROCS = {"healing-churn": 3}
# End-to-end times are reported in seconds of a reference host: each run's
# times are scaled by CAL_REF_S over the median of the driver's calibration
# walks, which every driver process times just before and after its work. The walk is the benchmark's own code, so a change to the
# program does not move it, while the host phases of a shared machine (the
# same run taking 1.4 s or 2.8 s minutes apart) move it with the
# simulations. CAL_REF_S only sets the scale (README.md, "Host calibration").
CAL_REF_S = 0.05
# Sends kept for the network replay probe of a traced run.
REPLAY_SAMPLE = 200_000
# A run must end within 180 s: no new simulation starts after LAST_START_S,
# and a driver process that hangs is killed after CHILD_TIMEOUT_S.
LAST_START_S = 100
CHILD_TIMEOUT_S = 75

MIB = 1024.0 * 1024.0
NAME_CHARS = set("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_.-")
# Fields of a run that are pure functions of (workload, seed): they must
# repeat exactly across runs of one seed, traced or not.
DETERMINISTIC_FIELDS = ("submitted", "completed", "abandoned", "completion_min",
                        "wire_bytes", "events", "sent", "sent_by_type",
                        "fingerprint")


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def sim_seeds(workload, seed):
    return [seed * 1000 + k for k in range(SEEDS_PER_RUN[workload])]


# --- BENCHMARK.json --------------------------------------------------------

def load_spec(path):
    with open(path) as f:
        spec = json.load(f)
    problems = check_spec(spec)
    if problems:
        raise BenchError("BENCHMARK.json: " + "; ".join(problems))
    return spec


def valid_name(name):
    return (isinstance(name, str) and 0 < len(name) <= 64 and name[0].isalnum()
            and set(name) <= NAME_CHARS)


def check_spec(spec):
    """Names, units and counts within the limits the benchmark promises."""
    problems = []
    names = []
    for w in spec.get("workloads", []):
        names.append(w.get("name"))
    if not 2 <= len(spec.get("workloads", [])) <= 8:
        problems.append("need 2 to 8 workloads")
    e2e = spec.get("end_to_end", [])
    layers = spec.get("per_layer", [])
    if not 1 <= len(e2e) <= 16:
        problems.append("need 1 to 16 end-to-end metrics")
    if not 1 <= len(layers) <= 128:
        problems.append("need 1 to 128 per-layer metrics")
    if not any(m.get("name") == "setup_s" and m.get("unit") == "s"
               and m.get("better") == "lower" for m in e2e):
        problems.append("setup_s (s, lower) missing")
    for m in e2e + layers:
        names.append(m.get("name"))
        unit = m.get("unit", "")
        if not (isinstance(unit, str) and 0 < len(unit) <= 16
                and set(unit) <= NAME_CHARS | set("/%")):
            problems.append("bad unit for %r" % m.get("name"))
        if m.get("better") not in ("lower", "higher"):
            problems.append("bad 'better' for %r" % m.get("name"))
    for m in e2e:
        if not 0 < m.get("bound", 0) <= 0.25:
            problems.append("bound of %r outside (0, 0.25]" % m.get("name"))
    for n in names:
        if not valid_name(n):
            problems.append("bad name %r" % n)
    if len(set(names)) != len(names):
        problems.append("duplicate names")
    for w in spec.get("workloads", []):
        if w.get("name") not in SEEDS_PER_RUN:
            problems.append("workload %r unknown to run.py" % w.get("name"))
    return problems


def select_metrics(spec, trace, values):
    """Every declared metric with its unit; a missing one is an error."""
    out = {}
    for m in spec["per_layer"] if trace else spec["end_to_end"]:
        if m["name"] not in values:
            raise BenchError("metric %s was not measured" % m["name"])
        out[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    return out


# --- build and provenance --------------------------------------------------

def source_digest():
    """SHA-256 over the sources the driver is built from."""
    h = hashlib.sha256()
    roots = [os.path.join(ROOT, "src"), os.path.join(BENCH_DIR, "driver")]
    files = [os.path.join(ROOT, "CMakeLists.txt"),
             os.path.join(BENCH_DIR, "CMakeLists.txt")]
    for r in roots:
        for d, _, names in os.walk(r):
            files.extend(os.path.join(d, n) for n in names)
    for path in sorted(files):
        if not os.path.isfile(path):
            continue
        h.update(os.path.relpath(path, ROOT).encode() + b"\0")
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def ensure_built(digest):
    stamp = os.path.join(BUILD_DIR, "source.sha256")
    if os.path.exists(BINARY) and os.path.exists(stamp):
        with open(stamp) as f:
            if f.read().strip() == digest:
                return
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    jobs = str(max(1, min(3, os.cpu_count() or 1)))
    with open(log_path, "w") as log:
        for cmd in (["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"],
                    ["cmake", "--build", BUILD_DIR, "--target", "aria_perfbench",
                     "-j", jobs]):
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                raise BenchError("build failed: %s (see %s)" % (" ".join(cmd), log_path))
    with open(stamp, "w") as f:
        f.write(digest + "\n")


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_commit():
    """HEAD of the repository at ROOT, or None when ROOT is not the top of
    a git checkout (an enclosing repository's HEAD would be another tree)."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = out.stdout.splitlines()
    if out.returncode != 0 or len(lines) != 2:
        return None
    if os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def provenance(args, digest):
    info = json.loads(subprocess.run([BINARY, "info"], capture_output=True,
                                     text=True, check=True).stdout)
    prov = {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "compiler": info["compiler"],
        "build_type": info["build_type"],
        "asserts": info["asserts"],
        "git_commit": git_commit(),
        "source_sha256": digest,
        "workload": args.workload,
        "seed": args.seed,
        "sim_seeds": sim_seeds(args.workload, args.seed),
        "seconds": args.seconds,
        "trace": args.trace,
    }
    problems = check_provenance(prov)
    if problems:
        raise BenchError("refusing to measure: " + "; ".join(problems))
    return prov


def check_provenance(prov):
    """A capture must be a Release build whose metadata agrees with itself."""
    problems = []
    if prov["build_type"] != "Release":
        problems.append("build type is %r, not Release" % prov["build_type"])
    if prov["asserts"]:
        problems.append("asserts are compiled in (NDEBUG unset)")
    if not prov["nproc"]:
        problems.append("cpu count unknown")
    return problems


# --- running the driver ------------------------------------------------------

def run_child(mode, workload, seed, extra=()):
    """One driver process; returns its JSON line plus wall time and exit
    status. A crash or unparsable output is a failed run, not an error of
    the benchmark."""
    cmd = [BINARY, mode, "--workload", workload, "--seed", str(seed)] + list(extra)
    start = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    wall = time.monotonic() - start
    record = {}
    lines = proc.stdout.strip().splitlines()
    if lines:
        try:
            record = json.loads(lines[-1])
        except ValueError:
            record = {}
    if proc.returncode != 0 or not record:
        record["error"] = "exit %d: %s" % (proc.returncode, proc.stderr[-500:])
    record.update({"mode": mode, "seed": seed, "exit": proc.returncode,
                   "wall_s": wall})
    return record


def check_run(r, may_abandon=False):
    """Reasons one run fails the correctness gate (empty if it passes)."""
    if "error" in r:
        return [r["error"]]
    reasons = []
    if not r.get("cal_s"):
        reasons.append("no host calibration reported")
    if r.get("mode") == "setup":
        if not r.get("setup_s"):
            reasons.append("no set-up times reported")
        return reasons
    if not r.get("peak_rss_kib"):
        reasons.append("no peak RSS reported")
    if r.get("stranded", 1) != 0:
        reasons.append("%s stranded jobs" % r.get("stranded"))
    if r.get("violations", 1) != 0 or r.get("audit_violations", 1) != 0:
        reasons.append("%s lifecycle / %s audit violations (first: %s)" % (
            r.get("violations"), r.get("audit_violations"), r.get("first_violation")))
    finished = r.get("completed", 0) + (r.get("abandoned", 0) if may_abandon else 0)
    if finished != r.get("submitted") or not r.get("submitted"):
        reasons.append("completed %s (abandoned %s) of %s submitted" % (
            r.get("completed"), r.get("abandoned"), r.get("submitted")))
    if r.get("traced_spec_mismatches", 0) != 0:
        reasons.append("%d traced sweep runs differ from run_all" % r["traced_spec_mismatches"])
    if "layers" in r:
        layers = r["layers"]
        if layers.get("sim.events") != r.get("events"):
            reasons.append("traced loop fired %s events, run reports %s" % (
                layers.get("sim.events"), r.get("events")))
        for t, n in r.get("sent_by_type", {}).items():
            if layers.get("net.sent." + t) != n:
                reasons.append("net.sent.%s %s != run's %s" % (t, layers.get("net.sent." + t), n))
    return reasons


def gate(runs, may_abandon=False):
    """Applies the correctness gate to all runs of one invocation. Returns
    {run index: [reasons]} for every failed run. Besides each run's own
    checks, all runs of one seed (plain and traced) must agree exactly on
    the fingerprint and every deterministic count."""
    failed = {}
    for i, r in enumerate(runs):
        reasons = check_run(r, may_abandon)
        if reasons:
            failed[i] = reasons
    by_seed = {}
    for i, r in enumerate(runs):
        if i not in failed and r["mode"] != "setup":
            by_seed.setdefault(r["seed"], []).append(i)
    for indices in by_seed.values():
        ref = runs[indices[0]]
        for i in indices[1:]:
            diff = [f for f in DETERMINISTIC_FIELDS if runs[i].get(f) != ref.get(f)]
            if diff:
                failed[i] = ["differs from run %d of the same seed in %s" % (
                    indices[0], ", ".join(diff))]
    return failed


def completed_frac(runs, failed):
    """Completed over submitted jobs, counted once per seed so the figure
    does not depend on how many repeats fit in the time. A seed with a
    failed run counts none of its jobs as completed."""
    done, submitted = {}, {}
    for i, r in enumerate(runs):
        if r["mode"] == "setup" and i not in failed:
            continue
        s = r["seed"]
        submitted[s] = max(submitted.get(s, 0), r.get("submitted", 0))
        if i in failed:
            done[s] = 0
        else:
            done.setdefault(s, r.get("completed", 0))
    total = sum(submitted.values())
    return sum(done.values()) / total if total else 0.0


def measure_plain(workload, seed, seconds):
    """Untraced runs in a closed loop: a warm-up run of the first seed, then
    every seed once, then the seeds again in order while another run still
    fits in the time. The warm-up is gated like every run (it is the first
    seed's determinism repeat) but not timed."""
    seeds = sim_seeds(workload, seed)
    reps = ["--setup-reps", str(SETUP_REPS.get(workload, DEFAULT_SETUP_REPS))]
    start = time.monotonic()
    runs = [dict(run_child("plain", workload, seeds[0], reps), warmup=True)]
    slowest = 0.0
    timed = 0
    while time.monotonic() - start < LAST_START_S and (
            timed < len(seeds) or time.monotonic() - start + slowest <= seconds):
        s = seeds[timed % len(seeds)]
        step_start = time.monotonic()
        runs.append(run_child("plain", workload, s, reps))
        for _ in range(SETUP_PROCS.get(workload, 0)):
            runs.append(run_child("setup", workload, s, reps))
        timed += 1
        slowest = max(slowest, time.monotonic() - step_start)
    return runs


def measured(runs, failed):
    """Runs that passed the gate; if none did, every run that still reports
    figures, so a failing benchmark prints them with correct=false."""
    ok = [r for i, r in enumerate(runs) if i not in failed] or runs
    return [r for r in ok if "run_s" in r or "layers" in r]


def host_scale(r):
    """Factor that turns the wall times of one run into seconds of the
    reference host: CAL_REF_S over the median of its calibration walks."""
    return CAL_REF_S / statistics.median(r["cal_s"])


def end_to_end_metrics(runs, failed):
    ok = measured(runs, failed)
    if not ok:
        raise BenchError("no run produced figures")
    timed = [r for r in ok if not r.get("warmup")] or ok
    setups = [r for i, r in enumerate(runs)
              if r["mode"] == "setup" and i not in failed]
    first_of_seed = {}
    for r in ok:
        first_of_seed.setdefault(r["seed"], r)
    distinct = list(first_of_seed.values())
    return {
        "setup_s": statistics.median(s * host_scale(r) for r in timed + setups
                                     for s in r["setup_s"]),
        "run_s": statistics.median(r["run_s"] * host_scale(r) for r in timed),
        "peak_rss_mib": statistics.median(r["peak_rss_kib"] / 1024.0 for r in timed),
        "sim_completion_min": statistics.fmean(r["completion_min"] for r in distinct),
        "wire_mib_per_job": statistics.fmean(
            r["wire_bytes"] / r["submitted"] / MIB for r in distinct),
        "completed_frac": completed_frac(runs, failed),
    }


def measure_traced(workload, seed, seconds):
    """Pairs of one untraced and one traced run of the same seed, in
    alternating order so host drift favours neither, until the time is up
    (at least one pair, untraced first)."""
    s = sim_seeds(workload, seed)[0]
    spans = os.path.join(OUT_DIR, "spans-%s-seed%d.json" % (workload, seed))
    runs = []

    def run(mode):
        if mode == "plain":
            return run_child("plain", workload, s, ["--setup-reps", "1"])
        every = max(1, int(runs[0].get("sent", 0)) // REPLAY_SAMPLE)
        return run_child("traced", workload, s,
                         ["--replay-every", str(every), "--spans", spans])

    start = time.monotonic()
    order, pair_s = ["plain", "traced"], 0.0
    while True:
        pair_start = time.monotonic()
        for mode in order:
            runs.append(run(mode))
        order.reverse()
        pair_s = max(pair_s, time.monotonic() - pair_start)
        elapsed = time.monotonic() - start
        if elapsed + pair_s > seconds or elapsed >= LAST_START_S:
            return runs


def layer_metrics(runs, failed):
    ok = measured(runs, failed)
    plain = [r for r in ok if r["mode"] == "plain"]
    traced = [r for r in ok if r["mode"] == "traced"]
    if not plain or not traced:
        raise BenchError("no untraced/traced pair produced figures")
    names = traced[0]["layers"].keys()
    values = {n: statistics.median(r["layers"][n] for r in traced) for n in names}
    values["host.cal_ms"] = 1000.0 * statistics.median(
        c for r in plain + traced for c in r["cal_s"])
    values["trace_overhead_frac"] = (
        statistics.median(r["traced_run_s"] * host_scale(r) for r in traced)
        / statistics.median(r["run_s"] * host_scale(r) for r in plain) - 1.0)
    return values


def main(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")

    try:
        spec = load_spec(os.path.join(ROOT, "BENCHMARK.json"))
        if args.workload not in SEEDS_PER_RUN:
            raise BenchError("unknown workload %r" % args.workload)
        digest = source_digest()
        ensure_built(digest)
        prov = provenance(args, digest)
        os.makedirs(OUT_DIR, exist_ok=True)
        if args.trace:
            runs = measure_traced(args.workload, args.seed, args.seconds)
        else:
            runs = measure_plain(args.workload, args.seed, args.seconds)
        failed = gate(runs, args.workload in MAY_ABANDON)
        values = (layer_metrics(runs, failed) if args.trace
                  else end_to_end_metrics(runs, failed))
        metrics = select_metrics(spec, args.trace, values)
    except (BenchError, OSError, subprocess.SubprocessError, ValueError, KeyError) as e:
        print("perfbench: error: %s" % e, file=sys.stderr)
        return 1

    result = {"correct": not failed, "attempted": len(runs),
              "failed": len(failed), "metrics": metrics}
    out_path = os.path.join(OUT_DIR, "result-%s-seed%d-trace%d.json" % (
        args.workload, args.seed, args.trace))
    with open(out_path, "w") as f:
        json.dump({"provenance": prov, "result": result, "all_values": values,
                   "gate_failures": {str(i): v for i, v in failed.items()},
                   "runs": runs}, f, indent=1, sort_keys=True)
    for i, reasons in sorted(failed.items()):
        print("perfbench: run %d (seed %s) failed: %s" % (
            i, runs[i].get("seed"), "; ".join(reasons)), file=sys.stderr)
    print(json.dumps(result, sort_keys=True))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
