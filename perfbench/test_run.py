"""Self-tests of the benchmark: declared metrics, limits, provenance and the
correctness gate.

    python3 -m unittest discover -s perfbench -v      (from the repo root)

The end-to-end emission test runs the built driver and is skipped until
run.py has built it once.
"""

import copy
import json
import os
import re
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SPEC_PATH = os.path.join(run.BENCH_DIR, "..", "BENCHMARK.json")
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


def good_run(seed=1, **overrides):
    r = {"mode": "plain", "seed": seed, "exit": 0, "wall_s": 1.0,
         "peak_rss_kib": 20480, "setup_s": [0.01, 0.011], "run_s": 1.5,
         "cal_s": [run.CAL_REF_S] * 3,
         "submitted": 100, "completed": 100, "abandoned": 0, "stranded": 0,
         "violations": 0,
         "audit_violations": 0, "first_violation": "", "completion_min": 120.0,
         "wire_bytes": 1 << 30, "events": 5000, "sent": 4000,
         "sent_by_type": {"REQUEST": 3000, "INFORM": 1000},
         "fingerprint": "00ff00ff00ff00ff"}
    r.update(overrides)
    return r


def traced_of(plain, **overrides):
    r = copy.deepcopy(plain)
    r.update({"mode": "traced", "traced_run_s": 1.7,
              "layers": {"sim.events": plain["events"],
                         "net.sent.REQUEST": 3000, "net.sent.INFORM": 1000}})
    r.update(overrides)
    return r


class SpecTest(unittest.TestCase):
    def setUp(self):
        with open(SPEC_PATH) as f:
            self.spec = json.load(f)

    def test_declared_spec_is_valid(self):
        self.assertEqual(run.check_spec(self.spec), [])

    def test_metric_names_and_limits(self):
        e2e, layers = self.spec["end_to_end"], self.spec["per_layer"]
        self.assertLessEqual(len(e2e), 16)
        self.assertLessEqual(len(layers), 128)
        for m in e2e + layers:
            self.assertRegex(m["name"], NAME_RE)
            self.assertTrue(NAME_RE.fullmatch(m["name"]), m["name"])
            self.assertTrue(m["unit"], m["name"])

    def test_every_workload_has_a_seed_plan(self):
        for w in self.spec["workloads"]:
            self.assertIn(w["name"], run.SEEDS_PER_RUN)

    def test_bad_spec_is_refused(self):
        bad = copy.deepcopy(self.spec)
        bad["per_layer"].append({"name": "sim events", "unit": "count", "better": "lower"})
        bad["end_to_end"][0]["bound"] = 0.5
        problems = run.check_spec(bad)
        self.assertTrue(any("bad name" in p for p in problems))
        self.assertTrue(any("bound" in p for p in problems))

    def test_missing_metric_is_an_error(self):
        values = {m["name"]: 1.0 for m in self.spec["end_to_end"]}
        out = run.select_metrics(self.spec, 0, values)
        self.assertEqual(set(out), set(values))
        self.assertTrue(all(v["unit"] for v in out.values()))
        del values["run_s"]
        with self.assertRaises(run.BenchError):
            run.select_metrics(self.spec, 0, values)


class ProvenanceTest(unittest.TestCase):
    def prov(self, **overrides):
        p = {"build_type": "Release", "asserts": False, "nproc": 4}
        p.update(overrides)
        return p

    def test_release_build_passes(self):
        self.assertEqual(run.check_provenance(self.prov()), [])

    def test_non_release_build_is_refused(self):
        self.assertTrue(run.check_provenance(self.prov(build_type="Debug")))
        self.assertTrue(run.check_provenance(self.prov(build_type="")))

    def test_asserts_compiled_in_are_refused(self):
        self.assertTrue(run.check_provenance(self.prov(asserts=True)))


class GateTest(unittest.TestCase):
    def test_healthy_runs_pass(self):
        a = good_run()
        runs = [a, good_run(), traced_of(a), good_run(seed=2, fingerprint="ab")]
        self.assertEqual(run.gate(runs), {})
        self.assertEqual(run.completed_frac(runs, {}), 1.0)

    def test_stranded_job_fails_the_run(self):
        runs = [good_run(seed=1), good_run(seed=2, stranded=1, completed=99)]
        failed = run.gate(runs)
        self.assertEqual(list(failed), [1])
        self.assertTrue(any("stranded" in r for r in failed[1]))
        # Every job of a failed run counts as failed.
        self.assertEqual(run.completed_frac(runs, failed), 0.5)

    def test_completed_frac_counts_each_seed_once(self):
        runs = [good_run(seed=1, completed=98, abandoned=2),
                good_run(seed=1, completed=98, abandoned=2),
                good_run(seed=2)]
        self.assertEqual(run.completed_frac(runs, {}), 0.99)
        # A failed repeat voids its seed's jobs, whichever run failed.
        self.assertEqual(run.completed_frac(runs, {1: ["x"]}), 0.5)

    def test_warmup_run_is_gated_but_not_timed(self):
        warm = dict(good_run(run_s=9.0, setup_s=[9.0]), warmup=True)
        runs = [warm, good_run(run_s=1.0), good_run(seed=2, run_s=2.0)]
        values = run.end_to_end_metrics(runs, {})
        self.assertEqual(values["run_s"], 1.5)
        self.assertLess(values["setup_s"], 1.0)
        self.assertIn(0, run.gate([dict(warm, stranded=1)] + runs[1:]))

    def test_setup_only_processes_count_in_setup_s(self):
        setup = {"mode": "setup", "seed": 1, "exit": 0, "wall_s": 0.2,
                 "peak_rss_kib": 4096, "setup_s": [0.002] * 5,
                 "cal_s": [run.CAL_REF_S] * 3}
        runs = [good_run(), setup, dict(setup), good_run(seed=2)]
        self.assertEqual(run.gate(runs), {})
        self.assertEqual(run.completed_frac(runs, {}), 1.0)
        self.assertEqual(run.end_to_end_metrics(runs, {})["setup_s"], 0.002)
        failed = run.gate([good_run(), dict(setup, setup_s=[])])
        self.assertEqual(list(failed), [1])

    def test_times_are_scaled_by_the_host_calibration(self):
        slow = [run.CAL_REF_S * 2] * 3
        runs = [good_run(run_s=3.0, setup_s=[0.02], cal_s=slow),
                good_run(seed=2, run_s=3.0, setup_s=[0.02], cal_s=slow)]
        values = run.end_to_end_metrics(runs, {})
        self.assertAlmostEqual(values["run_s"], 1.5)
        self.assertAlmostEqual(values["setup_s"], 0.01)
        failed = run.gate([good_run(cal_s=[])])
        self.assertIn("calibration", failed[0][0])

    def test_lifecycle_violation_fails_the_run(self):
        failed = run.gate([good_run(violations=4, first_violation="x")])
        self.assertEqual(list(failed), [0])

    def test_incomplete_run_fails(self):
        failed = run.gate([good_run(completed=90)])
        self.assertEqual(list(failed), [0])

    def test_abandoned_jobs_pass_only_where_allowed(self):
        runs = [good_run(completed=98, abandoned=2)]
        self.assertEqual(list(run.gate(runs)), [0])
        self.assertEqual(run.gate(runs, may_abandon=True), {})
        self.assertEqual(run.completed_frac(runs, {}), 0.98)
        # Abandoned jobs never excuse stranded ones.
        runs = [good_run(completed=97, abandoned=2, stranded=1)]
        self.assertEqual(list(run.gate(runs, may_abandon=True)), [0])

    def test_fingerprint_mismatch_fails(self):
        failed = run.gate([good_run(), good_run(fingerprint="1111111111111111")])
        self.assertEqual(list(failed), [1])
        self.assertIn("fingerprint", failed[1][0])

    def test_traced_fingerprint_must_equal_plain(self):
        a = good_run()
        failed = run.gate([a, traced_of(a, fingerprint="2222222222222222")])
        self.assertEqual(list(failed), [1])

    def test_deterministic_counts_must_repeat(self):
        failed = run.gate([good_run(), good_run(events=5001)])
        self.assertEqual(list(failed), [1])
        failed = run.gate([good_run(),
                           good_run(sent_by_type={"REQUEST": 2999, "INFORM": 1001})])
        self.assertEqual(list(failed), [1])

    def test_traced_layer_counts_must_match_the_run(self):
        a = good_run()
        t = traced_of(a)
        t["layers"]["net.sent.INFORM"] = 999
        self.assertEqual(list(run.gate([a, t])), [1])
        t = traced_of(a)
        t["layers"]["sim.events"] = 4999
        self.assertEqual(list(run.gate([a, t])), [1])

    def test_crashed_child_fails(self):
        failed = run.gate([{"mode": "plain", "seed": 1, "exit": 139,
                            "error": "exit 139: segfault"}])
        self.assertEqual(list(failed), [0])

    def test_sweep_spec_mismatch_fails(self):
        a = good_run()
        failed = run.gate([a, traced_of(a, traced_spec_mismatches=1)])
        self.assertEqual(list(failed), [1])


@unittest.skipUnless(os.path.exists(run.BINARY), "driver not built yet")
class EmissionTest(unittest.TestCase):
    """Every metric BENCHMARK.json declares is emitted, with its unit."""

    def test_declared_metrics_are_emitted(self):
        with open(SPEC_PATH) as f:
            spec = json.load(f)
        workload, seed = "paper-imixed", 3
        plain = run.run_child("plain", workload, seed, ["--setup-reps", "2"])
        again = run.run_child("plain", workload, seed, ["--setup-reps", "2"])
        traced = run.run_child("traced", workload, seed, ["--replay-every", "64"])
        runs = [plain, again, traced]
        self.assertEqual(run.gate(runs), {})
        e2e = run.select_metrics(
            spec, 0, run.end_to_end_metrics(runs[:2], {}))
        layers = run.select_metrics(spec, 1, run.layer_metrics(runs, {}))
        self.assertEqual(len(e2e), len(spec["end_to_end"]))
        self.assertEqual(len(layers), len(spec["per_layer"]))
        for m in list(e2e.values()) + list(layers.values()):
            self.assertTrue(m["unit"])
            self.assertIsInstance(m["value"], (int, float))
        for name in ("run_s", "setup_s", "sim_completion_min", "wire_mib_per_job"):
            self.assertGreater(e2e[name]["value"], 0)


if __name__ == "__main__":
    unittest.main()
