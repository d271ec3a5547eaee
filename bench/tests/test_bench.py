"""Tests of the benchmark itself.

    python3 -m unittest discover -s bench/tests

Run from the root of the repository.  They need thg's sources under
./src, and start the fork server for the cases that run real requests.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

CLI_WORKLOADS = ("catalog-battery", "deep-tower")


def _reference():
    with open(os.path.join(BENCH, "reference.json")) as fh:
        return json.load(fh)["outputs"]


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_requests(self):
        for w in CLI_WORKLOADS:
            for p in range(3):
                self.assertEqual(workloads.cli_pass(w, 7, p),
                                 workloads.cli_pass(w, 7, p))
        self.assertEqual(workloads.algebra_pass(7, 1),
                         workloads.algebra_pass(7, 1))
        self.assertEqual(workloads.probe_ops(7), workloads.probe_ops(7))

    def test_different_seeds_differ(self):
        for w in CLI_WORKLOADS:
            self.assertNotEqual(workloads.cli_pass(w, 1, 0),
                                workloads.cli_pass(w, 2, 0))
        self.assertNotEqual(workloads.algebra_pass(1, 0),
                            workloads.algebra_pass(2, 0))

    def test_passes_cover_every_slot_once(self):
        for w in CLI_WORKLOADS:
            slots = sorted(r["slot"] for r in workloads.cli_pass(w, 3, 0))
            self.assertEqual(slots, sorted(s.name for s in workloads.SLOTS[w]))

    def test_generated_requests_lie_in_the_domain(self):
        for w in CLI_WORKLOADS:
            domain = {workloads.argv_key(a) for a in workloads.domain(w)}
            for seed in range(25):
                for p in range(4):
                    for r in workloads.cli_pass(w, seed, p):
                        self.assertIn(workloads.argv_key(r["argv"]), domain)


class ReferenceTest(unittest.TestCase):
    def test_reference_covers_every_request(self):
        reference = _reference()
        requests = [a for w in CLI_WORKLOADS for a in workloads.domain(w)]
        requests += [r["argv"] for r in workloads.probe_cli()]
        missing = [workloads.argv_key(a) for a in requests
                   if workloads.argv_key(a) not in reference]
        self.assertEqual(missing, [])

    def test_expected_errors_are_recorded_with_their_exit_code(self):
        reference = _reference()
        for slot in workloads.SLOTS["catalog-battery"]:
            for argv in slot.choices():
                rc = int(reference[workloads.argv_key(argv)].split(":")[0])
                self.assertEqual(rc, slot.expect_rc, argv)


class _FakeServer:
    """Answers every CLI request the same wrong way."""

    def __init__(self, mode):
        self.mode = mode

    def request(self, req):
        if self.mode == "timeout":
            return {"error": "timeout"}
        rc = 0 if self.mode == "corrupt" else 3
        return {"rc": rc, "elapsed": 0.01, "stdout": "garbage\n",
                "maxrss_kb": 1000}


class FailureCountTest(unittest.TestCase):
    def _one_pass(self, mode):
        return run.run_cli(_FakeServer(mode), "catalog-battery", 1, 0.0,
                           False, _reference(), [])

    def test_corrupted_output_is_a_failure(self):
        samples = self._one_pass("corrupt")
        ok_rc = [s for s in samples if not s["slot"].startswith("err:")]
        self.assertTrue(ok_rc)
        self.assertTrue(all(s["kind"] == oracles.WRONG_OUTPUT for s in ok_rc))

    def test_wrong_exit_code_is_a_failure(self):
        samples = self._one_pass("exit")
        self.assertTrue(all(s["kind"] == oracles.WRONG_EXIT for s in samples))

    def test_timeout_is_a_failure_charged_the_limit(self):
        samples = self._one_pass("timeout")
        self.assertTrue(all(s["kind"] == oracles.TIMEOUT for s in samples))
        self.assertEqual(run.work_s(samples),
                         len(samples) * workloads.CLI_LIMIT_S["catalog-battery"])

    def test_binomial_check_catches_a_wrong_multiplicity(self):
        out = "tau_4(S2): order 1, direct product\n  base: 1\n  pi2 ^ 4: 1\n"
        argv = ["tau", "S2", "--n", "4", "--format", "text"]
        ref = {workloads.argv_key(argv): oracles.reference_entry(0, out)}
        self.assertEqual(oracles.check_cli(argv, 0, 0, out, ref),
                         oracles.WRONG_OUTPUT)
        good = out.replace("pi2 ^ 4", "pi2 ^ 3")
        ref = {workloads.argv_key(argv): oracles.reference_entry(0, good)}
        self.assertIsNone(oracles.check_cli(argv, 0, 0, good, ref))


class MetricTest(unittest.TestCase):
    def test_tail_has_ten_samples_beyond_it(self):
        xs = [float(i) for i in range(100)]
        self.assertEqual(run.tail(xs), (89.0, 90.0, 100))
        self.assertEqual(run.tail(xs[:15]), (7.0, 50.0, 15))

    def test_work_is_the_sum_of_slot_medians(self):
        samples = [{"slot": slot, "elapsed": t}
                   for slot, t in (("a", 1.0), ("a", 3.0), ("a", 2.0),
                                   ("b", 5.0))]
        self.assertEqual(run.work_s(samples), 7.0)


class ServerTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.server = run.Server(ROOT)

    @classmethod
    def tearDownClass(cls):
        cls.server.stop()

    def test_cli_timeout_kills_the_child(self):
        res = self.server.request({"id": "t", "kind": "cli",
                                   "argv": ["tau", "T3", "--n", "900"],
                                   "limit_s": 0.2})
        self.assertEqual(res, {"error": "timeout", "id": "t"})
        # the server is still usable afterwards
        res = self.server.request({"id": "u", "kind": "cli",
                                   "argv": ["list", "--format", "json"],
                                   "limit_s": 10.0})
        self.assertEqual(res["rc"], 0)

    def test_library_timeout_is_recorded_with_its_kind(self):
        ops = [dict(op, limit_s=0.2) for op in workloads.probe_ops(1)
               if op["slot"] == "probe:snf_diagonal:12x12"]
        samples = run._batch(self.server, "p", ops, False, False, [])
        self.assertEqual([s["kind"] for s in samples], [oracles.TIMEOUT])

    def test_library_batch_is_correct(self):
        ops = [op for op in workloads.algebra_pass(5, 0)
               if op["size"] <= 16]
        samples = run._batch(self.server, "b", ops, False, False, [])
        self.assertEqual([s for s in samples if s["kind"]], [])

    def test_tracing_leaves_stdout_unchanged(self):
        argv = ["verify", "s3-q8", "--format", "json"]
        plain = self.server.request({"id": "a", "kind": "cli", "argv": argv,
                                     "limit_s": 20.0})
        traced = self.server.request({"id": "b", "kind": "cli", "argv": argv,
                                      "limit_s": 20.0, "trace": True,
                                      "spans": True})
        self.assertEqual(plain["stdout"], traced["stdout"])
        self.assertGreater(traced["trace"]["spacecat.orbit_space"]["calls"], 0)
        self.assertTrue(all(s["request"] == "b" for s in traced["spans"]))


class TracerTest(unittest.TestCase):
    def test_call_counts_match_cprofile(self):
        # Between them these two requests reach every wrapped function
        # but abelian.subgroup_structure.
        code = ("import json, sys; sys.path[:0] = [sys.argv[1], sys.argv[2]];"
                "import tracer; print(json.dumps(tracer.self_test(["
                "['verify', '--all', '--max-n', '4'],"
                "['classify', 's3-q8', '--max-n', '4']])))")
        proc = subprocess.run([sys.executable, "-c", code, BENCH,
                               os.path.join(ROOT, "src")],
                              capture_output=True, text=True, timeout=120)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertEqual(json.loads(proc.stdout), {})

    def test_every_per_layer_metric_is_named_once(self):
        names = [n for n, _, _ in run.tracer.per_layer_metrics()]
        self.assertEqual(len(names), len(set(names)))
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            declared = [m["name"] for m in json.load(fh)["per_layer"]]
        self.assertEqual(declared, names)


class GuardTest(unittest.TestCase):
    def test_refuses_a_directory_without_thg_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(BENCH, os.path.join(tmp, "bench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "deep-tower",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
