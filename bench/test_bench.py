"""Tests of the benchmark itself (not of wehrhart).

    python3 -m unittest discover -s bench -p 'test_*.py'
"""

import io
import json
import os
import sys
import tempfile
import unittest
from fractions import Fraction
from types import SimpleNamespace

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(BENCH), "src"), BENCH]

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from wehrhart import cli  # noqa: E402


os.makedirs(run.OUT, exist_ok=True)


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                self.assertEqual(workloads.generate(workload, 5),
                                 workloads.generate(workload, 5))

    def test_other_seed_other_inputs(self):
        files5, _ = workloads.generate("ehrhart_points", 5)
        files6, _ = workloads.generate("ehrhart_points", 6)
        self.assertNotEqual(files5, files6)


class TailPercentileTest(unittest.TestCase):
    def test_leaves_ten_samples_above(self):
        # p is the highest percentile whose nearest-rank sample has ten above
        self.assertEqual(run.tail_percentile(range(1, 21)), (50, 10.5))
        self.assertEqual(run.tail_percentile(range(1, 101)), (90, 90.1))
        self.assertEqual(run.tail_percentile(range(1, 12)), (9, 1.9))
        p, value = run.tail_percentile(range(1, 31))
        self.assertEqual(p, 66)
        self.assertGreaterEqual(sum(x > value for x in range(1, 31)), 10)

    def test_order_does_not_matter(self):
        self.assertEqual(run.tail_percentile([5, 3, 1, 4, 2] * 4)[1], 3)

    def test_too_few_samples(self):
        self.assertIsNone(run.tail_percentile(range(10)))


class TimedLoopTest(unittest.TestCase):
    class FakeRunner:
        def __init__(self):
            self.ran = []

        def run(self, seq, job, traced=False):
            self.ran.append((job, traced))
            return SimpleNamespace(elapsed=0.001, seconds=0.001, total=0.001), True, ""

    def test_whole_passes(self):
        runner = self.FakeRunner()
        plain, traced = run.timed_loop(runner, list("abcdefghijkl"), 2, traced_pairs=False)
        self.assertEqual((len(plain), traced), (24, []))
        self.assertEqual(sorted(job for job, _ in runner.ran), sorted("abcdefghijkl" * 2))

    def test_traced_pairs(self):
        runner = self.FakeRunner()
        plain, traced = run.timed_loop(runner, list("abcdefghijkl"), 1, traced_pairs=True)
        self.assertEqual((len(plain), len(traced)), (12, 12))
        self.assertEqual(runner.ran[:4], [("a", False), ("a", True), ("b", True), ("b", False)])

    def test_pass_count_depends_on_seconds_only(self):
        self.assertEqual(run.passes("ehrhart_points", 1, traced=False), 1)
        self.assertEqual(run.passes("verify_corpus", 25, traced=False), 2)
        self.assertEqual(run.passes("verify_corpus", 25, traced=True), 1)


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans(self):
        # id, name, start, end, parent, job, leaf_s, attrs
        spans = [
            [0, "run", 0.0, 10.0, None, 0, 0.5, None],
            [1, "a", 1.0, 4.0, 0, 0, 1.0, None],
            [2, "b", 2.0, 3.0, 1, 0, 0.0, None],
            [3, "c", 5.0, 6.0, 0, 0, 0.25, None],
        ]
        self.assertEqual(tracing.self_times(spans), {0: 5.5, 1: 1.0, 2: 1.0, 3: 0.75})

    def test_traced_job_self_times_add_up(self):
        with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
            workloads.write_inputs({"cube.json": {"vertices": workloads.CORPUS["cube"]}}, tmp)
            tracer = tracing.Tracer()
            tracer.job = 0
            tracer.install()
            try:
                cli.run(cli.parse_args(["verify", os.path.join(tmp, "cube.json"),
                                        "--suite", "all", "--lmax", "2"]),
                        stdout=io.StringIO())
            finally:
                tracer.remove()
        root = tracer.spans[0]
        self.assertEqual(root[1], "run")
        leaf_self = sum(t for _, t in tracer.leaves.values())
        total = sum(tracing.self_times(tracer.spans).values()) + leaf_self
        self.assertAlmostEqual(total, root[3] - root[2], places=9)
        names = {s[1] for s in tracer.spans}
        self.assertTrue({"facet_presentation", "points_by_face", "dualize"} <= names)
        metrics = tracing.layer_metrics(tracer, {0: 1.0})
        self.assertGreater(metrics["points_by_face.cache_hits"], 0)
        self.assertGreater(metrics["LaurentPoly.ops"], 0)
        # remove() restores the library
        self.assertIs(cli.dumps, sys.modules["wehrhart.jsonio"].dumps)


class OutputCheckTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory(dir=run.OUT)
        files = {
            "cube.json": {"vertices": workloads.CORPUS["cube"]},
            "phi.json": {"n": 3, "monomials": [{"exps": [1, 0, 1], "coeff": "2"}]},
        }
        workloads.write_inputs(files, self.tmp.name)
        self.checker = checks.Checker(self.tmp.name)

    def tearDown(self):
        self.tmp.cleanup()

    def _run(self, job):
        argv = [os.path.join(self.tmp.name, a) if a.endswith(".json") else a
                for a in job.argv]
        buf = io.StringIO()
        return cli.run(cli.parse_args(argv), stdout=buf), buf.getvalue()

    def test_corrupted_coefficient_fails(self):
        job = workloads.Job("e", ("ehrhart", "cube.json", "--variant", "E", "--phi", "phi.json"),
                            "cube.json", "phi.json")
        code, out = self._run(job)
        self.assertIsNone(self.checker.check(job, code, out))
        data = json.loads(out)
        term = next(t for t in data["coeffs"][-1] if t["exp"] == 0)
        term["coeff"] = str(Fraction(term["coeff"]) + 1)
        self.assertIsNotNone(self.checker.check(job, code, json.dumps(data)))

    def test_digest_mismatch_fails(self):
        job = workloads.Job("f", ("faces", "cube.json"), "cube.json")
        code, out = self._run(job)
        self.assertIsNone(self.checker.check(job, code, out))
        self.checker.digests = {"f": "0" * 64}
        self.assertIsNotNone(self.checker.check(job, code, out))

    def test_wrong_f_vector_fails(self):
        job = workloads.Job("f", ("faces", "cube.json"), "cube.json")
        code, out = self._run(job)
        data = json.loads(out)
        data["f_vector"][2] += 1
        self.assertIsNotNone(self.checker.check(job, code, json.dumps(data)))

    def test_hpoly_and_verify(self):
        job = workloads.Job("h", ("hpoly", "cube.json"), "cube.json")
        code, out = self._run(job)
        self.assertIsNone(self.checker.check(job, code, out))
        self.assertIsNotNone(self.checker.check(job, code, "1 + 3*t + 2*t^2 + 1*t^3\n"))
        job = workloads.Job("v", ("verify", "cube.json", "--suite", "purity", "--lmax", "1"),
                            "cube.json")
        code, out = self._run(job)
        self.assertIsNone(self.checker.check(job, code, out))
        data = json.loads(out)
        data["failed"] = 1
        self.assertIsNotNone(self.checker.check(job, 1, json.dumps(data)))


if __name__ == "__main__":
    unittest.main()
