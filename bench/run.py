"""wehrhart benchmark: seeded CLI jobs in a closed loop with one client.

    python3 bench/run.py --workload verify_corpus --seed 1 --seconds 25 --trace 0

The workload's inputs are generated from the seed first, untimed
(workloads.generate).  Set-up then runs SETUPS times, each in a fresh
interpreter (bench/prepare.py): import wehrhart and write the inputs.
Then one process runs the jobs one after another, each as
wehrhart.cli.run(parse_args(argv), stdout=StringIO()), in whole passes
over the job list.  The number of passes follows from --seconds and
workloads.PASS_S, the calibrated time of one pass (see calibration.py),
so that every run times the same jobs.
Every job loads its own polytope file, so it starts with cold caches.
Each output is checked by bench/checks.py; with the default seed its
sha256 must also match bench/digests.json.

--trace 0 prints the end-to-end metrics of BENCHMARK.json.  --trace 1
runs every job twice, once plain and once with bench/tracing.py's spans,
alternating which goes first, and prints the per-layer metrics, each per
traced job, plus the slowdown tracing causes.  Spans are written to
.bench_out/.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from collections import namedtuple
from io import StringIO
from time import perf_counter

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
DIGESTS = os.path.join(BENCH, "digests.json")

import calibration  # noqa: E402
import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUPS = 9
TAIL_ABOVE = 10  # job_s.tail leaves this many samples above it
MIN_JOBS = TAIL_ABOVE + 1
WALL_LIMIT_S = 120  # on a very slow machine, start no job after this much wall time


# one timed job: wall and calibrated seconds without the sampler's handler,
# and wall seconds with it, which the traced spans cover
Sample = namedtuple("Sample", "seq wall seconds passed total")


def tail_percentile(times, above=TAIL_ABOVE):
    """(p, value): the highest whole percentile p whose nearest-rank sample
    leaves at least `above` samples above it, and the p-th percentile
    interpolated between neighbouring samples; None with too few samples."""
    xs = sorted(times)
    n = len(xs)
    for p in range(99, 0, -1):
        if n - -(-p * n // 100) >= above:
            return p, statistics.quantiles(xs, n=100, method="inclusive")[p - 1]
    return None


def set_up(workload, seed, work):
    """Generate the seeded inputs, then run SETUPS fresh set-ups that write
    them; return the set-ups' (wall, calibrated) times, an input dir and
    the jobs."""
    files, jobs = workloads.generate(workload, seed)
    os.makedirs(work)
    plan = os.path.join(work, "plan.json")
    with open(plan, "w") as fh:
        json.dump(files, fh)
    times = []
    for k in range(SETUPS):
        directory = os.path.join(work, f"inputs{k}")
        done = subprocess.run(
            [sys.executable, os.path.join(BENCH, "prepare.py"), plan, directory],
            capture_output=True, text=True, timeout=60,
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up failed: {done.stderr.strip()}")
        wall, calibrated = map(float, done.stdout.split()[-2:])
        times.append((wall, calibrated))
    return times, directory, jobs


class Runner:
    """Runs jobs in-process and checks each output."""

    def __init__(self, cli, input_dir, checker, tracer=None):
        self.cli = cli
        self.input_dir = input_dir
        self.checker = checker
        self.tracer = tracer
        self.failures = []

    def run(self, seq, job, traced=False):
        """Run one job; return its calibration.Sampler timing, whether it
        passed its checks, and its stdout."""
        argv = [os.path.join(self.input_dir, a) if a.endswith(".json") else a
                for a in job.argv]
        buf = StringIO()
        if traced:
            self.tracer.job = seq
            self.tracer.install()
        error = None
        with calibration.Sampler() as timing:
            try:
                code = self.cli.run(self.cli.parse_args(argv), stdout=buf)
            except Exception as exc:  # a job that raises is a failed job
                code, error = None, f"{type(exc).__name__}: {exc}"
        if traced:
            self.tracer.remove()
        stdout = buf.getvalue()
        if error is None:
            try:
                error = self.checker.check(job, code, stdout)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                error = f"unreadable output: {type(exc).__name__}: {exc}"
        if error is not None:
            self.failures.append(f"{job.name}: {error}")
        return timing, error is None, stdout


def passes(workload, seconds, traced):
    """Whole passes of the job list that take about `seconds` calibrated
    seconds on the baseline's sources; a traced pass runs every job twice."""
    per_pass = workloads.PASS_S[workload] * (2 if traced else 1)
    return max(1, round(seconds / per_pass))


def timed_loop(runner, jobs, count, traced_pairs):
    """Closed loop over `count` whole passes of the job list; returns
    (plain, traced) samples.

    With traced_pairs every job runs plain and traced back to back,
    alternating the order.
    """
    plain, traced = [], []
    start = perf_counter()
    seq = 0
    while seq < count * len(jobs):
        if perf_counter() - start > WALL_LIMIT_S and len(plain) >= MIN_JOBS:
            print(f"warning: stopped after {seq} of {count * len(jobs)} jobs, "
                  f"{WALL_LIMIT_S} s of wall time", file=sys.stderr)
            break
        job = jobs[seq % len(jobs)]
        order = ((False, True) if seq % 2 == 0 else (True, False)) if traced_pairs else (False,)
        for with_trace in order:
            timing, passed, _ = runner.run(seq, job, traced=with_trace)
            sample = Sample(seq, timing.elapsed, timing.seconds, passed, timing.total)
            (traced if with_trace else plain).append(sample)
        seq += 1
    return plain, traced


def job_metrics(times, passed):
    """jobs_per_s, job_s.p50 and job_s.tail of one list of job times."""
    p, tail = tail_percentile(times)
    return {
        "jobs_per_s": passed / sum(times),
        "job_s.p50": statistics.median(times),
        "job_s.tail": tail,
    }, f"p{p} of {len(times)} jobs"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        help="calibrated seconds of job time to aim for "
                             "(default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="run each job of the default seed once and store "
                             "its stdout digest in bench/digests.json")
    args = parser.parse_args(argv)

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(SRC, "wehrhart", "__init__.py")) or not os.path.isfile(spec_path):
        print(f"error: not a wehrhart checkout: {SRC}/wehrhart or {spec_path} is missing",
              file=sys.stderr)
        return 2
    if args.record_digests and args.seed != workloads.DEFAULT_SEED:
        print("error: digests are recorded for the default seed only", file=sys.stderr)
        return 2
    with open(spec_path) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds

    os.makedirs(OUT, exist_ok=True)
    work = os.path.join(OUT, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    try:
        setup_times, input_dir, jobs = set_up(args.workload, args.seed, work)
        sys.path.insert(0, SRC)
        from wehrhart import cli

        if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
            raise RuntimeError(f"imported wehrhart from {cli.__file__}, not {SRC}")
        digests = {}
        if args.seed == workloads.DEFAULT_SEED and not args.record_digests:
            with open(DIGESTS) as fh:
                digests = json.load(fh)[args.workload]
        checker = checks.Checker(input_dir, digests)
        tracer = tracing.Tracer() if args.trace else None
        runner = Runner(cli, input_dir, checker, tracer)

        if args.record_digests:
            return record_digests(runner, jobs, args.workload)

        count = passes(args.workload, seconds, bool(args.trace))
        plain, traced = timed_loop(runner, jobs, count, traced_pairs=bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    samples = plain + traced
    attempted = len(samples)
    failed = sum(not s.passed for s in samples)
    print(f"workload {args.workload}, seed {args.seed}: {count} passes, {attempted} jobs, "
          f"{failed} failed, failed_frac {failed / attempted:.4f}")
    for line in runner.failures[:5]:
        print(f"  failed {line}", file=sys.stderr)

    if args.trace:
        values = tracing.layer_metrics(tracer, {s.seq: s.seconds / s.total for s in traced})
        values["trace.overhead"] = sum(s.seconds for s in traced) / sum(s.seconds for s in plain)
        spans_path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl")
        tracer.write(spans_path)
        print(f"spans: {spans_path}")
        names = spec["per_layer"]
    else:
        passed = sum(s.passed for s in plain)
        values, tail_note = job_metrics([s.seconds for s in plain], passed)
        values["setup_s"] = statistics.median(c for _, c in setup_times)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        wall, _ = job_metrics([s.wall for s in plain], passed)
        wall["setup_s"] = statistics.median(w for w, _ in setup_times)
        print(f"job_s.tail is the {tail_note}; times are calibrated seconds "
              f"(bench/calibration.py); wall-clock figures: "
              + ", ".join(f"{k} {v:.4g}" for k, v in wall.items()))
        names = spec["end_to_end"]

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names}
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def record_digests(runner, jobs, workload):
    digests = {}
    for seq, job in enumerate(jobs):
        stdout = runner.run(seq, job)[2]
        digests[job.name] = hashlib.sha256(stdout.encode()).hexdigest()
    if runner.failures:
        print("\n".join(runner.failures), file=sys.stderr)
        return 1
    recorded = {}
    if os.path.exists(DIGESTS):
        with open(DIGESTS) as fh:
            recorded = json.load(fh)
    recorded[workload] = digests
    with open(DIGESTS, "w") as fh:
        json.dump(recorded, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(jobs)} digests for {workload}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
