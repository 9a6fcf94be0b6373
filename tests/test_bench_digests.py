"""The benchmark's seed-1 jobs print exactly the stdout recorded in bench/digests.json.

bench/run.py compares these sha256 digests only when the benchmark runs.
Here each job of the three workloads runs once through wehrhart.cli.run,
on inputs regenerated by bench/workloads.generate, so that any change to
the command line's output fails the test suite.  bench/ is imported, never
written to.
"""

import hashlib
import json
import os
import sys
from io import StringIO
from pathlib import Path

import pytest

from wehrhart import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"

sys.path.insert(0, str(BENCH))
try:
    import workloads
finally:
    sys.path.remove(str(BENCH))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_1_stdout_matches_the_recorded_digests(workload, tmp_path):
    recorded = json.loads((BENCH / "digests.json").read_text())[workload]
    files, jobs = workloads.generate(workload, workloads.DEFAULT_SEED)
    workloads.write_inputs(files, tmp_path)
    assert sorted(job.name for job in jobs) == sorted(recorded)
    wrong = []
    for job in jobs:
        argv = [os.path.join(tmp_path, a) if a.endswith(".json") else a for a in job.argv]
        out = StringIO()
        code = cli.run(cli.parse_args(argv), stdout=out)
        digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
        if code != 0 or digest != recorded[job.name]:
            wrong.append((job.name, code))
    assert not wrong
