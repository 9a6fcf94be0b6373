"""One benchmark set-up in a fresh interpreter: import wehrhart, write inputs.

    python3 bench/prepare.py PLAN DIR

PLAN is the JSON file (name -> JSON value) of the seeded inputs that
bench/run.py chose with workloads.generate before any timing.  This writes
each of them into DIR and prints the seconds taken by the import and the
writes: wall seconds, then calibrated seconds (see calibration.py).
"""

import json
import os
import sys
import time

SAMPLES = 10  # machine-speed samples, taken after the timed region

start = time.perf_counter()
BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(BENCH), "src"), BENCH]

import wehrhart.cli  # noqa: E402,F401  (timed: the import is part of set-up)

plan, directory = sys.argv[1:]
with open(plan) as fh:
    files = json.load(fh)
os.makedirs(directory)
for name, data in files.items():
    with open(os.path.join(directory, name), "w") as fh:
        json.dump(data, fh)
elapsed = time.perf_counter() - start

import calibration  # noqa: E402

speed = sum(calibration.sample() for _ in range(SAMPLES)) / SAMPLES
print(elapsed, calibration.calibrated(elapsed, speed))
