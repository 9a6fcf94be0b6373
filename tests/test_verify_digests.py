"""verify and charsum print exactly the recorded stdout.

The benchmark's digests cover verify up to dimension 4 only.  These two
sha256 digests were recorded before the verifiers were rebuilt on per-face
values, so any change to the report of a 5-polytope fails the suite.
No benchmark workload runs charsum; its digests were recorded while the
library still expanded each orbit into a point-keyed sum before rendering,
so a change to how the sum is held must leave its bytes alone.
"""

import hashlib
import json
import random
from io import StringIO
from pathlib import Path

import pytest

from box_oracle import cross, cube
from wehrhart import cli
from wehrhart.corpus import build
from wehrhart.jsonio import dumps, weight_to_json
from wehrhart.weights import random_weight_function

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

DIGESTS = {
    "cube5": "2dcd16c45c8ed294e8d7cba351b9ceead997540c3b6151ed62136590ae3c91ae",
    "cross5": "b1c4e00dea1c0a6eda0c803c02c55fff206a907492f6fc5d090ea60cf135b1c2",
}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_verify_all_stdout_matches_the_recorded_digest(name, tmp_path):
    vertices = {"cube5": cube, "cross5": cross}[name](5)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"vertices": [list(v) for v in vertices]}))
    out = StringIO()
    argv = ["verify", str(path), "--suite", "all", "--lmax", "2"]
    assert cli.run(cli.parse_args(argv), stdout=out) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == DIGESTS[name]


# (polytope, ell, weights) -> sha256 of charsum stdout; weights None is all-ones,
# "random" a seeded random weight written to a file
CHARSUM_DIGESTS = {
    ("segment", 0, None):
        "4aa192bec76b1a2ad2c7c937e13b5520fb96e06c067f0ad3626040d7658f9f74",
    ("segment", 1, None):
        "65e90dd74844baf0ac9ffcdd29b7ec0bef6d57485143a39974a950b41b6d1048",
    ("segment", -1, None):
        "b132bfb82db946ab3641c5dc68c6a97bf7ca1e35ab0dafb82c3c6cd3c6d75abc",
    ("pyramid", -2, None):
        "fb0fbd6692adb17b09ed33a8381e6d6eb33160150fbf1b77432119f4b02ff58e",
    ("random3", 3, None):
        "bd04a61354ca7195515f83fefe7e18f09a63d07c22fe3de86a0085d237059c13",
    ("random3", 3, "random"):
        "e615a406c5b4c9e415579504eaf0305f862e44967a83bf8c4b698159b97cd48c",
    ("cube5", 3, None):
        "8bb2424195574c12cc37f5b102d570b8ac57f3bfcf6bfce5c1b2d085405c4feb",
    ("cross5", -3, None):
        "d5631a19925482e3f4346b346097c0c468d4f86384c954167fec2e1493b6bcc7",
}


def _polytope_file(name, tmp_path):
    if (FIXTURES / f"{name}.json").exists():
        return str(FIXTURES / f"{name}.json")
    vertices = {"cube5": cube, "cross5": cross}[name](5)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"vertices": [list(v) for v in vertices]}))
    return str(path)


@pytest.mark.parametrize("key", sorted(CHARSUM_DIGESTS, key=str), ids=str)
def test_charsum_stdout_matches_the_recorded_digest(key, tmp_path):
    name, ell, weights = key
    argv = ["charsum", _polytope_file(name, tmp_path), "--l", str(ell)]
    if weights == "random":
        path = tmp_path / "weights.json"
        path.write_text(dumps(weight_to_json(random_weight_function(build(name), random.Random(5)))))
        argv += ["--weights", str(path)]
    out = StringIO()
    assert cli.run(cli.parse_args(argv), stdout=out) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == CHARSUM_DIGESTS[key]
