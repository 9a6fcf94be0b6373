"""verify --suite all --lmax 2 prints exactly the recorded stdout on cube5 and cross5.

The benchmark's digests cover verify up to dimension 4 only.  These two
sha256 digests were recorded before the verifiers were rebuilt on per-face
values, so any change to the report of a 5-polytope fails the suite.
"""

import hashlib
import json
from io import StringIO

import pytest

from box_oracle import cross, cube
from wehrhart import cli

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
