"""Output checks that do not rely on the code under test.

Each check reads a job's exit code and stdout and returns None when the
output is right, or a one-line reason.  Expected values come from the
benchmark's own geometry module and are cached per input file.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from fractions import Fraction

import geometry

_HPOLY_TERM = re.compile(r"^(-?\d+(?:/\d+)?)(?:\*t(?:\^(\d+))?)?$")


class Checker:
    def __init__(self, input_dir, digests=None):
        self.input_dir = input_dir
        self.digests = digests or {}  # job name -> sha256 of stdout
        self._geometry = {}
        self._phi_sums = {}

    def _load(self, name):
        with open(os.path.join(self.input_dir, name)) as fh:
            return json.load(fh)

    def _hull(self, polytope):
        """(points, facets, vertices, f-vector) of an input polytope file."""
        if polytope not in self._geometry:
            points = sorted(set(map(tuple, self._load(polytope)["vertices"])))
            facets = geometry.hull_facets(points)
            self._geometry[polytope] = (
                points, facets, geometry.vertices(points, facets),
                geometry.f_vector(points, facets),
            )
        return self._geometry[polytope]

    def _phi_sum_2p(self, polytope, phi):
        """sum of phi over the lattice points of 2P, by a box scan."""
        key = (polytope, phi)
        if key not in self._phi_sums:
            _, facets, verts, _ = self._hull(polytope)
            if phi is None:
                monomials = [((0,) * len(verts[0]), 1)]
            else:
                monomials = [(m["exps"], Fraction(m["coeff"]))
                             for m in self._load(phi)["monomials"]]
            self._phi_sums[key] = sum(
                (geometry.phi_value(monomials, m)
                 for m in geometry.lattice_points(verts, facets, 2)),
                Fraction(0),
            )
        return self._phi_sums[key]

    def check(self, job, code, stdout):
        reason = getattr(self, f"_check_{job.argv[0]}")(job, code, stdout)
        if reason is None and job.name in self.digests:
            digest = hashlib.sha256(stdout.encode()).hexdigest()
            if digest != self.digests[job.name]:
                reason = "stdout differs from the recorded digest"
        return reason

    def _check_verify(self, job, code, stdout):
        data = json.loads(stdout)
        if code != 0 or data["failed"] != 0 or data["checks"] < 1:
            return f"verify exit {code}, {data['failed']} of {data['checks']} checks failed"
        return None

    def _check_ehrhart(self, job, code, stdout):
        if code != 0:
            return f"exit {code}"
        data = json.loads(stdout)
        if data["constant_term_check"] is not True:
            return "constant_term_check is not true"
        # all-ones weights: at y = 0 both variants count phi over ell*P
        at_2 = sum(
            (Fraction(t["coeff"]) * 2**k
             for k, coeff in enumerate(data["coeffs"]) for t in coeff if t["exp"] == 0),
            Fraction(0),
        )
        expected = self._phi_sum_2p(job.polytope, job.phi)
        if at_2 != expected:
            return f"polynomial at z=2, y=0 is {at_2}, box scan of 2P gives {expected}"
        return None

    def _check_faces(self, job, code, stdout):
        if code != 0:
            return f"exit {code}"
        fv = json.loads(stdout)["f_vector"]
        if sum((-1) ** i * f for i, f in enumerate(fv)) != 0:
            return f"f-vector {fv} breaks Euler's relation"
        expected = list(self._hull(job.polytope)[3])
        if fv != expected:
            return f"f-vector {fv}, independent hull gives {expected}"
        return None

    def _check_hpoly(self, job, code, stdout):
        if code != 0:
            return f"exit {code}"
        h = {}
        for term in stdout.strip().split(" + "):
            match = _HPOLY_TERM.match(term)
            if match is None:
                return f"cannot parse h-polynomial term {term!r}"
            h[int(match.group(2) or (1 if "*t" in term else 0))] = Fraction(match.group(1))
        n = len(self._hull(job.polytope)[0][0])
        coeffs = [h.get(k, 0) for k in range(n + 1)]
        if max(h) != n or coeffs[0] != 1 or coeffs != coeffs[::-1]:
            return f"h-polynomial {stdout.strip()!r} is not palindromic of degree {n} with h0 = 1"
        return None

    def _check_gweights(self, job, code, stdout):
        if code != 0:
            return f"exit {code}"
        values = json.loads(stdout)["values"]
        faces = sum(self._hull(job.polytope)[3])
        ids = sorted(int(k) for k in values)
        # faces are numbered by dimension, so P is the last one; g of [P, P] is 1
        if ids[-1] != faces - 1 or values[str(ids[-1])] != [{"exp": 0, "coeff": "1"}]:
            return "the g-weight of P itself is not 1"
        return None
