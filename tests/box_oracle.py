"""Brute-force lattice-point oracles shared by the tests.

The library enumerates points fibre by fibre; these helpers scan the whole
integer bounding box instead and read each point's face off its tight
facets, the slow and obvious route the fibre walk must agree with.
"""

import itertools
import random

from wehrhart.algebra import phi_eval
from wehrhart.polytope import InvalidPolytope, build_face_lattice, facet_presentation


def box_points_by_face(lattice, ell):
    """Integer points of ell*P keyed by the face whose relative interior holds them.

    Lists are in lexicographic order, like the library's.
    """
    P = lattice.polytope
    by_tight = {f.tight_facets: f.id for f in lattice.faces if f.dim >= 0}
    lo = [min(v[i] for v in P.vertices) * ell for i in range(P.n)]
    hi = [max(v[i] for v in P.vertices) * ell for i in range(P.n)]
    out = {fid: [] for fid in lattice.nonempty_ids}
    for m in itertools.product(*[range(a, b + 1) for a, b in zip(lo, hi)]):
        slacks = [sum(x * y for x, y in zip(m, u)) + ell * a for u, a in P.facets]
        if all(s >= 0 for s in slacks):
            tight = frozenset(F for F, s in enumerate(slacks) if s == 0)
            out[by_tight[tight]].append(m)
    return out


def box_phi_face_sums(lattice, phi, ell):
    """sum of phi over Relint(ell Q) for every nonempty Q, one point at a time."""
    return {
        q: sum((phi_eval(phi, m) for m in pts), start=0)
        for q, pts in box_points_by_face(lattice, ell).items()
    }


def random_lattice(n, seed, radius, draws):
    """Face lattice of the hull of seeded draws in {-radius..radius}^n."""
    rng = random.Random(f"box-oracle:{n}:{seed}")
    while True:
        pts = [tuple(rng.randint(-radius, radius) for _ in range(n)) for _ in range(draws)]
        try:
            return build_face_lattice(facet_presentation(pts))
        except InvalidPolytope:  # not full-dimensional: draw again
            continue
