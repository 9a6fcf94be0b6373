"""Brute-force lattice-point oracles shared by the tests.

The library lifts prefixes level by level through the projections of P
and enumerates points fibre by fibre.  Two slower, obvious routes stand
beside it: box_fibres visits every (n-1)-prefix of the bounding box and
solves each fibre from the facets alone, to be compared with the walk's
rows flattened by row_fibres, and box_points_by_face scans the
whole integer bounding box and reads each point's face off its tight
facets.  contains, tight_facet_indices and is_simple read a point or a
vertex against the facet inequalities directly.
"""

import itertools
import random
from math import prod
from operator import floordiv

from wehrhart.algebra import phi_eval
from wehrhart.polytope import InvalidPolytope, build_face_lattice, facet_presentation, fibre_rows


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def contains(P, point, dilation=1):
    """point lies in dilation * P."""
    return all(_dot(point, u) >= -dilation * a for u, a in P.facets)


def tight_facet_indices(P, point, dilation=1):
    """The facets of dilation * P on which point lies."""
    return frozenset(i for i, (u, a) in enumerate(P.facets) if _dot(point, u) == -dilation * a)


def is_simple(P):
    """Every vertex on exactly n facets."""
    return all(len(tight_facet_indices(P, v)) == P.n for v in P.vertices)


def row_fibres(lattice, ell):
    """The rows of wehrhart.polytope.fibre_rows flattened to the fibres of box_fibres.

    A fibre (prefix, lo, hi, face_lo, face_mid, face_hi) has the prefix
    outer + (x,), or () for n = 1.  Each row's shape is checked on the
    way, also under python -O, which pytest's assert rewriting skips in
    helper modules: outer has max(n - 2, 0) coordinates and x rises strictly.
    """
    n = lattice.polytope.n
    for outer, row in fibre_rows(lattice, ell):
        xs = [x for x, *_ in row]
        if len(outer) != max(n - 2, 0) or xs != sorted(set(xs)):
            raise AssertionError((outer, xs))
        for x, *fibre in row:
            yield ((*outer, x)[: n - 1], *fibre)


def box_fibres(lattice, ell):
    """The fibres of the library's walk (row_fibres), from every prefix of the bounding box.

    Each integer prefix of the first n-1 coordinates in the box of ell*P
    is tried in lexicographic order; the facets solve its fibre exactly as
    the library's walk does, and empty fibres are skipped.
    """
    P = lattice.polytope
    by_mask = {f.tight_mask: q for q, f in enumerate(lattice.faces) if f.dim >= 0}
    lower, upper, flat = [], [], []
    for F, (u, a) in enumerate(P.facets):
        group = lower if u[-1] > 0 else upper if u[-1] < 0 else flat
        group.append((1 << F, abs(u[-1]), u[:-1], ell * a))
    ranges = [
        range(ell * min(v[i] for v in P.vertices), ell * max(v[i] for v in P.vertices) + 1)
        for i in range(P.n - 1)
    ]
    for prefix in itertools.product(*ranges):
        sf = [(bit, _dot(w, prefix) + b) for bit, _, w, b in flat]
        if any(s < 0 for _, s in sf):
            continue
        sl = [(bit, c, _dot(w, prefix) + b) for bit, c, w, b in lower]
        su = [(bit, c, _dot(w, prefix) + b) for bit, c, w, b in upper]
        # t >= -s/c on a lower facet, t <= s/c on an upper one
        lo = -min(floordiv(s, c) for _, c, s in sl)
        hi = min(floordiv(s, c) for _, c, s in su)
        if lo > hi:
            continue
        at_flat = sum(bit for bit, s in sf if s == 0)
        at_lo = at_flat + sum(bit for bit, c, s in sl if s == -c * lo)
        at_hi = at_flat + sum(bit for bit, c, s in su if s == c * hi)
        if lo == hi:
            face = by_mask[at_lo | at_hi]
            yield prefix, lo, hi, face, None, face
        else:
            yield prefix, lo, hi, by_mask[at_lo], by_mask[at_flat], by_mask[at_hi]


def box_points_by_face(lattice, ell):
    """Integer points of ell*P keyed by the face whose relative interior holds them.

    Lists are in lexicographic order, like the library's.
    """
    P = lattice.polytope
    by_tight = {f.tight_mask: q for q, f in enumerate(lattice.faces) if f.dim >= 0}
    lo = [min(v[i] for v in P.vertices) * ell for i in range(P.n)]
    hi = [max(v[i] for v in P.vertices) * ell for i in range(P.n)]
    out = {fid: [] for fid in lattice.nonempty_ids}
    for m in itertools.product(*[range(a, b + 1) for a, b in zip(lo, hi)]):
        slacks = [sum(x * y for x, y in zip(m, u)) + ell * a for u, a in P.facets]
        if all(s >= 0 for s in slacks):
            tight = sum(1 << F for F, s in enumerate(slacks) if s == 0)
            out[by_tight[tight]].append(m)
    return out


def box_phi_face_sums(lattice, phi, ell):
    """sum of phi over Relint(ell Q) for every nonempty Q, one point at a time."""
    return {
        q: sum((phi_eval(phi, m) for m in pts), start=0)
        for q, pts in box_points_by_face(lattice, ell).items()
    }


def fibre_phi_face_sums(lattice, phi, ell):
    """box_phi_face_sums from the points of box_fibres, which scans far fewer prefixes.

    Each face adds up every monomial of phi in int, one point at a time,
    and takes phi's coefficients once at the end.
    """
    monomials = phi.monomials
    moments = {q: [0] * len(monomials) for q in lattice.nonempty_ids}
    for prefix, lo, hi, face_lo, face_mid, face_hi in box_fibres(lattice, ell):
        for t in range(lo, hi + 1):
            acc = moments[face_lo if t == lo else face_hi if t == hi else face_mid]
            m = prefix + (t,)
            for i, (e, _) in enumerate(monomials):
                acc[i] += prod(map(pow, m, e))
    return {
        q: sum((c * s for (_, c), s in zip(monomials, acc)), start=0)
        for q, acc in moments.items()
    }


def cube(n):
    return list(itertools.product((0, 1), repeat=n))


def cross(n):
    return [tuple(s * (i == j) for j in range(n)) for i in range(n) for s in (1, -1)]


# (dimension, seed, radius, draws) of the seeded random polytopes the tests share
RANDOM_SHAPES = [
    (2, 1, 3, 7), (2, 2, 2, 5), (3, 1, 2, 8), (3, 2, 1, 7),
    (4, 1, 1, 8), (4, 2, 1, 7), (5, 1, 1, 8),
]


# seeded random 6-polytopes, (dimension, seed, radius, draws) as above
RANDOM_6 = [(6, 1, 1, 10), (6, 2, 1, 12)]


def random_lattice(n, seed, radius, draws):
    """Face lattice of the hull of seeded draws in {-radius..radius}^n."""
    rng = random.Random(f"box-oracle:{n}:{seed}")
    while True:
        pts = [tuple(rng.randint(-radius, radius) for _ in range(n)) for _ in range(draws)]
        try:
            P = facet_presentation(pts)
        except InvalidPolytope:  # not full-dimensional: draw again
            continue
        return build_face_lattice(P)
