"""Independent integer geometry for the benchmark's own checks and inputs.

A second, deliberately plain implementation: facets by integer
normals over all n-subsets, faces by closing facet point sets under
intersection, and a bounding-box lattice-point scan.  It shares no code
with the wehrhart package, so checks built on it do not trust the code
they check.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def normal(rows):
    """Primitive integer vector orthogonal to n-1 vectors in Z^n, or None
    when they are linearly dependent.  Fraction-free Gauss-Jordan."""
    m = [list(r) for r in rows]
    n = len(m[0]) if m else 1
    pivots = []
    for c in range(n):
        r = len(pivots)
        p = next((i for i in range(r, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        for i in range(len(m)):
            if i != r and m[i][c]:
                a, b = m[r][c], m[i][c]
                m[i] = [a * x - b * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
    if len(pivots) < n - 1:
        return None
    free = next(c for c in range(n) if c not in pivots)
    scale = 1
    for r, c in enumerate(pivots):
        scale = scale * m[r][c] // gcd(scale, m[r][c])
    u = [0] * n
    u[free] = scale
    for r, c in enumerate(pivots):
        u[c] = -m[r][free] * scale // m[r][c]
    g = gcd(*u)
    return tuple(x // g for x in u)


def affine_rank(points) -> int:
    """Dimension of the affine hull; -1 for no points."""
    if not points:
        return -1
    base = points[0]
    rows = [[Fraction(a - b) for a, b in zip(p, base)] for p in points[1:]]
    rank = 0
    for col in range(len(base)):
        pivot = next((r for r in rows if r[col] != 0), None)
        if pivot is None:
            continue
        rows.remove(pivot)
        rows = [
            [a - r[col] / pivot[col] * b for a, b in zip(r, pivot)] for r in rows
        ]
        rank += 1
    return rank


def hull_facets(points):
    """Facets of conv(points) as sorted (u, b) with <u, x> >= b on the hull.

    u is a primitive integer normal.  The hull must be full-dimensional.
    """
    pts = sorted(set(map(tuple, points)))
    n = len(pts[0])
    facets = set()
    for sub in itertools.combinations(pts, n):
        base = sub[0]
        u = normal([[a - b for a, b in zip(p, base)] for p in sub[1:]])
        if u is None:
            continue
        b = dot(u, base)
        above = below = False
        for p in pts:
            v = dot(u, p) - b
            above |= v > 0
            below |= v < 0
            if above and below:
                break
        else:
            if not below:
                facets.add((u, b))
            else:
                facets.add((tuple(-x for x in u), -b))
    return sorted(facets)


def face_sets(points, facets):
    """Every face as the set of indices of the sorted distinct points on it."""
    pts = sorted(set(map(tuple, points)))
    facet_sets = [
        frozenset(i for i, p in enumerate(pts) if dot(u, p) == b) for u, b in facets
    ]
    sets = {frozenset(range(len(pts)))}
    frontier = set(sets)
    while frontier:
        new = {s & t for s in frontier for t in facet_sets} - sets
        sets |= new
        frontier = new
    return sets


def f_vector(points, facets):
    """(f_-1, f_0, ..., f_n): face counts by dimension, empty face first."""
    pts = sorted(set(map(tuple, points)))
    n = len(pts[0])
    counts = [0] * (n + 2)
    for s in face_sets(pts, facets):
        counts[affine_rank([pts[i] for i in sorted(s)]) + 1] += 1
    return tuple(counts)


def vertices(points, facets):
    """Points of the input that are vertices of the hull, sorted."""
    pts = sorted(set(map(tuple, points)))
    n = len(pts[0])
    out = []
    for p in pts:
        normals = [u for u, b in facets if dot(u, p) == b]
        if affine_rank([(0,) * n] + normals) == n:
            out.append(p)
    return out


def lattice_points(verts, facets, ell: int):
    """Integer points of ell * conv(verts), by a bounding-box scan."""
    n = len(verts[0])
    ranges = [
        range(ell * min(v[i] for v in verts), ell * max(v[i] for v in verts) + 1)
        for i in range(n)
    ]
    for m in itertools.product(*ranges):
        if all(dot(u, m) >= ell * b for u, b in facets):
            yield m


def phi_value(monomials, m) -> Fraction:
    """sum c * prod m_i^e_i over (exps, c) pairs."""
    total = Fraction(0)
    for exps, c in monomials:
        v = Fraction(c)
        for x, e in zip(m, exps):
            v *= x**e
        total += v
    return total
