"""Brute-force facet fitting, the oracle for the double-description hull.

The library builds facets incrementally in int arithmetic; this helper
fits a hyperplane through every n-subset of the points with its own
Fraction Gauss-Jordan elimination, keeps those with all points on one
side, and reads the vertices off the rank of the tight facet normals:
the slow and obvious route the library must agree with.
"""

import itertools
from fractions import Fraction
from math import gcd

from wehrhart.polytope import InvalidPolytope, LatticePolytope


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def fraction_echelon(rows, ncols):
    """Reduced row echelon form over Fraction: (nonzero rows, pivot columns)."""
    mat = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for col in range(ncols):
        row = len(pivots)
        pivot = next((r for r in range(row, len(mat)) if mat[r][col] != 0), None)
        if pivot is None:
            continue
        mat[row], mat[pivot] = mat[pivot], mat[row]
        inv = 1 / mat[row][col]
        mat[row] = [x * inv for x in mat[row]]
        for r in range(len(mat)):
            if r != row and mat[r][col] != 0:
                f = mat[r][col]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[row])]
        pivots.append(col)
    return mat[: len(pivots)], pivots


def fraction_rank(rows):
    return len(fraction_echelon(rows, len(rows[0]) if rows else 0)[1])


def fraction_nullspace(rows, ncols):
    """Kernel basis over Fraction, one vector per free column (entry 1 there)."""
    mat, pivots = fraction_echelon(rows, ncols)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -mat[r][fc]
        basis.append(vec)
    return basis


def _primitive(vec):
    denom = 1
    for x in vec:
        denom = denom * x.denominator // gcd(denom, x.denominator)
    ints = [int(x * denom) for x in vec]
    g = 0
    for x in ints:
        g = gcd(g, x)
    return tuple(x // g for x in ints)


def _affine_rank(points):
    if not points:
        return -1
    base = points[0]
    diffs = [[a - b for a, b in zip(p, base)] for p in points[1:]]
    return fraction_rank(diffs) if diffs else 0


def subset_facet_presentation(points) -> LatticePolytope:
    """conv(points) by fitting every n-subset; the checks raise as the library's do."""
    pts = sorted({tuple(int(x) for x in p) for p in points})
    if not pts:
        raise InvalidPolytope("no points")
    n = len(pts[0])
    if any(len(p) != n for p in pts):
        raise InvalidPolytope("points of mixed dimension")
    if len(pts) < n + 1:
        raise InvalidPolytope(f"{len(pts)} distinct points cannot span R^{n}")
    if _affine_rank(pts) != n:
        raise InvalidPolytope("points do not affinely span the ambient space")

    facets = set()
    for subset in itertools.combinations(range(len(pts)), n):
        base = pts[subset[0]]
        diffs = [[pts[i][j] - base[j] for j in range(n)] for i in subset[1:]]
        kernel = fraction_nullspace(diffs or [[0] * n], n)
        if len(kernel) != 1:
            continue
        u = _primitive(kernel[0])
        b = _dot(base, u)
        values = [_dot(p, u) - b for p in pts]
        if all(v >= 0 for v in values):
            facets.add((u, -b))
        elif all(v <= 0 for v in values):
            facets.add((tuple(-x for x in u), b))

    facets = sorted(facets)
    for u, a in facets:
        if _affine_rank([p for p in pts if _dot(p, u) == -a]) != n - 1:
            raise InvalidPolytope(f"degenerate facet fit {(u, a)}")
    # a point is a vertex iff its tight facet normals span R^n
    vertices = []
    for p in pts:
        normals = [u for u, a in facets if _dot(p, u) == -a]
        if len(normals) >= n and fraction_rank(normals) == n:
            vertices.append(p)
    return LatticePolytope(n, vertices, facets)
