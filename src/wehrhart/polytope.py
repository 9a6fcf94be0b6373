"""Lattice polytopes at desk scale.

Facet presentation by brute-force hyperplane fitting over vertex subsets,
face lattice by closing tight-facet vertex sets under intersection, and
lattice points by a fibre walk.  The walk fixes the first n-1 coordinates
and solves the facet inequalities for the interval of the last one, whose
ends and middle each lie in the relative interior of one face; its cost
is proportional to the box of (n-1)-prefixes plus the points kept, not to
the full bounding box.  Everything is exact over Q; dimensions up to 6
and a few dozen vertices are the intended scale.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import floordiv, mul


class InvalidPolytope(ValueError):
    """Input point set does not describe a full-dimensional lattice polytope."""


def _dot(a, b):
    return sum(map(mul, a, b))


def _echelon(rows, ncols):
    """Gauss-Jordan elimination over Fraction.

    Returns the reduced nonzero rows and their pivot columns; row i has a 1
    in column pivots[i] and 0 there in every other row.
    """
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


def _rank(rows) -> int:
    """Rank of a matrix given as a list of rational/integer row vectors."""
    return len(_echelon(rows, len(rows[0]) if rows else 0)[1])


def _nullspace(rows, ncols):
    """Basis of the right kernel of the given matrix, as Fraction vectors."""
    mat, pivots = _echelon(rows, ncols)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -mat[r][fc]
        basis.append(vec)
    return basis


def _primitive(vec):
    """Scale a rational vector to a primitive integer vector (gcd 1)."""
    denom = 1
    for x in vec:
        denom = denom * x.denominator // gcd(denom, x.denominator)
    ints = [int(x * denom) for x in vec]
    g = 0
    for x in ints:
        g = gcd(g, x)
    return tuple(x // g for x in ints)


def _affine_rank(points) -> int:
    """Dimension of the affine hull; -1 for the empty set."""
    if not points:
        return -1
    base = points[0]
    diffs = [[p[i] - base[i] for i in range(len(base))] for p in points[1:]]
    return _rank(diffs) if diffs else 0


@dataclass(frozen=True)
class Face:
    """One face of the lattice: its vertices, tight facets, and dimension.

    The empty face has dim -1 and is tight on every facet by convention;
    the polytope itself has an empty tight set.
    """

    id: int
    vertex_set: frozenset
    tight_facets: frozenset
    dim: int


class LatticePolytope:
    """Full-dimensional lattice polytope with its primitive facet presentation.

    P = {m : <m, u_F> >= -a_F for every facet F}, inward normals u_F with
    gcd of entries 1.  Vertices and facets are stored in a deterministic
    (lexicographic) order.
    """

    __slots__ = ("n", "vertices", "facets")

    def __init__(self, n, vertices, facets):
        self.n = n
        self.vertices = tuple(tuple(v) for v in vertices)
        self.facets = tuple((tuple(u), int(a)) for u, a in facets)

    def tight_facet_indices(self, point, dilation=1):
        return frozenset(
            i
            for i, (u, a) in enumerate(self.facets)
            if _dot(point, u) == -dilation * a
        )

    def contains(self, point, dilation=1) -> bool:
        return all(_dot(point, u) >= -dilation * a for u, a in self.facets)

    def __eq__(self, other):
        return (
            isinstance(other, LatticePolytope)
            and self.n == other.n
            and self.vertices == other.vertices
            and self.facets == other.facets
        )

    def __repr__(self):
        return f"LatticePolytope(n={self.n}, {len(self.vertices)} vertices, {len(self.facets)} facets)"


def polytope_hash(P: LatticePolytope) -> str:
    """Deterministic content hash of the vertex list, for file cross-checks."""
    payload = json.dumps([list(v) for v in P.vertices])
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def facet_presentation(points) -> LatticePolytope:
    """Build the unique facet presentation of conv(points).

    Brute force: every n-subset of points that spans a hyperplane is fitted
    exactly, kept when all points lie on one side, and oriented inward.
    Points that are not vertices of the hull are dropped from the vertex
    list.  Requires a full-dimensional hull in the ambient dimension.
    """
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
        kernel = _nullspace(diffs, n) if diffs else _nullspace([[0] * n], n)
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
    tight_count = [
        [p for p in pts if _dot(p, u) == -a] for u, a in facets
    ]
    # a point is a vertex iff its tight facet normals span R^n
    vertices = []
    for p in pts:
        normals = [u for (u, a) in facets if _dot(p, u) == -a]
        if len(normals) >= n and _rank(normals) == n:
            vertices.append(p)
    P = LatticePolytope(n, vertices, facets)
    for (u, a), tight in zip(facets, tight_count):
        if _affine_rank(tight) != n - 1:
            raise InvalidPolytope(f"degenerate facet fit {(u, a)}")
    return P


class FaceLattice:
    """Graded face poset of a polytope, from the empty face up to P.

    Faces are ordered by (dim, vertex set); the order relation is vertex
    set inclusion.  Carries memo tables for point partitions and for the
    poset polynomials computed on top of it.
    """

    def __init__(self, polytope, faces):
        self.polytope = polytope
        self.faces = list(faces)
        self._subs = [f.vertex_set for f in self.faces]
        self._by_mask = {
            sum(1 << F for F in f.tight_facets): f.id for f in self.faces if f.dim >= 0
        }
        self._points_cache = {}
        self._g_memo = {}
        self._phi_sums = {}
        self._eulerian = None

    def leq(self, a: int, b: int) -> bool:
        return self._subs[a] <= self._subs[b]

    @property
    def empty_id(self) -> int:
        return next(f.id for f in self.faces if f.dim < 0)

    @property
    def top_id(self) -> int:
        return next(f.id for f in self.faces if f.dim == self.polytope.n)

    @property
    def nonempty_ids(self):
        return [f.id for f in self.faces if f.dim >= 0]

    @property
    def f_vector(self):
        counts = [0] * (self.polytope.n + 2)
        for f in self.faces:
            counts[f.dim + 1] += 1
        return tuple(counts)

    def interval(self, a: int, b: int):
        return [e for e in range(len(self.faces)) if self.leq(a, e) and self.leq(e, b)]

    def subfaces(self, a: int):
        """Nonempty faces below (and including) face a."""
        return [
            f.id for f in self.faces if f.dim >= 0 and self._subs[f.id] <= self._subs[a]
        ]

    def vertex_face_id(self, vertex_index: int) -> int:
        return next(
            f.id for f in self.faces if f.vertex_set == frozenset({vertex_index})
        )

    def ensure_eulerian(self) -> bool:
        if self._eulerian is None:
            self._eulerian = validate_eulerian(self)
        return self._eulerian

    def __repr__(self):
        return f"FaceLattice({len(self.faces)} faces of {self.polytope!r})"


def build_face_lattice(P: LatticePolytope) -> FaceLattice:
    """All faces of P as intersections of facet vertex sets.

    Closure under intersection makes deduplication by vertex set complete;
    the empty face (dim -1, tight on all facets) and P itself (empty tight
    set) are always present.
    """
    nv = len(P.vertices)
    facet_tight = [
        frozenset(i for i, v in enumerate(P.vertices) if _dot(v, u) == -a)
        for u, a in P.facets
    ]
    all_v = frozenset(range(nv))
    sets = {all_v, frozenset()}
    frontier = {all_v}
    while frontier:
        new = set()
        for s in frontier:
            for ft in facet_tight:
                t = s & ft
                if t not in sets:
                    new.add(t)
        sets |= new
        frontier = new

    def sort_key(s):
        return (_affine_rank([P.vertices[i] for i in sorted(s)]), tuple(sorted(s)))

    faces = []
    for fid, s in enumerate(sorted(sets, key=sort_key)):
        members = [P.vertices[i] for i in sorted(s)]
        tight = frozenset(
            F for F, ft in enumerate(facet_tight) if s <= ft
        )
        dim = _affine_rank(members)
        faces.append(Face(id=fid, vertex_set=s, tight_facets=tight, dim=dim))
    # Every set in the closure is the common vertex set of its tight
    # facets by construction; what a wrong facet list breaks is the grading:
    # each facet must close to an (n-1)-face and each vertex to a 0-face.
    dims = {f.vertex_set: f.dim for f in faces}
    for F, ft in enumerate(facet_tight):
        if dims[ft] != P.n - 1:
            raise InvalidPolytope(
                f"face lattice closure broken: facet {P.facets[F]} spans a "
                f"{dims[ft]}-face, not an {P.n - 1}-face"
            )
    for i, v in enumerate(P.vertices):
        if dims.get(frozenset({i})) != 0:
            raise InvalidPolytope(
                f"face lattice closure broken: vertex {v} is not cut out by its facets"
            )
    return FaceLattice(P, faces)


def fibres(lattice: FaceLattice, ell: int):
    """Every nonempty fibre of the integer points of ell*P, in lexicographic order.

    A fibre fixes the first n-1 coordinates (the prefix) and runs over the
    last one, t.  For each integer prefix in the bounding box of the
    projected vertices, the facet inequalities <m, u_F> >= -ell*a_F cut t
    down to an integer interval [lo, hi]: a facet with u_F[-1] > 0 bounds
    t from below and can be tight only at t = lo, one with u_F[-1] < 0
    bounds it from above and can be tight only at t = hi, and one with
    u_F[-1] = 0 holds, and is tight, on the whole fibre or on none of it.

    Yields (prefix, lo, hi, face_lo, face_mid, face_hi): the face of lo,
    the face shared by every t strictly between lo and hi (None when
    lo == hi), and the face of hi.  Prefixes come in lexicographic order.
    """
    if ell <= 0:
        raise ValueError("dilation must be a positive integer")
    P = lattice.polytope
    by_mask = lattice._by_mask
    # facet F has slack <u_F[:-1], prefix> + ell*a_F + u_F[-1]*t at (prefix, t);
    # each group keeps the facet bits, |u_F[-1]| and (u_F[:-1], ell*a_F)
    lower, upper, flat = ([], [], []), ([], [], []), ([], [], [])
    for F, (u, a) in enumerate(P.facets):
        bits, cs, rows = lower if u[-1] > 0 else upper if u[-1] < 0 else flat
        bits.append(1 << F)
        cs.append(abs(u[-1]))
        rows.append((u[:-1], ell * a))
    (bits_l, c_l, rows_l), (bits_u, c_u, rows_u), (bits_f, _, rows_f) = lower, upper, flat
    ranges = [
        range(ell * min(v[i] for v in P.vertices), ell * max(v[i] for v in P.vertices) + 1)
        for i in range(P.n - 1)
    ]
    for prefix in itertools.product(*ranges):
        sf = [_dot(w, prefix) + b for w, b in rows_f]
        if sf and min(sf) < 0:
            continue
        sl = [_dot(w, prefix) + b for w, b in rows_l]
        su = [_dot(w, prefix) + b for w, b in rows_u]
        # t >= -s/c on a lower facet, t <= s/c on an upper one
        lo = -min(map(floordiv, sl, c_l))
        hi = min(map(floordiv, su, c_u))
        if lo > hi:
            continue
        base = 0
        for bit, s in zip(bits_f, sf):
            if s == 0:
                base |= bit
        at_lo = at_hi = base
        for bit, s, c in zip(bits_l, sl, c_l):
            if s == -c * lo:
                at_lo |= bit
        for bit, s, c in zip(bits_u, su, c_u):
            if s == c * hi:
                at_hi |= bit
        if lo == hi:
            face = by_mask[at_lo | at_hi]
            yield prefix, lo, hi, face, None, face
        else:
            yield prefix, lo, hi, by_mask[at_lo], by_mask[base], by_mask[at_hi]


def points_by_face(lattice: FaceLattice, ell: int):
    """All m in ell*P (integer points), partitioned by relative interior.

    Materialises the fibres of fibres(): every point of a fibre lands in
    the face read off its end or its middle, so no point outside ell*P is
    ever visited.  The cost is proportional to the box of prefixes (the
    first n-1 coordinates) plus the points kept, not to the full bounding
    box.  Prefixes come in lexicographic order and t rises within a
    fibre, so every list is sorted lexicographically as built.  Results
    are memoized on the lattice; only character sums call this, the
    weighted counts sum over the fibres directly.
    """
    if ell in lattice._points_cache:
        return lattice._points_cache[ell]
    out = {fid: [] for fid in lattice.nonempty_ids}
    for prefix, lo, hi, face_lo, face_mid, face_hi in fibres(lattice, ell):
        out[face_lo].append(prefix + (lo,))
        if hi > lo:
            out[face_mid].extend(prefix + (t,) for t in range(lo + 1, hi))
            out[face_hi].append(prefix + (hi,))
    lattice._points_cache[ell] = out
    return out


def eulerian_check(elements, leq, rank) -> bool:
    """Every nontrivial closed interval balances even and odd ranks.

    Bit j of up[i] (down[i]) marks elements[j] above (below) elements[i],
    so the interval [a, b] is up[a] & down[b] and its even-rank half is
    one more mask away: leq is called once per ordered pair.
    """
    elements = list(elements)
    size = range(len(elements))
    up = [sum(1 << j for j in size if leq(a, elements[j])) for a in elements]
    down = [sum(1 << i for i in size if up[i] >> j & 1) for j in size]
    even = sum(1 << j for j in size if rank(elements[j]) % 2 == 0)
    for i in size:
        for j in size:
            if i != j and up[i] >> j & 1:
                interval = up[i] & down[j]
                if 2 * (interval & even).bit_count() != interval.bit_count():
                    return False
    return True


def validate_eulerian(lattice) -> bool:
    """True iff the face poset is Eulerian (interval parity balance)."""
    ids = [f.id for f in lattice.faces]
    return eulerian_check(ids, lattice.leq, lambda i: lattice.faces[i].dim + 1)


def is_simple(P: LatticePolytope) -> bool:
    """Every vertex on exactly n facets."""
    return all(
        len(P.tight_facet_indices(v)) == P.n for v in P.vertices
    )
