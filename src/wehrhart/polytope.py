"""Lattice polytopes at desk scale.

Facet presentation by the double-description method (Fukuda-Prodon) in
int arithmetic, face lattice by closing tight-facet vertex sets under
intersection and grading it in one pass down the closure, with the face
order held as one bitmask of faces above and one below each face, and
lattice points by a fibre walk.  The walk lifts the first n-1
coordinates level by level through the hulls of P's coordinate
projections; along each row (the first n-2 fixed) the ends of the last
coordinate's interval, whose ends and middle each lie in the relative
interior of one face, follow two envelopes of facet lines.  Its cost is
one pass over the facets per row, O(1) per fibre, and the points kept.
Everything is exact and no Fraction is built: elimination is
fraction-free over int.  Dimensions up to 6 and a few dozen vertices are
the intended scale.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import cmp_to_key, reduce
from math import gcd, lcm
from operator import and_, mul

from .algebra import as_int

# Entries kept in FaceLattice._points_cache (one per dilation),
# FaceLattice._phi_sums (one per integrand and dilation: the open face
# sums, and the closed ones once a verifier asks) and
# FaceLattice._face_polys (one table of per-face interpolants per
# integrand, holding their values at up to PHI_SUMS_MAX negative
# dilations); past the bound the oldest entry is dropped, and the tables
# inside an entry leave with it.  One CLI run asks for at most 16
# dilations of points (|charsum --l| <= 16, verify --lmax <= 12) and, for
# its one integrand, for at most max(lmax, n + deg phi + 3) dilations of
# sums, one table and lmax negative dilations, so no run at desk scale
# evicts anything.  FaceLattice._projections needs no bound: it holds the facets
# of the n-1 projections pi_1(P) .. pi_{n-1}(P) and serves every dilation.
# Nor does FaceLattice._g_memo: one entry per face Q' that the Stanley
# sweep reached, holding one int tuple (the f of [Q, Q']) per face Q below
# Q', the empty face included, so at most the number of nested pairs.
POINTS_CACHE_MAX = 16
PHI_SUMS_MAX = 64
FACE_POLYS_MAX = 4


class InvalidPolytope(ValueError):
    """Input point set does not describe a full-dimensional lattice polytope."""


class BoundedCache(dict):
    """A dict of at most `bound` entries that drops its oldest on overflow, counting evictions."""

    def __init__(self, bound: int):
        super().__init__()
        self.bound = bound
        self.evictions = 0

    def __setitem__(self, key, value):
        if key not in self and len(self) >= self.bound:
            del self[next(iter(self))]
            self.evictions += 1
        super().__setitem__(key, value)


def _dot(a, b):
    return sum(map(mul, a, b))


def mask_ids(mask: int):
    """Positions of the set bits of mask, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _primitive(vec):
    """Divide an int vector by the gcd of its entries (gcd 1 after)."""
    g = gcd(*vec)
    return tuple(x // g for x in vec)


def _echelon(rows, ncols):
    """Fraction-free Gauss-Jordan elimination over int.

    Returns the reduced nonzero rows and their pivot columns; row i has a
    positive entry in column pivots[i] and 0 there in every other row.
    Each elimination step r <- p*r - f*pivot row is divided by the gcd of
    the new row, so entries stay small and never leave int.
    """
    mat = [list(row) for row in rows]
    pivots = []
    for col in range(ncols):
        row = len(pivots)
        pivot = next((r for r in range(row, len(mat)) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[row], mat[pivot] = mat[pivot], mat[row]
        if mat[row][col] < 0:
            mat[row] = [-x for x in mat[row]]
        prow = mat[row]
        p = prow[col]
        for r, other in enumerate(mat):
            f = other[col]
            if r != row and f:
                new = [p * a - f * b for a, b in zip(other, prow)]
                g = gcd(*new)
                mat[r] = [x // g for x in new] if g > 1 else new
        pivots.append(col)
    return mat[: len(pivots)], pivots


def _rank(rows) -> int:
    """Rank of a matrix given as a list of integer row vectors."""
    return len(_echelon(rows, len(rows[0]) if rows else 0)[1])


def _nullspace(rows, ncols):
    """Basis of the right kernel of an integer matrix, as primitive int vectors."""
    mat, pivots = _echelon(rows, ncols)
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        # row r reads mat[r][pc] * x[pc] + mat[r][fc] * x[fc] = 0 at x[fc] = scale
        scale = lcm(*(mat[r][pc] for r, pc in enumerate(pivots) if mat[r][fc]))
        vec = [0] * ncols
        vec[fc] = scale
        for r, pc in enumerate(pivots):
            vec[pc] = -mat[r][fc] * scale // mat[r][pc]
        basis.append(_primitive(vec))
    return basis


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
        self.vertices = tuple(tuple(map(as_int, v)) for v in vertices)
        self.facets = tuple((tuple(map(as_int, u)), as_int(a)) for u, a in facets)

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

    Double description: the inequalities (u, a) with <p, u> + a >= 0 at
    every point p form a pointed cone whose extreme rays are the facets.
    The cone of the first n+1 affinely independent points is simplicial,
    each ray the kernel of n of the rows (p, 1).  Every other point then
    cuts the cone: rays on its positive side stay, and each adjacent
    pair of rays on opposite sides gives one new ray on the cut.  Two
    rays are adjacent iff their common zero set (the points tight on
    both, a bitmask) has at least n-1 points and lies in the zero set of
    no third ray.  All arithmetic is in int; each normal u_F is divided
    by its gcd at the end.  Points that are not vertices of the hull are
    dropped from the vertex list.  Requires a full-dimensional hull in
    the ambient dimension and int coordinates (floats and bools raise
    TypeError).
    """
    pts = sorted({tuple(map(as_int, p)) for p in points})
    if not pts:
        raise InvalidPolytope("no points")
    n = len(pts[0])
    if n == 0:
        raise InvalidPolytope("points have no coordinates")
    if any(len(p) != n for p in pts):
        raise InvalidPolytope("points of mixed dimension")
    if len(pts) < n + 1:
        raise InvalidPolytope(f"{len(pts)} distinct points cannot span R^{n}")
    rows = [p + (1,) for p in pts]
    # pivot columns of the transposed rows: the first affinely independent points
    _, start = _echelon(list(zip(*rows)), len(rows))
    if len(start) != n + 1:
        raise InvalidPolytope("points do not affinely span the ambient space")

    start_mask = sum(1 << i for i in start)
    rays = []  # (u_F + (a_F,), bitmask of the points tight on it)
    for i in start:
        (ray,) = _nullspace([rows[j] for j in start if j != i], n + 1)
        if _dot(rows[i], ray) < 0:
            ray = tuple(-x for x in ray)
        rays.append((ray, start_mask ^ 1 << i))
    for k in sorted(set(range(len(pts))) - set(start)):
        row, bit = rows[k], 1 << k
        pos, neg, kept = [], [], []
        for ray, zero in rays:
            s = _dot(row, ray)
            if s > 0:
                pos.append((ray, zero, s))
                kept.append((ray, zero))
            elif s < 0:
                neg.append((ray, zero, s))
            else:
                kept.append((ray, zero | bit))
        zeros = [zero for _, zero in rays]
        for r1, z1, s1 in pos:
            for r2, z2, s2 in neg:
                common = z1 & z2
                if common.bit_count() < n - 1 or any(
                    z & common == common for z in zeros if z != z1 and z != z2
                ):
                    continue
                kept.append((_primitive([s1 * b - s2 * a for a, b in zip(r1, r2)]), common | bit))
        rays = kept

    facets = []
    for ray, zero in rays:
        g = gcd(*ray[:-1])
        facets.append(((tuple(x // g for x in ray[:-1]), ray[-1] // g), zero))
    facets.sort()
    for (u, a), zero in facets:
        if _affine_rank([pts[i] for i in mask_ids(zero)]) != n - 1:
            raise InvalidPolytope(f"degenerate facet fit {(u, a)}")
    # a point is a vertex iff no other point lies on all of its facets
    vertices = [
        p
        for i, p in enumerate(pts)
        if reduce(and_, (zero for _, zero in facets if zero >> i & 1), -1) == 1 << i
    ]
    return LatticePolytope(n, vertices, [facet for facet, _ in facets])


class FaceLattice:
    """Graded face poset of a polytope, from the empty face up to P.

    Faces are ordered by (dim, vertex set); the order relation is vertex
    set inclusion, held as bitmasks over face ids: bit b of up[a] is set
    iff a <= b, bit a of down[b] likewise.  up[a] is the AND, over the
    vertices of a, of the faces containing that vertex; down[b] is the
    AND, over the facets tight at b, of the faces inside that facet
    (every face is the intersection of its tight facets).  Carries memo
    tables for point partitions and for the poset polynomials computed on
    top of it; the two that grow with the dilation and the per-integrand
    table of per-face interpolants are BoundedCaches (POINTS_CACHE_MAX,
    PHI_SUMS_MAX, FACE_POLYS_MAX).  The facets of the coordinate
    projections that bound the fibre walk are computed on first use and
    have exactly n-1 entries.
    """

    def __init__(self, polytope, faces):
        self.polytope = polytope
        self.faces = list(faces)
        self._by_mask = {
            sum(1 << F for F in f.tight_facets): f.id for f in self.faces if f.dim >= 0
        }
        full = (1 << len(self.faces)) - 1
        with_vertex, in_facet = {}, {}
        for f in self.faces:
            for v in f.vertex_set:
                with_vertex[v] = with_vertex.get(v, 0) | 1 << f.id
            for F in f.tight_facets:
                in_facet[F] = in_facet.get(F, 0) | 1 << f.id
        self.up = [reduce(and_, map(with_vertex.get, f.vertex_set), full) for f in self.faces]
        self.down = [reduce(and_, map(in_facet.get, f.tight_facets), full) for f in self.faces]
        self._nonempty = sum(1 << f.id for f in self.faces if f.dim >= 0)
        self._points_cache = BoundedCache(POINTS_CACHE_MAX)
        self._g_memo = {}
        self._phi_sums = BoundedCache(PHI_SUMS_MAX)
        self._face_polys = BoundedCache(FACE_POLYS_MAX)
        self._projections = None
        self._eulerian = None

    def leq(self, a: int, b: int) -> bool:
        return self.up[a] >> b & 1 == 1

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
        return mask_ids(self.up[a] & self.down[b])

    def subfaces(self, a: int):
        """Nonempty faces below (and including) face a."""
        return mask_ids(self.down[a] & self._nonempty)

    def vertex_face_id(self, vertex_index: int) -> int:
        return next(
            f.id for f in self.faces if f.vertex_set == frozenset({vertex_index})
        )

    def projections(self):
        """Facets of pi_k(P), the hull of the vertices cut to their first k coordinates, for k = 1..n-1."""
        if self._projections is None:
            verts = self.polytope.vertices
            self._projections = [
                facet_presentation([v[:k] for v in verts]).facets for k in range(1, self.polytope.n)
            ]
        return self._projections

    def ensure_eulerian(self) -> bool:
        if self._eulerian is None:
            self._eulerian = validate_eulerian(self)
        return self._eulerian

    def __repr__(self):
        return f"FaceLattice({len(self.faces)} faces of {self.polytope!r})"


def build_face_lattice(P: LatticePolytope) -> FaceLattice:
    """All faces of P as intersections of facet vertex sets.

    Vertex sets are bitmasks while the closure runs.  Closure under
    intersection makes deduplication by vertex set complete; the empty
    face (dim -1, tight on all facets) and P itself (empty tight set) are
    always present.  Faces are graded by one pass down the closure, in
    decreasing vertex count; elimination ranks only the facets, for the
    closure check.
    """
    nv = len(P.vertices)
    facet_tight = [
        sum(1 << i for i, v in enumerate(P.vertices) if _dot(v, u) == -a)
        for u, a in P.facets
    ]
    all_v = (1 << nv) - 1
    sets = {all_v, 0}
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

    members = {s: mask_ids(s) for s in sets}
    # grade top down: a face meets a facet not containing it in a face one
    # dimension lower or less, and in exactly one lower along some facet
    dims = dict.fromkeys(sets, P.n)
    for s in sorted(sets, key=int.bit_count, reverse=True):
        for ft in facet_tight:
            t = s & ft
            if t != s and dims[t] >= dims[s]:
                dims[t] = dims[s] - 1
    faces = [
        Face(
            id=fid,
            vertex_set=frozenset(members[s]),
            tight_facets=frozenset(F for F, ft in enumerate(facet_tight) if s & ft == s),
            dim=dims[s],
        )
        for fid, s in enumerate(sorted(sets, key=lambda s: (dims[s], members[s])))
    ]
    # Every set in the closure is the common vertex set of its tight
    # facets by construction; what a wrong facet list breaks is the grading:
    # each facet must close to an (n-1)-face and each vertex to a 0-face.
    for F, ft in enumerate(facet_tight):
        rank = _affine_rank([P.vertices[i] for i in members[ft]])
        if rank != P.n - 1:
            raise InvalidPolytope(
                f"face lattice closure broken: facet {P.facets[F]} spans a "
                f"{rank}-face, not an {P.n - 1}-face"
            )
    for i, v in enumerate(P.vertices):
        if dims.get(1 << i) != 0:
            raise InvalidPolytope(
                f"face lattice closure broken: vertex {v} is not cut out by its facets"
            )
    return FaceLattice(P, faces)


def check_dilation(ell) -> int:
    """A dilation as an int; floats and bools raise TypeError, ell < 1 ValueError."""
    ell = as_int(ell)
    if ell < 1:
        raise ValueError("dilation must be a positive integer")
    return ell


def _interval(lower, upper, prefix):
    """Integer range of the next coordinate x over prefix, from (w, c, b) with c > 0:
    <w, prefix> + b + c*x >= 0 in lower, <w, prefix> + b - c*x >= 0 in upper."""
    return range(
        max(-((_dot(w, prefix) + b) // c) for w, c, b in lower),
        min((_dot(w, prefix) + b) // c for w, c, b in upper) + 1,
    )


def _prefixes(bounds, prefix=()):
    """Integer points lifted level by level, coordinate k through the
    _interval of bounds[k], in lexicographic order."""
    if len(prefix) == len(bounds):
        yield prefix
        return
    for x in _interval(*bounds[len(prefix)], prefix):
        yield from _prefixes(bounds, prefix + (x,))


def _floor_min(lines, xs):
    """floor(min_F (s_F + v_F*x) / c_F) at each x of the range xs, and the
    bits of the lines attaining it where the minimum is an integer (else 0).

    lines are (s, v, c, bits) with c > 0, in decreasing slope v/c.  Their
    minimum is a concave envelope, built with a stack: of parallel lines
    the lowest stays, identical lines merge their bits, and a line that is
    nowhere strictly below the others is dropped.  A pointer walks it along
    x, so each x reads one line.  Another line can attain the minimum only
    where the envelope changes lines; at such an x every line is checked.
    """
    env = []  # (s, v, c, bits, num, den): the line takes over at x = num/den
    for s, v, c, bits in lines:
        while env:
            s0, v0, c0, b0, n0, d0 = env[-1]
            # the line lies below the top for x > num/den; den >= 0 by the order
            num, den = s * c0 - s0 * c, v0 * c - v * c0
            if den == 0 and num >= 0:  # parallel and not lower
                if num == 0:
                    env[-1] = (s0, v0, c0, b0 | bits, n0, d0)
                break
            if den and num * d0 > n0 * den:  # the top keeps a stretch of its own
                env.append((s, v, c, bits, num, den))
                break
            env.pop()
        else:
            env.append((s, v, c, bits, -1, 0))
    floors, tight = [], []
    i, last = 0, len(env) - 1
    for x in xs:
        while i < last and x * env[i + 1][5] >= env[i + 1][4]:
            i += 1
        s, v, c, bits, num, den = env[i]
        q, r = divmod(s + v * x, c)
        if r:
            bits = 0
        elif x * den == num:
            bits = sum(b for s, v, c, b in lines if s + v * x == c * q)
        floors.append(q)
        tight.append(bits)
    return floors, tight


def fibre_rows(lattice: FaceLattice, ell: int):
    """The nonempty fibres of the integer points of ell*P, one row at a time.

    A fibre fixes the first n-1 coordinates (the prefix) and runs over the
    last one, t; a row fixes the first n-2 (outer) and runs over the
    next, x.  Coordinate k of the prefix runs over the interval that the
    facets of pi_{k+1}(ell P), the projection to the first k+1
    coordinates, allow (FaceLattice.projections), so every prefix lies in
    pi_{n-1}(ell P).  On a row a facet <m, u_F> >= -ell*a_F with
    u_F[-1] > 0 bounds t from below by a line in x and can be tight only
    at t = lo, one with u_F[-1] < 0 bounds it from above and can be tight
    only at t = hi: lo and hi are floors of two envelopes (_floor_min) of
    lines sorted by slope once per call.  A facet with u_F[-1] = 0 holds,
    and is tight, on the whole fibre or on none of it.

    Yields (outer, row), row a list of (x, lo, hi, face_lo, face_mid,
    face_hi), one per nonempty fibre in increasing x: the face of lo, the
    face shared by every t strictly between lo and hi (None when
    lo == hi), and the face of hi.  Rows come in lexicographic order; for
    n = 1 the one fibre, over the empty prefix, is one row at x = 0.
    """
    ell = check_dilation(ell)
    P = lattice.polytope
    if P.n == 1:  # ell*P = ell*[v0, v1]
        (v0,), (v1,) = P.vertices
        faces = lattice.vertex_face_id(0), lattice.top_id, lattice.vertex_face_id(1)
        yield (), [(0, ell * v0, ell * v1, *faces)]
        return
    by_mask = lattice._by_mask
    bounds = [
        (
            [(u[:k], u[k], ell * a) for u, a in facets if u[k] > 0],
            [(u[:k], -u[k], ell * a) for u, a in facets if u[k] < 0],
        )
        for k, facets in enumerate(lattice.projections())
    ]
    # facet F has slack s + u_F[-2]*x + u_F[-1]*t, s = <u_F[:-2], outer> + ell*a_F, so
    # -t on a lower facet and t on an upper one are at most (s + u_F[-2]*x) / |u_F[-1]|
    lower, upper, flat = [], [], []
    for F, (u, a) in enumerate(P.facets):
        side = lower if u[-1] > 0 else upper if u[-1] < 0 else flat
        side.append((u[:-2], ell * a, u[-2], abs(u[-1]), 1 << F))
    for side in (lower, upper):  # decreasing slope v/c, compared in int
        side.sort(key=cmp_to_key(lambda p, q: q[2] * p[3] - p[2] * q[3]))
    for outer in _prefixes(bounds[:-1]):
        xs = _interval(*bounds[-1], outer)
        (neg_lo, tight_lo), (hi_end, tight_hi) = (
            _floor_min([(sum(map(mul, w, outer), b), v, c, bit) for w, b, v, c, bit in side], xs)
            for side in (lower, upper)
        )
        # a flat facet's slack s + v*x is >= 0 on the row: zero at one x, or everywhere
        always, flat_at = 0, {}
        for w, b, v, _, bit in flat:
            s = sum(map(mul, w, outer), b)
            if v and s % v == 0:
                flat_at[-s // v] = flat_at.get(-s // v, 0) | bit
            elif not v and s == 0:
                always |= bit
        row = []
        for x, lo, hi, at_lo, at_hi in zip(xs, neg_lo, hi_end, tight_lo, tight_hi):
            lo = -lo
            if lo > hi:
                continue
            at_flat = always | flat_at.get(x, 0)
            if lo == hi:
                face = by_mask[at_flat | at_lo | at_hi]
                row.append((x, lo, hi, face, None, face))
            else:
                faces = by_mask[at_flat | at_lo], by_mask[at_flat], by_mask[at_flat | at_hi]
                row.append((x, lo, hi, *faces))
        yield outer, row


def fibres(lattice: FaceLattice, ell: int):
    """Every nonempty fibre of the integer points of ell*P, in lexicographic order.

    The rows of fibre_rows flattened to (prefix, lo, hi, face_lo,
    face_mid, face_hi), prefix = outer + (x,), or () for n = 1.
    """
    keep = lattice.polytope.n - 1
    for outer, row in fibre_rows(lattice, ell):
        for x, *fibre in row:
            yield ((*outer, x)[:keep], *fibre)


def points_by_face(lattice: FaceLattice, ell: int):
    """All m in ell*P (integer points), partitioned by relative interior.

    Materialises the fibres of fibres(): every point of a fibre lands in
    the face read off its end or its middle, so no point outside ell*P is
    ever visited.  The cost is that of the rows of fibre_rows plus the
    points kept.  Prefixes come in lexicographic order and t rises within
    a fibre, so every list is sorted lexicographically as built.  Results
    are memoized on the lattice; only character sums call this, the
    weighted counts sum over the rows directly.
    """
    ell = check_dilation(ell)
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


def eulerian_check(up, down, even) -> bool:
    """Every nontrivial closed interval balances even and odd ranks.

    Bit j of up[i] (down[i]) marks element j above (below) element i,
    and bit j of even marks element j of even rank, so the interval
    [a, b] is up[a] & down[b] and its even-rank half is one more mask
    away.  The masks must agree: bit i of down[j] is required for every
    bit j of up[i], and down must hold as many bits as up, so down is
    exactly the transpose of up.
    """
    if sum(map(int.bit_count, up)) != sum(map(int.bit_count, down)):
        return False
    for i, above in enumerate(up):
        bit = 1 << i
        for j in mask_ids(above):
            if not down[j] & bit:
                return False
            interval = above & down[j]
            if j != i and 2 * (interval & even).bit_count() != interval.bit_count():
                return False
    return True


def validate_eulerian(lattice) -> bool:
    """True iff the face poset is Eulerian (interval parity balance)."""
    # rank is dim + 1: the even-rank faces are those of odd dim, the empty face among them
    even = sum(1 << f.id for f in lattice.faces if f.dim % 2)
    return eulerian_check(lattice.up, lattice.down, even)
