"""Lattice polytopes at desk scale.

Facet presentation by the double-description method (Fukuda-Prodon) in
int arithmetic, which hands each facet's tight vertex set to the
polytope it builds, face lattice by closing one side of the vertex-facet
incidence under intersection in one pass down the closure that also
collects each set's containing mask and grades it: the facets' vertex
sets, or with fewer vertices than facets the vertices' facet sets (the
polar polytope's lattice), since the pass meets every face with every
row.  Each face is one record of two bitmasks (its vertices, its tight
facets), a dimension and each mask decoded to ids once, with its
position as its id, the grading and the order are bitmasks of face ids,
and lattice points come from a fibre walk.
The walk lifts the first n-1 coordinates level by level through the
facets of P's coordinate projections, each cut from the one above (P's
own at first) by one more double-description step; along each row (the
first n-2 fixed) the ends of the last coordinate's interval, whose ends
and middle each lie in the relative interior of one face, follow two
envelopes of facet lines.  Its cost is one pass over the facets per row,
O(1) per fibre, and the points kept.  Everything is exact and no
Fraction is built: elimination is fraction-free over int.  Dimensions up
to 6 and a few dozen vertices are the intended scale.
"""

from __future__ import annotations

import hashlib
import json
from functools import cmp_to_key, reduce
from math import gcd
from operator import and_, mul
from typing import NamedTuple

from .algebra import as_int

# Entries kept in FaceLattice._memo, and in each WeightFunction._memo, of
# any kind, before the oldest is dropped.  The largest CLI run, verify
# --suite all --lmax 12, keeps 12 point partitions, per-face sums at 12
# positive and 12 negative dilations and one table of per-face
# interpolants: 37; a weight there keeps 16.
MEMO_MAX = 37
# Faces a lattice may have: up and down are two F x F bit matrices, 64 MB
# at F = 2**14.  The largest lattice in use, the hull of 40 points in
# [-3, 3]^6, has 10,712 faces; the d-simplex has 2**(d+1), so the
# 14-simplex is the first simplex refused.
MAX_FACES = 1 << 14
# Comparable face pairs (a <= b, sum of popcount(up)) the Eulerian check
# visits and the faces export lists.  The 40-point hull above has 266,979
# (checked in about 1 s); the d-simplex has 3**(d+1), so the 11-simplex
# (531,441, about 1 s) is the last simplex admitted and the 12-simplex
# (1.59 million, 4 to 7 s to check, 58 MB to export) the first refused.
MAX_PAIRS = 1 << 20


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


def _start_simplex(rows):
    """The first linearly independent rows of an int matrix, as (index,
    vector) pairs, each vector zero on the other chosen rows and positive
    on its own.

    One fraction-free Gauss-Jordan pass (Bareiss) over the transposed rows
    beside the identity E, storing only E (column k of the left block is
    E row_k); a row is chosen iff its column is a pivot column.  A step
    r <- (p*r - f*pivot row) / previous pivot needs no gcd: every entry is
    a minor of the input, so a remainder means broken arithmetic
    (ArithmeticError).  At the end each pivot row reads the last pivot d at
    its own column and 0 at the others: the vector is its row of E, times
    the sign of d.
    """
    m = len(rows[0])
    block = [[int(i == j) for j in range(m)] for i in range(m)]
    free, prev, chosen = list(range(m)), 1, []
    for k, row in enumerate(rows):
        col = [_dot(e, row) for e in block]
        i = next((i for i in free if col[i]), None)
        if i is None:
            continue
        free.remove(i)
        top, p = block[i], col[i]
        for j, f in enumerate(col):
            if j != i:
                new = [divmod(p * a - f * b, prev) for a, b in zip(block[j], top)]
                if any(r for _, r in new):
                    raise ArithmeticError(f"elimination step not divisible by the pivot {prev}")
                block[j] = [q for q, _ in new]
        prev = p
        chosen.append((k, i))
        if not free:
            break
    return [(k, [x if prev > 0 else -x for x in block[i]]) for k, i in chosen]


def _cut(rays, values, bit, bound):
    """One double-description step: the extreme rays of a pointed cone,
    (ray, zero set bitmask) pairs, and their values on a hyperplane give the
    rays zero on it, bit joined to their zero sets, and for each adjacent
    pair with s1 > 0 > s2 the combination s1*r2 - s2*r1, zero on it, with
    their common zero set and bit.  Two rays are adjacent iff their common
    zero set has at least bound members (the cone's dimension less 2) and
    lies in no third ray's.
    """
    zeros = [zero for _, zero in rays]
    out = [(ray, zero | bit) for (ray, zero), s in zip(rays, values) if s == 0]
    pos = [(ray, zero, s) for (ray, zero), s in zip(rays, values) if s > 0]
    neg = [(ray, zero, s) for (ray, zero), s in zip(rays, values) if s < 0]
    for r1, z1, s1 in pos:
        for r2, z2, s2 in neg:
            common = z1 & z2
            if common.bit_count() >= bound and not any(
                z & common == common for z in zeros if z != z1 and z != z2
            ):
                out.append((_primitive([s1 * b - s2 * a for a, b in zip(r1, r2)]), common | bit))
    return out


def _normal(ray, k):
    """The inequality ray = u + (a,) cut to u[:k] + (a,) and divided by the gcd of u[:k]."""
    g = gcd(*ray[:k])
    return tuple(x // g for x in ray[:k]) + (ray[-1] // g,)


class Face(NamedTuple):
    """One face of the lattice as two bitmasks, its dimension and the masks' ids.

    Bit i of vertex_mask is set iff P.vertices[i] lies on the face, bit F of
    tight_mask iff the face lies on P.facets[F]; the empty face (dim -1) is
    tight on every facet, P on none.  vertex_ids and tight_ids are the two
    masks decoded, ascending.  Its id is its position in FaceLattice.faces.
    """

    vertex_mask: int
    tight_mask: int
    dim: int
    vertex_ids: tuple
    tight_ids: tuple


class LatticePolytope:
    """Full-dimensional lattice polytope with its primitive facet presentation.

    P = {m : <m, u_F> >= -a_F for every facet F}, inward normals u_F with
    gcd of entries 1.  Vertices and facets are stored in a deterministic
    (lexicographic) order.  facet_vertices holds one vertex bitmask per
    facet, bit i set iff P.vertices[i] is tight on it.  Polytopes come
    from facet_presentation(points), whose hull proves that every vertex
    lies on the inner side of every facet and that every facet's vertices
    span an (n-1)-face, and hands its result to the trusted _make; there
    is no public constructor, so every call LatticePolytope(...) raises
    TypeError.
    """

    __slots__ = ("n", "vertices", "facets", "facet_vertices")

    def __new__(cls, *args, **kwargs):
        raise TypeError("LatticePolytope has no public constructor; use facet_presentation(points)")

    @staticmethod
    def _make(n, vertices, facets, facet_vertices) -> "LatticePolytope":
        """Trusted constructor from int tuples and the tight vertex masks; no re-validation."""
        P = object.__new__(LatticePolytope)
        P.n, P.vertices, P.facets, P.facet_vertices = n, vertices, facets, facet_vertices
        return P

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
    its rays read off one fraction-free Gauss-Jordan pass over the rows
    (p, 1) (_start_simplex).  Every other point then cuts the cone (_cut):
    rays on its positive side or on the cut stay, and each adjacent pair
    on opposite sides gives one new ray on the cut.  Two rays are
    adjacent iff their common zero set (the points tight on both, a
    bitmask) has at least n-1 points and lies in the zero set of no third
    ray.  All arithmetic is in int; each normal u_F is divided by its gcd
    at the end.  Points that are not vertices of the hull are dropped
    from the vertex list.  Requires a full-dimensional hull in the
    ambient dimension and int coordinates (floats and bools raise
    TypeError).

    The result is built by the trusted LatticePolytope._make, each facet's
    vertex mask its ray's zero set cut to the vertices, since the method
    proves that every vertex lies on the inner side of every facet and that
    every facet's vertices span an (n-1)-face.  Every kept ray is
    >= 0 on every point processed so far: a negative ray is dropped, and
    a new ray s1*r2 - s2*r1 is a positive combination, 0 on the cut.  So
    each zero set is exact, and each has rank n in the rows (p, 1): a
    start ray's holds n independent rows, and a new ray's holds C and k,
    where C = z1 & z2 has rank n-1 (two rays are adjacent) and row k is
    outside span(C), as <row_k, r1> = s1 > 0.  The vertices on a facet
    span what all its points span, so they form an (n-1)-face.
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
    start = _start_simplex(rows)
    if len(start) != n + 1:
        raise InvalidPolytope("points do not affinely span the ambient space")
    start_mask = sum(1 << i for i, _ in start)
    rays = [(_primitive(ray), start_mask ^ 1 << i) for i, ray in start]  # (u_F + (a_F,), tight points)
    for k, row in enumerate(rows):
        if not start_mask >> k & 1:
            values = [_dot(row, ray) for ray, _ in rays]
            rays = [ray for ray, s in zip(rays, values) if s > 0] + _cut(rays, values, 1 << k, n - 1)

    facets = sorted((_normal(ray, n), zero) for ray, zero in rays)
    # a point is a vertex iff no other point lies on all of its facets
    common = [-1] * len(pts)
    for _, zero in facets:
        for i in mask_ids(zero):
            common[i] &= zero
    vertex_ids = [i for i, tight in enumerate(common) if tight == 1 << i]
    index = {i: v for v, i in enumerate(vertex_ids)}  # point id -> vertex id
    return LatticePolytope._make(
        n,
        tuple(pts[i] for i in vertex_ids),
        tuple((ray[:-1], ray[-1]) for ray, _ in facets),
        tuple(sum(1 << index[i] for i in mask_ids(zero) if i in index) for _, zero in facets),
    )


class FaceLattice:
    """Graded face poset of a polytope, from the empty face up to P.

    A face's id is its position q in faces, and ids set only the order
    faces are printed in: the grading is by_dim, bit q of by_dim[d + 1]
    set iff face q has dim d.
    The order relation is vertex mask inclusion, held as bitmasks over face
    ids: bit b of up[a] is set iff a <= b, bit a of down[b] likewise.
    up[a] is the AND, over the vertices of a, of the faces containing that
    vertex; down[b] is the AND, over the facets tight at b, of the faces
    inside that facet (every face is the intersection of its tight
    facets), both read off the ids each Face record holds.  Everything
    derived at a dilation or per integrand shares one BoundedCache of
    MEMO_MAX entries, _memo, each key naming what its entry depends on: ell
    for a point partition, (phi, ell) for per-face sums, phi for a table of
    per-face interpolants.  Every other field is bounded by construction:
    nonempty_ids holds one entry per face, and _g_memo one entry per face
    the Stanley sweep reached, one (f, g) row pair per face below it.  The
    facets of the coordinate projections that bound the fibre walk are cut
    from P's facets on first use and have exactly n-1 entries.
    """

    def __init__(self, polytope, faces):
        self.polytope = polytope
        self.faces = faces
        self.by_dim = [0] * (polytope.n + 2)
        self.nonempty_ids = []
        self._by_mask, with_vertex, in_facet = {}, {}, {}
        for q, f in enumerate(faces):
            bit = 1 << q
            self.by_dim[f.dim + 1] |= bit
            if f.dim >= 0:
                self._by_mask[f.tight_mask] = q
                self.nonempty_ids.append(q)
            for v in f.vertex_ids:
                with_vertex[v] = with_vertex.get(v, 0) | bit
            for F in f.tight_ids:
                in_facet[F] = in_facet.get(F, 0) | bit
        full = (1 << len(faces)) - 1
        self.up = [reduce(and_, map(with_vertex.get, f.vertex_ids), full) for f in faces]
        self.down = [reduce(and_, map(in_facet.get, f.tight_ids), full) for f in faces]
        self._memo = BoundedCache(MEMO_MAX)
        self._g_memo = {}
        self._projections = None
        self._eulerian = None

    def leq(self, a: int, b: int) -> bool:
        return self.up[a] >> b & 1 == 1

    @property
    def empty_id(self) -> int:
        (fid,) = mask_ids(self.by_dim[0])
        return fid

    @property
    def top_id(self) -> int:
        (fid,) = mask_ids(self.by_dim[-1])
        return fid

    @property
    def f_vector(self):
        return tuple(map(int.bit_count, self.by_dim))

    def subfaces(self, a: int):
        """Nonempty faces below (and including) face a."""
        return mask_ids(self.down[a] & ~self.by_dim[0])

    def vertex_face_id(self, vertex_index: int) -> int:
        """The id of the face {vertices[vertex_index]}; floats and bools raise
        TypeError, indices outside 0 <= i < len(vertices) ValueError."""
        i = as_int(vertex_index)
        if not 0 <= i < len(self.polytope.vertices):
            raise ValueError(f"no vertex with index {i}")
        return next(q for q in mask_ids(self.by_dim[1]) if self.faces[q].vertex_mask == 1 << i)

    def projections(self):
        """Facets of pi_k(P), P cut to its first k coordinates, for k = 1..n-1.

        Those valid on pi_k(P) are P's with u[k:] = 0: each level is the one
        above (at first P's facets, zero sets their vertices) cut by u[k] = 0,
        a cone in k+2 dimensions whose adjacent rays share k vertices or more.
        """
        if self._projections is None:
            P = self.polytope
            rays = [(u + (a,), zero) for (u, a), zero in zip(P.facets, P.facet_vertices)]
            levels = []
            for k in range(P.n - 1, 0, -1):
                cut = _cut(rays, [ray[k] for ray, _ in rays], 0, k)
                rays = sorted((_normal(ray, k), zero) for ray, zero in cut)
                levels.append(tuple((ray[:-1], ray[-1]) for ray, _ in rays))
            self._projections = tuple(reversed(levels))
        return self._projections

    def ensure_eulerian(self) -> bool:
        if self._eulerian is None:
            self._eulerian = validate_eulerian(self)
        return self._eulerian

    def __repr__(self):
        return f"FaceLattice({len(self.faces)} faces of {self.polytope!r})"


def _close(rows, width, top, refusal):
    """Close the full set of width bits under intersection with rows, one
    bitmask per row of a bit matrix.

    Sets are taken in decreasing popcount from the full set, graded top;
    each meets each row once, which joins the row's bit to its containing
    mask if the row contains it and else cuts out a smaller set, queued if
    new.  On a face lattice, with faces as sets and its facets as rows,
    meeting a facet that does not contain a face gives a face one
    dimension lower or less, and exactly one lower along some facet: so a
    cut set's grade is one less than the least grade of the sets it is cut
    from, all of which come before it.  Returns (grade, contain), two
    dicts keyed by set, contain[s] the mask of the rows that contain s.
    Past MAX_FACES sets, InvalidPolytope(refusal) is raised at once.
    """
    full = (1 << width) - 1
    grade, contain = {full: top}, {}
    by_count = [[] for _ in range(width)] + [[full]]
    bits = [(1 << r, row) for r, row in enumerate(rows)]
    for bucket in reversed(by_count):
        for s in bucket:
            below, mask = grade[s] - 1, 0
            for bit, row in bits:
                t = s & row
                if t == s:
                    mask |= bit
                elif (d := grade.get(t)) is None:
                    if len(grade) == MAX_FACES:
                        raise InvalidPolytope(refusal)
                    grade[t] = below
                    by_count[t.bit_count()].append(t)
                elif d > below:
                    grade[t] = below
            contain[s] = mask
    return grade, contain


def build_face_lattice(P: LatticePolytope) -> FaceLattice:
    """All faces of P, closed (_close) on the smaller side of the
    vertex-facet incidence.

    The closure meets every face with every row, so it runs with the
    fewer rows: random clouds have several times more facets than
    vertices, cubes the reverse.  With no more facets than vertices, the
    rows are the facets' vertex masks (P.facet_vertices): vertex sets are
    closed from P's own (dim n), and each set's containing mask is its
    tight mask.  With fewer vertices, the rows are the vertices' facet
    masks, read off P.facet_vertices bit by bit, and the lattice closed is
    the polar polytope's: tight masks from the empty face's (all facets,
    polar dim n), each set's containing mask its vertex mask, and polar
    dim d* is dim n - 1 - d*.  Either way the closed pairs (vertex mask,
    tight mask) are the same, one per face; the empty face (dim -1, tight
    on all facets) and P (empty tight set) are always present, and ids
    follow (dim, vertex set).  Each face's two masks are decoded once,
    into its record; P's facets are (n-1)-faces by the hull's
    construction.  A closure past MAX_FACES faces raises InvalidPolytope,
    counting vertices and facets on either side, before the order masks
    are built.
    """
    nv, nf = len(P.vertices), len(P.facets)
    refusal = f"{nv} vertices and {nf} facets give more than {MAX_FACES} faces, the face lattice budget"
    if nf <= nv:
        dims, tight = _close(P.facet_vertices, nv, P.n, refusal)
    else:
        rows = [sum(1 << F for F, ft in enumerate(P.facet_vertices) if ft >> i & 1) for i in range(nv)]
        grade, vertices = _close(rows, nf, P.n, refusal)
        dims, tight = {}, {}
        for t, s in vertices.items():
            dims[s], tight[s] = P.n - 1 - grade[t], t
    # Every set in the closure is the common vertex set of its tight
    # facets by construction, and every facet closes to an (n-1)-face;
    # what a wrong facet list can still break is the empty face and each
    # vertex's 0-face.  A vertex on every facet leaves the empty set
    # unreached on the vertex side and grades to -1 on the facet side, so
    # it is refused first, and both sides refuse with the same message.
    if 0 not in dims:
        raise InvalidPolytope("face lattice closure broken: a vertex lies on every facet")
    for i, v in enumerate(P.vertices):
        if dims.get(1 << i) != 0:
            raise InvalidPolytope(
                f"face lattice closure broken: vertex {v} is not cut out by its facets"
            )
    vertex_ids = {s: tuple(mask_ids(s)) for s in dims}
    order = sorted(dims, key=lambda s: (dims[s], vertex_ids[s]))
    return FaceLattice(
        P, [Face(s, tight[s], dims[s], vertex_ids[s], tuple(mask_ids(tight[s]))) for s in order]
    )


def check_dilation(ell) -> int:
    """A dilation as an int; floats and bools raise TypeError, ell < 1 ValueError."""
    ell = as_int(ell)
    if ell < 1:
        raise ValueError("dilation must be a positive integer")
    return ell


def check_face(lattice: FaceLattice, fid) -> int:
    """A face id of lattice as an int; floats and bools raise TypeError, ids
    outside 0 <= fid < len(lattice.faces) ValueError."""
    fid = as_int(fid)
    if not 0 <= fid < len(lattice.faces):
        raise ValueError(f"no face with id {fid}")
    return fid


def check_nonempty_face(lattice: FaceLattice, fid) -> int:
    """check_face, and ValueError for the empty face, which carries no weight."""
    fid = check_face(lattice, fid)
    if lattice.faces[fid].dim < 0:
        raise ValueError(f"face {fid} is the empty face; a nonempty face is needed")
    return fid


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
    lo == hi), and the face of hi.  A fibre's prefix is outer + (x,), or
    () for n = 1, whose one fibre is one row at x = 0.  Rows come in
    lexicographic order, and so do fibres.
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


def points_by_face(lattice: FaceLattice, ell: int):
    """All m in ell*P (integer points), partitioned by relative interior.

    Materialises the rows of fibre_rows: every point of a fibre lands in
    the face read off its end or its middle, so no point outside ell*P is
    ever visited.  The cost is that of the rows plus the points kept.
    Rows come in lexicographic order, x rises along a row and t within a
    fibre, so every list is sorted lexicographically as built.  Memoized
    in lattice._memo under ell; only character sums call this, when they
    are listed or compared, and the weighted counts sum over the rows
    directly.
    """
    ell = check_dilation(ell)
    if ell in lattice._memo:
        return lattice._memo[ell]
    keep = lattice.polytope.n - 1  # for n = 1 the fibre's prefix is empty, not (x,)
    out = {fid: [] for fid in lattice.nonempty_ids}
    for outer, row in fibre_rows(lattice, ell):
        for x, lo, hi, face_lo, face_mid, face_hi in row:
            prefix = (*outer, x)[:keep]
            out[face_lo].append(prefix + (lo,))
            if hi > lo:
                out[face_mid].extend(prefix + (t,) for t in range(lo + 1, hi))
                out[face_hi].append(prefix + (hi,))
    lattice._memo[ell] = out
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


def check_pair_budget(lattice, what: str) -> None:
    """InvalidPolytope past MAX_PAIRS comparable pairs, before `what` visits any."""
    pairs = sum(map(int.bit_count, lattice.up))
    if pairs > MAX_PAIRS:
        raise InvalidPolytope(
            f"{len(lattice.faces)} faces give {pairs} comparable pairs, more than "
            f"{MAX_PAIRS}, {what}'s budget"
        )


def validate_eulerian(lattice) -> bool:
    """True iff the face poset is Eulerian (interval parity balance), within check_pair_budget."""
    check_pair_budget(lattice, "the Eulerian check")
    # rank is dim + 1, the index into by_dim: the empty face has even rank
    even = sum(lattice.by_dim[::2])
    return eulerian_check(lattice.up, lattice.down, even)
