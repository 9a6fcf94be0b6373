"""Weight functions on the nonempty faces of a fixed lattice.

A free module over Laurent polynomials in y, with the delta basis, the
duality involution D, and seeded random generation for property tests.

D(f)_Q(y) = sum over nonempty faces E above Q of
            (1+y)^(dim E - dim Q) * (-y)^(-dim E) * f_E(1/y),
by Horner's rule in (1+y).  Weights built from the lattice's own ids skip
the checks of WeightFunction(...) through WeightFunction._make.
"""

from __future__ import annotations

import random

from .algebra import LaurentPoly
from .polytope import MEMO_MAX, BoundedCache, FaceLattice, check_nonempty_face, mask_ids


class LatticeMismatch(ValueError):
    """Weight functions on different lattices cannot be combined."""


class WeightFunction:
    """Map from nonempty face ids to LaurentPoly; absent means zero.

    Treated as immutable once built: _memo, a BoundedCache of MEMO_MAX
    entries, keeps from first use the three kinds of orbit coefficients
    that the weighted counts use, the dual (dualize) and the value at each
    (phi, -ell) the verifiers read: 16 entries in the largest CLI run,
    verify --lmax 12.  A weak reference can watch when one is freed.
    """

    __slots__ = ("lattice", "values", "_memo", "__weakref__")

    def __init__(self, lattice: FaceLattice, values=None):
        vals = {}
        for fid, p in (values or {}).items():
            fid = check_nonempty_face(lattice, fid)
            if not isinstance(p, LaurentPoly):
                raise TypeError(f"the weight of face {fid} is a {type(p).__name__}, not a LaurentPoly")
            if p:
                vals[fid] = p
        self.lattice = lattice
        self.values = dict(sorted(vals.items()))
        self._memo = BoundedCache(MEMO_MAX)

    @staticmethod
    def _make(lattice: FaceLattice, values: dict) -> "WeightFunction":
        """Trusted constructor from nonzero values keyed by increasing nonempty ids; no re-validation."""
        f = object.__new__(WeightFunction)
        f.lattice, f.values = lattice, values
        f._memo = BoundedCache(MEMO_MAX)
        return f

    def __getitem__(self, fid: int) -> LaurentPoly:
        return self.values.get(fid, LaurentPoly())

    def __bool__(self):
        return bool(self.values)

    def __eq__(self, other):
        return (
            isinstance(other, WeightFunction)
            and self.lattice is other.lattice
            and self.values == other.values
        )

    def __repr__(self):
        inner = ", ".join(f"{fid}: {p}" for fid, p in self.values.items())
        return f"WeightFunction({{{inner}}})"


def delta_weight(lattice: FaceLattice, qp_id: int) -> WeightFunction:
    """Value 1 at the given nonempty face, zero elsewhere; WeightFunction checks the id."""
    return WeightFunction(lattice, {qp_id: LaurentPoly.const(1)})


def all_ones(lattice: FaceLattice) -> WeightFunction:
    """Weight 1 on every nonempty face."""
    return WeightFunction._make(lattice, dict.fromkeys(lattice.nonempty_ids, LaurentPoly.const(1)))


def scale(p: LaurentPoly, f: WeightFunction) -> WeightFunction:
    return WeightFunction(f.lattice, {fid: p * q for fid, q in f.values.items()})


def add(f: WeightFunction, g: WeightFunction) -> WeightFunction:
    if f.lattice is not g.lattice:
        raise LatticeMismatch("weight functions live on different lattices")
    acc = dict(f.values)
    for fid, p in g.values.items():
        acc[fid] = acc.get(fid, LaurentPoly()) + p
    return WeightFunction(f.lattice, acc)


_DUAL = "dual"


def dualize(f: WeightFunction) -> WeightFunction:
    """The duality involution D(f), built once per f and kept in f's memo.

    D(f) keeps no link back to f, so D(D(f)) is computed afresh: it
    equals f but is a new WeightFunction.
    """
    if _DUAL not in f._memo:
        f._memo[_DUAL] = _involution(f)
    return f._memo[_DUAL]


def _involution(f: WeightFunction) -> WeightFunction:
    """D(f) by Horner's rule in (1+y): from d = n down to dim Q, D(f)_Q <- D(f)_Q (1+y)
    plus the g_E = (-y)^(-dim E) f_E(1/y) of the E >= Q of dimension d, each g_E
    built once and the E >= Q decoded once per Q.  Sparse dicts, as a weight's
    exponents may have 1,000 digits."""
    L = f.lattice
    faces, up = L.faces, L.up
    g = {}
    for e, fe in f.values.items():
        d = faces[e].dim
        g[e] = [(-k - d, -c if d % 2 else c) for k, c in fe.terms.items()]
    support = sum(1 << e for e in g)
    out = {}
    for q in L.nonempty_ids:
        by_d = {}  # dim E -> the g_E of the E >= Q of that dimension
        for e in mask_ids(up[q] & support):
            by_d.setdefault(faces[e].dim, []).append(g[e])
        acc = {}
        for d in range(L.polytope.n, faces[q].dim - 1, -1):
            shifted = dict(acc)  # acc (1+y), a shift-add
            for k, c in acc.items():
                shifted[k + 1] = shifted.get(k + 1, 0) + c
            acc = shifted
            for terms in by_d.get(d, ()):
                for k, c in terms:
                    acc[k] = acc.get(k, 0) + c
        if p := LaurentPoly._make(acc):
            out[q] = p
    return WeightFunction._make(L, out)


def random_laurent(rng: random.Random) -> LaurentPoly:
    """Coefficients uniform in {-3..3} on exponents -2..2."""
    return LaurentPoly({k: rng.randint(-3, 3) for k in range(-2, 3)})


def _coin(rng: random.Random) -> bool:
    """rng.random() < 1/2 without a float, from the same two 32-bit words.

    random() is ((w1 >> 5) * 2**26 + (w2 >> 6)) / 2**53, below 1/2 iff w1 < 2**31.
    """
    w1 = rng.getrandbits(32)
    rng.getrandbits(32)
    return w1 < 1 << 31


def random_weight_function(lattice: FaceLattice, rng: random.Random) -> WeightFunction:
    """Each nonempty face gets a random_laurent with probability 1/2."""
    vals = {}
    for fid in lattice.nonempty_ids:
        if _coin(rng):
            p = random_laurent(rng)
            if p:
                vals[fid] = p
    return WeightFunction._make(lattice, vals)


def random_weight_functions(lattice: FaceLattice, seed: int, count: int):
    """Reproducible list of random weight functions from one seeded stream."""
    rng = random.Random(seed)
    return [random_weight_function(lattice, rng) for _ in range(count)]
