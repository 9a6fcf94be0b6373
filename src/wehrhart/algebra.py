"""Exact arithmetic kernel.

Rationals, sparse Laurent polynomials in y, homogeneous polynomial
integrands, polynomials in the dilation z, and exact Lagrange
interpolation.  The library interpolates in int, face by face; Lagrange
stays here because the per-weight test oracle calls it and the
benchmark's tracer wraps it by this module's name.  Every value is
immutable after construction and every operation is a pure function, so
values are safe to share freely.

Integers are the fast path: a rational that happens to be integral is
held as an int, and a Fraction appears only where a denominator does.

A LaurentPoly is built once, with its terms already in ascending
exponent order, by one of two trusted constructors: LaurentPoly._make
sorts the exponents of an accumulator and drops its zeros, and
LaurentPoly._ascending holds terms that are ascending, nonzero and
canonical already.  Negation, products by a scalar or by a monomial,
substitute_inverse (read from the reversed terms), substitute_negative,
neg_y_power and one_plus_y_power keep term order, so they build through
_ascending and never sort; sums, linear combinations and general
products go through _make.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, lcm, prod
from operator import index
from typing import Iterable

RAT_ZERO = Fraction(0)
RAT_ONE = Fraction(1)


def as_rat(x) -> Fraction:
    """Coerce ints, Fractions and strings like "3/4". Floats and bools are refused."""
    if isinstance(x, (bool, float)):
        raise TypeError(f"{x!r} is not an exact rational, pass int, str or Fraction")
    return Fraction(x)


def as_int(x) -> int:
    """An exponent, coordinate, offset, id or dilation: an int.

    Floats, bools and strings are refused (TypeError).
    """
    if isinstance(x, (bool, float)):
        raise TypeError(f"{x!r} is not an exact integer, pass int")
    return index(x)


def canon(c):
    """An exact rational in canonical form: int when integral, else Fraction."""
    return c.numerator if type(c) is Fraction and c.denominator == 1 else c


_ONE_TERMS = {0: 1}


class LaurentPoly:
    """Sparse Laurent polynomial sum c_k * y**k with exact coefficients.

    Each coefficient is an int when it is integral and a Fraction (with
    denominator > 1) otherwise, so LaurentPoly({0: Fraction(4, 2)}) stores
    2.  Zero coefficients are never stored, so structural equality is
    mathematical equality.  Terms iterate in increasing exponent order.
    The Stanley layer uses the same type for its polynomials in t.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        acc = {}
        if terms:
            items = terms.items() if hasattr(terms, "items") else terms
            for k, c in items:
                k = as_int(k)
                acc[k] = acc.get(k, 0) + (c if type(c) is int else as_rat(c))
        self.terms = LaurentPoly._make(acc).terms

    @staticmethod
    def _make(acc) -> "LaurentPoly":
        """Trusted constructor from exponent -> int or Fraction; no re-validation.
        The int exponents are sorted, zeros dropped, and each coefficient that is
        not an int canonicalised."""
        p = object.__new__(LaurentPoly)
        p.terms = {
            k: c if type(c) is int else c.numerator if c.denominator == 1 else c
            for k in sorted(acc)
            if (c := acc[k])
        }
        return p

    @staticmethod
    def _ascending(terms: dict) -> "LaurentPoly":
        """Trusted constructor that holds terms as given: exponents ascending,
        coefficients nonzero and canonical.  Only this module calls it, from
        the operations that keep term order."""
        p = object.__new__(LaurentPoly)
        p.terms = terms
        return p

    @staticmethod
    def const(c) -> "LaurentPoly":
        return LaurentPoly({0: c})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, LaurentPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(tuple(self.terms.items()))

    def __neg__(self):
        return LaurentPoly._ascending({k: -c for k, c in self.terms.items()})

    def __add__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return poly_sum((self, other))

    def __sub__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if type(other) is not LaurentPoly:
            if isinstance(other, (int, Fraction)):
                return LaurentPoly._ascending(_scaled(self.terms, 0, other)) if other else L_ZERO
            return NotImplemented
        # values never change once built, so a product by 1 can share its other operand
        if other.terms == _ONE_TERMS:
            return self
        if self.terms == _ONE_TERMS:
            return other
        # a monomial shifts and scales the other operand's terms, keeping their order
        if len(other.terms) == 1:
            ((k, c),) = other.terms.items()
            return LaurentPoly._ascending(_scaled(self.terms, k, c))
        if len(self.terms) == 1:
            ((k, c),) = self.terms.items()
            return LaurentPoly._ascending(_scaled(other.terms, k, c))
        acc = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                k = k1 + k2
                acc[k] = acc.get(k, 0) + c1 * c2
        return LaurentPoly._make(acc)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            # only monomials invert inside the Laurent ring
            if len(self.terms) != 1:
                raise ValueError("negative power of a non-monomial")
            ((k, c),) = self.terms.items()
            return LaurentPoly._make({-k: Fraction(1, c)}) ** (-n)
        out = L_ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def coeff(self, k: int):
        return self.terms.get(k, 0)

    def subs(self, v):
        """Evaluate at y = v exactly; v = 0 is allowed only without poles."""
        v = as_rat(v)
        if v == 0:
            if any(k < 0 for k in self.terms):
                raise ZeroDivisionError("pole at y = 0")
            return self.terms.get(0, 0)
        return canon(sum((c * v**k for k, c in self.terms.items()), RAT_ZERO))

    def __format__(self, var=""):
        """Render in the variable var (y when empty): f"{p}", f"{p:t}"."""
        var = var or "y"
        if not self.terms:
            return "0"
        parts = []
        for k, c in self.terms.items():
            if k == 0:
                parts.append(str(c))
            elif k == 1:
                parts.append(f"{c}*{var}")
            else:
                parts.append(f"{c}*{var}^{k}")
        return " + ".join(parts)

    __str__ = __format__

    def __repr__(self):
        return f"LaurentPoly({self.terms!r})"


def _scaled(terms: dict, k: int, s) -> dict:
    """The terms of y^k * s * p from p's terms, for a nonzero rational s.  Their
    order and nonzero coefficients carry over; each product that is not an int
    is canonicalised."""
    if type(s) is int:
        return {
            e + k: v if type(v := c * s) is int else canon(v) for e, c in terms.items()
        }
    return {e + k: canon(c * s) for e, c in terms.items()}


def poly_sum(polys) -> LaurentPoly:
    """Sum of LaurentPoly values, with one normalisation at the end."""
    acc = {}
    for p in polys:
        for k, c in p.terms.items():
            acc[k] = acc.get(k, 0) + c
    return LaurentPoly._make(acc)


def linear_combination(pairs) -> LaurentPoly:
    """sum of s * p over (LaurentPoly p, rational s) pairs, in one dict normalised once."""
    acc = {}
    for p, s in pairs:
        if s:
            for k, c in p.terms.items():
                acc[k] = acc.get(k, 0) + c * s
    return LaurentPoly._make(acc)


L_ZERO = LaurentPoly()
L_ONE = LaurentPoly.const(1)
ONE_PLUS_Y = LaurentPoly({0: 1, 1: 1})


def substitute_inverse(p: LaurentPoly) -> LaurentPoly:
    """y -> 1/y, i.e. exponent negation on every term. An involution."""
    return LaurentPoly._ascending({-k: c for k, c in reversed(p.terms.items())})


def substitute_negative(p: LaurentPoly) -> LaurentPoly:
    """y -> -y. An involution; bridges the t and y variables elsewhere."""
    return LaurentPoly._ascending({k: c if k % 2 == 0 else -c for k, c in p.terms.items()})


def neg_y_power(k: int) -> LaurentPoly:
    """(-y)**k for any integer k, as a single monomial."""
    return LaurentPoly._ascending({k: -1 if k % 2 else 1})


@lru_cache(maxsize=128)
def one_plus_y_power(k: int) -> LaurentPoly:
    """(1+y)**k for k >= 0, from binomials.

    Memoized for at most 128 powers; callers raise to a face dimension
    plus an integrand degree, which needs far fewer.
    """
    if k < 0:
        raise ValueError("(1+y) has no negative powers in the Laurent ring")
    return LaurentPoly._ascending({i: comb(k, i) for i in range(k + 1)})


class HomogPoly:
    """Homogeneous polynomial function on Z^n with Fraction coefficients.

    monomials is a sorted tuple of (exponent vector, coefficient) pairs,
    all of the same total degree.  The zero polynomial is the empty list
    and has degree 0 by convention.
    """

    __slots__ = ("n", "degree", "monomials", "_hash")

    def __init__(self, n: int, monomials: Iterable = ()):
        n = as_int(n)
        acc: dict[tuple, Fraction] = {}
        for exps, c in monomials:
            exps = tuple(map(as_int, exps))
            if len(exps) != n:
                raise ValueError(f"exponent vector {exps} is not length {n}")
            if any(e < 0 for e in exps):
                raise ValueError("monomial exponents must be nonnegative")
            c = as_rat(c)
            acc[exps] = acc.get(exps, RAT_ZERO) + c
        clean = {e: c for e, c in acc.items() if c != 0}
        degrees = {sum(e) for e in clean}
        if len(degrees) > 1:
            raise ValueError(f"not homogeneous, degrees {sorted(degrees)}")
        self.n = n
        self.degree = degrees.pop() if degrees else 0
        self.monomials = tuple(sorted(clean.items()))
        # every (phi, ell) memo key hashes phi: its Fractions are hashed once, here
        self._hash = hash((n, self.monomials))

    @staticmethod
    def one(n: int) -> "HomogPoly":
        return HomogPoly(n, [((0,) * as_int(n), 1)])

    def __bool__(self):
        return bool(self.monomials)

    def __eq__(self, other):
        return (
            isinstance(other, HomogPoly)
            and self.n == other.n
            and self.monomials == other.monomials
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"HomogPoly(n={self.n}, degree={self.degree}, {list(self.monomials)!r})"


def phi_eval(phi: HomogPoly, m) -> Fraction:
    """Exact value of phi at the integer vector m.

    Satisfies phi(-m) = (-1)**deg * phi(m) by homogeneity.
    """
    if len(m) != phi.n:
        raise ValueError(f"point has length {len(m)}, expected {phi.n}")
    # the powers multiply in int, so each monomial takes one Fraction product
    return sum((c * prod(map(pow, m, exps)) for exps, c in phi.monomials), RAT_ZERO)


@lru_cache(maxsize=None)
def _faulhaber(k: int):
    """Faulhaber's polynomial for sum_{t=1}^x t^k, as (integer coefficients, d).

    sum_{t=1}^x t^k = (1/(k+1)) sum_j C(k+1, j) B_j^+ x^(k+1-j), with the
    Bernoulli numbers B_j^+ (B_1^+ = +1/2) built in Fraction from
    sum_{j<=m} C(m+1, j) B_j = 0.  The coefficients of x^0 .. x^(k+1) are
    returned over their common denominator d.
    """
    bern = [RAT_ONE]
    for m in range(1, k + 1):
        bern.append(-sum(comb(m + 1, j) * bern[j] for j in range(m)) / Fraction(m + 1))
    if k >= 1:
        bern[1] = -bern[1]
    coeffs = [RAT_ZERO] * (k + 2)
    for j, b in enumerate(bern):
        coeffs[k + 1 - j] = comb(k + 1, j) * b / Fraction(k + 1)
    d = lcm(*(c.denominator for c in coeffs))
    return tuple((c * d).numerator for c in coeffs), d


def power_sum(k: int, a: int, b: int) -> int:
    """sum_{t=a}^{b} t^k exactly, for integers a, b and k >= 0; 0 when b < a.

    Faulhaber's polynomial F_k satisfies F_k(x) - F_k(x-1) = x^k for every
    integer x, so the sum is F_k(b) - F_k(a-1) on either side of zero.
    """
    if b < a:
        return 0
    coeffs, d = _faulhaber(k)
    top = bottom = 0
    for c in reversed(coeffs):
        top = top * b + c
        bottom = bottom * (a - 1) + c
    q, r = divmod(top - bottom, d)
    if r:
        raise ArithmeticError(f"power sum of degree {k} came out as {top - bottom}/{d}")
    return q


class ZPoly:
    """Polynomial in z whose coefficients are LaurentPoly in y.

    coeffs[k] is the coefficient of z**k; the leading coefficient is
    nonzero unless the polynomial is zero.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable):
        cs = [c if isinstance(c, LaurentPoly) else LaurentPoly.const(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, z) -> LaurentPoly:
        z = canon(as_rat(z))
        acc = L_ZERO
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc

    def __eq__(self, other):
        return isinstance(other, ZPoly) and self.coeffs == other.coeffs

    def __repr__(self):
        return f"ZPoly({[str(c) for c in self.coeffs]!r})"


def lagrange_interpolate(samples, degree_bound: int) -> ZPoly:
    """Exact interpolation through (node, LaurentPoly value) samples.

    Requires pairwise distinct nodes and exactly degree_bound + 1 samples.
    Interpolation is coefficientwise in y: the returned ZPoly reproduces
    every sample value exactly.  The library itself interpolates each
    face's sums in int (ehrhart._face_polynomials); this general form
    serves the per-weight test oracle and the benchmark's tracer, which
    wraps it by name.
    """
    samples = list(samples)
    if not samples:
        raise ValueError("empty sample list")
    if len(samples) != degree_bound + 1:
        raise ValueError(
            f"need {degree_bound + 1} samples for degree bound {degree_bound}, got {len(samples)}"
        )
    nodes = [canon(as_rat(x)) for x, _ in samples]
    if len(set(nodes)) != len(nodes):
        raise ValueError("duplicate interpolation nodes")
    k = len(samples)
    coeffs = [{} for _ in range(k)]
    for i, (_, value) in enumerate(samples):
        if not isinstance(value, LaurentPoly):
            value = LaurentPoly.const(value)
        # basis numerator prod_{j != i} (z - x_j), ascending z coefficients
        basis = [1]
        denom = 1
        for j, xj in enumerate(nodes):
            if j == i:
                continue
            nxt = [0] * (len(basis) + 1)
            for d, b in enumerate(basis):
                nxt[d] += b * (-xj)
                nxt[d + 1] += b
            basis = nxt
            denom *= nodes[i] - xj
        for d, b in enumerate(basis):
            if b:
                w = Fraction(b, denom)
                row = coeffs[d]
                for e, c in value.terms.items():
                    row[e] = row.get(e, 0) + c * w
    return ZPoly(LaurentPoly._make(row) for row in coeffs)
