"""Weighted lattice-point counting and the identity verifiers.

A weighted count splits into torus orbits, one per nonempty face Q:
E(ell, y) = sum_Q f_Q(y) (1+y)^dim Q S_Q(ell), times (1+y)^deg phi for E,
where S_Q(ell), the sum of phi over Relint(ell Q), is a polynomial of
degree dim Q + deg phi that does not depend on the weights.  It is
interpolated once per (lattice, phi), in int, and checked face by face.
Character sums likewise carry one coefficient per orbit, and duality
compares them face by face; points appear only when a sum is expanded.

Values at negative dilations are always read off the interpolated
polynomial, and closed-face sums always come from the walk, so the
verifiers genuinely cross-validate two computation routes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, partial
from math import factorial, lcm, prod

from .algebra import (
    L_ZERO,
    CharacterSum,
    HomogPoly,
    LaurentPoly,
    ZPoly,
    canon,
    grouped_sum,
    neg_y_power,
    one_plus_y_power,
    phi_eval,
    poly_sum,
    power_sum,
    substitute_inverse,
)
from .polytope import FaceLattice, fibres, points_by_face
from .stanley import g_weight_function
from .weights import WeightFunction, dualize

VARIANT_E = "E"
VARIANT_ETILDE = "Etilde"
_VARIANTS = (VARIANT_E, VARIANT_ETILDE)


def _check_variant(variant):
    if variant not in _VARIANTS:
        raise ValueError(f"variant must be one of {_VARIANTS}, got {variant!r}")


def _check_lattice(lattice, f):
    if f.lattice is not lattice:
        raise ValueError("weight function belongs to a different lattice")


def _check_dilation(ell):
    if ell < 1:
        raise ValueError("dilation must be a positive integer")


class OrbitSum:
    """A character sum held as one coefficient per torus orbit: coeffs[E] at
    chi^(sign * m) for every m in relint[E], the points of Relint(|ell| E)."""

    __slots__ = ("n", "coeffs", "relint", "sign")

    def __init__(self, n, coeffs, relint, sign):
        self.n, self.coeffs, self.relint, self.sign = n, coeffs, relint, sign

    def terms(self, fmt=lambda c: c):
        """Sorted (character, fmt(coefficient)) pairs; fmt runs once per face."""
        values = {e: fmt(c) for e, c in self.coeffs.items() if c}
        sign = self.sign
        pairs = ((tuple(sign * x for x in m), v) for e, v in values.items() for m in self.relint[e])
        return sorted(pairs)

    def expand(self) -> CharacterSum:
        return CharacterSum._make(self.n, dict(self.terms()))


def _orbit_sum(lattice, f, ell) -> OrbitSum:
    """One coefficient c_E per nonempty face E, for ell != 0.

    ell > 0:  c_E = f_E(y) (1+y)^dim E, at chi^(-m)
    ell < 0:  c_E = sum over Q >= E of f_Q(y) (-1-y)^dim Q, at chi^(+m),
              the faces whose closed dilate |ell| Q holds m
    """
    _check_lattice(lattice, f)
    power = partial(one_plus_y_power, negate=ell < 0)
    coeffs = {q: fq * power(lattice.faces[q].dim) for q, fq in f.values.items()}
    if ell < 0:
        above = {}
        for q, c in coeffs.items():
            for e in lattice.subfaces(q):
                above.setdefault(e, []).append(c)
        coeffs = {e: poly_sum(cs) for e, cs in above.items()}
    relint = points_by_face(lattice, abs(ell))
    return OrbitSum(lattice.polytope.n, coeffs, relint, 1 if ell < 0 else -1)


def hodge_character_sum(lattice: FaceLattice, f: WeightFunction, ell: int) -> CharacterSum:
    """The equivariant character sum of the weighted divisor at dilation ell.

    One coefficient per torus orbit (see _orbit_sum), carried by every
    point of the orbit's face's relative interior in |ell| P;
    ell = 0:  (sum_Q f_Q(y) (-1-y)^dim Q) * chi^0
    """
    if ell:
        return _orbit_sum(lattice, f, ell).expand()
    _check_lattice(lattice, f)
    n = lattice.polytope.n
    return CharacterSum._make(n, {(0,) * n: poly_sum(
        fq * one_plus_y_power(lattice.faces[q].dim, negate=True) for q, fq in f.values.items()
    )})


def negate_characters(s: CharacterSum) -> CharacterSum:
    """The involution m -> -m on character keys."""
    return CharacterSum._make(s.n, {tuple(-x for x in m): p for m, p in s.terms.items()})


def apply_phi(s: CharacterSum, phi: HomogPoly, variant: str) -> LaurentPoly:
    """Push a character sum to a Laurent polynomial through the integrand.

    Etilde sends chi^m to phi(-m); E sends chi^m to phi(-(1+y)m), which by
    homogeneity is (1+y)^deg phi * phi(-m).
    """
    _check_variant(variant)
    if s.n != phi.n:
        raise ValueError("character sum and integrand dimensions differ")
    acc = poly_sum(p * phi_eval(phi, tuple(-x for x in m)) for m, p in s.terms.items())
    if variant == VARIANT_E:
        acc = acc * one_plus_y_power(phi.degree)
    return acc


def _phi_face_sums(lattice, phi, ell):
    """sum of phi over Relint(ell Q) for every nonempty Q, memoized.

    Sums over the fibres of ell*P in closed form, without visiting their
    points.  Write d*phi(prefix, t) = sum_k g_k(prefix) t^k with integer
    g_k, d the common denominator of the coefficients; a fibre's two ends
    are evaluated and its middle lo < t < hi adds sum_k g_k times the
    power sum of t^k.  Each face total is divided by d once, as a Fraction.
    """
    if phi.n != lattice.polytope.n:
        raise ValueError("integrand dimension differs from the polytope's")
    key = (phi, ell)
    if key not in lattice._phi_sums:
        d = lcm(*(c.denominator for _, c in phi.monomials))
        by_power = {}
        for exps, c in phi.monomials:
            by_power.setdefault(exps[-1], []).append((exps[:-1], (c * d).numerator))
        acc = dict.fromkeys(lattice.nonempty_ids, 0)
        for prefix, lo, hi, face_lo, face_mid, face_hi in fibres(lattice, ell):
            g = [
                (k, sum(c * prod(map(pow, prefix, e)) for e, c in terms))
                for k, terms in by_power.items()
            ]
            acc[face_lo] += sum(gk * lo**k for k, gk in g)
            if hi > lo:
                acc[face_mid] += sum(gk * power_sum(k, lo + 1, hi - 1) for k, gk in g)
                acc[face_hi] += sum(gk * hi**k for k, gk in g)
        lattice._phi_sums[key] = {q: canon(Fraction(v, d)) for q, v in acc.items()}
    return lattice._phi_sums[key]


def weighted_ehrhart_value(
    lattice: FaceLattice,
    f: WeightFunction,
    phi: HomogPoly,
    ell: int,
    variant: str,
) -> LaurentPoly:
    """The weighted count at a positive dilation.

    Equal to apply_phi(hodge_character_sum(lattice, f, ell), phi, variant);
    computed from per-face integrand sums, which are memoized.
    """
    _check_variant(variant)
    _check_lattice(lattice, f)
    _check_dilation(ell)
    sums = _phi_face_sums(lattice, phi, ell)
    pairs = ((lattice.faces[q].dim, fq * sums[q]) for q, fq in f.values.items())
    acc = grouped_sum(pairs, one_plus_y_power)
    if variant == VARIANT_E:
        acc = acc * one_plus_y_power(phi.degree)
    return acc


def constant_term(lattice, f, phi, variant) -> LaurentPoly:
    """Closed form for the value at dilation 0: phi pushed through the ell = 0 sum.

    sum_Q f_Q(y) (-1-y)^dim Q * phi(0), times (1+y)^deg phi for E.
    Nonzero only for deg phi = 0, where the two variants agree.
    """
    return apply_phi(hodge_character_sum(lattice, f, 0), phi, variant)


class PolynomialityError(ArithmeticError):
    """A face's sums failed an overdetermination or constant-term check.

    Polynomiality in the dilation is a theorem, so this always signals an
    implementation bug and is surfaced loudly rather than reported.
    """


@lru_cache(maxsize=16)
def _newton_basis(bound):
    """Row j, for j = 0..bound: the z-coefficients of (bound!/j!) (z-1)(z-2)...(z-j), all int."""
    row = [factorial(bound)]
    rows = [row]
    for j in range(1, bound + 1):
        # times (z - j), then / j: bound!/(j-1)! is j * bound!/j!
        row = [(a - j * b) // j for a, b in zip([0] + row, row + [0])]
        rows.append(row)
    return rows


def _face_polynomials(lattice, phi):
    """(D, {Q: (a_Q0, .., a_Qdeg)}) with S_Q(z) = sum_k a_Qk z^k / D, memoized per phi.

    D = (n + deg phi)! * lcm(denominators of phi).  Each face's sums at
    ell = 1 .. n + deg phi + 3 are scaled to int and differenced; every
    difference above deg = dim Q + deg phi must vanish, and a_Q0 must be
    (-1)^dim Q * phi(0) * D, or PolynomialityError names the face.
    """
    if phi not in lattice._face_polys:
        n = lattice.polytope.n
        bound = n + phi.degree
        d = lcm(*(c.denominator for _, c in phi.monomials))
        denom = factorial(bound) * d
        samples = [_phi_face_sums(lattice, phi, ell) for ell in range(1, bound + 4)]
        basis = _newton_basis(bound)
        phi0 = factorial(bound) * canon(d * phi_eval(phi, (0,) * n))
        table = {}
        for q in lattice.nonempty_ids:
            dim = lattice.faces[q].dim
            deg = dim + phi.degree
            row = [canon(d * sums[q]) for sums in samples]
            lead = []
            while row:
                lead.append(row[0])
                row = [b - a for a, b in zip(row, row[1:])]
            for j in range(deg + 1, len(lead)):
                if lead[j]:
                    raise PolynomialityError(
                        f"face {q}: its sums at dilations 1..{len(lead)} have a nonzero "
                        f"difference of order {j}, above their degree {deg}"
                    )
            coeffs = tuple(
                sum(lead[j] * basis[j][k] for j in range(k, deg + 1)) for k in range(deg + 1)
            )
            if coeffs[0] != (-1) ** dim * phi0:
                raise PolynomialityError(
                    f"face {q}: constant term {Fraction(coeffs[0], denom)}, "
                    f"closed form {Fraction((-1) ** dim * phi0, denom)}"
                )
            table[q] = coeffs
        lattice._face_polys[phi] = denom, table
    return lattice._face_polys[phi]


def ehrhart_polynomial(
    lattice: FaceLattice,
    f: WeightFunction,
    phi: HomogPoly,
    variant: str,
) -> ZPoly:
    """The weighted count as a polynomial in the dilation z.

    Coefficient k is sum_Q f_Q(y) (1+y)^dim Q a_Qk / D (times (1+y)^deg
    phi for E), from the per-face interpolants of _face_polynomials; their
    checks (two or more extra dilations and the constant term, face by
    face) raise PolynomialityError.
    """
    _check_variant(variant)
    _check_lattice(lattice, f)
    denom, table = _face_polynomials(lattice, phi)
    scale = Fraction(1, denom)
    if variant == VARIANT_E:
        scale = one_plus_y_power(phi.degree) * scale
    faces = lattice.faces
    return ZPoly(
        grouped_sum(
            ((faces[q].dim, fq * table[q][k]) for q, fq in f.values.items() if k < len(table[q])),
            one_plus_y_power,
        ) * scale
        for k in range(lattice.polytope.n + phi.degree + 1)
    )


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one identity check, with both sides kept for reporting."""

    name: str
    params: dict
    passed: bool
    lhs: object
    rhs: object

    def render(self):
        return {
            "name": self.name,
            "params": {k: str(v) for k, v in self.params.items()},
            "passed": self.passed,
            "lhs": render_value(self.lhs),
            "rhs": render_value(self.rhs),
        }


def render_value(v) -> str:
    if isinstance(v, OrbitSum):
        terms = v.terms(str)  # each face's coefficient formatted once
    elif isinstance(v, CharacterSum):
        terms = v.terms.items()
    else:
        return str(v)
    inner = "; ".join(f"chi^{list(m)}: {p}" for m, p in terms)
    return f"{{{inner}}}" if inner else "{}"


@dataclass
class EhrhartReport:
    """Checks for one (polytope, weight, integrand) combination."""

    polytope: str
    weight: str
    phi: str
    checks: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, check: CheckResult):
        self.checks.append(check)

    def render(self):
        return {
            "polytope": self.polytope,
            "weight": self.weight,
            "phi": self.phi,
            "passed": self.passed,
            "checks": [c.render() for c in self.checks],
        }


def _value_at_negative(lattice, f, phi, ell, variant, zpoly) -> LaurentPoly:
    """The polynomial's value at -ell, interpolating it when zpoly is None."""
    _check_dilation(ell)
    if zpoly is None:
        zpoly = ehrhart_polynomial(lattice, f, phi, variant)
    return zpoly(-ell)


def _compare(name, params, lhs, rhs) -> CheckResult:
    return CheckResult(name, params, lhs == rhs, lhs, rhs)


def verify_reciprocity(
    lattice, f, phi, ell: int, variant: str = VARIANT_E, zpoly: ZPoly | None = None
) -> CheckResult:
    """Value at -ell from the polynomial vs the closed-face enumeration.

    E variant:  E(-ell, y) = sum_Q f_Q (-1-y)^(dim Q + deg phi) * sum over
    ell*Q closed of phi(m); Etilde replaces the exponent shift with a
    global (-1)^deg phi.
    """
    lhs = _value_at_negative(lattice, f, phi, ell, variant, zpoly)
    sums = _phi_face_sums(lattice, phi, ell)
    # the closed face ell*Q is the union of the relative interiors below it
    pairs = (
        (lattice.faces[q].dim, fq * sum(sums[e] for e in lattice.subfaces(q)))
        for q, fq in f.values.items()
    )
    rhs = grouped_sum(pairs, partial(one_plus_y_power, negate=True))
    if variant == VARIANT_E:
        rhs = rhs * one_plus_y_power(phi.degree, negate=True)
    else:
        rhs = rhs * (-1) ** phi.degree
    return _compare("reciprocity", {"ell": ell, "variant": variant}, lhs, rhs)


def verify_duality_reciprocity(
    lattice, f, phi, ell: int, variant: str = VARIANT_E, zpoly: ZPoly | None = None, dual=None
) -> CheckResult:
    """Value at -ell vs the dualized weights at +ell with y inverted.

    E variant carries the factor (-y)^deg phi; Etilde carries (-1)^deg phi.
    dual is dualize(f) when the caller has already built it.
    """
    lhs = _value_at_negative(lattice, f, phi, ell, variant, zpoly)
    dual_value = weighted_ehrhart_value(
        lattice, dualize(f) if dual is None else dual, phi, ell, variant
    )
    rhs = substitute_inverse(dual_value)
    if variant == VARIANT_E:
        rhs = rhs * neg_y_power(phi.degree)
    else:
        rhs = rhs * ((-1) ** phi.degree)
    return _compare("duality_reciprocity", {"ell": ell, "variant": variant}, lhs, rhs)


def verify_hodge_duality(lattice, f, ell: int, dual=None) -> CheckResult:
    """Character sum of the dual weights vs the inverted, negated sum at -ell.

    Both sides hold one coefficient per face E at chi^(-m) for m in
    Relint(ell E), so they agree exactly when the coefficients agree on
    every face whose relative interior has points; lhs and rhs are
    OrbitSums, expanded to points only when rendered.  dual is dualize(f)
    when the caller has already built it.
    """
    _check_dilation(ell)
    lhs = _orbit_sum(lattice, dualize(f) if dual is None else dual, ell)
    minus = _orbit_sum(lattice, f, -ell)
    inverted = {e: substitute_inverse(c) for e, c in minus.coeffs.items()}
    rhs = OrbitSum(minus.n, inverted, minus.relint, -1)
    passed = all(
        lhs.coeffs.get(e, L_ZERO) == inverted.get(e, L_ZERO)
        for e, points in lhs.relint.items()
        if points
    )
    return CheckResult("hodge_duality", {"ell": ell}, passed, lhs, rhs)


def verify_purity(
    lattice, qprime_id: int, phi, ell: int, zpoly: ZPoly | None = None, weights=None
) -> CheckResult:
    """With the g-weights of a face: E(-ell, y) = (-y)^(n'+deg phi) E(ell, 1/y).

    weights is g_weight_function(lattice, qprime_id) when the caller has
    already built it.
    """
    if lattice.faces[qprime_id].dim < 0:
        raise ValueError("purity needs a nonempty face")
    f = g_weight_function(lattice, qprime_id) if weights is None else weights
    lhs = _value_at_negative(lattice, f, phi, ell, VARIANT_E, zpoly)
    value = weighted_ehrhart_value(lattice, f, phi, ell, VARIANT_E)
    nprime = lattice.faces[qprime_id].dim
    rhs = substitute_inverse(value) * neg_y_power(nprime + phi.degree)
    return _compare("purity", {"ell": ell, "face": qprime_id}, lhs, rhs)
