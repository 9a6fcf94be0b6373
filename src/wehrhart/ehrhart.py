"""Weighted lattice-point counting and the identity verifiers.

Character sums at positive, zero, and negative dilations, weighted count
values E/Etilde, exact interpolation to the polynomial in z (with
mandatory overdetermination), and pass/fail verifiers for reciprocity,
reciprocity-for-duality, character-sum duality, and purity.

Values at negative dilations are always read off the interpolated
polynomial, never from a second formula, so the verifiers genuinely
cross-validate two computation routes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from math import lcm, prod

from .algebra import (
    CharacterSum,
    HomogPoly,
    LaurentPoly,
    ZPoly,
    canon,
    grouped_sum,
    lagrange_interpolate,
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


def hodge_character_sum(lattice: FaceLattice, f: WeightFunction, ell: int) -> CharacterSum:
    """The equivariant character sum of the weighted divisor at dilation ell.

    One coefficient c_E per torus orbit, i.e. per nonempty face E, carried
    by every point m of Relint(|ell| E):
    ell > 0:  c_E = f_E(y) (1+y)^dim E, at chi^(-m)
    ell < 0:  c_E = sum over Q >= E of f_Q(y) (-1-y)^dim Q, at chi^(+m),
              the faces whose closed dilate |ell| Q holds m
    ell = 0:  (sum_Q f_Q(y) (-1-y)^dim Q) * chi^0
    """
    _check_lattice(lattice, f)
    n = lattice.polytope.n
    power = partial(one_plus_y_power, negate=ell <= 0)
    coeffs = {q: fq * power(lattice.faces[q].dim) for q, fq in f.values.items()}
    if ell == 0:
        return CharacterSum._make(n, {(0,) * n: poly_sum(coeffs.values())})
    if ell < 0:
        coeffs = {
            e: poly_sum(c for q, c in coeffs.items() if lattice.leq(e, q))
            for e in lattice.nonempty_ids
        }
    relint = points_by_face(lattice, abs(ell))
    return CharacterSum._make(n, {
        m if ell < 0 else tuple(-x for x in m): c
        for e, c in coeffs.items() if c
        for m in relint[e]
    })


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
    """Interpolated values failed an overdetermination or constant-term check.

    Polynomiality in the dilation is a theorem, so this always signals an
    implementation bug and is surfaced loudly rather than reported.
    """


def ehrhart_polynomial(
    lattice: FaceLattice,
    f: WeightFunction,
    phi: HomogPoly,
    variant: str,
) -> ZPoly:
    """Interpolate the weighted count to its polynomial in the dilation z.

    Nodes are 1 .. n + deg phi + 1 with degree bound n + deg phi; two
    extra samples and the closed-form constant term are then checked
    exactly, and any mismatch raises PolynomialityError.
    """
    _check_variant(variant)
    n = lattice.polytope.n
    bound = n + phi.degree
    samples = [
        (ell, weighted_ehrhart_value(lattice, f, phi, ell, variant))
        for ell in range(1, bound + 2)
    ]
    zp = lagrange_interpolate(samples, bound)
    for ell in (bound + 2, bound + 3):
        direct = weighted_ehrhart_value(lattice, f, phi, ell, variant)
        if zp(ell) != direct:
            raise PolynomialityError(
                f"overdetermination failed at dilation {ell}: "
                f"interpolated {zp(ell)}, direct {direct}"
            )
    expected0 = constant_term(lattice, f, phi, variant)
    if zp(0) != expected0:
        raise PolynomialityError(
            f"constant term mismatch: interpolated {zp(0)}, closed form {expected0}"
        )
    return zp


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
    if isinstance(v, CharacterSum):
        inner = "; ".join(f"chi^{list(m)}: {p}" for m, p in v.terms.items())
        return f"{{{inner}}}" if inner else "{}"
    return str(v)


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

    dual is dualize(f) when the caller has already built it.
    """
    _check_dilation(ell)
    lhs = hodge_character_sum(lattice, dualize(f) if dual is None else dual, ell)
    rhs = negate_characters(
        hodge_character_sum(lattice, f, -ell).map_values(substitute_inverse)
    )
    return _compare("hodge_duality", {"ell": ell}, lhs, rhs)


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
