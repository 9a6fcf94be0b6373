"""Weighted lattice-point counting and the identity verifiers.

A weighted count splits into torus orbits, one per nonempty face Q:
E(ell, y) = sum_Q f_Q(y) (1+y)^dim Q S_Q(ell), times (1+y)^deg phi for E,
where S_Q(ell), the sum of phi over Relint(ell Q), is a polynomial of
degree dim Q + deg phi that does not depend on the weights.  It is
interpolated once per (lattice, phi), in int, and checked face by face.
Every value a verifier compares is one linear combination of per-face
scalars with the orbit coefficients f_Q(y) (1+y)^dim Q, which are built
once per weight.  Character sums likewise carry one coefficient per
orbit (OrbitSum), and duality compares them face by face; points appear
only when a sum is rendered.

Values at negative dilations are read off the per-face interpolants, one
evaluation per face and dilation, and closed-face sums always come from
the walk, so the verifiers genuinely cross-validate two computation
routes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm, prod

from .algebra import (
    L_ZERO,
    HomogPoly,
    LaurentPoly,
    ZPoly,
    as_int,
    canon,
    linear_combination,
    neg_y_power,
    one_plus_y_power,
    phi_eval,
    poly_sum,
    power_sum,
    substitute_inverse,
)
from .polytope import (
    PHI_SUMS_MAX,
    BoundedCache,
    FaceLattice,
    check_dilation,
    fibre_rows,
    points_by_face,
)
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


_PLUS, _MINUS, _MINUS_INVERTED = "plus", "minus", "minus at 1/y"


def _orbit_coefficients(f, kind):
    """One coefficient per torus orbit, built on first use and kept on f.

    _PLUS:           c_Q = f_Q(y) (1+y)^dim Q for each Q in the support, the
                     coefficient at ell > 0 and of every weighted count
    _MINUS:          c_E = sum over Q >= E of f_Q(y) (-1-y)^dim Q, at ell < 0:
                     the faces whose closed dilate |ell| Q holds m
    _MINUS_INVERTED: _MINUS with y -> 1/y
    None depends on the dilation, so each is built once per weight.
    """
    memo = f._orbit
    if kind not in memo:
        faces = f.lattice.faces
        if kind == _PLUS:
            memo[kind] = {q: fq * one_plus_y_power(faces[q].dim) for q, fq in f.values.items()}
        elif kind == _MINUS:
            above = {}
            for q, c in _orbit_coefficients(f, _PLUS).items():
                c = -c if faces[q].dim % 2 else c  # (-1-y)^d = (-1)^d (1+y)^d
                for e in f.lattice.subfaces(q):
                    above.setdefault(e, []).append(c)
            memo[kind] = {e: poly_sum(cs) for e, cs in above.items()}
        else:
            minus = _orbit_coefficients(f, _MINUS)
            memo[kind] = {e: substitute_inverse(c) for e, c in minus.items()}
    return memo[kind]


def hodge_character_sum(lattice: FaceLattice, f: WeightFunction, ell: int) -> OrbitSum:
    """The equivariant character sum of the weighted divisor at dilation ell.

    One coefficient per torus orbit (_orbit_coefficients), carried by every
    point of the orbit's face's relative interior in |ell| P:
    ell > 0:  _PLUS at chi^(-m);  ell < 0:  _MINUS at chi^(+m)
    ell = 0:  sum_Q f_Q(y) (-1-y)^dim Q at chi^0, the one point of 0 P, held
              on the empty face, the face below every Q (_MINUS's rule there)
    """
    _check_lattice(lattice, f)
    n = lattice.polytope.n
    ell = as_int(ell)
    if ell:
        coeffs = _orbit_coefficients(f, _MINUS if ell < 0 else _PLUS)
        return OrbitSum(n, coeffs, points_by_face(lattice, abs(ell)), 1 if ell < 0 else -1)
    faces = lattice.faces
    total = linear_combination(
        (c, -1 if faces[q].dim % 2 else 1) for q, c in _orbit_coefficients(f, _PLUS).items()
    )
    empty = lattice.empty_id
    return OrbitSum(n, {empty: total}, {empty: [(0,) * n]}, 1)


def _phi_face_sums(lattice, phi, ell):
    """sum of phi over Relint(ell Q) for every nonempty Q, memoized.

    Sums over the rows of fibre_rows in closed form, without visiting
    their points.  Write d*phi(outer, x, t) = sum_k t^k sum_j h_kj(outer) x^j
    with integer h_kj, d the common denominator of the coefficients (for
    n = 1, x is a dummy at exponent 0).  h is evaluated once per row and
    g_k = sum_j h_kj x^j once per fibre; a fibre's two ends are evaluated
    and its middle lo < t < hi adds sum_k g_k times the power sum of t^k.
    Each face total is divided by d once, as a Fraction.
    """
    return _phi_sums_entry(lattice, phi, ell)[0]


def _phi_sums_entry(lattice, phi, ell):
    """The (phi, ell) entry of lattice._phi_sums: [open sums, closed sums or None]."""
    if phi.n != lattice.polytope.n:
        raise ValueError("integrand dimension differs from the polytope's")
    key = (phi, ell)
    if key not in lattice._phi_sums:
        d = lcm(*(c.denominator for _, c in phi.monomials))
        terms = {}  # k -> j -> [(exponents of outer, d*c)]
        for exps, c in phi.monomials:
            *e, j, k = (0,) * (2 - phi.n) + exps
            terms.setdefault(k, {}).setdefault(j, []).append((e, (c * d).numerator))
        acc = dict.fromkeys(lattice.nonempty_ids, 0)
        for outer, row in fibre_rows(lattice, ell):
            for k, by_j in terms.items():
                # h_kj(outer) for j = max j .. 0, the order Horner's rule reads them in
                h = [
                    sum(c * prod(map(pow, outer, e)) for e, c in by_j.get(j, ()))
                    for j in range(max(by_j), -1, -1)
                ]
                for x, lo, hi, face_lo, face_mid, face_hi in row:
                    g = 0
                    for hj in h:
                        g = g * x + hj
                    acc[face_lo] += g * lo**k
                    if hi > lo:
                        acc[face_mid] += g * power_sum(k, lo + 1, hi - 1)
                        acc[face_hi] += g * hi**k
        lattice._phi_sums[key] = [{q: canon(Fraction(v, d)) for q, v in acc.items()}, None]
    return lattice._phi_sums[key]


def _closed_face_sums(lattice, phi, ell):
    """sum of phi over the closed dilate ell Q for every nonempty Q.

    The closed face is the union of the relative interiors of its nonempty
    faces; built once per (phi, ell) and kept in that entry of _phi_sums.
    """
    entry = _phi_sums_entry(lattice, phi, ell)
    if entry[1] is None:
        sums = entry[0]
        entry[1] = {
            q: canon(sum(sums[e] for e in lattice.subfaces(q))) for q in lattice.nonempty_ids
        }
    return entry[1]


def _combine(f, values, phi, variant) -> LaurentPoly:
    """sum_Q f_Q(y) (1+y)^dim Q values[Q], times (1+y)^deg phi for E."""
    acc = linear_combination((c, values[q]) for q, c in _orbit_coefficients(f, _PLUS).items())
    return acc * one_plus_y_power(phi.degree) if variant == VARIANT_E else acc


def weighted_ehrhart_value(
    lattice: FaceLattice,
    f: WeightFunction,
    phi: HomogPoly,
    ell: int,
    variant: str,
) -> LaurentPoly:
    """The weighted count at a positive dilation.

    Equal to hodge_character_sum(lattice, f, ell) with chi^m sent to
    phi(-m), times (1+y)^deg phi for E; one linear combination of the
    per-face integrand sums, which are memoized, with the weight's orbit
    coefficients.
    """
    _check_variant(variant)
    _check_lattice(lattice, f)
    check_dilation(ell)
    return _combine(f, _phi_face_sums(lattice, phi, ell), phi, variant)


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
    """(D, {Q: (a_Q0, .., a_Qdeg)}, at_negative), memoized per phi.

    S_Q(z) = sum_k a_Qk z^k / D with D = (n + deg phi)! * lcm(denominators
    of phi).  Each face's sums at ell = 1 .. n + deg phi + 3 are scaled to
    int and differenced; every difference above deg = dim Q + deg phi must
    vanish, and a_Q0 must be (-1)^dim Q * phi(0) * D, or
    PolynomialityError names the face.  at_negative starts empty and is
    filled by _values_at_negative.
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
        lattice._face_polys[phi] = denom, table, BoundedCache(PHI_SUMS_MAX)
    return lattice._face_polys[phi]


def _values_at_negative(lattice, phi, ell):
    """S_Q(-ell) for every nonempty Q, read off the face's interpolant.

    Each interpolant is evaluated once per (phi, ell), by Horner's rule in
    int and one division by D; the values are kept in the phi entry of
    _face_polys, for at most PHI_SUMS_MAX dilations.
    """
    denom, table, at_negative = _face_polynomials(lattice, phi)
    if ell not in at_negative:
        values = {}
        for q, coeffs in table.items():
            v = 0
            for a in reversed(coeffs):
                v = v * -ell + a
            values[q] = canon(Fraction(v, denom))
        at_negative[ell] = values
    return at_negative[ell]


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
    denom, table, _ = _face_polynomials(lattice, phi)
    scale = Fraction(1, denom)
    if variant == VARIANT_E:
        scale = one_plus_y_power(phi.degree) * scale
    plus = _orbit_coefficients(f, _PLUS)
    return ZPoly(
        linear_combination(
            (c, table[q][k]) for q, c in plus.items() if k < len(table[q])
        ) * scale
        for k in range(lattice.polytope.n + phi.degree + 1)
    )


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one identity check, with both sides kept for reporting.

    difference names the first coefficient at which a failed check's sides
    differ (see _first_difference); it is None on a passed check.
    """

    name: str
    params: dict
    passed: bool
    lhs: object
    rhs: object
    difference: dict | None = None

    def render(self):
        lhs = render_value(self.lhs)
        out = {
            "name": self.name,
            "params": {k: str(v) for k, v in self.params.items()},
            "passed": self.passed,
            "lhs": lhs,
            # equal sides render alike, so a passed check renders once
            "rhs": lhs if self.passed else render_value(self.rhs),
        }
        if self.difference is not None:
            out["first_difference"] = {k: str(v) for k, v in self.difference.items()}
        return out


def render_value(v) -> str:
    if not isinstance(v, OrbitSum):
        return str(v)
    # each face's coefficient is formatted once
    inner = "; ".join(f"chi^{list(m)}: {p}" for m, p in v.terms(str))
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


def _first_difference(lhs: LaurentPoly, rhs: LaurentPoly) -> dict:
    """The lowest y-exponent at which two unequal Laurent polynomials differ."""
    k = min(k for k in lhs.terms.keys() | rhs.terms.keys() if lhs.coeff(k) != rhs.coeff(k))
    return {"exponent": k, "lhs": lhs.coeff(k), "rhs": rhs.coeff(k)}


def _compare(name, params, lhs, rhs) -> CheckResult:
    if lhs == rhs:
        return CheckResult(name, params, True, lhs, rhs)
    return CheckResult(name, params, False, lhs, rhs, _first_difference(lhs, rhs))


def _value_at_negative(lattice, f, phi, ell, variant) -> LaurentPoly:
    """The count's polynomial at -ell: the per-face interpolants at -ell, combined."""
    _check_variant(variant)
    _check_lattice(lattice, f)
    check_dilation(ell)
    return _combine(f, _values_at_negative(lattice, phi, ell), phi, variant)


def verify_reciprocity(lattice, f, phi, ell: int, variant: str = VARIANT_E) -> CheckResult:
    """Value at -ell from the interpolants vs the closed-face enumeration.

    E variant:  E(-ell, y) = sum_Q f_Q (-1-y)^(dim Q + deg phi) * sum over
    ell*Q closed of phi(m); Etilde replaces the exponent shift with a
    global (-1)^deg phi.
    """
    lhs = _value_at_negative(lattice, f, phi, ell, variant)
    closed = _closed_face_sums(lattice, phi, ell)
    faces = lattice.faces
    # (-1-y)^dim Q = (-1)^dim Q (1+y)^dim Q
    rhs = linear_combination(
        (c, -closed[q] if faces[q].dim % 2 else closed[q])
        for q, c in _orbit_coefficients(f, _PLUS).items()
    )
    if variant == VARIANT_E:
        rhs = rhs * one_plus_y_power(phi.degree, negate=True)
    else:
        rhs = rhs * (-1) ** phi.degree
    return _compare("reciprocity", {"ell": ell, "variant": variant}, lhs, rhs)


def verify_duality_reciprocity(
    lattice, f, phi, ell: int, variant: str = VARIANT_E, dual=None
) -> CheckResult:
    """Value at -ell vs the dualized weights at +ell with y inverted.

    E variant carries the factor (-y)^deg phi; Etilde carries (-1)^deg phi.
    dual is dualize(f) when the caller has already built it.
    """
    lhs = _value_at_negative(lattice, f, phi, ell, variant)
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
    OrbitSums, expanded to points only when rendered.  A failed check
    names the first such face and its first differing exponent.  dual is
    dualize(f) when the caller has already built it.
    """
    check_dilation(ell)
    _check_lattice(lattice, f)
    lhs = hodge_character_sum(lattice, dualize(f) if dual is None else dual, ell)
    inverted = _orbit_coefficients(f, _MINUS_INVERTED)
    rhs = OrbitSum(lhs.n, inverted, lhs.relint, -1)
    for e, points in lhs.relint.items():
        a, b = lhs.coeffs.get(e, L_ZERO), inverted.get(e, L_ZERO)
        if points and a != b:
            difference = {"face": e, **_first_difference(a, b)}
            return CheckResult("hodge_duality", {"ell": ell}, False, lhs, rhs, difference)
    return CheckResult("hodge_duality", {"ell": ell}, True, lhs, rhs)


def verify_purity(lattice, qprime_id: int, phi, ell: int, weights=None) -> CheckResult:
    """With the g-weights of a face: E(-ell, y) = (-y)^(n'+deg phi) E(ell, 1/y).

    weights is g_weight_function(lattice, qprime_id) when the caller has
    already built it.
    """
    if lattice.faces[qprime_id].dim < 0:
        raise ValueError("purity needs a nonempty face")
    f = g_weight_function(lattice, qprime_id) if weights is None else weights
    lhs = _value_at_negative(lattice, f, phi, ell, VARIANT_E)
    value = weighted_ehrhart_value(lattice, f, phi, ell, VARIANT_E)
    nprime = lattice.faces[qprime_id].dim
    rhs = substitute_inverse(value) * neg_y_power(nprime + phi.degree)
    return _compare("purity", {"ell": ell, "face": qprime_id}, lhs, rhs)
