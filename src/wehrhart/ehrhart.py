"""Weighted lattice-point counting and the identity verifiers.

A weighted count splits into torus orbits, one per nonempty face Q:
Etilde(ell, y) = sum_Q f_Q(y) (1+y)^dim Q S_Q(ell), where S_Q(ell), the
sum of phi over Relint(ell Q), is a polynomial of degree dim Q + deg phi
that does not depend on the weights.  It is interpolated once per
(lattice, phi), in int, from the walk at ell = 1 .. K alone,
K = ceil((n + deg phi + 1) / 2): per-face reciprocity (Macdonald, with
polynomial weights as in Brion-Vergne), S_Q(-ell) = (-1)^(dim Q + deg phi)
sum_{G <= Q} S_G(ell), and S_Q(0) = (-1)^dim Q phi(0) give every face its
samples at -K .. 0, fitted by one int matrix per face degree.  Each face
is checked, a dimension at a time, by the samples past its degree and
against its own facets: a vertex by its closed form, every other face by
the Euler-Maclaurin boundary term, and the top face also by the
divergence theorem (_face_polynomials).  phi is homogeneous, so
E = (1+y)^deg phi Etilde (_variant_factor).  The polynomial sums the
interpolants in int per (f_Q, dim Q); every value a verifier compares is
one linear combination of per-face scalars with the orbit coefficients
f_Q(y) (1+y)^dim Q, built once per weight.  Character sums likewise carry
one coefficient per orbit (OrbitSum), and duality compares them face by
face; points appear only when a sum is rendered.

The per-face values come by two routes, kept in one table per (phi, ell):
at ell > 0 from the walk, at ell < 0 off the per-face interpolants, one
evaluation per face and dilation.  Each verifier checks one (suite,
weight) over a run of dilations and returns one CheckResult per ell, in
order: its arguments, coefficients and tables are read once per run.
Reciprocity, duality reciprocity and purity are one check
(_minus_ell_checks): the value at -ell, kept on the weight and shared by
all three, against (-1)^deg phi times a sum built at +ell, and an E check
is the Etilde check with both sides times (1+y)^deg phi (e_form).  Past
K the two routes cross-validate each other.  At ell <= K the
interpolant's value at -ell is the reciprocity sample built from the
same walk, so the reciprocity suite there checks only the
orbit-coefficient algebra (_MINUS), while duality and purity still test
dualize and the g-weights.  Per-face reciprocity is checked
independently only by the tests, against an interpolation of the walk
at ell = 1 .. n + deg phi + 3.  A check is a CheckResult holding both
sides and, on failure, its first differing coefficient; jsonio renders
it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm, prod
from operator import add, mul, neg
from typing import NamedTuple

from .algebra import (
    L_ONE,
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
    check_dilation,
    check_nonempty_face,
    fibre_rows,
    mask_ids,
    points_by_face,
)
from .weights import WeightFunction, dualize

VARIANT_E = "E"
VARIANT_ETILDE = "Etilde"
_VARIANTS = (VARIANT_E, VARIANT_ETILDE)


def _variant_factor(phi, variant):
    """(1+y)^deg phi for E, 1 for Etilde: phi(-(1+y) m) = (1+y)^deg phi phi(-m)."""
    if variant not in _VARIANTS:
        raise ValueError(f"variant must be one of {_VARIANTS}, got {variant!r}")
    return one_plus_y_power(phi.degree) if variant == VARIANT_E else L_ONE


class OrbitSum(NamedTuple):
    """A character sum at dilation ell held as one coefficient per torus
    orbit: coeffs[E] at chi^(-m) for every m in Relint(ell E) at ell > 0,
    at chi^m for every m in Relint(-ell E) at ell < 0; at ell = 0 the one
    coefficient, on the empty face, sits at chi^0.  Two sums are equal
    when their coefficient maps are, on the same lattice object at the
    same ell; the dict field leaves it unhashable."""

    coeffs: dict
    lattice: object
    ell: int

    def characters(self):
        """(character, face) for every point of |ell| P, characters ascending.

        It depends on the lattice and ell alone, so a writer of many sums
        keeps one per (lattice, ell).  points_by_face's lists are each
        sorted, so one sort merges them into the lexicographic order of m:
        the order of chi^m at ell < 0, and reversed that of chi^(-m) at
        ell > 0.
        """
        if not self.ell:
            return [((0,) * self.lattice.polytope.n, self.lattice.empty_id)]
        relint = points_by_face(self.lattice, abs(self.ell))
        order = sorted((m, e) for e, points in relint.items() for m in points)
        if self.ell < 0:
            return order
        return [(tuple(map(neg, m)), e) for m, e in reversed(order)]

    def terms(self, fmt=lambda c: c):
        """Sorted (character, fmt(coefficient)) pairs, one per point whose
        face has a nonzero coefficient; fmt runs once per face."""
        values = {e: fmt(c) for e, c in self.coeffs.items() if c}
        return [(m, values[e]) for m, e in self.characters() if e in values]


_PLUS, _MINUS, _MINUS_INVERTED = "plus", "minus", "minus at 1/y"


def _orbit_coefficients(f, kind):
    """One coefficient per torus orbit, built on first use and kept on f.

    _PLUS:           c_Q = f_Q(y) (1+y)^dim Q for each Q in the support, the
                     coefficient at ell > 0, of weighted values and -ell checks
    _MINUS:          c_E = sum over Q >= E of f_Q(y) (-1-y)^dim Q, at ell < 0:
                     the faces whose closed dilate |ell| Q holds m; also
                     the right side of reciprocity, on the sums at +ell
    _MINUS_INVERTED: _MINUS with y -> 1/y
    None depends on the dilation, so each is built once per weight.
    """
    memo = f._memo
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


def hodge_character_sum(f: WeightFunction, ell: int) -> OrbitSum:
    """The equivariant character sum of the weighted divisor at dilation ell.

    One coefficient per torus orbit (_orbit_coefficients), carried by every
    point of the orbit's face's relative interior in |ell| P once the sum
    is listed (OrbitSum.terms):
    ell > 0:  _PLUS at chi^(-m);  ell < 0:  _MINUS at chi^(+m)
    ell = 0:  sum_Q f_Q(y) (-1-y)^dim Q at chi^0, the one point of 0 P, held
              on the empty face, the face below every Q (_MINUS's rule there)
    """
    lattice, ell = f.lattice, as_int(ell)
    if ell:
        return OrbitSum(_orbit_coefficients(f, _MINUS if ell < 0 else _PLUS), lattice, ell)
    faces = lattice.faces
    total = linear_combination(
        (c, -1 if faces[q].dim % 2 else 1) for q, c in _orbit_coefficients(f, _PLUS).items()
    )
    return OrbitSum({lattice.empty_id: total}, lattice, 0)


def _scaled_monomials(phi):
    """(d, [(exponents, d * c)]): phi's coefficients over their common denominator d, in int."""
    d = lcm(*(c.denominator for _, c in phi.monomials))
    return d, [(e, (c * d).numerator) for e, c in phi.monomials]


def _phi_face_sums(lattice, phi, ell):
    """S_Q(ell) for every nonempty Q and ell != 0, memoized in lattice._memo
    as one {Q: value} dict under (phi, ell).  S_Q(ell) is the sum of phi over
    Relint(ell Q) at ell > 0, and the value of its polynomial at ell < 0.

    ell < 0: each face's interpolant (_face_polynomials) at ell, by Horner's
    rule in int, over its denominator D.
    ell > 0: the walk, summing over the rows of fibre_rows in closed form
    without visiting their points.  Write d*phi(outer, x, t) = sum_k t^k
    sum_j h_kj(outer) x^j with integer h_kj, d the common denominator of
    the coefficients (for n = 1, x is a dummy at exponent 0).  h is
    evaluated once per row and g_k = sum_j h_kj x^j once per fibre; a
    fibre's two ends are evaluated and its middle lo < t < hi adds sum_k
    g_k times the power sum of t^k.
    Either way each face's value is one int, divided once by D or d: an
    int when the division is exact, else a Fraction.
    """
    if phi.n != lattice.polytope.n:
        raise ValueError("integrand dimension differs from the polytope's")
    key = (phi, ell)
    if key not in lattice._memo:
        if ell < 0:
            denom, table = _face_polynomials(lattice, phi)
            acc = {}
            for q, coeffs in table.items():
                v = 0
                for a in reversed(coeffs):
                    v = v * ell + a
                acc[q] = v
        else:
            denom, monomials = _scaled_monomials(phi)
            terms = {}  # k -> j -> [(exponents of outer, d*c)]
            for exps, c in monomials:
                *e, j, k = (0,) * (2 - phi.n) + exps
                terms.setdefault(k, {}).setdefault(j, []).append((e, c))
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
        lattice._memo[key] = {
            q: v // denom if v % denom == 0 else Fraction(v, denom) for q, v in acc.items()
        }
    return lattice._memo[key]


def weighted_ehrhart_value(f: WeightFunction, phi: HomogPoly, ell: int, variant: str) -> LaurentPoly:
    """The weighted count at a positive dilation.

    Equal to hodge_character_sum(f, ell) with chi^m sent to
    phi(-m), times the variant's factor; one linear combination of the
    per-face integrand sums, which are memoized, with the weight's orbit
    coefficients.
    """
    factor = _variant_factor(phi, variant)
    sums = _phi_face_sums(f.lattice, phi, check_dilation(ell))
    plus = _orbit_coefficients(f, _PLUS)
    return linear_combination(zip(plus.values(), map(sums.__getitem__, plus))) * factor


class PolynomialityError(ArithmeticError):
    """A face's samples failed an overdetermination or face-identity check.

    Polynomiality in the dilation is a theorem, so this always signals an
    implementation bug and is surfaced loudly rather than reported.
    """


@lru_cache(maxsize=16)  # a table takes n + 1 <= 14 degrees: MAX_FACES admits no n above 13
def _fit_matrix(bound, deg):
    """(fit, checks) in int on the samples s_0 .. s_2K at -K .. K, K = (bound + 2) // 2.
    fit takes s_0 .. s_deg to bound! a_0 .. a_deg: the differences Delta^j s_0
    = sum_i (-1)^(j-i) C(j, i) s_i, j <= deg, folded into the Newton basis
    bound! C(z + K, j).  checks holds the rows of Delta^j s_0, j = deg + 1 .. 2K."""
    K = (bound + 2) // 2
    diff = [[(-1) ** (j - i) * comb(j, i) for i in range(j + 1)] for j in range(2 * K + 1)]
    fit, newton = [[0] * (deg + 1) for _ in range(deg + 1)], [factorial(bound)]
    for j in range(deg + 1):
        for k, b in enumerate(newton):
            fit[k][: j + 1] = [f + b * c for f, c in zip(fit[k], diff[j])]
        # times (z + K - j), then / (j + 1): exact below j = bound, and the last row is unused
        newton = [(a + (K - j) * b) // (j + 1) for a, b in zip([0] + newton, newton + [0])]
    return tuple(map(tuple, fit)), tuple(map(tuple, diff[deg + 1 :]))


def _face_polynomials(lattice, phi):
    """(D, {Q: (a_Q0, .., a_Qdeg)}), memoized in lattice._memo under phi.

    S_Q(z) = sum_k a_Qk z^k / D with D = (n + deg phi)! * lcm(denominators
    of phi), deg = dim Q + deg phi.  The walk runs at ell = 1 .. K only,
    K = ceil((n + deg phi + 1) / 2), and gives each face 2K + 1 samples at
    the consecutive integers -K .. K (Macdonald reciprocity, with
    polynomial weights as in Brion-Vergne):
        +ell  S_Q(ell), from the walk
         0    (-1)^dim Q phi(0)
        -ell  (-1)^deg times the closed sum, sum over G <= Q of S_G(ell)
    The samples are scaled to int, and _fit_matrix, one per degree, takes
    the first deg + 1 to the a_Qk; every difference from -K above deg, one
    check row each, must vanish, which also fixes a_Q0 to the sample at 0.
    Taken dimension by dimension (FaceLattice.by_dim), each face is then
    checked against its own facets G, the faces of dimension dim Q - 1
    below it: a vertex v has S_v(z) = phi(v) z^deg phi, and a face of
    dim >= 1 meets the Euler-Maclaurin boundary term in its own lattice,
    2 a_Q[deg - 1] = -sum_G a_G[deg - 1], with a_G[deg - 1] the integral
    of phi over G times D.  The top face P also meets the divergence
    theorem, deg a_P[deg] = sum_G a_F a_G[deg - 1] (deg = n + deg phi),
    a_F the offset of the one facet F tight at G.  The constraints past
    the fit, per face of dimension d (2K >= n + deg phi + 1):
        d = 0           2K - deg phi differences, deg phi + 1 closed-form
                        coefficients
        0 < d < n       2K - d - deg phi differences, Euler-Maclaurin
        d = n           2K - n - deg phi >= 1 differences, Euler-Maclaurin
                        and the divergence identity
    so no face has fewer than three.  The Euler-Maclaurin identity is the
    z^(deg - 1) coefficient of reciprocity, which the samples impose at
    0 .. K; once every face below Q fits, the lattice being Eulerian makes
    Q's reciprocity remainder even or odd, so it vanishes at -K .. K and
    the identity follows from Q's differences.  A failure raises
    PolynomialityError naming the face.  phi(0) and each phi(v) are
    phi_eval's, times d, so in int.
    """
    if phi not in lattice._memo:
        P, faces = lattice.polytope, lattice.faces
        n = P.n
        bound = n + phi.degree
        K = (bound + 2) // 2
        d, _ = _scaled_monomials(phi)
        denom = factorial(bound) * d
        walk = [
            {q: canon(d * v) for q, v in _phi_face_sums(lattice, phi, ell).items()}
            for ell in range(1, K + 1)
        ]
        phi0 = int(d * phi_eval(phi, (0,) * n))  # d clears every denominator of phi
        table = {}
        for dim, layer in enumerate(lattice.by_dim[1:]):
            deg = dim + phi.degree
            sign = -1 if deg % 2 else 1
            fit, checks = _fit_matrix(bound, deg)
            for q in mask_ids(layer):
                below = lattice.subfaces(q)
                row = [sign * sum(map(sums.__getitem__, below)) for sums in reversed(walk)]
                row.append(-phi0 if dim % 2 else phi0)
                row.extend(sums[q] for sums in walk)
                for j, check in enumerate(checks, deg + 1):
                    if sum(map(mul, check, row)):
                        raise PolynomialityError(
                            f"face {q}: its samples at z = -{K}..{K} (walked at 1..{K}, "
                            f"by reciprocity at -{K}..-1) have a nonzero difference of "
                            f"order {j}, above their degree {deg}"
                        )
                coeffs = tuple(sum(map(mul, r, row)) for r in fit)
                if dim:
                    ridges = mask_ids(lattice.down[q] & lattice.by_dim[dim])
                    rhs = -sum(table[g][deg - 1] for g in ridges)
                    _check_coefficient(q, deg - 1, 2, coeffs[deg - 1], rhs, denom, "facet identity")
                else:
                    v = P.vertices[faces[q].vertex_mask.bit_length() - 1]
                    closed = (0,) * phi.degree + (factorial(bound) * int(d * phi_eval(phi, v)),)
                    for k, (a, b) in enumerate(zip(coeffs, closed)):
                        _check_coefficient(q, k, 1, a, b, denom, "closed form")
                if dim == n:  # an (n-1)-face is tight on exactly one facet: its own
                    rhs = sum(
                        P.facets[faces[g].tight_mask.bit_length() - 1][1] * table[g][deg - 1]
                        for g in ridges
                    )
                    _check_coefficient(q, deg, deg, coeffs[deg], rhs, denom, "facet identity")
                table[q] = coeffs
        lattice._memo[phi] = denom, table
    return lattice._memo[phi]


def _check_coefficient(q, k, m, a, rhs, denom, name):
    """m * a == rhs for the coefficient a of z^k of face q, over D = denom,
    or PolynomialityError naming the face, both sides divided by m * D."""
    if m * a != rhs:
        raise PolynomialityError(
            f"face {q}: coefficient of z^{k} {Fraction(a, denom)}, {name} {Fraction(rhs, m * denom)}"
        )


def ehrhart_polynomial(f: WeightFunction, phi: HomogPoly, variant: str) -> ZPoly:
    """The weighted count as a polynomial in the dilation z.

    Coefficient k is sum_Q f_Q(y) (1+y)^dim Q a_Qk / D times the variant's
    factor, the per-face interpolants of _face_polynomials summed in int
    per (f_Q, dim Q) first: one Laurent product per such pair and one per
    coefficient.  Their checks (the samples past each face's degree,
    reciprocity's included, the closed form of each vertex, the
    Euler-Maclaurin identity of every other face against its own facets,
    and the divergence identity of the top face) raise PolynomialityError.
    """
    factor, lattice = _variant_factor(phi, variant), f.lattice
    denom, table = _face_polynomials(lattice, phi)
    groups = {}  # (f_Q, dim Q) -> the sum of a_Q over its faces, in int
    for q, fq in f.values.items():
        a = groups.setdefault((fq, lattice.faces[q].dim), [0] * len(table[q]))
        a[:] = map(add, a, table[q])
    orbits = [(fq * one_plus_y_power(dim), a) for (fq, dim), a in groups.items()]
    return ZPoly(  # the factor in int, then one division by D per y-coefficient
        linear_combination((c, a[k]) for c, a in orbits if k < len(a)) * factor * Fraction(1, denom)
        for k in range(lattice.polytope.n + phi.degree + 1)
    )


class CheckResult(NamedTuple):
    """Outcome of one identity check, with both sides kept for reporting.

    difference names the first coefficient at which a failed check's sides
    differ (see _first_difference); it is None on a passed check.  The
    params dict leaves it unhashable.
    """

    name: str
    params: dict
    passed: bool
    lhs: object
    rhs: object
    difference: dict | None = None


def _first_difference(lhs: LaurentPoly, rhs: LaurentPoly) -> dict:
    """The lowest y-exponent at which two unequal Laurent polynomials differ."""
    k = min(k for k in lhs.terms.keys() | rhs.terms.keys() if lhs.coeff(k) != rhs.coeff(k))
    return {"exponent": k, "lhs": lhs.coeff(k), "rhs": rhs.coeff(k)}


def _compare(name, params, lhs, rhs) -> CheckResult:
    if lhs == rhs:
        return CheckResult(name, params, True, lhs, rhs)
    return CheckResult(name, params, False, lhs, rhs, _first_difference(lhs, rhs))


def _minus_ell_checks(name, params, f, phi, ells, factor, coeffs, invert, shift=L_ONE) -> list:
    """factor * Etilde(-ell) off the interpolants against (-1)^deg phi * factor
    * shift * R for each ell of a checked run, R the combination of coeffs with
    the +ell face table, at y -> 1/y if invert.  Etilde(-ell) is kept in
    f._memo under (phi, -ell), so reciprocity, duality and purity of one
    weight build it once; per ell only the two combinations and the
    comparison are paid."""
    lattice, memo, plus = f.lattice, f._memo, _orbit_coefficients(f, _PLUS)
    scale = shift * (-factor if phi.degree % 2 else factor)
    checks = []
    for ell in ells:
        sums = _phi_face_sums(lattice, phi, ell)
        right = linear_combination(zip(coeffs.values(), map(sums.__getitem__, coeffs)))
        if (phi, -ell) not in memo:
            lows = _phi_face_sums(lattice, phi, -ell)
            memo[phi, -ell] = linear_combination(zip(plus.values(), map(lows.__getitem__, plus)))
        rhs = (substitute_inverse(right) if invert else right) * scale
        checks.append(_compare(name, {"ell": ell, **params}, memo[phi, -ell] * factor, rhs))
    return checks


def e_form(check: CheckResult, phi) -> CheckResult:
    """The E check of an Etilde check from _minus_ell_checks: both sides times
    (1+y)^deg phi, compared afresh, so a failure's first difference is its own.
    At deg phi = 0 the factor is 1, and the E check holds the Etilde check's
    sides and verdict as they are."""
    params = {**check.params, "variant": VARIANT_E}
    if not phi.degree:
        return check._replace(params=params)
    factor = _variant_factor(phi, VARIANT_E)
    return _compare(check.name, params, check.lhs * factor, check.rhs * factor)


def verify_reciprocity(f, phi, ells, variant: str = VARIANT_E) -> list:
    """Reciprocity at each ell of the run, one CheckResult each, in order:
    R = sum_Q f_Q(y) (-1-y)^dim Q times phi summed over ell Q closed."""
    factor, ells = _variant_factor(phi, variant), [check_dilation(ell) for ell in ells]
    minus = _orbit_coefficients(f, _MINUS)
    return _minus_ell_checks("reciprocity", {"variant": variant}, f, phi, ells, factor, minus, False)


def verify_duality_reciprocity(f, phi, ells, variant: str = VARIANT_E) -> list:
    """Duality reciprocity at each ell of the run, one CheckResult each, in
    order: R = Etilde of the dualized weights at +ell, y -> 1/y.

    The dual is dualize(f), which f keeps: every check on f shares one.
    """
    factor, ells = _variant_factor(phi, variant), [check_dilation(ell) for ell in ells]
    dual = _orbit_coefficients(dualize(f), _PLUS)
    return _minus_ell_checks("duality_reciprocity", {"variant": variant}, f, phi, ells, factor, dual, True)


def verify_hodge_duality(f, ells) -> list:
    """Character sum of the dual weights vs the inverted, negated sum at -ell,
    at each ell of the run, one CheckResult each, in order.

    Both sides hold one coefficient per face E at chi^(-m) for m in
    Relint(ell E), so they agree exactly when the coefficients agree on
    every face whose relative interior has points; the two tables are
    compared once, and each ell only looks for a face that differs and has
    points.  lhs and rhs are OrbitSums, expanded to points only when
    rendered.  A failed check names the first such face and its first
    differing exponent.  The dual is dualize(f), which f keeps: every check
    on f shares one.
    """
    ells = [check_dilation(ell) for ell in ells]
    lattice, dual = f.lattice, _orbit_coefficients(dualize(f), _PLUS)
    inverted = _orbit_coefficients(f, _MINUS_INVERTED)
    differ = {e for e in dual.keys() | inverted.keys()
              if dual.get(e, L_ZERO) != inverted.get(e, L_ZERO)}
    checks = []
    for ell in ells:
        lhs, rhs = OrbitSum(dual, lattice, ell), OrbitSum(inverted, lattice, ell)
        e = next((e for e, points in points_by_face(lattice, ell).items() if points and e in differ), None)
        if e is None:
            checks.append(CheckResult("hodge_duality", {"ell": ell}, True, lhs, rhs))
        else:
            difference = {"face": e, **_first_difference(dual.get(e, L_ZERO), inverted.get(e, L_ZERO))}
            checks.append(CheckResult("hodge_duality", {"ell": ell}, False, lhs, rhs, difference))
    return checks


def verify_purity(f, qprime_id: int, phi, ells) -> list:
    """Purity of the weight f at the face Q' at each ell of the run, one
    CheckResult each, in order: E(-ell, y) = (-y)^(dim Q' + deg phi)
    E(ell, 1/y), so R = (-y)^dim Q' Etilde(ell, 1/y).

    It holds for the g-weights of Q' (stanley.g_weight_function), and for any
    f with D(f) = (-y)^(-dim Q') f, the weights of a pure module.
    """
    qprime_id = check_nonempty_face(f.lattice, qprime_id)
    factor, ells = _variant_factor(phi, VARIANT_E), [check_dilation(ell) for ell in ells]
    shift = neg_y_power(f.lattice.faces[qprime_id].dim)
    plus = _orbit_coefficients(f, _PLUS)
    return _minus_ell_checks("purity", {"face": qprime_id}, f, phi, ells, factor, plus, True, shift)
