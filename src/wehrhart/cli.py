"""Command-line surface.

Every command reads a polytope vertex file, runs one computation, and
emits canonical JSON (or plain text for `hpoly`) to stdout or --out.

Exit codes: 0 success, 1 a verification check failed, 2 an input did
not parse (FormatError), 3 an input parsed but failed validation
(ContentError, InvalidPolytope).  Errors print one line to stderr,
`error: <kind>: <detail>`, the detail led by the path of a refused file.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache
from math import prod

from .algebra import L_ZERO, HomogPoly
from .ehrhart import (
    VARIANT_E,
    VARIANT_ETILDE,
    PolynomialityError,
    e_form,
    ehrhart_polynomial,
    hodge_character_sum,
    verify_duality_reciprocity,
    verify_hodge_duality,
    verify_purity,
    verify_reciprocity,
)
from .jsonio import (
    ContentError,
    FormatError,
    charsum_to_json,
    dumps,
    face_id_from_json,
    lattice_to_json,
    laurent_to_json,
    load_lattice,
    load_phi,
    load_weight,
    verify_to_json,
    weight_to_json,
    zpoly_to_json,
)
from .polytope import (
    FaceLattice,
    InvalidPolytope,
    check_nonempty_face,
    check_pair_budget,
    fibre_rows,
    polytope_hash,
)
from .stanley import NegativeGCoefficient, NonEulerianPoset, g_weight_function, h_polynomial
from .weights import all_ones, dualize, random_weight_functions

SUITES = ("all", "reciprocity", "duality", "purity", "hodge")

# Budgets on the size flags, checked before the polytope is read (exit 3
# above them): the work grows like the lattice points of the dilate, about
# vol(P) * ell^n (random3 has 162,081 at ell = 16, 1.28 million at 32),
# and the interpolants walk dilations up to ceil((n + deg phi + 1) / 2)
# whatever lmax is.  load_phi checks the integrand's degree
# (jsonio.MAX_DEGREE) as it reads it, before any sum is taken.
MAX_ELL = 16  # |charsum --l|
MAX_LMAX = 12  # verify --lmax
MAX_COUNT = 64  # verify --count, random weight functions
# Budget on the lattice points a character sum renders: charsum at |ell|,
# and the hodge suite of verify, which renders every point of ell*P over
# ell = 1 .. lmax once per weight function (2 + --count).  A rendered
# point peaks at about 1.2 KB in charsum (139 MB RSS for the 117,649
# points of cube6 at ell = 6, Python 3.11) and at about 0.5 KB in the
# hodge suite (104 MB for the 201,510 points of cube6 over lmax 5 and
# three weight functions), so the budget allows about 0.3 GB.  The points
# are counted fibre by fibre before any is made, and the count stops
# (exit 3) as soon as it passes the budget.
MAX_POINTS = 250_000


class _Parser(argparse.ArgumentParser):
    # raise instead of exiting so bad flags share the parse-error channel
    def error(self, message):
        raise FormatError(message)


@cache
def _build_parser() -> _Parser:
    """The one parser of the process, built on first use; parse_args returns a new Namespace each call."""
    parser = _Parser(prog="wehrhart", description="Command-line surface.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("polytope", help="polytope vertex JSON file")
        p.add_argument("-o", "--out", help="write output here instead of stdout")
        return p

    add("faces", "facet presentation and face lattice export")

    p = add("gweights", "g-weight function of a face")
    p.add_argument("--face", required=True, help="face id, or P for the whole polytope")

    add("hpoly", "h-polynomial (prints text)")

    p = add("dualize", "apply the duality involution to a weight file")
    p.add_argument("--weights", required=True)

    p = add("charsum", "weighted lattice-point character sum at one dilation")
    p.add_argument("--l", dest="ell", type=int, required=True)
    p.add_argument("--weights")

    p = add("ehrhart", "interpolate the dilation polynomial")
    p.add_argument("--phi", help="integrand file (default: constant 1)")
    p.add_argument("--variant", choices=(VARIANT_E, VARIANT_ETILDE), required=True)
    p.add_argument("--weights")

    p = add("verify", "run identity checks and report")
    p.add_argument("--suite", choices=SUITES, required=True)
    p.add_argument("--lmax", type=int, required=True)
    p.add_argument("--phi")
    p.add_argument("--random-weights", action="store_true")
    p.add_argument("--seed", type=int)
    p.add_argument("--count", type=int)
    return parser


def parse_args(argv) -> argparse.Namespace:
    """One CLI invocation, fully resolved from argv.

    Each command's handler reads only the flags its own subcommand defines.
    """
    spec = _build_parser().parse_args(argv)
    if spec.command == "charsum" and abs(spec.ell) > MAX_ELL:
        raise ContentError(f"--l must lie in -{MAX_ELL} .. {MAX_ELL}")
    if spec.command == "verify":
        if spec.lmax < 1:
            raise FormatError("--lmax must be a positive integer")
        # a flag the suite never reads is refused rather than dropped
        draws = spec.random_weights or spec.seed is not None or spec.count is not None
        if spec.suite == "purity" and draws:
            raise FormatError("--suite purity builds no weight set to draw --random-weights into")
        if spec.suite == "hodge" and spec.phi is not None:
            raise FormatError("--suite hodge takes no --phi: its character sums do not depend on it")
        if spec.random_weights:
            if spec.seed is None:
                raise FormatError("--random-weights requires --seed")
            if spec.count is None:
                spec.count = 5
            elif spec.count < 1:
                raise FormatError("--count must be a positive integer")
        elif spec.seed is not None or spec.count is not None:
            raise FormatError("--seed and --count need --random-weights")
        if spec.lmax > MAX_LMAX:
            raise ContentError(f"--lmax must be at most {MAX_LMAX}")
        if spec.random_weights and spec.count > MAX_COUNT:
            raise ContentError(f"--count must be at most {MAX_COUNT}")
    return spec


def _load_lattice(spec: argparse.Namespace) -> FaceLattice:
    return load_lattice(spec.polytope)


def _resolve_weights(spec: argparse.Namespace, lattice: FaceLattice):
    if spec.weights is None:
        return all_ones(lattice)
    return load_weight(spec.weights, lattice)


def _resolve_phi(spec: argparse.Namespace, lattice: FaceLattice) -> HomogPoly:
    if spec.phi is None:
        return HomogPoly.one(lattice.polytope.n)
    return load_phi(spec.phi, n_expected=lattice.polytope.n)


def _resolve_face(spec: argparse.Namespace, lattice: FaceLattice) -> int:
    if spec.face == "P":
        return lattice.top_id
    try:
        fid = face_id_from_json(spec.face)
    except FormatError:
        raise FormatError(f"--face must be an integer id or P, got {spec.face!r}")
    try:
        return check_nonempty_face(lattice, fid)
    except ValueError as exc:
        raise ContentError(str(exc)) from exc


def _check_point_budget(lattice: FaceLattice, ells, what: str, copies: int = 1) -> None:
    """Count the points of ell*P over ells, copies times each, fibre by
    fibre, until they pass MAX_POINTS.

    No walk is needed where the bounding boxes of the ell*P hold no more.
    """
    spans = [max(xs) - min(xs) for xs in zip(*lattice.polytope.vertices)]
    if copies * sum(prod(ell * s + 1 for s in spans) for ell in ells) <= MAX_POINTS:
        return
    count = 0
    for ell in ells:
        for _, row in fibre_rows(lattice, ell):
            count += copies * sum(hi - lo + 1 for _, lo, hi, *_ in row)
            if count > MAX_POINTS:
                raise ContentError(f"{what} has more than {MAX_POINTS} lattice points")


def _cmd_faces(spec, lattice):
    check_pair_budget(lattice, "the faces export")  # which lists every comparable pair
    return lattice_to_json(lattice)


def _cmd_gweights(spec, lattice):
    fid = _resolve_face(spec, lattice)
    return weight_to_json(g_weight_function(lattice, fid))


def _cmd_hpoly(spec, lattice):
    return f"{h_polynomial(lattice):t}\n"


def _cmd_dualize(spec, lattice):
    f = load_weight(spec.weights, lattice)
    return weight_to_json(dualize(f))


def _cmd_charsum(spec, lattice):
    f = _resolve_weights(spec, lattice)
    if spec.ell:
        _check_point_budget(lattice, [abs(spec.ell)], f"the character sum at --l {spec.ell}")
    return charsum_to_json(hodge_character_sum(f, spec.ell))


def _cmd_ehrhart(spec, lattice):
    f = _resolve_weights(spec, lattice)
    phi = _resolve_phi(spec, lattice)
    zp = ehrhart_polynomial(f, phi, spec.variant)
    payload = {
        "polytope_hash": polytope_hash(lattice.polytope),
        "variant": spec.variant,
        "degree_bound": lattice.polytope.n + phi.degree,
        "degree": zp.degree,
        **zpoly_to_json(zp),
        # zp(0), the z^0 coefficient, is the closed form: every face's fit passes
        # through its sample at 0, or ehrhart_polynomial raised PolynomialityError (exit 1)
        "constant_term": laurent_to_json(zp.coeffs[0] if zp.coeffs else L_ZERO),
        "constant_term_check": True,
    }
    return dumps(payload)


def _verify_weight_set(spec: argparse.Namespace, lattice: FaceLattice):
    named = [
        ("all-ones", all_ones(lattice)),
        ("g-weights(P)", g_weight_function(lattice, lattice.top_id)),
    ]
    if spec.random_weights:
        draws = random_weight_functions(lattice, spec.seed, spec.count)
        named += [(f"random[seed={spec.seed}]#{i}", w) for i, w in enumerate(draws)]
    return named


def _run_verify(spec: argparse.Namespace, lattice: FaceLattice):
    """One (suite, weight label, integrand label, [CheckResult]) tuple per report."""
    phi = _resolve_phi(spec, lattice)
    phi_label = str(phi)
    ells = range(1, spec.lmax + 1)
    # purity reads no weight set; where one is built, its g-weights(P) serves purity at P too
    weight_set = [] if spec.suite == "purity" else _verify_weight_set(spec, lattice)
    if spec.suite in ("all", "hodge"):
        what = f"the hodge suite up to --lmax {spec.lmax} over {len(weight_set)} weight functions"
        _check_point_budget(lattice, ells, what, copies=len(weight_set))
    reports = []
    # each weight keeps its dual, so the duality and hodge suites share one; each
    # (suite, weight) is checked once over the run, for Etilde, and its E report is e_form's
    suites = ((verify_reciprocity, "reciprocity"), (verify_duality_reciprocity, "duality"))
    for checker, suite_name in suites:
        if spec.suite in ("all", suite_name):
            for label, f in weight_set:
                checks = checker(f, phi, ells, VARIANT_ETILDE)
                reports.append((suite_name, label, phi_label, checks))
                reports.append((suite_name, label, phi_label, [e_form(c, phi) for c in checks]))
    if spec.suite in ("all", "purity"):
        # one face's g-weights are alive at a time, freed before the next face's are built; a memo
        # would keep every face's and their orbit coefficients (about 5.7 MB on the 6-cube's 730
        # faces under tracemalloc, Python 3.11)
        built = {lattice.top_id: f for label, f in weight_set if label == "g-weights(P)"}
        for fid in lattice.nonempty_ids:
            f = built[fid] if fid in built else g_weight_function(lattice, fid)
            checks = verify_purity(f, fid, phi, ells)
            del f
            reports.append(("purity", f"g-weights(face {fid})", phi_label, checks))
    if spec.suite in ("all", "hodge"):
        for label, f in weight_set:
            reports.append(("hodge", label, "-", verify_hodge_duality(f, ells)))
    return reports


def _cmd_verify(spec, lattice):
    text, failed = verify_to_json(lattice, _run_verify(spec, lattice))
    return text, 1 if failed else 0


_COMMANDS = {
    "faces": _cmd_faces,
    "gweights": _cmd_gweights,
    "hpoly": _cmd_hpoly,
    "dualize": _cmd_dualize,
    "charsum": _cmd_charsum,
    "ehrhart": _cmd_ehrhart,
    "verify": _cmd_verify,
}


def run(spec: argparse.Namespace, stdout=None) -> int:
    stdout = stdout if stdout is not None else sys.stdout
    lattice = _load_lattice(spec)
    result = _COMMANDS[spec.command](spec, lattice)
    text, code = result if isinstance(result, tuple) else (result, 0)
    if spec.out is not None:
        # opened only now, so a failed run leaves an existing file as it was
        try:
            with open(spec.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise FormatError(f"cannot write {spec.out}: {exc}") from exc
    else:
        stdout.write(text)
    return code


def main(argv=None) -> int:
    try:
        spec = parse_args(argv if argv is not None else sys.argv[1:])
        return run(spec)
    except FormatError as exc:
        print(f"error: parse: {exc}", file=sys.stderr)
        return 2
    except (ContentError, InvalidPolytope) as exc:
        print(f"error: validation: {exc}", file=sys.stderr)
        return 3
    except (PolynomialityError, NonEulerianPoset, NegativeGCoefficient) as exc:
        # the library's own arithmetic disagreed with a theorem: a bug, not bad input
        print(f"error: check: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
