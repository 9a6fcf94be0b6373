"""JSON formats for every value that crosses the process boundary.

Polytopes, weight functions (guarded by a polytope content hash) and
integrands are read, and a key repeated within one object is refused.

Every document is written as the bytes json.dumps(plain, indent=2) + "\n"
gives for its plain dict, and all orderings are canonical, so identical
inputs give identical bytes.  The four documents whose size grows with
the input (the face lattice, a weight function, a character sum and the
verify report, whose layout lives here alone) are each written as text
by their exporter: its pieces go into one list that is joined once, and
each distinct value shared among many places (a weight value, a face's
coefficient, a check side, a params dict) is rendered once, at the
indent where it lands, and placed as that one str wherever it occurs.

dumps writes the bytes of json.dumps(obj, indent=2) + "\n" for the
fixed-size documents (the z-polynomial of ehrhart) without the
pure-Python encoder that indent selects: dicts with str keys, lists, str
(through json's C escaper), exact int, bool and None; anything else, a
float among them, raises TypeError.

FormatError means an input, a file or the command line, does not parse
into its schema (CLI exit 2); ContentError means it parses but fails
semantic validation (exit 3).  _load_json, which reads every file, leads
each of its refusals with the file's path.

Every number a command prints must stay within Python's 4,300-digit
limit on int-to-str conversion, so the digits read are bounded: any one
integer read (a JSON integer, either part of a rational, a face id) has
at most MAX_DIGITS digits (else FormatError); a coordinate of an
n-polytope has at most 2 * MAX_DIGITS // (n + MAX_DEGREE) digits, as a
count carries coordinates to the power n + deg phi, and an integrand has
degree at most MAX_DEGREE; and an integrand, or
a weight file as a whole, written over the common denominator of its
coefficients has a denominator and numerators of at most MAX_DIGITS
digits, as sums over monomials or faces multiply distinct denominators
(else ContentError).  A printed numerator then has at most
2000 + 1000 + 1000 digits from the inputs, plus at most 193 from
dilations, factorials and face counts on any lattice of fewer than 2^25
faces, which every lattice held in memory is.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from fractions import Fraction
from functools import cache
from json.encoder import encode_basestring_ascii as _quote
from math import lcm

from .algebra import HomogPoly, LaurentPoly, ZPoly
from .ehrhart import OrbitSum
from .polytope import (
    FaceLattice,
    LatticePolytope,
    build_face_lattice,
    facet_presentation,
    mask_ids,
    polytope_hash,
)
from .weights import WeightFunction


# the most digits of an integer read; see the module docstring for the others
MAX_DIGITS = 1000
MAX_DEGREE = 12  # the largest deg phi an integrand file may have
_DIGIT_LIMIT = 10**MAX_DIGITS


class FormatError(ValueError):
    """An input, a file or the command line, does not parse into its schema (exit 2)."""


class ContentError(ValueError):
    """An input, a file or the command line, parses but fails validation (exit 3)."""


def _check_digits(literal: str, what: str) -> None:
    """FormatError for a decimal literal of more than MAX_DIGITS digits, before int() reads it."""
    digits = len(literal) - literal.startswith("-")
    if digits > MAX_DIGITS:
        raise FormatError(f"{what} of {digits} digits; at most {MAX_DIGITS} are read")


def _parse_int(literal: str) -> int:
    _check_digits(literal, "integer")
    return int(literal)


def _check_common_denominator(coeffs, what: str) -> None:
    """ContentError unless the rationals coeffs, over their common denominator,
    have a denominator and numerators of at most MAX_DIGITS digits."""
    d = lcm(*(c.denominator for c in coeffs))
    numerators = (abs(c.numerator) * (d // c.denominator) for c in coeffs)
    if d >= _DIGIT_LIMIT or max(numerators, default=0) >= _DIGIT_LIMIT:
        raise ContentError(
            f"{what} over their common denominator have more than {MAX_DIGITS} digits"
        )


def _is_int(x) -> bool:
    """A JSON integer; true and false parse to bool, a subclass of int, and are refused."""
    return isinstance(x, int) and not isinstance(x, bool)


def _rat_parse(s) -> Fraction:
    """A rational in the form str(Fraction) writes: "3" or "-3/4".

    Fraction's other spellings (exponents, decimals, whitespace, "+" and
    "_") are refused: an exponent alone can ask for a number too large to
    build or to print.
    """
    if not isinstance(s, str) or not re.fullmatch(r"-?[0-9]+(/[0-9]+)?", s):
        raise FormatError(f"rational must be a string like 'p/q', got {s!r}")
    for part in s.split("/"):
        _check_digits(part, "rational part")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise FormatError(f"bad rational {s!r}: {exc}") from exc


def laurent_to_json(p: LaurentPoly):
    return [{"exp": k, "coeff": str(c)} for k, c in p.terms.items()]


def laurent_from_json(data) -> LaurentPoly:
    if not isinstance(data, list):
        raise FormatError("Laurent polynomial must be a list of terms")
    terms = []
    for item in data:
        if not isinstance(item, dict) or set(item) != {"exp", "coeff"}:
            raise FormatError(f"bad Laurent term {item!r}")
        if not _is_int(item["exp"]):
            raise FormatError(f"exponent must be an integer, got {item['exp']!r}")
        terms.append((item["exp"], _rat_parse(item["coeff"])))
    return LaurentPoly(terms)


def _object(pairs) -> dict:
    """A JSON object; json keeps the last value of a repeated key, so one is refused."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        key = next(k for k, count in Counter(k for k, _ in pairs).items() if count > 1)
        raise FormatError(f"repeated key {key!r}")
    return obj


def _load_json(path, parse, *args):
    """parse(the JSON document at path, *args), each refusal led by the path;
    a ValueError of the content other than a FormatError becomes a ContentError."""
    try:
        with open(path, encoding="utf-8") as fh:  # JSON text is UTF-8 (RFC 8259)
            data = json.load(fh, parse_int=_parse_int, object_pairs_hook=_object)
        return parse(data, *args)
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise FormatError(f"{path} is not valid JSON: {exc}") from exc
    except ValueError as exc:
        raise ContentError(f"{path}: {exc}") from exc


def load_polytope(path) -> LatticePolytope:
    """{"vertices": [[int, ...], ...]}; dimension inferred from the vectors."""
    return _load_json(path, _polytope_from_json)


def load_lattice(path) -> FaceLattice:
    """The face lattice of load_polytope(path), built inside the read, so
    that the face budget and the closure check name the file too."""
    return _load_json(path, lambda data: build_face_lattice(_polytope_from_json(data)))


def _polytope_from_json(data) -> LatticePolytope:
    if not isinstance(data, dict) or set(data) != {"vertices"}:
        raise FormatError("expected an object with the one key 'vertices'")
    verts = data["vertices"]
    if not isinstance(verts, list) or not verts:
        raise FormatError("'vertices' must be a nonempty list")
    for v in verts:
        if not isinstance(v, list) or not all(_is_int(x) for x in v):
            raise FormatError(f"vertex {v!r} is not a list of integers")
        if len(v) != len(verts[0]):
            raise FormatError("vertices of mixed dimension")
    n = len(verts[0])
    digits = 2 * MAX_DIGITS // (n + MAX_DEGREE)
    bound = 10**digits
    if any(abs(x) >= bound for v in verts for x in v):
        raise ContentError(f"a coordinate has more than {digits} digits, the most read in dimension {n}")
    return facet_presentation(verts)


_ATOMS = {None: "null", True: "true", False: "false"}


def _enclose(out: list, start: int, pad: str, brackets: str = "[]") -> None:
    """Make out[start:] a JSON list nested at indent pad, or with brackets
    "{}" an object: its entries rendered at indent pad + 2, each led by a
    piece that starts with the separator ",\n" + pad + "  "."""
    if len(out) == start:
        out.append(brackets)
    else:
        out[start] = brackets[0] + out[start][1:]
        out.append("\n" + pad + brackets[1])


def _write(obj, pad: str, out: list) -> None:
    """Append the indent-2 JSON of obj, nested at indent pad, to out."""
    kind = type(obj)
    if kind is str:
        out.append(_quote(obj))
    elif kind is int:
        out.append(repr(obj))
    elif kind is bool or obj is None:
        out.append(_ATOMS[obj])
    elif kind is list or kind is dict:
        start, inner = len(out), pad + "  "
        sep = ",\n" + inner
        if kind is list:
            for item in obj:
                out.append(sep)
                _write(item, inner, out)
        else:
            for k, value in obj.items():
                if type(k) is not str:
                    raise TypeError(f"JSON object keys must be str, got {type(k).__name__}")
                out += sep, _quote(k), ": "
                _write(value, inner, out)
        _enclose(out, start, pad, "[]" if kind is list else "{}")
    else:
        raise TypeError(f"{kind.__name__} is not written as JSON")


def _text(obj, pad: str) -> str:
    """The indent-2 JSON of obj, nested at indent pad."""
    out = []
    _write(obj, pad, out)
    return "".join(out)


def dumps(obj) -> str:
    return _text(obj, "") + "\n"


def _int_list(xs, pad: str) -> str:
    """The indent-2 JSON of a sequence of exact ints, nested at indent pad."""
    if not xs:
        return "[]"
    inner = "\n" + pad + "  "
    return "[" + inner + ("," + inner).join(map(str, xs)) + "\n" + pad + "]"


def lattice_to_json(lattice: FaceLattice) -> str:
    """Facets, f-vector, faces with tight sets, and the strict order pairs:
    the faces written from the ids each Face record holds, decoded once
    when the lattice was built, the pairs from the up masks."""
    P = lattice.polytope
    out = [f'{{\n  "n": {P.n},\n  "polytope_hash": {_quote(polytope_hash(P))},\n  "facets": ']
    for u, a in P.facets:
        out.append(f',\n    {{\n      "u": {_int_list(u, "      ")},\n      "a": {a}\n    }}')
    _enclose(out, 1, "  ")
    out.append(f',\n  "f_vector": {_int_list(lattice.f_vector, "  ")},\n  "faces": ')
    start = len(out)
    for q, f in enumerate(lattice.faces):
        out.append(
            f',\n    {{\n      "id": {q},\n      "dim": {f.dim},\n'
            f'      "vertices": {_int_list(f.vertex_ids, "      ")},\n'
            f'      "tight_facets": {_int_list(f.tight_ids, "      ")}\n    }}'
        )
    _enclose(out, start, "  ")
    out.append(',\n  "order": ')
    start = len(out)
    # the pair [a, b] is one head per a and one tail per b; read off the
    # up masks in (a, b) order, so the pairs come sorted
    tails = [f"{b}\n    ]" for b in range(len(lattice.faces))]
    for a, up in enumerate(lattice.up):
        head = f",\n    [\n      {a},\n      "
        for b in mask_ids(up & ~(1 << a)):
            out += head, tails[b]
    _enclose(out, start, "  ")
    out.append("\n}\n")
    return "".join(out)


def weight_to_json(f: WeightFunction) -> str:
    """{"polytope_hash": hash, "values": {face id: Laurent, ...}}, each
    distinct polynomial rendered once."""
    value = cache(lambda p: _text(laurent_to_json(p), "    "))
    out = [f'{{\n  "polytope_hash": {_quote(polytope_hash(f.lattice.polytope))},\n  "values": ']
    for fid, p in f.values.items():
        out += f',\n    "{fid}": ', value(p)
    _enclose(out, 1, "  ", "{}")
    out.append("\n}\n")
    return "".join(out)


def face_id_from_json(key: str) -> int:
    """A face id in canonical decimal ("12"; not "012", " 12" or "1_2"): one key per face."""
    if not re.fullmatch(r"0|-?[1-9][0-9]*", key):
        raise FormatError(f"face id {key!r} is not a canonical decimal integer")
    _check_digits(key, "face id")
    return int(key)


def weight_from_json(data, lattice: FaceLattice) -> WeightFunction:
    if not isinstance(data, dict) or set(data) != {"polytope_hash", "values"}:
        raise FormatError("weight file needs 'polytope_hash' and 'values'")
    if data["polytope_hash"] != polytope_hash(lattice.polytope):
        raise ContentError("weight file was written for a different polytope")
    if not isinstance(data["values"], dict):
        raise FormatError("'values' must be an object keyed by face id")
    values = {
        face_id_from_json(key): laurent_from_json(terms)
        for key, terms in data["values"].items()
    }
    _check_common_denominator(
        [c for p in values.values() for c in p.terms.values()], "the weight file's coefficients"
    )
    try:
        return WeightFunction(lattice, values)
    except ValueError as exc:
        raise ContentError(str(exc)) from exc


def load_weight(path, lattice) -> WeightFunction:
    return _load_json(path, weight_from_json, lattice)


def load_phi(path, n_expected=None) -> HomogPoly:
    """{"n": d, "monomials": [{"exps": [...], "coeff": "p/q"}]}.

    Homogeneity, the dimension match and deg phi <= MAX_DEGREE are
    semantic checks (ContentError).
    """
    return _load_json(path, _phi_from_json, n_expected)


def _phi_from_json(data, n_expected) -> HomogPoly:
    if not isinstance(data, dict) or set(data) != {"n", "monomials"}:
        raise FormatError("expected 'n' and 'monomials'")
    if not _is_int(data["n"]) or not isinstance(data["monomials"], list):
        raise FormatError("bad field types")
    monomials = []
    for item in data["monomials"]:
        if not isinstance(item, dict) or set(item) != {"exps", "coeff"}:
            raise FormatError(f"bad monomial {item!r}")
        exps = item["exps"]
        if not isinstance(exps, list) or not all(_is_int(e) for e in exps):
            raise FormatError("exponents must be integers")
        monomials.append((tuple(exps), _rat_parse(item["coeff"])))
    _check_common_denominator([c for _, c in monomials], "the integrand's coefficients")
    phi = HomogPoly(data["n"], monomials)
    if n_expected is not None and phi.n != n_expected:
        raise ContentError(f"integrand lives in dimension {phi.n}, polytope in {n_expected}")
    if phi.degree > MAX_DEGREE:
        raise ContentError(f"the integrand's degree must be at most {MAX_DEGREE}")
    return phi


def charsum_to_json(s: OrbitSum) -> str:
    """{"terms": [{"m": [int, ...], "coeff": Laurent}, ...]} in sorted
    character order, each face's coefficient rendered once."""
    out = ['{\n  "terms": ']
    for m, coeff in s.terms(lambda c: _text(laurent_to_json(c), "      ")):
        out += f',\n    {{\n      "m": {_int_list(m, "      ")},\n      "coeff": ', coeff, "\n    }"
    _enclose(out, 1, "  ")
    out.append("\n}\n")
    return "".join(out)


def zpoly_to_json(zp: ZPoly):
    return {"coeffs": [laurent_to_json(c) for c in zp.coeffs]}


def verify_to_json(lattice: FaceLattice, reports) -> tuple[str, int]:
    """The verify report on lattice's polytope, and the number of checks
    failed, from (suite, weight label, integrand label, [CheckResult])
    tuples: one entry per tuple, each check written straight from its
    fields, then the number of checks, the number failed, and passed when
    none failed.  A side is str(value), or an OrbitSum's terms
    "{chi^[m]: coefficient; ...}".  Checks share side objects (a passed
    check's two sides, an E check's Etilde sides at deg phi = 0) and
    repeat params, so each side object and each distinct params dict is
    rendered once per report and placed as one str wherever it lands."""
    orders, texts = {}, {}  # (lattice, ell) -> [("chi^[m]: ", face)]; id(coeffs) -> {face: str}
    # id(side) -> (side, its JSON string), the side held so that its id stays
    # unique; the items of a params dict, ints and strs -> its JSON object
    sides, objects = {}, {}

    def side(v) -> str:
        held = sides.get(id(v))
        if held is None:
            text = orbit_side(v) if isinstance(v, OrbitSum) else _quote(str(v))
            held = sides[id(v)] = v, text
        return held[1]

    def params(d) -> str:
        if (key := tuple(d.items())) not in objects:
            objects[key] = _text({k: str(v) for k, v in key}, "          ")
        return objects[key]

    def orbit_side(v) -> str:
        if (key := (v.lattice, v.ell)) not in orders:
            orders[key] = [(f"chi^{list(m)}: ", e) for m, e in v.characters()]
        if (held := id(v.coeffs)) not in texts:
            texts[held] = {e: str(c) for e, c in v.coeffs.items() if c}
        coeffs = texts[held]
        inner = "; ".join([m + coeffs[e] for m, e in orders[key] if e in coeffs])
        return _quote(f"{{{inner}}}")

    phash = _quote(polytope_hash(lattice.polytope))
    out = ['{\n  "reports": ']
    total, failed = 0, 0
    for suite, weight, phi, checks in reports:
        misses = sum(not c.passed for c in checks)
        out.append(
            f',\n    {{\n      "polytope": {phash},\n      "weight": {_quote(weight)},\n'
            f'      "phi": {_quote(phi)},\n      "passed": {_ATOMS[not misses]},\n      "checks": '
        )
        start = len(out)
        for check in checks:
            lhs = side(check.lhs)
            out += (
                f',\n        {{\n          "name": {_quote(check.name)},\n'
                f'          "params": {params(check.params)},\n'
                f'          "passed": {_ATOMS[check.passed]},\n          "lhs": ',
                lhs,
                ',\n          "rhs": ',
                lhs if check.passed else side(check.rhs),  # equal sides render alike
            )
            if check.difference is not None:
                diff = {k: str(v) for k, v in check.difference.items()}
                out.append(f',\n          "first_difference": {_text(diff, "          ")}')
            out.append("\n        }")
        _enclose(out, start, "      ")
        out.append(f',\n      "suite": {_quote(suite)}\n    }}')
        total += len(checks)
        failed += misses
    _enclose(out, 1, "  ")
    out.append(
        f',\n  "checks": {total},\n  "failed": {failed},\n  "passed": {_ATOMS[not failed]}\n}}\n'
    )
    return "".join(out), failed
