"""JSON formats for every value that crosses the process boundary.

Polytopes, weight functions (guarded by a polytope content hash) and
integrands are read, and a key repeated within one object is refused;
face lattice exports, weight functions, character sums, z-polynomials
and the verify report are written.  The report's layout lives here
alone: verify_to_json writes its entries as one RawJSON, each check
straight from its CheckResult fields (_check_text) with no dict built
per check.  A character-sum side is read off one character order per
(lattice, ell) (OrbitSum.characters, which OrbitSum.terms also reads)
and one string per face coefficient of each coefficient map, both built
once per report and dropped when it is written; so is the text of each
side object and of each distinct params dict.  All orderings are
canonical so identical inputs give identical bytes.

dumps writes the bytes of json.dumps(obj, indent=2) without the pure-
Python encoder that indent selects: dicts with str keys, lists, str
(through json's C escaper), exact int, bool and None; anything else, a
float among them, raises TypeError.  A list of exact ints is written
from its repr.  A RawJSON is text already rendered and is spliced as it
stands, and any other nonempty list met again at the same indent is
copied from its first rendering, so an exporter that shares one value
among many places (a face's coefficient among its points, one weight
among many faces) has it rendered once.

FormatError means the bytes do not parse into the schema (CLI exit 2);
ContentError means they parse but fail semantic validation (exit 3).

Every number a command prints must stay within Python's 4,300-digit
limit on int-to-str conversion, so the digits read are bounded: any one
integer read (a JSON integer, either part of a rational, a face id) has
at most MAX_DIGITS digits (else FormatError); a coordinate of an
n-polytope has at most 2 * MAX_DIGITS // (n + MAX_DEGREE) digits, as a
count carries coordinates to the power n + deg phi; and an integrand, or
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
from .ehrhart import CheckResult, OrbitSum
from .polytope import FaceLattice, LatticePolytope, facet_presentation, mask_ids, polytope_hash
from .weights import WeightFunction


# the most digits of an integer read; see the module docstring for the others
MAX_DIGITS = 1000
MAX_DEGREE = 12  # deg phi of ehrhart/verify --phi
_DIGIT_LIMIT = 10**MAX_DIGITS


class FormatError(ValueError):
    pass


class ContentError(ValueError):
    pass


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


def _load_json(path):
    try:
        with open(path, encoding="utf-8") as fh:  # JSON text is UTF-8 (RFC 8259)
            return json.load(fh, parse_int=_parse_int, object_pairs_hook=_object)
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
        raise FormatError(f"{path} is not valid JSON: {exc}") from exc


def load_polytope(path) -> LatticePolytope:
    """{"vertices": [[int, ...], ...]}; dimension inferred from the vectors."""
    data = _load_json(path)
    if not isinstance(data, dict) or set(data) != {"vertices"}:
        raise FormatError(f"{path}: expected an object with the one key 'vertices'")
    verts = data["vertices"]
    if not isinstance(verts, list) or not verts:
        raise FormatError(f"{path}: 'vertices' must be a nonempty list")
    for v in verts:
        if not isinstance(v, list) or not all(_is_int(x) for x in v):
            raise FormatError(f"{path}: vertex {v!r} is not a list of integers")
        if len(v) != len(verts[0]):
            raise FormatError(f"{path}: vertices of mixed dimension")
    digits = 2 * MAX_DIGITS // (len(verts[0]) + MAX_DEGREE)
    bound = 10**digits
    if any(abs(x) >= bound for v in verts for x in v):
        raise ContentError(
            f"{path}: a coordinate has more than {digits} digits, "
            f"the most read in dimension {len(verts[0])}"
        )
    return facet_presentation(verts)


class RawJSON:
    """Indent-2 JSON text rendered at indent 0, which dumps splices at any depth.

    Not a str: any encoder other than dumps refuses it with TypeError
    instead of writing the text as one quoted string.
    """

    __slots__ = ("text",)

    def __init__(self, text: str):
        self.text = text


def _int_list(xs: list, pad: str) -> str:
    """The indent-2 JSON of a list of exact ints, nested at indent pad, from its repr."""
    if not xs:
        return "[]"
    inner = "\n" + pad + "  "
    return "[" + inner + repr(xs)[1:-1].replace(", ", "," + inner) + "\n" + pad + "]"


def _list_text(items: list, pad: str) -> str:
    """A list, nested at indent pad, of entries already rendered at indent
    pad + 2, joined once: the whole is copied only into the result."""
    if not items:
        return "[]"
    pieces = [",\n"] * (2 * len(items) + 1)
    pieces[0], pieces[1::2], pieces[-1] = "[\n", items, "\n" + pad + "]"
    return "".join(pieces)


def lattice_to_json(lattice: FaceLattice):
    """Facets, f-vector, faces with tight sets, and the strict order pairs.

    The faces and the order pairs, most of the export, are RawJSON
    written straight from the Face masks and the up masks, so the result
    is written with dumps; json.dumps refuses it.
    """
    P = lattice.polytope
    faces = [
        f'  {{\n    "id": {q},\n    "dim": {f.dim},\n'
        f'    "vertices": {_int_list(mask_ids(f.vertex_mask), "    ")},\n'
        f'    "tight_facets": {_int_list(mask_ids(f.tight_mask), "    ")}\n  }}'
        for q, f in enumerate(lattice.faces)
    ]
    # the pair [a, b] is one head per a and one tail per b; read off the
    # up masks in (a, b) order, so the pairs come sorted
    tails = [f"{b}\n  ]" for b in range(len(lattice.faces))]
    order = []
    for a, up in enumerate(lattice.up):
        if above := mask_ids(up & ~(1 << a)):
            head = f"  [\n    {a},\n    "
            order.append(head + (",\n" + head).join(map(tails.__getitem__, above)))
    return {
        "n": P.n,
        "polytope_hash": polytope_hash(P),
        "facets": [{"u": list(u), "a": a} for u, a in P.facets],
        "f_vector": list(lattice.f_vector),
        "faces": RawJSON(_list_text(faces, "")),
        "order": RawJSON(_list_text(order, "")),
    }


def weight_to_json(f: WeightFunction):
    # one JSON value per distinct polynomial, so that dumps renders each once
    as_json = cache(laurent_to_json)
    return {
        "polytope_hash": polytope_hash(f.lattice.polytope),
        "values": {str(fid): as_json(p) for fid, p in f.values.items()},
    }


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
    return weight_from_json(_load_json(path), lattice)


def load_phi(path, n_expected=None) -> HomogPoly:
    """{"n": d, "monomials": [{"exps": [...], "coeff": "p/q"}]}.

    Homogeneity and the dimension match are semantic checks (ContentError).
    """
    data = _load_json(path)
    if not isinstance(data, dict) or set(data) != {"n", "monomials"}:
        raise FormatError(f"{path}: expected 'n' and 'monomials'")
    if not _is_int(data["n"]) or not isinstance(data["monomials"], list):
        raise FormatError(f"{path}: bad field types")
    monomials = []
    for item in data["monomials"]:
        if not isinstance(item, dict) or set(item) != {"exps", "coeff"}:
            raise FormatError(f"{path}: bad monomial {item!r}")
        exps = item["exps"]
        if not isinstance(exps, list) or not all(_is_int(e) for e in exps):
            raise FormatError(f"{path}: exponents must be integers")
        monomials.append((tuple(exps), _rat_parse(item["coeff"])))
    _check_common_denominator([c for _, c in monomials], f"{path}: the integrand's coefficients")
    try:
        phi = HomogPoly(data["n"], monomials)
    except ValueError as exc:
        raise ContentError(f"{path}: {exc}") from exc
    if n_expected is not None and phi.n != n_expected:
        raise ContentError(
            f"{path}: integrand lives in dimension {phi.n}, polytope in {n_expected}"
        )
    return phi


def charsum_to_json(s: OrbitSum):
    """{"terms": [{"m": [int, ...], "coeff": Laurent}, ...]} in sorted character order."""
    return {"terms": [{"m": list(m), "coeff": c} for m, c in s.terms(laurent_to_json)]}


def zpoly_to_json(zp: ZPoly):
    return {"coeffs": [laurent_to_json(c) for c in zp.coeffs]}


_ATOMS = {None: "null", True: "true", False: "false"}


def _str_object(d: dict, pad: str) -> str:
    """The indent-2 JSON of {k: str(v) for k, v in d.items()}, nested at indent pad."""
    if not d:
        return "{}"
    inner = ",\n" + pad + "  "
    pairs = inner.join(f"{_quote(k)}: {_quote(str(v))}" for k, v in d.items())
    return "{" + inner[1:] + pairs + "\n" + pad + "}"


def _check_text(check: CheckResult, side, params) -> str:
    """One check at its place in the report, from its fields: name, params,
    verdict and sides, side(value) and params(dict) giving their JSON
    strings, and on failure its first_difference.  Equal sides render
    alike, so a passed check renders its value once."""
    lhs = side(check.lhs)
    rhs = lhs if check.passed else side(check.rhs)
    text = (
        f'      {{\n        "name": {_quote(check.name)},\n'
        f'        "params": {params(check.params)},\n'
        f'        "passed": {_ATOMS[check.passed]},\n'
        f'        "lhs": {lhs},\n'
        f'        "rhs": {rhs}'
    )
    if check.difference is not None:
        text += f',\n        "first_difference": {_str_object(check.difference, "        ")}'
    return text + "\n      }"


def verify_to_json(lattice: FaceLattice, reports):
    """The verify report on lattice's polytope, from (suite, weight label,
    integrand label, [CheckResult]) tuples: one entry per tuple, then the
    number of checks, the number failed, and passed when none failed.
    The entries are one RawJSON, so the result is written with dumps.  A
    side is str(value), or an OrbitSum's terms "{chi^[m]: coefficient; ...}".
    Checks share side objects (a passed check's two sides, an E check's
    Etilde sides at deg phi = 0) and repeat params, so each side object and
    each distinct params dict is rendered once per report."""
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
            objects[key] = _str_object(d, "        ")
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
    entries, total, failed = [], 0, 0
    for suite, weight, phi, checks in reports:
        misses = sum(not c.passed for c in checks)
        listed = _list_text([_check_text(c, side, params) for c in checks], "    ")
        entries.append(
            f'  {{\n    "polytope": {phash},\n    "weight": {_quote(weight)},\n'
            f'    "phi": {_quote(phi)},\n    "passed": {_ATOMS[not misses]},\n'
            f'    "checks": {listed},\n    "suite": {_quote(suite)}\n  }}'
        )
        total += len(checks)
        failed += misses
    entries = RawJSON(_list_text(entries, ""))
    return {"reports": entries, "checks": total, "failed": failed, "passed": not failed}


def _write(obj, pad: str, out: list, seen: dict) -> None:
    """Append the indent-2 JSON of obj, nested at indent pad, to out.

    seen maps (id, pad) of each nonempty list written through the general
    branch to the span of out it took, or to that span's text once the
    list is met again: a repeat is one copied piece.  Only lists are
    memoized: every value the exporters share is a list (a coefficient,
    a weight), and a memo entry per dict (a point's term) would cost
    every export that shares none.
    """
    kind = type(obj)
    if kind is str:
        out.append(_quote(obj))
    elif kind is int or (kind is list or kind is dict) and not obj:
        out.append(repr(obj))  # an int, [] or {}
    elif kind is bool or obj is None:
        out.append(_ATOMS[obj])
    elif kind is RawJSON:
        out.append(obj.text.replace("\n", "\n" + pad) if pad else obj.text)
    elif kind is not list and kind is not dict:
        raise TypeError(f"{kind.__name__} is not written as JSON")
    elif kind is list and set(map(type, obj)) == {int}:
        out.append(_int_list(obj, pad))
    elif kind is list and (key := (id(obj), pad)) in seen:
        span = seen[key]
        if type(span) is not str:
            span = seen[key] = "".join(out[span])
        out.append(span)
    else:
        inner = pad + "  "
        sep = ",\n" + inner
        if kind is dict:
            out.append("{\n" + inner)
            for k, value in obj.items():
                if type(k) is not str:
                    raise TypeError(f"JSON object keys must be str, got {type(k).__name__}")
                out += _quote(k), ": "
                _write(value, inner, out, seen)
                out.append(sep)
            out[-1] = "\n" + pad + "}"
        else:
            start = len(out)
            out.append("[\n" + inner)
            for item in obj:
                _write(item, inner, out, seen)
                out.append(sep)
            out[-1] = "\n" + pad + "]"
            # ids stay unique while the caller holds the whole tree
            seen[key] = slice(start, len(out))


def dumps(obj) -> str:
    out = []
    _write(obj, "", out, {})
    out.append("\n")
    return "".join(out)
