"""JSON formats for every value that crosses the process boundary.

Polytopes, weight functions (guarded by a polytope content hash) and
integrands are read; face lattice exports, weight functions, character
sums, z-polynomials and reports are written.  All orderings are
canonical so identical inputs give identical bytes.

FormatError means the bytes do not parse into the schema (CLI exit 2);
ContentError means they parse but fail semantic validation (exit 3).
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .algebra import HomogPoly, LaurentPoly, ZPoly
from .ehrhart import OrbitSum
from .polytope import FaceLattice, LatticePolytope, facet_presentation, mask_ids, polytope_hash
from .weights import WeightFunction


class FormatError(ValueError):
    pass


class ContentError(ValueError):
    pass


def _is_int(x) -> bool:
    """A JSON integer; true and false parse to bool, a subclass of int, and are refused."""
    return isinstance(x, int) and not isinstance(x, bool)


def _rat_str(c: Fraction) -> str:
    return str(c)


def _rat_parse(s) -> Fraction:
    if not isinstance(s, str):
        raise FormatError(f"rational must be a string like 'p/q', got {s!r}")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise FormatError(f"bad rational {s!r}: {exc}") from exc


def laurent_to_json(p: LaurentPoly):
    return [{"exp": k, "coeff": _rat_str(c)} for k, c in p.terms.items()]


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


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path} is not valid JSON: {exc}") from exc


def load_polytope(path) -> LatticePolytope:
    """{"vertices": [[int, ...], ...]}; dimension inferred from the vectors."""
    data = _load_json(path)
    if not isinstance(data, dict) or "vertices" not in data:
        raise FormatError(f"{path}: expected an object with a 'vertices' key")
    verts = data["vertices"]
    if not isinstance(verts, list) or not verts:
        raise FormatError(f"{path}: 'vertices' must be a nonempty list")
    for v in verts:
        if not isinstance(v, list) or not all(_is_int(x) for x in v):
            raise FormatError(f"{path}: vertex {v!r} is not a list of integers")
        if len(v) != len(verts[0]):
            raise FormatError(f"{path}: vertices of mixed dimension")
    return facet_presentation(verts)


def lattice_to_json(lattice: FaceLattice):
    """Facets, f-vector, faces with tight sets, and the strict order pairs."""
    P = lattice.polytope
    # read off the up masks in (a, b) order, so the pairs come sorted
    order = [[a, b] for a, up in enumerate(lattice.up) for b in mask_ids(up & ~(1 << a))]
    return {
        "n": P.n,
        "polytope_hash": polytope_hash(P),
        "facets": [{"u": list(u), "a": a} for u, a in P.facets],
        "f_vector": list(lattice.f_vector),
        "faces": [
            {
                "id": f.id,
                "dim": f.dim,
                "vertices": sorted(f.vertex_set),
                "tight_facets": sorted(f.tight_facets),
            }
            for f in lattice.faces
        ],
        "order": order,
    }


def weight_to_json(f: WeightFunction):
    return {
        "polytope_hash": polytope_hash(f.lattice.polytope),
        "values": {str(fid): laurent_to_json(p) for fid, p in f.values.items()},
    }


def face_id_from_json(key: str) -> int:
    """A face id in canonical decimal ("12"; not "012", " 12" or "1_2"): one key per face."""
    if not re.fullmatch(r"0|-?[1-9][0-9]*", key):
        raise FormatError(f"face id {key!r} is not a canonical decimal integer")
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


def dumps(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"
