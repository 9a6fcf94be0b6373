"""Spans around the public functions of each wehrhart module.

install() replaces each traced function, in every wehrhart module that
imported it by name, with a wrapper that records a span (name, start,
end, parent, job, attributes); remove() puts the originals back.  Hot
leaf functions (LaurentPoly methods, phi_eval) would make millions of
spans, so they only add their call count and self time to a per-job
total, and their time to the enclosing span's leaf_s.  Self time is
computed afterwards from the records: duration minus child spans minus
leaf_s.
"""

from __future__ import annotations

import json
import sys
import weakref
from collections import defaultdict
from math import comb
from time import perf_counter

SPAN, LEAF, COUNT = "span", "leaf", "count"

# (wehrhart module, attribute path, kind); the module is the layer
TRACED = [
    ("polytope", "facet_presentation", SPAN),
    ("polytope", "build_face_lattice", SPAN),
    ("polytope", "validate_eulerian", SPAN),
    ("polytope", "points_by_face", SPAN),
    ("stanley", "h_polynomial", SPAN),
    ("stanley", "g_weight_function", SPAN),
    ("stanley", "stanley_fg", COUNT),
    ("weights", "dualize", SPAN),
    ("ehrhart", "weighted_ehrhart_value", SPAN),
    ("ehrhart", "ehrhart_polynomial", SPAN),
    ("ehrhart", "hodge_character_sum", SPAN),
    ("ehrhart", "verify_reciprocity", SPAN),
    ("ehrhart", "verify_duality_reciprocity", SPAN),
    ("ehrhart", "verify_hodge_duality", SPAN),
    ("ehrhart", "verify_purity", SPAN),
    ("algebra", "lagrange_interpolate", SPAN),
    ("algebra", "phi_eval", LEAF),
    ("jsonio", "load_polytope", SPAN),
    ("jsonio", "load_phi", SPAN),
    ("jsonio", "lattice_to_json", SPAN),
    ("jsonio", "weight_to_json", SPAN),
    ("jsonio", "dumps", SPAN),
    ("cli", "run", SPAN),
] + [
    ("algebra", f"LaurentPoly.{m}", LEAF)
    for m in ("__init__", "__add__", "__sub__", "__neg__", "__mul__", "__rmul__",
              "__pow__", "__eq__")
]
LAYERS = ("polytope", "stanley", "weights", "ehrhart", "algebra", "jsonio", "cli")
LAYER_OF = {path.split(".")[0]: module for module, path, _ in TRACED}


class _Frame:
    __slots__ = ("start", "span_child", "leaf_child")

    def __init__(self, start):
        self.start = start
        self.span_child = 0.0
        self.leaf_child = 0.0


class Tracer:
    """In-memory span store for one process; one job traced at a time."""

    def __init__(self):
        self.spans = []  # [id, name, start, end, parent id, job, leaf_s, attrs]
        self.leaves = defaultdict(lambda: [0, 0.0])  # (job, name) -> calls, self_s
        self.counts = defaultdict(int)  # (job, name) -> calls
        self.job = None
        self._stack = []  # (_Frame, span id or None)
        self._patched = []
        self._seen_ells = weakref.WeakKeyDictionary()  # lattice -> dilations seen

    # -- wrappers -----------------------------------------------------------

    def _span(self, name, fn):
        stack, spans = self._stack, self.spans
        annotate = _ANNOTATE.get(name)

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            sid = len(spans)
            spans.append(None)  # reserve the id so children can name it
            frame = _Frame(perf_counter())
            stack.append((frame, sid))
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if parent is not None:
                    parent[0].span_child += end - frame.start
                spans[sid] = [sid, name, frame.start, end,
                              parent[1] if parent else None, self.job,
                              frame.leaf_child, None]
            if annotate is not None:
                spans[sid][7] = annotate(self, args, result)
            return result

        return wrapper

    def _leaf(self, name, fn):
        stack, leaves = self._stack, self.leaves

        def wrapper(*args, **kwargs):
            frame = _Frame(perf_counter())
            stack.append((frame, None))
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - frame.start
                stack.pop()
                agg = leaves[(self.job, name)]
                agg[0] += 1
                agg[1] += elapsed - frame.span_child - frame.leaf_child
                if stack:
                    stack[-1][0].leaf_child += elapsed

        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[(self.job, name)] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching -----------------------------------------------------------

    def install(self):
        """Wrap every traced function in every wehrhart module that holds it."""
        modules = [m for n, m in sys.modules.items() if n.startswith("wehrhart")]
        make = {SPAN: self._span, LEAF: self._leaf, COUNT: self._count}
        for module, path, kind in TRACED:
            owner = sys.modules[f"wehrhart.{module}"]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[attr]
                self._patched.append((cls, attr, original))
                setattr(cls, attr, make[kind](path, original))
                continue
            original = getattr(owner, path)
            wrapper = make[kind](path, original)
            for mod in modules:
                if getattr(mod, path, None) is original:
                    self._patched.append((mod, path, original))
                    setattr(mod, path, wrapper)

    def remove(self):
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched.clear()

    def write(self, path):
        """Spans, then per-job leaf and count totals, one JSON object a line."""
        with open(path, "w") as fh:
            for sid, name, start, end, parent, job, leaf_s, attrs in self.spans:
                fh.write(json.dumps({
                    "id": sid, "name": name, "start": start, "end": end,
                    "parent": parent, "job": job, "leaf_s": leaf_s,
                    "attrs": attrs,
                }) + "\n")
            for (job, name), (calls, self_s) in self.leaves.items():
                fh.write(json.dumps({"leaf": name, "job": job, "calls": calls,
                                     "self_s": self_s}) + "\n")
            for (job, name), calls in self.counts.items():
                fh.write(json.dumps({"count": name, "job": job, "calls": calls}) + "\n")


# -- attributes computed by the benchmark from a traced call's arguments ---


def _subsets(tracer, args, result):
    points = {tuple(p) for p in args[0]}
    n = len(next(iter(points)))
    return {"subsets": comb(len(points), n)}


def _faces(tracer, args, result):
    return {"faces": len(result.faces)}


def _points(tracer, args, result):
    lattice, ell = args[0], args[1]
    seen = tracer._seen_ells.setdefault(lattice, set())
    if ell in seen:
        return {"hit": 1}
    seen.add(ell)
    verts = lattice.polytope.vertices
    scanned = 1
    for i in range(lattice.polytope.n):
        coords = [v[i] for v in verts]
        scanned *= ell * (max(coords) - min(coords)) + 1
    return {"hit": 0, "scanned": scanned,
            "kept": sum(len(pts) for pts in result.values())}


def _bytes(tracer, args, result):
    return {"bytes": len(result)}


_ANNOTATE = {
    "facet_presentation": _subsets,
    "build_face_lattice": _faces,
    "points_by_face": _points,
    "dumps": _bytes,
}


# -- metrics from the records -----------------------------------------------


def self_times(spans):
    """Self time of each span: duration minus child spans minus leaf time."""
    child = defaultdict(float)
    for sid, name, start, end, parent, *_ in spans:
        if parent is not None:
            child[parent] += end - start
    return {
        s[0]: (s[3] - s[2]) - child[s[0]] - s[6] for s in spans
    }


def layer_metrics(tracer, factors) -> dict:
    """Per-layer metrics per traced job, from the recorded spans and totals.

    factors maps each traced job to the factor that turns its wall seconds
    into calibrated seconds (see calibration.py).
    """
    jobs = len(factors)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    attrs = defaultdict(int)
    selfs = self_times(tracer.spans)
    for s in tracer.spans:
        self_s[s[1]] += selfs[s[0]] * factors[s[5]]
        calls[s[1]] += 1
        for key, value in (s[7] or {}).items():
            attrs[f"{s[1]}.{key}"] += value
    for (job, name), (n, t) in tracer.leaves.items():
        self_s[name] += t * factors[job]
        calls[name] += n
    for (_, name), n in tracer.counts.items():
        calls[name] += n
    layer_self = defaultdict(float)
    laurent_self = 0.0
    for name, t in self_s.items():
        layer_self[LAYER_OF[name.split(".")[0]]] += t
        if name.startswith("LaurentPoly."):
            laurent_self += t
    scanned = attrs["points_by_face.scanned"]
    per_job = {
        "facet_presentation.self_s": self_s["facet_presentation"],
        "facet_presentation.subsets": attrs["facet_presentation.subsets"],
        "build_face_lattice.self_s": self_s["build_face_lattice"],
        "build_face_lattice.faces": attrs["build_face_lattice.faces"],
        "validate_eulerian.self_s": self_s["validate_eulerian"],
        "points_by_face.self_s": self_s["points_by_face"],
        "points_by_face.calls": calls["points_by_face"],
        "points_by_face.cache_hits": attrs["points_by_face.hit"],
        "points.scanned": scanned,
        "points.kept": attrs["points_by_face.kept"],
        "h_polynomial.self_s": self_s["h_polynomial"],
        "g_weight_function.self_s": self_s["g_weight_function"],
        "stanley_fg.calls": calls["stanley_fg"],
        "dualize.self_s": self_s["dualize"],
        "dualize.calls": calls["dualize"],
        "weighted_ehrhart_value.self_s": self_s["weighted_ehrhart_value"],
        "ehrhart_polynomial.self_s": self_s["ehrhart_polynomial"],
        "hodge_character_sum.self_s": self_s["hodge_character_sum"],
        "verify_reciprocity.self_s": self_s["verify_reciprocity"],
        "verify_duality_reciprocity.self_s": self_s["verify_duality_reciprocity"],
        "verify_hodge_duality.self_s": self_s["verify_hodge_duality"],
        "verify_purity.self_s": self_s["verify_purity"],
        "LaurentPoly.ops": sum(calls[f"LaurentPoly.{m}"]
                               for m in ("__add__", "__mul__", "__pow__")),
        "LaurentPoly.self_s": laurent_self,
        "lagrange_interpolate.self_s": self_s["lagrange_interpolate"],
        "phi_eval.calls": calls["phi_eval"],
        "phi_eval.self_s": self_s["phi_eval"],
        "dumps.self_s": self_s["dumps"],
        "dumps.out_bytes": attrs["dumps.bytes"],
        "run.self_s": self_s["run"],
    }
    per_job.update({f"layer.{layer}.self_s": layer_self[layer] for layer in LAYERS})
    out = {name: value / jobs for name, value in per_job.items()}
    out["points.kept_ratio"] = attrs["points_by_face.kept"] / scanned if scanned else 0.0
    return out
