"""Seeded inputs and job lists for the three benchmark workloads.

generate(workload, seed) returns the input files (name -> JSON value) and
the jobs, each a wehrhart CLI argv over those file names.  The same seed
gives the same files and jobs.  Each random polytope is the draw, of a
few, nearest a fixed size class (face, facet and lattice-point counts), so
that the work in one job, and so the workload's figures, depend little on
the seed.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from dataclasses import dataclass

import geometry

DEFAULT_SEED = 1
WORKLOADS = ("verify_corpus", "ehrhart_points", "lattice_build")
# Calibrated seconds one pass of each job list takes, roughly, on the
# sources the baseline was taken on.  A run's number of whole passes follows from
# --seconds and these constants alone, so every run with the same
# --seconds times the same jobs, however fast the code under test is.
PASS_S = {"verify_corpus": 14.0, "ehrhart_points": 23.0, "lattice_build": 11.0}


@dataclass(frozen=True)
class Job:
    name: str
    argv: tuple  # CLI argv; file arguments are names inside the input directory
    polytope: str
    phi: str | None = None


def _simplex(n):
    return [[0] * n] + [[int(i == j) for j in range(n)] for i in range(n)]


def _cross(n):
    return [[s * int(i == j) for j in range(n)] for i in range(n) for s in (1, -1)]


def _cube(n):
    return [list(v) for v in itertools.product((0, 1), repeat=n)]


def _random3_fixture():
    rng = random.Random(7)
    return [[rng.randint(-3, 3) for _ in range(3)] for _ in range(10)]


# The nine polytopes of the wehrhart corpus, written out independently.
CORPUS = {
    "segment": [[0], [1]],
    "square": _cube(2),
    "cube": _cube(3),
    "simplex1": _simplex(1),
    "simplex2": _simplex(2),
    "simplex3": _simplex(3),
    "simplex4": _simplex(4),
    "pyramid": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0], [0, 0, 1]],
    "random3": _random3_fixture(),
}


def _size(distinct, facets, measure):
    if measure == "faces":
        return len(geometry.face_sets(distinct, facets))
    if measure == "facets":
        return len(facets)
    verts = geometry.vertices(distinct, facets)  # lattice points of P or of 2P
    ell = {"points": 1, "points2": 2}[measure]
    return sum(1 for _ in geometry.lattice_points(verts, facets, ell))


def _draw(rng, n, draws, radius, full_box=False, tries=4, **targets):
    """The random cloud of distinct points, of `tries` draws, whose hull is
    nearest a size class.

    targets gives the size class: a face count (faces), a facet count
    (facets) and a count of the lattice points of P (points) or of 2P
    (points2, which follows the volume more closely).  full_box
    keeps only clouds that span [-radius, radius] in every coordinate,
    which fixes the volume of the bounding box that point enumeration
    scans.  This search is the benchmark's own work and runs before
    set-up is timed.
    """
    best = None
    while tries:
        k = rng.randint(*draws)
        pts = [[rng.randint(-radius, radius) for _ in range(n)] for _ in range(k)]
        if full_box and any(min(c) != -radius or max(c) != radius for c in zip(*pts)):
            continue
        distinct = sorted(set(map(tuple, pts)))
        # facet fitting tries every n-subset, so its cost depends on k
        if len(distinct) < k or geometry.affine_rank(distinct) != n:
            continue
        tries -= 1
        facets = geometry.hull_facets(distinct)
        miss = sum(abs(_size(distinct, facets, m) - t) / t for m, t in targets.items())
        if best is None or miss < best[0]:
            best = (miss, pts)
    return best[1]


def _phi(rng, n, degree):
    """Seeded homogeneous integrand: n monomials of the degree, each with a
    coefficient in 1..3; a fixed number of terms keeps its cost fixed."""
    exps = [e for e in itertools.product(range(degree + 1), repeat=n) if sum(e) == degree]
    return {"n": n, "monomials": [
        {"exps": list(e), "coeff": str(rng.randint(1, 3))}
        for e in sorted(rng.sample(exps, n))
    ]}


def _verify_corpus(rng):
    files, jobs = {}, []
    shapes = {  # lmax, count of random weight functions
        "segment": (3, 2), "square": (3, 2), "cube": (2, 1),
        "simplex1": (3, 2), "simplex2": (3, 2), "simplex3": (3, 1),
        "simplex4": (2, 1), "pyramid": (3, 1), "random3": (2, 1),
    }
    for i in range(6):
        files[f"r3v{i}.json"] = {
            "vertices": _draw(rng, 3, (6, 9), 2, tries=40, faces=32, facets=9, points=20)
        }
        shapes[f"r3v{i}"] = ((2, 1), (3, 1), (2, 2))[i % 3]
    for name, verts in CORPUS.items():
        files[f"{name}.json"] = {"vertices": verts}
    # alternate corpus and random polytopes, so that any stretch of the
    # cycle mixes light and heavy jobs
    corpus, drawn = list(CORPUS), [f"r3v{i}" for i in range(6)]
    order = [name for pair in itertools.zip_longest(corpus, drawn) for name in pair if name]
    # weight seeds are fixed, so the seed varies only the random polytopes:
    # the number of nonzero random weights moves a job's cost a lot
    for seed, name in enumerate(order, start=11):
        lmax, count = shapes[name]
        jobs.append(Job(
            name=f"verify:{name}",
            argv=("verify", f"{name}.json", "--suite", "all", "--lmax", str(lmax),
                  "--random-weights", "--seed", str(seed), "--count", str(count)),
            polytope=f"{name}.json",
        ))
    return files, jobs


def _ehrhart_points(rng):
    files = {"cross4.json": {"vertices": _cross(4)}}
    for n in (3, 4):
        files[f"phi_lin{n}.json"] = _phi(rng, n, 1)
    files["phi_quad3.json"] = _phi(rng, 3, 2)
    # Many distinct random polytopes per cycle: a job's cost still moves
    # with the draw, and the run's figures average over all of them.
    families = [  # name, count, dim, radius, phi or None, size class
        ("r3e", 6, 3, 3, None, dict(faces=40, facets=13, points2=577)),
        # a degree-d integrand interpolates up to dilation 6 + d in 3D, so
        # these come from a smaller box, to keep jobs near a second
        ("s3e", 6, 3, 2, "phi_lin3.json", dict(faces=38, facets=12, points2=190)),
        ("q3e", 2, 3, 2, "phi_quad3.json", dict(faces=38, facets=12, points2=190)),
        ("r4e", 6, 4, 1, None, dict(faces=75, facets=14, points2=67)),
    ]
    drawn = []
    for name, count, n, radius, phi, size in families:
        draws = (10, 10) if n == 3 else (8, 10)
        family = []
        for i in range(count):
            files[f"{name}{i}.json"] = {
                "vertices": _draw(rng, n, draws, radius, full_box=True, **size)
            }
            family.append((f"{name}{i}.json", phi, ("E", "Etilde")[i % 2]))
        drawn.append(family)
    drawn.append([("cross4.json", None, "E"), ("cross4.json", "phi_lin4.json", "Etilde")])
    # take the families in turn, so that any stretch of the cycle mixes them
    specs = [s for group in itertools.zip_longest(*drawn) for s in group if s]
    jobs = []
    for poly, phi, variant in specs:
        argv = ("ehrhart", poly, "--variant", variant)
        if phi is not None:
            argv += ("--phi", phi)
        label = phi.removesuffix(".json") if phi else "phi1"
        jobs.append(Job(
            name=f"ehrhart:{poly.removesuffix('.json')}:{label}:{variant}",
            argv=argv, polytope=poly, phi=phi,
        ))
    return files, jobs


def _lattice_build(rng):
    files = {"cube4.json": {"vertices": _cube(4)}, "cross5.json": {"vertices": _cross(5)}}
    clouds = {  # name: (dim, draws, radius, faces)
        "r4l": (4, (16, 16), 3, 217),
        "r5l": (5, (13, 13), 2, 425),
        "r6l": (6, (10, 10), 1, 454),
    }
    specs = []
    for prefix, (n, draws, radius, faces) in clouds.items():
        for i in range(2):
            files[f"{prefix}{i}.json"] = {
                "vertices": _draw(rng, n, draws, radius, faces=faces)
            }
        specs += [("faces", f"{prefix}0.json"), ("hpoly", f"{prefix}1.json"),
                  ("gweights", f"{prefix}0.json")]
    specs += [("hpoly", "cube4.json"), ("gweights", "cube4.json"),
              ("faces", "cross5.json"), ("hpoly", "cross5.json")]
    order = (0, 4, 8, 9, 3, 7, 2, 11, 6, 1, 5, 10, 12)  # mix commands and dimensions
    jobs = []
    for command, poly in (specs[i] for i in order):
        argv = (command, poly) + (("--face", "P") if command == "gweights" else ())
        jobs.append(Job(
            name=f"{command}:{poly.removesuffix('.json')}",
            argv=argv, polytope=poly,
        ))
    return files, jobs


_GENERATORS = {
    "verify_corpus": _verify_corpus,
    "ehrhart_points": _ehrhart_points,
    "lattice_build": _lattice_build,
}


def generate(workload: str, seed: int):
    """(files, jobs) for one workload; deterministic in the seed."""
    rng = random.Random(f"{workload}:{seed}")
    return _GENERATORS[workload](rng)


def write_inputs(files, directory):
    os.makedirs(directory, exist_ok=True)
    for name, data in files.items():
        with open(os.path.join(directory, name), "w") as fh:
            json.dump(data, fh)
