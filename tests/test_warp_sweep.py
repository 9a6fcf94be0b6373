"""How strong the runtime checks are: which wrong walks ehrhart_polynomial lets through.

A case adds a warp w(ell) to one nonempty face's walked sums at every
ell > 0, through ehrhart._phi_face_sums as
TestEhrhartPolynomial.raises_on_warped_face does, and interpolates the
all-ones weights with mixed_phi(n, d), d = 0, 1, 2.  The warps are ell^j,
j = 0 .. 6, and the rising products ell (ell+1) .. (ell+j-1), j = 2 .. 4;
the faces are every nonempty face of the polytopes below, 3,030 cases.
A case is caught when PolynomialityError is raised, and escapes when the
ZPoly returned differs, by ==, from the unwarped one; a case that returns
the unwarped ZPoly fails the sweep, as no warp here is harmless.

ESCAPES is the exact set of (polytope, deg phi, face id, warp) escapes.  A
change that weakens the checks adds to it and fails here; a change that
catches more removes entries from it, and names them where it is recorded.
Of the 41, 22 warp the top face P and move only its middle coefficients,
and 19 add ell (ell+1) (ell+2) (ell+3), at deg phi = 2, to an edge or a
2-face and move its leading coefficient.  The sweep takes under a second.
"""

from math import prod

from test_ehrhart import mixed_phi
from wehrhart import ehrhart as eh
from wehrhart.corpus import build
from wehrhart.ehrhart import PolynomialityError
from wehrhart.weights import all_ones

WARPS = {f"ell^{j}": (lambda ell, j=j: ell**j) for j in range(7)}
WARPS |= {f"rising {j}": (lambda ell, j=j: prod(range(ell, ell + j))) for j in (2, 3, 4)}

POLYTOPES = ("square", "cube", "pyramid", "random3", "simplex3")

# (polytope, deg phi, face id, warp)
ESCAPES = {
    ("square", 1, 9, "ell^1"),
    ("square", 2, 9, "ell^2"),
    ("cube", 0, 27, "ell^1"),
    ("cube", 1, 27, "ell^2"),
    ("cube", 2, 9, "rising 4"),
    ("cube", 2, 10, "rising 4"),
    ("cube", 2, 11, "rising 4"),
    ("cube", 2, 21, "rising 4"),
    ("cube", 2, 22, "rising 4"),
    ("cube", 2, 23, "rising 4"),
    ("cube", 2, 27, "ell^1"),
    ("cube", 2, 27, "ell^3"),
    ("cube", 2, 27, "rising 4"),
    ("pyramid", 0, 19, "ell^1"),
    ("pyramid", 1, 19, "ell^2"),
    ("pyramid", 2, 6, "rising 4"),
    ("pyramid", 2, 7, "rising 4"),
    ("pyramid", 2, 8, "rising 4"),
    ("pyramid", 2, 14, "rising 4"),
    ("pyramid", 2, 15, "rising 4"),
    ("pyramid", 2, 16, "rising 4"),
    ("pyramid", 2, 19, "ell^1"),
    ("pyramid", 2, 19, "ell^3"),
    ("pyramid", 2, 19, "rising 4"),
    ("random3", 0, 31, "ell^1"),
    ("random3", 1, 31, "ell^2"),
    ("random3", 2, 18, "rising 4"),
    ("random3", 2, 31, "ell^1"),
    ("random3", 2, 31, "ell^3"),
    ("random3", 2, 31, "rising 4"),
    ("simplex3", 0, 15, "ell^1"),
    ("simplex3", 1, 15, "ell^2"),
    ("simplex3", 2, 5, "rising 4"),
    ("simplex3", 2, 6, "rising 4"),
    ("simplex3", 2, 7, "rising 4"),
    ("simplex3", 2, 11, "rising 4"),
    ("simplex3", 2, 12, "rising 4"),
    ("simplex3", 2, 13, "rising 4"),
    ("simplex3", 2, 15, "ell^1"),
    ("simplex3", 2, 15, "ell^3"),
    ("simplex3", 2, 15, "rising 4"),
}


def escapes(monkeypatch, name):
    """The (name, deg phi, face, warp) cases on polytope name that return a wrong ZPoly."""
    lattice = build(name)
    ones = all_ones(lattice)
    real = eh._phi_face_sums
    case = {}  # the face and warp of the case running

    def warped(lattice, phi, ell):
        sums = real(lattice, phi, ell)
        if ell < 0:
            return sums
        q = case["face"]
        return {**sums, q: sums[q] + case["warp"](ell)}

    found = set()
    for degree in (0, 1, 2):
        phi = mixed_phi(lattice.polytope.n, degree)
        want = eh.ehrhart_polynomial(ones, phi, "E")
        monkeypatch.setattr(eh, "_phi_face_sums", warped)
        for q in lattice.nonempty_ids:
            for label, warp in WARPS.items():
                case.update(face=q, warp=warp)
                # the interpolants are memoized under phi; the unwarped walk, under (phi, ell), is reused
                lattice._memo.pop(phi, None)
                try:
                    got = eh.ehrhart_polynomial(ones, phi, "E")
                except PolynomialityError:
                    continue
                assert got != want, (name, degree, q, label)
                found.add((name, degree, q, label))
        monkeypatch.setattr(eh, "_phi_face_sums", real)
        lattice._memo.pop(phi, None)
    return found


def test_the_escapes_are_exactly_the_recorded_ones(monkeypatch):
    found = set().union(*(escapes(monkeypatch, name) for name in POLYTOPES))
    assert found == ESCAPES, (sorted(found - ESCAPES), sorted(ESCAPES - found))

