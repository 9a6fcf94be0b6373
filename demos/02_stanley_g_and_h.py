"""Stanley's f/g recursion on reversed face-lattice intervals.

The g-polynomial of the interval above a face measures how far the
polytope is from simple there; the h-polynomial of the whole reversed
lattice is palindromic (master duality).
"""

from wehrhart import (
    LaurentPoly,
    build,
    h_polynomial,
    names,
    polar_g,
    substitute_inverse,
)

for name in names():
    lattice = build(name)
    n = lattice.polytope.n
    h = h_polynomial(lattice)
    # simple: every vertex lies on exactly n facets
    vertices = (f for f in lattice.faces if f.dim == 0)
    simple = "simple" if all(f.tight_mask.bit_count() == n for f in vertices) else "not simple"
    print(f"h({name}) = {h:t}   [{simple}]")
    if h != substitute_inverse(h) * LaurentPoly({n: 1}):  # not an assert: python -O keeps it
        raise SystemExit("master duality must hold")

print()
print("the square pyramid is the smallest non-simple example:")
pyr = build("pyramid")
apex = pyr.vertex_face_id(pyr.polytope.vertices.index((0, 0, 1)))
for fid in pyr.nonempty_ids:
    g = polar_g(pyr, fid, pyr.top_id)
    if g != polar_g(pyr, pyr.top_id, pyr.top_id):
        face = pyr.faces[fid]
        print(f"  face {fid} (dim {face.dim}) has g = {g:t}")
print(f"  (face {apex} is the apex, the vertex sitting on 4 facets)")
