"""Brute-force face lattice, the oracle for build_face_lattice.

The library closes one side of the vertex-facet incidence under
intersection in one pass down the closure, grading each set as it goes:
facet vertex sets, or, with fewer vertices than facets, vertex facet
sets (the polar polytope's lattice, graded upside down), since the pass
meets every face with every row.  This helper, always on the vertex
side, takes every distinct intersection of facet vertex sets by
repeating full rounds of "intersect every set with every facet" until
nothing new appears, grades each by the Fraction rank of its vertices'
affine hull (hull_oracle), and reads the order off vertex set inclusion
pair by pair: the slow and obvious route the library must agree with.
Two Eulerian checks sit beside it, the obvious routes the library's tiled
transpose and parity shortcut must agree with: a pairwise loop that tests
the transpose bit of every comparable pair and balances every interval,
and a triple loop that counts ranks one element at a time.
"""

from hull_oracle import _affine_rank
from wehrhart.polytope import mask_ids


def oracle_faces(P):
    """(dim, sorted vertex ids, sorted tight facet ids) per face, in the
    library's order: by dim, then by vertex list."""
    facet_sets = [
        frozenset(i for i, v in enumerate(P.vertices) if sum(x * y for x, y in zip(u, v)) == -a)
        for u, a in P.facets
    ]
    sets = {frozenset(range(len(P.vertices)))}
    while True:
        grown = sets | {s & F for s in sets for F in facet_sets}
        if grown == sets:
            break
        sets = grown
    faces = [
        (
            _affine_rank([P.vertices[i] for i in s]),
            sorted(s),
            [F for F, facet in enumerate(facet_sets) if s <= facet],
        )
        for s in sets
    ]
    return sorted(faces, key=lambda face: face[:2])


def oracle_order(faces):
    """up and down bitmasks over face ids: a <= b iff a's vertices lie in b's."""
    vertex_sets = [set(vertices) for _, vertices, _ in faces]
    ids = range(len(faces))
    up = [sum(1 << b for b in ids if vertex_sets[a] <= vertex_sets[b]) for a in ids]
    down = [sum(1 << a for a in ids if vertex_sets[a] <= vertex_sets[b]) for b in ids]
    return up, down


def pairwise_eulerian_check(up, down, even):
    """Every comparable pair (i, j) has bit i in down[j], down holds as many
    bits as up, and every nontrivial interval up[i] & down[j] balances."""
    if sum(map(int.bit_count, up)) != sum(map(int.bit_count, down)):
        return False
    for i, above in enumerate(up):
        bit = 1 << i
        for j in mask_ids(above):
            if not down[j] & bit:
                return False
            interval = above & down[j]
            if j != i and 2 * (interval & even).bit_count() != interval.bit_count():
                return False
    return True


def triple_eulerian_check(elements, leq, rank):
    """Count the ranks of every interval one element at a time."""
    elements = list(elements)
    for a in elements:
        for b in elements:
            if a == b or not leq(a, b):
                continue
            ranks = [rank(e) % 2 for e in elements if leq(a, e) and leq(e, b)]
            if ranks.count(0) != ranks.count(1):
                return False
    return True
