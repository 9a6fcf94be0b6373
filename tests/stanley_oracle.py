"""The pairwise Stanley recursion, kept as the oracle for the library's sweep.

Stanley's f/g recursion on reversed intervals [Q, Q'] of the face
lattice, one memoized g per nested pair: f([Q, Q']) sums
g([x, Q']) * (t-1)**(dim x - dim Q - 1) over the faces x != Q of the
interval, grouped by dim x, and g truncates the difference sequence of
f's coefficients at degree floor(r/2), r = dim Q' - dim Q - 1.
Polynomials in t are LaurentPoly values.
"""

from wehrhart.algebra import L_ONE, LaurentPoly, one_plus_y_power, poly_sum, substitute_negative


def grouped_sum(pairs, kernel):
    """sum of p * kernel(k) over (k, LaurentPoly p) pairs, one kernel product per distinct k."""
    groups = {}
    for k, p in pairs:
        groups.setdefault(k, []).append(p)
    return poly_sum(poly_sum(ps) * kernel(k) for k, ps in groups.items())


def t_minus_1_power(k):
    """(t-1)**k, from the binomial row of (-1-y)**k."""
    return substitute_negative((-1) ** k * one_plus_y_power(k))


def oracle_fg(lattice, q_id, qp_id, memo):
    """(f, g) of the reversed interval [Q, Q']; memo maps (x, Q') -> g."""
    if q_id == qp_id:
        return L_ONE, L_ONE
    dim_q = lattice.faces[q_id].dim
    f = grouped_sum(
        (
            (lattice.faces[x].dim - dim_q - 1, oracle_g(lattice, x, qp_id, memo))
            for x in lattice.interval(q_id, qp_id)
            if x != q_id
        ),
        t_minus_1_power,
    )
    r = lattice.faces[qp_id].dim - dim_q - 1
    return f, LaurentPoly._make({i: f.coeff(i) - f.coeff(i - 1) for i in range(r // 2 + 1)})


def oracle_g(lattice, q_id, qp_id, memo):
    key = (q_id, qp_id)
    if key not in memo:
        memo[key] = oracle_fg(lattice, q_id, qp_id, memo)[1]
    return memo[key]


def oracle_h(lattice, memo):
    """f of the fully reversed lattice [empty, P]."""
    return oracle_fg(lattice, lattice.empty_id, lattice.top_id, memo)[0]
