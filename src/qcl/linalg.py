"""Small exact integer linear algebra: the row Hermite normal form,
congruence-condition lattices and reduction modulo an HNF basis.

Everything is deterministic (fixed pivoting order) so downstream results are
byte-reproducible. Matrices are lists of lists of Python ints; functions
return fresh lists and never mutate their arguments.
"""

from __future__ import annotations

from .errors import PreconditionError


def row_hnf(a):
    """Row-style Hermite normal form of the lattice spanned by the rows of a.

    Returns the nonzero rows h, so len(h) is the rank: h is in row echelon
    form with positive pivots and entries above each pivot reduced into
    [0, pivot).
    """
    h = [list(row) for row in a]
    m = len(h)
    n = len(h[0]) if m else 0
    piv_row = 0
    for col in range(n):
        # gcd out the column below piv_row
        while True:
            best = None
            for i in range(piv_row, m):
                if h[i][col] != 0:
                    if best is None or abs(h[i][col]) < abs(h[best][col]):
                        best = i
            if best is None:
                break
            h[piv_row], h[best] = h[best], h[piv_row]
            q0 = h[piv_row][col]
            done = True
            for i in range(piv_row + 1, m):
                if h[i][col] != 0:
                    q = h[i][col] // q0
                    for j in range(n):
                        h[i][j] -= q * h[piv_row][j]
                    if h[i][col] != 0:
                        done = False
            if done:
                break
        if piv_row < m and h[piv_row][col] != 0:
            if h[piv_row][col] < 0:
                h[piv_row] = [-x for x in h[piv_row]]
            p = h[piv_row][col]
            for i in range(piv_row):
                q = h[i][col] // p
                if q:
                    for j in range(n):
                        h[i][j] -= q * h[piv_row][j]
            piv_row += 1
            if piv_row == m:
                break
    return h[:piv_row]


def congruence_lattice(a, mod):
    """HNF basis of the full-rank lattice {v in Z^n : a @ v = 0 (mod mod)}.

    `a` is an m x n integer matrix, `mod` a positive integer. Returns an
    n x n upper-triangular matrix whose rows are a basis.

    The rows (a e_j, e_j) and (mod e_i, 0) span the augmented lattice
    {(a v + mod w, v) : v in Z^n, w in Z^m}. Its projection to the first m
    coordinates contains mod Z^m, so its HNF has m + n rows, the first m
    with pivots in the first m columns. The other n are zero there, so they
    span its intersection with 0 x Z^n, which is {(0, v) : a v = 0 mod
    mod}; their last n entries are the HNF of the answer.
    """
    if mod <= 0:
        raise PreconditionError("modulus must be positive")
    m = len(a)
    n = len(a[0]) if m else 0
    gens = [[a[i][j] for i in range(m)] + [1 if k == j else 0
                                           for k in range(n)]
            for j in range(n)]
    gens += [[mod if k == i else 0 for k in range(m + n)] for i in range(m)]
    return [row[m:] for row in row_hnf(gens)[m:]]


def hnf_determinant(h):
    """Index [Z^n : lattice] for an upper-triangular HNF basis."""
    d = 1
    for i in range(len(h)):
        d *= h[i][i]
    return d


def reduce_mod_hnf(v, h):
    """Canonical representative of v modulo the lattice spanned by the rows
    of the upper-triangular HNF basis h (entries land in [0, h[i][i]) after
    back-substitution)."""
    n = len(h)
    v = list(v)
    # rows are upper triangular, so fixing coordinates left to right leaves
    # the already-reduced ones untouched
    for i in range(n):
        q = v[i] // h[i][i]
        if q:
            for j in range(i, n):
                v[j] -= q * h[i][j]
    return v
