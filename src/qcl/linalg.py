"""Small exact integer linear algebra: Hermite normal form with transform,
integer kernels and congruence-condition lattices.

Everything is deterministic (fixed pivoting order) so downstream results are
byte-reproducible. Matrices are lists of lists of Python ints; functions
return fresh lists and never mutate their arguments.
"""

from __future__ import annotations

from .errors import PreconditionError


def _copy(a):
    return [list(row) for row in a]


def row_hnf(a):
    """Row-style Hermite normal form.

    Returns (h, u, rank) with u unimodular, u*a = h, h in row echelon form
    with positive pivots and entries above each pivot reduced into
    [0, pivot). Zero rows are at the bottom.
    """
    h = _copy(a)
    m = len(h)
    n = len(h[0]) if m else 0
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    piv_row = 0
    pivots = []
    for col in range(n):
        # gcd out the column below piv_row
        r = piv_row
        while r < m:
            best = None
            for i in range(piv_row, m):
                if h[i][col] != 0:
                    if best is None or abs(h[i][col]) < abs(h[best][col]):
                        best = i
            if best is None:
                break
            if best != piv_row:
                h[piv_row], h[best] = h[best], h[piv_row]
                u[piv_row], u[best] = u[best], u[piv_row]
            q0 = h[piv_row][col]
            done = True
            for i in range(piv_row + 1, m):
                if h[i][col] != 0:
                    q = h[i][col] // q0
                    for j in range(n):
                        h[i][j] -= q * h[piv_row][j]
                    for j in range(m):
                        u[i][j] -= q * u[piv_row][j]
                    if h[i][col] != 0:
                        done = False
            if done:
                break
        if piv_row < m and h[piv_row][col] != 0:
            if h[piv_row][col] < 0:
                h[piv_row] = [-x for x in h[piv_row]]
                u[piv_row] = [-x for x in u[piv_row]]
            p = h[piv_row][col]
            for i in range(piv_row):
                q = h[i][col] // p
                if q:
                    for j in range(n):
                        h[i][j] -= q * h[piv_row][j]
                    for j in range(m):
                        u[i][j] -= q * u[piv_row][j]
            pivots.append(col)
            piv_row += 1
            if piv_row == m:
                break
    return h, u, len(pivots)


def zkernel(a):
    """Basis (list of integer vectors) of {x in Z^n : a @ x = 0}."""
    m = len(a)
    n = len(a[0]) if m else 0
    if n == 0:
        return []
    at = [[a[i][j] for i in range(m)] for j in range(n)]
    h, u, rank = row_hnf(at)
    return [list(u[i]) for i in range(rank, n)]


def congruence_lattice(a, mod):
    """HNF basis of the full-rank lattice {v in Z^n : a @ v = 0 (mod mod)}.

    `a` is an m x n integer matrix, `mod` a positive integer. Returns an
    n x n upper-triangular matrix whose rows are a basis.
    """
    if mod <= 0:
        raise PreconditionError("modulus must be positive")
    m = len(a)
    n = len(a[0]) if m else 0
    # kernel of [a | mod*I_m] projected to the first n coordinates
    ext = [[a[i][j] for j in range(n)] + [mod if k == i else 0 for k in range(m)]
           for i in range(m)]
    ker = zkernel(ext)
    rows = [v[:n] for v in ker]
    h, _, rank = row_hnf(rows)
    if rank != n:
        raise PreconditionError("congruence lattice is not full rank")
    return [h[i] for i in range(n)]


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
