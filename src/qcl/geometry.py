"""Linear geometry of the squaring map: anticommutator kernels and Hessian
ranks, over prime fields of odd characteristic and over the rationals.

For a nonzero 2x2 matrix W, the space {A : WA + AW = 0} has dimension
max(2 * [trace(W) = 0], [det(W) = 0]).  When trace(W) = 0 the space consists
of traceless matrices and contains an invertible element; kernels of
non-proportional W meet in dimension at most 1.  The Hessian of the
quadratic form Y -> trace(W * Y^2) (matrix or quaternion Y) has rank exactly
2 when trace(W) = 0 (W nonzero) and rank 3 or 4 otherwise; over n slots with
unit coefficients the block Hessian has rank at least 2n.

Every function takes a stack: flat 4-vectors (a, b, c, d) = [[a, b], [c, d]]
(or quaternion coordinates) on the last axis of an integer array.  q=None
means the rationals, q an odd prime means F_q.  Over F_q kernels are read
from a membership table over all q^4 matrices; ranks are one batched
elimination mod q, or over Q mod a prime certified by the Hadamard bound.
"""

import functools
import math
import random

import numpy as np

from .algebra import (FLAT_UNITS, det_flat, mat_mul_flat, quat_mul_flat,
                      trace_flat)
from .errors import BudgetError, PreconditionError, VerificationError

# Ranks over Q are taken mod this prime (see mat_rank).
P = 2 ** 31 - 1

#: cap on the cells of one `kernel_table`, len(W) * q^4
_KERNEL_TABLE_CAP = 10 ** 7

# The form y -> trace(W y^2) for one flat W.
_FORMS = {
    "matrix": lambda w, y: trace_flat(mat_mul_flat(y, mat_mul_flat(y, w))),
    # the reduced trace of a quaternion is twice its real part
    "quat": lambda w, y: 2 * quat_mul_flat(quat_mul_flat(y, y), w)[0],
}


@functools.cache
def _tensor(kind):
    """(4, 16) int64 T with flat(map(W)) = W @ T, for a map linear in W,
    read off its one-W definition at W = e_0, ..., e_3.  kind "anti" is
    A -> WA + AW; "matrix" and "quat" are the Hessian J of f(y) =
    trace(W y^2) by polarization, J[a][b] = f(e_a + e_b) - f(e_a) - f(e_b),
    so that f = (1/2) y^T J y."""
    def entry(w, i, j):
        ei, ej = FLAT_UNITS[i], FLAT_UNITS[j]
        if kind == "anti":
            return mat_mul_flat(w, ej)[i] + mat_mul_flat(ej, w)[i]
        f = _FORMS[kind]
        return (f(w, tuple(x + y for x, y in zip(ei, ej)))
                - f(w, ei) - f(w, ej))
    t = np.array([[entry(w, i, j) for i in range(4) for j in range(4)]
                  for w in FLAT_UNITS], dtype=np.int64)
    t.flags.writeable = False
    return t


def _ints(a):
    """a as an int64 array; non-integer input (floats, Fractions) raises,
    where a cast would truncate it."""
    a = np.asarray(a)
    if a.dtype.kind not in "biu":
        raise PreconditionError("entries must be int64 integers")
    return a.astype(np.int64)


def _stack(w):
    w = _ints(w)
    if w.shape[-1:] != (4,):
        raise PreconditionError("W must be flat 4-vectors on the last axis")
    return w


def _apply(kind, w):
    w = _stack(w)
    return (w @ _tensor(kind)).reshape(w.shape[:-1] + (4, 4))


def anticommutator_map(w):
    """4x4 matrix of A -> WA + AW on flat matrix coordinates, per W."""
    return _apply("anti", w)


def hessian_matrix(w, kind="matrix"):
    """Hessian J of the quadratic form y -> trace(W y^2), per W, so that
    the form equals (1/2) y^T J y; W is a matrix or a quaternion."""
    if kind not in _FORMS:
        raise PreconditionError("kind must be matrix or quat")
    return _apply(kind, w)


def lw_dim_formula(w, q=None):
    """max(2 [trace W = 0], [det W = 0]), per W."""
    m = np.moveaxis(_stack(w), -1, 0)
    return np.maximum(2 * (trace_flat(m, q) == 0), det_flat(m, q) == 0)


def mat_rank(a, q=None):
    """Rank of a matrix, or of each matrix of a stack (..., m, n), exact over
    F_q (q prime) or, for integer matrices, over Q.

    Over Q the rank is taken mod P.  A nonzero minor is at most the product
    of the norms of its rows, hence at most the product H of the norms of
    all nonzero rows (each at least 1).  When H < P no nonzero minor is
    divisible by P, so the rank mod P is the rank over Q.  H^2 < P^2 is
    checked exactly in integers; VerificationError if it fails.
    """
    a = _ints(a)
    p = P if q is None else q
    if a.ndim < 2 or not 2 <= p <= P:
        raise PreconditionError("need matrices and a prime field below 2^31")
    if q is None:
        sq = (a.astype(object) ** 2).sum(axis=-1).reshape(-1, a.shape[-2])
        if any(math.prod(s for s in rows if s) >= P * P
               for rows in sq.tolist()):
            raise VerificationError(f"Hadamard bound reaches P = {P}: the "
                                    "rank mod P is not certified")
    *batch, m, n = a.shape
    a = (a % p).reshape(-1, m, n)
    used = np.zeros((len(a), m), dtype=bool)
    every = np.arange(len(a))
    for c in range(n):
        # forward elimination below a pivot in column c, fraction-free:
        # row <- pivot * row - row[c] * pivot_row keeps the row space mod p
        # without an inverse, and each product of residues is below 2^62
        live = (a[:, :, c] != 0) & ~used
        piv = live.argmax(axis=1)
        has = live[every, piv]
        top = a[every, piv]
        elim = (top[:, c, None, None] * a
                - a[:, :, c, None] * top[:, None, :]) % p
        used[every, piv] |= has
        a = np.where((has[:, None] & ~used)[:, :, None], elim, a)
    return used.sum(axis=-1).reshape(batch)


def hessian_rank(w, n=1, kind="matrix", q=None):
    """Rank of the block Hessian of y -> trace(W * sum_i u_i y_i^2), per W.

    The block Hessian is diag(u_1 J_W, ..., u_n J_W), and a unit u_i keeps
    the rank of J_W, so the rank is n * rank(J_W) whatever the signs.  Raises
    VerificationError unless each slot has rank >= 2 (so the block has rank
    >= 2n) and, over the rationals with trace(W) = 0, exactly 2.
    """
    w = _stack(w) if q is None else _stack(w) % q
    if not w.any(axis=-1).all():
        raise PreconditionError("W must be nonzero")
    slot = mat_rank(hessian_matrix(w, kind), q)
    if (slot < 2).any():
        raise VerificationError("slot Hessian rank below 2")
    if q is None:
        m = np.moveaxis(w, -1, 0)
        traceless = (trace_flat(m) if kind == "matrix" else m[0]) == 0
        if (traceless & (slot != 2)).any():
            raise VerificationError("traceless slot rank must be exactly 2")
    return n * slot


def field_matrices(q):
    """Every flat matrix mod q as a (q^4, 4) array in lexicographic order;
    row 0 is the zero matrix."""
    return np.indices((q,) * 4, dtype=np.int64).reshape(4, -1).T


def kernel_table(w, q):
    """Membership table K[i, j] = [W_i A_j + A_j W_i = 0 mod q] over the
    matrices A_j of field_matrices(q), for a (k, 4) stack of nonzero W,
    with the dimension law checked: row i has q^lw_dim_formula(W_i) members.

    An entry of L_W A is a sum of four products of residues, at most
    4 (q - 1)^2 < 2^15 for q <= 91, so the int16 image is exact; the budget
    of 10^7 cells keeps q <= 56.
    """
    if q < 3 or q % 2 == 0:
        raise PreconditionError("field must be an odd prime")
    w = _stack(w).reshape(-1, 4) % q
    if not w.any(axis=1).all():
        raise PreconditionError("W must be nonzero")
    if len(w) * q ** 4 > _KERNEL_TABLE_CAP:
        raise BudgetError(f"kernel table of {len(w)} x {q}^4 cells")
    maps = (anticommutator_map(w) % q).astype(np.int16)
    cols = field_matrices(q).T.astype(np.int16)
    table = np.ones((len(w), q ** 4), dtype=bool)
    for i in range(4):
        table &= (maps[:, i, :] @ cols) % q == 0
    if (table.sum(axis=1) != q ** lw_dim_formula(w, q)).any():
        raise VerificationError("kernel size disagrees with q^formula")
    return table


def _line_ids(w, q):
    """Projective point of each nonzero W mod q: W scaled so its first
    nonzero entry is 1, packed.  W are proportional iff their ids agree.
    This is `padic.line_key` at k = 1 (the pivot is the first nonzero
    entry) applied to a whole stack at once."""
    lead = w[np.arange(len(w)), (w != 0).argmax(axis=1)]
    inv = np.array([0] + [pow(x, -1, q) for x in range(1, q)])
    return (w * inv[lead][:, None] % q) @ q ** np.arange(3, -1, -1)


def traceless_pair_count(q):
    """Check that the kernels of every two non-proportional traceless
    nonzero W mod q meet in dimension <= 1, from one int32 product K K^T
    (entries at most q^4); returns the number of pairs.  A meet of
    dimension > 1 needs two 2-dimensional kernels, i.e. two traceless W, so
    these pairs are exhaustive."""
    w = field_matrices(q)[1:]
    w = w[trace_flat(w.T, q) == 0]
    table = kernel_table(w, q).astype(np.int32)
    ids = _line_ids(w, q)
    pairs = np.triu(ids[:, None] != ids[None, :], k=1)
    bad = np.argwhere(pairs & (table @ table.T > q))
    if len(bad):
        i, j = bad[0]
        raise VerificationError(
            f"kernels of {tuple(w[i])}, {tuple(w[j])} meet in dim > 1")
    return int(pairs.sum())


def geometry_audit(q, pair_samples=300, rational_samples=1000, seed=0):
    """Exhaustive field checks plus seeded rational checks; raises on any
    violation, returns summary statistics."""
    mats = field_matrices(q)
    w = mats[1:]
    table = kernel_table(w, q)
    traceless = trace_flat(w.T, q) == 0
    if table[traceless][:, trace_flat(mats.T, q) != 0].any():
        raise VerificationError("kernel escapes traceless plane")
    # A in L(W) iff W in L(A), on the nonzero A
    if (table[:, 1:] != table[:, 1:].T).any():
        raise VerificationError("anticommutator symmetry fails")
    unit = det_flat(mats.T, q) != 0
    with_unit = int((table[traceless] & unit).any(1).sum())
    if with_unit != traceless.sum():
        raise VerificationError("some traceless kernel lacks a unit")
    hessian_rank(w, q=q)
    # pairwise intersections among non-proportional W
    rng = random.Random(seed)
    ids = _line_ids(w, q).tolist()
    index = range(len(w))
    pairs = []
    while len(pairs) < pair_samples:
        i, j = rng.choice(index), rng.choice(index)
        if ids[i] != ids[j]:
            pairs.append((i, j))
    i, j = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    bad = np.flatnonzero((table[i] & table[j]).sum(axis=1) > q)
    if len(bad):
        k = bad[0]
        raise VerificationError(
            f"kernels of {tuple(w[i[k]])}, {tuple(w[j[k]])} meet in dim > 1")
    # rational spot checks
    draws = [tuple(rng.randrange(-9, 10) for _ in range(4))
             for _ in range(rational_samples)]
    r = np.array([d for d in draws if any(d)], dtype=np.int64).reshape(-1, 4)
    if (4 - mat_rank(anticommutator_map(r)) != lw_dim_formula(r)).any():
        raise VerificationError("kernel dim disagrees with formula over Q")
    hessian_rank(r, 1)
    if (hessian_rank(r[trace_flat(r.T) == 0], 2) != 4).any():
        raise VerificationError("traceless W: two-slot rank != 4")
    dims, counts = np.unique(lw_dim_formula(w, q), return_counts=True)
    return {"q": q, "dim_histogram": dict(zip(dims.tolist(), counts.tolist())),
            "pairs_checked": len(pairs), "traceless_with_unit": with_unit}
