"""Linear geometry of the squaring map: anticommutator kernels and Hessian
ranks, over prime fields of odd characteristic and over the rationals.

For a nonzero 2x2 matrix W, the space {A : WA + AW = 0} has dimension
max(2 * [trace(W) = 0], [det(W) = 0]).  When trace(W) = 0 the space consists
of traceless matrices and contains an invertible element; kernels of
non-proportional W meet in dimension at most 1.  The Hessian of the
quadratic form Y -> trace(W * Y^2) (matrix or quaternion Y) has rank exactly
2 when trace(W) = 0 (W nonzero) and rank 3 or 4 otherwise; over n slots with
unit coefficients the block Hessian has rank at least 2n.

Matrices are flat 4-tuples (a, b, c, d) = [[a, b], [c, d]]; quaternions are
true-coordinate 4-tuples.  field=None means exact rationals, field=q an odd
prime means arithmetic mod q.  The 2x2 and quaternion arithmetic comes from
the flat helpers in `qcl.algebra`; ranks and kernels come from the field
Gauss-Jordan `qcl.linalg.field_rref`.
"""

import itertools
import random

from .algebra import (det_flat, mat_mul_flat, quat_mul_flat, reduce_mod,
                      trace_flat)
from .errors import PreconditionError, VerificationError
from .linalg import field_rref


def mat_rank(rows, q=None):
    """Rank by Gaussian elimination, exact over F_q or Q."""
    return len(field_rref(rows, q)[1])


def _kernel_basis(rows, q=None):
    """Basis of the right kernel of the given matrix."""
    a, pivots = field_rref(rows, q)
    n = len(a[0]) if a else 0
    basis = []
    for fc in (c for c in range(n) if c not in pivots):
        v = [0] * n
        v[fc] = 1
        for i, pc in enumerate(pivots):
            v[pc] = reduce_mod(-a[i][fc], q)
        basis.append(tuple(v))
    return basis


# the flat unit matrices e_0, ..., e_3
_UNITS = tuple(tuple(int(i == j) for j in range(4)) for i in range(4))


def _anticommutator(w, a, q=None):
    """Flat entries of W A + A W."""
    return tuple(reduce_mod(u + v, q) for u, v in
                 zip(mat_mul_flat(w, a), mat_mul_flat(a, w)))


def anticommutator_map(w, q=None):
    """4x4 matrix of A -> WA + AW on flat matrix coordinates."""
    cols = [_anticommutator(w, e, q) for e in _UNITS]
    return [[cols[j][i] for j in range(4)] for i in range(4)]


def lw_dim_formula(w, q=None):
    t0 = trace_flat(w, q) == 0
    d0 = det_flat(w, q) == 0
    return max(2 * int(t0), int(d0))


def lw_kernel(w, q=None):
    """Kernel of A -> WA + AW with its dimension law checked.

    Returns {"dim", "basis"}; raises if W = 0 or the dimension disagrees
    with the closed formula.
    """
    if not any(reduce_mod(v, q) for v in w):
        raise PreconditionError("W must be nonzero")
    if q is not None and (q < 3 or q % 2 == 0):
        raise PreconditionError("field must be an odd prime or None")
    basis = _kernel_basis(anticommutator_map(w, q), q)
    for a in basis:
        if any(_anticommutator(w, a, q)):
            raise VerificationError("kernel basis fails the defining relation")
    dim = len(basis)
    if dim != lw_dim_formula(w, q):
        raise VerificationError(
            f"kernel dim {dim} != formula {lw_dim_formula(w, q)}")
    return {"dim": dim, "basis": basis}


def kernel_contains_invertible(w, q=None, tries=200, seed=0):
    """Find an invertible element of the anticommutator kernel of W."""
    basis = lw_kernel(w, q)["basis"]
    if not basis:
        return None
    if q is not None:
        combos = itertools.product(range(q), repeat=len(basis))
    else:
        rng = random.Random(seed)
        combos = ([rng.randrange(-5, 6) for _ in basis]
                  for _ in range(tries))
    for coeffs in combos:
        a = tuple(reduce_mod(sum(c * b[i] for c, b in zip(coeffs, basis)), q)
                  for i in range(4))
        if det_flat(a, q) != 0:
            return a
    return None


def kernel_intersection_dim(w1, w2, q=None):
    """dim of the common anticommutator kernel of two matrices."""
    rows = anticommutator_map(w1, q) + anticommutator_map(w2, q)
    return 4 - mat_rank(rows, q)


def proportional(w1, w2, q=None):
    """True if w2 is a scalar multiple of w1 over the field."""
    return mat_rank([w1, w2], q) <= 1


def hessian_matrix(w, kind="matrix", q=None):
    """Hessian J of the quadratic form y -> trace(W y^2), so that the form
    equals (1/2) y^T J y; works for matrix or quaternion W.

    J is read off by polarization: J[a][b] = f(e_a + e_b) - f(e_a) - f(e_b).
    """
    if kind == "matrix":
        def form(y):
            return trace_flat(mat_mul_flat(y, mat_mul_flat(y, w, q), q), q)
    elif kind == "quat":
        def form(y):
            # the reduced trace of a quaternion is twice its real part
            return reduce_mod(2 * quat_mul_flat(quat_mul_flat(y, y), w)[0], q)
    else:
        raise PreconditionError("kind must be matrix or quat")

    diag = [form(e) for e in _UNITS]
    return [[reduce_mod(form(tuple(x + y for x, y in zip(_UNITS[a], _UNITS[b])))
                        - diag[a] - diag[b], q)
             for b in range(4)] for a in range(4)]


def hessian_rank(w, n=1, upsilon=None, kind="matrix", q=None):
    """Rank of the block Hessian of y -> trace(W * sum_i u_i y_i^2).

    Raises VerificationError unless the rank is >= 2n for nonzero W and,
    over the rationals with trace(W) = 0, each block has rank exactly 2.
    """
    if not any(reduce_mod(v, q) for v in w):
        raise PreconditionError("W must be nonzero")
    upsilon = tuple(upsilon) if upsilon is not None else (1,) * n
    if len(upsilon) != n or any(u not in (1, -1) for u in upsilon):
        raise PreconditionError("need n unit signs")
    traceless = (trace_flat(w, q) == 0 if kind == "matrix"
                 else reduce_mod(w[0], q) == 0)
    total = 0
    for u in upsilon:
        wu = tuple(reduce_mod(u * v, q) for v in w)
        r = mat_rank(hessian_matrix(wu, kind, q), q)
        if r < 2:
            raise VerificationError("slot Hessian rank below 2")
        if q is None and traceless and r != 2:
            raise VerificationError("traceless slot rank must be exactly 2")
        total += r
    if total < 2 * n:
        raise VerificationError("block Hessian rank below 2n")
    return total


def geometry_audit(q, pair_samples=300, rational_samples=1000, seed=0):
    """Exhaustive field checks plus seeded rational checks; raises on any
    violation, returns summary statistics."""
    nonzero = [w for w in itertools.product(range(q), repeat=4)
               if any(w)]
    dims = {}
    traceless_invertible = 0
    for w in nonzero:
        rep = lw_kernel(w, q)
        dims[rep["dim"]] = dims.get(rep["dim"], 0) + 1
        if trace_flat(w, q) == 0:
            # kernel sits inside the traceless hyperplane
            for a in rep["basis"]:
                if trace_flat(a, q) != 0:
                    raise VerificationError("kernel escapes traceless plane")
            if kernel_contains_invertible(w, q) is not None:
                traceless_invertible += 1
        # symmetry on a deterministic companion
        for a in rep["basis"]:
            if any(_anticommutator(a, w, q)):
                raise VerificationError("anticommutator symmetry fails")
        hessian_rank(w, 1, None, "matrix", q)
    # pairwise intersections among non-proportional W
    rng = random.Random(seed)
    pairs = 0
    while pairs < pair_samples:
        w1 = rng.choice(nonzero)
        w2 = rng.choice(nonzero)
        if proportional(w1, w2, q):
            continue
        if kernel_intersection_dim(w1, w2, q) > 1:
            raise VerificationError(f"kernels of {w1}, {w2} meet in dim > 1")
        pairs += 1
    # rational spot checks
    for _ in range(rational_samples):
        w = tuple(rng.randrange(-9, 10) for _ in range(4))
        if not any(w):
            continue
        lw_kernel(w)
        hessian_rank(w, 1)
        if w[0] + w[3] == 0 and hessian_rank(w, 2, (1, -1)) != 4:
            raise VerificationError(f"traceless {w}: two-slot rank != 4")
    ntl = sum(1 for w in nonzero if trace_flat(w, q) == 0)
    if traceless_invertible != ntl:
        raise VerificationError("some traceless kernel lacks a unit")
    return {"q": q, "dim_histogram": dims, "pairs_checked": pairs,
            "traceless_with_unit": traceless_invertible}
