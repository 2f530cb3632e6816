import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from sympy import GF, QQ
from sympy.polys.matrices import DomainMatrix

from qcl import DEFAULT_SEED
from qcl.algebra import (det_flat, mat_mul_flat, quat_mul_flat, reduce_mod,
                         trace_flat)
from qcl.errors import BudgetError, PreconditionError, VerificationError
from qcl.geometry import (
    P, _line_ids, anticommutator_map, geometry_audit, hessian_matrix,
    hessian_rank, kernel_table, lw_dim_formula, mat_rank, field_matrices,
    traceless_pair_count,
)
from qcl.padic import line_key


# ---------------------------------------------------------------------------
# Oracle: the per-W geometry, one sympy Gauss-Jordan elimination per rank or
# kernel, over F_q or over exact Fractions.
# ---------------------------------------------------------------------------


def oracle_rref(rows, q=None):
    """sympy's reduced row echelon form over F_q (q prime) or, when q is
    None, over Q: (reduced rows, pivot columns), the entries in [0, q) or
    Fractions."""
    field = QQ if q is None else GF(q)
    ref, pivots = DomainMatrix.from_list(rows, field).rref()
    if q is None:
        return ([[Fraction(v.numerator, v.denominator) for v in row]
                 for row in ref.to_list()], pivots)
    return [[int(v) % q for v in row] for row in ref.to_list()], pivots


def oracle_rank(rows, q=None):
    return len(oracle_rref(rows, q)[1])


def oracle_kernel_basis(rows, q=None):
    """Basis of the right kernel of the given matrix."""
    a, pivots = oracle_rref(rows, q)
    n = len(a[0]) if a else 0
    basis = []
    for fc in (c for c in range(n) if c not in pivots):
        v = [0] * n
        v[fc] = 1
        for i, pc in enumerate(pivots):
            v[pc] = reduce_mod(-a[i][fc], q)
        basis.append(tuple(v))
    return basis


UNITS = tuple(tuple(int(i == j) for j in range(4)) for i in range(4))


def oracle_anticommutator(w, a, q=None):
    """Flat entries of W A + A W."""
    return tuple(reduce_mod(u + v, q) for u, v in
                 zip(mat_mul_flat(w, a), mat_mul_flat(a, w)))


def oracle_map(w, q=None):
    """4x4 matrix of A -> WA + AW on flat matrix coordinates."""
    cols = [oracle_anticommutator(w, e, q) for e in UNITS]
    return [[cols[j][i] for j in range(4)] for i in range(4)]


def oracle_kernel(w, q=None):
    """Basis of the anticommutator kernel of W, checked against the
    defining relation."""
    basis = oracle_kernel_basis(oracle_map(w, q), q)
    for a in basis:
        assert not any(oracle_anticommutator(w, a, q))
    return basis


def oracle_invertible(w, q=None, tries=200, seed=0):
    """An invertible element of the anticommutator kernel of W, or None."""
    basis = oracle_kernel(w, q)
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


def oracle_meet_dim(w1, w2, q=None):
    """dim of the common anticommutator kernel of two matrices."""
    return 4 - oracle_rank(oracle_map(w1, q) + oracle_map(w2, q), q)


def oracle_proportional(w1, w2, q=None):
    """Rank at most 1 of the 2x4 matrix [w1; w2] over F_q or Q: every 2x2
    minor vanishes, decided in plain Python."""
    return all(reduce_mod(w1[a] * w2[b] - w1[b] * w2[a], q) == 0
               for a, b in itertools.combinations(range(4), 2))


def oracle_hessian(w, kind="matrix", q=None):
    """Hessian of y -> trace(W y^2) by polarization, one W at a time."""
    if kind == "matrix":
        def form(y):
            return trace_flat(mat_mul_flat(y, mat_mul_flat(y, w, q), q), q)
    else:
        def form(y):
            return reduce_mod(2 * quat_mul_flat(quat_mul_flat(y, y), w)[0], q)
    diag = [form(e) for e in UNITS]
    return [[reduce_mod(form(tuple(x + y for x, y in zip(UNITS[a], UNITS[b])))
                        - diag[a] - diag[b], q)
             for b in range(4)] for a in range(4)]


def oracle_audit(q, pair_samples, rational_samples, seed):
    """The per-W geometry audit: its summary, and the pairs and rational W
    it checks, drawn in the audit's rng order."""
    nonzero = [w for w in itertools.product(range(q), repeat=4) if any(w)]
    dims = {}
    with_unit = 0
    for w in nonzero:
        d = len(oracle_kernel(w, q))
        dims[d] = dims.get(d, 0) + 1
        if trace_flat(w, q) == 0 and oracle_invertible(w, q) is not None:
            with_unit += 1
    rng = random.Random(seed)
    pairs = []
    while len(pairs) < pair_samples:
        w1 = rng.choice(nonzero)
        w2 = rng.choice(nonzero)
        if not oracle_proportional(w1, w2, q):
            pairs.append((w1, w2))
    rational = []
    for _ in range(rational_samples):
        w = tuple(rng.randrange(-9, 10) for _ in range(4))
        if any(w):
            rational.append(w)
    return {"dim_histogram": dims, "traceless_with_unit": with_unit,
            "pairs": pairs, "rational": rational}


def lex_index(a, q):
    """Column of the flat matrix a in a kernel table mod q."""
    return int(np.dot(np.mod(a, q), q ** np.arange(3, -1, -1)))


def units_mod(q):
    return np.array([det_flat(a, q) != 0
                     for a in itertools.product(range(q), repeat=4)])


# ---------------------------------------------------------------------------


class TestRank:
    def test_identity(self):
        assert mat_rank([[1, 0], [0, 1]]) == 2
        assert mat_rank([[2, 4], [1, 2]]) == 1
        assert mat_rank([[2, 4], [1, 2]], q=3) == 1

    def test_mod_vs_rational_differ(self):
        # rank drops mod 3 but not over Q
        assert mat_rank([[3, 0], [0, 1]]) == 2
        assert mat_rank([[3, 0], [0, 1]], q=3) == 1

    def test_agrees_with_sympy_rref(self):
        rng = random.Random(7)
        for _ in range(300):
            # entries at most 20 keep the Hadamard bound below P (45^5 < P)
            m, n = rng.randrange(1, 6), rng.randrange(1, 6)
            k = rng.randrange(0, min(m, n) + 1)
            # a product of m x k and k x n factors has rank <= k
            left = [[rng.randrange(-2, 3) for _ in range(k)] for _ in range(m)]
            right = [[rng.randrange(-2, 3) for _ in range(n)] for _ in range(k)]
            a = [[sum(left[i][t] * right[t][j] for t in range(k))
                  for j in range(n)] for i in range(m)]
            assert mat_rank(a) == oracle_rank(a)
            for q in (3, 5, 7):
                assert mat_rank(a, q) == oracle_rank(a, q)

    def test_stack_matches_one_by_one(self):
        rng = np.random.default_rng(3)
        stack = rng.integers(-3, 4, size=(5, 7, 3, 4))
        ranks = mat_rank(stack)
        assert ranks.shape == (5, 7)
        for idx in np.ndindex(5, 7):
            assert ranks[idx] == oracle_rank(stack[idx].tolist())

    def test_hadamard_bound_reaches_p(self):
        # the product of row norms must stay below P: 46340^2 < P < 46341^2
        assert mat_rank([[46340, 0], [0, 46340]]) == 2
        with pytest.raises(VerificationError):
            mat_rank([[46341, 0], [0, 46341]])
        # here the rank mod P is wrong (1, not 2), so the refusal matters
        with pytest.raises(VerificationError):
            mat_rank([[P, 0], [0, 1]])
        # over F_q no certificate is needed
        assert mat_rank([[P, 0], [0, 1]], q=3) == 2

    def test_non_integer_entries_rejected(self):
        # a cast to int64 would truncate them to a wrong matrix
        with pytest.raises(PreconditionError):
            mat_rank([[0.5, 1], [1, 2]])
        with pytest.raises(PreconditionError):
            hessian_rank((Fraction(1, 2), 0, 0, 1))


class TestLwKernel:
    @staticmethod
    def dim(w):
        return 4 - mat_rank(anticommutator_map(w))

    def test_diag_traceless(self):
        assert self.dim((-1, 0, 0, 1)) == 2

    def test_identity_dim_zero(self):
        assert self.dim((1, 0, 0, 1)) == 0

    def test_nilpotent(self):
        assert self.dim((0, 1, 0, 0)) == 2
        # the kernel is {a21 = 0, a22 + a11 = 0}
        table = kernel_table([(0, 1, 0, 0)], 5)[0]
        members = field_matrices(5)[table]
        assert len(members) == 25
        assert (members[:, 2] == 0).all()
        assert ((members[:, 0] + members[:, 3]) % 5 == 0).all()

    def test_singular_nonzero_trace(self):
        # det = 0, trace != 0 -> dim 1
        assert self.dim((1, 0, 0, 0)) == 1

    def test_formula_exhaustive_f3(self):
        w = field_matrices(3)[1:]
        counts = kernel_table(w, 3).sum(axis=1)
        assert (counts == 3 ** lw_dim_formula(w, q=3)).all()
        for wi in w.tolist():
            assert len(oracle_kernel(wi, 3)) == lw_dim_formula(wi, q=3)

    def test_symmetry(self):
        # A in L(W) iff W in L(A)
        for q in (3, 5):
            table = kernel_table(field_matrices(q)[1:], q)[:, 1:]
            assert (table == table.T).all()
        rng = random.Random(1)
        found = 0
        while found < 25:
            w = tuple(rng.randrange(-5, 6) for _ in range(4))
            if not any(w):
                continue
            for a in oracle_kernel(w):
                den = math.lcm(*(x.denominator for x in a))
                back = anticommutator_map([int(x * den) for x in a]) @ w
                assert not back.any()
                found += 1

    def test_zero_rejected(self):
        with pytest.raises(PreconditionError):
            kernel_table([(0, 0, 0, 0)], 3)
        with pytest.raises(PreconditionError):
            hessian_rank((0, 0, 0, 0))
        with pytest.raises(PreconditionError):
            kernel_table([(1, 0, 0, 0)], 4)

    def test_table_cap_refuses_before_the_maps(self, monkeypatch):
        # 59^4 cells pass the cap of 10^7
        from qcl import geometry

        def no_work(w):
            raise AssertionError("maps built past the cap")

        monkeypatch.setattr(geometry, "anticommutator_map", no_work)
        with pytest.raises(BudgetError):
            kernel_table([(0, 1, 0, 0)], 59)


class TestInvertibleAndIntersections:
    def test_traceless_kernel_has_unit(self):
        for w in [(-1, 0, 0, 1), (0, 1, 1, 0), (2, 3, 5, -2)]:
            a = oracle_invertible(w)
            assert a is not None and det_flat(a) != 0
            for q in (3, 5):
                row = kernel_table([w], q)[0]
                assert (row & units_mod(q)).any()

    def test_traceless_kernel_inside_traceless(self):
        for q in (3, 5):
            mats = field_matrices(q)
            row = kernel_table([(2, 3, 5, -2)], q)[0]
            assert ((mats[row, 0] + mats[row, 3]) % q == 0).all()

    def test_pairwise_intersection_bound_f5(self):
        w = field_matrices(5)[1:]
        table = kernel_table(w, 5)
        ids = _line_ids(w, 5)
        rng = random.Random(2)
        checked = 0
        while checked < 60:
            i, j = rng.randrange(len(w)), rng.randrange(len(w))
            if ids[i] == ids[j]:
                continue
            assert (table[i] & table[j]).sum() <= 5
            checked += 1

    @pytest.mark.parametrize("q", [3, 5])
    def test_line_ids_are_the_stacked_line_key(self, q):
        w = field_matrices(q)[1:]
        keys = np.array([line_key(t, q, 1) for t in w.tolist()])
        assert np.array_equal(_line_ids(w, q), keys @ q ** np.arange(3, -1, -1))

    def test_proportional_detection(self):
        assert mat_rank([(1, 2, 3, 4), (2, 4, 6, 8)]) == 1
        assert mat_rank([(1, 2, 3, 4), (2, 4, 6, 9)]) == 2
        ids = _line_ids(np.array([(1, 2, 3, 4), (3, 1, 4, 2), (2, 4, 1, 4)]), 5)
        assert ids[0] == ids[1] != ids[2]


class TestHessianRank:
    def test_traceless_rank_two(self):
        assert hessian_rank((-1, 0, 0, 1)) == 2
        assert hessian_rank((0, 1, 1, 0)) == 2
        assert hessian_rank((0, -1, 2, 3), kind="quat") == 2

    def test_identity_rank(self):
        assert hessian_rank((1, 0, 0, 1)) in (3, 4)
        assert hessian_rank((1, 0, 0, 0), kind="quat") == 4

    def test_block_rank_two_slots(self):
        assert hessian_rank((-1, 0, 0, 1), 2) == 4
        assert hessian_rank((1, 0, 0, 1), 2) >= 4

    def test_exhaustive_f3_two_slots(self):
        assert (hessian_rank(field_matrices(3)[1:], 2, q=3) >= 4).all()

    def test_hessian_consistent_with_form(self):
        # J reproduces the quadratic form via (1/2) y^T J y
        w = (2, -1, 3, 5)
        J = hessian_matrix(w)
        rng = random.Random(0)
        for _ in range(10):
            y = tuple(rng.randrange(-4, 5) for _ in range(4))
            form = trace_flat(mat_mul_flat(y, mat_mul_flat(y, w)))
            quad = sum(J[i][j] * y[i] * y[j]
                       for i in range(4) for j in range(4))
            assert quad == 2 * form

    def test_matches_oracle_matrix(self):
        rng = random.Random(4)
        for kind in ("matrix", "quat"):
            ws = [tuple(rng.randrange(-9, 10) for _ in range(4))
                  for _ in range(50)]
            J = hessian_matrix(ws, kind)
            for w, j in zip(ws, J.tolist()):
                assert j == oracle_hessian(w, kind)


class TestAudit:
    def test_audit_f3(self):
        rep = geometry_audit(3, pair_samples=100, rational_samples=100)
        assert rep["dim_histogram"][0] > 0
        assert rep["dim_histogram"][2] > 0
        assert rep["pairs_checked"] == 100

    def test_map_is_linear_in_w(self):
        w1, w2 = (1, 2, 3, 4), (0, 1, -1, 2)
        m1 = anticommutator_map(w1)
        m2 = anticommutator_map(w2)
        msum = anticommutator_map(tuple(a + b for a, b in zip(w1, w2)))
        assert all(m1[i][j] + m2[i][j] == msum[i][j]
                   for i in range(4) for j in range(4))
        assert anticommutator_map(w1).tolist() == oracle_map(w1)


@pytest.mark.parametrize("q", [3, 5])
class TestTablesAgainstOracle:
    """The batched F_q tables against the per-W oracle on all of F_q^4 \\ 0."""

    def test_kernels(self, q):
        w = field_matrices(q)[1:]
        table = kernel_table(w, q)
        units = units_mod(q)
        for wi, row in zip(w.tolist(), table):
            basis = oracle_kernel(wi, q)
            assert row.sum() == q ** len(basis)
            # the basis lies in the table row, and both span q^dim points
            assert all(row[lex_index(a, q)] for a in basis)
            assert (row & units).any() == (oracle_invertible(wi, q) is not None)

    def test_hessian_ranks(self, q):
        w = field_matrices(q)[1:]
        ranks = hessian_rank(w, 1, q=q)
        two = hessian_rank(w, 2, q=q)
        for wi, r, r2 in zip(w.tolist(), ranks, two):
            assert r == oracle_rank(oracle_hessian(wi, q=q), q)
            assert r2 == 2 * r

    def test_pair_meets(self, q):
        w = field_matrices(q)[1:]
        table = kernel_table(w, q).astype(np.int32)
        ids = _line_ids(w, q)
        rng = random.Random(q)
        for _ in range(1500):
            i, j = rng.randrange(len(w)), rng.randrange(len(w))
            w1, w2 = w[i].tolist(), w[j].tolist()
            assert (ids[i] == ids[j]) == oracle_proportional(w1, w2, q)
            meet = int(table[i] @ table[j])
            assert meet == q ** oracle_meet_dim(w1, w2, q)

    def test_traceless_pair_count(self, q):
        traceless = [w for w in itertools.product(range(q), repeat=4)
                     if any(w) and (w[0] + w[3]) % q == 0]
        total = 0
        for w1, w2 in itertools.combinations(traceless, 2):
            if not oracle_proportional(w1, w2, q):
                assert oracle_meet_dim(w1, w2, q) <= 1
                total += 1
        assert traceless_pair_count(q) == total


@pytest.mark.parametrize("q, rational", [(3, 1000), (5, 200)])
def test_audit_matches_oracle(q, rational):
    """The suite's audit calls at the default seed: same summary, and the
    rational W the per-W audit draws get the same ranks."""
    rep = geometry_audit(q, 300, rational, DEFAULT_SEED)
    ref = oracle_audit(q, 300, rational, DEFAULT_SEED)
    assert rep["dim_histogram"] == ref["dim_histogram"]
    assert rep["traceless_with_unit"] == ref["traceless_with_unit"]
    assert rep["pairs_checked"] == len(ref["pairs"])
    table = kernel_table(field_matrices(q)[1:], q).astype(np.int32)
    for w1, w2 in ref["pairs"]:
        i, j = lex_index(w1, q) - 1, lex_index(w2, q) - 1
        assert table[i] @ table[j] == q ** oracle_meet_dim(w1, w2, q)
    r = np.array(ref["rational"])
    dims = 4 - mat_rank(anticommutator_map(r))
    ranks = hessian_rank(r)
    for w, d, h in zip(ref["rational"], dims, ranks):
        assert d == len(oracle_kernel(w)) == lw_dim_formula(w)
        assert h == oracle_rank(oracle_hessian(w))
