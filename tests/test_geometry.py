import itertools
import random

import pytest

from qcl.algebra import det_flat, mat_mul_flat, trace_flat
from qcl.errors import PreconditionError, VerificationError
from qcl.geometry import (
    anticommutator_map, geometry_audit, hessian_matrix, hessian_rank,
    kernel_contains_invertible, kernel_intersection_dim, lw_dim_formula,
    lw_kernel, mat_rank, proportional,
)


class TestRank:
    def test_identity(self):
        assert mat_rank([[1, 0], [0, 1]]) == 2
        assert mat_rank([[2, 4], [1, 2]]) == 1
        assert mat_rank([[2, 4], [1, 2]], q=3) == 1

    def test_mod_vs_rational_differ(self):
        # rank drops mod 3 but not over Q
        assert mat_rank([[3, 0], [0, 1]]) == 2
        assert mat_rank([[3, 0], [0, 1]], q=3) == 1


class TestLwKernel:
    def test_diag_traceless(self):
        rep = lw_kernel((-1, 0, 0, 1))
        assert rep["dim"] == 2

    def test_identity_dim_zero(self):
        assert lw_kernel((1, 0, 0, 1))["dim"] == 0

    def test_nilpotent(self):
        rep = lw_kernel((0, 1, 0, 0))
        assert rep["dim"] == 2
        # basis spans {a21 = 0, a22 + a11 = 0}
        for a in rep["basis"]:
            assert a[2] == 0 and a[0] + a[3] == 0

    def test_singular_nonzero_trace(self):
        # det = 0, trace != 0 -> dim 1
        assert lw_kernel((1, 0, 0, 0))["dim"] == 1

    def test_formula_exhaustive_f3(self):
        for w in itertools.product(range(3), repeat=4):
            if not any(w):
                continue
            assert lw_kernel(w, q=3)["dim"] == lw_dim_formula(w, q=3)

    def test_symmetry(self):
        # A in L(W) iff W in L(A)
        rng = random.Random(1)
        found = 0
        while found < 25:
            w = tuple(rng.randrange(-5, 6) for _ in range(4))
            if not any(w):
                continue
            for a in lw_kernel(w)["basis"]:
                if any(a):
                    back = tuple(u + v for u, v in
                                 zip(mat_mul_flat(a, w), mat_mul_flat(w, a)))
                    assert not any(back)
                    found += 1

    def test_zero_rejected(self):
        with pytest.raises(PreconditionError):
            lw_kernel((0, 0, 0, 0))


class TestInvertibleAndIntersections:
    def test_traceless_kernel_has_unit(self):
        for w in [(-1, 0, 0, 1), (0, 1, 1, 0), (2, 3, 5, -2)]:
            a = kernel_contains_invertible(w)
            assert a is not None and det_flat(a) != 0

    def test_traceless_kernel_inside_traceless(self):
        for a in lw_kernel((2, 3, 5, -2))["basis"]:
            assert trace_flat(a) == 0

    def test_pairwise_intersection_bound_f5(self):
        rng = random.Random(2)
        checked = 0
        while checked < 60:
            w1 = tuple(rng.randrange(5) for _ in range(4))
            w2 = tuple(rng.randrange(5) for _ in range(4))
            if not any(w1) or not any(w2) or proportional(w1, w2, q=5):
                continue
            assert kernel_intersection_dim(w1, w2, q=5) <= 1
            checked += 1

    def test_proportional_detection(self):
        assert proportional((1, 2, 3, 4), (2, 4, 6, 8))
        assert not proportional((1, 2, 3, 4), (2, 4, 6, 9))
        assert proportional((1, 2, 3, 4), (3, 6, 9, 12), q=5)


class TestHessianRank:
    def test_traceless_rank_two(self):
        assert hessian_rank((-1, 0, 0, 1)) == 2
        assert hessian_rank((0, 1, 1, 0)) == 2
        assert hessian_rank((0, -1, 2, 3), kind="quat") == 2

    def test_identity_rank(self):
        assert hessian_rank((1, 0, 0, 1)) in (3, 4)
        assert hessian_rank((1, 0, 0, 0), kind="quat") == 4

    def test_block_rank_two_slots(self):
        assert hessian_rank((-1, 0, 0, 1), 2, (1, -1)) == 4
        assert hessian_rank((1, 0, 0, 1), 2, (1, 1)) >= 4

    def test_exhaustive_f3_two_slots(self):
        for w in itertools.product(range(3), repeat=4):
            if not any(w):
                continue
            assert hessian_rank(w, 2, (1, -1), q=3) >= 4

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
