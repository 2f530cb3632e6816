import itertools

from hypothesis import given, settings, strategies as st
from sympy import Matrix

from qcl.linalg import (
    congruence_lattice, hnf_determinant, reduce_mod_hnf, row_hnf, zkernel,
)


def int_matrix(m, n, bound=20):
    return st.lists(
        st.lists(st.integers(-bound, bound), min_size=n, max_size=n),
        min_size=m, max_size=m)


def small_matrices():
    return st.tuples(st.integers(1, 4), st.integers(1, 4)).flatmap(
        lambda mn: int_matrix(mn[0], mn[1]))


def det_int(a):
    return int(Matrix(a).det())


class TestRowHnf:
    @given(small_matrices())
    def test_transform_is_unimodular_and_correct(self, a):
        h, u, rank = row_hnf(a)
        m, n = len(a), len(a[0])
        assert abs(det_int(u)) == 1
        prod = Matrix(u) * Matrix(a)
        assert prod == Matrix(h)
        assert rank == Matrix(a).rank()

    @given(small_matrices())
    def test_echelon_shape(self, a):
        h, _, rank = row_hnf(a)
        n = len(h[0])
        prev_col = -1
        for i in range(rank):
            col = next(j for j in range(n) if h[i][j] != 0)
            assert col > prev_col
            assert h[i][col] > 0
            for ii in range(i):
                assert 0 <= h[ii][col] < h[i][col]
            prev_col = col
        for i in range(rank, len(h)):
            assert all(x == 0 for x in h[i])

    @given(small_matrices())
    def test_deterministic(self, a):
        assert row_hnf(a) == row_hnf([list(r) for r in a])


class TestZKernel:
    @given(small_matrices())
    def test_kernel_vectors_annihilate(self, a):
        ker = zkernel(a)
        for v in ker:
            assert all(sum(a[i][j] * v[j] for j in range(len(v))) == 0
                       for i in range(len(a)))
        n = len(a[0])
        assert len(ker) == n - Matrix(a).rank()
        if ker:
            assert Matrix(ker).rank() == len(ker)

    def test_kernel_saturated(self):
        # x + y = 0 has kernel generated by (1,-1), not a multiple
        ker = zkernel([[2, 2]])
        assert len(ker) == 1
        assert sorted(map(abs, ker[0])) == [1, 1]


class TestCongruenceLattice:
    @given(st.one_of(
        st.tuples(int_matrix(2, 3, 9), st.sampled_from([2, 3, 4, 5, 9])),
        st.tuples(int_matrix(4, 4, 6), st.sampled_from([2, 3, 4, 9]))))
    @settings(max_examples=90)
    def test_membership_exhaustive(self, case):
        a, mod = case
        h = congruence_lattice(a, mod)
        n = len(a[0])
        assert all(h[i][j] == 0 for i in range(n) for j in range(i))
        # rows satisfy the congruence
        for row in h:
            assert all(sum(a[i][j] * row[j] for j in range(n)) % mod == 0
                       for i in range(len(a)))
        # the index equals the number of solution classes mod `mod`
        sols = sum(
            1 for v in itertools.product(range(mod), repeat=n)
            if all(sum(a[i][j] * v[j] for j in range(n)) % mod == 0
                   for i in range(len(a))))
        assert hnf_determinant(h) * sols == mod ** n

    def test_trivial_condition(self):
        h = congruence_lattice([[0, 0]], 7)
        assert hnf_determinant(h) == 1


class TestCosets:
    @given(int_matrix(1, 3, 5), st.sampled_from([2, 3, 6]),
           st.lists(st.integers(-30, 30), min_size=3, max_size=3))
    @settings(max_examples=40)
    def test_reduction_is_stable(self, a, mod, v):
        h = congruence_lattice(a, mod)
        r = reduce_mod_hnf(v, h)
        assert reduce_mod_hnf(r, h) == r
        diff = [v[j] - r[j] for j in range(3)]
        # difference lies in the lattice: congruence holds
        assert all(sum(a[i][j] * diff[j] for j in range(3)) % mod == 0
                   for i in range(len(a)))
