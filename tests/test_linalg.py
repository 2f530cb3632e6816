import itertools

from hypothesis import given, settings, strategies as st
from sympy import Matrix

from qcl.linalg import (
    congruence_lattice, hnf_determinant, reduce_mod_hnf, row_hnf,
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


def row_hnf_with_transform(a):
    """The earlier row HNF, which builds the unimodular transform: (h, u,
    rank) with u*a = h, zero rows at the bottom."""
    h = [list(row) for row in a]
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


@st.composite
def rank_deficient_matrices(draw):
    """Up to 6 integer combinations of fewer than n rows of length n."""
    n = draw(st.integers(2, 4))
    base = draw(int_matrix(draw(st.integers(1, n - 1)), n, 9))
    coeffs = draw(int_matrix(draw(st.integers(1, 6)), len(base), 3))
    return [[sum(c * row[j] for c, row in zip(cs, base)) for j in range(n)]
            for cs in coeffs]


def hnf_inputs():
    """Small matrices, zero matrices, rank-deficient ones and ones with
    more rows than columns."""
    return st.one_of(
        small_matrices(),
        st.tuples(st.integers(1, 5), st.integers(1, 4)).map(
            lambda mn: [[0] * mn[1] for _ in range(mn[0])]),
        rank_deficient_matrices(),
        st.tuples(st.integers(5, 8), st.integers(1, 3)).flatmap(
            lambda mn: int_matrix(mn[0], mn[1])))


class TestRowHnf:
    @given(hnf_inputs())
    def test_transform_is_unimodular_and_correct(self, a):
        h, u, rank = row_hnf_with_transform(a)
        assert abs(det_int(u)) == 1
        prod = Matrix(u) * Matrix(a)
        assert prod == Matrix(h)
        assert rank == Matrix(a).rank()

    @given(hnf_inputs())
    def test_same_rows_and_rank_as_transform_oracle(self, a):
        h = row_hnf(a)
        h0, _, rank = row_hnf_with_transform(a)
        assert len(h) == rank
        assert h == h0[:rank]
        assert all(x == 0 for row in h0[rank:] for x in row)

    @given(hnf_inputs())
    def test_echelon_shape(self, a):
        h = row_hnf(a)
        n = len(a[0])
        assert len(h) == Matrix(a).rank()
        prev_col = -1
        for i in range(len(h)):
            col = next(j for j in range(n) if h[i][j] != 0)
            assert col > prev_col
            assert h[i][col] > 0
            for ii in range(i):
                assert 0 <= h[ii][col] < h[i][col]
            prev_col = col

    @given(small_matrices())
    def test_deterministic(self, a):
        assert row_hnf(a) == row_hnf([list(r) for r in a])


class TestCongruenceLattice:
    @given(st.one_of(
        st.tuples(int_matrix(2, 3, 9), st.sampled_from([2, 3, 4, 5, 9])),
        st.tuples(int_matrix(4, 4, 6), st.sampled_from([2, 3, 4, 9])),
        # one row; more rows than columns; the zero matrix; mod 1
        st.tuples(int_matrix(1, 4, 9), st.sampled_from([2, 3, 4, 6])),
        st.tuples(int_matrix(5, 2, 9), st.sampled_from([2, 3, 4, 9])),
        st.tuples(st.tuples(st.integers(1, 3), st.integers(1, 3)).map(
            lambda mn: [[0] * mn[1] for _ in range(mn[0])]),
            st.sampled_from([2, 3, 5])),
        st.tuples(int_matrix(3, 3, 9), st.just(1))))
    @settings(max_examples=150)
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

    @given(st.tuples(st.integers(1, 12), st.integers(1, 5)).flatmap(
               lambda mn: int_matrix(mn[0], mn[1])),
           st.sampled_from([1, 2, 3, 4, 6, 9, 12, 25]), st.data())
    @settings(max_examples=60)
    def test_projection_hnf_is_top_left_block(self, a, mod, data):
        # the lattice contains mod Z^n, so its HNF is upper triangular and
        # the first k columns of its rows span the projection to Z^k
        h = congruence_lattice(a, mod)
        k = data.draw(st.integers(1, len(h)))
        assert row_hnf([row[:k] for row in h]) == [row[:k] for row in h[:k]]

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
