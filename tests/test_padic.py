import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st
from sympy import Matrix, isprime

from qcl import padic
from qcl.algebra import CycloSum
from qcl.audits import suite_gauss_laws
from qcl.errors import PreconditionError
from qcl.padic import (GaussSumParams, gauss_sum, gauss_sum_law_report,
                       is_prime, jacobi, jordan_split, line_key, line_multiple,
                       pivot, punit, pval, smallest_nonresidue)


class TestValuation:
    def test_basic(self):
        assert pval(18, 3) == 2
        assert pval(18, 2) == 1
        assert pval(0, 5, cap=4) == 4
        with pytest.raises(PreconditionError):
            pval(0, 5)
        assert punit(18, 3, 27) == 2

    # x % 1 == 0 always holds, so these looped forever; x % 0 divides by 0
    def test_base_one_refused(self):
        with pytest.raises(PreconditionError):
            pval(5, 1)

    def test_base_zero_refused(self):
        with pytest.raises(PreconditionError):
            pval(5, 0)

    def test_unit_part_base_one_refused(self):
        with pytest.raises(PreconditionError):
            punit(5, 1, 7)


# The brute lambda searches that `line_multiple` and `line_key` replaced,
# kept as their oracles.


def multiples_oracle(g, m):
    """{lam * g mod m: least such lam}, by trying every lam in range(m)."""
    out = {}
    for lam in range(m):
        out.setdefault(tuple(lam * x % m for x in g), lam)
    return out


def class_key_oracle(t, m, p):
    """The lexicographically least unit multiple of t mod m."""
    return min(tuple(lam * x % m for x in t)
               for lam in range(1, max(m, 2)) if lam % p)


# p^k in {2, 4, 8, 3, 9, 27, 5, 25}, on vectors of length 2
LINE_MODULI = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (5, 1), (5, 2)]


def line_bases(p, k):
    """Every g mod p^k below 10; past it, the g whose entries are 0 or
    u p^j for u in {1, p - 1, p + 1}: zero, imprimitive and primitive g at
    every valuation."""
    m = p ** k
    vecs = itertools.product(range(m), repeat=2)
    if m < 10:
        return list(vecs)
    entries = {0} | {u * p ** j % m for u in (1, p - 1, p + 1)
                     for j in range(k)}
    return [g for g in vecs if set(g) <= entries]


class TestIsPrime:
    def test_matches_sympy_on_small_ints(self):
        assert [n for n in range(-3, 30000) if is_prime(n) != isprime(n)] == []

    @pytest.mark.parametrize("n", [
        2047, 3277, 4033, 4681, 8321, 3215031751, 3825123056546413051,
        318665857834031151167461, 3317044064679887385961981,
    ])
    def test_strong_base_two_pseudoprimes_are_composite(self, n):
        assert not is_prime(n)

    @pytest.mark.parametrize("n", [5459, 5777, 10877, 16109, 18971, 22499])
    def test_strong_lucas_pseudoprimes_are_composite(self, n):
        assert not is_prime(n)

    def test_squares_and_large_ints(self):
        rng = random.Random(3)
        for _ in range(300):
            n = rng.randrange(2, 10 ** 40)
            assert is_prime(n) == isprime(n), n
        assert not is_prime(1_000_003 ** 2)
        assert is_prime(2 ** 521 - 1) and not is_prime(2 ** 523 - 1)


class TestLegendre:
    @pytest.mark.parametrize("p", [p for p in range(3, 200) if isprime(p)])
    def test_jacobi_is_eulers_criterion(self, p):
        # (a / p) = a^((p - 1) / 2) mod p, as -1, 0 or 1, for every residue
        for a in range(-p, 2 * p):
            euler = pow(a, (p - 1) // 2, p)
            assert jacobi(a, p) == (euler if euler < 2 else -1), a
        u = smallest_nonresidue(p)
        assert jacobi(u, p) == -1
        assert all(jacobi(a, p) == 1 for a in range(1, u))


class TestLines:
    @pytest.mark.parametrize("p,k", LINE_MODULI)
    def test_line_multiple_is_the_least_lambda(self, p, k):
        m = p ** k
        vecs = list(itertools.product(range(m), repeat=2))
        for g in line_bases(p, k):
            want = multiples_oracle(g, m)
            for t in vecs:
                assert line_multiple(t, g, p, k) == want.get(t), (t, g)

    @pytest.mark.parametrize("p,k", LINE_MODULI)
    def test_line_key_names_the_unit_class(self, p, k):
        m = p ** k
        units = [u for u in range(1, m) if u % p] or [1]
        keys = {}
        for t in itertools.product(range(m), repeat=2):
            key = line_key(t, p, k)
            assert key in {tuple(u * x % m for x in t) for u in units}
            keys.setdefault(class_key_oracle(t, m, p), set()).add(key)
        # one key per class, and distinct classes get distinct keys
        assert all(len(ks) == 1 for ks in keys.values())
        assert len(set().union(*keys.values())) == len(keys)

    def test_line_key_of_long_vectors(self):
        for p, k in [(3, 2), (5, 1), (2, 3)]:
            m = p ** k
            for t in itertools.product(range(m), repeat=4):
                if t[0] % 2 == 0 and t[3] % 3 == 0:  # a spread subset
                    assert class_key_oracle(line_key(t, p, k), m, p) == \
                        class_key_oracle(t, m, p)

    def test_pivot_and_trivial_modulus(self):
        assert pivot((9, 3, 6), 3, 2) == (1, 1)
        assert pivot((0, 9, 18), 3, 2) == (0, 2)
        assert pivot((-1, 0), 3, 1) == (0, 0)
        assert line_key((4, 7), 3, 0) == (0, 0)
        assert line_multiple((4, 7), (1, 2), 3, 0) == 0
        # entries are read mod p^k, negative ones included
        assert line_multiple((-2, -4), (1, 2), 3, 2) == 7


@st.composite
def symmetric_mod(draw, p, k):
    """A symmetric 4x4 matrix mod p^k, each entry a random residue times
    p^j for a drawn j <= k, so that every valuation pattern occurs."""
    m = p ** k
    a = [[0] * 4 for _ in range(4)]
    for i in range(4):
        for j in range(i, 4):
            x = draw(st.integers(0, m - 1)) * p ** draw(st.integers(0, k))
            a[i][j] = a[j][i] = x % m
    return a


class TestJordanSplit:
    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([(3, 1), (5, 1), (3, 2), (5, 2), (3, 3)]).flatmap(
        lambda g: st.tuples(st.just(g), symmetric_mod(*g))))
    def test_splits_the_form(self, case):
        # q = 3, 5, 9, 25, 27: e^T a e is diag(u_j p^(w_j)) mod q, every
        # u_j a unit, and det e a unit
        (p, k), a = case
        m = p ** k
        e, w, u = jordan_split(a, p, k)
        d = (Matrix(e).T * Matrix(a) * Matrix(e)).applyfunc(lambda x: x % m)
        assert d == Matrix.diag(*[uj * p ** wj % m for uj, wj in zip(u, w)])
        assert all(uj % p for uj in u) and all(0 <= wj <= k for wj in w)
        assert Matrix(e).det() % p

    def test_off_diagonal_pivot_and_zero_form(self):
        # the hyperbolic plane y0 y1 has no diagonal unit: e_0 += e_1
        e, w, u = jordan_split([[0, 1], [1, 0]], 5, 2)
        assert w == [0, 0] and all(x % 5 for x in u)
        assert jordan_split([[0, 0], [0, 9]], 3, 2) == (
            [[1, 0], [0, 1]], [2, 2], [1, 1])

    def test_two_is_refused(self):
        with pytest.raises(PreconditionError, match="odd prime"):
            jordan_split([[1, 0], [0, 1]], 2, 3)


class TestGaussSum:
    def test_classic_quadratic_sum(self):
        # (1/3) sum_y zeta_3^{y^2} = (1/3)(1 + 2 zeta_3), squared magnitude 1/3
        g = gauss_sum(GaussSumParams(3, 0, 1, 0, xi_zero=True))
        assert g == CycloSum(3, 1, {0: 1, 1: 2}, scale=1)

    def test_trivial_level(self):
        g = gauss_sum(GaussSumParams(5, 2, 0, 0, xi_zero=True))
        assert g == CycloSum.from_int(1, 5)

    def test_indicator_regime(self):
        # once the quadratic term is integral the sum detects integrality
        # of the linear term
        assert gauss_sum(GaussSumParams(3, 2, 2, 2)) == CycloSum.from_int(1, 3)
        assert gauss_sum(GaussSumParams(3, 2, 2, 0)).is_zero()
        assert gauss_sum(GaussSumParams(3, 3, 2, 1)).is_zero()

    def test_vanishing_regime(self):
        # strong linear term forces cancellation
        assert gauss_sum(GaussSumParams(3, 1, 2, 0)).is_zero()
        assert gauss_sum(GaussSumParams(5, 2, 3, 1)).is_zero()

    def test_averaging_level_is_stable(self):
        # summing over p^{vt+1} points gives the same value
        p, va, vt = 3, 1, 2
        g = gauss_sum(GaussSumParams(p, va, vt, 1, ua=2, ut=2, uxi=1))
        pt = p ** vt
        inv_ut = pow(2, -1, pt)
        counts = {}
        for y in range(pt * p):
            r = (2 * p ** va * y * y + p * y) * inv_ut % pt
            counts[r] = counts.get(r, 0) + 1
        g_up = CycloSum(p, vt, counts, scale=vt + 1)
        assert g == g_up

    @pytest.mark.parametrize("p", [3, 5])
    def test_law_report_small_grid(self, p):
        for va, vt, vxi in itertools.product(range(3), repeat=3):
            for ua in (1, p - 1):
                rep = gauss_sum_law_report(
                    GaussSumParams(p, va, vt, vxi, ua=ua, ut=1, uxi=1))
                assert all(rep["laws"].values())

    def test_law_report_p_two_inequality(self):
        for va, vt, vxi in itertools.product(range(3), repeat=3):
            rep = gauss_sum_law_report(GaussSumParams(2, va, vt, vxi))
            assert all(rep["laws"].values())

    def test_magnitude_bound_is_decided_without_floats(self, monkeypatch):
        def no_floats(self):
            raise AssertionError("float evaluation of a CycloSum")
        monkeypatch.setattr(CycloSum, "complex_value", no_floats)
        cases = [GaussSumParams(2, va, vt, vxi)
                 for va, vt, vxi in itertools.product(range(3), repeat=3)]
        # odd p with a dominant linear term: vxi < min(va, vt)
        cases += [GaussSumParams(3, 1, 2, 0), GaussSumParams(5, 2, 3, 1),
                  GaussSumParams(3, 2, 1, 0, ua=2)]
        for params in cases:
            rep = gauss_sum_law_report(params)
            assert "magnitude_bound" in rep["laws"]
            assert all(rep["laws"].values())

    def test_memo_is_keyed_per_prime(self):
        # rational CycloSums of different primes compare and hash equal, so
        # a memo keyed on a value would serve a p = 3 sum to p = 5
        assert CycloSum.from_int(1, 3) == CycloSum.from_int(1, 5)
        padic._reduced_gauss_sum.cache_clear()
        for va, vt, vxi in itertools.product(range(3), repeat=3):
            for p in (3, 5, 7):
                params = GaussSumParams(p, va, vt, vxi)
                assert gauss_sum(params).p == p
                rep = gauss_sum_law_report(params)
                assert rep["value"].p == p and all(rep["laws"].values())

    def test_memo_matches_the_direct_sum(self):
        # the sum depends on (p, vt, a / t mod p^vt, xi / t mod p^vt) only:
        # scaling ua, ut and uxi by one unit keeps the key and the value
        padic._reduced_gauss_sum.cache_clear()
        rng = random.Random(11)
        for _ in range(200):
            p = rng.choice((3, 5, 7))
            va, vt, vxi = (rng.randrange(4) for _ in range(3))
            ua, ut, uxi, c = (rng.choice([u for u in range(1, p ** 3)
                                          if u % p]) for _ in range(4))
            pt = p ** vt
            inv_ut = pow(ut, -1, pt)
            counts = {}
            for y in range(pt):
                r = (ua * p ** va * y * y + uxi * p ** vxi * y) * inv_ut % pt
                counts[r] = counts.get(r, 0) + 1
            want = CycloSum(p, vt, counts, scale=vt)
            assert gauss_sum(GaussSumParams(p, va, vt, vxi, ua, ut, uxi)) \
                == want
            assert gauss_sum(GaussSumParams(p, va, vt, vxi, ua * c, ut * c,
                                            uxi * c)) == want
        info = padic._reduced_gauss_sum.cache_info()
        assert info.hits >= 200 and info.hits + info.misses == 400

    def test_gauss_laws_audit_evaluates_each_sum_once(self):
        # 6,432 evaluations at the default seed share 1,157 integer keys
        padic._reduced_gauss_sum.cache_clear()
        assert suite_gauss_laws()["passed"]
        info = padic._reduced_gauss_sum.cache_info()
        assert (info.misses, info.hits + info.misses) == (1157, 6432)

    def test_unit_part_must_be_unit(self):
        with pytest.raises(PreconditionError):
            GaussSumParams(3, 0, 1, 0, ua=3)

