import itertools
import random

import pytest
from sympy import isprime

from qcl.algebra import CycloSum
from qcl.errors import PreconditionError
from qcl.padic import (GaussSumParams, gauss_sum, gauss_sum_law_report,
                       is_prime, line_key, line_multiple, pivot, punit, pval)


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

    def test_unit_part_must_be_unit(self):
        with pytest.raises(PreconditionError):
            GaussSumParams(3, 0, 1, 0, ua=3)

