import itertools

import pytest

from qcl.algebra import CycloSum
from qcl.errors import PreconditionError
from qcl.padic import GaussSumParams, gauss_sum, gauss_sum_law_report, punit, pval


class TestValuation:
    def test_basic(self):
        assert pval(18, 3) == 2
        assert pval(18, 2) == 1
        assert pval(0, 5, cap=4) == 4
        with pytest.raises(PreconditionError):
            pval(0, 5)
        assert punit(18, 3, 27) == 2


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

