import itertools
import random
from fractions import Fraction

import pytest

from qcl.algebra import CycloSum, det_flat
from qcl.errors import PreconditionError, VerificationError
from qcl.expsums import (
    cyclo_abs_sq, hessian_pair, i0_brute, i0_local,
    local_integral_audit, matrix_cyclic_generator,
    nonabelian_gauss_integral, phase_integral_z, prime_case_report,
    quadratic_magnitude_expected_sq, s2_brute, s2_closed, s3_brute, s3_closed,
    split_primitive_part, w_class_sum_report, w_measure, witness_report,
    x2_count,
)
from qcl.padic import pval


class TestGaussIntegral:
    def test_trivial_level(self):
        assert nonabelian_gauss_integral((1, 0, 0, 1), 3, 0) == 1

    def test_integral_argument_gives_one(self):
        # Z = p^k * unit / p^k is integral: full cancellation-free average
        v = nonabelian_gauss_integral((3, 0, 0, 3), 3, 1)
        assert v == 1

    @pytest.mark.parametrize("p,k", [(3, 1), (3, 2), (5, 1), (7, 1)])
    def test_magnitude_law(self, p, k):
        rng = random.Random(p * 10 + k)
        hits = 0
        while hits < 12:
            z = tuple(rng.randrange(p ** k) for _ in range(4))
            expected = quadratic_magnitude_expected_sq(z, p, k)
            if expected is None:
                continue
            hits += 1
            val = nonabelian_gauss_integral(z, p, k)
            sq = cyclo_abs_sq(val)
            if isinstance(sq, Fraction):
                assert sq == expected
            else:
                assert abs(sq - float(expected)) < 1e-9 * float(expected)

    def test_unit_trace_unit_det(self):
        # unit trace and unit det at level 1: |I|^2 = q^{-1} * q^{-2}
        v = nonabelian_gauss_integral((1, 0, 0, 0), 3, 1)
        assert cyclo_abs_sq(v) == Fraction(1, 27)


class TestHessianPair:
    def test_certificates(self):
        for z in [(1, 0, 0, 1), (2, 3, 5, 7), (0, 1, 1, 0), (-1, 4, -2, 3)]:
            J, R, cert = hessian_pair(z)  # self-verifying
            assert cert["trace"] == z[0] + z[3]
            assert cert["det_r"] == 2 * cert["trace"]

    def test_symmetry(self):
        J, _, _ = hessian_pair((2, 3, 5, 7))
        assert all(J[i][j] == J[j][i] for i in range(4) for j in range(4))


class TestI0Local:
    def test_unit_delta(self):
        assert i0_local((1, 0, 0, 1), [(0, 0, 0, 0)], 3) == 1

    def test_pinned_value_n1_q3(self):
        # at gamma = 0 the integral is the solution density: 15/81 at q=3
        v = i0_local((3, 0, 0, 1), [(0, 0, 0, 0)], 3)
        assert v.to_fraction() == Fraction(15, 81)
        assert s2_brute(3, 1) == 15

    @pytest.mark.parametrize("p,vd,n", [(3, 1, 1), (3, 1, 2), (5, 1, 1), (3, 2, 1)])
    def test_matches_brute_reference(self, p, vd, n):
        rng = random.Random(p + vd + n)
        delta = (p ** vd, 0, 0, 1)
        for _ in range(8):
            gammas = [tuple(rng.randrange(p ** vd) for _ in range(4))
                      for _ in range(n)]
            assert (i0_local(delta, gammas, p)
                    - i0_brute(delta, gammas, p)).is_zero()

    def test_higher_level_is_redundant(self):
        # averaging over p^{vd+1} gives the same exact value
        p = 3
        delta = (p, 1, 0, p)
        rng = random.Random(5)
        for _ in range(4):
            gammas = [tuple(rng.randrange(p ** 2) for _ in range(4))]
            a = i0_local(delta, gammas, p)
            b = i0_local(delta, gammas, p, level=pval(det_flat(delta), p) + 1)
            assert (a - b).is_zero()

    def test_unit_coefficients(self):
        p = 3
        delta = (p, 0, 0, 1)
        g = [(1, 2, 0, 1)]
        a = i0_local(delta, g, p, coeffs=[2])
        b = i0_brute(delta, g, p, coeffs=[2])
        assert (a - b).is_zero()

    def test_average_over_z_recovers_constrained_integral(self):
        # averaging the unconstrained companion over Z mod p^vd reinstates
        # the divisibility condition
        p = 3
        delta = (p, 0, 0, 1)
        g = [(1, 0, 2, 1)]
        direct = i0_local(delta, g, p)
        acc = CycloSum.from_int(0, p)
        for z in itertools.product(range(p), repeat=4):
            acc = acc + phase_integral_z(z, delta, g, p)
        assert (acc.scale_down(4) - direct).is_zero()


class TestWitnessMeasure:
    def test_cyclic_generator_diag(self):
        gen, m = matrix_cyclic_generator((3, 0, 0, 1), 3)
        assert m == 3
        orbit = {tuple(lam * t % 3 for t in gen) for lam in range(3)}
        assert len(orbit) == 3

    def test_unit_eta(self):
        gen, m = matrix_cyclic_generator((1, 0, 0, 1), 3)
        assert m == 1
        assert w_measure((1, 2, 3, 4), (1, 0, 0, 1), 3) == 1

    @pytest.mark.parametrize("p,eta", [(3, (3, 0, 0, 1)), (3, (1, 1, -2, 1)),
                                       (5, (5, 0, 0, 1)), (3, (9, 0, 0, 1)),
                                       (3, (3, 1, 0, 3))])
    def test_class_sum_bound(self, p, eta):
        ncls, total, bound = w_class_sum_report(eta, p)
        assert total <= bound
        assert ncls >= 1

    def test_measure_range(self):
        for m0 in [(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 1, 1)]:
            wm = w_measure(m0, (3, 0, 0, 1), 3)
            assert 0 <= wm <= 1
        assert w_measure((0, 0, 0, 0), (3, 0, 0, 1), 3) == 1

    def test_primitive_part(self):
        v, eta = split_primitive_part((9, 0, 0, 3), 3)
        assert v == 1 and eta == (3, 0, 0, 1)


class TestLocalIntegralAudit:
    def test_small_audit_p3_n1(self):
        report = local_integral_audit(3, 1, vds=(1,), max_gammas=50, seed=1)
        assert report["checked"] > 0
        assert report["nonzero"] > 0

    def test_small_audit_p3_n1_level2(self):
        report = local_integral_audit(3, 1, vds=(2,), max_gammas=40, seed=2)
        assert report["nonzero"] > 0

    def test_support_law_directly(self):
        # delta = p * I: gamma not divisible by p forces exact vanishing
        p = 3
        delta = (p, 0, 0, p)
        for g in [(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 1, 1), (2, 0, 1, 0)]:
            assert i0_local(delta, [g], p).is_zero()


class TestPrimeCase:
    def test_x2_values(self):
        assert x2_count(3, [0, 0]) == 1
        assert x2_count(3, [0]) == 1
        assert x2_count(5, [0, 0]) == 9  # a^2 + b^2 = 0 has 1 + 2*4 points

    @pytest.mark.parametrize("q,n", [(3, 1), (3, 2), (5, 1), (5, 2)])
    def test_s2_closed(self, q, n):
        assert s2_brute(q, n) == s2_closed(q, n)

    @pytest.mark.parametrize("q,n", [(3, 1), (3, 2), (5, 1)])
    def test_s3_closed_random(self, q, n):
        rng = random.Random(q * 10 + n)
        for _ in range(30):
            g = tuple(tuple(rng.randrange(q) for _ in range(4)) for _ in range(n))
            assert s3_brute(q, n, g) == s3_closed(q, n, g)

    def test_s3_all_cases_n2_q3(self):
        # exhaustive over a structured family covering every case
        q, n = 3, 2
        fams = []
        for g1 in itertools.product(range(q), repeat=4):
            fams.append((g1, (0, 0, 0, 0)))
        rng = random.Random(0)
        for _ in range(60):
            fams.append(tuple(tuple(rng.randrange(q) for _ in range(4))
                              for _ in range(2)))
        for g in fams:
            assert s3_brute(q, n, g) == s3_closed(q, n, g)

    def test_report_q3_n1(self):
        rep = prime_case_report(3, 1, num_gamma=60, seed=0)
        assert rep["checked"] == 60
        assert len(rep["case_histogram"]) >= 3

    def test_report_q3_n2(self):
        rep = prime_case_report(3, 2, num_gamma=40, seed=1)
        assert rep["checked"] == 40
        assert "u!=0,v off line" in rep["case_histogram"]
