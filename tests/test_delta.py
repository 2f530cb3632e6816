import math
import random
from fractions import Fraction

import mpmath
import pytest

from qcl.algebra import HurwitzQuat
from qcl.errors import PreconditionError, VerificationError
from qcl.delta import (
    DEFAULT_PROFILE, DeltaTestFn, b_term, delta_sum, dual_basis,
    dual_double_audit, dual_norm_histogram, dual_norm_histogram_direct,
    f2phi_at_zero, ghat, poisson_check, trace_pairing,
)

ZERO = HurwitzQuat(0, 0, 0, 0)


def ghat_quadrature(s, profile):
    """Reference for ghat at s > 0: the defining Bessel integral
    (2 pi / s) int_0^1 r^2 phi2(r^2) J_1(2 pi s r) dr by mpmath quadrature,
    split so that each piece spans about a quarter of an oscillation."""
    def f(r):
        t = r * r
        acc = mpmath.mpf(0)
        for c in reversed(profile.phi2_coeffs):
            acc = acc * t + c
        return r * r * acc * mpmath.besselj(1, 2 * mpmath.pi * s * r)

    pts = mpmath.linspace(0, 1, max(8, int(4 * float(s)) + 8))
    return float(2 * mpmath.pi / s * mpmath.quad(f, pts))


def random_shift(rng, Q):
    """Random nonzero integral quaternion with sup-norm <= Q^2 / 2."""
    while True:
        par = rng.randrange(2)
        c = [2 * rng.randrange(-Q // 2, Q // 2 + 1) + par for _ in range(4)]
        x = HurwitzQuat(*c)
        if not x.is_zero():
            return x


class TestProfile:
    def test_bump_values(self):
        p = DEFAULT_PROFILE
        assert p.phi2(0) == 0
        assert p.phi1(0) == 1
        assert p.phi1(Fraction(1, 2)) == Fraction(1, 8)
        assert p.phi2(Fraction(1, 2)) == Fraction(1, 16)
        assert p.phi1(2) == 0 and p.phi2(Fraction(3, 2)) == 0

    def test_radial_moment(self):
        assert DEFAULT_PROFILE.radial_moment() == Fraction(1, 60)

    def test_bad_profiles_rejected(self):
        with pytest.raises(PreconditionError):
            DeltaTestFn(phi2_coeffs=(1, -1))  # phi2(0) != 0
        with pytest.raises(PreconditionError):
            DeltaTestFn(phi1_coeffs=(0, 1))   # phi1(0) = 0


class TestDualLattice:
    def test_dual_basis_pairing(self):
        from qcl.delta import ORDER_BASIS
        D = dual_basis()
        for i, b in enumerate(ORDER_BASIS):
            for j, d in enumerate(D):
                assert trace_pairing(b, d) == (1 if i == j else 0)

    def test_double_dual_is_order(self):
        assert dual_double_audit()

    def test_histogram_matches_direct_enumeration(self):
        for max_nsq in (5, 12):
            assert (dual_norm_histogram(max_nsq)
                    == dual_norm_histogram_direct(max_nsq))

    def test_singular_gram_rejected(self):
        from qcl.delta import ORDER_BASIS
        with pytest.raises(VerificationError):
            dual_basis(ORDER_BASIS[:3] + ORDER_BASIS[:1])

    def test_minimal_vectors(self):
        h = dual_norm_histogram(1)
        assert h[0] == 1 and h[2] == 24  # 24 minimal vectors of |xi|^2 = 1/2


class TestRadialTransform:
    def test_value_at_zero(self):
        assert abs(ghat(0) - math.pi ** 2 / 60) < 1e-14
        assert abs(f2phi_at_zero() - math.pi ** 2 / 15) < 1e-13

    def test_decay(self):
        assert abs(ghat(12)) < abs(ghat(0)) / 100

    @pytest.mark.parametrize("profile", [
        DEFAULT_PROFILE, DeltaTestFn(phi2_coeffs=(0, 1, -2, 1))])
    def test_closed_form_matches_quadrature(self, profile):
        for s in (1e-3, 0.3, 1, 2.5, 7.1, 13.3, 28.28):
            ref = ghat_quadrature(s, profile)
            assert abs(ghat(s, profile) - ref) <= 1e-15 + 1e-12 * abs(ref), s

    def test_expansion_about_one(self):
        # t(1-t)^3 = (1-t)^3 - (1-t)^4
        assert DEFAULT_PROFILE.phi2_about_one() == (0, 0, 0, 1, -1)
        p = DeltaTestFn(phi2_coeffs=(0, 1, -2, 1))
        for t in (Fraction(0), Fraction(1, 3), Fraction(1)):
            assert p.phi2(t) == sum(d * (1 - t) ** mu for mu, d in
                                    enumerate(p.phi2_about_one()))

    def test_b_term_precondition(self):
        with pytest.raises(PreconditionError):
            b_term(2)


class TestPoisson:
    def test_identity_at_unit_scale(self):
        lhs, rhs, rel = poisson_check(1)
        assert rel < 1e-10

    def test_scale_ladder_and_duality(self):
        for sc in (Fraction(1, 8), Fraction(1, 2), Fraction(3, 2), 8):
            _, _, rel = poisson_check(sc)
            assert rel < 1e-10
            _, _, rel_inv = poisson_check(1 / Fraction(sc))
            assert rel_inv < 1e-10

    def test_scale_out_of_range(self):
        with pytest.raises(PreconditionError):
            poisson_check(16)
        with pytest.raises(PreconditionError):
            poisson_check(Fraction(1, 16))


class TestDeltaSumZeroShift:
    def test_ratio_at_q16(self):
        rep = delta_sum(ZERO, 16)
        rel = abs(rep["b_term"] - float(rep["normalized"])) / rep["b_term"]
        assert rel < 1e-4

    def test_q_precondition(self):
        with pytest.raises(PreconditionError):
            delta_sum(ZERO, 3)


class TestDeltaSumNonzeroShift:
    def test_exact_cancellation_samples(self):
        rng = random.Random(17)
        for Q in (8, 16):
            for _ in range(3):
                rep = delta_sum(random_shift(rng, Q), Q)
                assert rep["difference"] == 0
                assert rep["terms"][0] == rep["terms"][1]

    def test_unit_shift(self):
        rep = delta_sum(HurwitzQuat.from_true(1, 0, 0, 0), 8)
        assert rep["difference"] == 0

    def test_large_norm_shift_empty_support(self):
        # nrd(alpha) > Q^4 leaves no admissible modulus: both sides empty
        alpha = HurwitzQuat.from_true(2 ** 9, 0, 0, 0)
        rep = delta_sum(alpha, 8)
        assert rep["difference"] == 0 and rep["terms"] == (0, 0)
