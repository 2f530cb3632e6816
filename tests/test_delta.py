import itertools
import math
import random
from fractions import Fraction

import mpmath
import pytest
from sympy import Matrix, Rational, diag

from qcl.algebra import HQ_BASIS, HurwitzQuat
from qcl.errors import BudgetError, PreconditionError, VerificationError
from qcl import delta as delta_mod
from qcl.delta import (
    DEFAULT_PROFILE, DeltaTestFn, _in_scaled_order, _norm_shell, b_term,
    delta_sum, dual_lattice_audit, dual_norm_histogram, f2phi_at_zero, ghat,
    index_sets, poisson_check, support_divisors,
)

ZERO = HurwitzQuat(0, 0, 0, 0)


def dual_norm_histogram_direct(max_nsq):
    """Counts of Euclidean norm-squared values over the dual lattice,
    keyed by 4*|xi|^2 (an integer), by direct coefficient enumeration.
    The dual basis D = G^-1 B comes from sympy's exact inverse of the Gram
    matrix G = B diag(2, -2, -2, -2) B^T of trd(x y) on the order basis B
    in true coordinates.  Exact but slow; kept as an oracle for the closed
    form (1 + i) O / 2."""
    B = Matrix([[Rational(t, 2) for t in b.c] for b in HQ_BASIS])
    dual = (B * diag(2, -2, -2, -2) * B.T).inv() * B
    Dinv = dual.inv()
    D = [[Fraction(int(v.p), int(v.q)) for v in dual.row(j)]
         for j in range(4)]
    colnorm = [math.sqrt(sum(float(Dinv[i, j]) ** 2 for i in range(4)))
               for j in range(4)]
    r = math.sqrt(max_nsq)
    bounds = [int(math.floor(r * c)) + 1 for c in colnorm]
    if math.prod(2 * b + 1 for b in bounds) > 10 ** 7:
        raise BudgetError("dual enumeration box too large")
    hist = {}
    for k in itertools.product(*[range(-b, b + 1) for b in bounds]):
        xi = [sum(k[j] * D[j][i] for j in range(4)) for i in range(4)]
        nsq = sum(v * v for v in xi)
        if nsq <= max_nsq:
            key = 4 * nsq
            if key.denominator != 1:
                raise VerificationError(f"dual norm 4*{nsq} is not integral")
            hist[int(key)] = hist.get(int(key), 0) + 1
    return hist


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


def ghat_sonine(s, profile):
    """Reference for ghat at s > 0: the Sonine sum (2 pi / s) sum_mu d_mu
    2^mu mu! a^{-mu-1} J_{mu+2}(a), a = 2 pi s, by mpmath at 400 bits,
    rounded once to a float."""
    with mpmath.workprec(400):
        a = 2 * mpmath.pi * s
        total = mpmath.mpf(0)
        for mu, d in enumerate(profile.phi2_about_one()):
            w = d * 2 ** mu * math.factorial(mu)
            total += (mpmath.mpf(w.numerator) / w.denominator
                      * mpmath.besselj(mu + 2, a) / a ** (mu + 1))
        return float(2 * mpmath.pi / s * total)


def b_term_arguments(heights):
    """Every nonzero argument s that `b_term` passes to ghat at these Q."""
    return sorted({2 * Q * math.sqrt(key / 4) for Q in heights
                   for key in dual_norm_histogram((60.0 / (2 * Q)) ** 2)
                   if key})


def scanned_index_sets(alpha, d):
    """Reference for both index sets at norm d: scan every element of the
    norm-d shell and keep those with alpha conj(delta), resp. conj(delta)
    alpha, in d O."""
    shell = _norm_shell(d)
    return ({x.c for x in shell if _in_scaled_order(alpha * x.conjugate(), d)},
            {x.c for x in shell if _in_scaled_order(x.conjugate() * alpha, d)})


def assert_index_sets_match(alpha, divisors):
    for d in divisors:
        right, left = index_sets(alpha, d)
        want_right = scanned_index_sets(alpha, d)[0]
        want_left = scanned_index_sets(alpha, alpha.nrd() // d)[1]
        assert len(right) == len(want_right) and len(left) == len(want_left)
        assert {x.c for x in right} == want_right, (alpha, d)
        assert {x.c for x in left} == want_left, (alpha, d)


def _swap_one(side):
    """side with its first element swapped for another of the same norm."""
    others = [x for x in _norm_shell(side[0].nrd()) if x not in side]
    return others[:1] + side[1:] if others else side


#: edits of a nonempty index set that its certificate must reject
TAMPERS = {
    "drop": lambda side: side[1:],
    "repeat": lambda side: side + side[:1],
    "swap": _swap_one,
}


def audit_shifts(seed):
    """The nonzero shifts of `qcl audit delta`, drawn as the suite does."""
    rng = random.Random(seed)
    for Q in (8, 16, 32):
        for _ in range(20):
            while True:
                par = rng.randrange(2)
                c = [2 * rng.randrange(-Q // 2, Q // 2 + 1) + par
                     for _ in range(4)]
                alpha = HurwitzQuat(*c)
                if not alpha.is_zero():
                    break
            yield alpha, Q


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
    def test_closed_form_is_certified(self):
        assert dual_lattice_audit()

    @pytest.mark.parametrize("scale,message", [
        (HurwitzQuat(2, 0, 0, 0), "pairs non-integrally"),  # O / 2
        (HurwitzQuat(4, 0, 0, 0), "not the dual"),          # O: det -4
    ], ids=["one", "two"])
    def test_tampered_scale_is_rejected(self, monkeypatch, scale, message):
        monkeypatch.setattr(delta_mod, "_DUAL_SCALE", scale)
        with pytest.raises(VerificationError, match=message):
            dual_lattice_audit()

    def test_histogram_matches_direct_enumeration(self):
        for max_nsq in (5, 12):
            assert (dual_norm_histogram(max_nsq)
                    == dual_norm_histogram_direct(max_nsq))

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

    def test_value_at_zero_is_the_double_formula(self):
        # 2 fl(pi^2) / 60 / 2 in doubles; the correctly rounded pi^2 / 60 is
        # 0.16449340668482265, and b_term_approx prints this one
        assert ghat(0) == 0.16449340668482262

    def test_b_term_arguments_are_correctly_rounded(self):
        args = b_term_arguments(range(4, 129))
        assert len(args) > 300
        assert [ghat(s) for s in args] == [
            ghat_sonine(s, DEFAULT_PROFILE) for s in args]

    @pytest.mark.parametrize("profile", [
        DeltaTestFn(phi2_coeffs=(0, 1, -2, 1)),
        DeltaTestFn(phi2_coeffs=(0, 3, 0, -7, 2, 0, 1))])
    def test_other_profiles_are_correctly_rounded(self, profile):
        for s in (1e-3, 0.3, 1, 2.5, 7.1, 13.3, 28.28, 57.5):
            assert ghat(s, profile) == ghat_sonine(s, profile), s
        assert ghat(-2.5, profile) == ghat(2.5, profile)

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

    def test_height_cap_refuses_before_the_norm_table(self, monkeypatch):
        def no_work(n):
            raise AssertionError("norm table built past the cap")

        monkeypatch.setattr(delta_mod, "norm_counts", no_work)
        with pytest.raises(BudgetError):
            delta_sum(ZERO, delta_mod._ZERO_SHIFT_Q_CAP + 1)

    def test_zero_shift_skips_mpmath_and_dataclasses(self):
        import subprocess
        import sys
        code = ("import sys; from qcl.algebra import HurwitzQuat; "
                "from qcl.delta import delta_sum; "
                "delta_sum(HurwitzQuat(0, 0, 0, 0), 20); "
                "print(sorted({'mpmath', 'dataclasses'} & set(sys.modules)))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True)
        assert out.stdout.strip() == "[]"

    def test_sum_builds_the_two_square_counts_once(self, monkeypatch):
        # one build to Q^2 for the sum, one to its own end for b_term's
        # dual histogram; no table is kept to be grown as the walk goes
        from qcl import lattices
        calls = []
        build = lattices._two_square_counts
        monkeypatch.setattr(lattices, "_two_square_counts",
                            lambda n: calls.append(n) or build(n))
        delta_sum(ZERO, 16)
        assert sorted(calls) == [7, 256]


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

    def test_scan_cap_refuses_before_the_scan(self, monkeypatch):
        def no_work(na, Q):
            raise AssertionError("divisors scanned past the cap")

        monkeypatch.setattr(delta_mod, "support_divisors", no_work)
        alpha = HurwitzQuat.from_true(1000001, 3, 5, 7)
        with pytest.raises(BudgetError):
            delta_sum(alpha, 100000)

    def test_shell_cap_refuses_before_any_shell(self, monkeypatch):
        def no_work(d):
            raise AssertionError("shell built past the cap")

        monkeypatch.setattr(delta_mod, "_norm_shell", no_work)
        # sum_d gcd(d, 27720) over the support at Q = 316 is 630417
        with pytest.raises(BudgetError):
            delta_sum(HurwitzQuat.from_true(27720, 0, 0, 0), 316)

    @pytest.mark.parametrize("content", [1, 2, 6, 12, 30])
    def test_cofactor_norm_is_at_most_the_gcd_with_the_content(
            self, content, monkeypatch):
        # the bound behind _SHELL_NORM_CAP: a side at norm m builds a
        # cofactor shell of norm m / nrd(beta) <= gcd(m, g), side 1 at d and
        # side 2 at nrd(alpha) / d
        norms, shells = [], []
        index_set = delta_mod._index_set
        monkeypatch.setattr(delta_mod, "_index_set",
                            lambda a, m: norms.append(m) or index_set(a, m))
        monkeypatch.setattr(
            delta_mod, "_norm_shell",
            lambda n: shells.append((norms[-1], n)) or _norm_shell(n))
        for prim in (HurwitzQuat(1, 3, -1, 5),
                     HurwitzQuat.from_true(2, 1, 0, 1)):
            alpha = prim * content
            na = alpha.nrd()
            for d in range(1, min(na, 400) + 1):
                if na % d == 0:
                    norms.clear()
                    shells.clear()
                    index_sets(alpha, d)
                    assert norms == [d, na // d]
                    assert all(n <= math.gcd(m, content) for m, n in shells)

    def test_peak_memory_stays_per_divisor(self):
        # 60 (1 + i) at Q = 40: keeping every index set of every divisor
        # until the end peaked at 4.3 MiB
        import tracemalloc
        alpha = HurwitzQuat.from_true(60, 60, 0, 0)
        tracemalloc.start()
        try:
            assert delta_sum(alpha, 40)["difference"] == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 2 ** 20


class TestIndexSets:
    def test_audit_shifts_match_shell_scan(self):
        from qcl import DEFAULT_SEED
        for alpha, Q in audit_shifts(DEFAULT_SEED):
            assert_index_sets_match(alpha, support_divisors(alpha.nrd(), Q))

    @pytest.mark.parametrize("content", [2, 3, 6, 12])
    def test_imprimitive_shifts_match_shell_scan(self, content):
        for prim in (HurwitzQuat(1, 3, -1, 5),
                     HurwitzQuat.from_true(2, 1, 0, 1)):
            alpha = prim * content
            assert alpha.content() == content
            na = alpha.nrd()
            assert_index_sets_match(
                alpha, [d for d in range(1, min(na, 600) + 1) if na % d == 0])

    def test_imprimitive_shift_uses_cofactor_shell(self, monkeypatch):
        # alpha = 6 (1 + i): side 1 at d = 12 has a generator of norm 2,
        # side 2 at 72 / 12 = 6 a unit one, and both cofactor shells of
        # norm 6 hold 24 * sigma_odd(6) = 96 points
        shells = []
        monkeypatch.setattr(delta_mod, "_norm_shell",
                            lambda n: shells.append(n) or _norm_shell(n))
        alpha = HurwitzQuat.from_true(6, 6, 0, 0)
        right, left = index_sets(alpha, 12)
        assert shells == [6, 6]
        assert len(right) == len(left) == 96
        assert_index_sets_match(alpha, [12])

    def test_unit_and_prime_norm_shifts(self):
        unit = HurwitzQuat(1, 1, -1, 1)
        assert unit.nrd() == 1
        assert_index_sets_match(unit, [1])
        prime = HurwitzQuat.from_true(6, 1, 0, 0)
        assert prime.nrd() == 37
        assert_index_sets_match(prime, [1, 37])
        assert [len(s) for s in index_sets(prime, 37)] == [24, 24]

    def test_wrong_generator_is_rejected(self, monkeypatch):
        alpha = HurwitzQuat.from_true(6, 1, 0, 0)
        # a left multiple of the true generator: inside L_d, too small
        monkeypatch.setattr(delta_mod, "_ideal_generator",
                            lambda rows: rows[0] * 3)
        with pytest.raises(VerificationError):
            index_sets(alpha, 37)
        # a unit: generates the whole order, not L_d
        monkeypatch.setattr(delta_mod, "_ideal_generator",
                            lambda rows: HurwitzQuat(2, 0, 0, 0))
        with pytest.raises(VerificationError):
            index_sets(alpha, 37)
        with pytest.raises(VerificationError):
            delta_sum(alpha, 8)

    def test_norm_must_divide_the_shift(self):
        # side 2 sits at nrd(alpha) / d
        with pytest.raises(PreconditionError):
            index_sets(HurwitzQuat.from_true(6, 1, 0, 0), 2)
        with pytest.raises(PreconditionError):
            index_sets(HurwitzQuat(0, 0, 0, 0), 1)

    @pytest.mark.parametrize("edit", sorted(TAMPERS))
    @pytest.mark.parametrize("alpha, d", [
        (HurwitzQuat.from_true(6, 1, 0, 0), 1),       # primitive, norm 37
        (HurwitzQuat.from_true(2, 1, 0, 1) * 3, 3),   # content 3, norm 54
    ], ids=["primitive", "imprimitive"])
    def test_tampered_second_side_is_rejected(self, monkeypatch, alpha, d,
                                              edit):
        # side 2 comes from _index_set at conj(alpha): the bijection alone
        # must catch a changed set, which passed every per-element check
        index_set = delta_mod._index_set

        def tampered(a, m):
            out = index_set(a, m)
            if a != alpha.conjugate() or not out:
                return out
            return TAMPERS[edit](out)

        monkeypatch.setattr(delta_mod, "_index_set", tampered)
        with pytest.raises(VerificationError):
            index_sets(alpha, d)
        with pytest.raises(VerificationError):
            delta_sum(alpha, 8)

    def test_terms_match_scanned_sets(self):
        # reference sums and term counts over the scanned index sets
        alpha, Q = HurwitzQuat(3, 1, -5, 7), 16
        na, Q2, p = alpha.nrd(), Q * Q, DEFAULT_PROFILE
        s1 = s2 = Fraction(0)
        n1 = n2 = 0
        for d in support_divisors(na, Q):
            right, left = scanned_index_sets(alpha, d)
            n1, n2 = n1 + len(right), n2 + len(left)
            big, small = Fraction(na, d * Q2), Fraction(d, Q2)
            s1 += len(right) * p.phi1(big) * p.phi2(small)
            s2 += len(left) * p.phi1(small) * p.phi2(big)
        assert s1 == s2
        rep = delta_sum(alpha, Q)
        assert rep["difference"] == 0 and rep["terms"] == (n1, n2)

    def test_nonzero_shift_skips_mpmath(self):
        import subprocess
        import sys
        code = ("import sys; from qcl.algebra import HurwitzQuat; "
                "from qcl.delta import delta_sum; "
                "delta_sum(HurwitzQuat(3, 1, -5, 7), 16); "
                "print('mpmath' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True)
        assert out.stdout.strip() == "False"
