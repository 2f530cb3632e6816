import cmath
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qcl.algebra import (
    HQ_I, HQ_J, HQ_K, HQ_OMEGA, HQ_ONE,
    CycloSum, HurwitzQuat, NonsplitLocalElem,
    adj_flat, det_flat, hq_from_basis_coords, hq_to_basis_coords,
    mat_mul_flat, quat_mul_flat, trace_flat, smallest_nonresidue,
)
from qcl.errors import PreconditionError, VerificationError


# -- strategies --------------------------------------------------------------

def hq_elems(max_coord=30):
    return st.builds(
        hq_from_basis_coords,
        st.tuples(*(st.integers(-max_coord, max_coord) for _ in range(4))))


# -- flat 4-tuple helpers ----------------------------------------------------

flat4 = st.tuples(*(st.integers(-50, 50) for _ in range(4)))


class TestFlatHelpers:
    @given(flat4, flat4, flat4)
    def test_matrix_ring_laws(self, x, y, z):
        xy = mat_mul_flat(x, y)
        assert mat_mul_flat(xy, z) == mat_mul_flat(x, mat_mul_flat(y, z))
        assert det_flat(xy) == det_flat(x) * det_flat(y)
        d = det_flat(x)
        assert mat_mul_flat(adj_flat(x), x) == (d, 0, 0, d)
        assert trace_flat(xy) == trace_flat(mat_mul_flat(y, x))

    @given(flat4, flat4, st.sampled_from([3, 5, 9, 25]))
    def test_reduction_mod_q(self, x, y, q):
        assert mat_mul_flat(x, y, q) == tuple(
            v % q for v in mat_mul_flat(x, y))
        assert det_flat(x, q) == det_flat(x) % q
        assert trace_flat(x, q) == trace_flat(x) % q

    def test_exact_types_are_kept(self):
        assert type(det_flat((1, 2, 3, 4))) is int
        half = Fraction(1, 2)
        assert mat_mul_flat((half, 0, 0, 1), (half, 0, 0, 1)) == (
            Fraction(1, 4), 0, 0, 1)

    @given(flat4, flat4)
    def test_hamilton_product_is_hurwitz_product(self, x, y):
        got = HurwitzQuat.from_true(*x) * HurwitzQuat.from_true(*y)
        assert got == HurwitzQuat.from_true(*quat_mul_flat(x, y))
        assert quat_mul_flat((0, 1, 0, 0), (0, 0, 1, 0)) == (0, 0, 0, 1)


# -- quaternions -------------------------------------------------------------

class TestHurwitzQuat:
    def test_ij_equals_k(self):
        assert HQ_I * HQ_J == HQ_K
        assert HQ_J * HQ_I == -HQ_K

    def test_omega_has_norm_one(self):
        assert HQ_OMEGA.nrd() == 1
        assert HQ_OMEGA.trd() == 1
        # omega is a primitive 6th root of unity: omega^6 = 1
        w = HQ_OMEGA
        assert w * w * w == -HQ_ONE

    def test_mixed_parity_rejected(self):
        with pytest.raises(PreconditionError):
            HurwitzQuat(1, 0, 0, 0)

    def test_basis_coords_roundtrip(self):
        for v in [(1, 0, 0, 0), (0, 0, 0, 1), (3, -2, 5, 7), (-1, -1, -1, -1)]:
            assert hq_to_basis_coords(hq_from_basis_coords(v)) == v

    def test_norm_examples(self):
        x = HurwitzQuat.from_true(1, 1, 1, 0)
        assert x.nrd() == 3
        assert x.trd() == 2
        assert x.sup_norm() == 1
        assert HQ_OMEGA.sup_norm() == Fraction(1, 2)

    def test_content_and_primitivity(self):
        assert HurwitzQuat.from_true(2, 4, 6, 8).content() == 2
        assert (HQ_OMEGA * 2).content() == 2
        assert HurwitzQuat(2, 2, 2, 2).content() == 2  # equals 2*omega
        assert HurwitzQuat.from_true(1, 1, 0, 0).is_primitive()
        assert HQ_OMEGA.is_primitive()
        # all even but mixed halved parity: (2,0,0,0)/2 = 1 is integral,
        # while (2,2,0,0)/2 = 1+i is too; check a genuinely primitive one
        assert HurwitzQuat(2, 0, 2, 4).content() == 1

    def test_true_coords_mod(self):
        assert HQ_OMEGA.true_coords_mod(3) == (2, 2, 2, 2)
        with pytest.raises(PreconditionError):
            HQ_OMEGA.true_coords_mod(4)

    @given(hq_elems(), hq_elems(), hq_elems())
    def test_associativity(self, a, b, c):
        assert (a * b) * c == a * (b * c)

    @given(hq_elems(), hq_elems())
    def test_norm_multiplicative(self, a, b):
        assert (a * b).nrd() == a.nrd() * b.nrd()

    @given(hq_elems(), hq_elems())
    def test_conjugate_antihomomorphism(self, a, b):
        assert (a * b).conjugate() == b.conjugate() * a.conjugate()

    @given(hq_elems())
    def test_norm_via_conjugate(self, a):
        prod = a * a.conjugate()
        assert prod == HQ_ONE * a.nrd()
        assert a.trd() == (a + a.conjugate()).c[0] // 2

    @given(hq_elems(), hq_elems())
    def test_sup_norm_submultiplicative_up_to_four(self, a, b):
        # each product coordinate is a signed sum of four coordinate products
        if not (a.is_zero() or b.is_zero()):
            assert (a * b).sup_norm() <= 4 * a.sup_norm() * b.sup_norm()


# -- local division order ----------------------------------------------------

class TestNonsplitLocalElem:
    def test_uniformizer_squares_to_p(self):
        for p, N in [(3, 3), (5, 2), (7, 2)]:
            P = NonsplitLocalElem((0, 0, 1, 0), p, N)
            assert (P * P).z == (p % p ** N, 0, 0, 0)

    def test_twist_relation(self):
        # P * sqrt(u) = -sqrt(u) * P at precision 3^3
        p, N = 3, 3
        P = NonsplitLocalElem((0, 0, 1, 0), p, N)
        s = NonsplitLocalElem((0, 1, 0, 0), p, N)
        assert P * s == -(s * P)
        assert s * s == NonsplitLocalElem((smallest_nonresidue(p), 0, 0, 0), p, N)

    def test_norm_formula_matches_conjugate_product(self):
        p, N = 5, 2
        m = p ** N
        import random
        rng = random.Random(7)
        for _ in range(50):
            x = NonsplitLocalElem(tuple(rng.randrange(m) for _ in range(4)), p, N)
            prod = x * x.conjugate()
            assert prod.z == (x.nrd(), 0, 0, 0)
            assert (x + x.conjugate()).z == (x.trd() * pow(2, -1, m) * 2 % m, 0, 0, 0)

    def test_norm_multiplicative(self):
        p, N = 3, 3
        m = p ** N
        import random
        rng = random.Random(11)
        for _ in range(50):
            x = NonsplitLocalElem(tuple(rng.randrange(m) for _ in range(4)), p, N)
            y = NonsplitLocalElem(tuple(rng.randrange(m) for _ in range(4)), p, N)
            assert (x * y).nrd() == x.nrd() * y.nrd() % m

    def test_even_prime_rejected(self):
        with pytest.raises(PreconditionError):
            NonsplitLocalElem((1, 0, 0, 0), 2, 3)


# -- exact root-of-unity sums ------------------------------------------------

class TestCycloSum:
    def test_full_orbit_mod_three_is_zero(self):
        v = CycloSum(3, 1, {0: 1, 1: 1, 2: 1})
        assert v.is_zero()
        assert v == CycloSum.from_int(0, 3)

    def test_subgroup_orbit_mod_nine_is_zero(self):
        assert CycloSum(3, 2, {0: 1, 3: 1, 6: 1}).is_zero()
        assert not CycloSum(3, 2, {0: 1, 3: 1, 5: 1}).is_zero()

    def test_gauss_magnitude(self):
        # (1/3)(1 + 2 zeta_3) has |.| = 3^{-1/2}... check the exact square
        v = CycloSum(3, 1, {0: 1, 1: 2}, scale=1)
        assert abs(v.magnitude() - 3 ** -0.5) < 1e-12
        # exact check: v * conj(v) = 1/3
        conj = CycloSum(3, 1, {0: 1, 2: 2}, scale=1)
        assert (v * conj).to_fraction() == Fraction(1, 3)

    def test_conductor_reduction(self):
        v = CycloSum(5, 3, {0: 2, 25: 7}).canonical()
        assert v.k == 1 and v.counts == {0: 2, 1: 7}

    def test_rational_detection(self):
        # zeta_9^3 + zeta_9^6 = -1
        v = CycloSum(3, 2, {3: 1, 6: 1})
        assert v.is_rational()
        assert v.to_fraction() == -1

    def test_scale_arithmetic(self):
        v = CycloSum(3, 1, {1: 9})
        assert v.scale_down(2) == CycloSum(3, 1, {1: 1})
        assert v.scale_down(2).scale_up(2) == v
        assert CycloSum(3, 0, {0: 1}, 2).to_fraction() == Fraction(1, 9)

    def test_mixed_prime_rejected(self):
        with pytest.raises(PreconditionError):
            CycloSum(3, 1, {1: 1}) + CycloSum(5, 1, {1: 1})
        # but plain integers combine across primes
        assert CycloSum(3, 0, {0: 2}) + CycloSum(5, 0, {0: 3}) == 5

    @given(st.integers(0, 26), st.integers(0, 26))
    def test_root_product_adds_exponents(self, r1, r2):
        a = CycloSum.root(3, 3, r1)
        b = CycloSum.root(3, 3, r2)
        assert a * b == CycloSum.root(3, 3, (r1 + r2) % 27)

    @st.composite
    @staticmethod
    def cyclo_values(draw):
        p = draw(st.sampled_from([2, 3, 5]))
        k = draw(st.integers(0, 2))
        pk = p ** k
        n = draw(st.integers(0, 5))
        counts = {}
        for _ in range(n):
            r = draw(st.integers(0, pk - 1))
            counts[r] = counts.get(r, 0) + draw(st.integers(-9, 9))
        return CycloSum(p, k, counts, draw(st.integers(0, 2)))

    @given(cyclo_values(), cyclo_values())
    @settings(max_examples=200)
    def test_arithmetic_matches_complex_floats(self, a, b):
        if a.p != b.p:
            return
        za, zb = a.complex_value(), b.complex_value()
        assert cmath.isclose((a + b).complex_value(), za + zb, abs_tol=1e-9)
        assert cmath.isclose((a * b).complex_value(), za * zb, abs_tol=1e-9)
        assert cmath.isclose((-a).complex_value(), -za, abs_tol=1e-9)

    @given(cyclo_values())
    def test_canonical_is_idempotent_and_value_preserving(self, a):
        c = a.canonical()
        assert c.canonical() == c
        assert cmath.isclose(c.complex_value(), a.complex_value(), abs_tol=1e-9)
        if c.counts:
            pk = c.p ** c.k
            assert max(c.counts) < pk - pk // c.p or c.k == 0

    @given(cyclo_values())
    def test_conjugate(self, a):
        from qcl.expsums import cyclo_abs_sq
        assert a.conjugate().conjugate() == a
        assert cmath.isclose(a.conjugate().complex_value(),
                             a.complex_value().conjugate(), abs_tol=1e-9)
        sq = (a * a.conjugate()).canonical()
        expected = sq.to_fraction() if sq.is_rational() else sq.magnitude()
        assert cyclo_abs_sq(a) == expected
        assert math.isclose(float(cyclo_abs_sq(a)),
                            abs(a.complex_value()) ** 2, abs_tol=1e-9)

    @given(cyclo_values())
    def test_real_sign_matches_floats(self, a):
        re = a.complex_value().real
        if abs(re) > 1e-9:
            assert a.real_sign() == (1 if re > 0 else -1)
        elif (a + a.conjugate()).is_zero():
            assert a.real_sign() == 0

    def test_at_most_is_certified(self):
        # 2 + (2 - 2 cos(2 pi / 7^7)) = 2 + |1 - zeta|^2 exceeds 2 by about
        # 5.8e-11, inside the old 1e-9 relative float slack
        pk = 7 ** 7
        sq = CycloSum(7, 7, {0: 4, 1: -1, pk - 1: -1})
        assert sq.magnitude() <= float(Fraction(2)) * (1 + 1e-9)
        assert not sq.at_most(Fraction(2))
        assert sq.at_most(Fraction(2) + Fraction(1, 7 ** 11))
        assert CycloSum.from_int(2, 7).at_most(Fraction(2))
        assert not CycloSum.from_int(2, 7).at_most(Fraction(13, 7))

    @given(cyclo_values())
    def test_zero_test_matches_floats(self, a):
        if a.is_zero():
            assert abs(a.complex_value()) < 1e-9
        else:
            assert abs(a.complex_value()) > 1e-9


# p^k levels past the small ones above: odd primes, conductor up to 343
LEVELS = {3: (2, 3, 4), 5: (2, 3), 7: (2, 3)}


@st.composite
def cyclo_pairs(draw):
    """Two values of one prime at levels p^k in {9, 27, 81, 25, 125, 49,
    343}; the second may sit at another level of the same prime."""
    p = draw(st.sampled_from(sorted(LEVELS)))

    def value():
        k = draw(st.sampled_from(LEVELS[p]))
        pk = p ** k
        counts = {}
        for _ in range(draw(st.integers(0, 8))):
            r = draw(st.integers(0, pk - 1))
            counts[r] = counts.get(r, 0) + draw(st.integers(-50, 50))
        return CycloSum(p, k, counts, draw(st.integers(0, 3)))

    return value(), value()


def _form(v):
    return (v.p, v.k, v.scale, v.counts)


class TestCycloSumCanonicalProperties:
    @settings(max_examples=300, deadline=None)
    @given(cyclo_pairs())
    def test_idempotent(self, pair):
        for v in pair:
            c = v.canonical()
            assert c.canonical() is c
            # the form is a fixed point of the reduction itself, not only of
            # the mark that skips it
            fresh = CycloSum(c.p, c.k, c.counts, c.scale)
            assert _form(fresh.canonical()) == _form(c)

    @settings(max_examples=300, deadline=None)
    @given(cyclo_pairs())
    def test_preserves_value(self, pair):
        for v in pair:
            tol = sum(abs(c) for c in v.counts.values()) * 1e-12
            assert abs(v.canonical().complex_value()
                       - v.complex_value()) <= tol

    @settings(max_examples=300, deadline=None)
    @given(cyclo_pairs())
    def test_product_of_canonical_forms(self, pair):
        x, y = pair
        assert (_form((x * y).canonical())
                == _form((x.canonical() * y.canonical()).canonical()))

    @settings(max_examples=300, deadline=None)
    @given(cyclo_pairs())
    def test_commutes_with_conjugate(self, pair):
        for v in pair:
            assert (_form(v.conjugate().canonical())
                    == _form(v.canonical().conjugate().canonical()))


def _schoolbook_product(x, y):
    """The earlier CycloSum product: one dict update per pair of terms."""
    p = x.p
    k = max(x.k, y.k)
    pk = p ** k
    sa = p ** (k - x.k)
    sb = p ** (k - y.k)
    out = {}
    for r1, c1 in x.counts.items():
        for r2, c2 in y.counts.items():
            r = (r1 * sa + r2 * sb) % pk
            out[r] = out.get(r, 0) + c1 * c2
    return CycloSum(p, k, out, x.scale + y.scale)


@st.composite
def product_operands(draw):
    """Two values of one prime p in {2, 3, 5, 7} at levels 0..4, with
    negative coefficients, coefficients past 2^64, empty supports and
    nonzero scales; some supports fill every exponent of a small level."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    size = draw(st.sampled_from([2, 2 ** 20, 2 ** 64, 2 ** 200]))

    def value():
        k = draw(st.integers(0, 4))
        pk = p ** k
        coeff = st.integers(-size, size)
        if pk <= 27 and draw(st.booleans()):
            counts = {r: draw(coeff) for r in range(pk)}
        else:
            counts = draw(st.dictionaries(st.integers(0, pk - 1), coeff,
                                          max_size=12))
        return CycloSum(p, k, counts, draw(st.integers(0, 3)))

    return value(), value()


class TestCycloSumProduct:
    @settings(max_examples=400, deadline=None)
    @given(product_operands())
    def test_matches_schoolbook(self, pair):
        x, y = pair
        assert _form(x * y) == _form(_schoolbook_product(x, y))
        assert _form(y * x) == _form(_schoolbook_product(y, x))

    def test_extreme_digits(self):
        # every folded coefficient at the bound B = max|a| sum|b|
        for c in (1, 255, 2 ** 64 - 1, -(2 ** 64)):
            x = CycloSum(3, 2, {r: c for r in range(9)})
            y = CycloSum(3, 1, {0: c, 1: c, 2: c}, 1)
            for a, b in ((x, x), (x, y), (y, x), (x, -x)):
                assert _form(a * b) == _form(_schoolbook_product(a, b))

    def test_empty_operand(self):
        z = CycloSum(5, 0, {}, 2)
        v = CycloSum(5, 3, {7: 3}, 1)
        assert _form(z * v) == (5, 3, 3, {})
        assert _form(v * z) == (5, 3, 3, {})
