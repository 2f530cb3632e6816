import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qcl.algebra import (
    HQ_I, HQ_J, HQ_OMEGA, HQ_ONE,
    CycloSum, HurwitzQuat,
    adj_flat, cos_fixed, count_dtype, det_flat, doubled_mul_flat, exact_dot,
    hq_from_basis_coords, hq_to_basis_coords,
    mat_mul_flat, pi_fixed, quat_mul_flat, trace_flat, zero_mass,
)
from qcl.errors import PreconditionError, VerificationError
from qcl.padic import smallest_nonresidue

HQ_K = HurwitzQuat(0, 0, 0, 2)  # k, in doubled coordinates


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

    def test_content_and_primitivity(self):
        assert HurwitzQuat.from_true(2, 4, 6, 8).content() == 2
        assert (HQ_OMEGA * 2).content() == 2
        assert HurwitzQuat(2, 2, 2, 2).content() == 2  # equals 2*omega
        assert HurwitzQuat.from_true(1, 1, 0, 0).is_primitive()
        assert HQ_OMEGA.is_primitive()
        # all even but mixed halved parity: (2,0,0,0)/2 = 1 is integral,
        # while (2,2,0,0)/2 = 1+i is too; check a genuinely primitive one
        assert HurwitzQuat(2, 0, 2, 4).content() == 1

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
        def sup_norm(x):
            return Fraction(max(abs(c) for c in x.c), 2)

        if not (a.is_zero() or b.is_zero()):
            assert sup_norm(a * b) <= 4 * sup_norm(a) * sup_norm(b)


# -- local division order ----------------------------------------------------

def local_mul(x, y, p, N):
    """The local division order's product (u, p) = (smallest non-residue,
    p) on the basis (1, s, P, sP), reduced mod p^N."""
    return tuple(t % p ** N for t in
                 quat_mul_flat(x, y, smallest_nonresidue(p), p))


def local_nrd(z, p, N):
    z1, z2, z3, z4 = z
    u = smallest_nonresidue(p)
    return (z1 * z1 - u * z2 * z2 - p * z3 * z3 + p * u * z4 * z4) % p ** N


def local_conj(z):
    return (z[0], -z[1], -z[2], -z[3])


class TestNonsplitLocalElem:
    """Laws of the local division order at odd p, the algebra (u, p) of
    `quat_mul_flat`: s^2 = u, P^2 = p and Ps = -sP."""

    S, P = (0, 1, 0, 0), (0, 0, 1, 0)

    def test_uniformizer_squares_to_p(self):
        for p, N in [(3, 3), (5, 2), (7, 2)]:
            assert local_mul(self.P, self.P, p, N) == (p % p ** N, 0, 0, 0)

    def test_twist_relation(self):
        # P * sqrt(u) = -sqrt(u) * P at precision 3^3
        p, N = 3, 3
        m = p ** N
        assert local_mul(self.P, self.S, p, N) == tuple(
            -t % m for t in local_mul(self.S, self.P, p, N))
        assert local_mul(self.S, self.S, p, N) == (smallest_nonresidue(p),
                                                   0, 0, 0)

    def test_norm_formula_matches_conjugate_product(self):
        p, N = 5, 2
        m = p ** N
        rng = random.Random(7)
        for _ in range(50):
            x = tuple(rng.randrange(m) for _ in range(4))
            assert local_mul(x, local_conj(x), p, N) == (
                local_nrd(x, p, N), 0, 0, 0)

    def test_norm_multiplicative(self):
        p, N = 3, 3
        m = p ** N
        rng = random.Random(11)
        for _ in range(50):
            x = tuple(rng.randrange(m) for _ in range(4))
            y = tuple(rng.randrange(m) for _ in range(4))
            assert local_nrd(local_mul(x, y, p, N), p, N) == (
                local_nrd(x, p, N) * local_nrd(y, p, N) % m)

    def test_even_prime_rejected(self):
        # 2 has no non-residue, so there is no u for the algebra (u, 2)
        with pytest.raises(PreconditionError):
            smallest_nonresidue(2)


class TestProductOnColumns:
    @pytest.mark.parametrize("a,b", [(-1, -1), (2, 3), (3, 7), (-5, 11)])
    def test_int_and_int64_columns_agree(self, a, b):
        rng = random.Random(a * 100 + b)
        rows = [[tuple(rng.randrange(-999, 1000) for _ in range(4))
                 for _ in range(64)] for _ in range(2)]
        x, y = (tuple(np.array(r, dtype=np.int64).T) for r in rows)
        cols = np.stack(quat_mul_flat(x, y, a, b), axis=1)
        assert cols.dtype == np.int64
        assert cols.tolist() == [list(quat_mul_flat(r, t, a, b))
                                 for r, t in zip(*rows)]

    def test_doubled_product_on_columns_keeps_the_parity_guard(self):
        box = [hq_from_basis_coords((a, b, c, d)).c
               for a, b, c, d in [(1, 2, 3, 4), (0, 0, 0, 1), (5, -3, 2, 7)]]
        g = tuple(np.array(box, dtype=np.int64).T)
        got = np.stack(doubled_mul_flat(g, g), axis=1).tolist()
        assert got == [list((HurwitzQuat(*c) * HurwitzQuat(*c)).c)
                       for c in box]
        # doubled (1, 0, 0, 0) is no Hurwitz quaternion: its square is odd
        odd = tuple(np.array([[1, 0, 0, 0], [2, 0, 0, 0]]).T)
        with pytest.raises(VerificationError):
            doubled_mul_flat(odd, odd)
        with pytest.raises(VerificationError):
            doubled_mul_flat((1, 0, 0, 0), (1, 0, 0, 0))


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
        assert v.k == 1 and v.v == (2, 7, 0, 0, 0)

    def test_rational_detection(self):
        # zeta_9^3 + zeta_9^6 = -1
        v = CycloSum(3, 2, {3: 1, 6: 1})
        assert v.is_rational()
        assert v.to_fraction() == -1

    def test_scale_arithmetic(self):
        assert CycloSum(3, 0, {0: 1}, 2).to_fraction() == Fraction(1, 9)

    def test_mixed_prime_rejected(self):
        with pytest.raises(PreconditionError):
            CycloSum(3, 1, {1: 1}) + CycloSum(5, 1, {1: 1})

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
        pk = len(c.v)
        assert pk == c.p ** c.k
        assert c.k == 0 or not any(c.v[pk - pk // c.p:])

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

    @pytest.mark.parametrize("n", [3, 5, 7, 9, 25, 27, 49, 125, 7 ** 7])
    def test_fixed_point_cosines_are_within_one(self, n):
        # the t_r of real_sign against mpmath, 40 bits past the precision
        import mpmath

        rng = random.Random(n)
        rs = sorted({*range(min(n, 130)), n - 1, n // 2, n // 4, 3 * n // 4,
                     *(rng.randrange(n) for _ in range(60))})
        for prec in (64, 128, 1024):
            with mpmath.workprec(prec + 40):
                for r in rs:
                    exact = mpmath.ldexp(mpmath.cospi(mpmath.mpf(2 * r) / n),
                                         prec)
                    assert abs(cos_fixed(r, n, prec) - exact) <= 1, (r, prec)

    def test_fixed_point_pi_is_within_two(self):
        import mpmath

        for bits in (0, 1, 7, 64, 700, 3000, 100):   # the last from the memo
            with mpmath.workprec(bits + 40):
                assert abs(pi_fixed(bits) - mpmath.ldexp(mpmath.pi, bits)) < 2

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
    return (v.p, v.k, v.scale, v.v)


class TestCycloSumCanonicalProperties:
    @settings(max_examples=300, deadline=None)
    @given(cyclo_pairs())
    def test_idempotent(self, pair):
        for v in pair:
            c = v.canonical()
            assert c.canonical() is c
            # the form is a fixed point of the reduction itself, not only of
            # the mark that skips it
            fresh = CycloSum(c.p, c.k, c.v, c.scale)
            assert _form(fresh.canonical()) == _form(c)

    @settings(max_examples=300, deadline=None)
    @given(cyclo_pairs())
    def test_preserves_value(self, pair):
        for v in pair:
            tol = sum(map(abs, v.v)) * 1e-12
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


# -- the dict form, kept as the oracle of the dense one ----------------------


def _nonzero(x):
    """{r: v[r]} over the nonzero coefficients of a CycloSum."""
    return {r: c for r, c in enumerate(x.v) if c}


def _dict_form(x):
    return (x.p, x.k, x.scale, _nonzero(x))


def _dict_canonical(p, k, scale, counts):
    """The earlier canonical form of p^(-scale) sum counts[r] e(r / p^k) on
    an {exponent: count} dict, as (p, k, scale, counts)."""
    counts = {r: c for r, c in counts.items() if c}
    while k:
        pk1 = p ** (k - 1)
        top = (p - 1) * pk1
        for r in [r for r in counts if r >= top]:
            c = counts.pop(r)
            base = r % pk1
            for t in range(p - 1):
                rr = base + t * pk1
                counts[rr] = counts.get(rr, 0) - c
        counts = {r: c for r, c in counts.items() if c}
        if not counts or any(r % p for r in counts):
            break
        counts = {r // p: c for r, c in counts.items()}  # drop conductor
        k -= 1
    if not counts:
        return (p, 0, 0, {})
    while scale > 0 and all(c % p == 0 for c in counts.values()):
        counts = {r: c // p for r, c in counts.items()}
        scale -= 1
    return (p, k, scale, counts)


def _dict_cyclic_product(a, sa, b, sb, n):
    """The earlier `_cyclic_product` on {r: c} dicts with nonzero counts:
    {r: c}, c != 0, by the same Kronecker substitution."""
    if not a or not b:
        return {}
    absa = [abs(c) for c in a.values()]
    absb = [abs(c) for c in b.values()]
    bound = min(max(absa) * sum(absb), sum(absa) * max(absb))
    width = ((bound + 1).bit_length() + 8) // 8
    bits = 8 * width

    def evaluate(d, s):
        pos, neg = bytearray(n * width), bytearray(n * width)
        for r, c in d.items():
            at = r * s * width
            (pos if c > 0 else neg)[at:at + width] = abs(c).to_bytes(
                width, "little")
        return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")

    prod = evaluate(a, sa) * evaluate(b, sb)
    span = n * bits
    modulus = (1 << span) - 1
    half = 1 << (bits - 1)
    offset = modulus // ((1 << bits) - 1) * half
    folded = ((prod & modulus) + (prod >> span) + offset) % modulus
    raw = folded.to_bytes(n * width, "little")
    out = {}
    for r in range(n):
        c = int.from_bytes(raw[r * width:(r + 1) * width], "little") - half
        if c:
            out[r] = c
    return out


def _dict_lift(p, k, scale, x):
    """x's counts as a dict at level k and scale scale >= x.scale."""
    mult, shift = p ** (scale - x.scale), p ** (k - x.k)
    return {r * shift: c * mult for r, c in _nonzero(x).items()}


@st.composite
def dict_oracle_pairs(draw):
    """Two values of one prime p in {2, 3, 5, 7}: each dense (every exponent
    drawn) at level k <= 3, or sparse (at most 3 entries) at k <= 7; the
    coefficients carry a drawn power of p, so the scale can strip."""
    p = draw(st.sampled_from([2, 3, 5, 7]))

    def value():
        if draw(st.booleans()):
            k = draw(st.integers(0, 3))
            counts = {r: draw(st.integers(-30, 30)) for r in range(p ** k)}
        else:
            k = draw(st.integers(0, 7))
            counts = draw(st.dictionaries(st.integers(0, p ** k - 1),
                                          st.integers(-30, 30), max_size=3))
        unit = p ** draw(st.integers(0, 2))
        return (p, k, {r: c * unit for r, c in counts.items()},
                draw(st.integers(0, 3)))

    return value(), value()


def _stored(x):
    """x, after checking that it stores p^k coefficients."""
    assert isinstance(x.v, tuple) and len(x.v) == x.p ** x.k
    return x


class TestDenseAgainstDict:
    @settings(max_examples=150, deadline=None)
    @given(dict_oracle_pairs())
    def test_canonical(self, pair):
        for p, k, counts, s in pair:
            v = _stored(CycloSum(p, k, counts, s))
            c = _stored(v.canonical())
            assert _dict_form(c) == _dict_canonical(p, k, s, counts)
            # a canonical value is a fixed point of the reduction itself
            assert c.canonical() is c
            fresh = CycloSum(c.p, c.k, c.v, c.scale)
            assert _form(_stored(fresh.canonical())) == _form(c)

    @settings(max_examples=150, deadline=None)
    @given(dict_oracle_pairs())
    def test_sum_and_difference(self, pair):
        x, y = (CycloSum(*t) for t in pair)
        p, k, s = x.p, max(x.k, y.k), max(x.scale, y.scale)
        a, b = _dict_lift(p, k, s, x), _dict_lift(p, k, s, y)
        for got, sign in ((x + y, 1), (x - y, -1)):
            want = dict(a)
            for r, c in b.items():
                want[r] = want.get(r, 0) + sign * c
            assert _dict_form(_stored(got)) == (
                p, k, s, {r: c for r, c in want.items() if c})
            assert _dict_form(_stored(got.canonical())) == _dict_canonical(
                p, k, s, want)

    @settings(max_examples=60, deadline=None)
    @given(dict_oracle_pairs())
    def test_product(self, pair):
        from qcl.algebra import _cyclic_product
        x, y = (CycloSum(*t) for t in pair)
        p, k = x.p, max(x.k, y.k)
        sa, sb = p ** (k - x.k), p ** (k - y.k)
        raw = _cyclic_product(x.v, sa, y.v, sb, p ** k)
        assert isinstance(raw, list) and len(raw) == p ** k
        want = _dict_cyclic_product(_nonzero(x), sa, _nonzero(y), sb, p ** k)
        assert {r: c for r, c in enumerate(raw) if c} == want
        prod = _stored(x * y)
        assert _dict_form(_stored(prod.canonical())) == _dict_canonical(
            p, k, x.scale + y.scale, want)
        assert _dict_form(_stored(x.conjugate())) == (
            p, x.k, x.scale,
            {(-r) % p ** x.k: c for r, c in _nonzero(x).items()})


def _schoolbook_product(x, y):
    """The earlier CycloSum product: one dict update per pair of terms."""
    p = x.p
    k = max(x.k, y.k)
    pk = p ** k
    sa = p ** (k - x.k)
    sb = p ** (k - y.k)
    out = {}
    for r1, c1 in _nonzero(x).items():
        for r2, c2 in _nonzero(y).items():
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
        assert _form(z * v) == (5, 3, 3, (0,) * 125)
        assert _form(v * z) == (5, 3, 3, (0,) * 125)

    def test_ten_thousand_terms(self):
        # an operand of 10^4 terms at level 2 times one of 40 at level 1
        rng = random.Random(22)
        x = CycloSum(101, 2, {r: rng.randint(-2 ** 70, 2 ** 70)
                              for r in rng.sample(range(101 ** 2), 10 ** 4)})
        y = CycloSum(101, 1, {r: rng.randint(-9, 9) or 1
                              for r in rng.sample(range(101), 40)}, 2)
        assert len(_nonzero(x)) == 10 ** 4
        assert _form(x * y) == _form(_schoolbook_product(x, y))


# -- exact counts --------------------------------------------------------------


class TestExactDot:
    @pytest.mark.parametrize("low,dtype", [(2 ** 62 - 1, "int64"),
                                           (2 ** 62, object)])
    def test_both_sides_of_the_int64_bound(self, low, dtype):
        # a = (2^62, low) against b = (1, 1): min(max a * mass b, mass a *
        # max b) = 2^62 + low, which is the dot product itself
        a = np.array([2 ** 62, low], dtype=np.int64)
        b = np.ones(2, dtype=np.int64)
        mass_a = 2 ** 62 + low
        assert count_dtype(a, mass_a, b, 2) == dtype
        assert exact_dot(a, b, mass_a, 2) == exact_dot(b, a, 2, mass_a) \
            == 2 ** 62 + low
        if dtype is object:  # int64 would have wrapped
            assert int(a.dot(b)) < 0

    def test_single_product_past_int64(self):
        a = np.array([2 ** 62], dtype=np.int64)
        b = np.array([4], dtype=np.int64)
        assert exact_dot(a, b, 2 ** 62, 4) == 2 ** 64

    def test_empty(self):
        empty = np.zeros(0, dtype=np.int64)
        assert exact_dot(empty, empty, 0, 0) == 0


def _cyclic_convolve(a, b, m=7):
    """Convolution of two {residue mod m: count} histograms."""
    out = {}
    for x, u in a.items():
        for y, v in b.items():
            out[(x + y) % m] = out.get((x + y) % m, 0) + u * v
    return out


class TestZeroMass:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.integers(0, 2), min_size=2, max_size=12), st.data())
    def test_matches_left_fold(self, slots, data):
        hists = [data.draw(st.dictionaries(st.integers(0, 6),
                                           st.integers(1, 5), min_size=1))
                 for _ in range(3)]
        dists = [hists[i] for i in slots]
        acc = {0: 1}
        for d in dists:
            acc = _cyclic_convolve(acc, d)
        assert zero_mass(dists, _cyclic_convolve,
                         lambda a, b: _cyclic_convolve(a, b).get(0, 0)) \
            == acc.get(0, 0)
        # on symbols: every node is a distinct sub-multiset of the slots
        leaves = [(i,) for i in range(3)]
        nodes = []

        def convolve(a, b):
            nodes.append(tuple(sorted(a + b)))
            return nodes[-1]

        top = zero_mass([leaves[i] for i in slots], convolve,
                        lambda a, b: tuple(sorted(a + b)))
        assert top == tuple(sorted(slots))
        assert len(set(nodes)) == len(nodes) <= len(slots) - 1

    def test_grouped_by_first_appearance(self):
        # symbols for histograms: the tree's shape as nested tuples
        a, b = ["a"], ["b"]
        seen = []

        def convolve(x, y):
            seen.append((x, y))
            return ("*", x, y)

        zero_mass([b, a, b, a, b], convolve, lambda x, y: (x, y))
        assert seen == [(b, a), (b, ("*", b, a))]
        seen.clear()
        zero_mass([a, b, a, b], convolve, lambda x, y: (x, y))
        assert seen == [(a, b)]
