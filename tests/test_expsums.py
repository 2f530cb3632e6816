import itertools
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from sympy import Matrix

from qcl import expsums
from qcl.algebra import (
    FLAT_UNITS, CycloSum, adj_flat, det_flat, mat_mul_flat, trace_flat,
)
from qcl.densities import split_square_distribution
from qcl.errors import BudgetError, PreconditionError, VerificationError
from qcl.expsums import (
    _BLOCK_ROWS, _cyclic_generator, _grid_blocks,
    _image_generator, _join_two_slots, _measure, _right_image, _slot_box,
    _slot_histogram, _slot_solutions, _slot_static,
    cyclo_abs_sq, grid_linear_keys, grid_square_keys, i0_local,
    left_mul_matrix, local_integral_audit,
    matrix_cyclic_generator, prime_case_report,
    right_mul_matrix, s2_brute, s2_closed,
    s3_brute, s3_closed, split_primitive_part, w_class_sum_report,
    witness_report, x2_count,
)
from qcl.geometry import hessian_matrix
from qcl.padic import line_key, pval, punit


# The dense whole-grid forms that the blocked kernels replaced, kept as their
# oracles: enumerate every flat Y mod q as one (q^4, 4) array, square it,
# apply L by matmul, and count with np.unique or one dense bincount.


def all_mats(q):
    """(q^4, 4) int64 array enumerating flat 2x2 matrices mod q."""
    if q ** 4 > 10 ** 7:
        raise BudgetError(f"matrix enumeration {q}^4 exceeds budget")
    return np.indices((q, q, q, q), dtype=np.int64).reshape(4, -1).T


def _pack(rows, q):
    """Pack residues mod q along the last axis (length 4) into scalar keys;
    the packed order is the lexicographic order of the 4-tuples, the grid
    order that `expsums._unpack` inverts."""
    return (((rows[..., 0] * q + rows[..., 1]) * q + rows[..., 2]) * q
            + rows[..., 3])


def mat_square_flat(y, q):
    """Flat entries of Y^2 mod q for an (N,4) array of flat Y."""
    a, b, c, d = y[:, 0], y[:, 1], y[:, 2], y[:, 3]
    bc = b * c % q
    apd = (a + d) % q
    return np.stack([(a * a + bc) % q, b * apd % q, c * apd % q,
                     (d * d + bc) % q], axis=1)


def _trace_pair(rows, m, q):
    """tr(M Y) mod q for an (N,4) array of flat Y, elementwise in int64."""
    c = [t % q for t in (m[0], m[2], m[1], m[3])]
    return (rows[:, 0] * c[0] + rows[:, 1] * c[1] + rows[:, 2] * c[2]
            + rows[:, 3] * c[3]) % q


def i0_brute(delta, gammas, p, coeffs=None, level=None):
    """Independent slow reference for i0_local (tiny inputs only), averaged
    over Y mod p^level, by default p^vd with vd = v_p(det delta)."""
    n = len(gammas)
    det = det_flat(delta)
    vd = pval(det, p)
    if vd == 0:
        return CycloSum.from_int(1, p)
    level = vd if level is None else level
    q, qc = p ** level, p ** vd
    if q ** (4 * n) > 10 ** 7:
        raise BudgetError("brute reference too large")
    if coeffs is None:
        coeffs = [1] * n
    adj = adj_flat(delta)
    inv_u = pow(punit(det, p, p ** (vd + 1)), -1, qc)
    counts = {}
    for ys in itertools.product(range(q), repeat=4 * n):
        s = (0, 0, 0, 0)
        ph = 0
        for i in range(n):
            yi = ys[4 * i:4 * i + 4]
            sq = mat_mul_flat(yi, yi)
            s = tuple((s[t] + coeffs[i] * sq[t]) % qc for t in range(4))
            g = gammas[i]
            ph += g[0] * yi[0] + g[2] * yi[1] + g[1] * yi[2] + g[3] * yi[3]
        cond = mat_mul_flat(adj, s)
        if all(t % qc == 0 for t in cond):
            r = ph * inv_u % qc
            counts[r] = counts.get(r, 0) + 1
    return CycloSum(p, vd, counts, scale=4 * n * level)


def phase_integral_z(zmat, delta, gammas, p, coeffs=None, budget=10 ** 7):
    """The unconstrained companion integral: average over Y in O^n of
    e(tr(Z adj(delta) P(Y)) + trd(gamma . Y)) / det(delta)). Factors over
    slots, so it is a product of single-slot sums."""
    det = det_flat(delta)
    vd = pval(det, p)
    if vd == 0:
        return CycloSum.from_int(1, p)
    q = p ** vd
    if q ** 4 > budget:
        raise BudgetError("enumeration exceeds budget")
    n = len(gammas)
    if coeffs is None:
        coeffs = [1] * n
    inv_u = pow(punit(det, p, p ** (vd + 1)), -1, q)
    zadj = mat_mul_flat(zmat, adj_flat(delta))
    y = all_mats(q)
    acc = CycloSum.from_int(1, p)
    for i, g in enumerate(gammas):
        s = mat_square_flat(y, q) * (coeffs[i] % q) % q
        r = (_trace_pair(s, zadj, q) + _trace_pair(y, g, q)) % q * inv_u % q
        counts = np.bincount(r, minlength=q)
        slot = CycloSum(p, vd, {int(t): int(c) for t, c in enumerate(counts) if c},
                        scale=4 * vd)
        acc = acc * slot
    return acc


def nonabelian_gauss_integral(zmat, p, k, budget=10 ** 7):
    """Exact value of p^{-4k} sum_{Y mod p^k} e(tr(Y^2 zmat) / p^k).

    `zmat` is a flat integer matrix; the actual argument has denominator p^k.
    """
    if k < 0:
        raise PreconditionError("level must be non-negative")
    if k == 0:
        return CycloSum.from_int(1, p)
    q = p ** k
    if q ** 4 > budget:
        raise BudgetError("level too large")
    y = all_mats(q)
    s = mat_square_flat(y, q)
    # tr(S zmat) with S = Y^2
    counts = np.bincount(_trace_pair(s, zmat, q), minlength=q)
    return CycloSum(p, k, {int(i): int(c) for i, c in enumerate(counts) if c},
                    scale=4 * k)


def quadratic_magnitude_expected_sq(zmat, p, k):
    """Predicted |integral|^2 for `nonabelian_gauss_integral` when p is odd
    and |tr Z| >= 1 (Z = zmat / p^k):

        |I| = |tr Z|^{-1/2} max(|tr Z * det Z|, ||Z||^2)^{-1/2}.

    Returns a Fraction, or None when the hypothesis fails.
    """
    if p == 2:
        return None
    tr = trace_flat(zmat)
    vtr = pval(tr, p, cap=10 * k + 1)
    if vtr > k:  # |tr Z| < 1
        return None
    det = det_flat(zmat)
    vdet = pval(det, p, cap=10 * k + 1)
    vmin = min(pval(t, p, cap=10 * k + 1) for t in zmat)
    # p-adic sizes as exponents of p
    e_tr = k - vtr
    e_det = 2 * k - vdet
    e_norm = k - vmin
    e = -e_tr - max(e_tr + e_det, 2 * e_norm)
    return Fraction(p) ** e


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


def hessian_pair(zmat):
    """The symmetric matrix J of the quadratic form tr(Y^2 Z) (so that
    tr(Y^2 Z) = (1/2) y^T J y with y = (y00, y01, y10, y11)) and a
    companion transform R with

        R^T J R = 2 tr(Z) diag(1, -1, 1, det Z),   det R = 2 tr(Z).

    Returns (J, R, cert) with exact integer certificates.
    """
    z00, z01, z10, z11 = zmat
    J = hessian_matrix(zmat)
    R = [[0, 0, 1, -z11],
         [1, 1, 0, z01],
         [1, -1, 0, z10],
         [0, 0, -1, -z00]]
    r = z00 + z11
    det_z = det_flat(zmat)
    target = [[2 * r, 0, 0, 0], [0, -2 * r, 0, 0],
              [0, 0, 2 * r, 0], [0, 0, 0, 2 * r * det_z]]
    jr = [[sum(J[i][t] * R[t][j] for t in range(4)) for j in range(4)]
          for i in range(4)]
    rjr = [[sum(R[t][i] * jr[t][j] for t in range(4)) for j in range(4)]
           for i in range(4)]
    if rjr != target:
        raise VerificationError("congruence transform certificate failed")
    det_r = int(Matrix(R).det())
    if det_r != 2 * r:
        raise VerificationError("transform determinant certificate failed")
    # the form itself: check tr(Y^2 Z) = (1/2) y^T J y on a basis of pairs
    for y in itertools.product((0, 1, 2), repeat=4):
        s = mat_mul_flat(y, y)
        lhs = 2 * (s[0] * z00 + s[1] * z10 + s[2] * z01 + s[3] * z11)
        rhs = sum(y[i] * J[i][j] * y[j] for i in range(4) for j in range(4))
        if lhs != rhs:
            raise VerificationError("hessian certificate failed")
    return J, R, {"det_r": det_r, "trace": r, "det_z": det_z}


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

    def test_base_one_refused(self):
        # its valuations at p = 1 looped forever
        with pytest.raises(PreconditionError):
            i0_local((25, 0, 0, 1), [(0, 0, 0, 0)], 1)

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
        delta = (p, 1, 0, 1)
        assert pval(det_flat(delta), p) == 1
        rng = random.Random(5)
        for _ in range(4):
            gammas = [tuple(rng.randrange(p ** 2) for _ in range(4))]
            a = i0_local(delta, gammas, p)
            b = i0_brute(delta, gammas, p, level=2)
            assert (a - b).is_zero()

    def test_unit_coefficients(self):
        p = 3
        delta = (p, 0, 0, 1)
        g = [(1, 2, 0, 1)]
        a = i0_local(delta, g, p, coeffs=[2])
        b = i0_brute(delta, g, p, coeffs=[2])
        assert (a - b).is_zero()

    @pytest.mark.parametrize("n,coeffs", [(1, [1, 2]), (2, [1]), (1, [])])
    def test_one_coefficient_per_slot(self, n, coeffs):
        with pytest.raises(PreconditionError,
                           match="need one coefficient per slot"):
            i0_local((3, 0, 0, 1), [(1, 2, 0, 1)] * n, 3, coeffs=coeffs)

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
        assert (acc * Fraction(1, p ** 4) - direct).is_zero()


def w_measure(m0, eta, p):
    """The measure factor for a witness matrix m0 against primitive eta."""
    gen, m = matrix_cyclic_generator(eta, p)
    return _measure([t % m for t in mat_mul_flat(m0, eta)], gen, m, p)


def right_image_histogram(b, m):
    """hist[pack(w)] = #{Z mod m : Z b = w}, over all packed w mod m."""
    w = all_mats(m) @ (right_mul_matrix(b) % m).T % m
    return np.bincount(_pack(w, m), minlength=m ** 4)


def dense_measure_table(gen, m):
    """table[pack(t)] = #{Z mod m : t in (Z/m) * Z gen} for every t mod m,
    as one dense m^4 table: add the count of each distinct w = Z gen to
    the distinct elements lam * w, 0 <= lam < ord(w), of its span."""
    hist = right_image_histogram(gen, m)
    ws = np.flatnonzero(hist)
    rows = expsums._unpack(ws, m)
    order = m // np.gcd.reduce(rows, axis=1, initial=m)
    lam = np.arange(m)
    span = _pack(lam[None, :, None] * rows[:, None, :] % m, m)
    live = lam[None, :] < order[:, None]
    table = np.zeros(m ** 4, dtype=np.int64)
    np.add.at(table, span[live],
              np.broadcast_to(hist[ws][:, None], span.shape)[live])
    return table


def measure_as_dense(gen, m, p):
    """`_measure` of every packed target mod m, times m^4, as one dense
    table in the layout of `dense_measure_table`."""
    return np.array([_measure(t, gen, m, p) * m ** 4
                     for t in itertools.product(range(m), repeat=4)],
                    dtype=np.int64)


def w_histogram(gen, m):
    """Distinct w = Z gen over all Z mod m, with how many Z give each."""
    w = (all_mats(m) @ (right_mul_matrix(gen) % m).T) % m
    return np.unique(w, axis=0, return_counts=True)


def measure_oracle(target, hist, m):
    """#{Z mod m : target in (Z/m) * Z gen}, one target at a time: try every
    scalar lam on every distinct w of `hist` = w_histogram(gen, m)."""
    rows, counts = hist
    t = np.array(target, dtype=np.int64) % m
    ok = np.zeros(len(rows), dtype=bool)
    for lam in range(m):
        ok |= ((lam * rows - t) % m == 0).all(axis=1)
    return int(counts[ok].sum())


# (p, eta) with m = p^v_p(det eta) in {3, 5, 9}
SMALL_ETAS = [(3, (3, 0, 0, 1)), (3, (1, 1, -2, 1)), (5, (5, 0, 0, 1)),
              (5, (1, 1, -4, 1)), (3, (9, 0, 0, 1)), (3, (3, 1, 0, 3))]


def class_sum_closed(p, v):
    """(classes, total, bound) of `w_class_sum_report` at v = v_p(det eta):
    1 + (p + 1)(p^v - 1)/(p - 1) classes, of total measure
    v + 1 - (p^(2v) - 1)/(p^(2v) (p^2 - 1)), against the bound v + 1."""
    return (1 + (p + 1) * (p ** v - 1) // (p - 1),
            v + 1 - Fraction(p ** (2 * v) - 1, p ** (2 * v) * (p * p - 1)),
            v + 1)


class TestWitnessMeasure:
    # plus m = 8 at p = 2 and m = 7 at p = 7
    @pytest.mark.parametrize("p,eta", SMALL_ETAS + [(2, (1, 1, -7, 1)),
                                                    (7, (1, 2, -3, 1))])
    def test_table_matches_oracle_on_every_target(self, p, eta):
        gen, m = matrix_cyclic_generator(eta, p)
        table = dense_measure_table(gen, m)
        hist = w_histogram(gen, m)
        for key, t in enumerate(itertools.product(range(m), repeat=4)):
            want = measure_oracle(t, hist, m)
            assert table[key] == want
            assert _measure(t, gen, m, p) == Fraction(want, m ** 4)

    @pytest.mark.parametrize("delta", [(25, 0, 0, 1), (5, 1, 0, 5)])
    def test_table_matches_oracle_m25(self, delta):
        p = 5
        _, eta = split_primitive_part(delta, p)
        gen, m = matrix_cyclic_generator(eta, p)
        assert m == 25
        table = measure_as_dense(gen, m, p)
        assert np.array_equal(table, dense_measure_table(gen, m))
        hist = w_histogram(gen, m)
        rng = random.Random(25)
        targets = [mat_mul_flat(tuple(rng.randrange(m) for _ in range(4)), eta)
                   for _ in range(15)]
        targets += [tuple(rng.randrange(m) for _ in range(4)) for _ in range(15)]
        for t in targets:
            want = measure_oracle(t, hist, m)
            key = _pack(np.array(t) % m, m)
            assert table[key] == want
            assert _measure(tuple(x % m for x in t), gen, m, p) == Fraction(
                want, m ** 4)
        assert w_measure((1, 0, 0, 1), eta, p) == Fraction(
            measure_oracle(eta, hist, m), m ** 4)

    @pytest.mark.parametrize("p,eta", SMALL_ETAS + [(5, (25, 0, 0, 1))])
    def test_generator_orbit_is_the_image(self, p, eta):
        gen, m = matrix_cyclic_generator(eta, p)
        image = {tuple(x % m for x in mat_mul_flat(mat_mul_flat(adj_flat(eta), y), eta))
                 for y in map(tuple, all_mats(m).tolist())}
        assert {tuple(lam * x % m for x in gen) for lam in range(m)} == image
        assert len(image) == m

    @pytest.mark.parametrize("p,eta", SMALL_ETAS)
    def test_measure_invariant_under_unit_scaling(self, p, eta):
        gen, m = matrix_cyclic_generator(eta, p)
        table = measure_as_dense(gen, m, p)
        for u in range(2, m):
            if u % p:
                scaled = tuple(u * x % m for x in gen)
                assert np.array_equal(measure_as_dense(scaled, m, p), table)

    def test_non_cyclic_image_raises(self):
        # rank 2: the span of E00 and E11 is not cyclic
        cmat = np.diag([1, 0, 0, 1]).astype(np.int64)
        with pytest.raises(VerificationError):
            _cyclic_generator(cmat, 3, 3)
        # no unit entry: the span has no element of order m
        with pytest.raises(VerificationError):
            _cyclic_generator(3 * left_mul_matrix((1, 2, 0, 1)), 9, 3)

    def test_generator_cache_keeps_moduli_apart(self):
        # diag(3, 1) and diag(9, 1) agree mod their own moduli
        assert matrix_cyclic_generator((3, 0, 0, 1), 3)[1] == 3
        assert matrix_cyclic_generator((9, 0, 0, 1), 3)[1] == 9

    @pytest.mark.parametrize("m,p", [(1, 3), (3, 3), (9, 3), (25, 5)])
    def test_class_key_is_a_unit_multiple_shared_by_the_class(self, m, p):
        k = pval(m, p)
        rng = random.Random(m)
        units = [u for u in range(1, max(m, 2)) if u % p]
        for _ in range(20):
            t = tuple(rng.randrange(m) for _ in range(4))
            key = line_key(t, p, k)
            assert key in {tuple(u * x % m for x in t) for u in units}
            for u in units:
                assert line_key(tuple(u * x % m for x in t), p, k) == key

    def test_cyclic_generator_diag(self):
        gen, m = matrix_cyclic_generator((3, 0, 0, 1), 3)
        assert m == 3
        orbit = {tuple(lam * t % 3 for t in gen) for lam in range(3)}
        assert len(orbit) == 3

    def test_unit_eta(self):
        gen, m = matrix_cyclic_generator((1, 0, 0, 1), 3)
        assert m == 1
        assert w_measure((1, 2, 3, 4), (1, 0, 0, 1), 3) == 1

    # every primitive part of the deltas of `local_integral_audit`
    @pytest.mark.parametrize("p,eta", [(3, (3, 0, 0, 1)), (3, (1, 1, -2, 1)),
                                       (5, (5, 0, 0, 1)), (3, (9, 0, 0, 1)),
                                       (3, (3, 1, 0, 3)), (3, (1, 0, 0, 1)),
                                       (5, (1, 1, -4, 1)), (5, (25, 0, 0, 1)),
                                       (5, (1, 0, 0, 1)), (5, (5, 1, 0, 5))])
    def test_class_sum_bound(self, p, eta):
        # the HNF enumeration of the classes against the closed form
        assert w_class_sum_report(eta, p) == class_sum_closed(
            p, pval(det_flat(eta), p))

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from([2, 3, 5, 7]), st.integers(1, 3), st.data())
    def test_class_sum_closed_form(self, p, v, data):
        # the closed form puts the total strictly below the bound v + 1
        eta = data.draw(primitive_etas(p, v))
        assert w_class_sum_report(eta, p) == class_sum_closed(p, v)

    def test_measure_range(self):
        for m0 in [(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 1, 1)]:
            wm = w_measure(m0, (3, 0, 0, 1), 3)
            assert 0 <= wm <= 1
        assert w_measure((0, 0, 0, 0), (3, 0, 0, 1), 3) == 1

    def test_primitive_part(self):
        v, eta = split_primitive_part((9, 0, 0, 3), 3)
        assert v == 1 and eta == (3, 0, 0, 1)


def dict_join(k1, ph1, k2, ph2, q):
    """Plain join: pairs whose 4-tuple keys sum to 0 mod q, by phase sum."""
    counts = [0] * q
    for a, pa in zip(k1, ph1):
        for b, pb in zip(k2, ph2):
            if all((x + y) % q == 0 for x, y in zip(a, b)):
                counts[(pa + pb) % q] += 1
    return counts


class TestJoinTwoSlots:
    @pytest.mark.parametrize("q,size", [(2, 30), (3, 60), (5, 80), (9, 120)])
    def test_matches_dict_join(self, q, size):
        # the box (q, q, q, q): box index = packed key
        rng = random.Random(q * size)
        neg = _pack(-expsums._unpack(np.arange(q ** 4), q) % q, q)
        hists, raw = [], []
        for _ in range(2):
            # few distinct keys, so that many pairs match
            pool = [tuple(rng.randrange(q) for _ in range(4)) for _ in range(4)]
            pool += [tuple(-x % q for x in k) for k in pool]
            keys = [rng.choice(pool) for _ in range(size)]
            ph = np.array([rng.randrange(q) for _ in range(size)], dtype=np.int64)
            hist = np.bincount(_pack(np.array(keys), q) * q + ph,
                               minlength=q ** 5)
            hists.append(hist.reshape(-1, q))
            raw.append((keys, ph.tolist()))
        counts = _join_two_slots(hists[0], hists[1], neg, q)
        assert counts.dtype == np.int64
        assert counts.tolist() == dict_join(*raw[0], *raw[1], q)

    def test_no_matching_key(self):
        # the box Z/3: both slots sit at 1 alone, whose negation is 2
        hist = np.zeros((3, 3), dtype=np.int64)
        hist[1] = 1
        counts = _join_two_slots(hist, hist, np.array([0, 2, 1]), 3)
        assert counts.dtype == np.int64 and counts.tolist() == [0, 0, 0]


def class_key(t, m, p):
    """The least unit multiple of a target tuple mod m: the witness class
    key before `line_key`."""
    return min(tuple(lam * x % m for x in t)
               for lam in range(1, max(m, 2)) if lam % p)


def witness_oracle(delta, gammas, p):
    """The candidate loop that `witness_report` replaced: every slot
    t = gamma'_i eta (nonzero unless m = 1) that all slots are multiples of,
    found by trying every lambda in range(m), plus the zero witness when
    every slot is 0 mod m; the first mu found per class. Returns
    ({class_key: (measure, mu)}, bound_sq), or None when unsupported."""
    n = len(gammas)
    vdel, eta = split_primitive_part(delta, p)
    veta = pval(det_flat(eta), p)
    m = p ** veta
    if any(t % p ** vdel for g in gammas for t in g):
        return None
    gprime = [tuple(t // p ** vdel for t in g) for g in gammas]
    ge = [tuple(t % m for t in mat_mul_flat(g, eta)) for g in gprime]
    gen, _ = matrix_cyclic_generator(eta, p)
    candidates = {}
    if all(all(t == 0 for t in v) for v in ge):
        candidates[(0, 0, 0, 0)] = [1] + [0] * (n - 1)
    for i, t in enumerate(ge):
        if m > 1 and not any(t):
            continue
        mu = [next((lam for lam in range(m)
                    if all((x - lam * y) % m == 0 for x, y in zip(v, t))),
                   None) for v in ge]
        if None not in mu:
            mu[i] = 1
            candidates.setdefault(class_key(t, m, p), mu)
    witnesses = {key: (_measure(key, gen, m, p), tuple(mu))
                 for key, mu in candidates.items()}
    bound_sq = min((expsums._bound_sq(gprime, eta, vdel, veta, wm, p, n)
                    for wm, _ in witnesses.values()), default=None)
    return witnesses, bound_sq


# the deltas and slot counts of `local_integral_audit` at p = 3 whose gamma
# space it enumerates exhaustively
EXHAUSTIVE_P3 = [(delta, n) for vd, n in [(1, 1), (1, 2), (2, 1)]
                 for delta in expsums._audit_deltas(3, vd)]


class TestWitnessReport:
    @pytest.mark.parametrize("delta,n", EXHAUSTIVE_P3)
    def test_matches_the_candidate_loop(self, delta, n):
        p = 3
        veta = pval(det_flat(split_primitive_part(delta, p)[1]), p)
        q = p ** pval(det_flat(delta), p)
        for gammas in itertools.product(
                itertools.product(range(q), repeat=4), repeat=n):
            rep = witness_report(delta, list(gammas), p)
            want = witness_oracle(delta, gammas, p)
            if want is None:
                assert not rep["supported"]
                continue
            got = {class_key(k, p ** veta, p): v
                   for k, v in rep["witnesses"].items()}
            assert (got, rep["bound_sq"]) == want, gammas
            assert len(got) <= 1


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
            assert s3_brute(q, n, [g]) == [s3_closed(q, n, g)]

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
        assert s3_brute(q, n, fams) == [s3_closed(q, n, g) for g in fams]

    def test_report_q3_n1(self):
        rep = prime_case_report(3, 1, num_gamma=60, seed=0)
        assert rep["checked"] == 60
        assert len(rep["case_histogram"]) >= 3

    def test_report_q3_n2(self):
        rep = prime_case_report(3, 2, num_gamma=40, seed=1)
        assert rep["checked"] == 40
        assert "u!=0,v off line" in rep["case_histogram"]


# Grids of the kernel oracle: (p, level), Y mod q = p^level in
# {3, 5, 7, 9, 17, 25}; 17^4 and 25^4 span two and seven blocks, the last
# of each short
GRIDS = [(3, 1), (5, 1), (7, 1), (3, 2), (17, 1), (5, 2)]


@st.composite
def grid_moduli(draw):
    """(p, vd) with q = p^vd a grid of `GRIDS` or a power of p below it."""
    p, level = draw(st.sampled_from(GRIDS))
    return p, draw(st.integers(1, level))


def unit_mod(p):
    return st.integers(1, 10 ** 6).filter(lambda c: c % p)


# (p, v) with m = p^v <= 9, so that `_measure` runs on all m^4 targets fast
MEASURE_GRIDS = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (7, 1)]


@st.composite
def primitive_etas(draw, p, v):
    """A primitive eta with v_p(det eta) = v: A diag(p^v, 1) B for A and B
    with unit determinants mod p."""
    units = st.tuples(*[st.integers(-50, 50)] * 4).filter(
        lambda a: det_flat(a) % p)
    return mat_mul_flat(mat_mul_flat(draw(units), (p ** v, 0, 0, 1)),
                        draw(units))


def joined(blocks):
    """The blocks of a grid kernel as one whole-grid array, each copied out
    before the next, since the linear keys reuse one buffer."""
    return np.concatenate([block.copy() for block in blocks])


def dense_slot_keys(delta, x, q):
    """Packed adj(delta) X mod q for an (N, 4) array of flat X."""
    return _pack(x @ (left_mul_matrix(adj_flat(delta)) % q).T % q, q)


def slot_static_oracle(delta, p, vd, coeff):
    qc = p ** vd
    s = mat_square_flat(all_mats(qc), qc) * (coeff % qc) % qc
    return np.unique(dense_slot_keys(delta, s, qc), return_inverse=True)


def box_keys(rows, radii, x):
    """Box index (mixed radix) of the residues x @ row_i mod radii[i] for an
    (N, 4) array of flat X."""
    digits = x @ np.array(rows, dtype=np.int64).T % np.array(radii)
    return np.ravel_multi_index(tuple(digits.T), radii)


# (p, vd) of the closed-form key test, p = 2 included
BOX_GRIDS = [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (5, 1), (5, 2),
             (7, 1)]


@st.composite
def slot_deltas(draw, p):
    """Any delta, a singular one (det = 0) or an imprimitive one."""
    entry = st.integers(-60, 60)
    kind = draw(st.sampled_from(["any", "singular", "imprimitive"]))
    if kind == "singular":
        a, b, x, y = (draw(entry) for _ in range(4))
        return (a * x, a * y, b * x, b * y)
    scale = p ** draw(st.integers(1, 2)) if kind == "imprimitive" else 1
    return tuple(scale * draw(entry) for _ in range(4))


class TestGridKernel:
    @pytest.mark.parametrize("q,blocks", [(3, 1), (16, 1), (17, 2), (25, 7)])
    def test_blocks_cover_the_grid_in_order(self, q, blocks):
        sizes = [len(k) for k in grid_linear_keys((1, 0, 0, 0), q)]
        assert len(sizes) == blocks and sum(sizes) == q ** 4
        assert max(sizes) <= _BLOCK_ROWS and sizes[-1] <= sizes[0]
        coords = [joined(grid_linear_keys(e, q)) for e in FLAT_UNITS]
        assert np.array_equal(_pack(np.stack(coords, axis=1), q),
                              np.arange(q ** 4))
        # one buffer of the call serves every block
        first, *rest = grid_linear_keys((1, 0, 0, 0), q)
        assert all(np.shares_memory(first, k) for k in rest)

    @pytest.mark.parametrize("q", [17, 41, 49, 56])
    def test_block_rows_stay_under_the_limit(self, q):
        # a block is a run of leading pairs, each leading q^2 rows
        pairs = [len(a) for a, _ in _grid_blocks(q)]
        assert sum(pairs) == q * q
        assert max(pairs) * q * q <= _BLOCK_ROWS

    @settings(max_examples=40, deadline=None)
    @given(grid_moduli(), st.lists(st.integers(-10 ** 6, 10 ** 6),
                                   min_size=16, max_size=16), st.data())
    def test_square_keys_match_grid_matmul(self, moduli, entries, data):
        p, vd = moduli
        q = p ** vd
        radii = tuple(p ** data.draw(st.integers(0, vd)) for _ in range(4))
        lmat = np.array(entries, dtype=np.int64).reshape(4, 4)
        s = mat_square_flat(all_mats(q), q)
        want = box_keys(lmat, radii, s)
        assert np.array_equal(joined(grid_square_keys(lmat, q, radii)), want)
        if radii == (q,) * 4:
            assert np.array_equal(want, _pack(s @ (lmat % q).T % q, q))

    @pytest.mark.parametrize("q", [53, 56])
    def test_square_keys_at_the_cap(self, q):
        # the largest entries of lmat and of Y^2 meet in the last block,
        # where every row sum must still be exact in int32
        lmat = np.full((4, 4), q - 1, dtype=np.int64)
        for last in grid_square_keys(lmat, q, (q,) * 4):
            pass
        a, b = _grid_blocks(q)[-1]
        want = []
        for (a0, b0), c, d in itertools.product(zip(a.tolist(), b.tolist()),
                                                range(q), range(q)):
            sq = mat_mul_flat((a0, b0, c, d), (a0, b0, c, d))
            key = 0
            for row in lmat.tolist():
                key = key * q + sum(t * s for t, s in zip(row, sq)) % q
            want.append(key)
        assert last.tolist() == want

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(BOX_GRIDS).flatmap(
        lambda g: st.tuples(st.just(g), slot_deltas(g[0]))))
    def test_box_key_matches_dense_key(self, case):
        # over every W mod q, the closed-form key and adj(delta) W mod q
        # are zero together and have images of one size: as both are
        # additive, they have the same fibres; the box is the image, of
        # order q^2 when vd = v_p(det delta)
        (p, vd), delta = case
        q = p ** vd
        rows, radii = _slot_box(delta, p, vd, 1)
        mats = all_mats(q)
        box, dense = box_keys(rows, radii, mats), dense_slot_keys(delta, mats, q)
        assert np.array_equal(box == 0, dense == 0)
        assert len(np.unique(box)) == len(np.unique(dense)) == np.prod(radii)
        if pval(det_flat(delta), p, cap=vd + 1) == vd:
            assert np.prod(radii) == q * q
        assert all(q % r == 0 for r in radii)

    @settings(max_examples=40, deadline=None)
    @given(grid_moduli(), st.tuples(*[st.integers(-99, 99)] * 4),
           st.data())
    def test_slot_static_matches_unique(self, moduli, delta, data):
        # the box index of c Y^2 splits the grid as np.unique of the dense
        # keys does, index 0 is the solution set, and neg is the box key
        # of -c Y^2; a box past 2^16, only off vd = v_p(det delta), is
        # refused
        p, vd = moduli
        qc = p ** vd
        coeff = data.draw(unit_mod(p))
        _slot_solutions.cache_clear()
        _slot_static.cache_clear()
        sol = _slot_solutions(delta, p, vd, coeff)
        want_uniq, want_inv = slot_static_oracle(delta, p, vd, coeff)
        assert np.array_equal(sol, all_mats(qc)[want_inv == 0])
        rows, radii = _slot_box(delta, p, vd, 1)
        if np.prod(radii) > 2 ** 16:
            with pytest.raises(PreconditionError):
                _slot_static(delta, p, vd, coeff)
            return
        index, neg = _slot_static(delta, p, vd, coeff)
        s = mat_square_flat(all_mats(qc), qc) * (coeff % qc) % qc
        assert np.array_equal(index, box_keys(rows, radii, s))
        assert np.array_equal(neg[index], box_keys(rows, radii, -s % qc))
        assert index.dtype == np.uint16 and len(neg) == np.prod(radii)
        pairs = np.unique(want_inv * len(neg) + index)
        assert len(pairs) == len(want_uniq) == len(np.unique(index))

    @settings(max_examples=40, deadline=None)
    @given(grid_moduli(), st.tuples(*[st.integers(-99, 99)] * 4),
           st.tuples(*[st.integers(-10 ** 6, 10 ** 6)] * 4))
    def test_slot_histogram_matches_dense_bincount(self, moduli, delta, g):
        p, vd = moduli
        qc = p ** vd
        if det_flat(delta) == 0 or pval(det_flat(delta), p) != vd:
            delta = (qc * (1 + abs(delta[0]) * p), delta[1] * p, 0, 1)
        index, neg = _slot_static(delta, p, vd, 1)
        row = tuple(g[t] % qc for t in (0, 2, 1, 3))
        phase = _trace_pair(all_mats(qc), g, qc)
        want = np.bincount(index.astype(np.int64) * qc + phase,
                           minlength=len(neg) * qc)
        hist = _slot_histogram(index, len(neg), row, qc)
        assert hist.dtype == np.int64 and hist.shape == (len(neg), qc)
        assert np.array_equal(hist.ravel(), want)

    @settings(max_examples=40, deadline=None)
    @given(grid_moduli(), st.tuples(*[st.integers(-99, 99)] * 4),
           st.tuples(*[st.integers(-10 ** 6, 10 ** 6)] * 4))
    def test_one_slot_on_the_solution_set(self, moduli, delta, g):
        # i0_local for one slot against the phases of the whole grid,
        # restricted to the condition
        p, vd = moduli
        qc = p ** vd
        det = det_flat(delta)
        if det == 0 or pval(det, p) != vd:
            delta = (qc * (1 + abs(delta[0]) * p), delta[1] * p, 0, 1)
            det = det_flat(delta)
        _, want_inv = slot_static_oracle(delta, p, vd, 1)
        inv_u = pow(punit(det, p, p ** (vd + 1)), -1, qc)
        phase = _trace_pair(all_mats(qc), [inv_u * t for t in g], qc)
        counts = np.bincount(phase[want_inv == 0], minlength=qc)
        want = CycloSum(p, vd, {r: int(c) for r, c in enumerate(counts) if c},
                        scale=4 * vd)
        assert (i0_local(delta, [g], p) - want).is_zero()

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([p ** level for p, level in GRIDS]),
           st.tuples(*[st.integers(-10 ** 6, 10 ** 6)] * 4))
    def test_right_image_histogram_matches_grid_matmul(self, m, b):
        # the image, each w once, and one fiber size shared by every w
        hist = right_image_histogram(b, m)
        image = _pack(_right_image(b, m), m)
        assert np.array_equal(np.sort(image), np.flatnonzero(hist))
        assert np.all(hist[image] * len(image) == m ** 4)

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from(MEASURE_GRIDS), st.data())
    def test_measure_table_matches_dense_table(self, grid, data):
        # the generators that `matrix_cyclic_generator` builds, at every
        # m^4 target; m = 25 is covered by the audit's deltas (m25 tests)
        p, level = grid
        gen, m = matrix_cyclic_generator(data.draw(primitive_etas(p, level)),
                                         p)
        assert m == p ** level
        assert np.array_equal(measure_as_dense(gen, m, p),
                              dense_measure_table(gen, m))

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(GRIDS),
           st.tuples(*[st.integers(-10 ** 6, 10 ** 6)] * 4), st.booleans())
    def test_measure_refuses_invalid_generators(self, grid, gen, imprimitive):
        # the closed form holds only for a gen with a unit entry and
        # det(gen) = 0 mod m
        p, level = grid
        m = p ** level
        if imprimitive:
            gen = tuple(p * x for x in gen)
        assume(all(x % p == 0 for x in gen) or det_flat(gen) % m)
        with pytest.raises(PreconditionError):
            _measure((0, 0, 0, 0), gen, m, p)

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(GRIDS), st.data())
    def test_split_square_distribution_matches_grid(self, grid, data):
        p, m = grid
        q = p ** m
        coeff = data.draw(unit_mod(p))
        s = mat_square_flat(all_mats(q), q) * (coeff % q) % q
        want = np.bincount(_pack(s, q), minlength=q ** 4)
        assert np.array_equal(split_square_distribution(p, m, coeff), want)

    def test_trace_pair_is_the_one_row_key(self):
        # tr(M Y) = (m0, m2, m1, m3) . flat(Y), the phase of a slot
        rng = random.Random(9)
        for q in [3, 9, 7, 17, 25]:
            g = tuple(rng.randrange(-50, 50) for _ in range(4))
            row = (g[0], g[2], g[1], g[3])
            assert np.array_equal(joined(grid_linear_keys(row, q)),
                                  _trace_pair(all_mats(q), g, q))

    @staticmethod
    def _count_kernel(monkeypatch, name):
        """Record the calls of one function of `qcl.expsums`."""
        kernel = getattr(expsums, name)
        calls = []

        def counted(*args):
            calls.append(args)
            return kernel(*args)

        monkeypatch.setattr(expsums, name, counted)
        return calls

    @pytest.mark.parametrize("n", [1, 2])
    def test_slot_keys_built_once_per_delta(self, n, monkeypatch):
        # the gamma-independent keys of one (delta, p), one kernel pass for
        # one slot or for two of one coefficient, serve every gamma
        calls = self._count_kernel(monkeypatch, "grid_square_keys")
        _slot_solutions.cache_clear()
        _slot_static.cache_clear()
        delta = (9, 0, 0, 1)
        first = i0_local(delta, [(1, 2, 0, 1)] * n, 3)
        assert len(calls) == 1
        second = i0_local(delta, [(0, 1, 1, 2)] * n, 3)
        assert len(calls) == 1
        # one slot builds no box index; two share one (same coeff)
        assert _slot_static.cache_info().currsize == n - 1
        cached = _slot_solutions if n == 1 else _slot_static
        assert cached.cache_info().hits == 2 * n - 1
        _slot_solutions.cache_clear()
        _slot_static.cache_clear()
        assert first == i0_local(delta, [(1, 2, 0, 1)] * n, 3)
        assert second == i0_local(delta, [(0, 1, 1, 2)] * n, 3)

    @pytest.mark.parametrize("coeffs,passes", [([1, 1], 1), ([1, 10], 1),
                                               ([1, 2], 2)])
    def test_two_slots_pass_once_per_coefficient(self, coeffs, passes,
                                                 monkeypatch):
        # one grid pass per distinct coefficient mod q = 9
        calls = self._count_kernel(monkeypatch, "grid_square_keys")
        _slot_static.cache_clear()
        i0_local((9, 0, 0, 1), [(1, 2, 0, 1)] * 2, 3, coeffs=coeffs)
        assert len(calls) == passes

    @pytest.mark.parametrize("n,passes", [(1, 0), (2, 2)])
    def test_prime_case_counts_once_per_gamma(self, n, passes, monkeypatch):
        # S3 and I0 of each gamma are read from one phase-count vector: the
        # gamma loop adds one count per gamma, and its phase passes (none
        # for one slot, which bins on S; one per slot for two)
        counts = self._count_kernel(monkeypatch, "_phase_counts")
        phases = self._count_kernel(monkeypatch, "grid_linear_keys")
        prime_case_report(3, n, num_gamma=0, seed=2)
        base = len(counts), len(phases)
        prime_case_report(3, n, num_gamma=12, seed=2)
        assert len(counts) - 2 * base[0] == 12
        assert len(phases) - 2 * base[1] == 12 * passes

    def test_mul_matrices_match_the_product(self):
        rng = random.Random(4)
        for _ in range(50):
            a, x = (tuple(rng.randrange(-9, 10) for _ in range(4))
                    for _ in range(2))
            assert (left_mul_matrix(a) @ x).tolist() == list(mat_mul_flat(a, x))
            assert (right_mul_matrix(a) @ x).tolist() == list(mat_mul_flat(x, a))

    def test_witness_request_memory(self):
        # no int64 array per grid row or per m^4 residue: the whole-grid
        # path peaked at 10.4 MiB here
        delta, gammas, p = (25, 0, 0, 1), [(5, 10, 0, 5)] * 2, 5
        for cached in (_slot_solutions, _slot_static, _image_generator):
            cached.cache_clear()
        tracemalloc.start()
        try:
            i0_local(delta, gammas, p)
            rep = witness_report(delta, gammas, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep["witnesses"]
        assert peak < 5 * 2 ** 20

    def test_one_slot_builds_no_grid_table(self):
        # one slot keeps S alone: a bool bitmap of the q^4 = 5,764,801
        # possible keys at q = 49 would pass the bound by itself
        for cached in (_slot_solutions, _slot_static):
            cached.cache_clear()
        tracemalloc.start()
        try:
            i0_local((49, 0, 0, 1), [(7, 14, 0, 7)], 7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert _slot_static.cache_info().currsize == 0
        assert peak < 4 * 2 ** 20

    def test_two_slots_keep_one_index(self):
        # two slots keep one uint16 box index per grid row, 11 MiB at
        # q = 49; a bool key bitmap and a rank table beside it peaked at
        # 23.5 MiB
        for cached in (_slot_solutions, _slot_static):
            cached.cache_clear()
        tracemalloc.start()
        try:
            i0_local((49, 0, 0, 1), [(7, 14, 0, 7)] * 2, 7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert _slot_static.cache_info().currsize == 1
        assert peak < 18 * 2 ** 20

    @pytest.mark.parametrize("delta", [(25, 0, 0, 1), (5, 1, 0, 5),
                                       (5, 0, 0, 5)])
    @pytest.mark.parametrize("n", [1, 2])
    def test_witness_moduli_stay_small(self, delta, n):
        # the (q^4, 4) grid path peaked near 50 MB here
        gammas = [(5, 10, 0, 5)] * n
        for cached in (_slot_solutions, _slot_static, _image_generator):
            cached.cache_clear()
        tracemalloc.start()
        try:
            i0_local(delta, gammas, 5)
            witness_report(delta, gammas, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 10 ** 6

    @pytest.mark.parametrize("call", [
        lambda: i0_local((343, 0, 0, 1), [(0, 0, 0, 0)], 7),
        lambda: i0_local((343, 0, 0, 1), [(0, 0, 0, 0)] * 2, 7),
        lambda: split_square_distribution(7, 3),
        lambda: grid_square_keys(np.eye(4, dtype=np.int64), 57, (57,) * 4),
        lambda: grid_linear_keys((1, 0, 0, 0), 57),
    ])
    def test_grid_cap_refuses_before_allocating(self, call):
        # q^4 = 7^12 and 57^4 both exceed the 10^7 cap
        tracemalloc.start()
        try:
            with pytest.raises(BudgetError):
                call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 ** 6
