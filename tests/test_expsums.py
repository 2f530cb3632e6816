import functools
import itertools
import math
import random
import sys
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
from qcl.densities import split_density
from qcl.errors import BudgetError, PreconditionError, VerificationError
from qcl.expsums import (
    _characters, _class_representatives, _class_table, _measure, _pair_row,
    _right_image, _slot_box, _trace_row, _unit_sum, cyclo_abs_sq, i0_local,
    local_integral_audit, matrix_cyclic_generator, prime_case_report,
    s2_closed, s2_count, s3_closed, split_primitive_part, w_class_sum_report,
    witness_report, x2_count,
)
from qcl.geometry import hessian_matrix
from qcl.padic import (GaussSumParams, gauss_sum, jordan_split, line_key,
                       line_multiple, pval, punit)
from grid_oracle import (_BLOCK_ROWS, _grid_blocks, grid_linear_keys,
                         grid_square_keys, split_square_distribution)


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
    order that `_unpack` inverts."""
    return (((rows[..., 0] * q + rows[..., 1]) * q + rows[..., 2]) * q
            + rows[..., 3])


def left_mul_matrix(a):
    """4x4 integer matrix L with flat(A X) = L @ flat(X), column j read off
    at X = e_j."""
    return np.array([mat_mul_flat(a, e) for e in FLAT_UNITS],
                    dtype=np.int64).T


def right_mul_matrix(b):
    """4x4 integer matrix R with flat(X B) = R @ flat(X), column j read off
    at X = e_j."""
    return np.array([mat_mul_flat(e, b) for e in FLAT_UNITS],
                    dtype=np.int64).T


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


# The grid path that `i0_local` ran before the character sum is kept as its
# oracle on the blocked kernels of `grid_oracle`. One slot bins its phase
# over the solution set of box key 0; two slots join per-slot (box index,
# phase) histograms, q^2 x q entries, through the negation of the box.


def _unpack(keys, q):
    """An (N,) array of keys to the (N, 4) array of their base-q digits,
    most significant first: the rows of a grid in grid order."""
    return np.stack([keys // q ** (3 - t) % q for t in range(4)], axis=1)


def slot_box(delta, p, vd, coeff):
    """`_slot_box` of coeff * adj(delta) X: its rows times coeff."""
    rows, radii = _slot_box(delta, p, vd)
    return [[coeff * t for t in row] for row in rows], radii


def _slot_solutions(delta, p, vd, coeff):
    """S = {Y mod q : coeff * adj(delta) Y^2 = 0 mod q}, q = p^vd, the rows
    of box key 0 in one pass of `grid_square_keys`, as an (|S|, 4) array."""
    q = p ** vd
    rows, radii = slot_box(delta, p, vd, coeff)
    sol, start = [], 0
    for keys in grid_square_keys(rows, q, radii):
        sol.append(start + np.flatnonzero(keys == 0))
        start += len(keys)
    return _unpack(np.concatenate(sol), q)


def _slot_static(delta, p, vd, coeff):
    """One kernel pass over the grid of Y mod q = p^vd: the uint16 box
    index of coeff * adj(delta) Y^2 (`_slot_box`) for every Y, and neg[k],
    the index of the digitwise negation of box element k; a box past 2^16
    is refused."""
    rows, radii = slot_box(delta, p, vd, coeff)
    blocks = grid_square_keys(rows, p ** vd, radii)
    if np.prod(radii) > 2 ** 16:
        raise PreconditionError(f"key box {radii} too large for uint16")
    neg = np.ravel_multi_index(
        tuple(-d % r for d, r in zip(np.indices(radii), radii)), radii).ravel()
    index, start = np.empty(p ** (4 * vd), dtype=np.uint16), 0
    for keys in blocks:
        index[start:start + len(keys)] = keys
        start += len(keys)
    return index, neg


def _slot_histogram(index, size, row, q):
    """(size, q) int64 counts of (box index, row . flat(Y) mod q) over the
    grid of Y mod q, binned block by block in the buffer of
    `grid_linear_keys`."""
    hist, start = np.zeros(q * size, dtype=np.int64), 0
    for ph in grid_linear_keys(row, q):
        ph *= size
        ph += index[start:start + len(ph)]
        hist += np.bincount(ph, minlength=q * size)
        start += len(ph)
    return hist.reshape(q, size).T


def _join_two_slots(h1, h2, neg, q):
    """counts[r] = #{(Y1, Y2) : key1 + key2 = 0, ph1 + ph2 = r mod q} from
    two (box order, q) phase histograms over one box with negation `neg`:
    the rows k that slot 1 hits times rows neg[k] of slot 2, folded over
    (r1 + r2) mod q; every count is at most q^8 <= 10^14 under the cap."""
    live = np.flatnonzero(h1.any(axis=1))
    d = h1[live].T @ h2[neg[live]]  # d[r1, r2] = paired count
    r = np.arange(q)
    counts = np.zeros(q, dtype=np.int64)
    np.add.at(counts, (r[:, None] + r[None, :]) % q, d)
    return counts


def grid_phase_counts(delta, rows, p, vd, coeffs):
    """counts[r] = #{(Y_i) mod q : sum c_i adj(delta) Y_i^2 = 0,
    sum rows_i . flat(Y_i) = r mod q}, q = p^vd, for one or two slots: one
    slot bins its phase over its solution set, two join their histograms,
    with one grid pass per distinct coefficient mod q."""
    q = p ** vd
    if len(rows) == 1:
        sol = _slot_solutions(delta, p, vd, coeffs[0] % q)
        return np.bincount(sol @ np.array(rows[0]) % q, minlength=q)
    static = {c: _slot_static(delta, p, vd, c)
              for c in dict.fromkeys(c % q for c in coeffs)}
    slots = [static[c % q] for c in coeffs]
    hists = [_slot_histogram(index, len(neg), row, q)
             for (index, neg), row in zip(slots, rows)]
    return _join_two_slots(*hists, slots[0][1], q)  # one box for every c


def grid_i0(delta, gammas, p, coeffs=None):
    """I0(delta, gamma) on the grid path, for one or two slots."""
    det = det_flat(delta)
    vd = pval(det, p)
    n = len(gammas)
    coeffs = coeffs or [1] * n
    if vd == 0:
        return CycloSum.from_int(1, p)
    q = p ** vd
    inv_u = pow(punit(det, p, p ** (vd + 1)), -1, q)
    rows = [_trace_row(g, q, inv_u) for g in gammas]
    return CycloSum(p, vd, grid_phase_counts(delta, rows, p, vd, coeffs),
                    scale=4 * n * vd)


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
        assert v == Fraction(15, 81)
        assert s2_count(3, 1) == 15

    @pytest.mark.parametrize("p,vd,n", [(3, 1, 1), (3, 1, 2), (5, 1, 1), (3, 2, 1)])
    def test_matches_brute_reference(self, p, vd, n):
        rng = random.Random(p + vd + n)
        delta = (p ** vd, 0, 0, 1)
        for _ in range(8):
            gammas = [tuple(rng.randrange(p ** vd) for _ in range(4))
                      for _ in range(n)]
            assert (i0_local(delta, gammas, p)
                    == i0_brute(delta, gammas, p).to_fraction())

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
            assert a == b.to_fraction()

    def test_unit_coefficients(self):
        p = 3
        delta = (p, 0, 0, 1)
        g = [(1, 2, 0, 1)]
        a = i0_local(delta, g, p, coeffs=[2])
        b = i0_brute(delta, g, p, coeffs=[2])
        assert a == b.to_fraction()

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
        assert (acc * Fraction(1, p ** 4)).to_fraction() == direct


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
    rows = _unpack(ws, m)
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

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([2, 3, 5, 7]), st.integers(0, 3), st.data())
    def test_generator_spans_the_image(self, p, v, data):
        # the closed form against the definition: the columns of
        # L(adj eta) R(eta) mod m span the image of Y -> adj(eta) Y eta, so
        # each is a multiple of gen, and one is a unit multiple of it
        eta = data.draw(primitive_etas(p, v))
        gen, m = matrix_cyclic_generator(eta, p)
        assert m == p ** v
        cmat = left_mul_matrix(adj_flat(eta)) @ right_mul_matrix(eta) % m
        cols = [tuple(int(x) for x in cmat[:, j]) for j in range(4)]
        assert all(line_multiple(c, gen, p, v) is not None for c in cols)
        assert line_key(gen, p, v) in {line_key(c, p, v) for c in cols}

    def test_imprimitive_eta_is_refused(self):
        with pytest.raises(PreconditionError, match="primitive"):
            matrix_cyclic_generator((3, 0, 0, 3), 3)

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
        neg = _pack(-_unpack(np.arange(q ** 4), q) % q, q)
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


def witness_measures(delta, gammas, p):
    """(measure, `_measure` of its key against the generator) for every
    witness of `witness_report`."""
    _, eta = split_primitive_part(delta, p)
    gen, m = matrix_cyclic_generator(eta, p)
    return [(wm, _measure(key, gen, m, p)) for key, (wm, _) in
            witness_report(delta, gammas, p)["witnesses"].items()]


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

    @pytest.mark.parametrize("delta", expsums._audit_deltas(3, 1))
    def test_measure_is_the_generator_measure_exhaustive(self, delta):
        # every gamma of the exhaustive p = 3, n = 1 audit at level 1
        pairs = [pair for g in itertools.product(range(3), repeat=4)
                 for pair in witness_measures(delta, [g], 3)]
        assert len(pairs) > 0
        assert all(got == want for got, want in pairs)

    @pytest.mark.parametrize("p", [3, 5])
    def test_measure_is_the_generator_measure_level_two(self, p):
        # 500 seeded supported gamma tuples over the level-2 audit deltas
        rng = random.Random(p)
        deltas = expsums._audit_deltas(p, 2)
        pairs = []
        for k in range(500):
            delta = deltas[k % len(deltas)]
            unit = p ** split_primitive_part(delta, p)[0]
            gammas = [tuple(rng.randrange(p * p) * unit for _ in range(4))
                      for _ in range(rng.choice([1, 2]))]
            pairs += witness_measures(delta, gammas, p)
        assert len(pairs) > 250
        assert all(got == want for got, want in pairs)


class TestLocalIntegralAudit:
    def test_small_audit_p3_n1(self):
        report = local_integral_audit(3, 1, vds=(1,), max_gammas=50, seed=1)
        assert report["checked"] > 0
        assert report["nonzero"] > 0

    def test_small_audit_p3_n1_level2(self):
        report = local_integral_audit(3, 1, vds=(2,), max_gammas=40, seed=2)
        assert report["nonzero"] > 0

    @pytest.mark.parametrize("vds", [(3,), (0,), (1, 3)])
    def test_other_levels_are_refused(self, vds, monkeypatch):
        # _audit_deltas knows levels 1 and 2; nothing is audited first
        def fail(*args):
            raise AssertionError("audited before the refusal")

        monkeypatch.setattr(expsums, "w_class_sum_report", fail)
        with pytest.raises(PreconditionError, match="audit levels"):
            local_integral_audit(3, 1, vds=vds)

    def test_support_law_directly(self):
        # delta = p * I: gamma not divisible by p forces exact vanishing
        p = 3
        delta = (p, 0, 0, p)
        for g in [(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 1, 1), (2, 0, 1, 0)]:
            assert i0_local(delta, [g], p) == 0


def s3_count(q, n, gamma_list):
    """S3 of each gamma tuple by Fourier inversion of I0 (`_prime_level`)."""
    return [s3 for s3, _ in expsums._prime_level(q, n, gamma_list)]


class TestPrimeCase:
    def test_x2_values(self):
        assert x2_count(3, [0, 0]) == 1
        assert x2_count(3, [0]) == 1
        assert x2_count(5, [0, 0]) == 9  # a^2 + b^2 = 0 has 1 + 2*4 points

    @pytest.mark.parametrize("q,n", [(3, 1), (3, 2), (5, 1), (5, 2)])
    def test_s2_closed(self, q, n):
        assert s2_count(q, n) == s2_closed(q, n)

    @pytest.mark.parametrize("q,n", [(3, 1), (3, 2), (5, 1)])
    def test_s3_closed_random(self, q, n):
        rng = random.Random(q * 10 + n)
        for _ in range(30):
            g = tuple(tuple(rng.randrange(q) for _ in range(4)) for _ in range(n))
            assert s3_count(q, n, [g]) == [s3_closed(q, n, g)]

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
        assert s3_count(q, n, fams) == [s3_closed(q, n, g) for g in fams]

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
        rows, radii = _slot_box(delta, p, vd)
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
        sol = _slot_solutions(delta, p, vd, coeff)
        want_uniq, want_inv = slot_static_oracle(delta, p, vd, coeff)
        assert np.array_equal(sol, all_mats(qc)[want_inv == 0])
        rows, radii = _slot_box(delta, p, vd)
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
        assert i0_local(delta, [g], p) == want.to_fraction()

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([p ** level for p, level in GRIDS]),
           st.tuples(*[st.integers(-10 ** 6, 10 ** 6)] * 4))
    def test_right_image_histogram_matches_grid_matmul(self, m, b):
        # the image, each w once, and one fiber size shared by every w
        hist = right_image_histogram(b, m)
        image = _pack(np.array(_right_image(b, m)), m)
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
        """Record the calls of one function of the grid oracle here."""
        module = sys.modules[__name__]
        kernel = getattr(module, name)
        calls = []

        def counted(*args):
            calls.append(args)
            return kernel(*args)

        monkeypatch.setattr(module, name, counted)
        return calls

    @pytest.mark.parametrize("n", [1, 2])
    def test_slot_keys_built_once_per_delta(self, n):
        # the gamma-independent class table of one (delta, p) and one
        # coefficient tuple mod q is built once and serves every gamma
        _class_table.cache_clear()
        delta = (9, 0, 0, 1)
        first = i0_local(delta, [(1, 2, 0, 1)] * n, 3)
        second = i0_local(delta, [(0, 1, 1, 2)] * n, 3)
        info = _class_table.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
        third = i0_local(delta, [(0, 1, 1, 2)] * n, 3, coeffs=[2] * n)
        assert third == i0_local(delta, [(0, 1, 1, 2)] * n, 3,
                                 coeffs=[11] * n)  # 11 = 2 mod 9
        info = _class_table.cache_info()
        assert (info.misses, info.hits, info.currsize) == (2, 2, 2)
        _class_table.cache_clear()
        assert first == i0_local(delta, [(1, 2, 0, 1)] * n, 3)
        assert second == i0_local(delta, [(0, 1, 1, 2)] * n, 3)
        assert third == i0_local(delta, [(0, 1, 1, 2)] * n, 3,
                                 coeffs=[2] * n)

    @pytest.mark.parametrize("coeffs,passes", [([1, 1], 1), ([1, 10], 1),
                                               ([1, 2], 2)])
    def test_two_slots_pass_once_per_coefficient(self, coeffs, passes,
                                                 monkeypatch):
        # the oracle makes one grid pass per distinct coefficient mod q = 9
        calls = self._count_kernel(monkeypatch, "grid_square_keys")
        want = grid_i0((9, 0, 0, 1), [(1, 2, 0, 1)] * 2, 3, coeffs=coeffs)
        assert len(calls) == passes
        assert i0_local((9, 0, 0, 1), [(1, 2, 0, 1)] * 2, 3,
                        coeffs=coeffs) == want.to_fraction()

    @pytest.mark.parametrize("n", [1, 2])
    def test_prime_case_reads_every_gamma_from_one_batch(self, n):
        # S3 and I0 of every gamma of the loop, at every lam, read one
        # class table, so more gammas build no table
        rng = random.Random(n)
        gammas = [tuple(tuple(rng.randrange(3) for _ in range(4))
                        for _ in range(n)) for _ in range(12)]
        _class_table.cache_clear()
        expsums._prime_level(3, n, gammas)
        info = _class_table.cache_info()
        assert (info.misses, info.hits) == (1, 12 * 3 - 1)

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
        _class_table.cache_clear()
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
        # one slot keeps the class table alone, 65 classes of the 2401
        # characters at q = 49: a bool bitmap of the q^4 = 5,764,801
        # possible keys would pass the bound by itself
        _class_table.cache_clear()
        tracemalloc.start()
        try:
            i0_local((49, 0, 0, 1), [(7, 14, 0, 7)], 7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert _class_table.cache_info().currsize == 1
        assert peak < 4 * 2 ** 20

    def test_two_slots_keep_one_index(self):
        # two slots read one class table, as one slot does; the grid
        # path's uint16 box index of every Y took 11 MiB at q = 49
        _class_table.cache_clear()
        tracemalloc.start()
        try:
            i0_local((49, 0, 0, 1), [(7, 14, 0, 7)] * 2, 7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert _class_table.cache_info().currsize == 1
        assert peak < 4 * 2 ** 20

    @pytest.mark.parametrize("delta", [(25, 0, 0, 1), (5, 1, 0, 5),
                                       (5, 0, 0, 5)])
    @pytest.mark.parametrize("n", [1, 2])
    def test_witness_moduli_stay_small(self, delta, n):
        # the (q^4, 4) grid path peaked near 50 MB here
        gammas = [(5, 10, 0, 5)] * n
        _class_table.cache_clear()
        tracemalloc.start()
        try:
            i0_local(delta, gammas, 5)
            witness_report(delta, gammas, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 10 ** 6

    @pytest.mark.parametrize("call", [
        lambda: i0_local((3163, 0, 0, 1), [(0, 0, 0, 0)], 3163),
        lambda: i0_local((7 ** 9, 0, 0, 1), [(0, 0, 0, 0)] * 2, 7),
        lambda: split_density(449, 1, 2),
        lambda: i0_local((64, 0, 0, 1), [(0, 0, 0, 0)], 2),
        lambda: grid_square_keys(np.eye(4, dtype=np.int64), 57, (57,) * 4),
    ])
    def test_grid_cap_refuses_before_allocating(self, call):
        # 3163^2 and 7^18 characters exceed the 10^7 character cap at odd
        # p, 449^2 the 2 10^5 similarity class cap of the split densities,
        # and q^4 = 64^4 and 57^4 the 10^7 pair and grid caps
        tracemalloc.start()
        try:
            with pytest.raises(BudgetError):
                call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 ** 6


def pair_i0(delta, gammas, p, coeffs=None):
    """I0 by the hyperbolic-pair sum (`expsums._pair_row`), at any p."""
    det = det_flat(delta)
    vd = pval(det, p)
    q = p ** vd
    coeffs = [c % q for c in coeffs or [1] * len(gammas)]
    inv_u = pow(punit(det, p, p ** (vd + 1)), -1, q)
    t = np.array([_trace_row(g, q, inv_u) for g in gammas], dtype=np.int64)
    return CycloSum(p, vd, _pair_row(delta, t, p, vd, coeffs).tolist(),
                    (4 * len(gammas) + 2) * vd)


def tuple_count_i0(delta, gammas, p, coeffs=None):
    """I0 by counting every slot tuple, all q^(4n) of them broadcast at
    once: the keys adj(delta) c_i Y_i^2 and phases add across slot axes."""
    n = len(gammas)
    det = det_flat(delta)
    vd = pval(det, p)
    q = p ** vd
    coeffs = coeffs or [1] * n
    inv_u = pow(punit(det, p, p ** (vd + 1)), -1, q)
    mats = all_mats(q)
    adj = left_mul_matrix(adj_flat(delta)) % q
    keys = phases = 0
    for i, (g, c) in enumerate(zip(gammas, coeffs)):
        shape = [1] * n
        shape[i] = -1
        key = mat_square_flat(mats, q) * (c % q) % q @ adj.T % q
        keys = keys + key.reshape(*shape, 4)
        phase = mats @ np.array(_trace_row(g, q, inv_u)) % q
        phases = phases + phase.reshape(shape)
    ok = (keys % q == 0).all(axis=-1)
    counts = np.bincount(phases[ok] % q, minlength=q)
    return CycloSum(p, vd, counts.tolist(), scale=4 * n * vd)


# The character-table path that `i0_local` ran at odd p before the class
# sum, kept as its oracle: all q^2 characters l_a as numpy arrays, one
# Jordan splitting per unit class of l_a (`padic.line_key`), and per
# character a weight +-p^P g1^(0 or 1) at the phase c^-1 Phi, binned into
# two integer rows per gamma tuple, the odd one times g1 once.


def _unit_inverses(q, p):
    """inv[x] = x^-1 mod q for every unit x mod q = p^v, 0 elsewhere."""
    return np.array([pow(x, -1, q) if x % p else 0 for x in range(q)])


def _legendre(x, p):
    """(x/p) of each entry of an int64 array of units mod p."""
    table = np.array([pow(r, (p - 1) // 2, p) for r in range(p)])
    return np.where(table[x % p] == 1, 1, -1)


@functools.lru_cache(maxsize=16)
def character_table(delta, p, v):
    """(cls, inv_c, et, w, u) at odd p, q = p^v: l_a = c_a key mod q for
    the unit class key number cls[a] of l_a (c_a = 1 at l_a = 0),
    inv_c[a] = c_a^-1 mod q, and E^T, w and u of each class's
    `jordan_split`. Packed keys are below q^4 < 2^63."""
    q, h = p ** v, (p ** v + 1) // 2  # h = 1/2 mod q
    ell = _characters(delta, p, v)
    pw = np.gcd(ell, q)  # p^(valuation capped at v)
    piv = np.arange(len(ell)), pw.argmin(axis=1)  # the first least entry
    lead = ell[piv] // pw[piv]  # its unit part, 0 at l = 0
    inv_c = _unit_inverses(q, p)[np.where(lead == 0, 1, lead)]
    packed = (ell * inv_c[:, None] % q) @ q ** np.arange(4)
    keys = np.unique(packed)
    cls = np.searchsorted(keys, packed)
    splits = []
    for k in keys.tolist():
        l0, l1, l2, l3 = (k // q ** i % q * h for i in range(4))
        splits.append(jordan_split([[2 * l0, l1, l2, 0], [l1, 0, l0 + l3, l1],
                                    [l2, l0 + l3, 0, l2], [0, l1, l2, 2 * l3]],
                                   p, v))
    e, w, u = (np.array(x) for x in zip(*splits))
    return cls, inv_c, e.transpose(0, 2, 1), w, u


def factor_parts(uu, w, p, v):
    """(power, sign, odd, coef) with F(uu p^w, s) = [p^w | s] sign p^power
    g1^odd e(coef (s/p^w)^2 / q), q = p^v at odd p, entrywise for units uu
    and 0 <= w <= v."""
    q = p ** v
    odd = (v - w) % 2
    sign = np.where(odd == 1, _legendre(uu, p), 1)
    coef = -_unit_inverses(q, p)[4 * uu % q] * p ** w % q
    return w + (v - w) // 2, sign, odd, coef


def jordan_rows(delta, t, p, v, coeffs):
    """(rows, scale) with I0 = rows[g](zeta_q) / p^scale for the phase rows
    t (N, n, 4) at odd p. Per class, s = E^T t_i decides vanishing and Phi
    sums coef (s/p^w)^2; a character has phase c^-1 Phi and sign (c/p)^(n m)
    times its class's, binned by (gamma, weight +-p^(P - Pmin) and g1
    parity, phase) in Python ints."""
    q, n = p ** v, len(coeffs)
    cls, inv_c, et, w, u = character_table(delta, p, v)
    uu = np.array(coeffs, dtype=np.int64)[:, None, None] * u % q
    power, sign, odd, coef = factor_parts(uu, w, p, v)  # coef (n, C, 4)
    m = odd.sum(axis=1)
    half = n * m // 2  # g1^(n m) = (+-p)^half g1^(n m mod 2)
    power = n * power.sum(axis=1) + half
    sign = sign.prod(axis=(0, 2)) * (-1) ** (half * (p % 4 == 3))
    sign = sign[cls] * _legendre(inv_c, p) ** (n * m[cls])
    lo = int(power.min())
    wid = (power[cls] - lo) * 4 + n * m[cls] % 2 * 2 + (sign < 0)
    nw = int(wid.max()) + 1
    weights = np.array([[(-1) ** k * p ** (k // 4) * (k // 2 % 2 == j)
                         for j in (0, 1)] for k in range(nw)], object)
    pw, ok, phi = p ** w, True, 0
    for i in range(n):
        s = np.einsum("cjr,gr->gcj", et, t[:, i]) % q
        ok = ok & (s % pw == 0).all(axis=2)
        phi = (phi + (coef[i] * ((s // pw) ** 2 % q)).sum(axis=2)) % q
    key = (np.arange(len(t))[:, None] * nw + wid) * q
    key += inv_c * phi[:, cls] % q
    counts = np.bincount(key[ok[:, cls]], minlength=len(t) * nw * q)
    even, odd = np.tensordot(counts.reshape(len(t), nw, q).astype(object),
                             weights, axes=(1, 0)).transpose(2, 0, 1)
    rows = even + sum(np.roll(odd, x * x * q // p, axis=1) for x in range(p))
    return rows, (4 * n + 2) * v - lo


def character_i0(delta, batch, p, coeffs=None):
    """I0 of each gamma tuple of the batch on the character-table path, as
    CycloSums, at odd p and v_p(det delta) > 0."""
    det = det_flat(delta)
    vd = pval(det, p)
    q, n = p ** vd, len(batch[0])
    coeffs = [c % q for c in coeffs or [1] * n]
    inv_u = pow(punit(det, p, p ** (vd + 1)), -1, q)
    t = np.array([[_trace_row(g, q, inv_u) for g in gammas]
                  for gammas in batch], dtype=np.int64).reshape(-1, n, 4)
    rows, scale = jordan_rows(tuple(delta), t, p, vd, coeffs)
    return [CycloSum(p, vd, row, scale) for row in rows.tolist()]


def draw_gammas(rng, delta, p, n):
    """n seeded gamma matrices mod the level of delta, each entry scaled
    by 1 or the content p^vdel of delta, so that some tuples are
    supported."""
    q = p ** pval(det_flat(delta), p)
    unit = p ** split_primitive_part(delta, p)[0]
    return [tuple(rng.randrange(q) * rng.choice([1, unit]) for _ in range(4))
            for _ in range(n)]


# every delta of `local_integral_audit` at p = 3, 5 and 7, three at p = 3
# and level 3 (two of them with content), and four at p = 2
ORACLE_DELTAS = ([(p, delta) for p in (3, 5, 7) for vd in (1, 2)
                  for delta in expsums._audit_deltas(p, vd)]
                 + [(3, (27, 0, 0, 1)), (3, (9, 3, 0, 3)), (3, (3, 1, 0, 9)),
                    (2, (4, 0, 0, 1)), (2, (8, 0, 0, 1)), (2, (2, 1, 0, 2)),
                    (2, (16, 0, 0, 1))])


class TestGridOracle:
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("p,delta", ORACLE_DELTAS)
    def test_i0_matches_the_grid_path(self, p, delta, n):
        # mixed unit coefficients, three gamma tuples
        rng = random.Random(f"{p}:{delta}:{n}")
        batch = [draw_gammas(rng, delta, p, n) for _ in range(3)]
        coeffs = [rng.choice([c for c in range(1, 2 * p + 2) if c % p])
                  for _ in range(n)]
        assert ([i0_local(delta, gammas, p, coeffs) for gammas in batch]
                == [grid_i0(delta, gammas, p, coeffs).to_fraction()
                    for gammas in batch])

    @pytest.mark.parametrize("p,delta", [(3, (3, 0, 0, 1)), (3, (9, 0, 0, 1)),
                                         (5, (5, 0, 0, 1)), (2, (4, 0, 0, 1))])
    def test_grid_path_matches_brute(self, p, delta):
        # the oracle itself against the tuple-by-tuple reference
        rng = random.Random(p)
        for n in (1, 2):
            if pval(det_flat(delta), p) * 4 * n > 8 + 4 * (p == 2):
                continue
            gammas = draw_gammas(rng, delta, p, n)
            assert grid_i0(delta, gammas, p) == i0_brute(delta, gammas, p)


class TestCharacterSum:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([(3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 2)]),
           st.data())
    def test_factor_is_the_gauss_sum(self, grid, data):
        # F(u p^w, s) from the oracle's `factor_parts` against q *
        # gauss_sum of the same parameters: a = u p^w, t = q, xi = s
        p, v = grid
        q = p ** v
        u = data.draw(unit_mod(p)) % q
        w = data.draw(st.integers(0, v))
        s = data.draw(st.integers(0, q - 1))
        power, sign, odd, coef = (int(x) for x in factor_parts(
            np.array(u), np.array(w), p, v))
        got = CycloSum.from_int(0, p)
        if s % p ** w == 0:
            g1 = CycloSum(p, 1, [sum(x * x % p == r for x in range(p))
                                 for r in range(p)])
            got = CycloSum.root(p, v, coef * (s // p ** w) ** 2 % q) * (
                sign * p ** power)
            if odd:
                got = got * g1
        vs = pval(s, p, cap=v)
        want = gauss_sum(GaussSumParams(p, w, v, vs if s else 0, u, 1,
                                        s // p ** vs if s else 1,
                                        xi_zero=not s))
        assert got == want * q

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("p,delta", [(3, (3, 0, 0, 1)), (3, (9, 0, 0, 1)),
                                         (3, (3, 0, 0, 3)), (3, (9, 3, 0, 3)),
                                         (5, (5, 0, 0, 1)), (5, (5, 1, 0, 5)),
                                         (5, (25, 0, 0, 1)), (7, (7, 0, 0, 1)),
                                         (3, (1, 1, -2, 1))])
    def test_jordan_path_matches_the_pair_sum(self, p, delta, n):
        # the class sum at odd p, any slot count, mixed unit coefficients
        rng = random.Random(f"{p}:{delta}:{n}")
        coeffs = [rng.choice([1, 2, p + 1, 2 * p - 1]) for _ in range(n)]
        for _ in range(3):
            gammas = draw_gammas(rng, delta, p, n)
            assert (i0_local(delta, gammas, p, coeffs)
                    == pair_i0(delta, gammas, p, coeffs).to_fraction())

    @pytest.mark.parametrize("p,delta", [(2, (2, 0, 0, 1)), (2, (1, 1, -1, 1)),
                                         (3, (3, 0, 0, 1)), (3, (1, 1, -2, 1))])
    def test_three_slots_match_the_tuple_count(self, p, delta):
        # the pair sum at p = 2 and the class sum at p = 3, level 1,
        # against all q^12 slot tuples
        rng = random.Random(p)
        for _ in range(3):
            gammas = draw_gammas(rng, delta, p, 3)
            coeffs = [rng.choice([1, p - 1]) for _ in range(3)]
            assert (i0_local(delta, gammas, p, coeffs)
                    == tuple_count_i0(delta, gammas, p, coeffs).to_fraction())

    def test_batch_is_the_tuples_one_by_one(self):
        # the oracle's batch of rows against the class sum tuple by tuple
        delta, p = (25, 0, 0, 1), 5
        rng = random.Random(4)
        batch = [draw_gammas(rng, delta, p, 2) for _ in range(7)]
        assert ([v.to_fraction() for v in character_i0(delta, batch, p)]
                == [i0_local(delta, g, p) for g in batch])

    def test_unit_part_of_the_character_table(self):
        # the class table holds one entry per unit class of the q^2
        # characters, a class of order p^o holding phi(p^o) of them, and
        # each representative's l is its class key up to a unit
        p, v, q, delta = 5, 2, 25, (25, 0, 0, 1)
        cls, inv_c, et, w, u = character_table(delta, p, v)
        size, classes = _class_table(delta, p, v, (1,))
        assert size == len(cls) == q * q and len(classes) == len(et)
        rows, radii = _slot_box(delta, p, v)
        reps = _class_representatives(radii, p)
        orders = sorted((p - 1) * p ** (o - 1) if o else 1 for _, o in reps)
        assert orders == sorted(np.bincount(cls).tolist())
        ell = _characters(delta, p, v)
        keys = {line_key(tuple(x), p, v) for x in ell.tolist()}
        assert {line_key([sum(x * (q // r) * row[k] for x, r, row
                              in zip(a, radii, rows)) % q for k in range(4)],
                         p, v) for a, _ in reps} == keys


# the deltas of the class-sum oracle test: every audit delta at p = 3, 5, 7
# (levels 1 and 2), three at p = 3 and level 3, and the content deltas
CLASS_DELTAS = ([(p, delta) for p in (3, 5, 7) for vd in (1, 2)
                 for delta in expsums._audit_deltas(p, vd)]
                + [(3, (27, 0, 0, 1)), (3, (9, 3, 0, 3)), (3, (3, 1, 0, 9)),
                   (3, (3, 0, 0, 3))])


@st.composite
def class_boxes(draw):
    """(p, radii): p in {3, 5, 7} and one to four radii p^b, b <= 3, with
    |B| <= 10^5, so that the list of representatives stays small."""
    p = draw(st.sampled_from([3, 5, 7]))
    radii, room = [], 10 ** 5
    for _ in range(draw(st.integers(1, 4))):
        top = max(b for b in range(4) if p ** b <= room)
        radii.append(p ** draw(st.integers(0, top)))
        room //= radii[-1]
    return p, tuple(radii)


def box_elements(radii):
    return itertools.product(*(range(r) for r in radii))


class TestClassSum:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("p,delta", CLASS_DELTAS)
    def test_i0_matches_the_character_sum(self, p, delta, n):
        # the class sum against the character-table oracle, whose value
        # must itself be rational, with mixed unit coefficients
        rng = random.Random(f"class:{p}:{delta}:{n}")
        batch = [draw_gammas(rng, delta, p, n) for _ in range(4)]
        coeffs = [rng.choice([c for c in range(1, 3 * p) if c % p])
                  for _ in range(n)]
        want = [v.to_fraction() for v in character_i0(delta, batch, p, coeffs)]
        assert [i0_local(delta, g, p, coeffs) for g in batch] == want

    @settings(max_examples=60, deadline=None)
    @given(class_boxes())
    def test_representatives_partition_the_box(self, box):
        # the unit orbits of the representatives are disjoint and cover B
        # (exhaustively for |B| <= 10^4), and every element moves onto its
        # representative by the inverse of its pivot's unit part
        p, radii = box
        reps = _class_representatives(radii, p)
        assert len(set(reps)) == len(reps)
        orbit_sizes = sum((p - 1) * p ** (o - 1) if o else 1 for _, o in reps)
        assert orbit_sizes == math.prod(radii)
        if math.prod(radii) > 10 ** 4:
            return
        seen = {}
        for a, o in reps:
            for c in range(1, p ** o if o else 2):
                if c % p:
                    x = tuple(c * ak % r for ak, r in zip(a, radii))
                    assert x not in seen
                    seen[x] = a
        assert len(seen) == math.prod(radii)
        rep_set = {a for a, _ in reps}
        for x in box_elements(radii):
            orders = [r // math.gcd(xk, r) for xk, r in zip(x, radii)]
            top = max(orders)
            if top == 1:
                assert seen[x] == x == (0,) * len(radii)
                continue
            i = orders.index(top)
            unit = x[i] // (radii[i] // top)
            y = tuple(pow(unit, -1, top) * xk % r for xk, r in zip(x, radii))
            assert y in rep_set and seen[x] == y

    @pytest.mark.parametrize("p", [3, 5, 7])
    @pytest.mark.parametrize("o", [1, 2, 3])
    def test_unit_sums_are_the_direct_sums(self, p, o):
        # both closed forms against sum over units c of chi(c) e(c x/p^o),
        # chi trivial or (c/p), the latter times g1, at every x
        m = p ** o
        g1 = CycloSum(p, 1, [sum(y * y % p == r for y in range(p))
                             for r in range(p)])
        chi = {c: 1 if pow(c, (p - 1) // 2, p) == 1 else -1
               for c in range(m) if c % p}
        for x in range(m):
            plain, twisted = [0] * m, [0] * m
            for c, sign in chi.items():
                plain[c * x % m] += 1
                twisted[c * x % m] += sign
            assert CycloSum(p, o, plain) == _unit_sum(x, p, o, 0)
            assert CycloSum(p, o, twisted) * g1 == _unit_sum(x, p, o, 1)
        assert _unit_sum(5, p, 0, 0) == 1

    def test_orbit_count_certificate_refuses(self):
        # radii that are no powers of p leave classes that do not add up
        with pytest.raises(VerificationError, match="unit classes"):
            _class_representatives((6, 3, 1, 1), 3)

    def test_pair_sum_certificate_refuses(self, monkeypatch):
        # at p = 2 a value with a root of unity left is refused
        monkeypatch.setattr(expsums, "_pair_row",
                            lambda delta, t, p, v, coeffs: [0, 1] + [0] * 6)
        with pytest.raises(VerificationError, match="not rational"):
            i0_local((8, 0, 0, 1), [(1, 0, 0, 1)], 2)
