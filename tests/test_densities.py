import itertools
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qcl import densities
from qcl.algebra import (HurwitzQuat, hq_from_basis_coords, hq_to_basis_coords,
                         left_mul_coords)
from qcl.densities import (
    QuotientGroup, _count_at_zero,
    archimedean_density, density_tail_bracket, group_convolve, local_zeta,
    nonsplit_density_odd, nonsplit_density_two, outside_tail_bracket,
    singular_series,
    split_density, split_density_exhaustive, split_square_distribution,
)
from qcl.errors import BudgetError, PreconditionError, VerificationError
from qcl.linalg import reduce_mod_hnf, row_hnf


def _hurwitz_level_lattice(m):
    """HNF basis (in order-basis coordinates) of w^{2m-1} O for the
    ramified order at 2, where w = 1 + i is the uniformizer: the row HNF of
    the image of the order under left multiplication by w^{2m-1}."""
    w = HurwitzQuat.from_true(1, 1, 0, 0)
    pw = HurwitzQuat.from_true(1, 0, 0, 0)
    for _ in range(2 * m - 1):
        pw = pw * w
    h, _, rank = row_hnf([list(col) for col in zip(*left_mul_coords(pw))])
    assert rank == 4
    return [h[i] for i in range(4)]


def group_convolve_oracle(a, b, grp):
    """Reference convolution: one canonical reduction of digits + digits[s]
    for every support element s of `a`, accumulated in Python ints."""
    c = np.zeros(grp.order, dtype=object)
    bo = b.astype(object)
    for s in np.nonzero(a)[0]:
        c[grp.pack(grp.digits + grp.digits[s])] += int(a[s]) * bo
    return c


def nonsplit_density_two_exhaustive(m, n, budget=10 ** 7):
    """Brute-force oracle for nonsplit_density_two (tiny cases)."""
    h = _hurwitz_level_lattice(m)
    radii = [h[i][i] for i in range(4)]
    size = radii[0] * radii[1] * radii[2] * radii[3]
    if size ** n > budget:
        raise BudgetError("exhaustive enumeration too large")
    reps = [hq_from_basis_coords(v)
            for v in itertools.product(*(range(r) for r in radii))]
    count = 0
    for ys in itertools.product(reps, repeat=n):
        s = HurwitzQuat(0, 0, 0, 0)
        for y in ys:
            s = s + y * y
        if not any(reduce_mod_hnf(list(hq_to_basis_coords(s)), h)):
            count += 1
    return Fraction(2 ** (4 * m) * count, size ** n)


def local_order_product(x, y, p, u):
    """Product in the local division order at odd p on (1, s, P, sP),
    s^2 = u, P^2 = p, P a = conj(a) P: write x = A + B P, y = C + D P with
    A, B, C, D in Z[s], so that x y = (A C + p B conj(D)) + (A D + B conj(C)) P.
    A derivation independent of `quat_mul_flat`."""
    def qmul(x1, x2, y1, y2):  # (x1 + x2 s)(y1 + y2 s)
        return (x1 * y1 + u * x2 * y2, x1 * y2 + x2 * y1)
    a1, a2, b1, b2 = x
    c1, c2, d1, d2 = y
    ac, bd = qmul(a1, a2, c1, c2), qmul(b1, b2, d1, -d2)
    ad, bc = qmul(a1, a2, d1, d2), qmul(b1, b2, c1, -c2)
    return (ac[0] + p * bd[0], ac[1] + p * bd[1], ad[0] + bc[0], ad[1] + bc[1])


def nonsplit_density_odd_exhaustive(p, m, n, coeffs=None):
    """Brute-force oracle for nonsplit_density_odd: every n-tuple of the
    quotient (z1, z2 mod p^m, z3, z4 mod p^{m-1}), one square per element."""
    coeffs = coeffs or [1] * n
    u = next(u for u in range(2, p) if pow(u, (p - 1) // 2, p) == p - 1)
    radii = [p ** m, p ** m, p ** (m - 1), p ** (m - 1)]
    squares = [local_order_product(z, z, p, u)
               for z in itertools.product(*(range(r) for r in radii))]
    count = 0
    for ys in itertools.product(squares, repeat=n):
        total = [sum(c * y[t] for c, y in zip(coeffs, ys)) for t in range(4)]
        count += all(v % r == 0 for v, r in zip(total, radii))
    return Fraction(p ** (4 * m) * count, len(squares) ** n)


@st.composite
def quotient_groups(draw):
    """Mixed-radix boxes of one to four digits."""
    return QuotientGroup(draw(
        st.lists(st.integers(1, 7), min_size=1, max_size=4)))


@st.composite
def group_and_masses(draw):
    grp = draw(quotient_groups())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    # a share of zeros leaves whole head cosets empty
    zeros = draw(st.sampled_from([0.0, 0.5, 0.9]))
    # scale 2**40 pushes the mass product past 2**63: the object path
    scale = draw(st.sampled_from([1, 2 ** 40]))

    def masses():
        vals = rng.integers(0, 4, grp.order) * (rng.random(grp.order) >= zeros)
        return vals if scale == 1 else vals.astype(object) * scale

    return grp, masses(), masses()


class TestGroupConvolve:
    def test_delta_identity(self):
        grp = QuotientGroup([2, 3])
        a = np.zeros(6, dtype=np.int64)
        a[0] = 1
        b = np.arange(6, dtype=np.int64)
        assert (group_convolve(a, b, grp) == b).all()

    def test_matches_direct(self):
        grp = QuotientGroup([3, 3])
        rng = np.random.default_rng(0)
        a = rng.integers(0, 5, 9).astype(np.int64)
        b = rng.integers(0, 5, 9).astype(np.int64)
        c = group_convolve(a, b, grp)
        direct = np.zeros(9, dtype=np.int64)
        for i in range(9):
            for j in range(9):
                k = ((i // 3 + j // 3) % 3) * 3 + (i % 3 + j % 3) % 3
                direct[k] += a[i] * b[j]
        assert (c == direct).all()

    def test_power_at_zero(self):
        grp = QuotientGroup([4])
        d = np.array([1, 2, 0, 1], dtype=np.int64)
        # cube by hand
        full = np.zeros(4, dtype=np.int64)
        for i, j, k in itertools.product(range(4), repeat=3):
            full[(i + j + k) % 4] += d[i] * d[j] * d[k]
        assert _count_at_zero([d] * 3, grp) == full[0]


class TestCosetKernel:
    @settings(max_examples=120, deadline=None)
    @given(group_and_masses())
    def test_matches_oracle_and_conserves_mass(self, case):
        grp, a, b = case
        c = group_convolve(a, b, grp)
        mass = int(a.sum()) * int(b.sum())
        peak = min(int(a.max()) * int(b.sum()), int(a.sum()) * int(b.max()))
        assert c.dtype == (np.int64 if peak < 2 ** 63 else object)
        assert list(c) == list(group_convolve_oracle(a, b, grp))
        assert int(c.sum()) == mass

    def test_head_is_shortest_prefix_covering_the_tail(self):
        grp = QuotientGroup([9] * 4)
        assert (grp.head, grp.cosets, grp.tail) == (2, 81, 81)
        grp = QuotientGroup([1, 1, 2, 2])
        assert (grp.head, grp.cosets, grp.tail) == (3, 2, 2)

    @pytest.mark.parametrize("radii", [[25] * 4, [2, 3, 5, 4], [1, 1, 2, 2]])
    def test_coset_tables_match_the_broadcast_formula(self, radii):
        # the (V, V, k) broadcast the tables were once packed from
        grp = QuotientGroup(radii)
        tails = grp.digits[:grp.tail]
        heads = grp.digits[::grp.tail]
        diff = grp.pack(tails[None, :, :] - tails[:, None, :])
        target = grp.pack(heads[:, None, :] + heads[None, :, :]) // grp.tail
        got_diff, got_target = QuotientGroup(radii).coset_tables
        assert (got_diff == diff).all() and (got_target == target).all()
        assert (grp.negation() == grp.pack(-grp.digits)).all()

    def test_coset_tables_peak_is_two_tables(self):
        import tracemalloc

        grp = QuotientGroup([25] * 4)
        tracemalloc.start()
        try:
            diff, target = grp.coset_tables
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * diff.nbytes + target.nbytes

    def test_lost_mass_is_a_verification_failure(self, monkeypatch):
        kernel = densities._convolve_cosets

        def leaky(a, b, grp, heads):
            c = kernel(a, b, grp, heads)
            c[np.nonzero(c)[0][0]] -= 1
            return c

        monkeypatch.setattr(densities, "_convolve_cosets", leaky)
        grp = QuotientGroup([3, 3])
        a = np.arange(9, dtype=np.int64)
        with pytest.raises(VerificationError):
            group_convolve(a, a, grp)
        with pytest.raises(VerificationError):
            split_density(3, 1, 5)

    def test_budget_refuses_before_any_work(self, monkeypatch):
        def no_work(*args):
            raise AssertionError("kernel ran past the budget guard")

        monkeypatch.setattr(densities, "_convolve_cosets", no_work)
        monkeypatch.setattr(densities, "_CONVOLVE_BUDGET", 10 ** 7)
        grp = QuotientGroup([9] * 4)
        a = np.ones(grp.order, dtype=np.int64)
        # 81 heads * 81 cosets * 81^2 = 4.3e7 multiply-adds
        with pytest.raises(BudgetError):
            group_convolve(a, a, grp)
        assert "coset_tables" not in vars(grp)

    def test_object_path_has_its_own_budget(self, monkeypatch):
        grp = QuotientGroup([3] * 4)
        big = np.full(grp.order, 2 ** 40, dtype=object)
        cost = 9 * 81 * 9 * densities._OBJECT_COST
        monkeypatch.setattr(densities, "_CONVOLVE_BUDGET", cost)
        assert group_convolve(big, big, grp).dtype == object
        monkeypatch.setattr(densities, "_convolve_cosets", None)
        monkeypatch.setattr(densities, "_CONVOLVE_BUDGET", cost - 1)
        with pytest.raises(BudgetError):
            group_convolve(big, big, grp)

    def test_entry_bound_keeps_int64(self, monkeypatch):
        # the mass product of the last convolution passes 2^63, but the
        # bound on its largest entry does not
        kernel = densities._convolve_cosets
        dtypes = []

        masses = []

        def recorded(a, b, grp, heads):
            dtypes.append(a.dtype)
            masses.append(int(a.sum(dtype=object)) * int(b.sum(dtype=object)))
            return kernel(a, b, grp, heads)

        monkeypatch.setattr(densities, "_convolve_cosets", recorded)
        fast = split_density(3, 2, 9)
        assert masses[-1] >= 2 ** 63
        assert dtypes and all(dt == np.int64 for dt in dtypes)
        monkeypatch.setattr(
            densities, "_convolve_cosets", lambda a, b, grp, heads: kernel(
                a.astype(object), b.astype(object), grp, heads))
        assert split_density(3, 2, 9) == fast

    def test_negative_counts_rejected(self):
        grp = QuotientGroup([2])
        with pytest.raises(PreconditionError):
            group_convolve(np.array([1, -1]), np.array([1, 1]), grp)

    @pytest.mark.parametrize("n,convolutions", [(5, 2), (24, 4)])
    def test_balanced_power_built_once(self, monkeypatch, n, convolutions):
        calls = []

        def counted(a, b, grp):
            calls.append(1)
            return group_convolve(a, b, grp)

        monkeypatch.setattr(densities, "group_convolve", counted)
        grp = QuotientGroup([4])
        d = np.array([1, 2, 0, 1], dtype=np.int64)
        full = Counter({0: 1})
        for _ in range(n):
            nxt = Counter()
            for x, u in full.items():
                for y in range(4):
                    nxt[(x + y) % 4] += u * int(d[y])
            full = nxt
        assert _count_at_zero([d] * n, grp) == full[0]
        assert len(calls) == convolutions

    @staticmethod
    def _recorded(monkeypatch):
        """Patch group_convolve to log (heads of a, mass a, mass b)."""
        calls = []

        def recorded(a, b, grp):
            heads = a.reshape(grp.cosets, grp.tail).any(axis=1).sum()
            calls.append((int(heads), int(a.sum(dtype=object)),
                          int(b.sum(dtype=object))))
            return group_convolve(a, b, grp)

        monkeypatch.setattr(densities, "group_convolve", recorded)
        return calls

    def test_power_call_sequence_pinned(self, monkeypatch):
        # the equal-slot tree runs, call for call, the convolutions of the
        # earlier power path (dist^(n//2) built once by balanced splitting)
        def power(dist, n, grp):
            if n == 1:
                return dist
            half = power(dist, n // 2, grp)
            out = densities.group_convolve(half, half, grp)
            return densities.group_convolve(dist, out, grp) if n % 2 else out

        def power_at_zero(dist, n, grp):
            half = power(dist, n // 2, grp)
            last = densities.group_convolve(dist, half, grp) if n % 2 else half
            neg = grp.pack(-grp.digits)
            return int(np.dot(half.astype(object), last[neg].astype(object)))

        grp = QuotientGroup([3] * 4)
        d = split_square_distribution(3, 1)
        calls = self._recorded(monkeypatch)
        for n in range(2, 31):
            calls.clear()
            expect = power_at_zero(d, n, grp)
            pinned = list(calls)
            calls.clear()
            assert _count_at_zero([d] * n, grp) == expect
            assert calls == pinned, n

    def test_mixed_slots_build_each_multiset_once(self, monkeypatch):
        # coefficients 1, 2, 1, 2, 1 are grouped as 1, 1, 1, 2, 2: the node
        # 1 * 2 is built once and convolved once more with a 1; the left
        # fold over the slots took three convolutions
        grp = QuotientGroup([3] * 4)
        d1, d2 = (split_square_distribution(3, 1, c) for c in (1, 2))
        acc = d1
        for d in (d2, d1, d2, d1):
            acc = group_convolve_oracle(d, acc, grp)
        calls = self._recorded(monkeypatch)
        assert _count_at_zero([d1, d2, d1, d2, d1], grp) == acc[0]
        assert len(calls) == 2


class TestSplitDensity:
    def test_nilpotent_count_pinned(self):
        # n = 1, m = 1: the density equals #{Y in M_2(F_p) : Y^2 = 0} = p^2
        assert split_density(3, 1, 1) == 9
        assert split_density(5, 1, 1) == 25

    @pytest.mark.parametrize("p,m,n", [(3, 1, 1), (3, 1, 2), (5, 1, 1), (3, 2, 1)])
    def test_matches_exhaustive(self, p, m, n):
        assert split_density(p, m, n) == split_density_exhaustive(p, m, n)

    def test_matches_exhaustive_three_slots(self):
        assert split_density(3, 1, 3) == split_density_exhaustive(3, 1, 3)

    def test_unit_coefficients(self):
        a = split_density(3, 1, 2, coeffs=[1, 2])
        b = split_density_exhaustive(3, 1, 2, coeffs=[1, 2])
        assert a == b

    def test_tail_bracket_five_slots(self):
        bracket = density_tail_bracket(3, 5)
        d1 = split_density(3, 1, 5)
        assert abs(float(d1) - 1.0) <= bracket

    def test_one_slot_builds_no_tables_it_never_reads(self):
        # q = 25: seven grid blocks and q^4 = 390625 group elements.  One
        # bincount over the blocks and no (G, 4) digit table keep the peak
        # near the one int64 histogram (3.1 MB); a histogram per block and
        # the digit table took about 30 MB.
        import tracemalloc

        split_density(5, 2, 1)  # the grid blocks of q = 25 are cached
        tracemalloc.start()
        try:
            assert split_density(5, 2, 1) == 1225
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2 ** 20

    @pytest.mark.parametrize("p,m,c", [(3, 1, 1), (3, 1, 2), (3, 2, 1),
                                       (3, 2, 5)])
    def test_square_distribution_is_packed_by_the_box(self, p, m, c):
        # the one format `qcl.expsums` and `qcl.densities` share: every Y
        # mod q adds one to the bin of c Y^2 in QuotientGroup([q] * 4)
        q = p ** m
        a, b, cc, d = np.indices((q,) * 4).reshape(4, -1)
        square = np.stack([a * a + b * cc, b * (a + d), cc * (a + d),
                           d * d + b * cc], axis=1)
        keys = QuotientGroup([q] * 4).pack(c * square % q)
        assert (split_square_distribution(p, m, c)
                == np.bincount(keys, minlength=q ** 4)).all()

    def test_unit_coeff_precondition(self):
        with pytest.raises(PreconditionError):
            split_density(3, 1, 2, coeffs=[3, 1])

    def test_one_coefficient_per_slot(self):
        with pytest.raises(PreconditionError):
            split_density(3, 1, 3, coeffs=[1, 2])

    def test_exact_past_int64(self):
        # 24 slots at q = 3: the count is about 3^{4*23}, far past 2^63.
        # Reference: the Y^2 distribution over M_2(Z/3) convolved 24 times
        # in Python ints.
        q = 3
        dist = Counter()
        for a, b, c, d in itertools.product(range(q), repeat=4):
            dist[((a * a + b * c) % q, b * (a + d) % q, c * (a + d) % q,
                  (d * d + b * c) % q)] += 1
        acc = Counter({(0, 0, 0, 0): 1})
        for _ in range(24):
            nxt = Counter()
            for x, u in acc.items():
                for y, v in dist.items():
                    nxt[tuple((xi + yi) % q for xi, yi in zip(x, y))] += u * v
            acc = nxt
        expect = Fraction(acc[(0, 0, 0, 0)], q ** (4 * 23))
        assert split_density(3, 1, 24) == expect
        assert abs(float(expect) - 1) < 1e-9


class TestNonsplitDensity:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_level_lattice_is_the_box_on_basis_f(self, m):
        # 2^{m-1}(1+j), 2^{m-1}(i+j), 2^m j, 2^m w on the order basis
        # (1, i, j, w): the box of `nonsplit_density_two`
        e = 2 ** (m - 1)
        rows = [[e, 0, e, 0], [0, e, e, 0], [0, 0, 2 * e, 0], [0, 0, 0, 2 * e]]
        h, _, rank = row_hnf(rows)
        assert rank == 4
        assert [h[i] for i in range(4)] == _hurwitz_level_lattice(m)

    @pytest.mark.parametrize("m,n", [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2)])
    def test_two_matches_exhaustive(self, m, n):
        assert nonsplit_density_two(m, n) == nonsplit_density_two_exhaustive(m, n)

    def test_two_five_slots_positive_and_stabilizing(self):
        d = [nonsplit_density_two(m, 5) for m in (1, 2, 3)]
        assert all(x > 0 for x in d)
        assert abs(d[2] - d[1]) < abs(d[1] - d[0])

    def test_odd_place_one_slot(self):
        # independent direct count at p = 3, m = 1, n = 1
        p = 3
        count = 0
        for z1, z2 in itertools.product(range(p), repeat=2):
            sq = local_order_product((z1, z2, 0, 0), (z1, z2, 0, 0), p, 2)
            if sq[0] % p == 0 and sq[1] % p == 0:
                count += 1
        expect = Fraction(p ** 4 * count, p ** 2)
        assert nonsplit_density_odd(p, 1, 1) == expect

    @pytest.mark.parametrize("p,m,n,coeffs", [
        (3, 1, 1, None), (3, 1, 2, None), (3, 1, 3, None), (3, 2, 1, None),
        (5, 1, 2, None), (3, 1, 2, (1, 2)), (5, 1, 2, (1, 2))])
    def test_odd_matches_exhaustive(self, p, m, n, coeffs):
        assert (nonsplit_density_odd(p, m, n, coeffs)
                == nonsplit_density_odd_exhaustive(p, m, n, coeffs))

    @pytest.mark.parametrize("density,args", [
        (nonsplit_density_two, (12, 5)), (nonsplit_density_two, (40, 5)),
        (nonsplit_density_odd, (3, 9, 2)), (nonsplit_density_odd, (3, 3, 1))])
    def test_cap_refuses_before_the_quotient_is_built(self, density, args,
                                                      monkeypatch):
        def refuse(*a, **k):
            raise AssertionError("quotient built past the cap")
        monkeypatch.setattr(densities, "QuotientGroup", refuse)
        with pytest.raises(BudgetError):
            density(*args)

    def test_cap_admits_the_largest_orders(self):
        # 4^7 and 5^6 are the largest orders whose square fits the cap
        assert 0 < nonsplit_density_two(4, 1)
        assert 0 < nonsplit_density_odd(5, 2, 1)

    def test_odd_place_positive(self):
        d = nonsplit_density_odd(3, 2, 5)
        assert d > 0


class TestDensitiesAudit:
    def test_failed_bounds_are_verification_failures(self, monkeypatch):
        from qcl.audits import suite_densities

        monkeypatch.setattr(densities, "split_density_exhaustive",
                            lambda p, m, n: Fraction(-1))
        monkeypatch.setattr(densities, "outside_tail_bracket",
                            lambda d, q, n: True)
        monkeypatch.setattr(densities, "nonsplit_density_two",
                            lambda m, n: Fraction(0))
        out = suite_densities()
        assert out["passed"] is False
        assert [c["error"].split(":")[0] for c in out["checks"]] == \
            ["VerificationError"] * 3


class TestArchimedean:
    def test_deterministic(self):
        a = archimedean_density(2, samples=2 ** 14, shards=4)
        b = archimedean_density(2, samples=2 ** 14, shards=4)
        assert a == b

    def test_positive_with_sane_error(self):
        est, err = archimedean_density(2, samples=2 ** 16)
        assert est > 0
        assert err < est

    def test_shard_mismatch(self):
        with pytest.raises(PreconditionError):
            archimedean_density(2, samples=100, shards=16)

    @pytest.mark.parametrize("n,want", [
        (2, (488.2812499999999, 34.523405420560245)),
        (3, (1210.9374999999998, 217.48758046080823)),
    ])
    def test_default_values_pinned(self, n, want):
        assert archimedean_density(n) == want

    def test_zero_hits_report_the_resolution(self):
        # no sample hits at n = 4; the variance floor is that of one hit,
        # so the stderr is the resolution 2^{4n} / ((2 eps)^4 N) = 625 up
        # to the factor sqrt(1 - 1/N)
        n, eps, samples = 4, 0.05, 2 ** 20
        est, err = archimedean_density(n)
        resolution = 2 ** (4 * n) / ((2 * eps) ** 4 * samples)
        assert est == 0.0
        assert resolution == pytest.approx(625)
        assert err == pytest.approx(resolution, rel=1e-6)


class TestZetaAndSeries:
    def test_local_zeta_pinned(self):
        assert local_zeta(3, 1) == 1.5
        assert local_zeta(3, 2) == 1.125

    def test_bracket_value(self):
        b = density_tail_bracket(3, 5)
        assert abs(b - (1 / 3) * 1.125 * local_zeta(3, 1.5) * 1.5) < 1e-12

    @pytest.mark.parametrize("q", [3, 5, 7])
    def test_exact_bracket_decided_past_float_precision(self, q):
        # e = bound * (1 +- 10^-k) at 60 digits; floats tie from k = 17 on
        import mpmath
        with mpmath.workdps(60):
            r = mpmath.mpf(q) ** mpmath.mpf(1.5)
            bound = mpmath.mpf(q * q) / ((q * q - 1) * (q - 1)) * r / (r - 1)
            assert abs(bound - density_tail_bracket(q, 5)) < 1e-12
            for k in (3, 17, 30, 45):
                for side in (1, -1):
                    man, exp = (bound * (1 + side * mpmath.mpf(10) ** -k)).man_exp
                    e = Fraction(man) * Fraction(2) ** exp
                    for d in (1 + e, 1 - e):
                        assert outside_tail_bracket(d, q, 5) == (side == 1)
        assert not outside_tail_bracket(Fraction(1), q, 5)
        with pytest.raises(PreconditionError):
            outside_tail_bracket(Fraction(1), q, 4)

    def test_series_smoke(self):
        val, per = singular_series(5, [3], 1)
        assert set(per) == {2, 3}
        assert val == per[2] * per[3]
        assert val > 0
