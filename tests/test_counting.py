import itertools
import tracemalloc

import numpy as np
import pytest

from qcl import counting
from qcl.algebra import HurwitzQuat
from qcl.audits import suite_counting
from qcl.counting import (
    SparseDist, brute_count, conv_count, dist_convolve,
    dist_pair_zero, growth_report, hurwitz_box, pack_key, slot_square_dist,
    slot_square_values, traceless_count,
)
from qcl.errors import BudgetError, PreconditionError, VerificationError

_LANE_MASK = (1 << 16) - 1
_LANE_BIAS = 1 << 15


def unpack_key(k):
    """The 4-vector that `pack_key` packed into k."""
    k = int(k)
    v0 = (k & _LANE_MASK) - _LANE_BIAS
    v1 = ((k >> 16) & _LANE_MASK) - _LANE_BIAS
    v2 = ((k >> 32) & _LANE_MASK) - _LANE_BIAS
    v3 = (k - (v0 + _LANE_BIAS) - ((v1 + _LANE_BIAS) << 16)
          - ((v2 + _LANE_BIAS) << 32)) >> 48
    return (v0, v1, v2, v3)


def value_multiset(d):
    """{value: multiplicity} of a SparseDist."""
    return {unpack_key(k): int(c) for k, c in zip(d.keys, d.counts)}


def one_shot_convolve(a, b):
    """The earlier dist_convolve in one shot: every pair sum at once, then
    np.unique and np.add.at; (keys, counts, bound, mass)."""
    bias = int(pack_key((0, 0, 0, 0)))
    ks = (a.keys[:, None] + b.keys[None, :] - bias).ravel()
    cs = (a.counts[:, None] * b.counts[None, :]).ravel()
    uk, inv = np.unique(ks, return_inverse=True)
    uc = np.zeros(len(uk), dtype=np.int64)
    np.add.at(uc, inv, cs)
    return uk, uc, a.bound + b.bound, int(np.sum(uc, dtype=object))


def assert_matches_one_shot(a, b):
    c = dist_convolve(a, b)
    keys, counts, bound, mass = one_shot_convolve(a, b)
    assert c.keys.tolist() == keys.tolist()
    assert c.counts.tolist() == counts.tolist()
    assert (c.bound, c.mass) == (bound, mass) == (bound, a.mass * b.mass)


def random_dist(rng, size, bound):
    """A SparseDist of at most `size` random values, every coordinate (the
    top lane too) of either sign, with random positive counts."""
    values = rng.integers(-bound, bound + 1, size=(size, 4))
    keys = np.unique(pack_key(values))
    return SparseDist(keys, rng.integers(1, 1000, size=len(keys)), bound)


def point_mass():
    """The SparseDist of the single value (0, 0, 0, 0)."""
    return SparseDist(np.array([pack_key((0, 0, 0, 0))], dtype=np.int64),
                      np.array([1], dtype=np.int64), 0)


class TestPackedKeys:
    def test_roundtrip(self):
        for v in [(0, 0, 0, 0), (1, -2, 3, -4), (-100, 100, -1, 7),
                  (32767, -32767, 32767, -32767)]:
            assert unpack_key(pack_key(v)) == v

    def test_additivity(self):
        a, b = (3, -5, 7, -2), (-1, 4, -6, 9)
        s = tuple(x + y for x, y in zip(a, b))
        bias = pack_key((0, 0, 0, 0))
        assert pack_key(a) + pack_key(b) - bias == pack_key(s)

    def test_out_of_range(self):
        for v in [(1 << 15, 0, 0, 0), (0, 0, 0, -(1 << 15)),
                  (0, -(1 << 63), 0, 0), (0, 0, (1 << 63) - 1, 0),
                  (1 << 70, 0, 0, 0)]:
            with pytest.raises(PreconditionError):
                pack_key(v)
        with pytest.raises(PreconditionError):
            pack_key(np.array([[1, 2, 3, 4], [0, 1 << 15, 0, 0]]))

    def test_array_packing_equals_scalar_packing(self):
        rng = np.random.default_rng(5)
        rows = rng.integers(-(1 << 15) + 1, 1 << 15, size=(500, 4))
        rows[:4] = [(32767, -32767, 32767, -32767), (0, 0, 0, 0),
                    (-32767, 32767, -32767, 32767), (1, -1, 0, 7)]
        keys = pack_key(rows)
        assert keys.dtype == np.int64 and keys.shape == (500,)
        assert keys.tolist() == [int(pack_key(tuple(map(int, r))))
                                 for r in rows]
        assert [unpack_key(k) for k in keys] == [tuple(r) for r in
                                                 rows.tolist()]


class TestSparseDist:
    def test_box_sizes(self):
        assert len(hurwitz_box(1)) == 3 ** 4 + 2 ** 4 == 97
        assert len(hurwitz_box(2)) == 5 ** 4 + 4 ** 4 == 881
        box = hurwitz_box(2)
        assert box.dtype == np.int64 and box.shape == (881, 4)
        assert len({tuple(r) for r in box.tolist()}) == 881

    def test_mass_equals_box(self):
        d = slot_square_dist(1, 1)
        assert d.mass == 97
        assert sum(value_multiset(d).values()) == 97

    def test_squares_are_integral(self):
        # every key unpacks to integer true coordinates by construction;
        # spot-check the multiset against a direct recomputation
        vals = slot_square_values(-1, 1)
        d = slot_square_dist(-1, 1)
        direct = {}
        for v in map(tuple, vals.tolist()):
            direct[v] = direct.get(v, 0) + 1
        assert value_multiset(d) == direct

    def test_convolve_matches_direct(self):
        a = slot_square_dist(1, 1)
        b = slot_square_dist(-1, 1)
        c = dist_convolve(a, b)
        assert c.mass == 97 * 97
        # direct dict convolution as oracle
        direct = {}
        for va, ca in value_multiset(a).items():
            for vb, cb in value_multiset(b).items():
                k = tuple(x + y for x, y in zip(va, vb))
                direct[k] = direct.get(k, 0) + ca * cb
        assert value_multiset(c) == direct

    def test_convolve_count_overflow_raises(self):
        # int64 products wrap: the true mass (2^40 + 3)^2 ~ 1.2e24 would
        # come back as about 6.6e12
        keys = np.array([pack_key((0, 0, 0, 0)), pack_key((1, 0, 0, 0))],
                        dtype=np.int64)
        big = SparseDist(keys, np.array([2 ** 40, 3], dtype=np.int64), 1)
        with pytest.raises(VerificationError):
            dist_convolve(big, big)

    def test_unsorted_keys_refused(self):
        keys = np.array([pack_key((1, 0, 0, 0)), pack_key((0, 0, 0, 0))],
                        dtype=np.int64)
        with pytest.raises(PreconditionError):
            SparseDist(keys, np.array([1, 1], dtype=np.int64), 1)
        with pytest.raises(PreconditionError):
            SparseDist(keys[[0, 0]], np.array([1, 1], dtype=np.int64), 1)

    def test_pair_zero_near_int64_bound(self):
        # counts near 2^62: the masses admit int64 for 2^62 + (2^62 - 1)
        # and not for 2^62 + 2^62, whose dot product passes 2^63
        keys = pack_key(np.array([[0, 0, 0, 0], [1, 0, 0, 0]]))
        neg = pack_key(np.array([[-1, 0, 0, 0], [0, 0, 0, 0]]))
        ones = SparseDist(neg, np.array([1, 1], dtype=np.int64), 1)
        for low in (2 ** 62 - 1, 2 ** 62):
            big = SparseDist(keys, np.array([2 ** 62, low], dtype=np.int64), 1)
            assert dist_pair_zero(big, ones) == 2 ** 62 + low
            assert dist_pair_zero(ones, big) == 2 ** 62 + low

    def test_pair_zero_matches_convolve(self):
        a = slot_square_dist(1, 1)
        b = slot_square_dist(-1, 1)
        assert dist_pair_zero(a, b) == dist_convolve(a, b).multiplicity(
            (0, 0, 0, 0))

    def test_conjugation_multiset_invariance(self):
        # the value multiset of sign * g^2 is stable under v -> conjugate(v)
        for sign in (1, -1):
            for X in (1, 2):
                ms = value_multiset(slot_square_dist(sign, X))
                conj = {(v[0], -v[1], -v[2], -v[3]): c for v, c in ms.items()}
                assert ms == conj


class TestBlockConvolve:
    """dist_convolve in top-lane blocks against the one-shot oracle."""

    @pytest.mark.parametrize("traceless", [False, True])
    @pytest.mark.parametrize("X", [1, 2])
    @pytest.mark.parametrize("signs", list(itertools.product((1, -1),
                                                             repeat=2)))
    def test_slot_pairs_match_one_shot(self, signs, X, traceless):
        assert_matches_one_shot(*(slot_square_dist(u, X, traceless)
                                  for u in signs))

    @pytest.mark.parametrize("block", [1, 7, 2 ** 30])
    def test_block_edges_match_one_shot(self, block, monkeypatch):
        # block 1 and 7 put edges inside slabs and rows, between them, and
        # in the middle of one top lane's sums; 2^30 puts the one edge past
        # the end
        monkeypatch.setattr(counting, "_CONV_BLOCK", block)
        rng = np.random.default_rng(21)
        for sizes, bound in [((1, 1), 3), ((30, 45), 4), ((60, 5), 40),
                             ((5, 60), 2), ((40, 40), 1), ((70, 20), 9)]:
            a, b = (random_dist(rng, size, bound) for size in sizes)
            assert_matches_one_shot(a, b)
            assert_matches_one_shot(b, a)
        d = slot_square_dist(-1, 1, True)
        assert_matches_one_shot(d, slot_square_dist(1, 1))

    def test_empty_operand(self):
        empty = SparseDist(np.empty(0, np.int64), np.empty(0, np.int64), 0)
        for a, b in [(empty, point_mass()), (point_mass(), empty)]:
            c = dist_convolve(a, b)
            assert len(c.keys) == len(c.counts) == c.mass == 0

    def test_pair_cap_refuses_before_allocating(self, monkeypatch):
        a, b = slot_square_dist(1, 2), slot_square_dist(-1, 2)
        monkeypatch.setattr(counting, "_CONV_PAIR_CAP",
                            len(a.keys) * len(b.keys) - 1)
        tracemalloc.start()
        try:
            with pytest.raises(BudgetError):
                dist_convolve(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 ** 5
        monkeypatch.setattr(counting, "_CONV_PAIR_CAP",
                            len(a.keys) * len(b.keys))
        assert dist_convolve(a, b).mass == a.mass * b.mass

    @staticmethod
    def _cold_peak(call):
        """(result, tracemalloc peak) of call with the slot memos empty."""
        counting.slot_square_dist.cache_clear()
        counting._box_squares.cache_clear()
        tracemalloc.start()
        try:
            out = call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return out, peak

    def test_three_slot_memory(self):
        # reducing all 388^2 pair sums of the first node at once peaked at
        # 9.7 MiB
        count, peak = self._cold_peak(lambda: conv_count(3, (1, -1, 1), 2))
        assert count == brute_count(3, (1, -1, 1), 2)
        assert peak <= 9.7 * 2 ** 20 / 2

    def test_five_slot_memory(self):
        # about 1 GB when the pair sums were reduced 2 * 10^7 at a time
        count, peak = self._cold_peak(lambda: conv_count(5, (1,) * 5, 2))
        assert count == 395004961
        assert peak < 128 * 2 ** 20

    @staticmethod
    def _recorded(monkeypatch):
        """Patch dist_convolve to log each pair of operands as
        (keys, mass, first key) of a, then of b."""
        calls = []

        def recorded(a, b):
            calls.append(tuple((len(d.keys), d.mass, int(d.keys[0]))
                               for d in (a, b)))
            return dist_convolve(a, b)

        monkeypatch.setattr(counting, "dist_convolve", recorded)
        return calls

    def test_six_slots_pinned(self, monkeypatch):
        # the (1, 1, 1) half is built once, not once per side
        calls = self._recorded(monkeypatch)
        assert conv_count(6, (1,) * 6, 2) == 74863920049
        assert len(calls) == 2

    def test_twelve_slots_build_each_power_once(self, monkeypatch):
        # slots 1, 2, 3 and 6, one convolution each past the first slot
        calls = self._recorded(monkeypatch)
        assert conv_count(12, (1,) * 12, 1) == 1740967733596961
        assert len(calls) == 3

    def test_tree_does_not_depend_on_build_order(self, monkeypatch):
        # the slots are grouped in order of first appearance, so the memo
        # order (and so the memory addresses) of the two signs' histograms
        # cannot change the tree
        signs = (1, -1) * 3
        calls = self._recorded(monkeypatch)
        runs = []
        for first in (1, -1):
            counting.slot_square_dist.cache_clear()
            for u in (first, -first):
                slot_square_dist(u, 1)
            calls.clear()
            runs.append((conv_count(6, signs, 1), list(calls)))
        assert runs[0] == runs[1]
        # grouped +, +, +, -, -, -: the first node is + * -, the sign of
        # the first slot leading
        plus, minus = (slot_square_dist(u, 1) for u in (1, -1))
        assert runs[0][1][0] == tuple((len(d.keys), d.mass, int(d.keys[0]))
                                      for d in (plus, minus))
        assert len(runs[0][1]) == 4


def _nested_loop_brute_count(n, upsilon, X):
    """The earlier brute engine: Python loops over tuples and dict lookups."""
    slots = [list(map(tuple, slot_square_values(u, X).tolist()))
             for u in upsilon]
    if n == 1:
        return sum(1 for v in slots[0] if v == (0, 0, 0, 0))
    last = {}
    for v in slots[-1]:
        last[v] = last.get(v, 0) + 1
    total = 0
    if n == 2:
        for v in slots[0]:
            total += last.get((-v[0], -v[1], -v[2], -v[3]), 0)
    else:
        for v1 in slots[0]:
            for v2 in slots[1]:
                key = (-v1[0] - v2[0], -v1[1] - v2[1],
                       -v1[2] - v2[2], -v1[3] - v2[3])
                total += last.get(key, 0)
    return total


def _unmemoised_squares(sign, X, traceless):
    """sign * g^2 for g in the box, squared one HurwitzQuat at a time; the
    full box is rebuilt by itertools.product in its documented order."""
    if traceless:
        src = [HurwitzQuat(0, 2 * x, 2 * y, 2 * z)
               for x, y, z in itertools.product(range(-X, X + 1), repeat=3)]
    else:
        src = [HurwitzQuat(*c) for parity in (range(-2 * X, 2 * X + 1, 2),
                                              range(-2 * X + 1, 2 * X, 2))
               for c in itertools.product(parity, repeat=4)]
    return [tuple(sign * c for c in (g * g).c) for g in src]


class TestBoxSquares:
    @pytest.mark.parametrize("traceless", [False, True])
    @pytest.mark.parametrize("X", [1, 2])
    def test_both_signs_match_unmemoised_squares(self, X, traceless):
        for sign in (1, -1):
            values = slot_square_values(sign, X, traceless)
            assert values.dtype == np.int64 and values.shape[1] == 4
            assert (list(map(tuple, values.tolist()))
                    == _unmemoised_squares(sign, X, traceless))
            dist = slot_square_dist(sign, X, traceless)
            assert dist is slot_square_dist(sign, X, traceless)
            assert not (dist.keys.flags.writeable
                        or dist.counts.flags.writeable)
        assert not slot_square_values(1, X, traceless).flags.writeable

    def test_suite_squares_each_box_once(self, monkeypatch):
        calls = []
        square = counting.doubled_mul_flat
        monkeypatch.setattr(counting, "doubled_mul_flat",
                            lambda x, y: calls.append(len(x[0])) or square(x, y))
        counting._box_squares.cache_clear()
        try:
            assert suite_counting()["passed"]
        finally:
            counting._box_squares.cache_clear()
        # one product per (X, traceless), over the whole box: X in (1, 2),
        # full and traceless
        assert 0 < len(calls) <= 4
        assert set(calls) <= {len(hurwitz_box(1)), len(hurwitz_box(2)),
                              3 ** 3, 5 ** 3}


class TestBruteCount:
    @pytest.mark.parametrize("X", [1, 2])
    @pytest.mark.parametrize("signs", [s for n in (1, 2, 3) for s in
                                       itertools.product((1, -1), repeat=n)])
    def test_matches_nested_loops(self, signs, X):
        assert (brute_count(len(signs), signs, X)
                == _nested_loop_brute_count(len(signs), signs, X))

    def test_single_slot_anisotropy(self):
        assert brute_count(1, [1], 1) == 1
        assert brute_count(1, [-1], 2) == 1

    def test_preconditions(self):
        with pytest.raises(PreconditionError):
            brute_count(4, [1, 1, 1, 1], 1)
        with pytest.raises(PreconditionError):
            brute_count(2, [1, 2], 1)


class TestConvCount:
    def test_empty_product(self):
        assert conv_count(0, [], 1) == 1

    @pytest.mark.parametrize("signs", list(itertools.product((1, -1),
                                                             repeat=2)))
    def test_matches_brute_n2(self, signs):
        for X in (1, 2):
            assert conv_count(2, signs, X) == brute_count(2, signs, X)

    def test_matches_brute_n3_sample(self):
        for signs in [(1, 1, -1), (1, -1, -1)]:
            assert conv_count(3, signs, 1) == brute_count(3, signs, 1)

    def test_slot_permutation_invariance(self):
        base = conv_count(3, (1, 1, -1), 1)
        assert conv_count(3, (1, -1, 1), 1) == base
        assert conv_count(3, (-1, 1, 1), 1) == base

    def test_monotone_in_height(self):
        assert conv_count(2, (1, -1), 2) >= conv_count(2, (1, -1), 1)

    def test_order_independence(self):
        # the balanced tree against a left fold over the slots
        signs = (1, 1, -1, -1, 1)
        acc = point_mass()
        for u in signs:
            acc = dist_convolve(acc, slot_square_dist(u, 1))
        assert conv_count(5, signs, 1) == acc.multiplicity((0, 0, 0, 0))

    def test_budget(self):
        with pytest.raises(BudgetError):
            conv_count(9, [1] * 9, 8)


class TestTraceless:
    def test_definite_origin_only(self):
        assert traceless_count(2, (1, 1), 2) == (1, 1)
        assert traceless_count(3, (-1, -1, -1), 1) == (1, 1)

    def test_engines_agree_indefinite(self):
        for signs, X in [((1, -1), 1), ((1, -1), 2), ((1, 1, -1), 1)]:
            cnt, quad = traceless_count(len(signs), signs, X)
            assert cnt == quad

    def test_pinned_by_direct_enumeration(self):
        # 6-variable direct oracle for n=2, signs (+1,-1), X=2
        X = 2
        direct = 0
        for v in itertools.product(range(-X, X + 1), repeat=6):
            if (v[0] ** 2 + v[1] ** 2 + v[2] ** 2
                    == v[3] ** 2 + v[4] ** 2 + v[5] ** 2):
                direct += 1
        cnt, quad = traceless_count(2, (1, -1), X)
        assert cnt == quad == direct

    def test_subset_of_full_count(self):
        cnt, _ = traceless_count(2, (1, -1), 2)
        assert cnt <= conv_count(2, (1, -1), 2)


class TestGrowthReport:
    def test_single_height(self):
        rep = growth_report(2, (1, -1), [1])
        assert len(rep["rows"]) == 1
        assert rep["rows"][0]["log2_slope"] is None

    def test_slopes_present(self):
        rep = growth_report(2, (1, -1), [1, 2])
        assert rep["rows"][1]["log2_slope"] is not None
        assert rep["rows"][1]["count"] == conv_count(2, (1, -1), 2)

    def test_traceless_slice(self):
        rep = growth_report(2, (1, -1), [1, 2, 3], traceless=True)
        counts = [r["count"] for r in rep["rows"]]
        assert counts == [traceless_count(2, (1, -1), x)[0]
                          for x in (1, 2, 3)]

    def test_heights_must_increase(self):
        with pytest.raises(PreconditionError):
            growth_report(2, (1, -1), [2, 1])


class TestAuditVerdict:
    def test_engine_mismatch_is_verification_error(self, monkeypatch):
        from qcl import audits, counting

        real = counting.brute_count
        monkeypatch.setattr(counting, "brute_count",
                            lambda n, ups, X: real(n, ups, X) + 1)
        out = audits.suite_counting()
        assert out["passed"] is False
        failed = [c for c in out["checks"] if not c["passed"]]
        assert [c["name"] for c in failed] == ["conv-vs-brute-n2",
                                               "conv-vs-brute-n3"]
        for c in failed:
            assert c["error"].startswith("VerificationError: engines differ")
