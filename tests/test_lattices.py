import math
from fractions import Fraction

import pytest

from qcl import lattices
from qcl.algebra import (HurwitzQuat, hq_from_basis_coords,
                         hq_to_basis_coords, left_mul_coords,
                         right_mul_coords)
from qcl.errors import BudgetError, PreconditionError, VerificationError
from qcl.linalg import row_hnf
from qcl.lattices import (
    Lattice4, instance_corpus, lattice_basis, lattice_point_count,
    minkowski_bracket, norm_count, norm_counts, eta_congruence_checks,
    rep_number, rep_numbers, successive_minima,
)

ETA3 = HurwitzQuat.from_true(1, 1, 1, 0)  # norm 3
ONE = hq_from_basis_coords([1, 0, 0, 0])


def od_lattice():
    eye = tuple(tuple(1 if i == j else 0 for j in range(4)) for i in range(4))
    return Lattice4(eye, 1, 1, 1, 1, ETA3, ONE)


class TestMulMatrices:
    def test_left_mul_consistency(self):
        L = left_mul_coords(ETA3)
        x = [2, -1, 3, 5]
        direct = hq_to_basis_coords(ETA3 * hq_from_basis_coords(x))
        via = tuple(sum(L[i][j] * x[j] for j in range(4)) for i in range(4))
        assert via == direct

    def test_right_mul_consistency(self):
        R = right_mul_coords(ETA3)
        x = [1, 4, 0, -2]
        direct = hq_to_basis_coords(hq_from_basis_coords(x) * ETA3)
        via = tuple(sum(R[i][j] * x[j] for j in range(4)) for i in range(4))
        assert via == direct


class TestLatticeBasis:
    def test_trivial_scaling(self):
        lat = lattice_basis(2, 1, 1, ETA3, ONE)
        assert lat.index == 16

    def test_pinned_index_norm3(self):
        # oracle: exhaustive membership over the 81 classes mod 3
        import itertools
        lat = lattice_basis(1, 3, 3, ETA3, ONE)
        line = hq_to_basis_coords(ONE * ETA3)
        classes = 0
        for x in itertools.product(range(3), repeat=4):
            M = hq_from_basis_coords(list(x))
            skew = hq_to_basis_coords((M - M.conjugate()) * ETA3)
            if any(v % 3 for v in skew):
                continue
            t = hq_to_basis_coords(M * ETA3)
            if any(all((t[i] - lam * line[i]) % 3 == 0 for i in range(4))
                   for lam in range(3)):
                classes += 1
        assert lat.index * classes == 3 ** 4

    def test_preconditions(self):
        with pytest.raises(PreconditionError):
            lattice_basis(1, 2, 2, HurwitzQuat.from_true(1, 1, 0, 0), ONE)
        with pytest.raises(PreconditionError):
            lattice_basis(1, 3, 5, HurwitzQuat.from_true(1, 1, 1, 2), ONE)

    def test_kprime_mprime(self):
        eta = HurwitzQuat.from_true(2, 2, 1, 0)  # primitive, norm 9
        lat = lattice_basis(3, 3, 9, eta, ONE)
        assert lat.kprime == 1 and lat.mprime == 3

    def test_m0_class_invariance(self):
        # identical lattice when M0 -> u*M0 + W*conj(eta), u a unit mod m
        eta = HurwitzQuat.from_true(2, 2, 1, 0)  # norm 9
        m = 9
        m0 = hq_from_basis_coords([2, 5, 1, 7])
        base = lattice_basis(1, 3, m, eta, m0)
        for u, w in [(2, [1, 0, 0, 0]), (4, [0, 3, -1, 2]), (7, [2, 2, 2, 2])]:
            shifted = (hq_from_basis_coords([u * c for c in
                                             hq_to_basis_coords(m0)])
                       + hq_from_basis_coords(w) * eta.conjugate())
            other = lattice_basis(1, 3, m, eta, shifted)
            assert other.hnf == base.hnf


class TestMinima:
    def test_order_minima(self):
        assert successive_minima(od_lattice(), 2) == (
            Fraction(1, 2),) * 4

    def test_scaled_order(self):
        h = tuple(tuple(3 if i == j else 0 for j in range(4))
                  for i in range(4))
        lat = Lattice4(h, 81, 1, 1, 3, ETA3, ONE)
        assert successive_minima(lat, 4) == (Fraction(3, 2),) * 4

    def test_minkowski_bracket_order(self):
        lat = od_lattice()
        mins = successive_minima(lat, 2)
        prod, lo, hi = minkowski_bracket(lat, mins)
        assert lo <= prod <= hi

    def test_bound_too_small(self):
        h = tuple(tuple(3 if i == j else 0 for j in range(4))
                  for i in range(4))
        lat = Lattice4(h, 81, 1, 1, 3, ETA3, ONE)
        with pytest.raises(PreconditionError):
            successive_minima(lat, 1)


def _minima_by_row_hnf(lat, bound):
    """The earlier rank test: row_hnf of the chosen points plus each
    candidate, once per candidate."""
    rdmax = int(math.ceil(2 * bound))
    rd = 1
    while rd <= rdmax:
        minima, chosen = [], []
        for nd, x in sorted(lattices._enum_ball(lat.hnf, rd)):
            cand = chosen + [list(x)]
            if row_hnf(cand)[2] == len(cand):
                chosen = cand
                minima.append(Fraction(nd, 2))
                if len(minima) == 4:
                    return tuple(minima)
        if rd == rdmax:
            break
        rd = min(2 * rd, rdmax)
    return None


class TestMinimaOracle:
    def test_same_minima_as_row_hnf_rank(self):
        for inst in instance_corpus(12, 20260823):
            lat = lattice_basis(inst["H"], inst["K"], inst["m"],
                                inst["eta"], inst["m0"])
            bound = max(4, 2 * inst["m"])
            assert successive_minima(lat, bound) == _minima_by_row_hnf(
                lat, bound)


def sup_norm_of_coords(x):
    """Sup-norm, in real quaternion coordinates, of the element with
    order-basis coordinates x = (a, b, c, d), i.e. a + bi + cj + d omega."""
    a, b, c, d = x
    return Fraction(max(abs(2 * a + d), abs(2 * b + d), abs(2 * c + d),
                        abs(d)), 2)


def _unpruned_enum_ball(hnf, rd):
    """The earlier walk: each coordinate bounded only by |t| <= rd, and the
    leaves outside the ball filtered afterwards."""
    h = [list(r) for r in hnf]
    stack = [((), [0, 0, 0, 0])]
    while stack:
        prefix, acc = stack.pop()
        i = len(prefix)
        if i == 4:
            if all(v == 0 for v in acc):
                continue
            nd = int(2 * sup_norm_of_coords(acc))
            if nd <= rd:
                yield nd, tuple(acc)
            continue
        lo = math.ceil((-rd - acc[i]) / h[i][i])
        hi = math.floor((rd - acc[i]) / h[i][i])
        for t in range(lo, hi + 1):
            nxt = list(acc)
            for j in range(i, 4):
                nxt[j] += t * h[i][j]
            stack.append((prefix + (t,), nxt))


class TestEnumBall:
    def test_same_sequence_as_unpruned_walk(self):
        hnfs = [lattice_basis(i["H"], i["K"], i["m"], i["eta"], i["m0"]).hnf
                for i in instance_corpus(25, 20260823)]
        hnfs.append(od_lattice().hnf)
        for hnf in hnfs:
            for rd in (1, 2, 3, 5, 8, 13):
                assert (list(lattices._enum_ball(hnf, rd))
                        == list(_unpruned_enum_ball(hnf, rd)))

    def test_budget_still_binds(self, monkeypatch):
        monkeypatch.setattr(lattices, "_ENUM_BUDGET", 50)
        with pytest.raises(BudgetError):
            list(lattices._enum_ball(od_lattice().hnf, 8))


class TestPointCount:
    def test_below_first_minimum(self):
        lat = od_lattice()
        assert lattice_point_count(lat, 0.25)["count"] == 1

    def test_order_ball(self):
        # 97 elements of the order have sup-norm <= 1
        lat = od_lattice()
        assert lattice_point_count(lat, 1)["count"] == 97

    def test_bound_holds_on_sample_instances(self):
        for inst in instance_corpus(10, 7):
            lat = lattice_basis(inst["H"], inst["K"], inst["m"],
                                inst["eta"], inst["m0"])
            rep = lattice_point_count(lat, 2 * inst["K"] ** 0.5)
            assert rep["count"] >= 1


class TestLambdaTwo:
    def test_derived_constant_holds(self):
        for inst in instance_corpus(15, 11):
            if inst["H"] != 1:
                continue
            lat = lattice_basis(1, inst["K"], inst["m"], inst["eta"],
                                inst["m0"])
            mins = successive_minima(lat, max(4, inst["m"]))
            assert mins[1] ** 2 >= Fraction(inst["K"], 12)

    def test_quarter_constant_is_refuted(self):
        # explicit certificate: the quarter-constant variant fails under the
        # sup-norm convention, while the sharp norm-form facts hold
        eta = None
        for cand in [HurwitzQuat.from_true(3, 3, 1, 0),
                     HurwitzQuat.from_true(1, 3, 3, 0)]:
            if cand.nrd() == 19 and cand.is_primitive():
                eta = cand
        assert eta is not None
        M = HurwitzQuat(-3, 1, 3, 3)  # (-3 + i + 3j + 3k)/2
        U = M - M.conjugate()
        assert U.nrd() % 19 == 0 and U.nrd() == 19
        assert M.sup_norm() == Fraction(3, 2)
        assert M.sup_norm() ** 2 < Fraction(19, 4)
        # Euclidean norm squared is exactly nrd and does clear K/4
        assert M.nrd() >= Fraction(19, 4)


class TestPrepgeom:
    def test_norm3_counts(self):
        rep = eta_congruence_checks(ETA3, 3)
        assert rep["theta_count"] == 9
        assert rep["theta_norm"] <= 8 * math.sqrt(3)
        assert rep["short_rep_norm"] <= 8 * math.sqrt(3)

    def test_theta_count_exhaustive_oracle(self):
        import itertools
        K = 3
        count = 0
        for x in itertools.product(range(K), repeat=4):
            th = hq_from_basis_coords(list(x))
            if all(c % K == 0 for c in hq_to_basis_coords(ETA3 * th)):
                count += 1
        assert count == eta_congruence_checks(ETA3, K)["theta_count"] == K * K

    def test_k_one_trivial(self):
        rep = eta_congruence_checks(ETA3, 1)
        assert rep["theta_count"] == 1

    def test_random_primitive_etas(self):
        import random
        rng = random.Random(3)
        done = 0
        while done < 12:
            eta = hq_from_basis_coords([rng.randrange(-7, 8)
                                        for _ in range(4)])
            if eta.is_zero() or not eta.is_primitive():
                continue
            nrd = eta.nrd()
            if nrd > 5000:
                continue
            K = 1
            n = nrd
            while n % 2 == 0:
                n //= 2
            p = 3
            while p * p <= n:
                if n % p == 0:
                    K = p
                    while n % p == 0:
                        n //= p
                p += 2
            if n > 1:
                K = n
            eta_congruence_checks(eta, K)  # raises on any failure
            done += 1

    def test_even_k_rejected(self):
        with pytest.raises(PreconditionError):
            eta_congruence_checks(ETA3, 2)


def sigma_odd(m):
    return sum(d for d in range(1, m + 1, 2) if m % d == 0)


class TestNormCount:
    def test_jacobi_formula_to_1024(self):
        for m in range(1, 1025):
            assert norm_count(m) == 24 * sigma_odd(m), m

    def test_call_order_does_not_matter(self):
        # nothing is kept between calls: each count is the same whichever
        # table or single norm was asked for before it
        for m in (1000, 3, 2000, 7):
            table = norm_counts(m)
            assert table[m] == norm_count(m) == 24 * sigma_odd(m), m
        table = norm_counts(2000)
        for m in (1999, 7, 1000, 3, 2000):
            assert table[m] == norm_count(m) == 24 * sigma_odd(m), m

    def test_walk_and_lone_norms_interleaved(self):
        # a table and single norms asked in any order, some far past the
        # table, including an odd norm and one with many square divisors
        table = norm_counts(64)
        assert table == [1] + [24 * sigma_odd(m) for m in range(1, 65)]
        for m in (*range(1, 10), 3000, 5, 10 ** 5 + 1, 750,
                  2 ** 4 * 3 ** 4 * 5 ** 2, 40):
            assert norm_count(m) == 24 * sigma_odd(m), m
            if m <= 64:
                assert table[m] == norm_count(m)
        assert norm_counts(0) == [1]

    def test_nonpositive_rejected(self):
        with pytest.raises(PreconditionError):
            norm_count(0)
        with pytest.raises(PreconditionError):
            norm_counts(-1)


class TestRepNumbers:
    def test_units(self):
        assert norm_count(1) == 24
        assert rep_number(1) == (1, 1)

    def test_small_values(self):
        assert rep_number(2) == (1, 1)
        assert rep_number(3) == (4, 4)
        assert rep_number(4) == (0, 0)
        assert rep_number(8) == (0, 0)

    def test_range_to_200(self):
        for m in range(1, 201):
            a, b = rep_number(m)
            assert a == b
        assert rep_numbers(200) == [rep_number(m) for m in range(1, 201)]
        assert rep_numbers(0) == []

    def test_max_range_builds_one_table(self, monkeypatch, capsysbinary):
        from qcl import cli
        calls = []
        build = lattices._two_square_counts
        monkeypatch.setattr(lattices, "_two_square_counts",
                            lambda n: calls.append(n) or build(n))
        with pytest.raises(SystemExit) as exc:
            cli.main(["--no-cache", "repnum", "--max", "300"])
        assert exc.value.code == 0 and calls == [300]
        assert b'"all_equal":true' in capsysbinary.readouterr().out

    def test_total_norm_count_identity(self):
        # sum over square divisors of the primitive counts rebuilds the
        # total norm count
        for m in [12, 36, 100, 144]:
            total = 0
            d = 1
            while d * d <= m:
                if m % (d * d) == 0:
                    total += rep_number(m // (d * d))[0] * 24
                d += 1
            assert total == norm_count(m)
