import math
import operator
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qcl import DEFAULT_SEED, lattices, linalg
from qcl.algebra import (HurwitzQuat, basis_from_doubled_coords,
                         doubled_from_basis_coords, hq_from_basis_coords,
                         hq_to_basis_coords, left_mul_coords,
                         right_mul_coords)
from qcl.errors import BudgetError, PreconditionError, VerificationError
from qcl.linalg import congruence_lattice, row_hnf
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

    def test_one_hermite_form(self, monkeypatch):
        # congruence_lattice makes one row_hnf call, and lattice_basis,
        # which solves one congruence system, makes one in all
        calls = []

        def counted(a):
            calls.append(a)
            return row_hnf(a)

        monkeypatch.setattr(linalg, "row_hnf", counted)
        monkeypatch.setattr(lattices, "row_hnf", counted)
        congruence_lattice(right_mul_coords(ETA3), 3)
        assert len(calls) == 1
        lattice_basis(3, 3, 9, HurwitzQuat.from_true(2, 2, 1, 0), ONE)
        assert len(calls) == 2

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


def line_congruence_oracle(lat):
    """Every basis vector M has M eta = lam * m0 eta mod m for some lam,
    found by trying every lam in range(m)."""
    line = hq_to_basis_coords(lat.m0 * lat.eta)
    for row in lat.hnf:
        t = hq_to_basis_coords(hq_from_basis_coords(row) * lat.eta)
        if not any(all((x - lam * y) % lat.m == 0 for x, y in zip(t, line))
                   for lam in range(lat.m)):
            return False
    return True


class TestAuditMembership:
    @pytest.mark.parametrize("m,eta", [(6, (2, 1, 1, 0)), (15, (3, 2, 1, 1)),
                                       (45, (5, 4, 2, 0))])
    def test_line_congruence_at_composite_m(self, m, eta):
        # one basis, many lines m0 eta: the prime-power tests of the audit
        # agree with one search over every lam mod m
        lat = lattice_basis(1, 3, m, HurwitzQuat.from_true(*eta), ONE)
        rng = random.Random(m)
        seen = set()
        for _ in range(150):
            m0 = hq_from_basis_coords([rng.randrange(m) for _ in range(4)])
            other = lat._replace(m0=m0)
            ok = line_congruence_oracle(other)
            try:
                lattices._audit_membership(other)
                audited = True
            except VerificationError:
                audited = False
            assert audited == ok, m0
            seen.add(ok)
        assert seen == {True, False}


class TestMinima:
    def test_order_minima(self):
        assert successive_minima(od_lattice()) == (
            Fraction(1, 2),) * 4

    def test_scaled_order(self):
        h = tuple(tuple(3 if i == j else 0 for j in range(4))
                  for i in range(4))
        lat = Lattice4(h, 81, 1, 1, 3, ETA3, ONE)
        assert successive_minima(lat) == (Fraction(3, 2),) * 4

    def test_minkowski_bracket_order(self):
        lat = od_lattice()
        mins = successive_minima(lat)
        prod, lo, hi = minkowski_bracket(lat, mins)
        assert lo <= prod <= hi

    def test_missed_rank_is_a_broken_proof(self):
        # a lattice whose m undercuts its true L: 3 * order with m = 1
        h = tuple(tuple(3 if i == j else 0 for j in range(4))
                  for i in range(4))
        lat = Lattice4(h, 81, 1, 1, 1, ETA3, ONE)
        with pytest.raises(VerificationError):
            successive_minima(lat)


def _coupled_enum_ball(hnf, rd):
    """Reference walk in order-basis coordinates: yield (doubled_norm,
    coords) over the nonzero lattice points of doubled sup-norm <= rd,
    depth first down the HNF with the largest coefficient first, which is
    the tie order `_points_by_norm` keeps.  Depth i fixes coordinate i of
    (a, b, c, d), so the intervals are coupled: each of a, b, c lies within
    rd of 0 and of every fixed one, and d in [-rd, rd] and every
    [-rd-2x, rd-2x]."""
    h = [list(r) for r in hnf]
    # (depth, point so far, min and max of 0 and the fixed a, b, c)
    stack = [(0, [0, 0, 0, 0], 0, 0)]
    while stack:
        i, acc, low, high = stack.pop()
        if i == 4:
            if any(acc):
                yield (max(abs(t) for t in doubled_from_basis_coords(acc)),
                       tuple(acc))
            continue
        if i < 3:
            vlo, vhi = high - rd, low + rd
        else:
            vlo, vhi = -rd - 2 * low, rd - 2 * high
        step = h[i][i]
        for t in range(-((acc[i] - vlo) // step), (vhi - acc[i]) // step + 1):
            nxt = list(acc)
            for j in range(i, 4):
                nxt[j] += t * h[i][j]
            v = nxt[i]
            stack.append((i + 1, nxt, min(low, v), max(high, v)))


def _box_points(hnf, rd, inner=0):
    """(doubled_norm, coords) of every point `lattices._box_runs` walks,
    in its order."""
    return [(max(m, abs(d)), basis_from_doubled_coords((y0, y1, y2, d)))
            for m, y0, y1, y2, ys in lattices._box_runs(
                lattices._doubled_hnf(hnf), rd, inner)
            for d in ys]


def _minima_by_row_hnf(lat, bound):
    """The earlier rank test: row_hnf of the chosen points plus each
    candidate, once per candidate."""
    rdmax = int(math.ceil(2 * bound))
    rd = 1
    while rd <= rdmax:
        minima, chosen = [], []
        for nd, x in sorted(_coupled_enum_ball(lat.hnf, rd)):
            cand = chosen + [list(x)]
            if len(row_hnf(cand)) == len(cand):
                chosen = cand
                minima.append(Fraction(nd, 2))
                if len(minima) == 4:
                    return tuple(minima)
        if rd == rdmax:
            break
        rd = min(2 * rd, rdmax)
    return None


def _first_short_vector(hnf, limit_dbl):
    """The earlier short-vector search: a fresh walk at each doubled radius
    2, 4, ... up to limit_dbl, keeping the first point of least norm."""
    rd = 1
    while rd < limit_dbl:
        rd = min(2 * rd, limit_dbl)
        best = None
        for nd, x in _coupled_enum_ball(hnf, rd):
            if best is None or nd < best[0]:
                best = (nd, x)
        if best is not None:
            return best
        if rd == limit_dbl:
            break
    return None


def _short_vectors_by_restarted_walks(eta, K):
    """(theta, short_rep) of eta_congruence_checks, each found by
    `_first_short_vector` on the same lattice and float radius as before."""
    lmat = left_mul_coords(eta)
    limit = max(1, int(math.floor(2 * lattices.C_SHORT * math.sqrt(K))))
    gens = [list(col) for col in zip(*lmat)]
    gens += [[K if i == j else 0 for i in range(4)] for j in range(4)]
    return (_first_short_vector(congruence_lattice(lmat, K), limit),
            _first_short_vector(row_hnf(gens), limit))


class TestMinimaOracle:
    def test_same_minima_as_row_hnf_rank(self):
        for inst in instance_corpus(12, 20260823):
            lat = lattice_basis(inst["H"], inst["K"], inst["m"],
                                inst["eta"], inst["m0"])
            bound = math.lcm(inst["H"], inst["m"])
            assert successive_minima(lat) == _minima_by_row_hnf(lat, bound)

    @pytest.mark.parametrize("seed", [DEFAULT_SEED, 1, 2])
    def test_one_search_matches_restarted_walks(self, seed):
        # the lattice audit's corpus and bounds: the minima against the row
        # HNF rank test, theta and the short representative against the
        # earlier restarted walks
        for inst in instance_corpus(100, seed):
            lat = lattice_basis(inst["H"], inst["K"], inst["m"],
                                inst["eta"], inst["m0"])
            bound = math.lcm(inst["H"], inst["m"])
            assert successive_minima(lat) == _minima_by_row_hnf(lat, bound)
            rep = eta_congruence_checks(inst["eta"], inst["K"], seed=seed)
            th, short = _short_vectors_by_restarted_walks(inst["eta"],
                                                          inst["K"])
            assert (rep["theta_norm"], rep["theta"]) == (
                Fraction(th[0], 2), th[1])
            assert (rep["short_rep_norm"], rep["short_rep"]) == (
                Fraction(short[0], 2), short[1])


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


def _walk_nodes(g, rd, inner):
    """(nodes, t2s, dead) of the box walk over the doubled HNF g, by brute
    force over the coefficients: nodes counts each t0 with |y0| <= rd, each
    t1 with |y1| <= rd and each y3 in the box outside |y| <= inner; t2s
    counts each t2 with |y2| <= rd, and dead those with no y3 in the box."""
    span = range(-4 * rd - 4, 4 * rd + 5)
    nodes = t2s = dead = 0
    for t0 in span:
        if abs(t0 * g[0][0]) > rd:
            continue
        nodes += 1
        for t1 in span:
            y1 = t0 * g[0][1] + t1 * g[1][1]
            if abs(y1) > rd:
                continue
            nodes += 1
            for t2 in span:
                y2 = t0 * g[0][2] + t1 * g[1][2] + t2 * g[2][2]
                if abs(y2) > rd:
                    continue
                e3 = t0 * g[0][3] + t1 * g[1][3] + t2 * g[2][3]
                ys = [y for y in range(-rd, rd + 1) if (y - e3) % g[3][3] == 0]
                t2s += 1
                dead += not ys
                m = max(abs(t0 * g[0][0]), abs(y1), abs(y2))
                nodes += sum(max(m, abs(y)) > inner for y in ys)
    return nodes, t2s, dead


class TestEnumBall:
    def test_same_sequence_as_unpruned_walk(self):
        # the box walk at inner = 0 is the whole ball less the origin; the
        # unpruned oracle walks the whole box, so larger radii only cost
        # time
        hnfs = [lattice_basis(i["H"], i["K"], i["m"], i["eta"], i["m0"]).hnf
                for i in instance_corpus(25, 20260823)]
        hnfs.append(od_lattice().hnf)
        assert any(h[i][j] for h in hnfs for i in range(4)
                   for j in range(i + 1, 4))
        for hnf in hnfs:
            for rd in (1, 2, 3, 5, 8):
                assert (Counter(_box_points(hnf, rd))
                        == Counter(_unpruned_enum_ball(hnf, rd)))

    def test_budget_still_binds(self, monkeypatch):
        monkeypatch.setattr(lattices, "_ENUM_BUDGET", 50)
        with pytest.raises(BudgetError):
            _box_points(od_lattice().hnf, 8)

    def test_budget_counts_every_t2(self, monkeypatch):
        # a t2 with no y3 in the box is tried, so it counts: the walk takes
        # exactly the brute-force count, and one node less is refused
        g = ((2, 1, 0, 3), (0, 2, 1, 5), (0, 0, 2, 3), (0, 0, 0, 11))
        nodes, t2s, dead = _walk_nodes(g, 4, 1)
        assert dead > 0
        monkeypatch.setattr(lattices, "_ENUM_BUDGET", nodes + t2s)
        points = list(lattices._box_runs(g, 4, 1))
        assert points
        monkeypatch.setattr(lattices, "_ENUM_BUDGET", nodes + t2s - 1)
        with pytest.raises(BudgetError):
            list(lattices._box_runs(g, 4, 1))


@st.composite
def triangular_bases(draw):
    """Upper-triangular integer bases with small positive pivots."""
    return tuple(tuple(0 if j < i else draw(st.integers(1, 3)) if j == i
                       else draw(st.integers(-3, 3)) for j in range(4))
                 for i in range(4))


@st.composite
def sparse_doubled_bases(draw):
    """(order-basis HNF, diagonal of its doubled HNF), the diagonal even
    and up to 24 on rows 1-3: above 2 rd + 1 at the small radii drawn, so
    that many children have no value in the box."""
    odd = draw(st.booleans())
    rows = [[draw(st.integers(1, 6)) * 2 - odd]
            + [draw(st.integers(-6, 6)) * 2 - odd for _ in range(3)]]
    for i in range(1, 4):
        rows.append([0] * i + [2 * draw(st.integers(1, 12))]
                    + [2 * draw(st.integers(-6, 6)) for _ in range(i, 3)])
    hnf = row_hnf([basis_from_doubled_coords(r) for r in rows])
    return tuple(map(tuple, hnf)), [r[i] for i, r in enumerate(rows)]


class TestPointsByNorm:
    @given(triangular_bases(), st.integers(0, 5))
    @settings(max_examples=60, deadline=None)
    def test_each_point_once_in_norm_order(self, hnf, rdmax):
        points = list(lattices._points_by_norm(hnf, rdmax))
        norms = [nd for nd, _ in points]
        assert norms == sorted(norms)
        assert len(set(points)) == len(points)
        walk = list(_coupled_enum_ball(hnf, rdmax))
        assert Counter(points) == Counter(walk)
        # ties keep the order of one coupled walk at the full radius
        assert points == sorted(walk, key=operator.itemgetter(0))

    @given(sparse_doubled_bases(), st.integers(0, 10), st.integers(1, 11))
    @settings(max_examples=80, deadline=None)
    def test_one_shell_is_the_ball_difference(self, basis, inner, width):
        hnf, pivots = basis
        assert [r[i] for i, r in enumerate(lattices._doubled_hnf(hnf))] == (
            pivots)
        outer = inner + width
        shell = _box_points(hnf, outer, inner)
        assert Counter(shell) == Counter(
            p for p in _coupled_enum_ball(hnf, outer) if p[0] > inner)


class TestPointCount:
    def test_below_first_minimum(self):
        lat = od_lattice()
        assert lattice_point_count(lat, Fraction(1, 16))["count"] == 1

    def test_order_ball(self):
        # 97 elements of the order have sup-norm <= 1
        lat = od_lattice()
        assert lattice_point_count(lat, 1)["count"] == 97
        # just below R = 1 only the 16 units of sup-norm 1/2 remain
        assert lattice_point_count(lat, Fraction(3, 4))["count"] == 17
        assert lattice_point_count(lat, Fraction(24, 25))["count"] == 17

    def test_negative_radius_is_a_precondition(self):
        with pytest.raises(PreconditionError):
            lattice_point_count(od_lattice(), -1)

    def test_count_matches_coupled_walk(self):
        # the lattice audit's corpus and radius R^2 = 4K
        for inst in instance_corpus(100, DEFAULT_SEED):
            lat = lattice_basis(inst["H"], inst["K"], inst["m"],
                                inst["eta"], inst["m0"])
            rd = math.isqrt(16 * inst["K"])
            assert lattice_point_count(lat, 4 * inst["K"])["count"] == (
                1 + sum(1 for _ in _coupled_enum_ball(lat.hnf, rd)))

    def test_bound_holds_on_sample_instances(self):
        for inst in instance_corpus(10, 7):
            lat = lattice_basis(inst["H"], inst["K"], inst["m"],
                                inst["eta"], inst["m0"])
            rep = lattice_point_count(lat, 4 * inst["K"])
            assert rep["count"] >= 1

    def test_rational_rhs_at_equality_passes(self, monkeypatch):
        # K' = m' = 9 at R = H = 1: rhs = 1 + 1 + 1/3 + 1/9 + 1/81 = 199/81,
        # which no float holds; the check is strict, so count == C * rhs
        # passes and any smaller C fails
        lat = Lattice4(od_lattice().hnf, 1, 1, 9, 9, ETA3, ONE)
        monkeypatch.setattr(lattices, "C_GLOBAL", Fraction(97 * 81, 199))
        assert lattice_point_count(lat, 1)["count"] == 97
        monkeypatch.setattr(lattices, "C_GLOBAL",
                            Fraction(97 * 81, 199) - Fraction(1, 10 ** 30))
        with pytest.raises(VerificationError):
            lattice_point_count(lat, 1)

    def test_irrational_rhs_decided_past_float_precision(self, monkeypatch):
        # K' = 3, m' = 1 at R = H = 1: rhs = 7/3 + 2/sqrt(3).  C on either
        # side of 97 / rhs by about 10^-48 decides both ways.
        lat = Lattice4(od_lattice().hnf, 1, 1, 3, 1, ETA3, ONE)
        root = math.isqrt(3 * 10 ** 100)  # sqrt(3) in [root, root + 1] / 10^50
        rhs_lo = Fraction(7, 3) + Fraction(2 * 10 ** 50, root + 1)
        rhs_hi = Fraction(7, 3) + Fraction(2 * 10 ** 50, root)
        monkeypatch.setattr(lattices, "C_GLOBAL", 97 / rhs_lo)
        assert lattice_point_count(lat, 1)["count"] == 97
        monkeypatch.setattr(lattices, "C_GLOBAL", 97 / rhs_hi)
        with pytest.raises(VerificationError):
            lattice_point_count(lat, 1)


class TestLambdaTwo:
    def test_derived_constant_holds(self):
        for inst in instance_corpus(15, 11):
            if inst["H"] != 1:
                continue
            lat = lattice_basis(1, inst["K"], inst["m"], inst["eta"],
                                inst["m0"])
            mins = successive_minima(lat)
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
        sup = sup_norm_of_coords(hq_to_basis_coords(M))
        assert sup == Fraction(3, 2)
        assert sup ** 2 < Fraction(19, 4)
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

    def test_odd_list_only_for_odd_norms(self, monkeypatch):
        calls = []
        build = lattices._two_square_counts
        monkeypatch.setattr(lattices, "_two_square_counts",
                            lambda n: calls.append(n) or build(n))
        assert norm_count(1000) == 24 * sigma_odd(1000) and calls == []
        assert norm_count(999) == 24 * sigma_odd(999) and calls == [999]

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
