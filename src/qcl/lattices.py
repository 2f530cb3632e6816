"""Rank-4 congruence lattices of integral quaternions.

Builds the lattice of quaternions M satisfying three simultaneous
conditions: M lies in H times the maximal order, (M - conj(M)) * eta lies in
K times the order, and M * eta lands in the integer line through M0 * eta
modulo m.  Provides exact Hermite bases, successive minima and point counts
under the sup-norm, structural checks for the right-annihilator of eta
modulo K, and exact representation numbers of integers by the quaternion
norm form.

All empirical constants (the global point-count factor and the short-vector
factor) were calibrated once on a fixed seeded corpus by
scripts/calibrate_lattice_constants.py and are frozen here; they are not
derived bounds.
"""

import math
import operator
import random
from collections import namedtuple
from fractions import Fraction

from .algebra import (HQ_BASIS, HurwitzQuat, _cyclic_product,
                      basis_from_doubled_coords, doubled_from_basis_coords,
                      hq_from_basis_coords, hq_to_basis_coords,
                      left_mul_coords, right_mul_coords)
from .errors import BudgetError, PreconditionError, VerificationError
from .linalg import (
    congruence_lattice, hnf_determinant, reduce_mod_hnf, row_hnf,
)
from .padic import line_multiple

# frozen after calibration (see scripts/calibrate_lattice_constants.py)
C_GLOBAL = 256  # point count vs structural right side
C_SHORT = 8     # short-vector searches, in units of sqrt(K) / sqrt(Km)

#: cap on the nodes (coordinate values tried) of one sup-box walk
#: (`_box_runs`)
_ENUM_BUDGET = 4 * 10 ** 6


class Lattice4(namedtuple("Lattice4", "hnf index H K m eta m0",
                          defaults=(1, 1, 1, None, None))):
    """Full-rank sublattice of the maximal order, rows = HNF basis in
    order-basis coordinates; index is [order : lattice]."""

    __slots__ = ()

    @property
    def kprime(self):
        return self.K // math.gcd(self.K, self.H)

    @property
    def mprime(self):
        return self.m // math.gcd(self.m, self.H)


def _freeze(rows):
    return tuple(tuple(r) for r in rows)


def lattice_basis(H, K, m, eta, m0):
    """HNF basis of {M in H*order : (M-M~)eta in K*order,
    M*eta in Z*m0*eta + m*order}.

    Solved as a linear congruence system in (coords(M), lambda) over a
    single modulus L = lcm(H, K, m). The solutions contain L * Z^5, so
    their HNF is upper triangular: its last row is zero on the M
    coordinates, and its top-left 4 x 4 block is already the HNF of their
    projection to M.
    """
    if H < 1 or K < 1 or m < 1:
        raise PreconditionError("H, K, m must be positive")
    if m % K != 0 or eta.nrd() % m != 0:
        raise PreconditionError("need K | m | nrd(eta)")
    if K % 2 == 0:
        raise PreconditionError("K must be odd")
    if not eta.is_primitive():
        raise PreconditionError("eta must be primitive")
    L = math.lcm(H, K, m)
    # column j of t1: coords of (b_j - conj(b_j)) * eta
    t1 = [list(row) for row in zip(*(
        hq_to_basis_coords((b - b.conjugate()) * eta) for b in HQ_BASIS))]
    t2 = right_mul_coords(eta)
    c = hq_to_basis_coords(m0 * eta)
    rows = []
    sh = L // H
    for j in range(4):
        rows.append([sh if i == j else 0 for i in range(4)] + [0])
    sk = L // K
    for i in range(4):
        rows.append([sk * t1[i][j] for j in range(4)] + [0])
    sm = L // m
    for i in range(4):
        rows.append([sm * t2[i][j] for j in range(4)] + [-sm * c[i]])
    h = [r[:4] for r in congruence_lattice(rows, L)[:4]]
    index = hnf_determinant(h)
    lat = Lattice4(_freeze(h), index, H, K, m, eta, m0)
    _audit_membership(lat)
    return lat


def _audit_membership(lat):
    """Recheck both congruences on every basis vector and m*order in Λ. The
    line congruence M eta = lam * m0 eta mod m is tested mod each prime
    power p^e || m: by the CRT a lam mod m exists iff one mod each does."""
    line = hq_to_basis_coords(lat.m0 * lat.eta)
    for row in lat.hnf:
        if any(x % lat.H for x in row):
            raise VerificationError("basis vector escapes H*order")
        M = hq_from_basis_coords(row)
        w = (M - M.conjugate()) * lat.eta
        if any(x % lat.K for x in hq_to_basis_coords(w)):
            raise VerificationError("skew congruence fails on basis")
        target = hq_to_basis_coords(M * lat.eta)
        if any(line_multiple(target, line, p, e) is None
               for p, e in _factor(lat.m)):
            raise VerificationError("line congruence fails on basis")
    if lat.m % lat.H == 0:
        for j in range(4):
            v = [lat.m if i == j else 0 for i in range(4)]
            if any(reduce_mod_hnf(v, list(map(list, lat.hnf)))):
                raise VerificationError("m*order not contained in lattice")


def _doubled_hnf(hnf):
    """Row HNF, in doubled coordinates, of the basis rows hnf."""
    g = row_hnf([doubled_from_basis_coords(r) for r in hnf])
    if len(g) != 4:
        raise PreconditionError("lattice basis is not full rank")
    return g


def _box_runs(g, rd, inner):
    """Yield (m, y0, y1, y2, ys) for the points (y0, y1, y2, y3), y3 in the
    range ys, of the lattice with doubled HNF g in the box |y_j| <= rd, the
    ball of doubled sup-norm rd, and outside |y_j| <= inner, with
    m = max(|y0|, |y1|, |y2|).

    Coordinate i is acc_i + t_i g_ii with acc_i fixed by t_0, ..., t_(i-1),
    so the box bounds each t_i on its own; a t_1 or t_2 whose child has no
    value in the box is skipped by one modulo.  Where the fixed ones lie
    within inner, y3 walks inner < |y3| <= rd alone (at inner = 0, all but
    the origin).  Each t and y3 tried counts against `_ENUM_BUDGET`."""
    (g0, g01, g02, g03), (_, g1, g12, g13), (_, _, g2, g23), (_, _, _, g3) = g
    nodes = 0
    for t0 in range(-(rd // g0), rd // g0 + 1):
        y0, c1, c2, c3 = t0 * g0, t0 * g01, t0 * g02, t0 * g03
        r1 = range(-((rd + c1) // g1), (rd - c1) // g1 + 1)
        nodes += 1 + len(r1)
        for t1 in r1:
            d2 = c2 + t1 * g12
            if rd < d2 % g2 < g2 - rd:  # no y2 in the box
                continue
            r2 = range(-((rd + d2) // g2), (rd - d2) // g2 + 1)
            nodes += len(r2)
            if nodes > _ENUM_BUDGET:
                raise BudgetError("lattice enumeration budget exceeded")
            y1 = c1 + t1 * g1
            d3, m1 = c3 + t1 * g13, max(abs(y0), abs(y1))
            for t2 in r2:
                e3 = d3 + t2 * g23
                low = (e3 + rd) % g3 - rd  # the least y3 >= -rd
                if low > rd:
                    continue
                y2 = d2 + t2 * g2
                m = max(m1, abs(y2))
                runs = ((range(low, rd + 1, g3),) if m > inner else (
                    range(low, -inner, g3),
                    range((e3 - inner - 1) % g3 + inner + 1, rd + 1, g3)))
                for ys in runs:
                    nodes += len(ys)
                    if nodes > _ENUM_BUDGET:
                        raise BudgetError(
                            "lattice enumeration budget exceeded")
                    yield m, y0, y1, y2, ys


def _reduce_against(echelon, x):
    """x with each echelon row's pivot column cleared, by integer steps
    v <- row[c] v - v[c] row: zero iff x lies in the rational span.

    Each row is zero at the pivot columns of the rows before it, so one
    pass in order leaves every pivot column of v at zero."""
    v = list(x)
    for c, row in echelon:
        if v[c]:
            a, b = row[c], v[c]
            v = [a * vi - b * ri for vi, ri in zip(v, row)]
    return v


def _points_by_norm(hnf, rdmax):
    """Yield (doubled_norm, coords) once for each nonzero lattice point of
    doubled sup-norm <= rdmax, by nondecreasing norm and, within one norm,
    by descending order-basis coords: the order of a depth-first walk down
    the HNF that tries the largest coefficient first, since with positive
    pivots coordinate i grows with coefficient i once the ones before it
    are fixed.  The doubled radius runs 1, 2, 3, 4, 6, 8, 12, ... (every
    power of two among them) up to rdmax; each shell past the last radius
    is walked once and put in that order by two stable C-keyed sorts."""
    g = _doubled_hnf(hnf)
    inner = 0
    while inner < rdmax:
        step = inner // 2 if inner & (inner - 1) == 0 else inner // 3
        outer = min(inner + max(step, 1), rdmax)
        shell = [(max(m, abs(d)), basis_from_doubled_coords((y0, y1, y2, d)))
                 for m, y0, y1, y2, ys in _box_runs(g, outer, inner)
                 for d in ys]
        shell.sort(key=operator.itemgetter(1), reverse=True)
        shell.sort(key=operator.itemgetter(0))
        yield from shell
        inner = outer


def successive_minima(lat):
    """Exact successive minima of the lattice under the quaternion sup-norm:
    the points pass the greedy rank test in norm order.

    The lattice bounds its own fourth minimum.  With L = lcm(H, K, m), it
    contains L * order: an element of L * order lies in H * order, its skew
    part times eta lies in K * order, and it times eta lies in m * order
    (the line congruence at lambda = 0).  The basis 1, i, j, (1+i+j+k)/2 of
    the order has sup-norm at most 1, so L times it is four independent
    points of sup-norm at most L, and lambda_4 <= L: the walk stops at
    doubled radius 2 L.  Missing rank 4 there means that proof is broken.
    """
    minima = []
    echelon = []  # (pivot column, row) of the chosen points, reduced
    bound = math.lcm(lat.H, lat.K, lat.m)
    for nd, x in _points_by_norm(lat.hnf, 2 * bound):
        v = _reduce_against(echelon, x)
        if any(v):
            echelon.append((next(i for i, c in enumerate(v) if c), v))
            minima.append(Fraction(nd, 2))
            if len(minima) == 4:
                return tuple(minima)
    raise VerificationError(f"rank 4 not reached at sup-norm {bound}")


def minkowski_bracket(lat, minima):
    """(product of minima, lower, upper) under the sup-ball convention."""
    prod = math.prod(minima)
    return prod, Fraction(lat.index, 24), Fraction(lat.index, 1)


def _exceeds(q, terms):
    """Whether q > sum(c * sqrt(t)) over the (c, t) in terms, all
    nonnegative rationals, decided exactly.

    Each sqrt(t) = sqrt(num * den) / den is bracketed by isqrt at 2^-b, and
    b doubles until the brackets decide.  When every root is exact the two
    ends agree at once; otherwise the sum is irrational, as its coefficients
    are positive, so it is not q and the brackets close on one side of it.
    """
    b = 32
    while True:
        lo = hi = 0
        for c, t in terms:
            n = t.numerator * t.denominator << 2 * b
            r = math.isqrt(n)
            lo += c * Fraction(r, t.denominator << b)
            hi += c * Fraction(r + (r * r != n), t.denominator << b)
        if q > hi:
            return True
        if q <= lo:
            return False
        b *= 2


def lattice_point_count(lat, R2):
    """Exact #{M in lattice : sup-norm <= R} with the structural bound
    check, for the exact squared radius R2 = R^2 (an int or a Fraction).

    The right side is 1 + R/H + (R/H)^2/sqrt(K') + (R/H)^3/sqrt(K'm')
    + (R/H)^4/(K'm'); the count must not exceed C_GLOBAL times it.  That
    verdict is exact, with s = (R/H)^2 each term a rational times the root
    of a rational; the returned rhs and ratio are floats.
    """
    R2 = Fraction(R2)
    if R2 < 0:
        raise PreconditionError("R2 must be nonnegative")
    rd = math.isqrt(math.floor(4 * R2))
    count = 1 + sum(len(run[4])
                    for run in _box_runs(_doubled_hnf(lat.hnf), rd, 0))
    kp, mp = lat.kprime, lat.mprime
    s = R2 / lat.H ** 2
    terms = [(1, 1), (1, s), (s, Fraction(1, kp)), (s, s / (kp * mp)),
             (s * s / (kp * mp), 1)]
    x = math.sqrt(R2) / lat.H
    rhs = (1 + x + x ** 2 / math.sqrt(kp) + x ** 3 / math.sqrt(kp * mp)
           + x ** 4 / (kp * mp))
    if _exceeds(Fraction(count) / C_GLOBAL, terms):
        raise VerificationError(
            f"point count {count} exceeds {C_GLOBAL} * {rhs}")
    return {"count": count, "rhs": rhs, "ratio": count / rhs}


def eta_congruence_checks(eta, K, seed=0):
    """Structure checks for the right annihilator of eta modulo K.

    Verifies the exact solution count K^2, the norm divisibility K | nrd(A)
    on samples from the solution set, and exhibits short vectors: a nonzero
    annihilator theta and a short representative of eta*order + K*order,
    both below C_SHORT * sqrt(K). The annihilator lattice contains K*order,
    so it has K^4 / index solutions mod K.
    """
    if K % 2 == 0 or K < 1:
        raise PreconditionError("K must be odd and positive")
    if K > 1 and eta.nrd() % K != 0:
        raise PreconditionError("K must divide nrd(eta)")
    if not eta.is_primitive():
        raise PreconditionError("eta must be primitive")
    lmat = left_mul_coords(eta)
    ann = congruence_lattice(lmat, K)
    theta_count = K ** 4 // hnf_determinant(ann)
    if theta_count != K * K:
        raise VerificationError(
            f"annihilator count {theta_count} != {K * K}")
    # norm divisibility on random solutions of A*eta = 0 mod K
    rmat = right_mul_coords(eta)
    sol = congruence_lattice(rmat, K)
    rng = random.Random(seed)
    for _ in range(20):
        coeffs = [rng.randrange(-2 * K, 2 * K + 1) for _ in range(4)]
        x = [sum(coeffs[i] * sol[i][j] for i in range(4)) for j in range(4)]
        A = hq_from_basis_coords(x)
        if A.nrd() % K != 0:
            raise VerificationError("norm divisibility fails on sample")
    # doubled radius 2 * C_SHORT * sqrt(K), rounded down
    limit = math.isqrt(4 * C_SHORT ** 2 * K)
    th = next(_points_by_norm(ann, limit), None)
    if th is None:
        raise VerificationError("no short annihilator found")
    # short element of eta*order + K*order
    gens = [list(col) for col in zip(*lmat)]
    gens += [[K if i == j else 0 for i in range(4)] for j in range(4)]
    h = row_hnf(gens)
    if len(h) != 4:
        raise VerificationError(
            f"eta*order + K*order has rank {len(h)}, not 4")
    short = next(_points_by_norm(h, limit), None)
    if short is None:
        raise VerificationError("no short coset representative found")
    return {
        "theta_count": theta_count,
        "theta_norm": Fraction(th[0], 2),
        "theta": th[1],
        "short_rep_norm": Fraction(short[0], 2),
        "short_rep": short[1],
        "c_theta": float(th[0] / 2 / math.sqrt(K)),
        "c_rep": float(short[0] / 2 / math.sqrt(K)),
    }


def _pair_counts(weights, size):
    """[sum of w0 * w1 over (v0, w0), (v1, w1) in weights with v0 + v1 = t,
    for t < size], weights mapping ascending values to multiplicities."""
    counts = [0] * size
    for v0, w0 in weights.items():
        for v1, w1 in weights.items():
            if v0 + v1 >= size:
                break
            counts[v0 + v1] += w0 * w1
    return counts


def _two_square_counts(n):
    """The two-square counts behind r(0), ..., r(n), as two dense lists.

    In doubled coordinates an element of norm m has four entries of one
    parity with square sum 4m.  Even entries 2x pair two fronts (x0, x1) and
    (x2, x3) with square sums adding to m, counted by
    even[t] = #{(x0, x1) : x0^2 + x1^2 = t}, t <= n.  Odd entries c have
    c^2 = 8T + 1 with T triangular, so m is odd and two fronts with square
    sums 8u + 2 and 8u' + 2 have u + u' = (m - 1) / 2, counted by
    odd[u] = #{(c0, c1) both odd : c0^2 + c1^2 = 8u + 2}, u <= (n - 1) / 2.
    Hence r(m) = (even * even)[m] + [m odd] (odd * odd)[(m - 1) / 2].
    """
    half = (n + 1) // 2
    # the odd c >= 1 with (c^2 - 1) / 8 < half, each T once more from -c
    tops = range(1, math.isqrt(8 * half) + 1, 2)
    return (_even_counts(n),
            _pair_counts({(c * c - 1) // 8: 2 for c in tops}, half))


def _even_counts(n):
    """The even list of `_two_square_counts(n)` alone; x and -x give the
    same square."""
    return _pair_counts({x * x: 2 - (x == 0)
                         for x in range(math.isqrt(n) + 1)}, n + 1)


def _square(counts):
    """Coefficients of (sum_t counts[t] x^t)^2, by one Kronecker product;
    its degree is below 2 len(counts) - 1, so nothing folds."""
    if not counts:
        return []
    return _cyclic_product(counts, 1, counts, 1, 2 * len(counts) - 1)


def norm_counts(n):
    """[r(0), ..., r(n)] with r(m) = #{x in the order : nrd(x) = m}."""
    if n < 0:
        raise PreconditionError("n must be nonnegative")
    even, odd = _two_square_counts(n)
    table = _square(even)[:n + 1]
    for u, c in enumerate(_square(odd)[:len(odd)]):
        table[2 * u + 1] += c
    return table


def norm_count(m):
    """#{x in the order : nrd(x) = m}, counted alone: one dot product of
    each two-square count list with its reverse.  The odd list counts only
    at odd m, so it is built only there."""
    if m < 1:
        raise PreconditionError("m must be positive")
    even, odd = _two_square_counts(m) if m % 2 else (_even_counts(m), [])
    return (sum(map(operator.mul, even, reversed(even)))
            + sum(map(operator.mul, odd, reversed(odd))))


def _factor(n):
    """[(p, v)] with p^v exactly dividing n >= 1, p ascending."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            v = 0
            while n % p == 0:
                v += 1
                n //= p
            out.append((p, v))
        p += 1 if p == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def _rep_check(m, r):
    """(r_enumerated, r_formula) for m, given r(k) for the k = m / d^2.

    The primitive count is the Moebius sum over the square divisors
    d^2 | m of mu(d) r(m / d^2); up to the 24 units it must equal the
    closed formula, 0 if 4 | m and else the product of p^v + p^(v-1) over
    the odd prime powers p^v exactly dividing m.
    """
    factors = _factor(m)
    square_divisors = [(1, 1)]  # (d, mu(d)), d squarefree with d^2 | m
    for p, v in factors:
        if v >= 2:
            square_divisors += [(d * p, -mu) for d, mu in square_divisors]
    prim = sum(mu * r(m // (d * d)) for d, mu in square_divisors)
    if prim % 24:
        raise VerificationError(
            f"{prim} primitive elements of norm {m} is not a multiple of 24")
    r_enum = prim // 24
    if m % 4 == 0:
        r_formula = 0
    else:
        r_formula = math.prod(p ** v + p ** (v - 1)
                              for p, v in factors if p > 2)
    if r_enum != r_formula:
        raise VerificationError(
            f"rep number mismatch at {m}: {r_enum} vs {r_formula}")
    return r_enum, r_formula


def rep_number(m):
    """Primitive norm-m elements up to units: enumeration vs closed formula.

    Returns (r_enumerated, r_formula) and raises if they disagree.  Each
    r(m / d^2) is counted alone; together they cost at most
    sum_d m / d^2 < 1.65 m, against m for r(m) itself.
    """
    if not 1 <= m <= 10 ** 6:
        raise PreconditionError("m out of range")
    return _rep_check(m, norm_count)


def rep_numbers(top):
    """[rep_number(m) for m = 1, ..., top], reading one table of r."""
    if top > 10 ** 6:
        raise PreconditionError("m out of range")
    table = norm_counts(max(top, 0))
    return [_rep_check(m, table.__getitem__) for m in range(1, top + 1)]


def instance_corpus(count, seed, max_nrd=10 ** 4, max_m=120):
    """Deterministic corpus of admissible (H, K, m, eta, M0) instances."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        x = [rng.randrange(-6, 7) for _ in range(4)]
        eta = hq_from_basis_coords(x)
        if eta.is_zero() or not eta.is_primitive():
            continue
        nrd = eta.nrd()
        if nrd > max_nrd:
            continue
        odd = [p for p, _ in _factor(nrd) if 2 < p <= max_m]
        if not odd:
            continue
        K = rng.choice(odd)
        # m: a multiple of K dividing nrd, capped for enumeration cost
        mults = [d for d in range(K, max_m + 1, K)
                 if nrd % d == 0 and d % K == 0]
        m = rng.choice(mults)
        H = rng.choice([1, 1, 1, 2, 3])
        m0 = hq_from_basis_coords([rng.randrange(m) for _ in range(4)])
        out.append({"H": H, "K": K, "m": m, "eta": eta, "m0": m0})
    return out
