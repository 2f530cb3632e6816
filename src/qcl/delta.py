"""Numeric verification of the quaternionic delta-symbol identity.

The test function is a separable radial pair Phi(x, y) = phi1(nrd x) *
phi2(nrd y) with polynomial bumps supported on [0, 1] and phi2(0) = 0.  For
a nonzero integral quaternion alpha the two-sided sum

    sum_delta [ Phi(alpha/delta / Q, delta / Q) - Phi(delta / Q,
                delta^{-1} alpha / Q) ]

over delta with the integrality side conditions cancels exactly; the
cancellation is certified by an explicit bijection delta <-> alpha *
delta^{-1} between the two enumerated index sets, plus an exact rational
sum.  At each divisor norm d, side 1 is the set of norm-d points of the left
ideal L_d = {delta : delta conj(alpha) in d O} = O beta.  The HNF of L_d
comes from `qcl.linalg.congruence_lattice`, beta is the right-Euclidean gcd
of its rows, and the points are x beta for x in the cofactor shell of norm
d / nrd(beta), which is the 24 units unless alpha is imprimitive.  beta lying
in L_d and every HNF row being a left multiple of beta certify L_d = O beta,
and every emitted delta is rechecked.  The bijection takes side 1 at d to
side 2 at e = nrd(alpha) / d, {mu : nrd mu = e, conj(mu) alpha in e O},
built as side 1 for conj(alpha) at e and conjugated; `index_sets` builds
and certifies that one pair at a time, so no index set outlives its divisor.

For alpha = 0 the sum is a smoothed quaternion-norm count whose
Q^{-4}-normalization converges to the dual-lattice main term b(Q), a sum
over the trace-form dual of the order of the 4D radial Fourier transform of
r -> phi2(r^2).  That transform has a closed form: phi2 is expanded exactly
in powers of (1 - t), and each power is integrated against the Bessel
kernel by Sonine's first finite integral

    int_0^1 r^{nu+1} (1 - r^2)^mu J_nu(a r) dr = 2^mu mu! a^{-mu-1} J_{nu+mu+1}(a)

(Watson, A Treatise on the Theory of Bessel Functions, 12.11), so each
value is a few Bessel values and no quadrature.  The power series of J_nu
(DLMF 10.2.2) makes the sum one alternating series in (pi s)^2, which
`ghat` sums in Python integers with a counted error bound and rounds
correctly to a float; pi comes from `qcl.algebra.pi_fixed`.

A zero shift is refused past Q = 512, and a nonzero one when the divisor
scan or the index-set shells would pass their caps (`delta_sum`).

Conventions (fixed throughout): additive character e(-t) on the reals,
pairing (x, y) -> trd(x y) with Gram matrix 2 diag(1,-1,-1,-1), self-dual
measure 4 * Lebesgue, so the order has covolume 2 and the dual sum carries a
factor 1/2.  The dual of the order is (1 + i) O / 2, certified by its
unimodular integral pairing with the order (`dual_lattice_audit`), and the
zero-shift sum and the dual-lattice norm histogram read r(n) from one table,
`qcl.lattices.norm_counts`.
"""

import functools
import math
from collections import namedtuple
from fractions import Fraction

from .algebra import (HQ_BASIS, HurwitzQuat, hq_from_basis_coords, pi_fixed,
                      right_mul_coords)
from .errors import BudgetError, PreconditionError, VerificationError
from .lattices import norm_counts
from .linalg import congruence_lattice, row_hnf


def _poly_eval(coeffs, t):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


class DeltaTestFn(namedtuple("DeltaTestFn", "phi1_coeffs phi2_coeffs")):
    """Separable radial pair: phi1/phi2 are polynomials on [0,1] (zero
    outside), phi2(0) = 0 and phi1(0) != 0 are enforced."""

    __slots__ = ()

    def __new__(cls, phi1_coeffs=(1, -3, 3, -1),       # (1-t)^3
                phi2_coeffs=(0, 1, -3, 3, -1)):        # t(1-t)^3
        if _poly_eval(phi2_coeffs, Fraction(0)) != 0:
            raise PreconditionError("phi2(0) must vanish")
        if _poly_eval(phi1_coeffs, Fraction(0)) == 0:
            raise PreconditionError("phi1(0) must not vanish")
        return super().__new__(cls, phi1_coeffs, phi2_coeffs)

    def phi1(self, t):
        t = Fraction(t)
        if t < 0 or t > 1:
            return Fraction(0)
        return _poly_eval(self.phi1_coeffs, t)

    def phi2(self, t):
        t = Fraction(t)
        if t < 0 or t > 1:
            return Fraction(0)
        return _poly_eval(self.phi2_coeffs, t)

    def phi2_about_one(self):
        """Exact coefficients d_mu of phi2(t) = sum_mu d_mu (1 - t)^mu."""
        n = len(self.phi2_coeffs)
        return tuple(
            (-1) ** mu * sum(Fraction(c) * math.comb(k, mu)
                             for k, c in enumerate(self.phi2_coeffs))
            for mu in range(n))

    def radial_moment(self):
        """integral of t * phi2(t) over [0,1], exact."""
        return sum(Fraction(c, k + 2)
                   for k, c in enumerate(self.phi2_coeffs))


DEFAULT_PROFILE = DeltaTestFn()


# ---------------------------------------------------------------------------
# trace-form dual of the order

#: 1 + i: the trace-form dual of the order is _DUAL_SCALE O / 2
_DUAL_SCALE = HurwitzQuat(2, 2, 0, 0)


def dual_lattice_audit():
    """Certify that the trace-form dual O* = {x : trd(x O) in Z} of the
    order is (1 + i) O / 2.

    Over the order basis b_i, the pairing of O with (1 + i) O / 2 has the
    matrix trd(b_i (1 + i) b_j) / 2.  Every entry is an integer, so
    (1 + i) O / 2 lies in O*, and the matrix is unimodular (its HNF is the
    identity), so it is all of O*.  Otherwise `VerificationError`.
    """
    pairing = [[(bi * _DUAL_SCALE * bj).trd() for bj in HQ_BASIS]
               for bi in HQ_BASIS]
    if any(t % 2 for row in pairing for t in row):
        raise VerificationError(
            f"{_DUAL_SCALE} O / 2 pairs non-integrally with the order")
    h = row_hnf([[t // 2 for t in row] for row in pairing])
    if h != [[int(i == j) for j in range(4)] for i in range(4)]:
        raise VerificationError(f"{_DUAL_SCALE} O / 2 is not the dual")
    return True


def dual_norm_histogram(max_nsq):
    """Counts of Euclidean norm-squared values over the dual lattice,
    keyed by 4*|xi|^2 (an integer), up to |xi|^2 <= max_nsq.

    The dual lattice is (1 + i) O / 2 (certified by `dual_lattice_audit`),
    and nrd((1 + i) x) = nrd(1 + i) nrd(x) = 2 nrd(x), so the key
    4 |xi|^2 = 2 nrd(x) takes the value 2n exactly r(n) times, read from
    one table of r.  Keys are inserted in increasing order.
    """
    scale = _DUAL_SCALE.nrd()
    counts = norm_counts(int(math.floor(4 * max_nsq)) // scale)
    return {scale * n: c for n, c in enumerate(counts)}


# ---------------------------------------------------------------------------
# radial Fourier profile

#: `b_term` drops the dual-lattice terms with argument 2Q|xi| past this
_B_TERM_CUTOFF = 60.0


@functools.lru_cache(maxsize=None)
def _sonine_series(profile):
    """(top, lcm, weights, diffs) with

        sum_mu d_mu / ((mu + 1) (mu + 2)) 0F1(; mu + 3; -z)
            = sum_k (-z)^k / (k! (top)_k) * n_k / lcm,

    n_k = sum_nu weights[nu] (nu + k)_(top - nu) over nu = mu + 3, from
    (nu)_k (nu + k)_(top - nu) = (nu)_(top - nu) (top)_k; the weights are
    integers, and n_k is a polynomial in k whose value at 0 and forward
    differences are `diffs`.  None if phi2 is zero."""
    c = {mu + 3: Fraction(d, (mu + 1) * (mu + 2))
         for mu, d in enumerate(profile.phi2_about_one()) if d}
    if not c:
        return None
    top = max(c)
    c = {nu: v / math.prod(range(nu, top)) for nu, v in c.items()}
    lcm = math.lcm(*(v.denominator for v in c.values()))
    weights = {nu: int(v * lcm) for nu, v in c.items()}
    span = top - min(weights)
    diffs = [sum(w * math.prod(range(nu + k, top + k))
                 for nu, w in weights.items()) for k in range(span + 1)]
    for i in range(1, span + 1):
        for j in range(span, i - 1, -1):
            diffs[j] -= diffs[j - 1]
    return top, lcm, weights, tuple(diffs)


def ghat(s, profile=DEFAULT_PROFILE):
    """4D radial Fourier transform of g(r) = phi2(r^2) at radius s >= 0,
    as the correctly rounded float.

    For s > 0 it is (2 pi / s) int_0^1 r^2 g(r) J_1(2 pi s r) dr.  With
    phi2(t) = sum_mu d_mu (1 - t)^mu and a = 2 pi s, Sonine's integral at
    nu = 1 turns it into (2 pi / s) sum_mu d_mu 2^mu mu! a^{-mu-1} J_{mu+2}(a),
    and the power series of J (DLMF 10.2.2) into

        pi^2 sum_mu d_mu / ((mu + 1) (mu + 2)) 0F1(; mu + 3; -z),  z = (pi s)^2,

    one alternating series (`_sonine_series`) summed in integers at P
    fractional bits, u = 2^-P.  g_k = z^k / (k! (top)_k) is floored from
    g_(k-1) by Z, within a relative eps of z, so sum_(k<=K) |G_k u - g_k|
    <= E = B K (2 eps + (K + 1) u) while K eps <= 1/8, where B = 2^b >=
    e^(2 pi s) bounds every g_k and their sum.  Each term G_k n_k is exact,
    |n_k| <= M = sum |weights[nu]| (nu + K)_(top - nu), and the sum stops
    at G_K = 0 with every later ratio below 1/2, a tail within 2 M E; in
    all the sum is within 3 M E.  P starts at b + 128 bits against the
    cancellation, and doubles until the enclosure rounds to one float.
    """
    if s == 0:
        # (pi^2 / 2) int t phi2(t) dt in doubles: `b_term_approx` prints this
        # value, one unit in the last place off the correctly rounded one
        m = profile.radial_moment()
        return 2 * (math.pi * math.pi) * m.numerator / m.denominator / 2
    series = _sonine_series(profile)
    if series is None:
        return 0.0
    top, lcm, weights, diffs = series
    span = len(diffs) - 1
    num, den = Fraction(s).as_integer_ratio()
    num = abs(num)
    b = -(-9065 * num // (1000 * den))                  # 9.065 > 2 pi log2 e
    eps2 = 3 + -(-2 * den * den // (9 * num * num))     # 2 eps <= eps2 u
    kmin = math.isqrt(20 * num * num // (den * den)) + 1   # 20 s^2 > 2 z
    prec = b + 128
    while True:
        pi = pi_fixed(prec)
        # |Pi^2 u^2 - pi^2| <= 13 u, so |Z u - z| <= (13 s^2 + 1) u
        z = pi * pi * num * num // (den * den << prec)
        g, k, total, n = 1 << prec, 0, 0, list(diffs)
        while g or k < kmin:
            t = g * n[0]
            total += -t if k & 1 else t
            for i in range(span):           # n_k -> n_(k+1)
                n[i] += n[i + 1]
            k += 1
            g = (g * z >> prec) // (k * (top + k - 1))
        if k * eps2 <= 1 << (prec - 2):
            bound = sum(abs(w) * math.prod(range(nu + k, top + k))
                        for nu, w in weights.items())
            err = 3 * bound * (k * (eps2 + k + 1) << b)
            lo_pi, hi_pi = (pi - 2) ** 2, (pi + 2) ** 2
            lo, hi = total - err, total + err
            scale = lcm << 3 * prec
            lo = (lo_pi if lo >= 0 else hi_pi) * lo / scale
            hi = (hi_pi if hi >= 0 else lo_pi) * hi / scale
            if lo == hi:
                return lo
        prec *= 2


def f2phi_at_zero(profile=DEFAULT_PROFILE):
    """Transform of Phi(0, .) at the origin: 4 * ghat(0)."""
    return 4 * ghat(0, profile)


def b_term(Q, profile=DEFAULT_PROFILE):
    """Dual-lattice main term (1/2) * sum_xi F2Phi(0, Q*xi), truncated where
    the radial profile is negligible (argument 2Q|xi| > `_B_TERM_CUTOFF`)."""
    if Q < 4:
        raise PreconditionError("Q must be >= 4")
    max_nsq = (_B_TERM_CUTOFF / (2 * Q)) ** 2
    hist = dual_norm_histogram(max_nsq)
    total = 0.0
    for key, cnt in sorted(hist.items()):
        s = 2 * Q * math.sqrt(key / 4)
        total += cnt * 4 * ghat(s, profile)
    return 0.5 * total


# ---------------------------------------------------------------------------
# delta sum

def _norm_shell(d):
    """All order elements of reduced norm d, in doubled coordinates: pairs
    (c0, c1) and (c2, c3) of one parity whose squares sum to 4d.  Called
    with the cofactor norm d / nrd(beta) only (see `_index_set`)."""
    target = 4 * d
    cmax = math.isqrt(target)
    out = []
    for parity in (0, 1):
        coords = [c for c in range(-cmax, cmax + 1) if c % 2 == parity]
        pairs = {}
        for c0 in coords:
            for c1 in coords:
                s = c0 * c0 + c1 * c1
                if s <= target:
                    pairs.setdefault(s, []).append((c0, c1))
        for s, front in pairs.items():
            for back in pairs.get(target - s, ()):
                out.extend(HurwitzQuat(*f, *back) for f in front)
    return out


def _in_scaled_order(x, d):
    """True if the quaternion x lies in d * order."""
    if any(c % d for c in x.c):
        return False
    return len({(c // d) % 2 for c in x.c}) == 1


def _nearest_hurwitz(p, n):
    """Order element nearest to the rational quaternion with doubled
    coordinates p / n: the closer of the nearest integral point and the
    nearest point with half-odd coordinates."""
    whole = [2 * ((c + n) // (2 * n)) for c in p]
    half = [2 * (c // (2 * n)) + 1 for c in p]
    return HurwitzQuat(*min(whole, half, key=lambda q: sum(
        (n * a - c) ** 2 for a, c in zip(q, p))))


def _right_gcd(a, b):
    """A generator of the left ideal O a + O b, by right-Euclidean division
    a = q b + r with q the order element nearest to a b^-1 = a conj(b) /
    nrd b (Conway & Smith, On Quaternions and Octonions, ch. 5)."""
    while not b.is_zero():
        nb = b.nrd()
        r = a - _nearest_hurwitz((a * b.conjugate()).c, nb) * b
        if r.nrd() >= nb:
            raise VerificationError("Euclidean remainder did not shrink")
        a, b = b, r
    return a


def _ideal_generator(rows):
    """A generator of the left ideal whose Z-basis is `rows`."""
    beta = rows[0]
    for r in rows[1:]:
        beta = _right_gcd(r, beta)
    return beta


def _index_set(alpha, d):
    """The certified set {delta : nrd delta = d, alpha conj(delta) in d O}.

    It is the set of norm-d points of L_d = {delta : delta conj(alpha) in
    d O}, a left ideal, so L_d = O beta and the points are x beta with
    nrd x = d / nrd beta: the 24 unit multiples of beta when alpha is
    primitive.  beta lies in L_d and every HNF row of L_d is a left multiple
    of beta, which proves L_d = O beta; every emitted delta is rechecked.
    """
    rows = [hq_from_basis_coords(r) for r in congruence_lattice(
        right_mul_coords(alpha.conjugate()), d)]
    beta = _ideal_generator(rows)
    nb = beta.nrd()
    if (beta.is_zero() or not _in_scaled_order(alpha * beta.conjugate(), d)
            or not all(_in_scaled_order(r * beta.conjugate(), nb)
                       for r in rows)):
        raise VerificationError(f"{beta} does not generate L_{d}")
    if d % nb:
        return []
    out = [x * beta for x in _norm_shell(d // nb)]
    for delta in out:
        if (delta.nrd() != d
                or not _in_scaled_order(alpha * delta.conjugate(), d)):
            raise VerificationError(f"{delta} is not in the index set at {d}")
    return out


def index_sets(alpha, d):
    """The two index sets the bijection delta -> alpha delta^-1 = alpha
    conj(delta) / d links: side 1 is {delta : nrd delta = d, alpha
    conj(delta) in d O}, and side 2 is {mu : nrd mu = e, conj(mu) alpha in
    e O} at e = nrd(alpha) / d, the conjugate of side 1 for conj(alpha) at
    e.  The pair is certified: neither side repeats an element, both have
    one size, and {alpha conj(delta)} = {d mu}, so the map is one-to-one
    and onto."""
    na = alpha.nrd()
    if not na or na % d:
        raise PreconditionError("d must divide nrd(alpha) != 0")
    right = _index_set(alpha, d)
    left = [x.conjugate() for x in _index_set(alpha.conjugate(), na // d)]
    images = {(alpha * delta.conjugate()).c for delta in right}
    scaled = {(mu * d).c for mu in left}
    if not len(images) == len(scaled) == len(right) == len(left):
        raise VerificationError(f"index sets at {d} repeat or differ in size")
    if images != scaled:
        raise VerificationError(f"bijection at {d} misses the second side")
    return right, left


def support_divisors(na, Q):
    """Norms d with nrd(delta) = d <= Q^2 and na / d <= Q^2 that divide
    na = nrd(alpha), as alpha * delta^{-1} must be integral."""
    Q2 = Q * Q
    return [d for d in range(1, min(na, Q2) + 1)
            if na % d == 0 and na <= d * Q2]


#: cap on Q at the zero shift, whose norm table runs to Q^2
_ZERO_SHIFT_Q_CAP = 512
#: cap on min(nrd alpha, Q^2), the integers `support_divisors` scans
_DIVISOR_SCAN_CAP = 10 ** 6
#: cap on sum_d gcd(d, content of alpha) over the support divisors, which
#: bounds the sum of the cofactor norms d / nrd(beta) of the shells built
_SHELL_NORM_CAP = 10 ** 5


def delta_sum(alpha, Q, profile=DEFAULT_PROFILE):
    """Two-sided smoothed sum at shift alpha and modulus height Q.

    Returns a report with the exact rational difference, the dual main term,
    and (for nonzero alpha) the term counts of the two sides.  The
    difference is exactly zero for nonzero alpha: at each support divisor d
    `index_sets` certifies the bijection from side 1 at d onto side 2 at
    nrd(alpha) / d, and the pair's terms are added and dropped.

    The caps are checked before any norm table or shell is built.  A shell
    at d has cofactor norm d / nrd(beta) <= gcd(d, g) for alpha = g alpha0
    with alpha0 primitive: delta conj(alpha) lies in d O exactly when delta
    conj(alpha0) lies in f O, f = d / gcd(d, g), and that left ideal has
    norm at least f at every prime.  Side 2 at nrd(alpha) / d is side 1
    for conj(alpha), of the same content, and d -> nrd(alpha) / d maps the
    support divisors onto themselves, so the side-2 shells also sum to at
    most sum_d gcd(d, g).
    """
    if Q < 4:
        raise PreconditionError("Q must be >= 4")
    Q2 = Q * Q
    if alpha.is_zero():
        if Q > _ZERO_SHIFT_Q_CAP:
            raise BudgetError(f"zero shift needs Q <= {_ZERO_SHIFT_Q_CAP}")
        # phi2(n / Q^2) = sum_k c_k n^k / Q^(2k), so the sum over n is
        # sum_k c_k S_k / Q^(2k) with integer moments S_k = sum_n r(n) n^k
        counts = norm_counts(Q2)
        diff = Fraction(0)
        for k, c in enumerate(profile.phi2_coeffs):
            moment = sum(counts[n] * n ** k for n in range(1, Q2 + 1))
            diff += Fraction(c * moment, Q2 ** k)
        return {"difference": diff, "b_term": b_term(Q, profile),
                "normalized": diff / Q ** 4, "terms": None}
    na = alpha.nrd()
    if min(na, Q2) > _DIVISOR_SCAN_CAP:
        raise BudgetError("divisor scan exceeds budget")
    divisors = support_divisors(na, Q)
    content = alpha.content()
    if sum(math.gcd(d, content) for d in divisors) > _SHELL_NORM_CAP:
        raise BudgetError("index-set shells exceed budget")
    s1 = s2 = Fraction(0)
    n1 = n2 = 0
    for d in divisors:
        e = na // d
        right, left = index_sets(alpha, d)
        n1, n2 = n1 + len(right), n2 + len(left)
        # every term of one side at one norm has the same value
        s1 += (len(right) * profile.phi1(Fraction(e, Q2))
               * profile.phi2(Fraction(d, Q2)))
        s2 += (len(left) * profile.phi1(Fraction(e, Q2))
               * profile.phi2(Fraction(na, e * Q2)))
    diff = s1 - s2
    if diff != 0:
        raise VerificationError("two-sided sum fails to cancel exactly")
    return {"difference": diff, "b_term": None, "terms": (n1, n2)}


# ---------------------------------------------------------------------------
# Poisson harness

def poisson_check(scale):
    """Poisson summation over the order with a separable Gaussian.

    lhs = sum over the order of exp(-pi |x|^2 / scale^2); rhs is the
    dual-lattice Gaussian sum with the trace-pairing conventions (covolume
    factor 1/2, pairing Gram 2 diag(1,-1,-1,-1)).  Returns (lhs, rhs,
    rel_err).
    """
    scale = Fraction(scale)
    if not Fraction(1, 8) <= scale <= 8:
        raise PreconditionError("scale out of range")
    sc = float(scale)
    lhs = 1.0
    nmax = int(math.ceil(45 / math.pi * sc * sc)) + 1
    for n, c in enumerate(norm_counts(nmax)[1:], 1):
        lhs += c * math.exp(-math.pi * n / (sc * sc))
    max_nsq = 45 / (4 * math.pi * sc * sc) + 1
    hist = dual_norm_histogram(max_nsq)
    rhs = 0.0
    for key, cnt in hist.items():
        rhs += cnt * math.exp(-4 * math.pi * sc * sc * key / 4)
    rhs *= 2 * sc ** 4
    rel = abs(lhs - rhs) / abs(lhs)
    return lhs, rhs, rel
