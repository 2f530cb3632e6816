"""Local (p-adic) building blocks.

* p-adic valuation and unit part of an integer
* exact one-variable quadratic exponential sums over Z_p and their laws,
  each law decided exactly on CycloSum values

Valuations are plain non-negative ints; `None` never appears, zero entries
at working precision are capped at the precision exponent.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import CycloSum
from .errors import BudgetError, PreconditionError, VerificationError


def pval(x, p, cap=None):
    """p-adic valuation of a nonzero integer; `cap` if x == 0 (cap required
    in that case)."""
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
    """Unit part of x mod `modulus` (x nonzero mod modulus)."""
    x = int(x) % modulus
    if x == 0:
        raise PreconditionError("zero has no unit part at this precision")
    while x % p == 0:
        x //= p
    return x % modulus


# ---------------------------------------------------------------------------
# Quadratic exponential sums
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GaussSumParams:
    """Parameters for the normalized sum
    p^(-vt) * sum_{y mod p^vt} e(( a y^2 + xi y ) / t ) with
    a = ua * p^va, t = ut * p^vt, xi = uxi * p^vxi; e() is the character
    x -> exp(2 pi i {x}_p). All three unit parts are coprime to p.

    vxi may be given as >= vt + va + 2 to mean "xi irrelevant/zero"; use
    xi_zero=True for a true zero linear term.
    """
    p: int
    va: int
    vt: int
    vxi: int
    ua: int = 1
    ut: int = 1
    uxi: int = 1
    xi_zero: bool = False

    def __post_init__(self):
        if self.va < 0 or self.vt < 0 or self.vxi < 0:
            raise PreconditionError("valuations must be non-negative")
        for u in (self.ua, self.ut, self.uxi):
            if u % self.p == 0:
                raise PreconditionError("unit parts must be coprime to p")


def gauss_sum(params, budget=10 ** 7):
    """Exact value of the normalized quadratic sum as a CycloSum.

    Averaging y over Z/p^vt suffices: the phase (a y^2 + xi y)/t only
    depends on y mod p^vt because a, xi are integral.
    """
    p, va, vt, vxi = params.p, params.va, params.vt, params.vxi
    M = vt
    pm = p ** M
    if pm > budget:
        raise BudgetError(f"{pm} summands exceed budget {budget}")
    if M == 0:
        return CycloSum.from_int(1, p)
    inv_ut = pow(params.ut, -1, pm)
    a = (params.ua * pow(p, va, pm * p)) % pm if va < M else 0
    xi = 0 if params.xi_zero else ((params.uxi * p ** vxi) % pm if vxi < M else 0)
    counts = {}
    for y in range(pm):
        r = ((a * y * y + xi * y) * inv_ut) % pm
        counts[r] = counts.get(r, 0) + 1
    return CycloSum(p, M, counts, scale=M)


def gauss_sum_law_report(params, budget=10 ** 7):
    """Evaluate the sum and check every applicable structural law exactly.

    Returns a dict with the value, the laws that applied, and booleans.
    Raises VerificationError on any failure (p odd laws are exact; at p = 2
    only the inequality form of the magnitude law is asserted).
    """
    p, va, vt, vxi = params.p, params.va, params.vt, params.vxi
    g = gauss_sum(params, budget=budget).canonical()
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
                                      params.uxi, xi_zero=True), budget=budget)
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

