"""Local (p-adic) building blocks.

* exact one-variable quadratic exponential sums over Z_p and their laws
* Cartan decomposition of 2x2 matrices at a finite prime
* normalization of a matrix coset representative so that its determinant
  dominates its sup norm and its trace is not too divisible
* uniform diagonalization of symmetric forms over Z/p^N (p odd) by a
  unimodular change of variables
* the cyclic generator of the two-sided image x -> conj(eta) x eta modulo
  the reduced norm of eta

Valuations are plain non-negative ints; `None` never appears, zero entries
at working precision are capped at the precision exponent.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .algebra import CycloSum, HurwitzQuat, Mat2, RingZMod
from .errors import BudgetError, PrecisionError, PreconditionError, VerificationError


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
    g = gauss_sum(params, budget=budget)
    report = {"value": g.canonical(), "laws": {}}
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
        mag2 = gg.magnitude()
        c = 1.0 if p != 2 else 4.0  # measured headroom constant at p = 2
        ok = mag2 <= c * float(Fraction(p) ** bound_exp) * (1 + 1e-9)
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


# ---------------------------------------------------------------------------
# Cartan decomposition
# ---------------------------------------------------------------------------


def _mat_mod(m, modulus):
    return Mat2(m.e, RingZMod(modulus))


def cartan_decompose(z, p, N):
    """Write z = k1 * diag(p^n1, p^n2) * k2 mod p^N with k1, k2 invertible
    and n1 >= n2. Entries of z are taken mod p^N; valuations >= N are capped
    at N (a zero matrix gives n1 = n2 = N).

    Returns (k1, (n1, n2), k2) over Z/p^N and verifies the product.
    """
    pN = p ** N
    ring = RingZMod(pN)
    a = [list(row) for row in _mat_mod(z, pN).e]
    k1 = [[1, 0], [0, 1]]
    k2 = [[1, 0], [0, 1]]

    vals = [[pval(a[i][j], p, cap=N) for j in range(2)] for i in range(2)]
    n2 = min(min(r) for r in vals)
    if n2 >= N:
        ident = Mat2.identity(ring)
        return ident, (N, N), ident

    # move a minimal-valuation entry to the (0,0) slot
    pi, pj = min(((i, j) for i in range(2) for j in range(2)),
                 key=lambda t: (vals[t[0]][t[1]], t))
    if pi == 1:
        a[0], a[1] = a[1], a[0]
        # row swap on a = column swap on k1
        for r in k1:
            r[0], r[1] = r[1], r[0]
    if pj == 1:
        for r in a:
            r[0], r[1] = r[1], r[0]
        k2[0], k2[1] = k2[1], k2[0]

    piv = a[0][0]
    upiv_inv = pow(punit(piv, p, pN), -1, pN)
    # clear below: row1 -= f * row0 with f = a10 / piv (exact division)
    if a[1][0] % pN:
        f = (a[1][0] // p ** n2 * upiv_inv) % pN
        a[1] = [(a[1][j] - f * a[0][j]) % pN for j in range(2)]
        # a -> M a with M = [[1,0],[-f,1]]; k1 -> k1 M^{-1} = k1 [[1,0],[f,1]]
        k1[0][0] = (k1[0][0] + f * k1[0][1]) % pN
        k1[1][0] = (k1[1][0] + f * k1[1][1]) % pN
    # clear right: col1 -= g * col0
    if a[0][1] % pN:
        g = (a[0][1] // p ** n2 * upiv_inv) % pN
        a[0][1] = (a[0][1] - g * a[0][0]) % pN
        a[1][1] = (a[1][1] - g * a[1][0]) % pN
        k2[0][0] = (k2[0][0] + g * k2[1][0]) % pN
        k2[0][1] = (k2[0][1] + g * k2[1][1]) % pN

    n1 = pval(a[1][1], p, cap=N)
    # absorb unit parts of the diagonal into k1's columns
    u0 = punit(a[0][0], p, pN)
    k1[0][0] = k1[0][0] * u0 % pN
    k1[1][0] = k1[1][0] * u0 % pN
    if n1 < N:
        u1 = punit(a[1][1], p, pN)
        k1[0][1] = k1[0][1] * u1 % pN
        k1[1][1] = k1[1][1] * u1 % pN
    # order the exponents n1 >= n2 (swap rows of k2 / columns of k1)
    if n1 >= n2:
        for r in k1:
            r[0], r[1] = r[1], r[0]
        k2[0], k2[1] = k2[1], k2[0]
    else:  # pragma: no cover - n1 >= n2 always holds by minimality
        n1, n2 = n2, n1

    k1m = Mat2(k1, ring)
    k2m = Mat2(k2, ring)
    if pval(k1m.nrd(), p, cap=1) or pval(k2m.nrd(), p, cap=1):
        raise VerificationError("cartan factors are not invertible")
    dia = Mat2(((pow(p, n1, pN) if n1 < N else 0, 0),
                (0, pow(p, n2, pN))), ring)
    if k1m * dia * k2m != _mat_mod(z, pN):
        raise VerificationError("cartan product mismatch")
    return k1m, (n1, n2), k2m


# ---------------------------------------------------------------------------
# Coset-representative normalization
# ---------------------------------------------------------------------------


def matrix_min_val(m, p, cap):
    return min(pval(x, p, cap=cap) for x in m.entries_flat())


def normalize_coset_rep(z, p, N):
    """Find an integral perturbation w with sup norm <= 1 such that
    z + w has determinant valuation <= its minimal entry valuation and
    trace valuation <= v_p(2). Returns (w, cert) over Z/p^N.

    Needs headroom: the minimal entry valuation of z must be < N - 1.
    """
    pN = p ** N
    ring = RingZMod(pN)
    zm = _mat_mod(z, pN)
    if matrix_min_val(zm, p, cap=N) >= N:
        w = Mat2.identity(ring)
        return w, {"case": "zero_input"}
    k1, (n1, n2), k2 = cartan_decompose(zm, p, N)
    if n2 >= N - 1:
        raise PrecisionError("entry valuations too close to the precision cap")
    lam1 = (1 - pow(p, n1, pN)) % pN if n1 > 0 else 0
    lam2 = (1 - pow(p, n2, pN)) % pN if n2 > 0 else 0
    w = k1 * Mat2(((lam1, 0), (0, lam2)), ring) * k2
    cert = {"case": "cartan", "exponents": (n1, n2)}

    a = zm + w
    # now every diagonal Cartan slot of a is a unit: det is a unit and the
    # sup norm is 1; fix the trace if it is too divisible
    v2 = 1 if p == 2 else 0
    if pval(a.trd(), p, cap=N) > v2:
        a00 = a.e[0][0]
        det = a.nrd()
        if pval(a00, p, cap=N) > 0:
            alpha = 1
            cert["trace_fix"] = "corner_small"
        elif p == 2:
            alpha = 2
            cert["trace_fix"] = "even_bump"
        else:
            alpha = next(t for t in range(1, p)
                         if (det + t * a00) % p != 0)
            cert["trace_fix"] = f"unit_bump_{alpha}"
        bump = Mat2(((0, 0), (0, alpha)), ring)
        w = w + bump
        a = a + bump

    # verify the advertised predicates
    vdet = pval(a.nrd(), p, cap=N)
    vmin = matrix_min_val(a, p, cap=N)
    vtr = pval(a.trd(), p, cap=N)
    if not (vdet <= vmin and vtr <= v2 and matrix_min_val(w, p, cap=N) >= 0):
        raise VerificationError(
            f"normalization predicates failed: vdet={vdet} vmin={vmin} vtr={vtr}")
    cert["vdet"] = vdet
    cert["vmin"] = vmin
    cert["vtr"] = vtr
    return w, cert


# ---------------------------------------------------------------------------
# Uniform diagonalization of symmetric forms (p odd)
# ---------------------------------------------------------------------------


def uniform_diagonalize(gram, p, N):
    """Diagonalize a symmetric matrix over Z/p^N, p odd, by a unimodular
    change of basis whose inverse is also integral.

    Returns (basis, diag, n_out): basis columns b_i with
    b_i^T gram b_j = diag_i delta_ij mod p^n_out, where n_out = N minus the
    total valuation spent on exact divisions. The pivot at each step is a
    value of the form on the candidate set {e_i, e_i + e_j, e_i - e_j},
    which realizes the minimal valuation because 2 is a unit.
    """
    if p == 2:
        raise PreconditionError("uniform diagonalization needs an odd prime")
    n = len(gram)
    if n > 16:
        raise BudgetError("dimension capped at 16")
    pN = p ** N
    g = [[int(gram[i][j]) % pN for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            if g[i][j] != g[j][i]:
                raise PreconditionError("matrix is not symmetric")
    basis = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    spent = 0

    def q(v):
        return sum(v[i] * g0[i][j] * v[j] for i in range(n) for j in range(n)) % pN

    g0 = [row[:] for row in g]
    work = [row[:] for row in g]
    cols = list(range(n))  # columns of `basis` still being processed
    for step in range(n):
        m = n - step
        # candidate vectors in the current block
        best = None
        for i in range(m):
            cands = [[(1 if t == i else 0) for t in range(m)]]
            for j in range(i + 1, m):
                for s in (1, -1):
                    cands.append([(1 if t == i else (s if t == j else 0))
                                  for t in range(m)])
            for v in cands:
                val = sum(v[a] * work[a][b] * v[b]
                          for a in range(m) for b in range(m)) % pN
                vv = pval(val, p, cap=N)
                if best is None or vv < best[0]:
                    best = (vv, v)
        vpiv, vec = best
        if vpiv >= N - spent:
            # remaining block vanishes at working precision
            break
        # change basis inside the block so the pivot vector becomes e_0:
        # complete vec to a unimodular matrix (vec has a +-1 coordinate)
        lead = next(i for i in range(m) if vec[i] in (1, -1, pN - 1))
        t = [[1 if a == b else 0 for b in range(m)] for a in range(m)]
        for a in range(m):
            t[a][lead] = vec[a]
        if lead != 0:
            for row in t:
                row[0], row[lead] = row[lead], row[0]
        # work <- t^T work t ; basis block <- basis block * t
        work = _congruent(work, t, pN)
        _apply_block(basis, cols[step:], t, pN)
        d = work[0][0]
        ud_inv = pow(punit(d, p, pN), -1, pN)
        # clear the first row/column by exact division (all off-diagonal
        # entries have valuation >= vpiv by pivot minimality and odd p)
        t2 = [[1 if a == b else 0 for b in range(m)] for a in range(m)]
        for jcol in range(1, m):
            e = work[0][jcol] % pN
            if e:
                if pval(e, p, cap=N) < vpiv:
                    raise VerificationError("pivot was not minimal")
                t2[0][jcol] = (-(e // p ** vpiv) * ud_inv) % pN
        work = _congruent(work, t2, pN)
        _apply_block(basis, cols[step:], t2, pN)
        spent += vpiv
        # peel off the first row/column
        work = [row[1:] for row in work[1:]]
    n_out = N - spent
    pn_out = p ** n_out
    dmat = _congruent(g0, [[basis[i][j] for j in range(n)] for i in range(n)], pN)
    diag = [dmat[i][i] % pn_out for i in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j and dmat[i][j] % pn_out:
                raise VerificationError("off-diagonal residue after diagonalization")
    det = _det_mod(basis, pN)
    if det % p == 0:
        raise VerificationError("basis change is not unimodular")
    return basis, diag, n_out


def _congruent(g, t, modulus):
    m = len(g)
    gt = [[sum(g[a][b] * t[b][j] for b in range(m)) % modulus
           for j in range(m)] for a in range(m)]
    return [[sum(t[a][i] * gt[a][j] for a in range(m)) % modulus
             for j in range(m)] for i in range(m)]


def _apply_block(basis, col_idx, t, modulus):
    m = len(col_idx)
    n = len(basis)
    old = [[basis[r][col_idx[j]] for j in range(m)] for r in range(n)]
    for r in range(n):
        for j in range(m):
            basis[r][col_idx[j]] = sum(old[r][b] * t[b][j] for b in range(m)) % modulus


def _det_mod(a, modulus):
    n = len(a)
    if n == 1:
        return a[0][0] % modulus
    s = 0
    for j in range(n):
        sub = [row[:j] + row[j + 1:] for row in a[1:]]
        term = a[0][j] * _det_mod(sub, modulus)
        s += term if j % 2 == 0 else -term
    return s % modulus


# ---------------------------------------------------------------------------
# Cyclic image generator
# ---------------------------------------------------------------------------


def module_generator(eta, budget=10 ** 7):
    """For a primitive integral quaternion eta with odd reduced norm m,
    the image of Y -> conj(eta) * Y * eta in O/m is a cyclic O_F-module of
    order m. Returns (gen_true_coords, witness_basis_coords, image_size).

    gen_true_coords: true coordinates mod m of a generator N with
    image = {lambda * N : lambda mod m}; witness is a Y mapping to N.
    """
    m = eta.nrd()
    if m % 2 == 0:
        raise PreconditionError("reduced norm must be odd")
    if not eta.is_primitive():
        raise PreconditionError("eta must be primitive")
    if m ** 4 > budget:
        raise BudgetError(f"{m ** 4} elements exceed budget {budget}")
    ec = eta.conjugate()
    image = {}
    from .algebra import hq_from_basis_coords
    for coords in itertools.product(range(m), repeat=4):
        y = hq_from_basis_coords(coords)
        x = (ec * y) * eta
        key = x.true_coords_mod(m)
        if key not in image:
            image[key] = coords
    if len(image) != m:
        raise VerificationError(
            f"image has {len(image)} elements, expected {m}")
    for key in sorted(image):
        orbit = set()
        for lam in range(m):
            orbit.add(tuple(lam * k % m for k in key))
        if orbit == set(image):
            return key, image[key], m
    raise VerificationError("no cyclic generator found")
