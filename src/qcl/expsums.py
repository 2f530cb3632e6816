"""Local oscillatory integrals in the split 2x2 matrix model.

Main objects, all exact:

* `i0_local`: the constrained oscillatory integral over n matrix slots,
  for one gamma tuple, as a Fraction,
  I0(delta, gamma) = avg over Y in O^n of
  [delta^{-1} P(Y) integral] * e(trd(gamma . Y) / det(delta)),
  where P(Y) = sum of slotwise squares (with optional unit coefficients).
* `w_class_sum_report`: the volume of auxiliary matrices Z for which a
  target lies on the scalar line through Z times the cyclic image
  generator, in closed form (`_measure`), summed over the witness
  classes, each named by its `padic.line_key`.
* `witness_report` / `local_integral_audit`: support, witness and magnitude
  bound checks for i0_local; at most one nonzero witness class exists, so
  the search tests one candidate slot with `padic.line_multiple`, and its
  measure is read from that slot's valuation.
* `prime_case_report`: exact point-count identities at prime level.

The slot key is in closed form (`_slot_box`; the Smith form of adj(delta)
over Z_p, Cohen, A Course in Computational Algebraic Number Theory,
2.4.4). Write adj(delta) mod q = p^a E', E' primitive mod p^b, b = v - a,
and w = v_p(det E') capped at b. Let r be the first row of E' with a unit
entry r_k and j the other column: the other row is s = lam r + mu e_j with
r_k mu = +-det E', so v_p(mu) = w. For X = c Y^2, adj(delta) X = 0 mod q
iff r X = 0 and mu e_j X = 0 mod p^b, that is iff the box key
(r X mod p^b, e_j X mod p^(b-w)), an entry per column of X, is zero. The
key is additive and onto the box of radii (p^b, p^b, p^(b-w), p^(b-w)),
so its fibres are those of X -> adj(delta) X mod q, and two slots sum to
zero exactly when their keys do, digit by digit. At v = v_p(det delta),
a is the content valuation of delta and w = v - 2a: the box has order q^2.

I0 is one character sum over B: with q = p^v, v = v_p(det delta), and
t_i . flat(Y_i) the phase of tr(gamma_i Y_i) / u, u the unit part of
det delta, orthogonality on B gives q^(4n) |B| I0 = sum_{a in B}
prod_i G(c_i l_a, t_i), with l_a = sum_k a_k (q / r_k) row_k and
G(l, t) = sum_{Y mod q} e((l . flat(Y^2) + t . flat(Y)) / q).

At odd p, l . flat(Y^2) has the Gram matrix A with A00 = l0, A33 = l3,
A12 = (l0 + l3)/2, A01 = A13 = l1/2 and A02 = A23 = l2/2. A Jordan splitting
E^T A E = diag(u_j p^(w_j)) mod q (`padic.square_form_jordan`) gives
G = prod_j F(u_j p^(w_j), s_j), s = E^T t, F(u p^w, s) = sum_{x mod q}
e((u p^w x^2 + s x) / q). x -> x + p^(v-w) y fixes u p^w x^2 and adds
s y / p^w, so F = 0 unless p^w | s; then completing the square gives
F = p^w e(-(s/p^w)^2 (4u)^-1 / p^(v-w)) g(u, p^(v-w)), where g(u, p^k) =
sum_{x mod p^k} e(u x^2 / p^k) is p^(k/2) at even k and p^((k-1)/2)
(u/p) g1 at odd k, g1 = sum_{x mod p} e(x^2 / p), g1^2 = p* =
(-1)^((p-1)/2) p (Berndt, Evans and Williams, Gauss and Jacobi Sums,
ch. 1).

I0 is rational: for a unit c, Y -> c Y permutes M_2(Z/q)^n, keeps the
condition and sends the phase to its c-th power, so Gal(Q(zeta_q)/Q)
fixes I0. As the box key is onto B, a -> l_a is injective; it commutes
with scaling, so the unit class of an a of order p^o is {c a : c unit
mod p^o}, phi(p^o) characters, and c scales A: E and w stay, u_j -> c
u_j. With s_i = E^T t_i, m = #{j : v - w_j odd} and Phi = -sum_{i,j}
(4 c_i u_j)^-1 p^(w_j) (s_ij / p^(w_j))^2 mod q, character c a adds 0
unless every p^(w_j) | s_ij, else base (c/p)^(n m) e(c^-1 Phi / q)
g1^(n m mod 2), base = p^(sum_{i,j} (w_j + floor((v - w_j)/2)))
prod_{i, j: v - w_j odd} (c_i u_j / p) p*^floor(n m / 2). As w_j >= v -
o, x = Phi / p^(v-o) mod p^o is an integer, and summed over c
(`_unit_sum`) the class adds base c_{p^o}(x) at even n m, the Ramanujan
sum: phi(p^o) if p^o | x, -p^(o-1) if v_p(x) = o - 1, else 0 (Iwaniec
and Kowalski, Analytic Number Theory, 3.2). At odd n m, sum_c (c/p)
e(c x / p^o) is p^(o-1) (x'/p) g1 if x = p^(o-1) x', p not dividing x',
else 0, and g1 g1 = p*: the class adds base p* p^(o-1) (x'/p). The zero
class (o = 0) adds base. So q^(4n) |B| I0 is an integer sum over the
classes (`_class_sum`), with no root of unity and no float.

The classes need no loop over B = sum_k Z/p^(b_k)
(`_class_representatives`): per order p^o and pivot i, the first
coordinate of order p^o, a_i = p^(b_i - o), the earlier coordinates of
order below p^o and the later ones at most p^o; the phi(p^o) must add up
to |B| (VerificationError). At q = 3137: 3,139 classes, 9.8e6 characters.

At p = 2 (no 1/2), with y0, y3 fixed, (y1, y2) enters as k y1 y2 + b y1
+ g y2, k = l0 + l3, b = l1 (y0 + y3) + t1, g = l2 (y0 + y3) + t2. The
sum over y1 forces k y2 = -b mod q: with w = v_p(k) capped at v, p^w | b
and y2 = y* = -(b/p^w) (k/p^w)^-1 mod p^(v-w), so the pair sums to
q p^w [p^w | b, g] e(g y* / q). (y0, y3) is summed directly on numpy
arrays over all q^2 characters, q^4 work per slot at any p (the tests'
cross-check at odd p); the value must be rational (VerificationError).

Both witness objects rest on one Smith form: a flat 2x2 M mod m = p^v
with a unit entry and det M = 0 mod m is diag(1, 0), so M = c x r with r
the row holding M's pivot entry, a unit, and c with a unit entry (the
other row minus a multiple of r is 0 at r's unit column and +-det M/unit
at the other).

The image of Y -> adj(eta) Y eta, eta primitive, v = v_p(det eta), is
cyclic of order m (`matrix_cyclic_generator`): eta = c x r mod m, and as
adj(M) = J^T M^T J with J = [[0, 1], [-1, 0]], adj(c x r) = r' x c' for
r' = (-r1, r0) and c' = (-c1, c0). So adj(eta) Y eta = (c' Y c) (r' x r),
and c' Y c is Z/m-linear in Y and onto, as c' and c have unit entries:
gen = r' x r = (-r1 r0, -r1^2, r0^2, r0 r1) generates, with a unit entry.

The witness measure of a target t mod m is the volume of
{Z mod m : t in (Z/m) Z gen}, in closed form (`_measure`). With
gen = c x r, Z gen = (Z c) x r, and Z -> Z c is onto (Z/m)^2, so Z gen
runs over the m^2 matrices c x r, c in (Z/m)^2, each hit by m^2 of the
m^4 matrices Z. A target t that is no c_t x r lies on no such line and
has volume 0; else c_t is read row by row with `padic.line_multiple`
against r. Let s = v_p(c_t), capped at v. At s = v (t = 0, and every t
when m = 1) every Z counts: volume 1. At s < v, the c whose span holds
c_t are p^j c' with j <= s and c' a unit multiple of c_t / p^s mod
p^(v-s), lifted mod p^(v-j): phi(p^(v-s)) p^(2(s-j)) of them for each j.
Summed over j and times m^2 / m^4, the volume is
(p - 1) p^(v-s-1) (p^(2s+2) - 1) / ((p^2 - 1) m^2) (`_volume`). A witness
candidate t = g' eta = (g' c) x r mod m has c_t = g' c with r's unit
entry, so s = v_p(t): `witness_report` takes `_volume` at that valuation.

The one cache (`functools.lru_cache`, 16 entries) is `_class_table`.

Matrices are passed as flat 4-tuples (e00, e01, e10, e11) of ints; their
product, determinant and adjugate are the flat helpers of `qcl.algebra`.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from fractions import Fraction

from .algebra import (FLAT_UNITS, CycloSum, adj_flat, count_dtype, det_flat,
                      mat_mul_flat)
from .errors import BudgetError, PreconditionError, VerificationError
from .linalg import row_hnf
from .padic import (jacobi, line_key, line_multiple, pivot, pval, punit,
                    square_form_jordan)

#: cap on the q^2 characters of one I0 at odd p, kept so that no request
#: changes its verdict: it no longer bounds memory, as the class sum keeps
#: one entry per unit class, about q (p + 1) / (p - 1) of them
_CHARACTER_CAP = 10 ** 7
#: cap on the q^4 terms of one slot of the pair sum at p = 2
_PAIR_CAP = 10 ** 7


# ---------------------------------------------------------------------------
# The constrained local integral I0
# ---------------------------------------------------------------------------


def _slot_box(delta, p, vd):
    """(rows, radii) of the closed-form box key of adj(delta) X mod p^vd
    (module docstring), as rows against flat(X): r X mod p^b, one per
    column of X, then row j of X mod p^(b-w)."""
    adj = adj_flat(delta)
    i, a = pivot(adj, p, vd)  # a unit entry of E', in its first such row
    e = [t % p ** vd // p ** a for t in adj]
    b = vd - a
    w = pval((e[0] * e[3] - e[1] * e[2]) % p ** b, p, cap=b)
    r0, r1 = e[i & 2], e[(i & 2) + 1]
    j = 2 - 2 * (i & 1)  # flat index of the first entry of row j
    return ([(r0, 0, r1, 0), (0, r0, 0, r1), FLAT_UNITS[j], FLAT_UNITS[j + 1]],
            (p ** b,) * 2 + (p ** (b - w),) * 2)


def _class_representatives(radii, p):
    """[(a, o)]: one a of order p^o per unit class {c a : c unit mod p^o}
    of B = sum_k Z/radii[k], radii powers of p, zero first (module
    docstring); classes that do not add up to |B| are a VerificationError."""
    b = [pval(r, p) for r in radii]
    reps = [((0,) * len(b), 0)]
    for o in range(1, max(b) + 1):
        for i in (i for i, bi in enumerate(b) if bi >= o):
            # before the pivot order below p^o, after it at most p^o
            choices = [range(0, r, p ** max(0, bk - o + (k < i)))
                       for k, (r, bk) in enumerate(zip(radii, b))]
            choices[i] = (p ** (b[i] - o),)
            reps += ((a, o) for a in itertools.product(*choices))
    if sum((p - 1) * p ** (o - 1) if o else 1 for _, o in reps) != (
            math.prod(radii)):
        raise VerificationError(f"unit classes do not cover the box {radii}")
    return reps


@functools.lru_cache(maxsize=16)
def _class_table(delta, p, v, coeffs):
    """(|B|, classes) at odd p, q = p^v, for the slot units coeffs mod q:
    per unit class of characters (`_class_representatives`), p^(min w_j),
    per slot the rows (E^T row j, p^(w_j), -(4 c_i u_j)^-1 p^(w_j)) of Phi,
    largest w_j first, base, o, p^(v-o) and n m mod 2 (module docstring),
    by ascending p^(min w_j). Cached per (delta tuple, p, v, coeffs)."""
    q, n = p ** v, len(coeffs)
    rows, radii = _slot_box(delta, p, v)
    classes = []
    for a, o in _class_representatives(radii, p):
        e, w, u, odd, base = square_form_jordan(
            [sum(x * (q // r) * row[k] for x, r, row in zip(a, radii, rows))
             for k in range(4)], p, v, coeffs)
        order = sorted(range(4), key=lambda j: -w[j])
        slots = tuple(tuple((*(e[k][j] for k in range(4)), p ** w[j],
                             -pow(4 * c * u[j], -1, q) * p ** w[j] % q)
                            for j in order) for c in coeffs)
        classes.append((p ** min(w), slots, base, o, p ** (v - o),
                        n * len(odd) % 2))
    classes.sort(key=lambda c: c[0])
    return math.prod(radii), tuple(classes)


def _unit_sum(x, p, o, odd):
    """sum over units c mod p^o of e(c x / p^o), at odd times (c/p) and g1
    (module docstring): the Ramanujan sum c_{p^o}(x), or p* p^(o-1) (x'/p)
    when x = p^(o-1) x' with p not dividing x', else 0; 1 at o = 0."""
    if o == 0:
        return 1
    top = p ** (o - 1)
    if x % top:
        return 0
    x //= top
    if odd:
        return (p if p % 4 == 1 else -p) * top * jacobi(x, p)
    return (p - 1) * top if x % p == 0 else -top


def _class_sum(classes, t, p, v):
    """q^(4n) |B| I0 from the class table for the phase rows t, one per
    slot: each class whose s_ij = (E^T t_i)_j are all divisible by p^(w_j)
    adds base times `_unit_sum` of its Phi (module docstring). As E is
    invertible, that needs p^(min w_j) | t: the sum stops past gcd(t, q)."""
    q, total = p ** v, 0
    content = math.gcd(q, *itertools.chain(*t))
    for guard, slots, base, o, div, odd in classes:
        if guard > content:
            break
        phi = 0
        for (t0, t1, t2, t3), rows in zip(t, slots):
            for r0, r1, r2, r3, pw, coef in rows:
                s = (r0 * t0 + r1 * t1 + r2 * t2 + r3 * t3) % q
                if s % pw:
                    break
                phi += coef * (s // pw) ** 2
            else:
                continue
            break  # a row of this slot kills the class
        else:
            total += base * _unit_sum(phi % q // div, p, o, odd)
    return total


def _characters(delta, p, v):
    """l_a mod q = p^v for every a in the box, in C order: (|B|, 4) int64."""
    import numpy as np

    q = p ** v
    rows, radii = _slot_box(delta, p, v)
    a = np.indices(radii).reshape(4, -1).T * (q // np.array(radii))
    return a @ (np.array(rows, dtype=np.int64) % q) % q


def _pair_histograms(ell, t, p, v):
    """hist with G(l_a, t) = q p^w sum_e hist[a, e] zeta_q^e for each row
    l_a of ell, w = v_p(l_a0 + l_a3) capped at v, at any p: (y0, y3) runs
    as (y0, z = y0 + y3), z fixes b, g and y*, and y0 adds k y0^2 +
    (t0 - t3 - 2 l3 z) y0. Under the cap q <= 56 a key stays below 3 q^3."""
    import numpy as np

    q = p ** v
    kappa = (ell[:, 0] + ell[:, 3]) % q
    pw = np.gcd(kappa, q)  # p^w
    inverses = np.array([pow(x, -1, q) if x % p else 0 for x in range(q)])
    kinv = inverses[kappa // pw % q]
    z = np.arange(q)
    beta = (ell[:, 1:2] * z + t[1]) % q
    gam = (ell[:, 2:3] * z + t[2]) % q
    a, z = np.nonzero((beta % pw[:, None] == 0) & (gam % pw[:, None] == 0))
    ystar = -(beta[a, z] // pw[a]) * kinv[a] % (q // pw[a])
    const = (ell[a, 3] * z * z + t[3] * z + gam[a, z] * ystar) % q
    lin = (t[0] - t[3] - 2 * ell[a, 3] * z) % q
    y0 = np.arange(q, dtype=np.int32)
    table = (y0[:, None, None] * y0 * y0 + y0[:, None] * y0) % q  # k, lin
    key = table[kappa[a], lin] + (a * 2 * q + const).astype(np.int32)[:, None]
    hist = np.bincount(key.ravel(), minlength=len(ell) * 2 * q)
    return hist.reshape(-1, 2, q).sum(axis=1)  # phases below 2 q, folded


def _pair_row(delta, t, p, v, coeffs):
    """The row with I0 = row(zeta_q) / p^((4n + 2) v) for the phase rows t,
    one per slot: per character the cyclic convolution of its slots' pair
    histograms (in their `algebra.count_dtype`), times (q p^w)^n, as a
    unit coefficient keeps w."""
    import numpy as np

    q = p ** v
    ell = _characters(delta, p, v)
    diff, acc = np.subtract.outer(np.arange(q), np.arange(q)) % q, None
    for c, ti in zip(coeffs, t):
        hist = _pair_histograms(c * ell % q, ti, p, v)
        if acc is not None:
            dtype = count_dtype(acc, int(acc.sum(axis=1).max()),
                                hist, int(hist.sum(axis=1).max()))
            hist = (acc.astype(dtype)[:, None, :]
                    * hist.astype(dtype)[:, diff]).sum(axis=2)
        acc = hist
    pw = np.gcd(ell[:, 0] + ell[:, 3], q)  # p^w
    return sum(acc[pw == p ** w].sum(axis=0, dtype=object)
               * (q * p ** w) ** len(t) for w in range(v + 1))


def _trace_row(g, q, unit=1):
    """The row t with unit * tr(g Y) = t . flat(Y) mod q."""
    return tuple(unit * int(g[t]) % q for t in (0, 2, 1, 3))


def i0_local(delta, gammas, p, coeffs=None):
    """Exact I0(delta, gamma) as a Fraction for one gamma tuple (n flat
    matrices) at a flat integer delta with det delta != 0, averaged over
    Y mod p^v, v = v_p(det delta); coeffs: optional unit coefficients of
    the squares. The class sum at odd p, the pair sum at p = 2. Refuses
    q^2 > `_CHARACTER_CAP` at odd p and q^4 > `_PAIR_CAP` at p = 2
    (BudgetError) before any table."""
    det = det_flat(delta)
    if det == 0:
        raise PreconditionError("delta must be invertible over the fractions")
    vd = pval(det, p)
    coeffs = [1] * len(gammas) if coeffs is None else coeffs
    if len(gammas) != len(coeffs):
        raise PreconditionError("need one coefficient per slot")
    if vd == 0 or not coeffs:
        return Fraction(1)
    if any(c % p == 0 for c in coeffs):
        raise PreconditionError("slot coefficients must be units")
    q, n = p ** vd, len(coeffs)
    if p == 2 and q ** 4 > _PAIR_CAP or q * q > _CHARACTER_CAP:
        raise BudgetError(f"I0 at q = {q} exceeds budget")
    inv_u = pow(punit(det, p, p ** (vd + 1)), -1, q)
    t = [_trace_row(g, q, inv_u) for g in gammas]
    coeffs = tuple(c % q for c in coeffs)
    if p == 2:
        val = CycloSum(p, vd, _pair_row(delta, t, p, vd, coeffs),
                       (4 * n + 2) * vd)
        if not val.is_rational():
            raise VerificationError(f"I0 at q = {q} is not rational")
        return val.to_fraction()
    size, classes = _class_table(tuple(delta), p, vd, coeffs)
    return Fraction(_class_sum(classes, t, p, vd), q ** (4 * n) * size)


# ---------------------------------------------------------------------------
# Cyclic image generator and the auxiliary measure
# ---------------------------------------------------------------------------

def matrix_cyclic_generator(eta, p):
    """(gen_flat, m): gen = (-r1, r0) x r generates the cyclic image of
    Y -> adj(eta) Y eta in M_2(Z/m), m = p^v_p(det eta), for primitive eta
    and r its row holding the pivot entry (module docstring)."""
    v = pval(det_flat(eta), p)
    m = p ** v
    i, k = pivot(eta, p, v)
    if k:
        raise PreconditionError("eta must be primitive")
    r0, r1 = eta[i & 2], eta[(i & 2) + 1]
    return tuple(t % m for t in (-r1 * r0, -r1 * r1, r0 * r0, r0 * r1)), m


def _right_image(b, m):
    """The distinct w = Z b over all Z mod m, as flat 4-tuples: the
    enumeration from which `w_class_sum_report` reads the witness classes.

    Z -> Z b is Z/m-linear, so the image is L / m Z^4 for the lattice L
    spanned by the rows flat(e_j b), e_j the flat units, and m I. Its
    upper-triangular Hermite basis H has pivots d_i dividing m, and the
    image is {c H mod m : 0 <= c_i < m / d_i}, each element once, built
    one row of H at a time."""
    rows = [mat_mul_flat(e, b, m) for e in FLAT_UNITS]
    rows += [tuple(m * t for t in e) for e in FLAT_UNITS]
    image = [(0, 0, 0, 0)]
    for i, h in enumerate(row_hnf(rows)[:4]):
        h0, h1, h2, h3 = h
        image = [((w0 + c * h0) % m, (w1 + c * h1) % m, (w2 + c * h2) % m,
                  (w3 + c * h3) % m)
                 for c in range(m // h[i]) for w0, w1, w2, w3 in image]
    return image


def _measure(target, gen, m, p):
    """Volume of {Z mod m : target lies in (Z/m) * Z gen + m O}, m = p^v,
    in closed form (module docstring). Refuses a gen with no unit entry or
    with det(gen) != 0 mod m, where the formula does not hold."""
    v = pval(m, p)
    i, k = pivot(gen, p, v)
    if k or det_flat(gen) % m:
        raise PreconditionError(
            f"measure needs a primitive generator of rank one mod {m}")
    r = gen[i & 2:(i & 2) + 2]
    c = [line_multiple(target[j:j + 2], r, p, v) for j in (0, 2)]
    if None in c:
        return Fraction(0)
    return _volume(pivot(c, p, v)[1], p, v)


def _volume(s, p, v):
    """The witness measure of a target c_t x r mod m = p^v at
    s = v_p(c_t), capped at v (module docstring)."""
    if s == v:
        return Fraction(1)
    return Fraction((p - 1) * p ** (v - s - 1) * (p ** (2 * s + 2) - 1),
                    (p * p - 1) * p ** (2 * v))


def w_class_sum_report(eta, p):
    """Sum of the measure factor over all witness classes, the targets
    Z eta mod m (`_right_image`) up to unit multiples, each named by its
    `line_key`; the structural bound is v + 1, v = v_p(det eta). Returns
    (classes, total, bound). By the closed form of `_measure` there are
    exactly 1 + (p + 1)(p^v - 1)/(p - 1) classes, and the total is
    v + 1 - (p^(2v) - 1)/(p^(2v) (p^2 - 1)), below the bound at v > 0."""
    gen, m = matrix_cyclic_generator(eta, p)
    v = pval(det_flat(eta), p)
    classes = {line_key(t, p, v) for t in _right_image(eta, m)}
    total = sum((_measure(t, gen, m, p) for t in classes), Fraction(0))
    return len(classes), total, v + 1


# ---------------------------------------------------------------------------
# Witnesses and the magnitude bound
# ---------------------------------------------------------------------------


def split_primitive_part(delta, p):
    """delta = p^v * eta with eta primitive; returns (v, eta_flat)."""
    v = min(pval(t, p, cap=64) for t in delta)
    if v >= 64:
        raise PreconditionError("delta is zero")
    return v, tuple(t // p ** v for t in delta)


def witness_report(delta, gammas, p):
    """Search for witnesses (M0, mu) with gamma'_j eta = mu_j M0 eta mod m,
    mu primitive. Returns dict with 'witnesses' (class key -> (measure, mu))
    and 'bound_sq' (min over witnesses of the squared magnitude bound), or
    witnesses = {} when none exist.

    A nonzero class is the unit class of a slot t = gamma'_i eta that
    spans every slot; two such slots span one cyclic group, so they differ
    by a unit. A spanning slot has the least valuation, and every slot of
    that valuation is a unit multiple of it: the first slot of least
    valuation is the one candidate (0 mod m, the zero witness, when every
    slot is)."""
    n = len(gammas)
    vdel, eta = split_primitive_part(delta, p)
    veta = pval(det_flat(eta), p)
    m = p ** veta
    # support condition: gamma must be divisible by p^vdel
    if any(t % p ** vdel for g in gammas for t in g):
        return {"supported": False, "witnesses": {}, "bound_sq": None}
    gprime = [tuple(t // p ** vdel for t in g) for g in gammas]
    ge = [mat_mul_flat(g, eta, m) for g in gprime]
    vals = [pivot(t, p, veta)[1] for t in ge]
    i = vals.index(min(vals))
    mu = [line_multiple(t, ge[i], p, veta) for t in ge]
    witnesses, bound_sq = {}, None
    if None not in mu:
        mu[i] = 1  # slot i is 1 * itself, or the zero witness has mu = e_i
        wm = _volume(vals[i], p, veta)  # c_t has the valuation of slot i
        witnesses[line_key(ge[i], p, veta)] = (wm, tuple(mu))
        bound_sq = _bound_sq(gprime, eta, vdel, veta, wm, p, n)
    return {"supported": True, "witnesses": witnesses, "bound_sq": bound_sq}


def _bound_sq(gprime, eta, vdel, veta, wm, p, n):
    """Squared magnitude bound
    (W * |det eta|^{3n/2} ||delta||^n
       / (max(||(g'-g'^+)eta||, |det eta|)^{n/2} max(||g'||, ||delta|| |det eta|)^n))^2
    as an exact Fraction (p-adic absolute values)."""
    cap = veta + vdel + 1
    v_b = min((pval(t, p, cap=cap)
               for g in gprime
               for t in mat_mul_flat(tuple(a - b for a, b in zip(g, adj_flat(g))),
                                     eta)), default=cap)
    v_gp = min((pval(t, p, cap=cap) for g in gprime for t in g), default=cap)
    e = (-3 * n * veta - 2 * n * vdel
         + n * min(v_b, veta) + 2 * n * min(v_gp, vdel + veta))
    return wm * wm * Fraction(p) ** e


def cyclo_abs_sq(v):
    """|v|^2 of a Fraction or a CycloSum, as an exact Fraction when
    rational else a float."""
    if isinstance(v, Fraction):
        return v * v
    sq = (v * v.conjugate()).canonical()
    return sq.to_fraction() if sq.is_rational() else sq.magnitude()


def local_integral_audit(p, n, vds=(1, 2), max_gammas=200, seed=0):
    """Audit the support, witness, and magnitude-bound laws of i0_local.

    For each test delta with v_p(det) in `vds`, a subset of {1, 2} (any
    other level is refused before any work, PreconditionError), iterate
    over gamma tuples mod det-level (exhaustively when the space is small,
    else seeded samples), and verify:
      * out-of-support gammas give exactly zero;
      * a nonzero value implies a witness exists;
      * |I0|^2 <= best witness bound squared, on exact Fractions;
      * the class-sum bound for the measure factors.
    Raises VerificationError on any failure; returns a summary dict."""
    if any(vd not in (1, 2) for vd in vds):
        raise PreconditionError(f"audit levels must be 1 or 2, not {vds}")
    rng = random.Random(seed)
    report = {"p": p, "n": n, "checked": 0, "nonzero": 0, "cases": []}
    for vd in vds:
        for delta in _audit_deltas(p, vd):
            vdel, eta = split_primitive_part(delta, p)
            ncls, total, bound = w_class_sum_report(eta, p)
            if total > bound:
                raise VerificationError(
                    f"class sum {total} exceeds {bound} for eta={eta}")
            level = p ** vd
            if level ** (4 * n) <= 10 ** 4:
                batch = list(itertools.product(
                    itertools.product(range(level), repeat=4), repeat=n))
            else:
                batch = [
                    tuple(tuple(rng.randrange(level) * rng.choice([1, p ** vdel])
                                for _ in range(4)) for _ in range(n))
                    for _ in range(max_gammas)]
            count = nz = 0
            for gammas in batch:
                val = i0_local(delta, gammas, p)
                rep = witness_report(delta, list(gammas), p)
                count += 1
                if not val:
                    continue
                if not rep["supported"]:
                    raise VerificationError(
                        f"support law failed: delta={delta} gammas={gammas}")
                nz += 1
                if not rep["witnesses"]:
                    raise VerificationError(
                        f"witness law failed: delta={delta} gammas={gammas}")
                bsq, isq = rep["bound_sq"], cyclo_abs_sq(val)
                if isq > bsq:
                    raise VerificationError(
                        f"magnitude bound failed: delta={delta} "
                        f"gammas={gammas} |I0|^2={isq} bound^2={bsq}")
            report["checked"] += count
            report["nonzero"] += nz
            report["cases"].append(
                {"delta": delta, "vd": vd, "checked": count, "nonzero": nz})
    return report


def _audit_deltas(p, vd):
    if vd == 1:
        return [(p, 0, 0, 1), (1, 1, 1 - p, 1)]  # second: unit-conjugate-like
    return [(p * p, 0, 0, 1), (p, 0, 0, p), (p, 1, 0, p)]


# ---------------------------------------------------------------------------
# Prime-level point counts and identities
# ---------------------------------------------------------------------------


def x2_count(q, s):
    """#{a in F_q^n : sum a_i^2 = sum s_i a_i = 0} for s an n-vector."""
    return sum(1 for a in itertools.product(range(q), repeat=len(s))
               if sum(x * x for x in a) % q == 0
               and sum(c * x for c, x in zip(s, a)) % q == 0)


def s2_closed(q, n):
    return q ** (3 * n - 2) * (q ** n - 1) + q ** (2 * n) * x2_count(q, [0] * n)


def s2_count(q, n):
    """S2 = #{Y in M_2(F_q)^n : adj(delta) sum Y_i^2 = 0} = q^(4n) I0(delta, 0)
    at delta = diag(q, 1)."""
    return int(i0_local((q, 0, 0, 1), [(0, 0, 0, 0)] * n, q) * q ** (4 * n))


def _prime_level(q, n, gamma_list):
    """(S3, I0) at delta = diag(q, 1), q prime, for each gamma tuple, with
    S3 = #{Y : adj(delta) sum Y_i^2 = 0, sum tr(gamma_i Y_i) = 0 mod q} =
    q^(4n-1) sum_{lam mod q} I0(delta, lam gamma) by Fourier inversion (the
    phase unit is 1), which must be an integer (VerificationError)."""
    out = []
    for gammas in gamma_list:
        vals = [i0_local((q, 0, 0, 1), [[lam * x for x in g] for g in gammas],
                         q, [1] * n) for lam in range(q)]
        s3 = sum(vals) * q ** (4 * n - 1)
        if s3.denominator != 1:
            raise VerificationError("S3 by Fourier inversion is no integer")
        out.append((int(s3), vals[1]))
    return out


def s3_closed(q, n, gammas):
    """The exact case-by-case formula for S3 at delta = diag(q, 1), q prime.

    gammas are the n flat matrices mod q; each gamma_i = [[s_i, u_i],
    [t_i, v_i]]. The residual point counts in the formula live in at most
    n+1 variables: the zeros of linear forms are counted in closed form
    (`_linear_zeros`), the quadrics directly.
    """
    s, u, t, v = ([g[k] % q for g in gammas] for k in range(4))
    x20 = x2_count(q, [0] * n)
    total = 0
    if any(u) or any(v):
        total += q ** (2 * n - 1) * x20 + q ** (3 * n - 3) * (q ** n - q)
    if any(u):
        if line_multiple(v, u, q, 1) is None:
            total += q ** (3 * n - 3) * (q - 1)
        else:
            cnt = _count_quadric_al(q, n, s, v, t, u)
            total += q ** (2 * n - 2) * (cnt - x20)
    elif any(v):
        sv = [(s[i] - v[i]) % q for i in range(n)]
        tv = sum(t[i] * v[i] for i in range(n)) % q
        total += q ** (2 * n - 2) * (_linear_zeros(q, sv + [tv])
                                     - _linear_zeros(q, sv))
    else:
        x2s = x2_count(q, s)
        total += q ** (2 * n) * x2s + q ** (2 * n - 2) * (
            _linear_zeros(q, s + t) - _linear_zeros(q, s))
    return total


def _linear_zeros(q, coeffs):
    """#{x in F_q^N : sum c_i x_i = 0}, N = len(coeffs), q prime: q^(N-1)
    for a nonzero form, q^N for the zero form."""
    return q ** (len(coeffs) - any(c % q for c in coeffs))


def _count_quadric_al(q, n, s, v, t, u):
    """#{(a, lambda): sum a_i^2 = sum (s_i - v_i) a_i lambda + t_i u_i lambda^2}."""
    tu = sum(ti * ui for ti, ui in zip(t, u))
    return sum(1 for lam in range(q)
               for a in itertools.product(range(q), repeat=n)
               if (sum(x * x for x in a) - tu * lam * lam - lam * sum(
                   (si - vi) * x for si, vi, x in zip(s, v, a))) % q == 0)


def prime_case_report(q, n, num_gamma=500, seed=0):
    """Exact prime-level identities. Raises VerificationError on failure."""
    rng = random.Random(seed)
    delta = (q, 0, 0, 1)
    s2b = s2_count(q, n)  # q^{4n} I0(delta, 0)
    if s2b != s2_closed(q, n):
        raise VerificationError("closed S2 formula mismatch")
    report = {"q": q, "n": n, "checked": 0, "case_histogram": {}, "s2": s2b}

    # make sure all structural cases appear: targeted gammas + random ones
    forced = _forced_case_gammas(q, n)
    gammas_seen = [forced.pop() if forced else tuple(
        tuple(rng.randrange(q) for _ in range(4)) for _ in range(n))
        for _ in range(num_gamma)]
    for g, (s3, val) in zip(gammas_seen, _prime_level(q, n, gammas_seen)):
        s3c = s3_closed(q, n, g)
        if s3 != s3c:
            raise VerificationError(f"closed S3 mismatch at gamma={g}")
        # q^{4n} (1 - 1/q) I0 = S3 - S2/q, exactly
        if val * (q ** (4 * n) - q ** (4 * n - 1)) != s3c - Fraction(s2b, q):
            raise VerificationError(f"prime-level identity failed at gamma={g}")
        case = _case_label(q, g, delta)
        report["case_histogram"][case] = report["case_histogram"].get(case, 0) + 1
        report["checked"] += 1

    # symmetry under unit multiplications and homogeneity
    for _ in range(20):
        g = [[rng.randrange(q) for _ in range(4)] for _ in range(n)]
        a = rng.choice([1] + list(range(2, q)))
        val = i0_local(delta, g, q)
        if val != i0_local(delta, [[a * x % q for x in gi] for gi in g], q):
            raise VerificationError("scalar homogeneity failed")
        alpha, alpha_inv = _random_unit_pair(q, rng)
        beta = _random_unit_pair(q, rng)[0]
        d2 = mat_mul_flat(mat_mul_flat(alpha, delta), beta)
        g2 = [mat_mul_flat(mat_mul_flat(alpha, tuple(gi)), alpha_inv) for gi in g]
        if val != i0_local(d2, g2, q):
            raise VerificationError("unit symmetry failed")
    return report


def _forced_case_gammas(q, n):
    """One gamma per structural case of the closed formula."""
    zero = (0, 0, 0, 0)
    out = [tuple([(1, 0, 1, 0)] + [zero] * (n - 1)),        # u=v=0
           tuple([(0, 0, 1, 1)] + [zero] * (n - 1)),        # u=0, v!=0
           tuple([(1, 1, 1, 1)] + [zero] * (n - 1)),        # u!=0, v in line
           tuple([zero] * n)]                               # all zero
    if n >= 2:
        out.append(((0, 1, 0, 0), (0, 0, 0, 1)))        # v not in F_q u
    return out


def _case_label(q, g, delta):
    """The (u, v) case of the closed S3 formula at gamma = g, after checking
    that its indicators agree with their invariant reformulations."""
    u, v = [x[1] % q for x in g], [x[3] % q for x in g]
    gd = [mat_mul_flat(tuple(x), delta) for x in g]
    dga = [mat_mul_flat(adj_flat(delta), t) for t in gd]
    gd_zero = all(all(t % q == 0 for t in m) for m in gd)
    dgd_zero = all(all(t % q == 0 for t in m) for m in dga)
    if ((not any(u) and not any(v)) != gd_zero):
        raise VerificationError("indicator identity (u=v=0) failed")
    if ((not any(u)) and any(v)) != (dgd_zero and not gd_zero):
        raise VerificationError("indicator identity (u=0, v!=0) failed")
    if not any(u):
        return "u=0,v!=0" if any(v) else "u=v=0"
    # gd lies on one line c_i * M: each is a multiple of the first nonzero one
    base = next((m for m in gd if any(t % q for t in m)), gd[0])
    in_line = line_multiple(v, u, q, 1) is not None
    scalar_line = all(line_multiple(m, base, q, 1) is not None for m in gd)
    if in_line != (scalar_line and not dgd_zero):
        raise VerificationError("indicator identity (u!=0 cases) failed")
    return "u!=0,v in line" if in_line else "u!=0,v off line"


def _random_unit_pair(q, rng):
    while True:
        m = tuple(rng.randrange(q) for _ in range(4))
        d = det_flat(m) % q
        if d:
            return m, tuple(x * pow(d, -1, q) % q for x in adj_flat(m))
