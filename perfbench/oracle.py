"""Reference values computed apart from qcl, and readers for its output.

Nothing here imports qcl. Each function either recomputes a quantity by a
different route (direct enumeration, complex-valued character sums, Python
integer convolution) or states a property the method must have.
"""

import cmath
import math
from fractions import Fraction

import numpy as np


def frac(obj):
    """An exact rational from the CLI's {"num", "den"} encoding, or from a
    decimal string where the program produced an int (an empty sum)."""
    if isinstance(obj, str):
        return Fraction(int(obj))
    return Fraction(int(obj["num"]), int(obj["den"]))


def cyclo_complex(obj):
    """Complex value of a CLI cyclotomic field: a rational pair, or
    p^-scale * sum counts[r] e(r / p^k)."""
    if "num" in obj:
        return complex(frac(obj))
    pk = int(obj["p"]) ** int(obj["k"])
    acc = sum(int(c) * cmath.exp(2j * math.pi * int(r) / pk)
              for r, c in obj["counts"].items())
    return acc / int(obj["p"]) ** int(obj["scale"])


def is_exact_zero(obj):
    return "num" in obj and int(obj["num"]) == 0


# ---------------------------------------------------------------------------
# delta: the zero-shift count is a closed form in sigma_odd


def sigma_odd(n):
    return sum(d for d in range(1, n + 1, 2) if n % d == 0)


def phi2(t):
    """The default radial profile t (1 - t)^3 on [0, 1]."""
    return t * (1 - t) ** 3 if 0 <= t <= 1 else Fraction(0)


def zero_shift_difference(Q):
    """sum_{n <= Q^2} r(n) phi2(n / Q^2) with r(n) = 24 sigma_odd(n), the
    number of Hurwitz-order elements of reduced norm n."""
    q2 = Q * Q
    return sum(24 * sigma_odd(n) * phi2(Fraction(n, q2))
               for n in range(1, q2 + 1))


# ---------------------------------------------------------------------------
# densities: exact convolution of Y^2 over M_2(Z/q) in Python integers


def _square_distribution(q):
    dist = {}
    for a in range(q):
        for b in range(q):
            for c in range(q):
                for d in range(q):
                    bc = b * c
                    key = ((a * a + bc) % q, b * (a + d) % q,
                           c * (a + d) % q, (d * d + bc) % q)
                    dist[key] = dist.get(key, 0) + 1
    return dist


def _convolve(x, y, q):
    out = {}
    for kx, cx in x.items():
        for ky, cy in y.items():
            k = ((kx[0] + ky[0]) % q, (kx[1] + ky[1]) % q,
                 (kx[2] + ky[2]) % q, (kx[3] + ky[3]) % q)
            out[k] = out.get(k, 0) + cx * cy
    return out


def split_density(q, n):
    """q^4 #{Y in M_2(Z/q)^n : sum Y_i^2 = 0} / q^{4n}, exactly."""
    base = _square_distribution(q)
    acc, power, e = None, base, n
    while e:
        if e & 1:
            acc = power if acc is None else _convolve(acc, power, q)
        e >>= 1
        if e:
            power = _convolve(power, power, q)
    mass = sum(acc.values())
    if mass != q ** (4 * n):
        raise AssertionError("reference convolution lost mass")
    return Fraction(acc.get((0, 0, 0, 0), 0), q ** (4 * (n - 1)))


# ---------------------------------------------------------------------------
# expsums: the constrained integral as a complex character sum


def pval(x, p):
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def supported(delta, gammas, p):
    """The support law: gamma must be divisible by p^v, delta = p^v eta."""
    vdel = min(pval(t, p) if t else 64 for t in delta)
    return all(t % p ** vdel == 0 for g in gammas for t in g)


def i0_complex(delta, gammas, p):
    """avg over Y in M_2(Z/q)^n of [adj(delta) sum Y_i^2 = 0 mod q] *
    e(u^-1 sum tr(gamma_i Y_i) / q), q = p^v_p(det delta), u the unit part
    of det delta; evaluated as per-key complex sums joined across slots."""
    a, b, c, d = delta
    det = a * d - b * c
    v = pval(det, p)
    q = p ** v
    if v == 0:
        return 1.0 + 0j
    inv_u = pow((det // p ** v) % q, -1, q)
    y = np.indices((q,) * 4, dtype=np.int64).reshape(4, -1)
    y0, y1, y2, y3 = y
    bc = y1 * y2
    s = (y0 * y0 + bc, y1 * (y0 + y3), y2 * (y0 + y3), y3 * y3 + bc)
    # adj(delta) S with adj = [[d, -b], [-c, a]]
    cond = ((d * s[0] - b * s[2]) % q, (d * s[1] - b * s[3]) % q,
            (-c * s[0] + a * s[2]) % q, (-c * s[1] + a * s[3]) % q)
    keys = ((cond[0] * q + cond[1]) * q + cond[2]) * q + cond[3]
    neg = ((((-cond[0]) % q * q + (-cond[1]) % q) * q + (-cond[2]) % q) * q
           + (-cond[3]) % q)
    sums = []
    for g in gammas:
        phase = (g[0] * y0 + g[2] * y1 + g[1] * y2 + g[3] * y3) * inv_u % q
        w = np.exp(2j * np.pi * phase / q)
        sums.append(np.bincount(keys, weights=w.real, minlength=q ** 4)
                    + 1j * np.bincount(keys, weights=w.imag, minlength=q ** 4))
    if len(gammas) == 1:
        total = sums[0][0]
    else:
        # pair each key of slot 1 with the negated key of slot 2
        neg_of_key = np.zeros(q ** 4, dtype=np.int64)
        neg_of_key[keys] = neg
        total = np.sum(sums[0] * sums[1][neg_of_key])
    return complex(total) / q ** (4 * len(gammas))


# ---------------------------------------------------------------------------
# padic: the normalized quadratic sum by direct summation


def gauss_complex(p, va, vt, vxi, ua, ut, uxi, xi_zero):
    """p^-vt sum_{y mod p^vt} e((a y^2 + xi y) / t)."""
    pm = p ** vt
    if vt == 0:
        return 1.0 + 0j
    a = ua * p ** va
    xi = 0 if xi_zero else uxi * p ** vxi
    inv_ut = pow(ut, -1, pm)
    return sum(cmath.exp(2j * math.pi * ((a * y * y + xi * y) * inv_ut % pm)
                         / pm) for y in range(pm)) / pm


# ---------------------------------------------------------------------------
# lattices: closed form for primitive representation numbers


def rep_formula(m):
    """Primitive norm-m elements of the Hurwitz order up to units: 0 when
    4 | m, else prod over odd p^v || m of p^v + p^(v-1)."""
    if m % 4 == 0:
        return 0
    out, mm, p = 1, m, 3
    while mm % 2 == 0:
        mm //= 2
    while p * p <= mm:
        if mm % p == 0:
            v = 0
            while mm % p == 0:
                v += 1
                mm //= p
            out *= p ** v + p ** (v - 1)
        p += 2
    if mm > 1:
        out *= mm + 1
    return out


# ---------------------------------------------------------------------------
# counting: direct enumeration on the smallest box


def box_square_values(sign):
    """sign * 4 g^2, in true coordinates, over the height-1 Hurwitz box
    (doubled coordinates all even or all odd, each at most 2)."""
    evens, odds = (-2, 0, 2), (-1, 1)
    out = []
    for par in (evens, odds):
        for c0 in par:
            for c1 in par:
                for c2 in par:
                    for c3 in par:
                        out.append((sign * (c0 * c0 - c1 * c1 - c2 * c2
                                            - c3 * c3),
                                    sign * 2 * c0 * c1, sign * 2 * c0 * c2,
                                    sign * 2 * c0 * c3))
    return out


def count_height_one(signs):
    """#{(g_1..g_n) in the height-1 box : sum sign_i g_i^2 = 0}."""
    acc = {(0, 0, 0, 0): 1}
    for s in signs[:-1]:
        nxt = {}
        for v in box_square_values(s):
            for k, c in acc.items():
                key = (k[0] + v[0], k[1] + v[1], k[2] + v[2], k[3] + v[3])
                nxt[key] = nxt.get(key, 0) + c
        acc = nxt
    return sum(acc.get((-v[0], -v[1], -v[2], -v[3]), 0)
               for v in box_square_values(signs[-1]))
