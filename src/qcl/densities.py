"""Local solution densities for the sum-of-slotwise-squares equation
P(Y) = sum_i c_i Y_i^2 = 0 over 2x2 matrix rings (split places), over the
ramified quaternion order (nonsplit places), and over the reals.

Finite-place densities are exact rationals computed by convolving the
per-slot distribution of Y^2 over the relevant finite quotient group and
reading off the mass at zero. The archimedean density is a seeded,
shard-deterministic Monte Carlo estimate.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from . import DEFAULT_SEED
from .algebra import (HQ_BASIS, HurwitzQuat, NonsplitLocalElem,
                      hq_from_basis_coords, hq_to_basis_coords)
from .errors import BudgetError, PreconditionError, VerificationError
from .expsums import all_mats, mat_square_flat
from .linalg import reduce_mod_hnf, row_hnf

# ---------------------------------------------------------------------------
# Exact convolution over a finite abelian group in mixed-radix coordinates
# ---------------------------------------------------------------------------


class QuotientGroup:
    """Z^k modulo a full-rank lattice with upper-triangular HNF basis.

    Elements are represented by the mixed-radix box over the diagonal;
    addition reduces back into the box, which handles non-diagonal bases
    (componentwise addition would be wrong there).
    """

    def __init__(self, hnf):
        self.h = [list(r) for r in hnf]
        self.k = len(self.h)
        self.radii = [self.h[i][i] for i in range(self.k)]
        self.order = 1
        for r in self.radii:
            self.order *= r
        w = [1] * self.k
        for i in range(self.k - 2, -1, -1):
            w[i] = w[i + 1] * self.radii[i + 1]
        self.weights = np.array(w, dtype=np.int64)
        idx = np.arange(self.order, dtype=np.int64)
        digs = []
        for i in range(self.k):
            digs.append(idx // w[i] % self.radii[i])
        self.digits = np.stack(digs, axis=1)  # (G, k) box representatives
        self._neg = None

    @classmethod
    def diagonal(cls, radii):
        k = len(radii)
        return cls([[radii[i] if i == j else 0 for j in range(k)]
                    for i in range(k)])

    def reduce(self, rows):
        """Vectorized canonical reduction of integer rows into the box."""
        v = np.array(rows, dtype=np.int64, copy=True)
        if v.ndim == 1:
            v = v[None, :]
        for i in range(self.k):
            q = v[:, i] // self.h[i][i]
            hi = np.array(self.h[i][i:], dtype=np.int64)
            v[:, i:] -= q[:, None] * hi[None, :]
        return v

    def pack(self, rows):
        return self.reduce(rows) @ self.weights

    def neg_perm(self):
        if self._neg is None:
            self._neg = self.pack(-self.digits)
        return self._neg


def group_convolve(a, b, grp, budget=4 * 10 ** 9):
    """Exact convolution of two int64 mass arrays over the quotient group."""
    support = np.nonzero(a)[0]
    if len(support) * grp.order > budget:
        raise BudgetError("convolution exceeds budget")
    c = np.zeros(grp.order, dtype=np.int64)
    for s in support:
        c[grp.pack(grp.digits + grp.digits[s])] += a[s] * b
    return c


def convolve_power_at_zero(dist, n, grp):
    """Mass at the identity of the n-fold convolution of `dist`, exactly.

    Balanced binary splitting; the final pairing is done in arbitrary
    precision to dodge int64 overflow.
    """
    if n == 1:
        return int(dist[0])
    half = n // 2
    left = _convolve_power(dist, half, grp)
    right = _convolve_power(dist, n - half, grp)
    neg = grp.neg_perm()
    return sum(int(left[i]) * int(right[neg[i]])
               for i in np.nonzero(left)[0])


def _convolve_power(dist, n, grp):
    if n == 1:
        return dist
    half = _convolve_power(dist, n // 2, grp)
    out = group_convolve(half, half, grp)
    if n % 2:
        out = group_convolve(dist, out, grp)
    return out


# ---------------------------------------------------------------------------
# Split local densities
# ---------------------------------------------------------------------------


def split_square_distribution(p, m, coeff=1):
    """Distribution of coeff * Y^2 over M_2(Z/p^m), as a packed mass array."""
    q = p ** m
    if q ** 4 > 10 ** 7:
        raise BudgetError("slot enumeration exceeds budget")
    y = all_mats(q)
    s = mat_square_flat(y, q) * (coeff % q) % q
    grp = QuotientGroup.diagonal([q] * 4)
    keys = grp.pack(s)
    return np.bincount(keys, minlength=q ** 4).astype(np.int64)


def split_density(p, m, n, coeffs=None):
    """d_m = p^{4m} * #{Y in M_2(Z/p^m)^n : sum c_i Y_i^2 = 0} / p^{4mn},
    as an exact Fraction."""
    if m < 1 or n < 1:
        raise PreconditionError("level and slot count must be positive")
    coeffs = coeffs or [1] * n
    if any(c % p == 0 for c in coeffs):
        raise PreconditionError("coefficients must be units")
    q = p ** m
    grp = QuotientGroup.diagonal([q] * 4)
    dists = {}
    if len(set(coeffs)) == 1:
        count = convolve_power_at_zero(
            split_square_distribution(p, m, coeffs[0]), n, grp)
    else:
        acc = None
        for c in coeffs:
            d = dists.setdefault(c % q, split_square_distribution(p, m, c))
            acc = d if acc is None else group_convolve(acc, d, grp)
        count = int(acc[0])
    return Fraction(count, q ** (4 * (n - 1)))


def split_density_exhaustive(p, m, n, coeffs=None, budget=10 ** 7):
    """Independent brute-force oracle for split_density (tiny cases)."""
    coeffs = coeffs or [1] * n
    q = p ** m
    if q ** (4 * n) > budget:
        raise BudgetError("exhaustive enumeration too large")
    count = 0
    for ys in itertools.product(range(q), repeat=4 * n):
        s = [0, 0, 0, 0]
        for i in range(n):
            a, b, c, d = ys[4 * i:4 * i + 4]
            sq = (a * a + b * c, b * (a + d), c * (a + d), d * d + b * c)
            for t in range(4):
                s[t] += coeffs[i] * sq[t]
        if all(t % q == 0 for t in s):
            count += 1
    return Fraction(count, q ** (4 * (n - 1)))


# ---------------------------------------------------------------------------
# Nonsplit local densities
# ---------------------------------------------------------------------------


def _hurwitz_level_lattice(m):
    """HNF basis (in integral-basis coordinates) of w^{2m-1} O for the
    ramified order at 2, where w = 1 + i is the uniformizer."""
    w = HurwitzQuat.from_true(1, 1, 0, 0)
    pw = HurwitzQuat.from_true(1, 0, 0, 0)
    for _ in range(2 * m - 1):
        pw = pw * w
    gens = [hq_to_basis_coords(pw * b) for b in HQ_BASIS]
    h, _, rank = row_hnf([list(g) for g in gens])
    if rank != 4:
        raise VerificationError("level lattice is degenerate")
    return [h[i] for i in range(4)]


def nonsplit_density_two(m, n, coeffs=None):
    """d_m at the ramified place 2: count Y in (O/w^{2m-1})^n with
    sum c_i Y_i^2 = 0 in the quotient, normalized by 2^{4m} / size^n."""
    if m < 1:
        raise PreconditionError("level must be positive")
    coeffs = coeffs or [1] * n
    if any(c % 2 == 0 for c in coeffs):
        raise PreconditionError("coefficients must be odd")
    h = _hurwitz_level_lattice(m)
    grp = QuotientGroup(h)
    size = grp.order
    if size ** 2 > 10 ** 9:
        raise BudgetError("quotient too large")
    # distribution of c * Y^2 over the quotient, one slot
    dist_by_coeff = {}
    for c in set(cc % 4 ** m for cc in coeffs):
        mass = np.zeros(size, dtype=np.int64)
        for rep in grp.digits:
            y = hq_from_basis_coords(rep)
            sq = y * y * int(c)
            idx = int(grp.pack(list(hq_to_basis_coords(sq)))[0])
            mass[idx] += 1
        dist_by_coeff[c] = mass
    if len(dist_by_coeff) == 1:
        count = convolve_power_at_zero(next(iter(dist_by_coeff.values())),
                                       n, grp)
    else:
        acc = None
        for c in coeffs:
            d = dist_by_coeff[c % 4 ** m]
            acc = d if acc is None else group_convolve(acc, d, grp)
        count = int(acc[0])
    return Fraction(2 ** (4 * m) * count, size ** n)


def nonsplit_density_odd(p, m, n, coeffs=None):
    """d_m at an odd nonsplit place: quotient coordinates are
    (z1, z2 mod p^m, z3, z4 mod p^{m-1})."""
    if p == 2:
        raise PreconditionError("use nonsplit_density_two at 2")
    if m < 1:
        raise PreconditionError("level must be positive")
    coeffs = coeffs or [1] * n
    if any(c % p == 0 for c in coeffs):
        raise PreconditionError("coefficients must be units")
    radii = [p ** m, p ** m, p ** (m - 1), p ** (m - 1)]
    grp = QuotientGroup.diagonal(radii)
    size = grp.order
    if size ** 2 > 10 ** 9:
        raise BudgetError("quotient too large")
    dist_by_coeff = {}
    for c in set(cc % p ** m for cc in coeffs):
        mass = np.zeros(size, dtype=np.int64)
        for z in itertools.product(*(range(r) for r in radii)):
            x = NonsplitLocalElem(z, p, m)
            sq = x * x * int(c)
            red = (sq.z[0] % radii[0], sq.z[1] % radii[1],
                   sq.z[2] % radii[2], sq.z[3] % radii[3])
            idx = 0
            for t in range(4):
                idx = idx * radii[t] + red[t]
            mass[idx] += 1
        dist_by_coeff[c] = mass
    if len(dist_by_coeff) == 1:
        count = convolve_power_at_zero(next(iter(dist_by_coeff.values())),
                                       n, grp)
    else:
        acc = None
        for c in coeffs:
            d = dist_by_coeff[c % p ** m]
            acc = d if acc is None else group_convolve(acc, d, grp)
        count = int(acc[0])
    return Fraction(p ** (4 * m) * count, size ** n)


def nonsplit_density_two_exhaustive(m, n, budget=10 ** 7):
    """Brute-force oracle for nonsplit_density_two (tiny cases)."""
    h = _hurwitz_level_lattice(m)
    radii = [h[i][i] for i in range(4)]
    size = radii[0] * radii[1] * radii[2] * radii[3]
    if size ** n > budget:
        raise BudgetError("exhaustive enumeration too large")
    reps = [hq_from_basis_coords(v)
            for v in itertools.product(*(range(r) for r in radii))]
    count = 0
    for ys in itertools.product(reps, repeat=n):
        s = HurwitzQuat(0, 0, 0, 0)
        for y in ys:
            s = s + y * y
        if all(t == 0 for t in reduce_mod_hnf(list(hq_to_basis_coords(s)), h)):
            count += 1
    return Fraction(2 ** (4 * m) * count, size ** n)


# ---------------------------------------------------------------------------
# Tail brackets and the archimedean place
# ---------------------------------------------------------------------------


def local_zeta(q, s):
    """(1 - q^{-s})^{-1} as a float (s may be half-integral)."""
    qs = float(q) ** s
    return qs / (qs - 1.0)


def density_tail_bracket(q, n):
    """Upper bound for |d_m - 1| at a split place with q = p, n = 5 slots:
    (1/q) * zeta_q(2) * zeta_q(3/2) * zeta_q(1)."""
    if n != 5:
        raise PreconditionError("tail bracket is calibrated for 5 slots")
    return (1.0 / q) * local_zeta(q, 2) * local_zeta(q, 1.5) * local_zeta(q, 1)


def archimedean_density(n, eps=0.05, samples=2 ** 20, seed=DEFAULT_SEED,
                        shards=16):
    """Monte Carlo estimate of the real density of P(Y) = 0 with Y in the
    unit sup-norm box: 2^{4n} * Pr[ all four entries of P(Y) within eps ]
    / (2 eps)^4. Deterministic under resharding (counter-based generator,
    fixed per-shard batches)."""
    if samples % shards:
        raise PreconditionError("samples must split evenly into shards")
    per = samples // shards
    hits = 0
    for shard in range(shards):
        rng = np.random.Generator(np.random.Philox(key=seed, counter=shard))
        y = rng.uniform(-1.0, 1.0, size=(per, n, 4))
        a, b, c, d = y[..., 0], y[..., 1], y[..., 2], y[..., 3]
        bc = b * c
        s = np.stack([a * a + bc, b * (a + d), c * (a + d), d * d + bc],
                     axis=-1).sum(axis=1)
        hits += int((np.abs(s) < eps).all(axis=1).sum())
    p_hat = hits / samples
    est = 2 ** (4 * n) * p_hat / (2 * eps) ** 4
    stderr = 2 ** (4 * n) * math.sqrt(max(p_hat * (1 - p_hat), 1e-300) / samples) \
        / (2 * eps) ** 4
    return est, stderr


def singular_series(n, split_primes, m, include_two=True):
    """Partial product of local densities at level m over the given odd
    split primes, times the nonsplit factor at 2. Returns (value_fraction,
    per_prime dict)."""
    per = {}
    acc = Fraction(1)
    if include_two:
        d2 = nonsplit_density_two(m, n)
        per[2] = d2
        acc *= d2
    for p in split_primes:
        if p == 2:
            continue
        d = split_density(p, min(m, 2) if p > 3 else m, n)
        per[p] = d
        acc *= d
    return acc, per
