"""Local solution densities for the sum-of-slotwise-squares equation
P(Y) = sum_i c_i Y_i^2 = 0 over 2x2 matrix rings (split places), over the
ramified quaternion order (nonsplit places), and over the reals.

Finite-place densities are exact rationals computed by convolving the
per-slot distribution of Y^2 over the relevant finite quotient group and
reading off the mass at zero in the zero-count tree `algebra.zero_mass`.
Every quotient is a mixed-radix box (`QuotientGroup`); at the ramified place
2 it is diagonal on the order basis (1+j, i+j, j, (1+i+j+k)/2). At nonsplit
places Y^2 is one int64 column product over the whole box
(`algebra.quat_mul_flat`), and a box past the cap is refused before it is
built. One coset-split kernel serves every box: a matmul per head coset in
the support (`group_convolve`). It and the last pairing count in the dtype
of `algebra.count_dtype`, and the kernel checks that every result carries
the product of the two masses in Python ints.
The archimedean density is a seeded, shard-deterministic Monte Carlo
estimate.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

import numpy as np

from . import DEFAULT_SEED
from .algebra import (basis_from_doubled_coords, count_dtype,
                      doubled_from_basis_coords, doubled_mul_flat, exact_dot,
                      mat_mul_flat, quat_mul_flat, smallest_nonresidue,
                      zero_mass)
from .errors import BudgetError, PreconditionError, VerificationError
from .expsums import grid_square_keys

# ---------------------------------------------------------------------------
# Exact convolution over a mixed-radix box
# ---------------------------------------------------------------------------

#: a Python-int multiply-add costs ~32 int64 ones (81x81 matmul: 42/1.3 ms)
_OBJECT_COST = 32
#: cap on the multiply-adds of one `group_convolve`
_CONVOLVE_BUDGET = 4 * 10 ** 9
#: cap on the tuples `split_density_exhaustive` enumerates
_EXHAUSTIVE_CAP = 10 ** 7
#: cap on the squared quotient order of the nonsplit densities
_QUOTIENT_CAP = 10 ** 9


class QuotientGroup:
    """The box Z/r_1 x ... x Z/r_k in mixed-radix coordinates: index =
    sum_i digit_i * weight_i, and addition is digitwise mod the radii. The
    elements with zero `head` digits form a subgroup K of order V = `tail`;
    index = u * V + v over its U = `cosets` cosets u, and the head is the
    shortest prefix with U >= V.
    """

    def __init__(self, radii):
        self.radii = list(radii)
        k = len(self.radii)
        self.order = math.prod(self.radii)
        self.weights = np.array([math.prod(self.radii[i + 1:])
                                 for i in range(k)], dtype=np.int64)
        self.head = next(i for i in range(k + 1)
                         if math.prod(self.radii[:i]) ** 2 >= self.order)
        self.cosets = math.prod(self.radii[:self.head])
        self.tail = self.order // self.cosets

    def digits_of(self, idx):
        """(len(idx), k) box representatives of the indices idx."""
        return idx[:, None] // self.weights % self.radii

    @functools.cached_property
    def digits(self):
        """(G, k) box representatives, built when first read."""
        return self.digits_of(np.arange(self.order, dtype=np.int64))

    def pack(self, rows):
        """Index of each integer row, reduced digitwise into the box."""
        rows = np.array(rows, dtype=np.int64, ndmin=2)
        return rows % self.radii @ self.weights

    def negation(self):
        """Index of -x for every index x, packed one digit at a time
        without the (G, k) digits."""
        idx = np.arange(self.order, dtype=np.int64)
        out = np.zeros_like(idx)
        for r, w in zip(self.radii, self.weights):
            part = idx // w
            part %= r
            np.negative(part, out=part)
            part %= r
            part *= w
            out += part
        return out

    @functools.cached_property
    def coset_tables(self):
        """diff[h, t] = t - h inside K (V x V), and for head cosets s, u the
        coset target[s, u] of s + u (U x U).

        Both are packed one digit at a time, diff = sum_i ((t_i - h_i) mod
        r_i) w_i over the tail digits and target likewise over the head
        digits, so the peak is two tables, not k of them."""
        def packed(values, digits, sign):
            out = np.zeros((len(values), len(values)), dtype=np.int64)
            for i in digits:
                col = values[:, i]
                part = col[None, :] + sign * col[:, None]
                part %= self.radii[i]
                part *= self.weights[i]
                out += part
            return out

        tails = self.digits_of(np.arange(self.tail, dtype=np.int64))
        heads = self.digits_of(np.arange(0, self.order, self.tail,
                                         dtype=np.int64))
        diff = packed(tails, range(self.head, len(self.radii)), -1)
        target = packed(heads, range(self.head), 1)
        target //= self.tail
        return diff, target


def _convolve_cosets(a, b, grp, heads):
    """The kernel: for each head s of `a`, one matmul gives a's coset s
    times every coset of `b`, as A[s][diff] is the V x V matrix of
    translates of a's coset s inside K. Entries stay in a.dtype."""
    diff, target = grp.coset_tables
    A = a.reshape(grp.cosets, grp.tail)
    B = b.reshape(grp.cosets, grp.tail)
    C = np.zeros_like(B)
    for s in heads:
        C[target[s]] += B @ A[s][diff]
    return C.reshape(-1)


def _mass(a):
    """Sum of a count array in Python ints: an int64 sum could wrap."""
    return int(a.sum(dtype=object))


def group_convolve(a, b, grp):
    """Exact convolution of two nonnegative count arrays over the group,
    in the dtype of `algebra.count_dtype`: int64 while min(max a * mass b,
    mass a * max b) < 2^63, else Python ints. The work, |heads of
    a| * U * V^2 multiply-adds (times `_OBJECT_COST` for Python ints), must
    fit `_CONVOLVE_BUDGET`, and the result must carry mass(a) * mass(b)."""
    if (a < 0).any() or (b < 0).any():
        raise PreconditionError("count arrays must be nonnegative")
    heads = np.nonzero(a.reshape(grp.cosets, grp.tail).any(axis=1))[0]
    work = len(heads) * grp.order * grp.tail
    if work > _CONVOLVE_BUDGET:
        raise BudgetError("convolution exceeds budget")
    mass_a, mass_b = _mass(a), _mass(b)
    dtype = count_dtype(a, mass_a, b, mass_b)
    if dtype is object and work * _OBJECT_COST > _CONVOLVE_BUDGET:
        raise BudgetError("exact (object) convolution exceeds budget")
    c = _convolve_cosets(a.astype(dtype, copy=False),
                         b.astype(dtype, copy=False), grp, heads)
    if _mass(c) != mass_a * mass_b:
        raise VerificationError("convolution did not conserve mass")
    return c


def _count_at_zero(dists, grp):
    """Mass at the identity of the convolution of the slots' distributions;
    the last product is one pairing, sum_x left[x] right[-x]."""
    if len(dists) == 1:
        return int(dists[0][0])
    neg = grp.negation()
    return zero_mass(dists, lambda a, b: group_convolve(a, b, grp),
                     lambda a, b: exact_dot(a, b[neg], _mass(a), _mass(b)))


def _slot_coeffs(p, m, n, coeffs):
    """One coefficient per slot (all 1 by default), each a unit mod p, at a
    positive level m."""
    if m < 1:
        raise PreconditionError("level must be positive")
    coeffs = list(coeffs or [1] * n)
    if n < 1 or len(coeffs) != n:
        raise PreconditionError("need one coefficient per slot, n >= 1")
    if any(c % p == 0 for c in coeffs):
        raise PreconditionError(f"coefficients must be units mod {p}")
    return coeffs


# ---------------------------------------------------------------------------
# Split local densities
# ---------------------------------------------------------------------------


def split_square_distribution(p, m, coeff=1):
    """Distribution of coeff * Y^2 over M_2(Z/p^m), as a packed mass array
    (the packing of `QuotientGroup([p^m] * 4)`): one bincount
    of the int32 keys of all blocks of the grid kernel of `qcl.expsums`,
    which refuses p^{4m} > 10^7 with BudgetError."""
    q = p ** m
    blocks = grid_square_keys(coeff % q * np.eye(4, dtype=np.int64), q,
                              (q,) * 4)
    return np.bincount(np.concatenate(tuple(blocks)), minlength=q ** 4)


def split_density(p, m, n, coeffs=None):
    """d_m = p^{4m} * #{Y in M_2(Z/p^m)^n : sum c_i Y_i^2 = 0} / p^{4mn},
    as an exact Fraction."""
    coeffs = _slot_coeffs(p, m, n, coeffs)
    q = p ** m
    dist = {c: split_square_distribution(p, m, c)
            for c in {cc % q for cc in coeffs}}
    count = _count_at_zero([dist[c % q] for c in coeffs],
                           QuotientGroup([q] * 4))
    return Fraction(count, q ** (4 * (n - 1)))


def split_density_exhaustive(p, m, n, coeffs=None):
    """Independent brute-force oracle for split_density (tiny cases), with
    its preconditions."""
    coeffs = _slot_coeffs(p, m, n, coeffs)
    q = p ** m
    if q ** (4 * n) > _EXHAUSTIVE_CAP:
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


def _nonsplit_density(p, m, n, coeffs, radii, square):
    """The tail of both nonsplit densities: d_m = p^{4m} * count / G^n,
    count the mass at zero of the convolution of the slots' distributions
    of c_i Y^2 (one per distinct c mod max(radii)) over the box of order
    G = prod(radii).

    The cap G^2 <= `_QUOTIENT_CAP` is checked before the box and its digits
    are built. `square` maps the digit columns to those of Y^2 in int64:
    under the cap every c mod max(radii) is below 2^8 and, as each caller
    shows, every square below 2^32, so c * Y^2 is below 2^40."""
    coeffs = _slot_coeffs(p, m, n, coeffs)
    order = math.prod(radii)
    if order ** 2 > _QUOTIENT_CAP:
        raise BudgetError("quotient too large")
    grp = QuotientGroup(radii)
    squares = np.stack(square(tuple(grp.digits.T)), axis=1)
    q = max(radii)
    dist = {c: np.bincount(grp.pack(c * squares), minlength=order)
            for c in {cc % q for cc in coeffs}}
    count = _count_at_zero([dist[c % q] for c in coeffs], grp)
    return Fraction(p ** (4 * m) * count, order ** n)


def _hurwitz_square(digits):
    """Columns of y^2 on the basis F = (1+j, i+j, j, omega) of the order,
    omega = (1+i+j+k)/2, for those of y. F-coordinates (a, b, c, d) are the
    order-basis ones (a, b, a+b+c, d), which `algebra` squares. Under the cap
    m <= 4, so every digit is below 2^m <= 16, an order coordinate below 46,
    a doubled coordinate below 2^7, a doubled coordinate of the square below
    2^15 and an F-coordinate of the square below 2^17 in absolute value."""
    a, b, c, d = digits
    y = doubled_from_basis_coords((a, b, a + b + c, d))
    a, b, c, d = basis_from_doubled_coords(doubled_mul_flat(y, y))
    return a, b, c - a - b, d


def nonsplit_density_two(m, n, coeffs=None):
    """d_m at the ramified place 2: count Y in (O/w^{2m-1})^n with
    sum c_i Y_i^2 = 0 in the quotient, normalized by 2^{4m} / size^n, for
    the uniformizer w = 1 + i. The level lattice w^{2m-1} O = 2^{m-1} (1+i) O
    is diag(2^{m-1}, 2^{m-1}, 2^m, 2^m) on the basis F of `_hurwitz_square`,
    so the quotient is that box, of order nrd(w)^{2(2m-1)} = 4^{2m-1}."""
    return _nonsplit_density(
        2, m, n, coeffs, [2 ** (m - 1)] * 2 + [2 ** m] * 2, _hurwitz_square)


def nonsplit_density_odd(p, m, n, coeffs=None):
    """d_m at an odd nonsplit place: quotient coordinates are
    (z1, z2 mod p^m, z3, z4 mod p^{m-1}) on the basis (1, s, P, sP) of the
    local division order, squared in the algebra (u, p). Under the cap the
    order p^{4m-2} is below 2^15, so m <= 2, every digit is below p^m < 2^8,
    and a term of the square, at most u p z z' < p^{2m+2} <= p^{2(4m-2)},
    is below 2^30."""
    if p == 2:
        raise PreconditionError("use nonsplit_density_two at 2")
    u = smallest_nonresidue(p)
    return _nonsplit_density(
        p, m, n, coeffs, [p ** m] * 2 + [p ** (m - 1)] * 2,
        lambda z: quat_mul_flat(z, z, u, p))


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


def outside_tail_bracket(d, q, n):
    """|d - 1| > density_tail_bracket(q, n), decided exactly for a rational
    d. The bracket is A r / (r - 1) with A = (1/q) zeta_q(2) zeta_q(1)
    rational and r = q^{3/2}, so with e = |d - 1| it is exceeded exactly
    when r (e - A) > e, i.e. when e > A and q^3 (e - A)^2 > e^2."""
    if n != 5:
        raise PreconditionError("tail bracket is calibrated for 5 slots")
    a = Fraction(q * q, (q * q - 1) * (q - 1))
    e = abs(Fraction(d) - 1)
    return e > a and q ** 3 * (e - a) ** 2 > e * e


def archimedean_density(n, eps=0.05, samples=2 ** 20, seed=DEFAULT_SEED,
                        shards=16):
    """Monte Carlo estimate of the real density of P(Y) = 0 with Y in the
    unit sup-norm box: 2^{4n} * Pr[ all four entries of P(Y) within eps ]
    / (2 eps)^4, and its standard error, whose variance is floored at that
    of one hit: with no hit it is the resolution 2^{4n} / ((2 eps)^4 N)
    times sqrt(1 - 1/N), not 0. Deterministic under resharding
    (counter-based generator, fixed per-shard batches)."""
    if samples % shards:
        raise PreconditionError("samples must split evenly into shards")
    per = samples // shards
    hits = 0
    for shard in range(shards):
        rng = np.random.Generator(np.random.Philox(key=seed, counter=shard))
        y = tuple(np.moveaxis(rng.uniform(-1.0, 1.0, size=(per, n, 4)),
                              -1, 0))
        s = np.stack(mat_mul_flat(y, y), axis=-1).sum(axis=1)
        hits += int((np.abs(s) < eps).all(axis=1).sum())
    p_hat = hits / samples
    est = 2 ** (4 * n) * p_hat / (2 * eps) ** 4
    one = 1 / samples
    stderr = 2 ** (4 * n) * math.sqrt(max(p_hat * (1 - p_hat), one * (1 - one))
                                      / samples) / (2 * eps) ** 4
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
