"""Exact arithmetic cores: integral quaternions in the Hurwitz order, and
exact values of prime-power exponential sums.

The flat 4-tuple helpers below (2x2 product, determinant, trace, adjugate
and the quaternion product) are the one definition of that arithmetic; the
exponential sums, the geometry checks, HurwitzQuat, the box densities
and the counting boxes all use them. `quat_mul_flat` multiplies in any
quaternion algebra (a, b): Hamilton's (-1, -1), or at an odd prime p the
local division order (u, p) on (1, s, P, sP), s^2 = u a non-square unit,
P^2 = p. Exact on Python ints, and on numpy arrays within their dtype:
int64 columns, or blocks that broadcast against each other, where one
call multiplies whole arrays of elements.

A CycloSum, the exact value of a prime-power exponential sum, is one dense
tuple of p^k Python ints at one prime p: canonical form is one row
subtraction and a stride, and a product is one Kronecker product of two
coefficient lists.  Its certified sign test reads cosines from
`cos_fixed`, which with `pi_fixed` (Machin's formula, also behind the
Bessel main term of `qcl.delta`) computes in Python integers with a counted
error.  The module imports neither numpy nor mpmath.

All values are immutable after construction; every operation is a pure
function, so everything here is safe to share across threads.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from .errors import PreconditionError, VerificationError

# ---------------------------------------------------------------------------
# Flat 4-tuples: 2x2 matrices (a, b, c, d) = [[a, b], [c, d]] and quaternions
# (w, x, y, z) = w + x i + y j + z k.  Exact for any number type; those that
# take q reduce mod q only when it is given, and none converts to Fraction.
# ---------------------------------------------------------------------------


#: the flat unit matrices (and quaternions) e_0, ..., e_3
FLAT_UNITS = tuple(tuple(int(i == j) for j in range(4)) for i in range(4))


def reduce_mod(x, q):
    """x mod q, or x unchanged when q is None."""
    return x if q is None else x % q


def mat_mul_flat(x, y, q=None):
    """Flat entries of the 2x2 product x * y."""
    out = (x[0] * y[0] + x[1] * y[2], x[0] * y[1] + x[1] * y[3],
           x[2] * y[0] + x[3] * y[2], x[2] * y[1] + x[3] * y[3])
    return out if q is None else tuple(v % q for v in out)


def det_flat(m, q=None):
    return reduce_mod(m[0] * m[3] - m[1] * m[2], q)


def trace_flat(m, q=None):
    return reduce_mod(m[0] + m[3], q)


def adj_flat(m):
    """Adjugate: adj(m) * m = det(m) * identity."""
    a, b, c, d = m
    return (d, -b, -c, a)


def quat_mul_flat(x, y, a=-1, b=-1):
    """Product x * y in the quaternion algebra (a, b) on the flat basis
    (1, i, j, k): i^2 = a, j^2 = b and k = ij = -ji, so k^2 = -ab."""
    x0, x1, x2, x3 = x
    y0, y1, y2, y3 = y
    return (x0 * y0 + a * x1 * y1 + b * x2 * y2 - a * b * x3 * y3,
            x0 * y1 + x1 * y0 - b * (x2 * y3 - x3 * y2),
            x0 * y2 + x2 * y0 + a * (x1 * y3 - x3 * y1),
            x0 * y3 + x3 * y0 + x1 * y2 - x2 * y1)


def doubled_mul_flat(x, y):
    """Doubled coordinates of the product of the Hurwitz quaternions with
    doubled coordinates x and y: half their Hamilton product (4x the true
    one), refused if odd, as the product would then have left the order."""
    p0, p1, p2, p3 = quat_mul_flat(x, y)
    odd = (p0 | p1 | p2 | p3) & 1
    if odd if isinstance(odd, int) else odd.any():
        raise VerificationError("product left the order (odd doubled sum)")
    return p0 // 2, p1 // 2, p2 // 2, p3 // 2


# ---------------------------------------------------------------------------
# Exact counts: one overflow rule, one dot product and one zero-count tree
# ---------------------------------------------------------------------------


def count_dtype(a, mass_a, b, mass_b):
    """"int64" while min(max a * mass b, mass a * max b) < 2^63, else object:
    for nonnegative count arrays with sums at most mass_a and mass_b, that
    bounds every partial sum of their convolution and of their dot product."""
    peak = min(int(a.max()) * mass_b, mass_a * int(b.max()))
    return "int64" if peak < 2 ** 63 else object


def exact_dot(a, b, mass_a, mass_b):
    """sum_i a[i] b[i] of two aligned count arrays, in their `count_dtype`."""
    if not len(a):
        return 0
    dtype = count_dtype(a, mass_a, b, mass_b)
    return int(a.astype(dtype, copy=False).dot(b.astype(dtype, copy=False)))


def zero_mass(dists, convolve, pair):
    """Mass at zero of the convolution of n >= 2 slots' histograms, where
    pair(x, y) is the mass at zero of x * y. Slots holding one histogram
    are grouped, the groups in order of first appearance (an order by id
    would let memory addresses shape the tree). A node of 2k slots
    convolves the nodes of its even and odd slots, one of 2k + 1 its first
    slot (the first operand) with the node of the rest; each distinct
    sub-multiset is convolved once: binary powering (TAOCP 2, 4.6.3)."""
    ids = [id(d) for d in dists]
    ds = sorted(dists, key=lambda d: ids.index(id(d)))
    memo = {}  # grouped sub-lists of one multiset have the same ids

    def node(ds):
        if len(ds) == 1:
            return ds[0]
        key = tuple(map(id, ds))
        if key not in memo:
            memo[key] = (convolve(ds[0], node(ds[1:])) if len(ds) % 2 else
                         convolve(node(ds[0::2]), node(ds[1::2])))
        return memo[key]

    if len(ds) % 2:
        return pair(node(ds[1::2]), convolve(ds[0], node(ds[2::2])))
    return pair(node(ds[0::2]), node(ds[1::2]))


# ---------------------------------------------------------------------------
# Integral quaternions (doubled coordinates)
# ---------------------------------------------------------------------------


class HurwitzQuat:
    """Integral quaternion w + x*i + y*j + z*k stored as doubled integer
    coordinates (2w, 2x, 2y, 2z), all congruent mod 2.

    Doubled storage keeps half-integer coordinates exact with machine
    integers only.
    """

    __slots__ = ("c",)

    def __init__(self, c0, c1, c2, c3):
        c0, c1, c2, c3 = c = (int(c0), int(c1), int(c2), int(c3))
        if ((c0 ^ c1) | (c0 ^ c2) | (c0 ^ c3)) & 1:
            raise PreconditionError(f"doubled coordinates {c} have mixed parity")
        object.__setattr__(self, "c", c)

    def __setattr__(self, *a):  # immutability guard
        raise AttributeError("HurwitzQuat is immutable")

    @classmethod
    def from_true(cls, w, x, y, z):
        """Build from integer (non-halved) coordinates."""
        return cls(2 * w, 2 * x, 2 * y, 2 * z)

    def __repr__(self):
        return f"HurwitzQuat{self.c}"

    def __eq__(self, other):
        return isinstance(other, HurwitzQuat) and self.c == other.c

    def __hash__(self):
        return hash(self.c)

    def __add__(self, other):
        a, b = self.c, other.c
        return HurwitzQuat(a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3])

    def __sub__(self, other):
        a, b = self.c, other.c
        return HurwitzQuat(a[0] - b[0], a[1] - b[1], a[2] - b[2], a[3] - b[3])

    def __neg__(self):
        a = self.c
        return HurwitzQuat(-a[0], -a[1], -a[2], -a[3])

    def __mul__(self, other):
        if isinstance(other, int):
            a = self.c
            return HurwitzQuat(a[0] * other, a[1] * other, a[2] * other, a[3] * other)
        return HurwitzQuat(*doubled_mul_flat(self.c, other.c))

    __rmul__ = __mul__

    def conjugate(self):
        a = self.c
        return HurwitzQuat(a[0], -a[1], -a[2], -a[3])

    def trd(self):
        return self.c[0]

    def nrd(self):
        a = self.c
        # equal parities make the sum of squares a multiple of 4
        return (a[0] * a[0] + a[1] * a[1] + a[2] * a[2] + a[3] * a[3]) // 4

    def is_zero(self):
        return self.c == (0, 0, 0, 0)

    def content(self):
        """Largest rational integer d with self/d still in the order."""
        if self.is_zero():
            raise PreconditionError("content of zero is undefined")
        g = math.gcd(math.gcd(abs(self.c[0]), abs(self.c[1])),
                     math.gcd(abs(self.c[2]), abs(self.c[3])))
        # the odd part of g always divides out; powers of 2 need a parity check
        odd = g
        while odd % 2 == 0:
            odd //= 2
        d = odd
        cur = tuple(ci // odd for ci in self.c)
        while all(ci % 2 == 0 for ci in cur):
            halved = tuple(ci // 2 for ci in cur)
            par = halved[0] & 1
            if any((hi & 1) != par for hi in halved):
                break
            cur = halved
            d *= 2
        return d

    def is_primitive(self):
        return not self.is_zero() and self.content() == 1


HQ_ONE = HurwitzQuat(2, 0, 0, 0)
HQ_I = HurwitzQuat(0, 2, 0, 0)
HQ_J = HurwitzQuat(0, 0, 2, 0)
HQ_OMEGA = HurwitzQuat(1, 1, 1, 1)  # (1+i+j+k)/2

#: basis of the order as a Z-module: 1, i, j, (1+i+j+k)/2
HQ_BASIS = (HQ_ONE, HQ_I, HQ_J, HQ_OMEGA)


def doubled_from_basis_coords(v):
    """Doubled quaternion coordinates, as a tuple, of the element with
    order-basis coefficients v (ints, or int64 columns)."""
    a, b, c, d = v
    return (2 * a + d, 2 * b + d, 2 * c + d, d)


def basis_from_doubled_coords(c):
    """Inverse of doubled_from_basis_coords (ints, or int64 columns)."""
    c0, c1, c2, c3 = c
    # equal parities make each difference even
    return ((c0 - c3) // 2, (c1 - c3) // 2, (c2 - c3) // 2, c3)


def hq_from_basis_coords(v):
    """Inverse of hq_to_basis_coords: integer coefficients -> element."""
    return HurwitzQuat(*doubled_from_basis_coords([int(t) for t in v]))


def hq_to_basis_coords(x):
    """Coefficients of x in the Z-basis (1, i, j, (1+i+j+k)/2)."""
    return basis_from_doubled_coords(x.c)


def left_mul_coords(g):
    """4x4 integer matrix of x -> g*x on order-basis coordinates."""
    cols = [hq_to_basis_coords(g * b) for b in HQ_BASIS]
    return [[cols[j][i] for j in range(4)] for i in range(4)]


def right_mul_coords(g):
    """4x4 integer matrix of x -> x*g on order-basis coordinates."""
    cols = [hq_to_basis_coords(b * g) for b in HQ_BASIS]
    return [[cols[j][i] for j in range(4)] for i in range(4)]


# ---------------------------------------------------------------------------
# Fixed-point pi and cosines: Python integers with a counted error
# ---------------------------------------------------------------------------


def _arctan_inv(x, one):
    """one * arctan(1/x) for integers x >= 2 and one >= 1, within the number
    of summed terms plus one: each term one / ((2k+1) x^(2k+1)) is floored
    exactly (nested floors of positive integers are one floor), and the
    alternating tail is below its first term, which is below 1."""
    x2 = x * x
    power, total, k = one // x, 0, 0
    while power:
        term = power // (2 * k + 1)
        total += -term if k & 1 else term
        power //= x2
        k += 1
    return total


#: [bits, value] of the most precise pi_fixed computed so far
_PI_MEMO = [-1, 0]


def pi_fixed(bits):
    """An integer within 2 of pi * 2^bits, for bits >= 0.

    Machin's formula pi = 16 arctan(1/5) - 4 arctan(1/239) at W = bits + g
    working bits, g = bitlen(bits) + 8: the two series have at most W / 4.6
    + 1 and W / 15.8 + 1 terms, so the sum is within 16 (W / 4.6 + 2) +
    4 (W / 15.8 + 2) < 4 W + 48 < 2^g of pi * 2^W, and the floor by 2^g
    loses less than 1 more.  A less precise request floors the memo, which
    keeps the error below 2.
    """
    have, value = _PI_MEMO
    if bits <= have:
        return value >> (have - bits)
    guard = bits.bit_length() + 8
    one = 1 << (bits + guard)
    value = (16 * _arctan_inv(5, one) - 4 * _arctan_inv(239, one)) >> guard
    _PI_MEMO[:] = bits, value
    return value


def cos_fixed(r, n, prec):
    """An integer within 1 of 2^prec * cos(2 pi r / n), for n >= 1 and
    prec >= 0.

    With j = round(4r / n), 2 pi r / n = j pi / 2 + x and x = pi m / (2n),
    m = 4r - jn, |x| <= pi / 4; the cosine is +-cos x or +-sin x by j mod 4.
    At w = prec + g working bits, g = 2 bitlen(prec + 64) + 2, |x| 2^w is
    floored within 2, and the Taylor terms |x|^i / i! are floored one from
    the last, term i within i of its value at that |x|.  The last term
    summed is zero, so the alternating tail is within 2 (i + 1); in all the
    sum is within (w + 3)^2 < 2^(g - 2), and rounding off g bits keeps the
    result within 1/2 + 1/4.
    """
    guard = 2 * (prec + 64).bit_length() + 2
    w = prec + guard
    j = (8 * r + n) // (2 * n)
    m = 4 * r - j * n
    x = pi_fixed(w) * abs(m) // (2 * n)
    odd = j & 1                      # sum the odd terms: sin |x|
    term, i, total = 1 << w, 0, 0
    while term:
        if i & 1 == odd:
            total += -term if i & 2 else term
        i += 1
        term = (term * x >> w) // i
    if odd and m < 0:
        total = -total               # sin x = -sin |x|
    if (j + 1) & 2:
        total = -total               # j = 1, 2 mod 4: -sin x, -cos x
    return (total + (1 << (guard - 1))) >> guard


# ---------------------------------------------------------------------------
# Exact prime-power exponential-sum values
# ---------------------------------------------------------------------------


def _cyclic_product(a, sa, b, sb, n):
    """[c_0, ..., c_(n-1)], the coefficients of
    (sum a[r] x^(r sa)) (sum b[r] x^(r sb)) taken mod x^n - 1, for
    coefficient sequences a and b with every r * sa and r * sb in [0, n).

    Kronecker substitution: each operand is evaluated at x = 2^w as one
    signed Python int, its digits written into one byte string per sign and
    read by one int.from_bytes, and one big-integer product
    replaces the |a| |b| coefficient products.  Every coefficient of the
    product, before and after the fold mod x^n - 1, is at most
    B = min(max|a| sum|b|, sum|a| max|b|) in absolute value (so is every
    input coefficient), and w is chosen with 2^(w-1) >= B + 2.  Adding
    2^(w-1) to each of the n folded coefficients then gives digits in
    [2, 2^w - 2], so that sum is the residue of product + offset mod
    2^(n w) - 1 (the value of x^n - 1), and its base-2^w digits minus
    2^(w-1) are the coefficients.  Exact at any coefficient size.
    """
    absa, absb = list(map(abs, a)), list(map(abs, b))
    bound = min(max(absa) * sum(absb), sum(absa) * max(absb))
    if not bound:  # a zero operand
        return [0] * n
    width = ((bound + 1).bit_length() + 8) // 8  # bytes per digit
    bits = 8 * width

    def evaluate(d, s):
        pos, neg = bytearray(n * width), bytearray(n * width)
        for r, c in enumerate(d):
            if c:
                at = r * s * width
                (pos if c > 0 else neg)[at:at + width] = abs(c).to_bytes(
                    width, "little")
        return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")

    x = evaluate(a, sa)
    prod = x * (x if b is a and sb == sa else evaluate(b, sb))
    span = n * bits
    modulus = (1 << span) - 1
    half = 1 << (bits - 1)
    offset = modulus // ((1 << bits) - 1) * half  # half in every digit
    # prod = high 2^span + low, and 2^span = 1 mod the modulus
    folded = ((prod & modulus) + (prod >> span) + offset) % modulus
    raw = folded.to_bytes(n * width, "little")
    return [int.from_bytes(raw[at:at + width], "little") - half
            for at in range(0, n * width, width)]


class CycloSum:
    """Exact value p^(-scale) * sum_r v[r] * e^(2 pi i r / p^k), stored as
    the dense tuple v of p^k Python ints. Each value has one prime p, and
    values of different primes do not combine.

    Canonical form uses the one relation Phi_{p^k}(x) = Phi_p(x^(p^(k-1))):
    viewed as p rows of p^(k-1) entries, v loses its last row by one row
    subtraction (the remaining powers of the root of unity form a Q-basis),
    the conductor drops (v becomes v[::p]) while every entry off the
    multiples of p is zero, and common p-factors are stripped against the
    scale. A value built by canonical() is marked as such, so
    canonicalizing it again returns it as it is. Equality and zero tests are
    exact on canonical forms; real_sign() certifies the sign of the real
    part, at_most() compares a real value with a rational bound through it,
    and magnitude() is an approximate float.  The product of two values is
    one big-integer product by Kronecker substitution (_cyclic_product),
    exact at any coefficient size.
    """

    __slots__ = ("p", "k", "v", "scale", "_canonical")

    def __init__(self, p, k, counts, scale=0):
        """counts: p^k coefficients in exponent order, or a mapping of
        exponents (taken mod p^k) to coefficients."""
        if scale < 0:
            raise PreconditionError("negative scale; multiply counts instead")
        p, k = int(p), int(k)
        pk = p ** k
        if hasattr(counts, "items"):
            v = [0] * pk
            for r, c in counts.items():
                v[int(r) % pk] += int(c)
        else:
            v = list(map(int, counts))
            if len(v) != pk:
                raise PreconditionError(f"{len(v)} coefficients, not {p}^{k}")
        self._fill(p, k, tuple(v), int(scale), False)

    @classmethod
    def _reduced(cls, p, k, v, scale, canonical=False):
        """Trusted constructor: v is a tuple of p^k ints and scale an int
        >= 0, so nothing is checked or copied. `canonical` says that the
        value is already in canonical form."""
        return object.__new__(cls)._fill(p, k, v, scale, canonical)

    def _fill(self, p, k, v, scale, canonical):
        setattr_ = object.__setattr__
        setattr_(self, "p", p)
        setattr_(self, "k", k)
        setattr_(self, "v", v)
        setattr_(self, "scale", scale)
        setattr_(self, "_canonical", canonical)
        return self

    def __setattr__(self, *a):
        raise AttributeError("CycloSum is immutable")

    @classmethod
    def from_int(cls, n, p):
        return cls._reduced(p, 0, (int(n),), 0, True)

    @classmethod
    def from_fraction(cls, fr, p):
        """fr must have denominator a power of p."""
        fr = Fraction(fr)
        den = fr.denominator
        s = 0
        while den % p == 0:
            den //= p
            s += 1
        if den != 1:
            raise PreconditionError(f"denominator of {fr} is not a power of {p}")
        return cls._reduced(p, 0, (fr.numerator,), s, True)

    @classmethod
    def root(cls, p, k, r):
        """The single root of unity e^(2 pi i r / p^k)."""
        return cls(p, k, {r: 1}, 0)

    def __repr__(self):
        return f"CycloSum(p={self.p}, k={self.k}, scale={self.scale}, v={self.v})"

    # -- canonicalization ---------------------------------------------------

    def canonical(self):
        if self._canonical:
            return self
        p, k, v = self.p, self.k, self.v
        while k:
            m = len(v) // p
            top = v[-m:]
            if any(top):  # the last row is minus the sum of the others
                v = [*map(operator.sub, v, top * (p - 1)), *(0,) * m]
            if any(any(v[j::p]) for j in range(1, p)):
                break
            v = v[::p]  # drop the conductor
            k -= 1
        if not any(v):
            return CycloSum._reduced(p, 0, (0,), 0, True)
        scale, g = self.scale, math.gcd(*v)
        while scale and g % p == 0:
            g //= p
            scale -= 1
        if scale < self.scale:
            d = p ** (self.scale - scale)
            v = [c // d for c in v]
        return CycloSum._reduced(p, k, tuple(v), scale, True)

    def is_zero(self):
        c = self.canonical()
        return c.k == 0 and not c.v[0]

    def is_rational(self):
        return self.canonical().k == 0

    def to_fraction(self):
        c = self.canonical()
        if c.k != 0:
            raise PreconditionError("value is irrational")
        return Fraction(c.v[0], c.p ** c.scale)

    def __eq__(self, other):
        if isinstance(other, int):
            other = CycloSum.from_int(other, self.p)
        if not isinstance(other, CycloSum):
            return NotImplemented
        a, b = self.canonical(), other.canonical()
        if a.k == 0 and b.k == 0:
            return a.to_fraction() == b.to_fraction()
        return (a.p, a.k, a.scale, a.v) == (b.p, b.k, b.scale, b.v)

    def __hash__(self):
        c = self.canonical()
        if c.k == 0:
            return hash(c.to_fraction())
        return hash((c.p, c.k, c.scale, c.v))

    # -- arithmetic ----------------------------------------------------------

    def _aligned(self, other):
        """(p, k, scale, a, b): the coefficients of both values at the
        larger level and scale."""
        if isinstance(other, int):
            other = CycloSum.from_int(other, self.p)
        if self.p != other.p:
            raise PreconditionError("mixed-prime values are not combinable")
        p = self.p
        k, s = max(self.k, other.k), max(self.scale, other.scale)

        def lift(x):
            mult, shift = p ** (s - x.scale), p ** (k - x.k)
            v = x.v if mult == 1 else [c * mult for c in x.v]
            if shift == 1:
                return v
            out = [0] * p ** k
            out[::shift] = v
            return out
        return p, k, s, lift(self), lift(other)

    def __add__(self, other):
        p, k, s, a, b = self._aligned(other)
        return CycloSum._reduced(p, k, tuple(map(operator.add, a, b)), s)

    __radd__ = __add__

    def __sub__(self, other):
        p, k, s, a, b = self._aligned(other)
        return CycloSum._reduced(p, k, tuple(map(operator.sub, a, b)), s)

    def __neg__(self):
        return CycloSum._reduced(self.p, self.k,
                                 tuple(map(operator.neg, self.v)), self.scale)

    def __mul__(self, other):
        if isinstance(other, int):
            return CycloSum._reduced(self.p, self.k,
                                     tuple(c * other for c in self.v),
                                     self.scale)
        if isinstance(other, Fraction):
            return self * CycloSum.from_fraction(other, self.p)
        if self.p != other.p:
            raise PreconditionError("mixed-prime values are not combinable")
        p = self.p
        k = max(self.k, other.k)
        out = _cyclic_product(self.v, p ** (k - self.k),
                              other.v, p ** (k - other.k), p ** k)
        return CycloSum._reduced(p, k, tuple(out), self.scale + other.scale)

    __rmul__ = __mul__

    def conjugate(self):
        """Complex conjugate: each root of unity goes to its inverse."""
        v = self.v
        return CycloSum._reduced(self.p, self.k, v[:1] + v[:0:-1], self.scale)

    def _terms(self):
        """(r, v[r]) for the nonzero coefficients."""
        return [(r, c) for r, c in enumerate(self.v) if c]

    def complex_value(self):
        tau = 2.0 * math.pi / len(self.v)
        terms = self._terms()
        re = math.fsum(c * math.cos(tau * r) for r, c in terms)
        im = math.fsum(c * math.sin(tau * r) for r, c in terms)
        return complex(re, im) / (self.p ** self.scale)

    def magnitude(self):
        return abs(self.complex_value())

    def real_sign(self):
        """Certified sign (-1, 0 or 1) of the real part.

        A rational real part is compared exactly.  An irrational one is
        nonzero; its twice-scaled sum sum_r c_r cos(2 pi r / p^k) is
        evaluated as sum_r c_r t_r with integers t_r = `cos_fixed(r, p^k,
        prec)`, each within 1 of 2^prec cos, so the sum lies within
        sum_r |c_r| of 2^prec times the true one.  The precision starts at
        64 bits and doubles until that bound decides the sign.
        """
        re2 = (self + self.conjugate()).canonical()
        if re2.k == 0:
            c = re2.v[0]
            return (c > 0) - (c < 0)
        pk = len(re2.v)
        terms = re2._terms()
        slack = sum(abs(c) for _, c in terms)
        prec, max_prec = 64, 2 ** 14
        while prec <= max_prec:
            total = sum(c * cos_fixed(r, pk, prec) for r, c in terms)
            if abs(total) > slack:
                return 1 if total > 0 else -1
            prec *= 2
        raise VerificationError(f"sign not resolved at {max_prec} bits")

    def at_most(self, bound):
        """Certified self <= bound for a real value and a rational bound
        whose denominator is a power of p: the sign of self - bound is
        exact when the difference is rational and certified by
        `real_sign` when it is irrational (then it is nonzero)."""
        return (self - CycloSum.from_fraction(bound, self.p)).real_sign() <= 0
