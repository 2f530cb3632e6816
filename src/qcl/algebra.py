"""Exact arithmetic cores: integral quaternions in the Hurwitz order, the
local division-order presentation at odd primes, and exact values of
prime-power exponential sums.

The flat 4-tuple helpers below (2x2 product, determinant, trace, adjugate
and the Hamilton product) are the one definition of that arithmetic; the
exponential sums, the geometry checks and HurwitzQuat all use them.

All values are immutable after construction; every operation is a pure
function, so everything here is safe to share across threads.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import PreconditionError, VerificationError

# ---------------------------------------------------------------------------
# Flat 4-tuples: 2x2 matrices (a, b, c, d) = [[a, b], [c, d]] and quaternions
# (w, x, y, z) = w + x i + y j + z k.  Exact for any number type; those that
# take q reduce mod q only when it is given, and none converts to Fraction.
# ---------------------------------------------------------------------------


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


def quat_mul_flat(x, y):
    """Hamilton product of two quaternion coordinate 4-tuples."""
    a0, a1, a2, a3 = x
    b0, b1, b2, b3 = y
    return (a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
            a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
            a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
            a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0)


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
        # Hamilton product of the doubled vectors is 4x the true product,
        # so halving it gives the doubled coordinates of the product.
        p0, p1, p2, p3 = quat_mul_flat(self.c, other.c)
        if (p0 | p1 | p2 | p3) & 1:
            raise VerificationError("product left the order (odd doubled sum)")
        return HurwitzQuat(p0 // 2, p1 // 2, p2 // 2, p3 // 2)

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

    def sup_norm(self):
        """max |coordinate| in true (non-doubled) units, as a Fraction."""
        return Fraction(max(abs(ci) for ci in self.c), 2)

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

    def true_coords_mod(self, m):
        """Coordinates (w,x,y,z) as residues mod odd m (2 is a unit mod m)."""
        if m % 2 == 0:
            raise PreconditionError("true coordinates need an odd modulus")
        inv2 = pow(2, -1, m)
        return tuple((ci * inv2) % m for ci in self.c)


HQ_ONE = HurwitzQuat(2, 0, 0, 0)
HQ_I = HurwitzQuat(0, 2, 0, 0)
HQ_J = HurwitzQuat(0, 0, 2, 0)
HQ_K = HurwitzQuat(0, 0, 0, 2)
HQ_OMEGA = HurwitzQuat(1, 1, 1, 1)  # (1+i+j+k)/2

#: basis of the order as a Z-module: 1, i, j, (1+i+j+k)/2
HQ_BASIS = (HQ_ONE, HQ_I, HQ_J, HQ_OMEGA)


def hq_from_basis_coords(v):
    """Inverse of hq_to_basis_coords: integer coefficients -> element."""
    a, b, c, d = (int(t) for t in v)
    return HurwitzQuat(2 * a + d, 2 * b + d, 2 * c + d, d)


def hq_to_basis_coords(x):
    """Coefficients of x in the Z-basis (1, i, j, (1+i+j+k)/2)."""
    c0, c1, c2, c3 = x.c
    # equal parities make each difference even
    return ((c0 - c3) // 2, (c1 - c3) // 2, (c2 - c3) // 2, c3)


# ---------------------------------------------------------------------------
# Local division order at an odd prime
# ---------------------------------------------------------------------------


def smallest_nonresidue(p):
    """Smallest positive quadratic non-residue mod an odd prime."""
    for u in range(2, p):
        if pow(u, (p - 1) // 2, p) == p - 1:
            return u
    raise PreconditionError(f"{p} has no non-residue; not an odd prime?")


class NonsplitLocalElem:
    """Element of the local division order at an odd prime p, to precision
    p^N, in the basis 1, s, P, s*P where s^2 = u (a unit non-square) and
    P^2 = p, with the twist P*alpha = conj(alpha)*P.
    """

    __slots__ = ("z", "p", "N", "u")

    def __init__(self, z, p, N, u=None):
        if p == 2:
            raise PreconditionError("this presentation needs odd residue characteristic")
        if u is None:
            u = smallest_nonresidue(p)
        m = p ** N
        object.__setattr__(self, "z", tuple(int(t) % m for t in z))
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "u", u)

    def __setattr__(self, *a):
        raise AttributeError("NonsplitLocalElem is immutable")

    def _check(self, other):
        if (self.p, self.N, self.u) != (other.p, other.N, other.u):
            raise PreconditionError("presentation mismatch (p, precision, or u)")

    def __repr__(self):
        return f"NonsplitLocalElem({self.z}, p={self.p}, N={self.N}, u={self.u})"

    def __eq__(self, other):
        return (isinstance(other, NonsplitLocalElem)
                and (self.z, self.p, self.N, self.u) == (other.z, other.p, other.N, other.u))

    def __hash__(self):
        return hash((self.z, self.p, self.N, self.u))

    def __add__(self, other):
        self._check(other)
        return NonsplitLocalElem(
            tuple(a + b for a, b in zip(self.z, other.z)), self.p, self.N, self.u)

    def __sub__(self, other):
        self._check(other)
        return NonsplitLocalElem(
            tuple(a - b for a, b in zip(self.z, other.z)), self.p, self.N, self.u)

    def __neg__(self):
        return NonsplitLocalElem(tuple(-a for a in self.z), self.p, self.N, self.u)

    def __mul__(self, other):
        if isinstance(other, int):
            return NonsplitLocalElem(
                tuple(a * other for a in self.z), self.p, self.N, self.u)
        self._check(other)
        p, u = self.p, self.u
        # write x = A + B*P, y = C + D*P with A,B,C,D in Z[s]/(s^2-u);
        # then x*y = (A*C + p*B*conj(D)) + (A*D + B*conj(C))*P
        a1, a2, b1, b2 = self.z
        c1, c2, d1, d2 = other.z
        # quadratic-extension helpers: (x1 + x2 s)(y1 + y2 s)
        def qmul(x1, x2, y1, y2):
            return (x1 * y1 + u * x2 * y2, x1 * y2 + x2 * y1)
        ac1, ac2 = qmul(a1, a2, c1, c2)
        bd1, bd2 = qmul(b1, b2, d1, -d2)
        ad1, ad2 = qmul(a1, a2, d1, d2)
        bc1, bc2 = qmul(b1, b2, c1, -c2)
        return NonsplitLocalElem(
            (ac1 + p * bd1, ac2 + p * bd2, ad1 + bc1, ad2 + bc2),
            p, self.N, u)

    __rmul__ = __mul__

    def conjugate(self):
        z = self.z
        return NonsplitLocalElem((z[0], -z[1], -z[2], -z[3]), self.p, self.N, self.u)

    def trd(self):
        return (2 * self.z[0]) % (self.p ** self.N)

    def nrd(self):
        z1, z2, z3, z4 = self.z
        p, u = self.p, self.u
        return (z1 * z1 - u * z2 * z2 - p * z3 * z3 + p * u * z4 * z4) % (p ** self.N)


# ---------------------------------------------------------------------------
# Exact prime-power exponential-sum values
# ---------------------------------------------------------------------------


def _cyclic_product(a, sa, b, sb, n):
    """{r: c} with c != 0 for (sum a[r] x^(r sa)) (sum b[r] x^(r sb)) taken
    mod x^n - 1, where every r * sa and r * sb lies in [0, n).

    Kronecker substitution: each operand is evaluated at x = 2^w as one
    signed Python int, packed by shifting, and one big-integer product
    replaces the |a| |b| coefficient products.  Every coefficient of the
    product, before and after the fold mod x^n - 1, is at most
    B = min(max|a| sum|b|, sum|a| max|b|) in absolute value (so is every
    input coefficient), and w is chosen with 2^(w-1) >= B + 2.  Adding
    2^(w-1) to each of the n folded coefficients then gives digits in
    [2, 2^w - 2], so that sum is the residue of product + offset mod
    2^(n w) - 1 (the value of x^n - 1), and its base-2^w digits minus
    2^(w-1) are the coefficients.  Exact at any coefficient size.
    """
    absa = [abs(c) for c in a.values()]
    absb = [abs(c) for c in b.values()]
    bound = min(max(absa) * sum(absb), sum(absa) * max(absb))
    width = ((bound + 1).bit_length() + 8) // 8  # bytes per digit
    bits = 8 * width

    def evaluate(d, s):
        pos = neg = 0
        for r, c in d.items():
            if c > 0:
                pos |= c << (r * s * bits)
            else:
                neg |= -c << (r * s * bits)
        return pos - neg

    prod = evaluate(a, sa) * evaluate(b, sb)
    span = n * bits
    modulus = (1 << span) - 1
    half = 1 << (bits - 1)
    offset = modulus // ((1 << bits) - 1) * half  # half in every digit
    # prod = high 2^span + low, and 2^span = 1 mod the modulus
    folded = ((prod & modulus) + (prod >> span) + offset) % modulus
    raw = folded.to_bytes(n * width, "little")
    out = {}
    for r in range(n):
        c = int.from_bytes(raw[r * width:(r + 1) * width], "little") - half
        if c:
            out[r] = c
    return out


class CycloSum:
    """Exact value p^(-scale) * sum_r counts[r] * e^(2 pi i r / p^k).

    Canonical form restricts support to exponents r < p^k - p^(k-1)
    (the remaining powers of the root of unity form a Q-basis), drops
    the conductor when the support allows it, and strips common p-factors
    against the scale. A value built by canonical() is marked as such, so
    canonicalizing it again returns it as it is. Equality and zero tests are
    exact on canonical forms; real_sign() certifies the sign of the real part, at_most()
    compares a real value with a rational bound through it, and
    magnitude() is an approximate float.  The product of two values is one
    big-integer product by Kronecker substitution (_cyclic_product), exact
    at any coefficient size.
    """

    __slots__ = ("p", "k", "counts", "scale", "_canonical")

    def __init__(self, p, k, counts, scale=0):
        if scale < 0:
            raise PreconditionError("negative scale; multiply counts instead")
        object.__setattr__(self, "p", int(p))
        object.__setattr__(self, "k", int(k))
        pk = p ** k
        cc = {}
        for r, c in counts.items():
            c = int(c)
            if c:
                r = int(r) % pk
                cc[r] = cc.get(r, 0) + c
        object.__setattr__(self, "counts", {r: c for r, c in cc.items() if c})
        object.__setattr__(self, "scale", int(scale))
        object.__setattr__(self, "_canonical", False)

    @classmethod
    def _reduced(cls, p, k, counts, scale, canonical=False):
        """Trusted constructor: `counts` is a dict the caller no longer
        uses, with int exponents already in [0, p^k), nonzero int counts and
        int scale >= 0, so nothing is re-reduced or copied. `canonical`
        says that the value is already in canonical form."""
        self = object.__new__(cls)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "_canonical", canonical)
        return self

    def __setattr__(self, *a):
        raise AttributeError("CycloSum is immutable")

    @classmethod
    def from_int(cls, n, p=2):
        return cls(p, 0, {0: n}, 0)

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
        return cls(p, 0, {0: fr.numerator}, s)

    @classmethod
    def root(cls, p, k, r):
        """The single root of unity e^(2 pi i r / p^k)."""
        return cls(p, k, {r: 1}, 0)

    def __repr__(self):
        return f"CycloSum(p={self.p}, k={self.k}, scale={self.scale}, counts={self.counts})"

    # -- canonicalization ---------------------------------------------------

    def canonical(self):
        if self._canonical:
            return self
        p = self.p
        k = self.k
        counts = dict(self.counts)
        while True:
            if k == 0:
                break
            pk = p ** k
            pk1 = pk // p
            top = pk - pk1
            changed = True
            while changed:
                changed = False
                for r in [r for r in counts if r >= top]:
                    c = counts.pop(r, 0)
                    if not c:
                        continue
                    base = r % pk1
                    for t in range(p - 1):
                        rr = base + t * pk1
                        counts[rr] = counts.get(rr, 0) - c
                    changed = True
            counts = {r: c for r, c in counts.items() if c}
            if counts and all(r % p == 0 for r in counts):
                counts = {r // p: c for r, c in counts.items()}
                k -= 1
                continue
            if not counts:
                k = 0
                continue
            break
        scale = self.scale
        if not counts:
            return CycloSum._reduced(p, 0, {}, 0, canonical=True)
        while scale > 0 and all(c % p == 0 for c in counts.values()):
            counts = {r: c // p for r, c in counts.items()}
            scale -= 1
        return CycloSum._reduced(p, k, counts, scale, canonical=True)

    def is_zero(self):
        return not self.canonical().counts

    def is_rational(self):
        return self.canonical().k == 0

    def to_fraction(self):
        c = self.canonical()
        if c.k != 0:
            raise PreconditionError("value is irrational")
        return Fraction(c.counts.get(0, 0), c.p ** c.scale)

    def __eq__(self, other):
        if isinstance(other, int):
            other = CycloSum.from_int(other, self.p)
        if not isinstance(other, CycloSum):
            return NotImplemented
        a, b = self.canonical(), other.canonical()
        if a.k == 0 and b.k == 0:
            return Fraction(a.counts.get(0, 0), a.p ** a.scale) == \
                Fraction(b.counts.get(0, 0), b.p ** b.scale)
        return (a.p, a.k, a.scale, a.counts) == (b.p, b.k, b.scale, b.counts)

    def __hash__(self):
        c = self.canonical()
        if c.k == 0:
            return hash(Fraction(c.counts.get(0, 0), c.p ** c.scale))
        return hash((c.p, c.k, c.scale, tuple(sorted(c.counts.items()))))

    # -- arithmetic ----------------------------------------------------------

    def _aligned(self, other):
        if isinstance(other, int):
            other = CycloSum.from_int(other, self.p)
        if self.p != other.p:
            a, b = self.canonical(), other.canonical()
            if a.k == 0 and a.scale == 0:
                a = CycloSum(b.p, 0, a.counts, 0)
            elif b.k == 0 and b.scale == 0:
                b = CycloSum(a.p, 0, b.counts, 0)
            else:
                raise PreconditionError("mixed-prime values are not combinable")
        else:
            a, b = self, other
        k = max(a.k, b.k)
        s = max(a.scale, b.scale)
        p = a.p

        def lift(v):
            mult = p ** (s - v.scale)
            shift = p ** (k - v.k)
            return {r * shift: c * mult for r, c in v.counts.items()}
        return p, k, s, lift(a), lift(b)

    def __add__(self, other):
        p, k, s, ca, cb = self._aligned(other)
        out = dict(ca)
        for r, c in cb.items():
            out[r] = out.get(r, 0) + c
        return CycloSum(p, k, out, s)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, int):
            other = CycloSum.from_int(other, self.p)
        return self + (-other)

    def __neg__(self):
        return CycloSum(self.p, self.k, {r: -c for r, c in self.counts.items()}, self.scale)

    def __mul__(self, other):
        if isinstance(other, int):
            return CycloSum(self.p, self.k,
                            {r: c * other for r, c in self.counts.items()}, self.scale)
        if isinstance(other, Fraction):
            return self * CycloSum.from_fraction(other, self.p)
        if self.p != other.p:
            raise PreconditionError("mixed-prime values are not combinable")
        p = self.p
        k = max(self.k, other.k)
        scale = self.scale + other.scale
        if not self.counts or not other.counts:
            return CycloSum(p, k, {}, scale)
        out = _cyclic_product(self.counts, p ** (k - self.k),
                              other.counts, p ** (k - other.k), p ** k)
        return CycloSum._reduced(p, k, out, scale)

    __rmul__ = __mul__

    def conjugate(self):
        """Complex conjugate: each root of unity goes to its inverse."""
        pk = self.p ** self.k
        return CycloSum._reduced(self.p, self.k,
                                 {(-r) % pk: c for r, c in self.counts.items()},
                                 self.scale)

    def scale_down(self, j):
        """Multiply the value by p^(-j)."""
        scale = self.scale + int(j)
        if scale < 0:
            raise PreconditionError("negative scale; multiply counts instead")
        return CycloSum._reduced(self.p, self.k, dict(self.counts), scale)

    def scale_up(self, j):
        """Multiply the value by p^(+j)."""
        if j <= self.scale:
            return CycloSum(self.p, self.k, self.counts, self.scale - j)
        mult = self.p ** (j - self.scale)
        return CycloSum(self.p, self.k,
                        {r: c * mult for r, c in self.counts.items()}, 0)

    def complex_value(self):
        tau = 2.0 * math.pi / (self.p ** self.k)
        re = math.fsum(c * math.cos(tau * r) for r, c in self.counts.items())
        im = math.fsum(c * math.sin(tau * r) for r, c in self.counts.items())
        return complex(re, im) / (self.p ** self.scale)

    def magnitude(self):
        return abs(self.complex_value())

    def real_sign(self):
        """Certified sign (-1, 0 or 1) of the real part.

        A rational real part is compared exactly.  An irrational one is
        nonzero; its twice-scaled sum sum_r c_r cos(2 pi r / p^k) is
        evaluated as sum_r c_r t_r with integers t_r = round(2^prec cos),
        each within 1 of 2^prec cos (mpmath at prec + 10 bits), so the sum
        lies within sum_r |c_r| of 2^prec times the true one.  The precision
        starts at 64 bits and doubles until that bound decides the sign.
        """
        re2 = (self + self.conjugate()).canonical()
        if re2.k == 0:
            c = re2.counts.get(0, 0)
            return (c > 0) - (c < 0)
        import mpmath  # only irrational comparisons need it

        pk = self.p ** re2.k
        slack = sum(abs(c) for c in re2.counts.values())
        prec, max_prec = 64, 2 ** 14
        while prec <= max_prec:
            with mpmath.workprec(prec + 10):
                total = sum(c * int(mpmath.nint(mpmath.ldexp(
                    mpmath.cospi(mpmath.mpf(2 * r) / pk), prec)))
                    for r, c in re2.counts.items())
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
