"""Exact counts of quaternion tuples solving a signed sum-of-squares equation.

Counts gamma = (gamma_1, ..., gamma_n) with integral quaternion entries of
bounded height satisfying sum_i upsilon_i * gamma_i^2 = 0, upsilon_i = +-1.
Two independent engines are provided: a direct nested enumeration
(brute_count) and a meet-in-the-middle convolution over sparse value
histograms (conv_count).  They must agree exactly wherever both run.  Both
read the squares of a height box, an int64 array of doubled coordinates
squared in one `algebra.doubled_mul_flat` product over the whole box.

A histogram keeps its values as sorted packed keys, coordinate 3 in the
top 16 bits.  The convolution forms its pair sums in blocks of consecutive
top lanes (`dist_convolve`), so it holds one block of pair sums plus its
output, and it refuses a pair of histograms with more than
`_CONV_PAIR_CAP` pairs before it allocates.  The slots meet in the
zero-count tree of the local densities, `algebra.zero_mass`.

The traceless slice is counted twice as well: once through the quaternion
engine and once as a plain integer quadric in 3n variables; the two agree
because a traceless quaternion squares to a rational scalar.
"""

import functools
import itertools
import math

import numpy as np

from .algebra import doubled_mul_flat, exact_dot, zero_mass
from .errors import BudgetError, PreconditionError, VerificationError

# Packed key layout: four signed 16-bit lanes in one 64-bit word.  The three
# low lanes carry a +2^15 bias; the top lane is stored as a signed multiple
# of 2^48 so the packed word stays inside int64.
_LANE_BIAS = 1 << 15
_BIAS3 = _LANE_BIAS | (_LANE_BIAS << 16) | (_LANE_BIAS << 32)

_CONV_BLOCK = 1 << 15  # max pair sums per dist_convolve block
_BRUTE_BLOCK = 1 << 16  # max tuple sums per brute_count block

#: cap on the cells of the value box of one `conv_count`
_CONV_SUPPORT_CAP = 5 * 10 ** 9
#: cap on the pair sums |a| * |b| of one `dist_convolve`
_CONV_PAIR_CAP = 5 * 10 ** 7
#: cap on the slot-box cells times the slots of one `traceless_count`
_TRACELESS_CAP = 10 ** 8


def pack_key(v):
    """Pack 4-vectors of small integers into 64-bit keys: an (N, 4) int64
    array gives N keys, a 4-tuple one.

    Every coordinate must satisfy |t| < 2^15.  Shifted by 2^15 - 1, such a
    coordinate lies in [0, 2^16 - 2]; every other int64, shifted (with
    wrap-around) and read as uint64, is larger, so one comparison checks
    the whole array."""
    try:
        v = np.asarray(v, dtype=np.int64)
    except OverflowError:  # a Python int past int64
        raise PreconditionError("coordinate out of int64 range") from None
    if ((v + (_LANE_BIAS - 1)).view(np.uint64) > 2 * _LANE_BIAS - 2).any():
        raise PreconditionError("coordinate out of 16-bit lane range")
    return ((v[..., 3] << 48) + ((v[..., 2] + _LANE_BIAS) << 32)
            + ((v[..., 1] + _LANE_BIAS) << 16) + (v[..., 0] + _LANE_BIAS))


def _neg_key(keys):
    # pack(-v) = 2*BIAS3 - pack(v): the top lane negates natively, the
    # biased lanes reflect around the bias.
    return 2 * _BIAS3 - keys


class SparseDist:
    """Histogram of 4-coordinate integer values under packed 64-bit keys.

    keys is a strictly increasing int64 array (checked, not sorted here),
    counts the matching multiplicities, and bound is the declared max
    absolute coordinate (used to rule out lane carries when two
    distributions are convolved).
    """

    __slots__ = ("keys", "counts", "bound", "mass")

    def __init__(self, keys, counts, bound):
        self.keys = np.ascontiguousarray(keys)
        self.counts = np.ascontiguousarray(counts)
        if (self.keys[1:] <= self.keys[:-1]).any():
            raise PreconditionError("keys must be strictly increasing")
        self.bound = int(bound)
        if self.bound >= _LANE_BIAS:
            raise PreconditionError("coordinate bound exceeds 16-bit lanes")
        self.mass = int(np.sum(self.counts, dtype=object))

    @classmethod
    def from_values(cls, values, bound):
        """Build from an (N, 4) integer array, one row per occurrence."""
        keys = pack_key(values)
        uk, uc = np.unique(keys, return_counts=True)
        return cls(uk, uc.astype(np.int64), bound)

    def multiplicity(self, v):
        key = int(pack_key(v))
        i = int(np.searchsorted(self.keys, key))
        if i < len(self.keys) and int(self.keys[i]) == key:
            return int(self.counts[i])
        return 0


def _slabs(keys):
    """(top lane, start, length) of each run of one top lane in sorted
    keys: the top lane of a key is key >> 48, since the biased low lanes
    fill the low 48 bits with a nonnegative number."""
    tops, starts = np.unique(keys >> 48, return_index=True)
    return tops, starts, np.diff(np.append(starts, len(keys)))


def _reduce(keys, counts):
    """The distinct keys, sorted, and the summed counts of each.  The sort
    is stable, so it merges presorted runs (the carry, and each row of a
    block) instead of sorting from scratch."""
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    counts = counts[order]
    del order
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    return keys[starts], np.add.reduceat(counts, starts)


def _block_sums(a, b):
    """Distinct pair sums of a and b, sorted, with their summed counts.

    A sum of top lane s comes from an a-slab of top i and a b-slab of top
    s - i.  A row pairs one key of a with one b-slab; the rows are listed
    in order of their sums' top lane, and their pair sums are cut into
    blocks of `_CONV_BLOCK`, edges falling anywhere, even inside a row.
    Each block is reduced on its own.  Its sums of the next block's first
    top lane may meet more of that lane, so they are carried into the next
    block; the rest are final and come out in key order.
    """
    ta, sa, la = _slabs(a.keys)
    tb, sb, lb = _slabs(b.keys)
    if len(a.keys) * len(tb) > len(b.keys) * len(ta):  # the fewer rows
        (ta, sa, la), (tb, sb, lb) = (tb, sb, lb), (ta, sa, la)
        a, b = b, a
    i, j = (g.ravel() for g in np.meshgrid(np.arange(len(ta)),
                                           np.arange(len(tb)), indexing="ij"))
    s = ta[i] + tb[j]
    order = np.argsort(s, kind="stable")
    i, j, s = i[order], j[order], s[order]
    # one row per key of slab i: key x of a against the b-keys y0 .. y0+w-1
    slab = np.repeat(np.arange(len(i)), la[i])
    first = np.cumsum(la[i]) - la[i]  # the first row of each slab pair
    x = sa[i][slab] + np.arange(len(slab)) - first[slab]
    y0, w, top = sb[j][slab], lb[j][slab], s[slab]
    del slab, first
    # row r covers the pair sums cum[r] .. cum[r + 1] - 1
    cum = np.concatenate(([0], np.cumsum(w)))
    total = int(cum[-1])
    empty = np.empty(0, np.int64)
    parts_k, parts_c, carry_k, carry_c = [empty], [empty], empty, empty
    for p0 in range(0, total, _CONV_BLOCK):
        p1 = min(p0 + _CONV_BLOCK, total)
        r0 = np.searchsorted(cum, p0, side="right") - 1
        r1 = np.searchsorted(cum, p1, side="left")
        lens = np.diff(np.clip(cum[r0:r1 + 1], p0, p1))
        xs = np.repeat(x[r0:r1], lens)
        ys = np.arange(p0, p1) - np.repeat(cum[r0:r1] - y0[r0:r1], lens)
        keys, counts = _reduce(
            np.concatenate((carry_k, a.keys[xs] + b.keys[ys] - _BIAS3)),
            np.concatenate((carry_c, a.counts[xs] * b.counts[ys])))
        del xs, ys
        cut = len(keys)
        if p1 < total:
            cut = np.searchsorted(keys, top[r1 - (cum[r1] > p1)] << 48)
        parts_k.append(keys[:cut].copy())
        parts_c.append(counts[:cut].copy())
        carry_k, carry_c = keys[cut:], counts[cut:]
    return np.concatenate(parts_k), np.concatenate(parts_c)


def dist_convolve(a, b):
    """Exact additive convolution of two SparseDists.

    Refuses (`BudgetError`) when |a| * |b| exceeds `_CONV_PAIR_CAP`, before
    anything is allocated: the output has at most |a| * |b| keys.  Memory
    is one block of `_CONV_BLOCK` pair sums (with its sort and the carried
    sums of one top lane), the row table of `_block_sums` (one row per key
    of one side and top lane of the other, whichever is fewer) and the
    output.
    """
    if a.bound + b.bound >= _LANE_BIAS:
        raise PreconditionError("convolution would overflow key lanes")
    if len(a.keys) * len(b.keys) > _CONV_PAIR_CAP:
        raise BudgetError("convolution pairs exceed memory budget")
    # the key arithmetic a+b-BIAS3 is carry-free once the bound check holds
    keys, counts = _block_sums(a, b)
    out = SparseDist(keys, counts, a.bound + b.bound)
    # int64 count products wrap silently; the exact masses expose it
    if out.mass != a.mass * b.mass:
        raise VerificationError(
            f"convolution mass {out.mass} != {a.mass} * {b.mass}")
    return out


def dist_pair_zero(a, b):
    """sum_v a(v) * b(-v), exact: one `algebra.exact_dot` of the matched
    counts, in int64 under the overflow rule of the two masses."""
    targets = _neg_key(a.keys)
    idx = np.searchsorted(b.keys, targets)
    ok = idx < len(b.keys)
    ok[ok] &= b.keys[idx[ok]] == targets[ok]
    return exact_dot(a.counts[ok], b.counts[idx[ok]], a.mass, b.mass)


def _grid(*axes):
    """Rows of the Cartesian product of the axes, the last varying fastest
    (the order of itertools.product), as an int64 array."""
    return np.stack(np.meshgrid(*axes, indexing="ij"),
                    axis=-1).reshape(-1, len(axes)).astype(np.int64)


def hurwitz_box(X):
    """All integral quaternions of sup-norm at most X, as an (N, 4) int64
    array of doubled coordinates: first every all-even row, then every
    all-odd one, each bounded by 2X in absolute value, so the box has
    (2X+1)^4 + (2X)^4 rows.
    """
    if X < 1:
        raise PreconditionError("height must be >= 1")
    evens = np.arange(-2 * X, 2 * X + 1, 2)
    odds = np.arange(-2 * X + 1, 2 * X, 2)
    return np.concatenate([_grid(*[r] * 4) for r in (evens, odds)])


@functools.lru_cache(maxsize=8)
def _box_squares(X, traceless):
    """Doubled coordinates of g^2 over the height-X box, one row per g, as
    an int64 array squared once per (X, traceless) and read-only, since
    every caller shares it."""
    if traceless:
        t = np.arange(-2 * X, 2 * X + 1, 2)
        box = _grid([0], t, t, t)
    else:
        box = hurwitz_box(X)
    g = tuple(box.T)
    squares = np.stack(doubled_mul_flat(g, g), axis=1)
    squares.flags.writeable = False
    return squares


def slot_square_values(sign, X, traceless=False):
    """Doubled coordinates of sign * g^2 over the height-X box, as an (N, 4)
    int64 array; a sign only negates the memoised squares."""
    if sign not in (1, -1):
        raise PreconditionError("signs must be +-1")
    squares = _box_squares(X, traceless)
    return squares if sign == 1 else -squares


@functools.lru_cache(maxsize=16)
def slot_square_dist(sign, X, traceless=False):
    """SparseDist of sign * g^2 over the height-X box, built once per
    (sign, X, traceless); its arrays are read-only, since every caller
    shares it."""
    dist = SparseDist.from_values(slot_square_values(sign, X, traceless),
                                  2 * (2 * X) ** 2)
    dist.keys.flags.writeable = False
    dist.counts.flags.writeable = False
    return dist


def _check_signature(n, upsilon):
    upsilon = tuple(upsilon)
    if len(upsilon) != n:
        raise PreconditionError("need one sign per slot")
    if any(u not in (1, -1) for u in upsilon):
        raise PreconditionError("signs must be +-1")
    return upsilon


def brute_count(n, upsilon, X):
    """Exact solution count by direct enumeration.

    Enumerates every tuple (g_1, ..., g_{n-1}) of the first n-1 slots and
    resolves the last slot against a histogram of that slot's values.  Each
    distinct sign's slot is squared once.  Tuple sums are formed as int64
    arrays in blocks of slot-0 rows, each sum as a positional code in base
    2R+1 with balanced digits, where R bounds every coordinate of a partial
    sum and of a last-slot value; such a code is additive and one-to-one, so
    a code lookup in the last slot's sorted codes is a vector lookup.

    Exactness: a doubled coordinate of g^2 is at most 3(2X)^2/2 <= 24 in
    absolute value, so a partial coordinate is at most 2 * 24 = 48 and a
    code at most 48 * (97^4 - 1) / 96 < 2^26; a total is at most the
    881^3 = 683797841 < 2^30 tuples of n = 3 slots of the X = 2 box.  int64
    overflows nowhere.

    Independent of conv_count: it shares no code with SparseDist, pack_key
    or dist_convolve, only the slot values of slot_square_values.
    """
    if not 1 <= n <= 3 or X > 2:
        raise PreconditionError("brute engine is limited to n <= 3, X <= 2")
    upsilon = _check_signature(n, upsilon)
    squares = {u: slot_square_values(u, X) for u in set(upsilon)}
    slots = [squares[u] for u in upsilon]
    reach = max(n - 1, 1) * int(np.abs(slots[0]).max())
    weights = (2 * reach + 1) ** np.arange(4, dtype=np.int64)
    # the last slot solves the tuple when its value is minus the partial sum
    codes, counts = np.unique(-slots[-1] @ weights, return_counts=True)
    heads = slots[0] @ weights if n > 1 else np.zeros(1, dtype=np.int64)
    tails = [s @ weights for s in slots[1:-1]]
    rows = max(1, _BRUTE_BLOCK // math.prod(len(t) for t in tails))
    total = 0
    for start in range(0, len(heads), rows):
        keys = heads[start:start + rows]
        for t in tails:
            keys = (keys[:, None] + t[None, :]).ravel()
        idx = np.minimum(np.searchsorted(codes, keys), len(codes) - 1)
        total += int(counts[idx[codes[idx] == keys]].sum())
    return total


def conv_count(n, upsilon, X, traceless=False):
    """Exact solution count by sparse-histogram convolution.

    Builds the per-slot distribution of sign * g^2, convolves the slots in
    `algebra.zero_mass`, one node per distinct sign multiset, and reads the
    multiplicity of zero via a final meet-in-the-middle pairing.
    """
    if n == 0:
        return 1
    upsilon = _check_signature(n, upsilon)
    if (2 * n * (2 * X) ** 2 + 1) ** 4 > _CONV_SUPPORT_CAP:
        raise BudgetError("value support exceeds memory budget")
    dists = [slot_square_dist(u, X, traceless) for u in upsilon]
    if n == 1:
        return dists[0].multiplicity((0, 0, 0, 0))
    return zero_mass(dists, dist_convolve, dist_pair_zero)


def _quadric_histogram(sign, X):
    """Histogram of sign * (x^2 + y^2 + z^2) over the integer cube."""
    hist = {}
    for x, y, z in itertools.product(range(-X, X + 1), repeat=3):
        v = sign * (x * x + y * y + z * z)
        hist[v] = hist.get(v, 0) + 1
    return hist


def traceless_count(n, upsilon, X):
    """Count solutions with every slot traceless, by two unrelated engines.

    Returns (count, quadric_count): count runs the quaternion convolution
    engine restricted to traceless elements; quadric_count enumerates the
    3n-variable integer quadric sum_i upsilon_i (x_i^2+y_i^2+z_i^2) = 0
    without ever forming a quaternion.  A traceless quaternion squares to
    minus its norm, so the two are equal.
    """
    upsilon = _check_signature(n, upsilon)
    if (2 * X + 1) ** 3 * n > _TRACELESS_CAP:
        raise BudgetError("quadric slot enumeration too large")
    count = conv_count(n, upsilon, X, traceless=True)
    # independent scalar engine: 1D histogram convolution in exact integers
    acc = {0: 1}
    for u in upsilon:
        hist = _quadric_histogram(u, X)
        nxt = {}
        for a, ca in acc.items():
            for b, cb in hist.items():
                nxt[a + b] = nxt.get(a + b, 0) + ca * cb
        acc = nxt
    quadric = acc.get(0, 0)
    return count, quadric


def growth_report(n, upsilon, heights, traceless=False):
    """Counts at increasing heights with successive log2 slopes.

    Purely descriptive: the asymptotic regime is far beyond desk scale, so
    slopes are reported, never asserted.
    """
    upsilon = _check_signature(n, upsilon)
    heights = list(heights)
    if any(heights[i] >= heights[i + 1] for i in range(len(heights) - 1)):
        raise PreconditionError("heights must be strictly increasing")
    rows = []
    prev = None
    for X in heights:
        if traceless:
            cnt, _ = traceless_count(n, upsilon, X)
        else:
            cnt = conv_count(n, upsilon, X)
        slope = None
        if prev is not None and prev[1] > 0 and cnt > 0:
            slope = (math.log2(cnt / prev[1])
                     / math.log2(X / prev[0]))
        rows.append({"X": X, "count": cnt, "log2_slope": slope})
        prev = (X, cnt)
    return {
        "n": n,
        "upsilon": list(upsilon),
        "traceless": traceless,
        "rows": rows,
        "note": ("slopes are descriptive only; the asymptotic regime is "
                 "not reachable at these heights"),
    }
