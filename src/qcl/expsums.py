"""Local oscillatory integrals in the split 2x2 matrix model.

Main objects, all exact:

* `i0_local`: the constrained oscillatory integral over n matrix slots
  I0(delta, gamma) = avg over Y in O^n of
  [delta^{-1} P(Y) integral] * e(trd(gamma . Y) / det(delta)),
  where P(Y) = sum of slotwise squares (with optional unit coefficients).
* `w_class_sum_report`: the volume of auxiliary matrices Z for which a
  target lies on the scalar line through Z times the cyclic image
  generator, in closed form (`_measure`), summed over the witness
  classes, each named by its `padic.line_key`.
* `witness_report` / `local_integral_audit`: support, witness and magnitude
  bound checks for i0_local; at most one nonzero witness class exists, so
  the search tests one candidate slot with `padic.line_multiple`.
* `prime_case_report`: exact point-count identities at prime level.

Every sum over all 2x2 matrices Y mod q runs on one blocked grid kernel:
the mixed-radix key of the rows of L @ flat(Y^2), row i mod radii[i]
(`grid_square_keys`, which squares a broadcast block of Y with
`mat_mul_flat`), or t . flat(Y) mod q (`grid_linear_keys`, one table
gather), for every Y in grid order, as blocks of at most 2^16 rows: runs
of leading entry pairs (a, b) (`_grid_blocks`), one block up to 16^4 and
seven at 25^4. Nothing forms the (q^4, 4) grid; the one array here with
an entry per grid row is the cached two-slot box index. The kernel refuses
q^4 > 10^7 (`BudgetError`) when called, before it allocates; the cap
bounds the int64 counts of the two-slot join.

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

I0, S2 and S3 are entries of one count by phase (`_phase_counts`) of the
slot tuples Y with adj(delta) sum c_i Y_i^2 = 0. One slot bins its phase
over the solution set S = {Y : adj(delta) Y^2 = 0 mod p^v}, the rows of
box key 0 in one kernel pass; two slots make one pass per distinct
coefficient for the box index of every Y, and join per-slot (box index,
phase) histograms, q^2 x q entries, through the negation of the box.

The witness measure of a target t mod m = p^v is the volume of
{Z mod m : t in (Z/m) Z gen}, in closed form (`_measure`) by the Smith
form of gen. gen has a unit entry and det(gen) = 0 mod m, so its Smith
form mod m is diag(1, 0): every row of gen is c_i r for one primitive row
r, a row of gen with a unit entry (the other row minus a multiple of r
is zero at r's unit column and +-det(gen)/unit at the other). Z gen is
then (Z c) x r, and Z -> Z c is onto (Z/m)^2 as c is 1 at r's row, so
Z gen runs over the m^2 matrices c x r, c in (Z/m)^2, each hit by m^2 of
the m^4 matrices Z. A target t that is no c_t x r lies on no such line and
has volume 0; else c_t is read row by row with `padic.line_multiple`
against r. Let s = v_p(c_t), capped at v. At s = v (t = 0, and every t
when m = 1) every Z counts: volume 1. At s < v, the c whose span holds
c_t are p^j c' with j <= s and c' a unit multiple of c_t / p^s mod
p^(v-s), lifted mod p^(v-j): phi(p^(v-s)) p^(2(s-j)) of them for each j.
Summed over j and times m^2 / m^4, the volume is
(p - 1) p^(v-s-1) (p^(2s+2) - 1) / ((p^2 - 1) m^2).

Caches (`functools.lru_cache`):

* `_grid_blocks`: the leading pairs of each block, per q;
* `_slot_solutions` (12 entries): per (delta, p, v, coeff), S alone, from
  one kernel pass, for one slot only;
* `_slot_static` (12 entries): per (delta, p, v, coeff), the box index of
  every Y and the negation permutation of the box, from one pass, for two
  slots only;
* `_image_generator`: the cyclic image generator, per (eta mod m, m, p).

Matrices are passed as flat 4-tuples (e00, e01, e10, e11) of ints; their
product, determinant and adjugate are the flat helpers of `qcl.algebra`.
"""

from __future__ import annotations

import functools
import itertools
import random
from fractions import Fraction

import numpy as np

from .algebra import FLAT_UNITS, CycloSum, adj_flat, det_flat, mat_mul_flat
from .errors import BudgetError, PreconditionError, VerificationError
from .linalg import row_hnf
from .padic import line_key, line_multiple, pivot, pval, punit

#: cap on the grid size q^4; `_join_two_slots` rests its int64 bound on it
_GRID_CAP = 10 ** 7
#: most rows in one block of the grid kernels
_BLOCK_ROWS = 2 ** 16


@functools.lru_cache(maxsize=None)
def _grid_blocks(q):
    """The grid of Y = (a, b, c, d) mod q in blocks, after refusing a grid
    of more than `_GRID_CAP` matrices (BudgetError): per block, the (a, b)
    of a run of consecutive leading pairs. Each pair leads q^2 rows, so a
    block holds at most `_BLOCK_ROWS` rows on every grid under the cap;
    grids up to 16^4 are one block, 25^4 is seven. Cached per q (a refusal
    is not cached)."""
    if q ** 4 > _GRID_CAP:
        raise BudgetError(f"matrix grid {q}^4 exceeds budget")
    a, b = np.divmod(np.arange(q * q, dtype=np.int32), q)
    a.setflags(write=False)  # the blocks are views shared by every caller
    b.setflags(write=False)
    step = _BLOCK_ROWS // (q * q)
    return tuple((a[s:s + step], b[s:s + step])
                 for s in range(0, q * q, step))


def grid_linear_keys(row, q):
    """Key row . flat(Y) mod q for every Y mod q, as blocks of
    `_grid_blocks` in grid order: lexicographic in flat(Y). Every block is
    written into one int32 buffer of this call and returned as a view of
    it, valid until the next block. Refuses a grid past the cap when
    called, before any block is formed.

    Row (t0, t1, t2, t3) gives (t0 a + t1 b) + (t2 c + t3 d): the first
    part, reduced, picks one (q, q) run of the table
    tail[r, c, d] = (r + t2 c + t3 d) mod q per leading pair, so a block
    is one gather."""
    blocks = _grid_blocks(q)
    e = np.arange(q, dtype=np.int32)
    coef = np.array([int(t) % q for t in row], dtype=np.int32)
    t0, t1, t2, t3 = coef[:, None] * e % q
    tail = (e[:, None, None] + t2[:, None] + t3) % q
    out = np.empty((len(blocks[0][0]), q, q), dtype=np.int32)
    return (np.take(tail, (t0[a] + t1[b]) % q, axis=0, out=out[:len(a)],
                    mode="clip").ravel() for a, b in blocks)


def grid_square_keys(lmat, q, radii):
    """Mixed-radix key of the residues (row_i . flat(Y^2)) mod radii[i] for
    every Y mod q, in the blocks and grid order of `grid_linear_keys`, for
    four integer rows `lmat` and radii dividing q; the key of residues
    (k0, k1, k2, k3) is ((k0 r1 + k1) r2 + k2) r3 + k3, so radii (q,)*4
    pack L @ flat(Y^2) mod q lexicographically.

    A block broadcasts Y = (a, b, c, d) as int32 arrays, a and b of shape
    (pairs, 1, 1), c (q, 1) and d (q,), squares it with `mat_mul_flat`
    and forms the key row by row, in Horner order. Under the cap q <= 56,
    an entry of Y^2 is below 2 q^2, a row sum below 8 q^3 < 2^31 and a key
    below q^4, so int32 holds every step."""
    blocks = _grid_blocks(q)
    rows = [([int(t) % r for t in row], r) for row, r in zip(lmat, radii)]
    e = np.arange(q, dtype=np.int32)
    return (_square_block(rows, (a[:, None, None], b[:, None, None],
                                 e[:, None], e))
            for a, b in blocks)


def _square_block(rows, y):
    sq = mat_mul_flat(y, y)  # the last two entries span the block
    keys = 0
    for row, r in rows:  # in place: at most five arrays of block size live
        key = row[0] * sq[0] + row[1] * sq[1]
        key += row[2] * sq[2]
        key += row[3] * sq[3]
        key %= r
        key += keys * r
        keys = key
    return keys.ravel()


def left_mul_matrix(a):
    """4x4 integer matrix L with flat(A X) = L @ flat(X), column j read off
    at X = e_j."""
    return np.array([mat_mul_flat(a, e) for e in FLAT_UNITS],
                    dtype=np.int64).T


def right_mul_matrix(b):
    """4x4 integer matrix R with flat(X B) = R @ flat(X), column j read off
    at X = e_j."""
    return np.array([mat_mul_flat(e, b) for e in FLAT_UNITS],
                    dtype=np.int64).T


def _unpack(keys, q):
    """An (N,) array of keys to the (N, 4) array of their base-q digits,
    most significant first: the rows of a grid in grid order."""
    return np.stack([keys // q ** (3 - t) % q for t in range(4)], axis=1)


# ---------------------------------------------------------------------------
# The constrained local integral I0
# ---------------------------------------------------------------------------


def _slot_box(delta, p, vd, coeff):
    """(rows, radii) of the closed-form box key of coeff * adj(delta) X mod
    p^vd (module docstring), as rows against flat(X): r X mod p^b, one per
    column of X, then row j of X mod p^(b-w)."""
    adj = adj_flat(delta)
    i, a = pivot(adj, p, vd)  # a unit entry of E', in its first such row
    e = [t % p ** vd // p ** a for t in adj]
    b = vd - a
    w = pval((e[0] * e[3] - e[1] * e[2]) % p ** b, p, cap=b)
    r0, r1 = e[i & 2], e[(i & 2) + 1]
    j = 2 - 2 * (i & 1)  # flat index of the first entry of row j
    rows = [(r0, 0, r1, 0), (0, r0, 0, r1), FLAT_UNITS[j], FLAT_UNITS[j + 1]]
    return ([[coeff * t for t in row] for row in rows],
            (p ** b,) * 2 + (p ** (b - w),) * 2)


@functools.lru_cache(maxsize=12)
def _slot_solutions(delta, p, vd, coeff):
    """S = {Y mod q : coeff * adj(delta) Y^2 = 0 mod q}, q = p^vd, the
    rows of box key 0 in one pass of `grid_square_keys`, as an (|S|, 4)
    int64 array of coordinates.

    Cached per (delta tuple, p, vd, coeff); only one slot reads it."""
    q = p ** vd
    rows, radii = _slot_box(delta, p, vd, coeff)
    sol, start = [], 0
    for keys in grid_square_keys(rows, q, radii):  # refuses past the cap
        sol.append(start + np.flatnonzero(keys == 0))
        start += len(keys)
    sol = _unpack(np.concatenate(sol), q)
    sol.setflags(write=False)  # every caller shares the cached array
    return sol


@functools.lru_cache(maxsize=12)
def _slot_static(delta, p, vd, coeff):
    """One kernel pass over the grid of Y mod q = p^vd: the uint16 box index
    of coeff * adj(delta) Y^2 (`_slot_box`) for every Y, and neg[k], the
    index of the digitwise negation of box element k. At vd = v_p(det
    delta) the box has order q^2 <= 56^2 < 2^16; a larger one is refused.

    Cached per (delta tuple, p, vd, coeff); only two slots read it."""
    rows, radii = _slot_box(delta, p, vd, coeff)
    blocks = grid_square_keys(rows, p ** vd, radii)  # refuses past the cap
    if np.prod(radii) > 2 ** 16:
        raise PreconditionError(f"key box {radii} too large for uint16")
    neg = np.ravel_multi_index(
        tuple(-d % r for d, r in zip(np.indices(radii), radii)), radii).ravel()
    index, start = np.empty(p ** (4 * vd), dtype=np.uint16), 0
    for keys in blocks:
        index[start:start + len(keys)] = keys
        start += len(keys)
    index.setflags(write=False)  # every caller shares the cached arrays
    neg.setflags(write=False)
    return index, neg


def _slot_histogram(index, size, row, q):
    """(size, q) exact int64 counts of (box index, row . flat(Y) mod q)
    over the grid of Y mod q, binned block by block in place in the phase
    buffer of `grid_linear_keys` as phase * size + index < q 2^16 < 2^31."""
    hist, start = np.zeros(q * size, dtype=np.int64), 0
    for ph in grid_linear_keys(row, q):
        ph *= size
        ph += index[start:start + len(ph)]
        hist += np.bincount(ph, minlength=q * size)
        start += len(ph)
    return hist.reshape(q, size).T


def _phase_counts(delta, rows, p, vd, coeffs):
    """counts[r] = #{(Y_i) mod q : sum c_i adj(delta) Y_i^2 = 0,
    sum rows_i . flat(Y_i) = r mod q}, q = p^vd, for one or two slots with
    unit coefficients c_i: an exact int64 vector of length q, the one place
    the slot sum is formed.

    One slot bins its phase over the solution set S of `_slot_solutions`;
    two slots join their (box index, phase) histograms."""
    q = p ** vd
    delta = tuple(delta)
    if len(rows) == 1:
        sol = _slot_solutions(delta, p, vd, coeffs[0] % q)
        return np.bincount(sol @ np.array(rows[0]) % q, minlength=q)
    slots = [_slot_static(delta, p, vd, c % q) for c in coeffs]
    hists = [_slot_histogram(index, len(neg), row, q)
             for (index, neg), row in zip(slots, rows)]
    return _join_two_slots(*hists, slots[0][1], q)  # one box for every c


def _trace_row(g, q, unit=1):
    """The row t with unit * tr(g Y) = t . flat(Y) mod q."""
    return tuple(unit * int(g[t]) % q for t in (0, 2, 1, 3))


def i0_local(delta, gammas, p, coeffs=None):
    """Exact I0(delta, gamma) as a CycloSum.

    delta: flat 2x2 integer matrix with nonzero determinant;
    gammas: list of n flat matrices; coeffs: optional unit coefficients of
    the slotwise squares in P(Y).

    The average runs over Y mod p^v, v = v_p(det delta), which suffices:
    both the divisibility condition and the phase only depend on Y mod p^v.
    The phase tr(gamma_i Y_i) / u, u the unit part of det delta, is one row
    against flat(Y_i), binned by `_phase_counts`. The grid kernel refuses
    p^{4 v} > `_GRID_CAP` (BudgetError).
    """
    n = len(gammas)
    det = det_flat(delta)
    if det == 0:
        raise PreconditionError("delta must be invertible over the fractions")
    vd = pval(det, p)
    if coeffs is None:
        coeffs = [1] * n
    if len(coeffs) != n:
        raise PreconditionError("need one coefficient per slot")
    if vd == 0:
        return CycloSum.from_int(1, p)
    if n not in (1, 2):
        raise BudgetError("slot count limited to 1 or 2 here")
    if any(c % p == 0 for c in coeffs):
        raise PreconditionError("slot coefficients must be units")
    q = p ** vd
    inv_u = pow(punit(det, p, p ** (vd + 1)), -1, q)
    rows = [_trace_row(g, q, inv_u) for g in gammas]
    # the average of e(r / q) over the q^{4n} slot tuples
    return CycloSum(p, vd, _phase_counts(delta, rows, p, vd, coeffs),
                    scale=4 * n * vd)


def _join_two_slots(h1, h2, neg, q):
    """counts[r] = #{(Y1, Y2) : key1 + key2 = 0, ph1 + ph2 = r mod q} from
    two (box order, q) phase histograms over one box with negation `neg`:
    the rows k that slot 1 hits times rows neg[k] of slot 2, folded over
    (r1 + r2) mod q. Every count is at most q^8 <= 10^14 (the grid kernel
    caps q^4 at `_GRID_CAP`), far below 2^63, so int64 is exact."""
    live = np.flatnonzero(h1.any(axis=1))
    d = h1[live].T @ h2[neg[live]]  # d[r1, r2] = paired count
    r = np.arange(q)
    counts = np.zeros(q, dtype=np.int64)
    np.add.at(counts, (r[:, None] + r[None, :]) % q, d)
    return counts


# ---------------------------------------------------------------------------
# Cyclic image generator and the auxiliary measure
# ---------------------------------------------------------------------------

def matrix_cyclic_generator(eta, p):
    """Generator of the image of Y -> adj(eta) Y eta in M_2(Z/m), m = p^v
    with v = v_p(det eta), for primitive eta. The image is cyclic of order m;
    returns (gen_flat, m). Cached per (eta mod m, m, p)."""
    m = p ** pval(det_flat(eta), p)
    return _image_generator(tuple(t % m for t in eta), m, p), m


@functools.lru_cache(maxsize=None)
def _image_generator(eta, m, p):
    """`matrix_cyclic_generator` for eta reduced mod m; the image only
    depends on eta mod m."""
    if m == 1:
        return (0, 0, 0, 0)
    if min(pval(t, p, cap=1) for t in eta) > 0:
        raise PreconditionError("eta must be primitive")
    # flat(adj(eta) Y eta) = L R flat(Y); L and R commute
    cmat = (left_mul_matrix(adj_flat(eta)) @ right_mul_matrix(eta)) % m
    return _cyclic_generator(cmat, m, p)


def _cyclic_generator(cmat, m, p):
    """A generator of the Z/m-span of the four columns of the 4x4 matrix
    `cmat`, m = p^v. The span is cyclic of order m exactly when some column
    g has an entry that is a unit mod p and every column is a multiple of g;
    raises VerificationError otherwise. Any two generators differ by a unit
    factor, so every measure built on the generator is independent of the
    choice."""
    k = pval(m, p)
    cols = [tuple(int(x) % m for x in cmat[:, j]) for j in range(4)]
    gen = next((c for c in cols if pivot(c, p, k)[1] == 0), None)
    if gen is None:
        raise VerificationError(f"image has no element of order {m}")
    if any(line_multiple(c, gen, p, k) is None for c in cols):
        raise VerificationError(f"image is not cyclic of order {m}")
    return gen


def _right_image(b, m):
    """The distinct w = Z b over all Z mod m, as an (N, 4) int64 array: the
    enumeration from which `w_class_sum_report` reads the witness classes.

    Z -> Z b is Z/m-linear, with flat(Z b) = R flat(Z) for
    R = `right_mul_matrix(b)`, so the image is L / m Z^4 for the lattice L
    spanned by the rows of R^T and m I. Its upper-triangular Hermite basis
    H has pivots d_i dividing m, and the image is
    {c H mod m : 0 <= c_i < m / d_i}, each element once."""
    rows = right_mul_matrix(b).T % m
    rows = np.vstack([rows, m * np.eye(4, dtype=np.int64)]).tolist()
    basis = np.array(row_hnf(rows), dtype=np.int64)
    coeffs = np.indices([m // int(basis[i, i]) for i in range(4)])
    return coeffs.reshape(4, -1).T @ basis % m


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
    s = pivot(c, p, v)[1]
    if s == v:
        return Fraction(1)
    return Fraction((p - 1) * p ** (v - s - 1) * (p ** (2 * s + 2) - 1),
                    (p * p - 1) * m * m)


def w_class_sum_report(eta, p):
    """Sum of the measure factor over all witness classes, the targets
    Z eta mod m (`_right_image`) up to unit multiples, each named by its
    `line_key`; the structural bound is v + 1, v = v_p(det eta). Returns
    (classes, total, bound). By the closed form of `_measure` there are
    exactly 1 + (p + 1)(p^v - 1)/(p - 1) classes, and the total is
    v + 1 - (p^(2v) - 1)/(p^(2v) (p^2 - 1)), below the bound at v > 0."""
    gen, m = matrix_cyclic_generator(eta, p)
    v = pval(det_flat(eta), p)
    classes = {line_key(t, p, v) for t in _right_image(eta, m).tolist()}
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
    ge = [tuple(t % m for t in mat_mul_flat(g, eta)) for g in gprime]
    gen, _ = matrix_cyclic_generator(eta, p)

    vals = [pivot(t, p, veta)[1] for t in ge]
    i = vals.index(min(vals))
    mu = [line_multiple(t, ge[i], p, veta) for t in ge]
    witnesses, bound_sq = {}, None
    if None not in mu:
        mu[i] = 1  # slot i is 1 * itself, or the zero witness has mu = e_i
        key = line_key(ge[i], p, veta)
        wm = _measure(key, gen, m, p)
        witnesses[key] = (wm, tuple(mu))
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
    """|v|^2 of a CycloSum, as an exact Fraction when rational else a float."""
    sq = (v * v.conjugate()).canonical()
    if sq.is_rational():
        return sq.to_fraction()
    return sq.magnitude()


def local_integral_audit(p, n, vds=(1, 2), max_gammas=200, seed=0):
    """Audit the support, witness, and magnitude-bound laws of i0_local.

    For each test delta with v_p(det) in `vds`, iterate over gamma tuples
    mod det-level (exhaustively when the space is small, else seeded
    samples) and verify:
      * out-of-support gammas give exactly zero;
      * a nonzero value implies a witness exists;
      * |I0|^2 <= best witness bound squared, decided exactly
        (`CycloSum.at_most`);
      * the class-sum bound for the measure factors.
    Raises VerificationError on any failure; returns a summary dict.
    """
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
            space = level ** (4 * n)
            if space <= 10 ** 4:
                gamma_iter = itertools.product(
                    itertools.product(range(level), repeat=4), repeat=n)
            else:
                gamma_iter = (
                    tuple(tuple(rng.randrange(level) * rng.choice([1, p ** vdel])
                                for _ in range(4)) for _ in range(n))
                    for _ in range(max_gammas))
            count = nz = 0
            for gammas in gamma_iter:
                val = i0_local(delta, [list(g) for g in gammas], p)
                rep = witness_report(delta, list(gammas), p)
                if not rep["supported"]:
                    if not val.is_zero():
                        raise VerificationError(
                            f"support law failed: delta={delta} gammas={gammas}")
                    count += 1
                    continue
                if not val.is_zero():
                    nz += 1
                    if not rep["witnesses"]:
                        raise VerificationError(
                            f"witness law failed: delta={delta} gammas={gammas}")
                    bsq = rep["bound_sq"]
                    if not (val * val.conjugate()).at_most(bsq):
                        isq = cyclo_abs_sq(val)
                        raise VerificationError(
                            f"magnitude bound failed: delta={delta} "
                            f"gammas={gammas} |I0|^2={isq} bound^2={bsq}")
                count += 1
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
    n = len(s)
    grids = np.indices((q,) * n, dtype=np.int64).reshape(n, -1)
    sq = (grids * grids).sum(axis=0) % q
    lin = (grids * np.array(s, dtype=np.int64)[:, None]).sum(axis=0) % q
    return int(((sq == 0) & (lin == 0)).sum())


def s2_closed(q, n):
    return q ** (3 * n - 2) * (q ** n - 1) + q ** (2 * n) * x2_count(q, [0] * n)


def s2_brute(q, n):
    """S2 = #{Y in M_2(F_q)^n : adj(delta) sum Y_i^2 = 0} at
    delta = diag(q, 1): S3 at gamma = 0."""
    return s3_brute(q, n, [[(0, 0, 0, 0)] * n])[0]


def s3_brute(q, n, gamma_list):
    """Brute-force S3 = #{Y : adj(delta) sum Y_i^2 = 0, sum tr(gamma_i Y_i)
    = 0 mod q} at delta = diag(q, 1), for each gamma tuple of the list
    (n = 1 or 2): the phase-0 entry of `_phase_counts` at level 1."""
    return [int(_prime_counts(q, n, gammas)[0]) for gammas in gamma_list]


def _prime_counts(q, n, gammas):
    """`_phase_counts` at delta = diag(q, 1), level 1, whose phase unit is 1:
    entry 0 is S3 at gamma and the vector gives q^{4n} I0(delta, gamma)."""
    rows = [_trace_row(g, q) for g in gammas]
    return _phase_counts((q, 0, 0, 1), rows, q, 1, [1] * n)


def s3_closed(q, n, gammas):
    """The exact case-by-case formula for S3 at delta = diag(q, 1), q prime.

    gammas are the n flat matrices mod q; each gamma_i = [[s_i, u_i],
    [t_i, v_i]]. The residual point counts in the formula live in at most
    n+1 variables: the zeros of linear forms are counted in closed form
    (`_linear_zeros`), the quadrics directly.
    """
    s = [g[0] % q for g in gammas]
    u = [g[1] % q for g in gammas]
    t = [g[2] % q for g in gammas]
    v = [g[3] % q for g in gammas]
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
    cnt = 0
    for lam in range(q):
        rhs_quad = sum(t[i] * u[i] for i in range(n)) * lam * lam
        for a in itertools.product(range(q), repeat=n):
            lhs = sum(ai * ai for ai in a)
            rhs = sum((s[i] - v[i]) * a[i] for i in range(n)) * lam + rhs_quad
            if (lhs - rhs) % q == 0:
                cnt += 1
    return cnt


def prime_case_report(q, n, num_gamma=500, seed=0):
    """Exact prime-level identities. Raises VerificationError on failure."""
    rng = random.Random(seed)
    delta = (q, 0, 0, 1)
    report = {"q": q, "n": n, "checked": 0, "case_histogram": {}}

    s2b = s2_brute(q, n)
    if s2b != s2_closed(q, n):
        raise VerificationError("closed S2 formula mismatch")
    # identity (zero gamma): q^{4n} I0(delta, 0) = S2
    i00 = i0_local(delta, [(0, 0, 0, 0)] * n, q)
    if (i00 * q ** (4 * n) - CycloSum.from_int(s2b, q)).is_zero() is False:
        raise VerificationError("I0 at zero gamma does not match S2")
    report["s2"] = s2b

    gammas_seen = []
    # make sure all structural cases appear: targeted gammas + random ones
    forced = _forced_case_gammas(q, n)
    while len(gammas_seen) < num_gamma:
        if forced:
            g = forced.pop()
        else:
            g = tuple(tuple(rng.randrange(q) for _ in range(4)) for _ in range(n))
        gammas_seen.append(g)
    for g in gammas_seen:
        counts = _prime_counts(q, n, g)  # S3 and I0 from one vector
        s3c = s3_closed(q, n, g)
        if int(counts[0]) != s3c:
            raise VerificationError(f"closed S3 mismatch at gamma={g}")
        val = CycloSum(q, 1, counts, scale=4 * n)
        # q^{4n} (1 - 1/q) I0 = S3 - S2/q, exactly
        lhs = val * (q ** (4 * n) - q ** (4 * n - 1))
        rhs = CycloSum.from_fraction(Fraction(s3c) - Fraction(s2b, q), q)
        if not (lhs - rhs).is_zero():
            raise VerificationError(f"prime-level identity failed at gamma={g}")
        case = _case_label(q, g, delta)
        report["case_histogram"][case] = report["case_histogram"].get(case, 0) + 1
        report["checked"] += 1

    # symmetry under unit multiplications and homogeneity
    for _ in range(20):
        g = [[rng.randrange(q) for _ in range(4)] for _ in range(n)]
        val = i0_local(delta, g, q)
        a = rng.choice([1] + list(range(2, q)))
        if (val - i0_local(delta, [[a * x % q for x in gi] for gi in g], q)
                ).is_zero() is False:
            raise VerificationError("scalar homogeneity failed")
        alpha, alpha_inv = _random_unit_pair(q, rng)
        beta = _random_unit_pair(q, rng)[0]
        d2 = mat_mul_flat(mat_mul_flat(alpha, delta), beta)
        g2 = [mat_mul_flat(mat_mul_flat(alpha, tuple(gi)), alpha_inv) for gi in g]
        if (val - i0_local(d2, g2, q)).is_zero() is False:
            raise VerificationError("unit symmetry failed")
    return report


def _forced_case_gammas(q, n):
    """One gamma per structural case of the closed formula."""
    zero = (0, 0, 0, 0)
    out = [
        tuple([(1, 0, 1, 0)] + [zero] * (n - 1)),               # u=v=0
        tuple([(0, 0, 1, 1)] + [zero] * (n - 1)),               # u=0, v!=0
        tuple([(1, 1, 1, 1)] + [zero] * (n - 1)),               # u!=0, v in line
        tuple([zero] * n),                                      # all zero
    ]
    if n >= 2:
        out.append(((0, 1, 0, 0), (0, 0, 0, 1)))               # v not in F_q u
    return out


def _case_label(q, g, delta):
    """The (u, v) case of the closed S3 formula at gamma = g, after checking
    that its indicators agree with their invariant reformulations."""
    u = [x[1] % q for x in g]
    v = [x[3] % q for x in g]
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
        if d % q and d != 0:
            dinv = pow(d, -1, q)
            adj = adj_flat(m)
            return m, tuple(x * dinv % q for x in adj)
