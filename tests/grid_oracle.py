"""The blocked grid kernels that `expsums.i0_local` and
`densities.split_density` ran before their class sums, kept as the tests'
one grid oracle.

Every sum over all 2x2 matrices Y mod q runs on one blocked kernel: the
mixed-radix key of the rows of L @ flat(Y^2), row i mod radii[i]
(`grid_square_keys`), or t . flat(Y) mod q (`grid_linear_keys`), for every
Y in grid order, as blocks of at most 2^16 rows: runs of leading entry
pairs (a, b) (`_grid_blocks`). The split densities' distribution of c Y^2
(`split_square_distribution`) is the square keys at L = c I and radii
(q,) * 4.
"""

import numpy as np

from qcl.algebra import mat_mul_flat
from qcl.errors import BudgetError

#: cap on the grid size q^4 of the oracle
_GRID_CAP = 10 ** 7
#: most rows in one block of the oracle's grid kernels
_BLOCK_ROWS = 2 ** 16


def _grid_blocks(q):
    """The grid of Y = (a, b, c, d) mod q in blocks, after refusing a grid
    of more than `_GRID_CAP` matrices (BudgetError): per block, the (a, b)
    of a run of consecutive leading pairs. Each pair leads q^2 rows, so a
    block holds at most `_BLOCK_ROWS` rows on every grid under the cap;
    grids up to 16^4 are one block, 25^4 is seven."""
    if q ** 4 > _GRID_CAP:
        raise BudgetError(f"matrix grid {q}^4 exceeds budget")
    a, b = np.divmod(np.arange(q * q, dtype=np.int32), q)
    step = _BLOCK_ROWS // (q * q)
    return tuple((a[s:s + step], b[s:s + step])
                 for s in range(0, q * q, step))


def grid_linear_keys(row, q):
    """Key row . flat(Y) mod q for every Y mod q, as blocks of
    `_grid_blocks` in grid order: lexicographic in flat(Y). Every block is
    written into one int32 buffer of this call and returned as a view of
    it, valid until the next block. Row (t0, t1, t2, t3) gives
    (t0 a + t1 b) + (t2 c + t3 d): the first part, reduced, picks one
    (q, q) run of the table tail[r, c, d] = (r + t2 c + t3 d) mod q per
    leading pair, so a block is one gather."""
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
    (k0, k1, k2, k3) is ((k0 r1 + k1) r2 + k2) r3 + k3. A block broadcasts
    Y = (a, b, c, d) as int32 arrays and squares it with `mat_mul_flat`;
    under the cap q <= 56 a row sum stays below 8 q^3 < 2^31."""
    blocks = _grid_blocks(q)
    rows = [([int(t) % r for t in row], r) for row, r in zip(lmat, radii)]
    e = np.arange(q, dtype=np.int32)
    return (_square_block(rows, (a[:, None, None], b[:, None, None],
                                 e[:, None], e))
            for a, b in blocks)


def _square_block(rows, y):
    sq = mat_mul_flat(y, y)  # the last two entries span the block
    keys = 0
    for row, r in rows:
        key = row[0] * sq[0] + row[1] * sq[1]
        key += row[2] * sq[2]
        key += row[3] * sq[3]
        key %= r
        key += keys * r
        keys = key
    return keys.ravel()


def split_square_distribution(p, m, coeff=1):
    """Distribution of coeff * Y^2 over M_2(Z/q), q = p^m, packed as in
    `QuotientGroup([q] * 4)`: the bincount of `grid_square_keys` at L =
    coeff * I and radii (q,) * 4, refused past `_GRID_CAP` (BudgetError)."""
    q = p ** m
    lmat = [[coeff if i == j else 0 for j in range(4)] for i in range(4)]
    keys = grid_square_keys(lmat, q, (q,) * 4)
    return np.bincount(np.concatenate(list(keys)), minlength=q ** 4)
