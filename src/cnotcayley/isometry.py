"""Distance-preserving group actions on GL(n,2) and canonical orbit keys.

Two commuting actions preserve word length over the transvection
generators: conjugation by a permutation matrix (relabelling all
indices) and the transpose-inverse map (swapping the two indices of
every generator).  ``IsometrySpec`` selects which subgroup acts: the
symmetric group alone, or its product with the order-2 transpose-inverse
group.

The canonical representative of an orbit is *defined* as the minimum
packed value over the orbit.  ``canonicalize`` computes exactly that
minimum in one of two ways, chosen by the order:

* n <= 7: a pruned product.  Image row n-1, the most significant, is
  the source row of the index a sent to n-1, with its diagonal bit on
  top and its w off-diagonal ones packed low at best.  So the minimum
  sends to n-1 an index whose row minimizes (diagonal bit, w) among the
  rows of the key and, under ``sym-ti``, of its transpose-inverse, and
  sends that row's off-diagonal ones to 0..w-1.  These are the first
  two cuts of the individualize-and-refine search below: a is fixed,
  and the other indices split into two cells by row a.  Each such
  (source, a) pair is relabelled to that form (a to n-1, row a's ones
  to 0..w-1, the rest to w..n-2) by one gather through a per-order
  table of source bits, indexed by the row | a << n value that the
  score reads (under the full table, which keeps no split, by a << n
  alone).  Its images under the w!(n-1-w)! permutations that fix
  n-1 and keep the two cells are then an exact float64 matrix product
  of the bit vector with that w's table of per-permutation bit weights
  (packed values below 2^49 fit a double exactly): 24/12/12/24 images
  for w = 1..4 at n=6 instead of 120, 120/48/36/48/120 at n=7 instead
  of 720; w = 0 and w = n-1 split nothing and keep the full table.
  The score is w + n * diagonal bit, so all pairs of a key share one w.
  A w takes its own table only where its keys save enough multiply-adds
  to pay for the extra numpy calls (``_W_TABLE_MADDS``); the keys are
  then ordered by table, so that each table images one contiguous run
  of pairs.  All other keys, and every small batch, take the full
  table in one product.  BFS successors have 1.2 to 2.9 pairs per key,
  so most of the n! images per key are never formed.  Each chunk's
  (table rows x pairs) image planes are written once and read twice
  (for the minimum and for the stabilizer count).  Chunks are sized
  for two pairs per key under the full table, so that the plane and
  the unpacked bits, 2 MiB, stay in a core's L2 cache (840 keys at
  n=6, 170 at n=7) and their memory is reused by the next chunk, as in
  the cache blocking of Goto and van de Geijn, "Anatomy of
  high-performance matrix multiplication" (2008); pairs under a smaller
  table shrink it.  Keys with many tied indices bring up to n pairs
  each (2n under ``sym-ti``): fixed-point-free permutation matrices
  have w = 1 and a small table, but keys whose rows all hold their
  diagonal bit and several are unit rows, near the identity, have
  w = 0, so their chunks still outgrow the plan.  A single key picks
  its pairs on Python ints, where numpy's fixed cost per call would
  dominate, and images them under its own w's table.
* n = 8: a lex-leader search (``_min_stab_search``) that builds the
  minimum image row by row, most significant row first, over partial
  arrangements whose candidate cells are refined by the rows already
  placed, in the individualize-and-refine style of McKay and Piperno,
  "Practical graph isomorphism II" (2014).  Only arrangements that
  keep the image minimal survive each row.  A branch holds its cells
  and its ranks as one uint64 each, lane q (bits 8q..8q+7) for position
  q, and lanes n..7 zero below order 8.  So each row costs a few
  whole-word operations per branch: a per-lane popcount, a per-lane
  compare of rank and count, and one multiply that gathers the row's
  bits.  A rank is at most 7 and a count at most 8, so each lane of
  (rank | 0x80) - count stays in 0x78..0x87: no lane borrows from the
  next.  Twin collapse keeps it
  small near the identity: indices swapped by a transposition that
  fixes the matrix give isomorphic subtrees, so one of them is expanded
  and the leaf counts carry the class sizes' factorials.  The twin
  classes come from ``_twins``, one swap test of every index pair on
  the packed keys, the routine the BFS also uses to expand one
  successor per orbit of a frontier key's twin symmetries.  No 8! table
  is built.  Where a chunk's arrangements would outgrow a bound at one
  row, its halves go on apart, so its memory does not depend on which
  keys share it.

``canonicalize_reference`` is the independent pure-Python enumeration
used to cross-check both paths in CI.

Orbit sizes come from the same pass via the orbit-stabilizer identity
|orbit| * |stabilizer| = |acting group|: both paths count the group
elements that map the key to its canonical image.  Every such element
sends a candidate index to n-1, so the matmul path counts the
candidates' images equal to the minimum; the search counts its
leaves.

Every kernel takes a (B, S) block of *sources*: column 0 holds the
keys and, under ``sym-ti``, column 1 their transpose-inverses (TI), so
S = 1 or 2.  ``_sources`` builds the block, inverting a batch once
through ``transpose_inverse_keys``: one vectorised Gauss-Jordan, or the
scalar ``gf2`` inverse for a few keys, where numpy's fixed cost per call
would dominate.  The scalar ``canonicalize`` builds its sources as
Python ints.  ``_orbit_sizes`` turns the kernels' stabilizer orders
into orbit sizes for the batched and the scalar path alike.

``canonicalize_batch`` and ``canonicalize_successors`` share one tiled
path (``_tiled``): a batch is cut into contiguous tiles of at most one
chunk, run serially or on a worker pool, each writing its own slice of
the outputs.  ``canonicalize_successors`` canonicalizes the n(n-1)
successors T*g of a set of keys, or only those at given positions of
their key-major layout, without ever holding them all: a tile is a run
of at most one chunk of those positions, and builds its successors by
row shifts from each source column.  The BFS passes the positions of
the successors it has not seen.  TI is a graph automorphism with
TI(T[i,j]*g) = T[j,i]*TI(g), so the swapped successors of the TI
column are the TIs of the successors, and no successor is ever
inverted.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import accumulate, permutations

import numpy as np

from . import gf2
from .errors import ConsistencyError, SingularError
from .gf2 import BitMatrix, Permutation

_U1 = np.uint64(1)
# the lanes of the order-8 search's branch state (see ``_min_stab_search``):
# bit 0 and bit 7 of every lane; the gather of the eight top bits into
# the top byte, lane q to bit 56 + q; and, per index i, every index but i
# in every lane
_LANES = np.uint64(0x0101010101010101)
_TOPS = np.uint64(0x8080808080808080)
_GATHER = np.uint64(0x0002040810204081)
_OTHERS = np.array([(0xFF ^ (1 << i)) * 0x0101010101010101 for i in range(8)],
                   dtype=np.uint64)
_BITS = np.left_shift(np.uint8(1), np.arange(8, dtype=np.uint8))


class IsometrySpec(Enum):
    """Which isometry subgroup reduces the exploration."""

    SYM = "sym"
    SYM_TI = "sym-ti"

    def group_order(self, n: int) -> int:
        base = math.factorial(n)
        return 2 * base if self is IsometrySpec.SYM_TI else base

    @property
    def uses_ti(self) -> bool:
        return self is IsometrySpec.SYM_TI


@dataclass(frozen=True, slots=True)
class OrbitInfo:
    """Canonical key (minimum packed value over the orbit) and exact size."""

    key: BitMatrix
    orbit_size: int


def act(sigma: Permutation, xi: int, m: BitMatrix) -> BitMatrix:
    """Apply the isometry (sigma, xi); xi in {+1, -1} selects whether the
    transpose-inverse map is composed in (the two actions commute)."""
    if xi not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {xi}")
    if xi == -1:
        m = gf2.transpose_inverse(m)
    return gf2.conjugate_by_perm(sigma, m)


# ---------------------------------------------------------------------------
# vectorised enumeration kernel
# ---------------------------------------------------------------------------


# bytes of a chunk's float64 working set at two candidate pairs per key,
# each with the (n-1)! images of the full table and n^2 unpacked bits:
# it fits a 2 MiB per-core L2 cache (see the module docstring).  Pairs
# under their w's own table hold fewer images, so most chunks stay well
# below it: under tracemalloc the chunks of GL(6,2) to depth 7 peak at
# 0.45 MiB in the median (0.54 under sym-ti), and the heaviest, whose
# keys all have w = 0 and 2.7 pairs each (4 under sym-ti), at 2.8 MiB
# (4.2 under sym-ti)
_PLANE_BYTES = 1 << 21
# multiply-adds of the product that a w's keys must save, at one pair
# each, for that w to take its own table.  An own table costs 12-15 us
# per chunk in numpy calls.  On chunks of successors of one w (of
# depth-8 keys of GL(5,2) and GL(6,2) and depth-6 keys of GL(7,2)) the
# two break even near 48-64 keys at n=6 (170-250k multiply-adds), below
# 2 keys at n=7 (60k) and near 1,000-2,000 keys at n=5 (0.5-1M), where
# the full table has only 24 rows.  So n=6 takes an own table from
# 68-76 keys, n=7 from 8-9 and n=5 from 525-583; synthesize's 30
# successors never do
_W_TABLE_MADDS = 1 << 18


class _PermTables:
    """Per-order tables for n <= 7.

    ``score[r | a << n]`` ranks row value r at index a by (diagonal bit,
    off-diagonal weight w), as popcount + (n-1) * diagonal bit, which is
    w + n * diagonal bit; ``score_list`` holds the same for the scalar
    path.  ``relabel[r | a << n]`` holds, for every entry of a matrix
    whose row a is r, relabelled so that a goes to n-1, the ones of r
    but a to 0..w-1 in order and the other indices to w..n-2, the source
    bit that entry reads, as a mask.  ``wf[w]`` holds the bit weight
    every unpacked matrix entry contributes to the image under each of
    the w!(n-1-w)! permutations that fix n-1 and map 0..w-1 onto
    themselves, one permutation per row: the cell split of a top row of
    weight w.  ``wf[0]`` and ``wf[n-1]`` are one table, all (n-1)!
    permutations that fix n-1.  ``saving[w]`` counts the multiply-adds
    of the product that a pair saves by taking ``wf[w]`` instead of the
    full table.  ``chunk`` is the keys per chunk (see ``_PLANE_BYTES``).
    """

    def __init__(self, n: int):
        self.n = n
        nb = np.uint64(n)
        idx = np.arange(n, dtype=np.uint64)
        self.row_shift = idx * nb
        self.row_mask = np.uint64((1 << n) - 1)
        self.row_index = idx << nb
        r = np.arange(1 << n)
        on = (r >> np.arange(n)[:, None]) & 1
        self.score = (np.bitwise_count(r) + (n - 1) * on).astype(np.uint8).ravel()
        self.score_list = self.score.tolist()
        # per (a, r), each index's cell: 0 for the ones of r but a, 1 for
        # the other indices but a, 2 for a; a stable sort of the cells
        # lists, per new label, the index it takes
        own = np.arange(n)[:, None, None] == np.arange(n)
        cell = np.where(own, 2, 1 - on.T).reshape(-1, n)
        src = np.argsort(cell, axis=1, kind="stable").astype(np.uint64)
        self.relabel = _U1 << (src[:, :, None] * nb + src[:, None, :]).reshape(-1, n * n)
        # every packed value < 2^(n*n) <= 2^49 is exactly representable
        # w = 0 and w = n-1 split nothing: both take the full table
        cuts = [w if 0 < w < n - 1 else 0 for w in range(n)]
        tables = {}
        for w in dict.fromkeys(cuts):
            perms = [a + b + (n - 1,) for a in permutations(range(w))
                     for b in permutations(range(w, n - 1))]
            pv = np.array(perms, dtype=np.uint64)
            tables[w] = (_U1 << (pv[:, :, None] * nb + pv[:, None, :])
                         ).reshape(len(perms), n * n).astype(np.float64)
        self.wf = [tables[w] for w in cuts]
        full = self.wf[0].shape[0]
        self.saving = [(full - f.shape[0]) * n * n for f in self.wf]
        self.saving_max = max(self.saving)
        self.chunk = _PLANE_BYTES // (16 * (full + n * n))


@lru_cache(maxsize=None)
def _tables(n: int) -> _PermTables:
    return _PermTables(n)


# larger orders run the lex-leader search: their packed images, up to
# 2^64, no longer fit a double exactly.  On the successors of the depth-5
# ball, per successor, the pruned product beats the search at n=6 (1.05
# us against 2.3-2.4 under sym, 1.4-1.7 against 2.3-2.9 under sym-ti); at
# n=7 the search is ahead (3.1-3.3 against 5.3-5.6, 4.6-4.8 against
# 8.7-8.9), but one key costs it 380-500 us against the product's 23-141,
# and one-key calls set the queries' latency
_MATMUL_MAX_ORDER = 7
# keys per search chunk.  Random keys keep a few live branches each,
# near-identity keys up to a few hundred (540 at most among the depth-5
# successors of GL(8,2)), so a chunk's memory follows the keys that
# share it; ``_SEARCH_CHILDREN`` bounds it.
_SEARCH_CHUNK = 1024
# children a search chunk may form at one position, about 45 bytes each
# at the peak; where a chunk would form more, its halves go on apart.
# Uncapped, the heaviest chunk of the depth-5 successors of GL(8,2) that
# the BFS canonicalizes peaks at 3.1 MiB traced, and 1,024 copies of the
# worst depth-5 successor form 552,960 children (23.7 MiB); capped, they
# peak at 2.7 and 3.2 MiB
_SEARCH_CHILDREN = 1 << 16


# below this many keys the scalar inverse beats numpy's fixed cost per
# call: at n=5 one key takes 10-20 us on Python ints against 160-210 us
# through the vectorised Gauss-Jordan; the two meet near 8 keys
_SCALAR_TI_KEYS = 8


def transpose_inverse_keys(keys: np.ndarray, n: int) -> np.ndarray:
    """Transpose-inverse of every packed key, vectorised over the batch.

    The batch is held as its n augmented rows [row j of M^T | row j of
    I], an (n, B) uint64 array, and reduced by Gauss-Jordan with one
    numpy pass per row operation.  Fewer than ``_SCALAR_TI_KEYS`` keys
    go through ``gf2.transpose_inverse_bits`` one by one instead.
    Raises ``SingularError`` if any key is singular.
    """
    keys = np.asarray(keys, dtype=np.uint64)
    if keys.size < _SCALAR_TI_KEYS:
        return np.array([gf2.transpose_inverse_bits(k, n) for k in keys.tolist()],
                        dtype=np.uint64)
    nb = np.uint64(n)
    idx = np.arange(n, dtype=np.uint64)
    aug = np.repeat((_U1 << (idx + nb))[:, None], keys.size, axis=1)
    # entry (i, j) of every key to bit i of row j, one source row at a
    # time, so that no (n*n, B) array of bits exists
    for i in range(n):
        bits = keys[None, :] >> (idx + np.uint64(i * n))[:, None]
        bits &= _U1
        bits <<= np.uint64(i)
        aug |= bits
    for c in range(n):
        cb = np.uint64(c)
        # bring a pivot into row c by adding the first row below that has one
        for k in range(c + 1, n):
            aug[c] ^= (((aug[k] & ~aug[c]) >> cb) & _U1) * aug[k]
        if not np.all((aug[c] >> cb) & _U1):
            raise SingularError("matrix is singular over F2")
        hit = (aug >> cb) & _U1
        hit[c] = 0
        aug ^= hit * aug[c]
    return np.bitwise_or.reduce((aug >> nb) << (idx * nb)[:, None], axis=0)


def _unpack(x: np.ndarray, r: np.ndarray, t: _PermTables) -> np.ndarray:
    """(pairs, n^2) float64: the bits of each packed x[p], relabelled by
    ``t.relabel[r[p]]``, where r[p] is the row | index << n value that
    the score reads.  The masks' memory takes the bits, so that a chunk
    allocates one such plane, and a bool one an eighth its size."""
    bits = t.relabel.take(r, axis=0)
    bits &= x[:, None]
    out = bits.view(np.float64)
    out[...] = bits != 0
    return out


def _min_stab_matmul(srcs: np.ndarray, t: _PermTables):
    """Canonical key and stabilizer order of each row of a source block,
    from the images that can be minimal, as exact float64 products.

    Image row n-1, the most significant, is source row a for the index
    a sent to n-1: its diagonal bit on top, its w off-diagonal ones
    packed low at best.  So a minimal image sends to n-1 an index whose
    row minimizes (diagonal bit, w), over the key's sources, and sends
    that row's off-diagonal ones to 0..w-1.  Each such (source, a) pair
    is relabelled to that form and imaged under the permutations that
    keep it: those that fix n-1 and map 0..w-1 onto themselves.  Every
    group element that maps the key to its canonical image lies among
    these pairs' images, so counting the images equal to the minimum
    gives the stabilizer order.

    The score is w + n * diagonal bit, so all pairs of a key share one
    w.  A w takes its own table only where its keys, at one pair each,
    save at least ``_W_TABLE_MADDS`` multiply-adds by it; the other
    pairs take the full table, which holds every image of the smaller
    ones.  Where some w takes its own table, the keys are ordered by
    the table they take, so that each table images one contiguous run
    of pairs.
    """
    b, n = srcs.shape[0], t.n
    # each row | index << n value, below 2^10, as an index
    r = (((srcs[:, :, None] >> t.row_shift) & t.row_mask) | t.row_index).view(np.intp)
    score = t.score[r]
    best = score.min(axis=(1, 2))
    tie = score == best[:, None, None]
    del score
    order = None
    if b * t.saving_max >= _W_TABLE_MADDS:
        # keys per score, and so per w = score % n
        keys = np.bincount(best, minlength=2 * n).tolist()
        keys = [keys[w] + keys[w + n] for w in range(n)]
        own = [w for w in range(1, n - 1) if keys[w] * t.saving[w] >= _W_TABLE_MADDS]
        if own:
            # the keys by the table they take, the full one first
            table = np.array([w * (w in own) for w in range(n)] * 2, dtype=np.uint8)
            order = np.argsort(table[best], kind="stable")
            tie = tie[order]
    group, v, a = np.nonzero(tie)
    del tie
    # every key has a pair, so its pairs start where the group changes
    starts = np.searchsorted(group, np.arange(b))
    if order is None:
        # the full table holds every arrangement of the indices below
        # n-1, so any relabel that sends a to n-1 will do: that of row 0
        images = t.wf[0] @ _unpack(srcs[group, v], a << n, t).T
        canon = np.minimum.reduceat(images.min(axis=0), starts)
        # a pair has at most (n-1)! <= 720 equal images
        count = (images == canon[group]).view(np.uint8).sum(axis=0, dtype=np.uint16)
        return (canon.astype(np.int64).view(np.uint64),
                np.add.reduceat(count, starts, dtype=np.uint64))
    at = order[group]
    bits = _unpack(srcs[at, v], r[at, v, a], t)
    del r, at, v, a
    # each table and its run of pairs: the full table's first, then the
    # own tables in order of w
    runs = [(w, c) for w, c in [(0, b - sum(keys[w] for w in own)),
                                *((w, keys[w]) for w in own)] if c]
    bounds = [0, *starts[list(accumulate(c for _, c in runs))[:-1]].tolist(), group.size]
    planes = []
    mins = np.empty(group.size)
    for (w, _), lo, hi in zip(runs, bounds, bounds[1:]):
        planes.append(t.wf[w] @ bits[lo:hi].T)
        planes[-1].min(axis=0, out=mins[lo:hi])
    del bits
    canon = np.minimum.reduceat(mins, starts)
    # a pair has at most (n-1)! <= 720 equal images
    count = np.empty(group.size, dtype=np.uint16)
    at = canon[group]
    for images, lo, hi in zip(planes, bounds, bounds[1:]):
        (images == at[lo:hi]).view(np.uint8).sum(axis=0, dtype=np.uint16, out=count[lo:hi])
    del planes, at
    out = np.empty(b, dtype=np.uint64), np.empty(b, dtype=np.uint64)
    out[0][order] = canon.astype(np.int64).view(np.uint64)
    out[1][order] = np.add.reduceat(count, starts, dtype=np.uint64)
    return out


def _min_stab_one(sources: list[int], t: _PermTables) -> tuple[int, int]:
    """``_min_stab_matmul`` for the sources of one key, on Python ints
    where it can: numpy's fixed cost per call would outweigh the work.
    The key's pairs take the table of its own w."""
    n, score = t.n, t.score_list
    rows = [(((src >> (a * n)) & ((1 << n) - 1)) | (a << n), src)
            for src in sources for a in range(n)]
    best = min(score[r] for r, _ in rows)
    r, x = zip(*[p for p in rows if score[p[0]] == best])
    images = t.wf[best % n] @ _unpack(np.array(x, dtype=np.uint64), r, t).T
    canon = images.min()
    return int(canon), int(np.count_nonzero(images == canon))


def _rows(keys: np.ndarray, n: int) -> np.ndarray:
    """(B, n) uint8: row k of every packed key as an n-bit mask."""
    shifts = np.arange(0, n * n, n, dtype=np.uint64)
    return ((keys[:, None] >> shifts) & np.uint64((1 << n) - 1)).astype(np.uint8)


@lru_cache(maxsize=None)
def _index_pairs(n: int) -> tuple[np.ndarray, ...]:
    """The index pairs i < j, ordered by j and then i, as (pairs, 1)
    uint64 columns of i, j, i*n and j*n; the (pairs, 1) uint8 bits of i;
    and where each j's run starts.  Read-only, since they are shared."""
    i, j = (np.array(v) for v in zip(*[(i, j) for j in range(n) for i in range(j)]))
    out = [v.astype(np.uint64)[:, None] for v in (i, j, i * n, j * n)]
    out.append(np.left_shift(np.uint8(1), i.astype(np.uint8))[:, None])
    out.append(np.cumsum(np.arange(n - 1)))
    for v in out:
        v.flags.writeable = False
    return tuple(out)


def _twins(keys: np.ndarray, n: int) -> np.ndarray:
    """(B, n) uint8 masks of the twins j < i of each index i of every
    packed key.  i and j are twins when conjugation by the transposition
    (i j) fixes the matrix.  The relation is an equivalence ((i k) =
    (i j)(j k)(i j)), and the symmetric group on each class lies in the
    stabilizer.

    One swap test of every index pair on all keys at once: a matrix
    commutes with (i j) when swapping its rows i and j changes the same
    bits as swapping its columns i and j.  Each swap is a delta swap of
    the packed bits, so the test takes the same few numpy calls at any
    order, on (pairs, B) arrays.
    """
    lower = np.zeros((keys.size, n), dtype=np.uint8)
    if n < 2:
        return lower
    i, j, row_i, row_j, bit_i, starts = _index_pairs(n)
    x = keys[None, :]
    # the bits that swapping rows i and j flips
    rows = x >> row_i
    rows ^= x >> row_j
    rows &= np.uint64((1 << n) - 1)
    flips = rows << row_i
    rows <<= row_j
    flips ^= rows
    del rows
    # and those that swapping columns i and j flips
    cols = x >> i
    cols ^= x >> j
    cols &= np.uint64(sum(1 << (r * n) for r in range(n)))
    flips ^= cols << i
    cols <<= j
    flips ^= cols
    del cols
    twin = (flips == 0) * bit_i
    del flips
    # a j's lower twins are distinct bits, so their sum is their mask
    lower[:, 1:] = np.add.reduceat(twin, starts, axis=0).T
    return lower


def _lane(a: np.ndarray, q: int) -> np.ndarray:
    """Lane q of a contiguous uint64 array, as a strided uint8 view."""
    return a.view(np.uint8)[q if sys.byteorder == "little" else 7 - q::8]


def _min_stab_search(srcs: np.ndarray, n: int):
    """Canonical key and stabilizer order of each row of a source block
    by a lex-leader search, without enumerating the n! images.

    A branch is a partial arrangement tau (position -> index) with an
    ordered partition of the positions into cells, held per position as
    the index mask of its cell and its rank in the cell, counted from the
    cell's bottom.  Positions are fixed from n-1, the most significant
    image row, down.  At position p each child takes tau(p) from p's
    cell and splits every cell by the bits of row tau(p), zeros at the
    higher positions: that is the exact minimum of image row p for this
    choice.  Per key only the children whose row equals the key's
    minimum survive.  Each source seeds a branch into its key's group.
    The leaves are then exactly the group elements that map the key to
    its canonical image, and their count is the stabilizer order.

    A branch holds its cells in one uint64 and its ranks in another, 8
    lanes of 8 bits with lane q for position q; lanes q >= n stay zero.
    A position is fixed from its top down, so p is the top of its cell:
    its rank is the cell's size less one.  The step at position p works
    on all lanes at once, in the manner of Warren, "Hacker's Delight"
    (2nd ed., 2012), ch. 5-7:

    * the ones of row i in each cell but i are the cells ANDed with
      (row i without i) * 0x0101...01, and ``np.bitwise_count`` on the
      uint8 view counts them per lane;
    * a position takes a zero when its rank is at least its cell's count
      of ones: the top bit of ((rank | 0x80...) - count) per lane.
      Rank <= 7 and count <= 8 keep each lane within 0x78..0x87, so no
      lane borrows from the next.  Lane p, where this always holds, is
      then toggled to the complement of i's diagonal bit;
    * one multiply by 0x0002...81 gathers the eight top bits into the
      top byte, lane q to bit 56 + q, with no carries: shifted down, the
      complement of image row p;
    * the cells split by a lane mask: the ones of the row in lanes that
      take a one, its zeros but i in those that take a zero; only these
      subtract their count from their rank, which is at least that
      count, so no lane borrows.  Lane p then takes i at rank 0.

    Twin collapse: twins stay in one cell until they are fixed, and
    taking one twin instead of another gives an isomorphic subtree.  So
    a child may take index i only once i's lower twins are fixed, and
    each leaf stands for prod |class|! arrangements.  TI commutes with
    conjugation, so the key's twin classes are also those of its TI.

    The children's arrays set the search's peak memory: the kept ones
    are chosen before their cells and ranks are formed.  Where the
    children at a position would exceed ``_SEARCH_CHILDREN``, each half
    of the keys takes its branches down from that position on its own,
    so the peak follows that bound, not the keys that share the block.
    """
    b, s = srcs.shape
    bit = _BITS[:n]
    # per row k = source * n + index i: row i of the source without i in
    # every lane, and whether it holds i, in the top bit of every lane
    rows = _rows(srcs.reshape(-1), n)
    ones_of = ((rows & ~bit) * _LANES).reshape(-1)
    diag_of = (((rows & bit) != 0) * _TOPS).reshape(-1)
    del rows
    # the twins of column 0, the keys, and per key a uint64 whose lane i
    # holds i and its lower twins
    lower = _twins(srcs[:, 0], n)
    bit_lower = np.zeros((b, 8), dtype=np.uint8)
    bit_lower[:, :n] = bit | lower
    bit_lower = bit_lower.view(np.uint64).reshape(-1)
    # the complement of row p of every key's canonical image
    best_rows = np.empty((n, b), dtype=np.uint8)

    def descend(top, lo, hi, branches):
        """Leaves per key of keys lo..hi-1, fixing positions top down to
        0.  Their branch arrays are taken out of the list ``branches``,
        so that once a position replaces them by their children, nothing
        holds them any more."""
        group, base, cells, rank = branches
        branches.clear()
        firsts = np.arange(lo, hi)
        for p in range(top, -1, -1):
            # a child takes an index i of p's cell none of whose lower
            # twins is still in it: (branches, 8), lane by lane
            take = bit_lower[group]
            take &= _lane(cells, p) * _LANES
            take = take.view(np.uint8).reshape(-1, 8) == _BITS
            if hi - lo > 1 and np.count_nonzero(take) > _SEARCH_CHILDREN:
                # too many children at once: each half of the keys takes
                # its branches down from here, on copies, so that this
                # block's branches are freed before either half descends
                del take
                mid = (lo + hi) // 2
                cut = np.searchsorted(group, mid)
                head = [a[:cut].copy() for a in (group, base, cells, rank)]
                tail = [a[cut:].copy() for a in (group, base, cells, rank)]
                del group, base, cells, rank
                return np.concatenate([descend(p, lo, mid, head),
                                       descend(p, mid, hi, tail)])
            # each child as branch * 8 + i, then as the table row of i in
            # its source; the children's arrays set the search's peak
            # memory, so few of them are alive at once
            row = np.flatnonzero(take)
            del take
            par = row >> 3
            row &= 7
            i = row.astype(np.uint8)
            row += base[par]
            count = cells[par]
            count &= ones_of[row]
            np.bitwise_count(count.view(np.uint8), out=count.view(np.uint8))
            # the top bit of each lane whose position takes a zero, then
            # that of lane p toggled by i's diagonal bit, gathered into
            # the complement of image row p
            value = rank[par]
            value |= _TOPS
            value -= count
            del count
            value &= _TOPS
            diag = diag_of[row]
            diag &= np.uint64(0x80 << 8 * p)
            value ^= diag
            del diag
            value *= _GATHER
            value >>= np.uint64(56)
            # every key keeps a branch and every branch has a child, so
            # the children's groups run through lo..hi-1 in order
            group = group[par]
            best = best_rows[p]
            best[lo:hi] = np.maximum.reduceat(value, np.searchsorted(group, firsts))
            keep = np.flatnonzero(value == best[group])
            del value
            if keep.size < group.size:
                group = group[keep]
                par = par[keep]
                row = row[keep]
                i = i[keep]
            del keep
            # the kept children's cells and ranks: where a position takes
            # a one, the ones of row i in its cell and its rank; where it
            # takes a zero, the zeros but i and the rank less the ones
            cells = cells[par]
            rank = rank[par]
            del par
            count = ones_of[row]
            count &= cells
            np.bitwise_count(count.view(np.uint8), out=count.view(np.uint8))
            zero = rank | _TOPS
            zero -= count
            zero &= _TOPS
            zero >>= np.uint64(7)
            zero *= np.uint64(0xFF)
            count &= zero
            rank -= count
            del count
            zero ^= ones_of[row]
            zero &= _OTHERS[i]
            cells &= zero
            del zero
            _lane(cells, p)[:] = bit[i]
            _lane(rank, p)[:] = 0
            base = row
            base -= i
            # free the children before the next position forms its own
            del row, i
        return np.bincount(group, minlength=hi)[lo:]

    group = np.repeat(np.arange(b), s)
    cells = np.full(group.size, ((1 << n) - 1) * sum(1 << 8 * q for q in range(n)),
                    dtype=np.uint64)
    rank = np.full(group.size, sum(q << 8 * q for q in range(n)), dtype=np.uint64)
    # each source seeds a branch, whose base is its source's first table row
    leaves = descend(n - 1, 0, b, [group, np.arange(0, group.size * n, n), cells, rank])
    # descend refers to itself: dropping the name breaks that cycle, so
    # that its tables go with this call, not at the next collection
    del descend
    best_rows = ~best_rows
    best_rows &= np.uint8((1 << n) - 1)
    canon = np.bitwise_or.reduce(best_rows.astype(np.uint64)
                                 << np.arange(0, n * n, n, dtype=np.uint64)[:, None], axis=0)
    # the t-th member of a twin class has t-1 lower twins: the product of
    # t over a class is |class|!
    weight = np.prod(np.bitwise_count(lower) + np.uint64(1), axis=1, dtype=np.uint64)
    return canon, leaves.astype(np.uint64) * weight


def _orbit_sizes(stab, n: int, spec: IsometrySpec):
    """|acting group| / |stabilizer|, for an array of stabilizer orders
    or one Python int (``count_nonzero`` takes an eighth of ``np.any``'s
    time on an int)."""
    order = spec.group_order(n)
    if np.count_nonzero(order % stab):
        raise ConsistencyError("stabilizer count does not divide the group order")
    return order // stab


def _canonicalize_chunk(srcs: np.ndarray, n: int, spec: IsometrySpec
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Canonical keys and orbit sizes of one chunk's source block."""
    if n <= _MATMUL_MAX_ORDER:
        canon, stab = _min_stab_matmul(srcs, _tables(n))
    else:
        canon, stab = _min_stab_search(srcs, n)
    return canon, _orbit_sizes(stab, n, spec)


def _sources(keys: np.ndarray, n: int, spec: IsometrySpec) -> np.ndarray:
    """(B, S) uint64: each key, then its transpose-inverse under a TI
    spec, inverted once for the whole batch."""
    if not spec.uses_ti:
        return keys[:, None]
    return np.stack([keys, transpose_inverse_keys(keys, n)], axis=1)


def _chunk_size(n: int) -> int:
    return _tables(n).chunk if n <= _MATMUL_MAX_ORDER else _SEARCH_CHUNK


def _tiled(count: int, size: int, tile, executor=None) -> tuple[np.ndarray, np.ndarray]:
    """The (canonical keys, orbit sizes) of ``tile(part)`` over the
    contiguous parts of range(count), each of at most ``size``, laid end
    to end.  Parts run serially or, given an executor, concurrently,
    each writing its own slice of the outputs, so the output never
    depends on scheduling.  A single part's arrays are returned as they
    are."""
    if count <= size:
        return tile(slice(0, count))
    canon = np.empty(count, dtype=np.uint64)
    sizes = np.empty(count, dtype=np.uint64)

    def fill(start: int) -> None:
        part = slice(start, min(start + size, count))
        canon[part], sizes[part] = tile(part)

    starts = range(0, count, size)
    if executor is None:
        for start in starts:
            fill(start)
    else:
        # reading every result re-raises a worker's exception here
        list(executor.map(fill, starts))
    return canon, sizes


def canonicalize_batch(keys: np.ndarray, n: int, spec: IsometrySpec
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Canonical keys and exact orbit sizes for an array of packed values.

    Pure function of the inputs; chunked internally so that each chunk's
    working set stays in cache.
    """
    keys = np.ascontiguousarray(keys, dtype=np.uint64)
    if n == 0 or keys.size == 0:
        return keys.copy(), np.ones(keys.size, dtype=np.uint64)
    srcs = _sources(keys, n, spec)
    return _tiled(keys.size, _chunk_size(n),
                  lambda part: _canonicalize_chunk(srcs[part], n, spec))


@lru_cache(maxsize=None)
def _transvection_shifts(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(target-row shifts, source-row shifts), (G, 2) each: one row per
    generator in (i, j) lex order, one column per source, the TI's
    swapped; read-only, since they are shared."""
    gens = gf2.all_transvections(n)
    i = [(t.i - 1) * n for t in gens]
    j = [(t.j - 1) * n for t in gens]
    shifts = np.array([[i, j], [j, i]], dtype=np.uint64).transpose(0, 2, 1)
    shifts.flags.writeable = False
    return shifts[0], shifts[1]


def _successors(srcs: np.ndarray, n: int, at: np.ndarray | None = None) -> np.ndarray:
    """T*g for every row of a (B, S) source block and every generator T,
    laid out key-major: rows [k*G:(k+1)*G] hold the G = n(n-1) successors
    of the k-th key, generators in (i, j) lex order, one column per
    source.  Given ``at``, only the rows at those positions of the layout.

    Column 1, the TI, applies T[j,i] in the slot of T[i,j].  Since
    TI(T[i,j]*g) = T[j,i]*TI(g), it holds the transpose-inverses of
    column 0, slot for slot.
    """
    ishift, jshift = _transvection_shifts(n)
    s = srcs.shape[1]
    if at is None:
        src, gen = srcs[:, None, :], slice(None)
    else:
        src, gen = srcs[at // ishift.shape[0]], at % ishift.shape[0]
    ishift, jshift = ishift[gen, :s], jshift[gen, :s]
    out = src >> jshift
    out &= np.uint64((1 << n) - 1)
    out <<= ishift
    out ^= src
    return out.reshape(-1, s)


def canonicalize_successors(keys: np.ndarray, n: int, spec: IsometrySpec,
                            executor=None, at: np.ndarray | None = None
                            ) -> tuple[np.ndarray, np.ndarray]:
    """``canonicalize_batch`` of the successors of keys, or of those at
    the positions ``at`` of their layout, without holding the successors
    or their transpose-inverses.

    The positions, all of them or ``at``, are cut into tiles of at most
    one chunk.  Each tile builds its successors from the keys' source
    block, whose TI column gives the successors' TIs slot for slot.  If
    an executor is given, tiles run on it concurrently.
    """
    keys = np.ascontiguousarray(keys, dtype=np.uint64)
    count = n * (n - 1) * keys.size if at is None else at.size
    if count == 0:
        return np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.uint64)
    srcs = _sources(keys, n, spec)

    def tile(part: slice) -> tuple[np.ndarray, np.ndarray]:
        pos = np.arange(part.start, part.stop) if at is None else at[part]
        return _canonicalize_chunk(_successors(srcs, n, pos), n, spec)

    return _tiled(count, _chunk_size(n), tile, executor)


# ---------------------------------------------------------------------------
# scalar API
# ---------------------------------------------------------------------------


def canonicalize(m: BitMatrix, spec: IsometrySpec = IsometrySpec.SYM) -> OrbitInfo:
    """Orbit key (minimum packed image) and orbit size, in one pass."""
    n = m.n
    if n == 0:
        return OrbitInfo(m, 1)
    sources = [m.bits]
    if spec.uses_ti:
        sources.append(gf2.transpose_inverse_bits(m.bits, n))
    if n <= _MATMUL_MAX_ORDER:
        canon, stab = _min_stab_one(sources, _tables(n))
    else:
        canon, stab = (int(v[0]) for v in
                       _min_stab_search(np.array([sources], dtype=np.uint64), n))
    return OrbitInfo(BitMatrix(n, canon), _orbit_sizes(stab, n, spec))


def canonicalize_reference(m: BitMatrix, spec: IsometrySpec = IsometrySpec.SYM) -> OrbitInfo:
    """Plain-Python enumeration of every group image; the correctness
    oracle for the vectorised path, kept free of numpy on purpose."""
    n = m.n
    if n == 0:
        return OrbitInfo(m, 1)
    variants = [m.bits]
    if spec.uses_ti:
        variants.append(gf2.transpose_inverse_bits(m.bits, n))
    best = None
    fixing = 0
    for bits in variants:
        positions = []
        b = bits
        while b:
            low = b & -b
            positions.append(divmod(low.bit_length() - 1, n))
            b ^= low
        for p in permutations(range(n)):
            img = 0
            for i0, j0 in positions:
                img |= 1 << (p[i0] * n + p[j0])
            if best is None or img < best:
                best = img
            if img == m.bits:
                fixing += 1
    order = spec.group_order(n)
    if order % fixing:
        raise ConsistencyError("stabilizer count does not divide the group order")
    return OrbitInfo(BitMatrix(n, best), order // fixing)
