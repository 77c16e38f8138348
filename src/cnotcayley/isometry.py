"""Distance-preserving group actions on GL(n,2) and canonical orbit keys.

Two commuting actions preserve word length over the transvection
generators: conjugation by a permutation matrix (relabelling all
indices) and the transpose-inverse map (swapping the two indices of
every generator).  ``IsometrySpec`` selects which subgroup acts: the
symmetric group alone, or its product with the order-2 transpose-inverse
group.

The canonical representative of an orbit is *defined* as the minimum
packed value over the orbit.  ``canonicalize`` enumerates every image of
the acting group, so it is the brute-force definition made fast: the
n!-fold conjugation is a bit permutation of the packed word, expressed
as an exact float64 matrix product of the unpacked bit vector with a
table of per-permutation bit weights (one product for n <= 7, whose
packed values fit a double exactly; a two-plane lexicographic variant
for n = 8).  ``canonicalize_reference`` is the independent pure-Python
enumeration used to cross-check the vectorised path in CI.

Orbit sizes come for free from the same enumeration pass via the
orbit-stabilizer identity |orbit| * |stabilizer| = |acting group|.

Under ``sym-ti`` every key also needs its transpose-inverse, a GF(2)
matrix inversion.  ``transpose_inverse_keys`` does it as one vectorised
Gauss-Jordan over the whole batch.  The BFS avoids even that for
successors: TI is a graph automorphism with TI(T[i,j]*g) =
T[j,i]*TI(g), so it inverts each frontier key once and derives the TI
of all n(n-1) successors with swapped row shifts, passing them in
through ``canonicalize_batch(..., ti=...)``.  Single-key callers use
the scalar ``gf2`` inverse, which avoids numpy's fixed cost per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import permutations

import numpy as np

from . import gf2
from .errors import ConsistencyError, SingularError
from .gf2 import BitMatrix, Permutation

_U1 = np.uint64(1)
_U32 = np.uint64(32)
_LOW32 = np.uint64(0xFFFFFFFF)


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


class _PermTables:
    """Per-order tables: all n! index permutations and, for each, the bit
    weight every unpacked matrix entry contributes to the permuted word."""

    def __init__(self, n: int):
        self.n = n
        self.perms = list(permutations(range(n)))
        nn = n * n
        self.pos = np.arange(nn, dtype=np.uint64)
        packw = np.empty((len(self.perms), nn), dtype=np.uint64)
        for s, p in enumerate(self.perms):
            pv = np.array(p, dtype=np.uint64)
            packw[s] = _U1 << (pv[:, None] * np.uint64(n) + pv[None, :]).ravel()
        if nn <= 52:
            # every packed value < 2^(n*n) is exactly representable
            self.wf = np.ascontiguousarray(packw.astype(np.float64).T)
            self.wlo = self.whi = None
        else:
            self.wf = None
            self.wlo = np.ascontiguousarray((packw & _LOW32).astype(np.float64).T)
            self.whi = np.ascontiguousarray((packw >> _U32).astype(np.float64).T)
        # batch sizing keeps the (B, n!) image planes around 100 MB
        self.chunk = max(16, min(65536, 12_000_000 // len(self.perms)))


@lru_cache(maxsize=None)
def _tables(n: int) -> _PermTables:
    return _PermTables(n)


def transpose_inverse_keys(keys: np.ndarray, n: int) -> np.ndarray:
    """Transpose-inverse of every packed key, vectorised over the batch.

    The batch is held as its n augmented rows [row j of M^T | row j of
    I], an (n, B) uint64 array, and reduced by Gauss-Jordan with one
    numpy pass per row operation.  Raises ``SingularError`` if any key
    is singular.  Numpy's fixed cost per call makes a single key cheaper
    through ``gf2.transpose_inverse_bits``.
    """
    keys = np.asarray(keys, dtype=np.uint64)
    if keys.size == 0:
        return keys.copy()
    nb = np.uint64(n)
    idx = np.arange(n, dtype=np.uint64)
    # entry (i, j) of every key at bits[i, j]
    bits = ((keys[None, :] >> np.arange(n * n, dtype=np.uint64)[:, None])
            & _U1).reshape(n, n, keys.size)
    aug = np.bitwise_or.reduce(bits << idx[:, None, None], axis=0)
    aug |= (_U1 << (idx + nb))[:, None]
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


def _unpack(keys: np.ndarray, t: _PermTables) -> np.ndarray:
    return ((keys[:, None] >> t.pos[None, :]) & _U1).astype(np.float64)


def _min_stab_small(src: np.ndarray, ref: np.ndarray, t: _PermTables):
    """Min image of each src key and how many of its images equal ref."""
    images = _unpack(src, t) @ t.wf
    best = images.min(axis=1)
    stab = (images == ref.astype(np.float64)[:, None]).sum(axis=1)
    return best, stab


def _min_stab_big(src: np.ndarray, ref: np.ndarray, t: _PermTables):
    """n=8 variant: packed words exceed float64 precision, so images are
    kept as exact (high, low) 32-bit planes compared lexicographically."""
    bits = _unpack(src, t)
    ilo = bits @ t.wlo
    ihi = bits @ t.whi
    mhi = ihi.min(axis=1)
    mlo = np.where(ihi == mhi[:, None], ilo, np.inf).min(axis=1)
    rlo = (ref & _LOW32).astype(np.float64)
    rhi = (ref >> _U32).astype(np.float64)
    stab = ((ihi == rhi[:, None]) & (ilo == rlo[:, None])).sum(axis=1)
    return mhi, mlo, stab


def _lex_merge(hi1, lo1, hi2, lo2):
    take2 = (hi2 < hi1) | ((hi2 == hi1) & (lo2 < lo1))
    return np.where(take2, hi2, hi1), np.where(take2, lo2, lo1)


def _canonicalize_chunk(keys: np.ndarray, n: int, spec: IsometrySpec,
                        t: _PermTables, ti: np.ndarray | None
                        ) -> tuple[np.ndarray, np.ndarray]:
    if not spec.uses_ti:
        ti = None
    elif ti is None:
        ti = transpose_inverse_keys(keys, n)
    if t.wf is not None:
        best, stab = _min_stab_small(keys, keys, t)
        if ti is not None:
            b2, s2 = _min_stab_small(ti, keys, t)
            best = np.minimum(best, b2)
            stab = stab + s2
        canon = best.astype(np.int64).view(np.uint64)
    else:
        mhi, mlo, stab = _min_stab_big(keys, keys, t)
        if ti is not None:
            h2, l2, s2 = _min_stab_big(ti, keys, t)
            mhi, mlo = _lex_merge(mhi, mlo, h2, l2)
            stab = stab + s2
        # plane values are < 2^32, so int64 conversion is exact; shift as
        # uint64 to keep the top bit well-defined
        canon = mlo.astype(np.int64).view(np.uint64) | \
            (mhi.astype(np.int64).view(np.uint64) << _U32)
    order = spec.group_order(n)
    if np.any(order % stab):
        raise ConsistencyError("stabilizer count does not divide the group order")
    sizes = (order // stab).astype(np.uint64)
    return canon, sizes


def canonicalize_batch(keys: np.ndarray, n: int, spec: IsometrySpec,
                       executor=None, ti: np.ndarray | None = None
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Canonical keys and exact orbit sizes for an array of packed values.

    Pure function of the inputs; chunked internally to bound memory.  If
    an executor is given, chunks run on it concurrently (results are
    reassembled in input order, so the output never depends on
    scheduling).  Under a TI spec, ``ti`` may carry the transpose-inverse
    of every key, aligned with ``keys``, for callers that already have
    it; otherwise it is computed here.  It is ignored under ``sym``.
    """
    keys = np.ascontiguousarray(keys, dtype=np.uint64)
    if n == 0 or keys.size == 0:
        return keys.copy(), np.ones(keys.size, dtype=np.uint64)
    if ti is not None:
        ti = np.ascontiguousarray(ti, dtype=np.uint64)
        if ti.shape != keys.shape:
            raise ValueError(f"ti has shape {ti.shape}, keys {keys.shape}")
    t = _tables(n)
    chunks = [(keys[s:s + t.chunk], None if ti is None else ti[s:s + t.chunk])
              for s in range(0, keys.size, t.chunk)]
    if executor is None or len(chunks) == 1:
        parts = [_canonicalize_chunk(k, n, spec, t, kti) for k, kti in chunks]
    else:
        futs = [executor.submit(_canonicalize_chunk, k, n, spec, t, kti)
                for k, kti in chunks]
        parts = [f.result() for f in futs]
    canon = np.concatenate([p[0] for p in parts])
    sizes = np.concatenate([p[1] for p in parts])
    return canon, sizes


# ---------------------------------------------------------------------------
# scalar API
# ---------------------------------------------------------------------------


def canonicalize(m: BitMatrix, spec: IsometrySpec = IsometrySpec.SYM) -> OrbitInfo:
    """Orbit key (minimum packed image) and orbit size, in one pass."""
    if m.n == 0:
        return OrbitInfo(m, 1)
    ti = (np.array([gf2.transpose_inverse_bits(m.bits, m.n)], dtype=np.uint64)
          if spec.uses_ti else None)
    canon, sizes = canonicalize_batch(np.array([m.bits], dtype=np.uint64), m.n,
                                      spec, ti=ti)
    return OrbitInfo(BitMatrix(m.n, int(canon[0])), int(sizes[0]))


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


def successor_orbits(key: BitMatrix, spec: IsometrySpec = IsometrySpec.SYM) -> tuple[OrbitInfo, ...]:
    """Orbits of T*key over all generators T, deduplicated by key.

    The input must itself be canonical; by the orbit-compatibility of
    successor sets this makes the result independent of which orbit
    member is expanded.
    """
    n = key.n
    if canonicalize(key, spec).key.bits != key.bits:
        raise ValueError("successor_orbits requires a canonical key")
    succ = np.array([gf2.apply_transvection(t, key).bits
                     for t in gf2.all_transvections(n)], dtype=np.uint64)
    canon, sizes = canonicalize_batch(succ, n, spec)
    uniq, first = np.unique(canon, return_index=True)
    return tuple(OrbitInfo(BitMatrix(n, int(k)), int(sizes[i]))
                 for k, i in zip(uniq, first))
