"""Shared fixtures: cached explorations and three independent oracles.

Explorations are expensive enough to share across modules.  The
distance oracle is a deliberately naive dict-based BFS over the full
group, kept free of the package's vectorised machinery so it can vouch
for it.  The canonicalization oracle images every key under all n!
permutations at once, with none of the fast kernel's pruning.  The
synthesis oracle descends by canonicalizing every step's successors and
reading their distances from the result.
"""

import dataclasses
import math
from functools import lru_cache
from itertools import permutations

import numpy as np
import pytest

from cnotcayley import gf2
from cnotcayley.bfs import SearchLimits, distance_of, isometry_bfs
from cnotcayley.errors import ConsistencyError
from cnotcayley.isometry import IsometrySpec, canonicalize_successors


@pytest.fixture(scope="session")
def explored():
    cache = {}

    def get(n, spec=IsometrySpec.SYM, max_depth=None):
        key = (n, spec, max_depth)
        if key not in cache:
            cache[key] = isometry_bfs(n, spec, SearchLimits(max_depth=max_depth))
        return cache[key]

    return get


@pytest.fixture(scope="session")
def off_canonical(explored):
    """The exploration of GL(3,2) with its distance-1 key replaced by
    another member of the same orbit: sorted, in range and with the
    same histogram, so only canonicality is wrong."""
    res = explored(3)
    idx = int(np.flatnonzero(res.dists == 1)[0])
    key = gf2.BitMatrix(3, int(res.keys[idx]))
    other = next(m for m in (gf2.conjugate_by_perm(gf2.parse_perm(c, 3), key)
                             for c in ("(1 2)", "(1 3)", "(2 3)")) if m != key)
    keys = res.keys.copy()
    keys[idx] = other.bits
    order = np.argsort(keys)
    return dataclasses.replace(res, keys=keys[order], dists=res.dists[order])


def oracle_distances(n):
    """Plain BFS over every group element with scalar row operations."""
    start = gf2.identity(n).bits
    dist = {start: 0}
    frontier = [start]
    trans = gf2.all_transvections(n)
    d = 0
    while frontier:
        nxt = []
        for bits in frontier:
            m = gf2.BitMatrix(n, bits)
            for t in trans:
                s = gf2.apply_transvection(t, m).bits
                if s not in dist:
                    dist[s] = d + 1
                    nxt.append(s)
        frontier = nxt
        d += 1
    return dist


def synthesize_reference(res, m):
    """Greedy descent that canonicalizes the successors of every step:
    scan generators in (i, j) lex order and take the first whose
    successor's stored distance is one less."""
    d = distance_of(res, m)
    trans = gf2.all_transvections(res.n)
    found = []
    x = m
    while d > 0:
        canon, _ = canonicalize_successors(np.array([x.bits], dtype=np.uint64),
                                           res.n, res.spec)
        closer = np.flatnonzero(res.distances(canon) == d - 1)
        if closer.size == 0:
            raise ConsistencyError("no descending neighbor found")
        found.append(trans[closer[0]])
        x = gf2.apply_transvection(found[-1], x)
        d -= 1
    return gf2.Circuit(res.n, tuple(reversed(found)))


@pytest.fixture(scope="session")
def oracle_dist():
    cache = {}

    def get(n):
        if n not in cache:
            cache[n] = oracle_distances(n)
        return cache[n]

    return get


@lru_cache(maxsize=None)
def _all_perm_weights(n):
    """(n^2, n!) float64: the bit weight of every matrix entry under each
    of the n! index permutations."""
    packw = np.empty((math.factorial(n), n * n), dtype=np.uint64)
    for s, p in enumerate(permutations(range(n))):
        pv = np.array(p, dtype=np.uint64)
        packw[s] = np.uint64(1) << (pv[:, None] * np.uint64(n) + pv[None, :]).ravel()
    return np.ascontiguousarray(packw.astype(np.float64).T)


def full_matmul_min_stab(keys, ti, n):
    """Canonical key and stabilizer order of each key from all n! images
    of the key (and of its TI, if given), as exact float64 products;
    n <= 7, where packed values fit a double.  The stabilizer counts the
    images equal to the key itself.  Keys go 256 at a time, so an
    order-7 plane stays near 10 MB."""
    wf = _all_perm_weights(n)
    pos = np.arange(n * n, dtype=np.uint64)
    canon = np.empty_like(keys)
    stab = np.zeros(keys.size, dtype=np.uint64)
    for start in range(0, keys.size, 256):
        part = slice(start, start + 256)
        best = np.inf
        for src in (keys,) if ti is None else (keys, ti):
            images = ((src[part, None] >> pos) & np.uint64(1)).astype(np.float64) @ wf
            best = np.minimum(best, images.min(axis=1))
            stab[part] += (images == keys[part, None].astype(np.float64)).sum(
                axis=1, dtype=np.uint64)
        canon[part] = best.astype(np.int64).view(np.uint64)
    return canon, stab


@pytest.fixture(scope="session")
def full_matmul():
    return full_matmul_min_stab


@pytest.fixture(scope="session")
def synth_reference():
    return synthesize_reference
