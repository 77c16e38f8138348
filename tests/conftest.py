"""Shared fixtures: cached explorations and an independent distance oracle.

Explorations are expensive enough to share across modules; the oracle
below is a deliberately naive dict-based BFS over the full group, kept
free of the package's vectorised machinery so it can vouch for it.
"""

import dataclasses

import numpy as np
import pytest

from cnotcayley import gf2
from cnotcayley.bfs import SearchLimits, isometry_bfs
from cnotcayley.isometry import IsometrySpec


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


@pytest.fixture(scope="session")
def oracle_dist():
    cache = {}

    def get(n):
        if n not in cache:
            cache[n] = oracle_distances(n)
        return cache[n]

    return get
