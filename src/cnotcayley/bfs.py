"""Level-synchronous breadth-first search of the transvection Cayley
graph, reduced by isometry orbits.

The search starts from the orbit of a key (the identity for
``isometry_bfs``, the target for the backward side of
``bidirectional_distance``) and stores one canonical representative
per orbit; isometries are graph automorphisms, so each level is a union
of orbits.  A successor T*g of a frontier key belongs to a new orbit
when its canonical key is not in the previous, current or accruing
next level; that key enters the next level and contributes its full
orbit size to the element count of sphere d+1 exactly once.  Because
the generators are involutions the graph is undirected and an edge can
only stay within a level or connect adjacent levels, so checking three
levels suffices and memory stays proportional to the number of stored
orbits.

A level is expanded in blocks of at most ``_BLOCK`` successors, which
``_fresh`` deduplicates on both sides of the kernel: it keeps one
occurrence of each value that none of the previous, current and
accruing next level holds.  First, a block drops a successor T[i,j]*g
whose generator a twin symmetry of its frontier key g maps onto an
earlier one.  Two indices are twins of g when their transposition fixes
g, so a permutation s of g's twin classes fixes g and maps T[i,j]*g to
T[s(i),s(j)]*g, a successor of the same key in the same orbit.  Only
the lowest generator of each such orbit is expanded, the isomorph
rejection of orderly generation (McKay, "Isomorph-free exhaustive
generation", 1998); near the identity, where the untouched indices are
all twins, that drops most successors (7,091 of 13,048 into level 5 of
GL(8,2)).  The others are overwritten in place with their frontier key,
which is stored.  ``_fresh`` on the raw successors then drops a repeat,
which lies in the orbit of the successor it repeats, and a successor
equal to a stored key, which is canonical and so names a known orbit.
Only the rest go to ``isometry.canonicalize_successors``, which builds
and canonicalizes them at their positions in the layout and, under
``sym-ti``, derives their TIs from the frontier keys' TIs.  ``_fresh``
on their canonical keys then leaves the keys new to the level, in
ascending order, and a stable sort merges them into it.  Any occurrence
will do on either side: equal successors and equal canonical keys lie
in one orbit and share its size.  So the levels, element counts and
budget stops are those of canonicalizing every successor; about a third
of the successors of GL(6,2) to depth 8 never reach the kernel.  Beyond
the stored keys, a level's expansion holds one block's raw successors,
the positions it keeps, their canonical keys and the dedup temporaries
(a few MiB, whatever the size of the level) and, while a block is
merged in, a second copy of the next level.

Early termination keeps every recorded distance exact: a depth cap
stops *between* levels (everything recorded is complete), while an
orbit-budget cap may stop mid-level, in which case only the last sphere
size is a lower estimate and the result says so.

Worker threads run the kernel's tiles, each writing its own slice of
the output; a block's canonical keys are then deduplicated by value, so
distances, sphere sizes and stored keys are identical for every thread
count.

``synthesize`` descends from a matrix to the identity one generator at
a time.  The last four steps need no canonicalization and no result:
the elements within distance 2 of I (I, the transvections and their
products) are listed outright, and a successor of an element at
distance d <= 4 is one closer exactly when it, or for d = 4 one of its
own successors, lies in that list at the right distance.  This is the
meet-in-the-middle idea (Amy, Maslov, Mosca and Roetteler, "A
meet-in-the-middle algorithm for fast synthesis of depth-optimal
quantum circuits", 2013) applied to the end of a greedy descent.
"""

from __future__ import annotations

import resource
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import gf2
from .bounds import gl_order
from .errors import (
    ConsistencyError,
    DimensionError,
    HorizonError,
    OrderError,
)
from .gf2 import BitMatrix, Circuit, Transvection
from .isometry import (
    IsometrySpec,
    _successors,
    _twins,
    canonicalize,
    canonicalize_batch,
    canonicalize_successors,
)


@dataclass
class SearchLimits:
    """Optional caps on the exploration; all values positive when set."""

    max_depth: int | None = None
    max_orbits: int | None = None
    threads: int = 1

    def __post_init__(self) -> None:
        if self.max_depth is not None and self.max_depth < 1:
            raise ValueError("max_depth must be positive")
        if self.max_orbits is not None and self.max_orbits < 1:
            raise ValueError("max_orbits must be positive")
        if self.threads < 1:
            raise ValueError("threads must be positive")


@dataclass(eq=False)
class ExplorationResult:
    """Distances of all stored orbit keys plus exact sphere sizes.

    ``keys`` is sorted ascending and ``dists`` aligns with it; every
    result stores at least one key.  ``distances`` is the one search of
    the keys, for queries, synthesis and the probe's meet alike.  Orbit
    sizes are not kept: each follows from its canonical key, and
    ``essential.classify`` recomputes them.  ``sphere_sizes[d]`` counts
    group elements at distance d; entries are exact except possibly the
    last one when ``last_level_complete`` is False.
    """

    n: int
    spec: IsometrySpec
    keys: np.ndarray
    dists: np.ndarray
    sphere_sizes: list[int]
    orbit_counts: list[int]
    last_level_complete: bool

    @property
    def complete(self) -> bool:
        """Whether the whole group was counted."""
        return self.total_elements() == gl_order(self.n)

    @property
    def max_depth(self) -> int:
        return len(self.sphere_sizes) - 1

    @property
    def max_exact_depth(self) -> int:
        """Deepest level whose sphere size is exact."""
        return self.max_depth if self.last_level_complete else self.max_depth - 1

    def distances(self, keys) -> np.ndarray:
        """int16 distance of each canonical key, -1 where it is not
        stored, by one search for the whole array."""
        return _look_up(self.keys, self.dists, keys)

    def total_elements(self) -> int:
        return sum(self.sphere_sizes)


def _look_up(table: np.ndarray, dists: np.ndarray, keys) -> np.ndarray:
    """int16 distance of each of ``keys`` in the sorted ``table`` with
    aligned ``dists``, -1 where it is absent."""
    idx = np.minimum(np.searchsorted(table, keys), table.size - 1)
    # an int16 -1, since a plain -1 would keep the uint8 of dists
    return np.where(table[idx] == keys, dists[idx], np.int16(-1))


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _pool(threads: int):
    """A worker pool for canonicalization when ``threads > 1``; else a
    context that yields None (serial)."""
    return ThreadPoolExecutor(threads) if threads > 1 else nullcontext()


def isometry_bfs(n: int, spec: IsometrySpec = IsometrySpec.SYM,
                 limits: SearchLimits | None = None,
                 log=None) -> ExplorationResult:
    """Explore the Cayley graph of GL(n,2) from the identity.

    Returns exact distances for every stored canonical key and exact
    big-integer sphere sizes, stopping when the graph is exhausted or a
    limit trips.  With ``limits.threads > 1`` the tiles of each block's
    successors are canonicalized concurrently; the result is identical
    for any thread count.
    """
    if not 1 <= n <= gf2.MAX_ORDER:
        raise OrderError(f"order must be in 1..{gf2.MAX_ORDER}, got {n}")
    limits = limits or SearchLimits()
    level_keys: list[np.ndarray] = []
    sphere_sizes: list[int] = []
    orbit_counts: list[int] = []
    with _pool(limits.threads) as executor:
        for keys, elements, whole, successors, canonicalized, twins in _levels(
                n, spec, gf2.identity(n).bits, limits, executor):
            level_keys.append(keys)
            sphere_sizes.append(elements)
            orbit_counts.append(int(keys.size))
            if log is not None and len(level_keys) > 1:
                print(f"level {len(level_keys) - 1}: orbits={orbit_counts[-1]} "
                      f"elements={sphere_sizes[-1]} stored={sum(orbit_counts)} "
                      f"successors={successors} canonicalized={canonicalized} "
                      f"twins={twins} "
                      f"peak_rss={_peak_rss_mb():.1f}MB", file=log, flush=True)
    keys = np.concatenate(level_keys)
    keys.sort()
    dists = np.empty(keys.size, dtype=np.uint8)
    for d in range(len(level_keys)):
        # orbits are disjoint, so every key sits in exactly one level; a
        # level is placed a block at a time, so that no index array of a
        # whole level exists
        level = level_keys[d]
        for s in range(0, level.size, _BLOCK):
            dists[np.searchsorted(keys, level[s:s + _BLOCK])] = d
        level_keys[d] = level = None
    res = ExplorationResult(n=n, spec=spec, keys=keys, dists=dists,
                            sphere_sizes=sphere_sizes, orbit_counts=orbit_counts,
                            last_level_complete=whole)
    # the graph is connected, so having counted every element means
    # every level is exact, even after a budget stop
    res.last_level_complete = whole or res.complete
    return res


def _levels(n: int, spec: IsometrySpec, start: int,
            limits: SearchLimits, executor):
    """BFS levels from the orbit of the key ``start``, as (sorted
    canonical keys, elements, whole, successors, canonicalized, twins)
    tuples, level 0 first.

    Level b holds the orbits at distance b from the orbit of ``start``,
    and ``elements`` is the exact number of group elements in it, so
    level 0 counts the orbit of ``start`` (1 for the identity).
    ``whole`` is False only on a last level cut short by
    ``limits.max_orbits``.  ``successors`` counts the successors that
    the expansion into the level generated, ``canonicalized`` those of
    them that reached the kernel and ``twins`` those that the twin rule
    dropped; level 0 counts no successors and the start as
    canonicalized.

    Only the two newest levels stay referenced here while a level is
    handed out: a suspended generator keeps its locals alive, so the
    expansion's temporaries live and die in ``_next_level``.
    """
    prev = np.empty(0, dtype=np.uint64)
    curr, sizes = canonicalize_batch(np.array([start], dtype=np.uint64), n, spec)
    yield curr, int(sizes[0]), True, 0, 1, 0
    stored = 1
    depth = 0
    while limits.max_depth is None or depth < limits.max_depth:
        budget = None if limits.max_orbits is None else limits.max_orbits - stored
        level = _next_level(n, spec, prev, curr, executor, budget)
        nxt, _, whole, *_ = level
        if nxt.size == 0:
            return
        stored += nxt.size
        depth += 1
        prev, curr = curr, nxt
        yield level
        if not whole:
            return


# successors filtered and canonicalized per memory block.  Blocks of
# 2^17 explored GL(6,2) to depth 8 in about the same time, and their
# filter temporaries raised the peak RSS of that run by about 1 MB
_BLOCK = 1 << 16
# successors between two checks of the orbit budget, so that a capped
# level stops after the same frontier keys whatever _BLOCK is
_BUDGET_BLOCK = 1 << 20


def _fresh(values: np.ndarray, stored) -> np.ndarray:
    """Positions in ``values`` of one occurrence of each value that none
    of the sorted arrays of ``stored`` holds, in ascending order of
    value.  Each table is searched only for the values that the tables
    before it left."""
    order = np.argsort(values)
    values = values[order]
    new = np.ones(values.size, dtype=bool)
    np.not_equal(values[1:], values[:-1], out=new[1:])
    order, values = order[new], values[new]
    for table in stored:
        if table.size:
            idx = np.searchsorted(table, values)
            np.minimum(idx, table.size - 1, out=idx)
            new = table[idx] != values
            order, values = order[new], values[new]
    return order


def _drop_twin_images(raw: np.ndarray, keys: np.ndarray, n: int) -> int:
    """Overwrite in place with its frontier key every successor of the
    (keys, generators) array ``raw`` whose generator is not lowest in
    its orbit under the key's twin group; return how many.

    The twin group of g, the symmetric groups on its twin classes, fixes
    g, so a member s maps T[i,j]*g to T[s(i),s(j)]*g, an isometric
    successor of the same key.  The lowest (i, j) of an orbit has i
    lowest in its class and j lowest in its own or second in i's.  The
    frontier key is stored in the current level, so ``_fresh`` drops
    every successor written over."""
    # the generators in (i, j) lex order
    gi, gj = np.nonzero(~np.eye(n, dtype=bool))
    lower = _twins(keys, n)
    drop = lower[:, gi] != 0
    drop |= (lower[:, gj] & ~np.left_shift(np.uint8(1), gi.astype(np.uint8))) != 0
    np.copyto(raw, keys[:, None], where=drop)
    return int(np.count_nonzero(drop))


def _next_level(n, spec, prev, curr, executor, budget):
    """The level after ``curr``: sorted keys, their element count,
    whether the level is whole, and how many successors the expansion
    generated, canonicalized and dropped by the twin rule.  A block's
    raw successors and their canonical keys each pass ``_fresh``.
    Expansion stops after the budget block of frontier keys that takes
    the number of new keys past ``budget``."""
    gens = max(1, n * (n - 1))
    rows = max(1, _BLOCK // gens)
    budget_rows = max(1, _BUDGET_BLOCK // gens)
    nxt = np.empty(0, dtype=np.uint64)
    elements = successors = canonicalized = twins = 0
    for s in range(0, curr.size, budget_rows):
        stop = min(s + budget_rows, curr.size)
        for t in range(s, stop, rows):
            keys = curr[t:min(t + rows, stop)]
            raw = _successors(keys[:, None], n).reshape(keys.size, n * (n - 1))
            twins += _drop_twin_images(raw, keys, n)
            at = _fresh(raw.ravel(), (prev, curr, nxt))
            del raw
            successors += keys.size * n * (n - 1)
            canonicalized += at.size
            canon, sizes = canonicalize_successors(keys, n, spec, executor, at)
            del at
            new = _fresh(canon, (prev, curr, nxt))
            # new keys are new to nxt, so no orbit is counted twice; orbit
            # sizes <= 2*8! and |GL(8,2)| < 2^63, so uint64 is exact
            elements += int(sizes[new].sum(dtype=np.uint64))
            canon = canon[new]
            del sizes, new
            # two sorted runs, which a stable sort merges in linear time
            nxt = np.concatenate([nxt, canon])
            nxt.sort(kind="stable")
        if budget is not None and nxt.size > budget:
            return nxt, elements, False, successors, canonicalized, twins
    return nxt, elements, True, successors, canonicalized, twins


# ---------------------------------------------------------------------------
# queries over a result
# ---------------------------------------------------------------------------


def distance_of(res: ExplorationResult, m: BitMatrix) -> int:
    """Exact distance of m, i.e. its minimal CNOT count."""
    if m.n != res.n:
        raise DimensionError(f"matrix order {m.n} vs exploration order {res.n}")
    d = int(res.distances(np.uint64(canonicalize(m, res.spec).key.bits)))
    if d < 0:
        raise HorizonError(
            f"element beyond the explored horizon (depth {res.max_depth})")
    return d


@lru_cache(maxsize=None)
def _radius_two(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Every element of GL(n,2) within distance 2 of I, raw packed keys
    sorted ascending, and the int16 distance of each: I, the n(n-1)
    transvections and their products (1,961 elements at n=8).  Read-only,
    since they are shared."""
    ident = np.array([[gf2.identity(n).bits]], dtype=np.uint64)
    one = _successors(ident, n)
    two = _successors(one, n)
    words = np.concatenate([ident, one, two]).ravel()
    lengths = np.repeat(np.arange(3, dtype=np.int16), [1, one.shape[0], two.shape[0]])
    # words come shortest first, so the first of each value is its distance
    keys, first = np.unique(words, return_index=True)
    dists = lengths[first]
    keys.flags.writeable = dists.flags.writeable = False
    return keys, dists


def synthesize(res: ExplorationResult, m: BitMatrix) -> Circuit:
    """A circuit of exactly distance_of(m) gates evaluating to m.

    Greedy descent: scan generators in (i, j) lexicographic order and
    take the first one that moves one level closer to the identity.
    From a key at distance d every successor lies at distance d-1 or
    more, so a successor is closer exactly when it lies within d-1 of
    I.  The last four steps read that from the elements within distance
    2 of I, listed outright (``_radius_two``) and searched raw, without
    canonicalization: from d <= 3 the successor's own distance, and from
    d = 4 whether one of the successor's successors lies at distance 2.
    Only steps from d >= 5 canonicalize the successors and read their
    distances from ``res``.  Either way the same generator is taken.
    """
    d = distance_of(res, m)
    n = res.n
    near, near_dists = _radius_two(n)
    trans = gf2.all_transvections(n)
    found: list[Transvection] = []
    x = np.array([m.bits], dtype=np.uint64)
    while d > 0:
        # the successors of one key come in the generators' order
        succ = _successors(x[:, None], n).ravel()
        if d > 4:
            canon, _ = canonicalize_successors(x, n, res.spec)
            closer = res.distances(canon) == d - 1
        elif d == 4:
            grand = _successors(succ[:, None], n).reshape(succ.size, succ.size)
            closer = (_look_up(near, near_dists, grand) == 2).any(axis=1)
        else:
            closer = _look_up(near, near_dists, succ) == d - 1
        hit = np.flatnonzero(closer)
        if hit.size == 0:
            raise ConsistencyError("no descending neighbor found")
        found.append(trans[hit[0]])
        x = succ[hit[:1]]
        d -= 1
    # found = [t1, ..., td] with m = t1 * t2 * ... * td; gates apply
    # left-multiplicatively in list order, so emit in reverse
    return Circuit(n, tuple(reversed(found)))


# ---------------------------------------------------------------------------
# the bidirectional probe
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BidirOutcome:
    """Either the exact distance or a certified lower bound on it."""

    value: int
    exact: bool


def bidirectional_distance(n: int, target: BitMatrix,
                           spec: IsometrySpec = IsometrySpec.SYM,
                           fwd_depth: int = 1, bwd_depth: int = 1,
                           limits: SearchLimits | None = None,
                           log=None) -> BidirOutcome:
    """Meet-in-the-middle distance probe.

    A reduced forward ball of radius ``fwd_depth`` around the identity
    meets reduced backward levels from the orbit of ``target``; both
    hold canonical keys under ``spec``.  Isometries fix the identity, so
    the whole orbit lies at the target's distance D, and a member of
    backward level b at forward distance a gives D <= a + b.  A shortest
    path from the identity to the target has, for each j <= D, an
    element exactly j from the orbit and D - j from the identity.  So if
    D <= fwd_depth + bwd_depth, the first level to meet is
    b = max(0, D - fwd_depth), and there min(a) + b = D.  If the
    horizons never meet, D >= fwd_depth + bwd_depth + 1 is certified.

    ``fwd_depth`` and ``bwd_depth`` bound the search; of ``limits`` only
    ``threads`` is read, and a ``max_depth`` or ``max_orbits`` in it
    raises ``ValueError`` rather than being ignored.
    """
    if target.n != n:
        raise DimensionError(f"target order {target.n} vs {n}")
    if limits and (limits.max_depth is not None or limits.max_orbits is not None):
        raise ValueError("bidirectional_distance takes fwd_depth and bwd_depth, "
                         "not limits.max_depth or limits.max_orbits")
    threads = limits.threads if limits else 1
    fwd = isometry_bfs(n, spec, SearchLimits(max_depth=fwd_depth, threads=threads),
                       log=log)
    with _pool(threads) as executor:
        for b, (level, *_) in enumerate(_levels(
                n, spec, target.bits, SearchLimits(max_depth=bwd_depth), executor)):
            met = fwd.distances(level)
            if met.max() >= 0:
                best = int(met[met >= 0].min())
                if log is not None:
                    print(f"backward level {b}: met forward ball at depth {best}",
                          file=log, flush=True)
                return BidirOutcome(best + b, exact=True)
            if log is not None:
                print(f"backward level {b}: {level.size} orbits, no meet",
                      file=log, flush=True)
    return BidirOutcome(fwd_depth + bwd_depth + 1, exact=False)
