"""The reduced exploration against published tables and a naive oracle,
plus synthesis, bidirectional probing, limits and determinism."""

import dataclasses
import itertools
import random
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from cnotcayley import bfs, gf2, isometry
from cnotcayley.bfs import (
    BidirOutcome,
    SearchLimits,
    _levels,
    bidirectional_distance,
    distance_of,
    isometry_bfs,
    synthesize,
)
from cnotcayley.bounds import gl_order
from cnotcayley.errors import ConsistencyError, DimensionError, HorizonError, OrderError
from cnotcayley.essential import eval_poly, load_coeffs
from cnotcayley.gf2 import identity, invert, parse_matrix, parse_perm, perm_matrix, random_invertible
from cnotcayley.isometry import (
    IsometrySpec,
    canonicalize,
    canonicalize_batch,
    canonicalize_successors,
    transpose_inverse_keys,
)

# element counts per distance, from the published level-size table
SPHERES = {
    1: [1],
    2: [1, 2, 2, 1],
    3: [1, 6, 24, 51, 60, 24, 2],
    4: [1, 12, 96, 542, 2058, 5316, 7530, 4058, 541, 6],
    5: [1, 20, 260, 2570, 19680, 117860, 540470, 1769710, 3571175,
        3225310, 736540, 15740, 24],
}
# stored orbit counts per distance, from the published orbit table
ORBITS = {
    1: [1],
    2: [1, 1, 1, 1],
    3: [1, 1, 5, 9, 12, 4, 1],
    4: [1, 1, 6, 27, 94, 238, 334, 181, 25, 1],
    5: [1, 1, 6, 31, 200, 1069, 4740, 15198, 30461, 27333, 6236, 134, 1],
}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_sphere_tables_small(n, explored):
    res = explored(n)
    assert res.sphere_sizes == SPHERES[n]
    assert res.orbit_counts == ORBITS[n]
    assert res.complete and res.last_level_complete
    assert res.total_elements() == gl_order(n)


def test_order_validation():
    with pytest.raises(OrderError):
        isometry_bfs(0)
    with pytest.raises(OrderError):
        isometry_bfs(9)


def test_result_invariants(explored):
    res = explored(4)
    assert res.distances(identity(4).bits) == 0
    assert np.all(res.keys[1:] > res.keys[:-1])
    # keys are canonical; their orbit sizes recompute the sphere sizes
    canon, sizes = canonicalize_batch(res.keys, res.n, res.spec)
    assert np.array_equal(canon, res.keys)
    for d in range(res.max_depth + 1):
        at_d = res.dists == d
        assert int(sizes[at_d].sum()) == res.sphere_sizes[d]
    sample = random.Random(0).sample(range(res.keys.size), 40)
    for idx in sample:
        m = gf2.BitMatrix(4, int(res.keys[idx]))
        info = canonicalize(m, res.spec)
        assert info.key == m
        assert info.orbit_size == int(sizes[idx])


def test_distances_of_stored_and_missing_keys(explored):
    res = explored(3)
    assert np.issubdtype(res.distances(res.keys).dtype, np.signedinteger)
    assert np.array_equal(res.distances(res.keys), res.dists)
    # keys between, below and above the stored ones are not stored
    between = res.keys[:-1] + np.uint64(1)
    between = between[between < res.keys[1:]]
    assert between.size
    below = np.uint64(int(res.keys[0]) - 1)
    above = np.array([int(res.keys[-1]) + 1, 2**64 - 1], dtype=np.uint64)
    for missing in (between, below, above):
        out = res.distances(missing)
        assert out.dtype == res.distances(res.keys).dtype
        assert np.all(out == -1)
    mixed = np.array([res.keys[3], between[0], res.keys[-1]])
    assert res.distances(mixed).tolist() == [int(res.dists[3]), -1, int(res.dists[-1])]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_distances_match_unreduced_oracle(n, explored, oracle_dist):
    res = explored(n)
    for bits, d in oracle_dist(n).items():
        assert distance_of(res, gf2.BitMatrix(n, bits)) == d


def _times(keys, q, n):
    """keys * q for packed row-major matrices: row i of a product is the
    XOR of the rows j of q picked by the entries (i, j) of the key."""
    out = np.zeros_like(keys)
    for i in range(n):
        for j in range(n):
            picked = (keys >> np.uint64(i * n + j)) & np.uint64(1)
            row = np.uint64((q >> (j * n)) & ((1 << n) - 1))
            out ^= (picked * row) << np.uint64(i * n)
    return out


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("spec", ["sym", "sym-ti"])
def test_levels_from_an_orbit_match_oracle(n, spec, oracle_dist):
    # level b must hold the canonical keys of every x whose distance to
    # the orbit of the start is b, and count those x exactly
    spec = IsometrySpec(spec)
    truth = oracle_dist(n)
    group = np.array(sorted(truth), dtype=np.uint64)
    from_identity = np.array([truth[int(k)] for k in group])
    canon, _ = canonicalize_batch(group, n, spec)
    cycle = perm_matrix(parse_perm(f"({' '.join(map(str, range(1, n + 1)))})", n))
    starts = [identity(n), gf2.transvection_matrix(gf2.Transvection(1, 2), n),
              cycle, random_invertible(n, random.Random(n))]
    for start in starts:
        orbit = group[canon == canon[np.searchsorted(group, start.bits)]]
        # d(x, p) = d(p, x) = d(I, x * p^-1), minimised over the orbit
        from_orbit = np.full(group.size, group.size)
        for p in orbit:
            moved = _times(group, gf2.invert_bits(int(p), n), n)
            from_orbit = np.minimum(
                from_orbit, from_identity[np.searchsorted(group, moved)])
        levels = list(_levels(n, spec, start.bits, SearchLimits(), None))
        assert len(levels) == from_orbit.max() + 1
        for b, (level, elements, whole, *_) in enumerate(levels):
            at_b = from_orbit == b
            assert whole and elements == int(at_b.sum())
            assert np.array_equal(level, np.unique(canon[at_b]))
        assert sum(level[1] for level in levels) == gl_order(n)


# ---------------------------------------------------------------------------
# the successor filter before the kernel
# ---------------------------------------------------------------------------


def next_level_unfiltered(n, spec, prev, curr, budget):
    """The level after curr with every successor canonicalized, checking
    the budget after each budget block of frontier keys, as _next_level
    does."""
    rows = max(1, bfs._BUDGET_BLOCK // (n * (n - 1)))
    nxt = np.empty(0, dtype=np.uint64)
    elements = 0
    for s in range(0, curr.size, rows):
        canon, sizes = canonicalize_successors(curr[s:s + rows], n, spec)
        canon, first = np.unique(canon, return_index=True)
        new = ~np.isin(canon, np.concatenate([prev, curr, nxt]))
        elements += int(sizes[first][new].sum())
        nxt = np.union1d(nxt, canon[new])
        if budget is not None and nxt.size > budget:
            return nxt, elements, False
    return nxt, elements, True


@pytest.fixture(scope="module")
def unfiltered(explored):
    """Every level after the first of an exploration, whole or to a
    depth, as (previous level, level, the level after it unfiltered)."""
    cache = {}

    def get(n, spec, depth=None):
        if (n, spec, depth) not in cache:
            cache[n, spec, depth] = [
                (prev, curr, next_level_unfiltered(n, spec, prev, curr, None))
                for prev, curr in level_pairs(explored(n, spec, depth))]
        return cache[n, spec, depth]
    return get


def level_pairs(res):
    """(previous level, level) for every level of a result after the
    first."""
    levels = [res.keys[res.dists == d] for d in range(res.max_depth + 1)]
    return list(zip(levels, levels[1:]))


def assert_same_level(got, want):
    nxt, elements, whole, successors, canonicalized, twins = got
    assert nxt.dtype == np.uint64
    assert np.array_equal(nxt, want[0])
    assert (elements, whole) == want[1:]
    assert canonicalized + twins <= successors


@pytest.mark.parametrize("n", [3, 4, 5, 7, 8])
@pytest.mark.parametrize("spec", ["sym", "sym-ti"])
def test_filtered_level_matches_every_successor_canonicalized(unfiltered, n, spec):
    # whole groups up to order 5; at orders 7 and 8 the levels up to
    # depth 4, whose untouched indices make the twin rule drop the most
    spec = IsometrySpec(spec)
    levels = unfiltered(n, spec, None if n <= 5 else 4)
    dropped = 0
    for prev, curr, want in levels:
        got = bfs._next_level(n, spec, prev, curr, None, None)
        assert_same_level(got, want)
        dropped += got[5]
    assert dropped > 0


@pytest.mark.parametrize("n, spec, block", [(4, "sym", 36), (5, "sym-ti", 2000)])
def test_filtered_level_spanning_blocks(unfiltered, monkeypatch, n, spec, block):
    # blocks of 3 and 100 frontier keys: each block's filter also drops
    # the keys that earlier blocks added to the accruing level
    spec = IsometrySpec(spec)
    levels = unfiltered(n, spec)
    monkeypatch.setattr(bfs, "_BLOCK", block)
    assert max(curr.size for _, curr, _ in levels) * n * (n - 1) > 10 * block
    for prev, curr, want in levels:
        assert_same_level(bfs._next_level(n, spec, prev, curr, None, None), want)


@pytest.mark.parametrize("spec", ["sym", "sym-ti"])
def test_filtered_level_under_a_budget(explored, monkeypatch, spec):
    # budget blocks of 25 frontier keys in memory blocks of 10; the level
    # stops after the budget block that takes it past 300 new keys
    spec = IsometrySpec(spec)
    monkeypatch.setattr(bfs, "_BLOCK", 200)
    monkeypatch.setattr(bfs, "_BUDGET_BLOCK", 500)
    prev, curr = level_pairs(explored(5, spec))[5]
    want = next_level_unfiltered(5, spec, prev, curr, 300)
    assert not want[2] and want[0].size > 300
    assert_same_level(bfs._next_level(5, spec, prev, curr, None, 300), want)


def distinct(values):
    """The distinct values, sorted, without the hashing np.unique."""
    values = np.sort(values)
    return np.concatenate([values[:1], values[1:][values[1:] != values[:-1]]])


def representatives(raw, keys, n):
    """The successors in the (keys, generators) array ``raw`` at the
    positions the twin rule keeps: those it leaves unequal to their key,
    since no successor T*g equals g."""
    raw = raw.copy()
    bfs._drop_twin_images(raw, keys, n)
    return raw[raw != keys[:, None]]


@pytest.mark.parametrize("n, spec, block", [(4, "sym", 120), (5, "sym-ti", 8000)])
def test_only_fresh_successors_reach_the_kernel(explored, monkeypatch, n, spec, block):
    # in blocks of 10 and 400 frontier keys, exactly the distinct raw
    # successors at representative positions of the twin rule (checked
    # against its own oracle below) stored in none of the previous,
    # current and accruing next level reach the kernel, under sym-ti each
    # with its TI; canonicalizing every successor would send more
    spec = IsometrySpec(spec)
    pairs = level_pairs(explored(n, spec))
    monkeypatch.setattr(bfs, "_BLOCK", block)
    sent = []
    real_successors, real_chunk = bfs.canonicalize_successors, isometry._canonicalize_chunk

    def successors_of(*args):
        sent.append([])
        return real_successors(*args)

    def chunk(srcs, *args):
        sent[-1].append(srcs.copy())
        return real_chunk(srcs, *args)

    monkeypatch.setattr(bfs, "canonicalize_successors", successors_of)
    monkeypatch.setattr(isometry, "_canonicalize_chunk", chunk)
    rows = block // (n * (n - 1))
    dropped = 0
    for prev, curr in pairs:
        sent.clear()
        nxt, _, _, successors, canonicalized, twins = bfs._next_level(
            n, spec, prev, curr, None, None)
        assert len(sent) == -(-curr.size // rows)
        assert successors == curr.size * n * (n - 1)
        blocks = [np.concatenate(parts) if parts else np.empty((0, 2), np.uint64)
                  for parts in sent]
        stored = np.sort(np.concatenate([prev, curr]))
        known = stored
        for k, srcs in enumerate(blocks):
            keys = curr[k * rows:(k + 1) * rows]
            raw = isometry._successors(keys[:, None], n).reshape(keys.size, -1)
            kept = representatives(raw, keys, n)
            twins -= raw.size - kept.size
            fresh = distinct(kept)
            fresh = fresh[~np.isin(fresh, known)]
            assert np.array_equal(np.sort(srcs[:, 0]), fresh)
            if spec.uses_ti:
                assert np.array_equal(srcs[:, 1], transpose_inverse_keys(srcs[:, 0], n))
            canonicalized -= srcs.shape[0]
            dropped += raw.size - srcs.shape[0]
            canon = canonicalize_batch(srcs[:, 0], n, spec)[0]
            known = np.sort(np.concatenate([known, canon]))
        assert canonicalized == 0 and twins == 0
        assert np.array_equal(distinct(known[~np.isin(known, stored)]), nxt)
    assert dropped > 0


# ---------------------------------------------------------------------------
# the twin rule
# ---------------------------------------------------------------------------


def transposition(n, i, j):
    """The permutation swapping 0-based indices i and j."""
    images = list(range(1, n + 1))
    images[i], images[j] = j + 1, i + 1
    return gf2.Permutation(n, tuple(images))


def twin_masks_oracle(bits, n):
    """For each index i, the mask of the j < i whose transposition
    fixes the matrix under conjugation, in pure Python."""
    m = gf2.BitMatrix(n, bits)
    return [sum(1 << j for j in range(i)
                if gf2.conjugate_by_perm(transposition(n, i, j), m) == m)
            for i in range(n)]


def kept_generators_oracle(lower, n):
    """The generators (i, j) first in (i, j) order in their orbit under
    the group the twin transpositions generate, each orbit closed by
    brute force."""
    swaps = [(i, j) for i in range(n) for j in range(i) if lower[i] >> j & 1]
    seen, kept = set(), set()
    for pair in itertools.permutations(range(n), 2):
        if pair in seen:
            continue
        kept.add(pair)
        orbit, stack = {pair}, [pair]
        while stack:
            p = stack.pop()
            for a, b in swaps:
                q = tuple(b if x == a else a if x == b else x for x in p)
                if q not in orbit:
                    orbit.add(q)
                    stack.append(q)
        seen |= orbit
    return kept


def twin_rule_keys(explored):
    """(order, packed keys): identities, permutation matrices, keys with
    two non-trivial twin classes, and the BFS keys of whole groups up to
    order 4 and of balls to depth 4 at orders 5 to 8."""
    cases = [(n, [identity(n).bits]) for n in range(1, 9)]
    for n, text in [(4, "(1 2)(3 4)"), (5, "(1 2 3)"), (6, "(1 2)(3 4 5)"),
                    (8, "(1 2)(3 4)(5 6)(7 8)"), (8, "(1 2 3 4 5 6 7 8)")]:
        cases.append((n, [perm_matrix(parse_perm(text, n)).bits]))
    # row 6 adds rows 1 and 2: classes {1, 2} and {3, 4, 5}; the same
    # with the transpose of the 3x3 block of ones: {1, 2, 3}, {4, 5}
    cases.append((6, [parse_matrix("100000,010000,001000,000100,000010,110001").bits,
                      parse_matrix("100110,010110,001110,000100,000010,000001").bits]))
    for n in range(2, 9):
        cases.append((n, explored(n, IsometrySpec.SYM, None if n <= 4 else 4).keys.tolist()))
    return cases


def test_twin_masks_and_rule_match_oracle(explored):
    two_classes = 0
    for n, keys in twin_rule_keys(explored):
        keys = np.array(keys, dtype=np.uint64)
        lower = isometry._twins(keys, n)
        raw = isometry._successors(keys[:, None], n).reshape(keys.size, -1)
        succ = raw.copy()
        dropped = bfs._drop_twin_images(raw, keys, n)
        gens = list(itertools.permutations(range(n), 2))
        for k, key in enumerate(keys.tolist()):
            want = twin_masks_oracle(key, n)
            assert lower[k].tolist() == want
            classes = sum(1 for i in range(n) if want[i] and not any(
                want[j] >> i & 1 for j in range(i + 1, n)))
            two_classes += classes >= 2
            kept = kept_generators_oracle(want, n)
            for g, pair in enumerate(gens):
                # a dropped successor is overwritten by its key
                assert raw[k, g] == (succ[k, g] if pair in kept else key)
            dropped -= len(gens) - len(kept)
        assert dropped == 0
    assert two_classes >= 3


def test_distance_symmetry_under_inverse(explored):
    res = explored(4)
    rng = random.Random(3)
    for _ in range(100):
        m = random_invertible(4, rng)
        assert distance_of(res, m) == distance_of(res, invert(m))


def test_known_distances(explored):
    res3 = explored(3)
    assert distance_of(res3, identity(3)) == 0
    assert distance_of(res3, parse_matrix("111,010,011")) == 2
    res2 = explored(2)
    assert distance_of(res2, parse_matrix("01,10")) == 3


def test_order6_prefix_matches_published():
    # the full order-6 run takes about 20 minutes; its first seven
    # levels take a second and already cross-check millions of elements
    res = isometry_bfs(6, limits=SearchLimits(max_depth=6))
    assert res.sphere_sizes == [1, 30, 570, 8415, 101610, 1026852, 8747890]
    assert res.orbit_counts == [1, 1, 6, 32, 228, 1767, 13425]
    assert res.last_level_complete


def test_full_isometry_reduction(explored):
    # sphere sizes are graph properties, so both reductions agree on
    # them; full-isometry orbits merge transpose-inverse partners, so
    # every one covers one or two permutation orbits
    for n in (3, 4):
        sym = explored(n)
        ti = explored(n, spec=IsometrySpec.SYM_TI)
        assert ti.sphere_sizes == sym.sphere_sizes
        groups = {}
        for idx in range(sym.keys.size):
            m = gf2.BitMatrix(n, int(sym.keys[idx]))
            merged = canonicalize(m, IsometrySpec.SYM_TI).key.bits
            groups.setdefault(merged, []).append(int(sym.dists[idx]))
        assert len(groups) == sum(ti.orbit_counts)
        assert set(groups) == {int(k) for k in ti.keys}
        for dists in groups.values():
            assert len(dists) in (1, 2) and len(set(dists)) == 1


def assert_same_exploration(base, other):
    assert np.array_equal(base.keys, other.keys)
    assert np.array_equal(base.dists, other.dists)
    assert base.sphere_sizes == other.sphere_sizes
    assert base.orbit_counts == other.orbit_counts
    assert (base.complete, base.last_level_complete) == \
        (other.complete, other.last_level_complete)


def test_multithreaded_run_is_identical(explored):
    assert_same_exploration(explored(4),
                            isometry_bfs(4, limits=SearchLimits(threads=8)))


@pytest.mark.parametrize("n, spec, depth", [
    (5, "sym-ti", None),
    (8, "sym", 5),
])
def test_threaded_run_uses_the_pool(explored, monkeypatch, n, spec, depth):
    # the pool gets one task per chunk, and only from batches that span
    # at least two chunks, so two submissions show that one did
    spec = IsometrySpec(spec)
    base = explored(n, spec, depth)
    submitted = []
    submit = ThreadPoolExecutor.submit

    def counting(self, fn, *args, **kwargs):
        submitted.append(fn)
        return submit(self, fn, *args, **kwargs)

    monkeypatch.setattr(ThreadPoolExecutor, "submit", counting)
    threaded = isometry_bfs(n, spec, SearchLimits(max_depth=depth, threads=2))
    assert len(submitted) >= 2
    assert_same_exploration(base, threaded)


def test_max_depth_cap(explored):
    full = explored(4)
    res = isometry_bfs(4, limits=SearchLimits(max_depth=3))
    assert res.sphere_sizes == full.sphere_sizes[:4]
    assert res.orbit_counts == full.orbit_counts[:4]
    assert not res.complete
    assert res.last_level_complete
    assert res.max_exact_depth == 3
    rng = random.Random(4)
    shallow = 0
    for _ in range(200):
        m = random_invertible(4, rng)
        true_d = distance_of(full, m)
        if true_d <= 3:
            shallow += 1
            assert distance_of(res, m) == true_d
        else:
            with pytest.raises(HorizonError):
                distance_of(res, m)
    assert shallow > 0


def test_max_depth_at_diameter_detects_completeness():
    res = isometry_bfs(3, limits=SearchLimits(max_depth=6))
    assert res.complete and res.last_level_complete
    assert res.total_elements() == 168


def test_max_orbits_truncation(explored):
    full = explored(4)
    res = isometry_bfs(4, limits=SearchLimits(max_orbits=50))
    assert not res.complete
    assert not res.last_level_complete
    assert res.keys.size >= 50
    # every recorded distance is exact even mid-level
    assert np.array_equal(full.distances(res.keys), res.dists)
    # all sphere sizes except the last are exact
    assert res.sphere_sizes[:-1] == full.sphere_sizes[:res.max_depth]
    assert res.sphere_sizes[-1] <= full.sphere_sizes[res.max_depth]


def test_limit_validation():
    with pytest.raises(ValueError):
        SearchLimits(max_depth=0)
    with pytest.raises(ValueError):
        SearchLimits(threads=0)


@pytest.mark.parametrize("call, error, message", [
    (lambda explored: SearchLimits(max_orbits=0), ValueError,
     "max_orbits must be positive"),
    (lambda explored: distance_of(explored(3), identity(2)), DimensionError,
     "matrix order 2 vs exploration order 3"),
    (lambda explored: bidirectional_distance(3, identity(2)), DimensionError,
     "target order 2 vs 3"),
], ids=["max-orbits", "distance-order", "bidir-order"])
def test_bad_arguments_raise(explored, call, error, message):
    with pytest.raises(error, match=message):
        call(explored)


def test_max_orbits_budget_covering_the_group(explored):
    # one orbit short, the budget trips on the last level's only orbit:
    # a stop mid-level that has nonetheless counted every element
    full = explored(3)
    total = sum(full.orbit_counts)
    for budget in (total - 1, total):
        res = isometry_bfs(3, limits=SearchLimits(max_orbits=budget))
        assert res.complete and res.last_level_complete
        assert res.sphere_sizes == full.sphere_sizes
        assert np.array_equal(res.keys, full.keys)


# ---------------------------------------------------------------------------
# synthesis
# ---------------------------------------------------------------------------


def test_synthesize_identity(explored):
    assert synthesize(explored(3), identity(3)).gates == ()


def test_synthesize_parity_example(explored):
    m = parse_matrix("111,010,011")
    c = synthesize(explored(3), m)
    assert len(c) == 2
    assert gf2.eval_circuit(c) == m


def test_synthesize_round_trip_random(explored):
    res = explored(4)
    rng = random.Random(5)
    for _ in range(200):
        m = random_invertible(4, rng)
        c = synthesize(res, m)
        assert gf2.eval_circuit(c) == m
        assert len(c) == distance_of(res, m)


def test_synthesize_deterministic(explored):
    res = explored(4)
    rng = random.Random(6)
    for _ in range(20):
        m = random_invertible(4, rng)
        assert synthesize(res, m) == synthesize(res, m)


def assert_synthesis_matches_reference(res, matrices, synth_reference):
    """synthesize gives the reference descent's circuit, or raises the
    same exception, on every matrix; returns the outcomes."""
    outcomes = []
    for m in matrices:
        try:
            want = synth_reference(res, m)
        except (HorizonError, ConsistencyError) as exc:
            with pytest.raises(type(exc)):
                synthesize(res, m)
            outcomes.append(type(exc))
            continue
        assert synthesize(res, m) == want
        outcomes.append(len(want))
    return outcomes


@pytest.mark.parametrize("spec", ["sym", "sym-ti"])
def test_synthesize_matches_reference_on_gl3(explored, oracle_dist, synth_reference, spec):
    res = explored(3, IsometrySpec(spec))
    every = [gf2.BitMatrix(3, bits) for bits in oracle_dist(3)]
    assert sorted(assert_synthesis_matches_reference(res, every, synth_reference)) == \
        sorted(oracle_dist(3).values())


@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("spec", ["sym", "sym-ti"])
def test_synthesize_matches_reference_random(explored, synth_reference, n, spec):
    res = explored(n, IsometrySpec(spec))
    rng = random.Random(20 + n)
    matrices = [random_invertible(n, rng) for _ in range(1000)]
    lengths = assert_synthesis_matches_reference(res, matrices, synth_reference)
    # most random elements lie beyond distance 4, so both kinds of step run
    assert min(lengths) <= 4 < max(lengths)


@pytest.mark.parametrize("n, depth", [(7, 6), (8, 5)])
@pytest.mark.parametrize("spec", ["sym", "sym-ti"])
def test_synthesize_matches_reference_past_the_horizon(explored, synth_reference,
                                                      n, depth, spec):
    res = explored(n, IsometrySpec(spec), depth)
    rng = random.Random(n)
    trans = gf2.all_transvections(n)
    words = []
    for length in range(depth + 3):
        for _ in range(12):
            m = identity(n)
            for _ in range(length):
                m = gf2.apply_transvection(rng.choice(trans), m)
            words.append(m)
    outcomes = assert_synthesis_matches_reference(res, words, synth_reference)
    assert HorizonError in outcomes
    assert set(range(depth + 1)) <= set(outcomes)


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_radius_two_matches_published_spheres(n):
    keys, dists = bfs._radius_two(n)
    assert np.all(keys[1:] > keys[:-1])
    f2 = eval_poly(load_coeffs()[2], n)
    assert np.bincount(dists).tolist() == [1, n * (n - 1), f2]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_radius_two_matches_oracle(oracle_dist, n):
    keys, dists = bfs._radius_two(n)
    near = {bits: d for bits, d in oracle_dist(n).items() if d <= 2}
    assert dict(zip(keys.tolist(), dists.tolist())) == near


def test_synthesize_refuses_a_lowered_distance(explored):
    # an orbit stored 2 below its distance: the first step finds no
    # neighbour one closer, through the radius-2 table (stored 2 and 4)
    # and through a canonicalized step (stored 5), so no circuit of the
    # stored length comes out
    res = explored(5)
    for true in (4, 6, 7):
        idx = int(np.flatnonzero(res.dists == true)[0])
        dists = res.dists.copy()
        dists[idx] -= 2
        bad = dataclasses.replace(res, dists=dists)
        key = gf2.BitMatrix(5, int(res.keys[idx]))
        members = [key] + [gf2.conjugate_by_perm(gf2.parse_perm(c, 5), key)
                           for c in ("(1 2)", "(1 5 3)", "(2 4)(3 5)")]
        for m in members:
            assert distance_of(bad, m) == true - 2
            with pytest.raises(ConsistencyError, match="no descending neighbor"):
                synthesize(bad, m)


# ---------------------------------------------------------------------------
# bidirectional probe
# ---------------------------------------------------------------------------


def test_bidir_identity_target():
    out = bidirectional_distance(3, identity(3), fwd_depth=1, bwd_depth=1)
    assert out == BidirOutcome(0, True)


def test_bidir_long_cycle_n4(explored):
    target = perm_matrix(parse_perm("(1 2 3 4)", 4))
    out = bidirectional_distance(4, target, fwd_depth=5, bwd_depth=4)
    assert out.exact and out.value == 9
    assert out.value == distance_of(explored(4), target)


def test_bidir_asymmetric_split(explored):
    # the answer must not depend on how the depth budget is split
    res = explored(3)
    rng = random.Random(7)
    for _ in range(10):
        m = random_invertible(3, rng)
        d = distance_of(res, m)
        for fwd in range(0, d + 1):
            out = bidirectional_distance(3, m, fwd_depth=max(fwd, 1),
                                         bwd_depth=max(d - fwd, 1))
            assert out.exact and out.value == d


@pytest.mark.parametrize("n, fwd, bwd, expected", [
    (4, 5, 4, BidirOutcome(9, True)),
    (4, 2, 2, BidirOutcome(5, False)),
    (5, 7, 5, BidirOutcome(12, True)),
])
def test_bidir_threads_agree(monkeypatch, n, fwd, bwd, expected):
    # the long cycle (distance 9 at n=4, 12 at n=5): meets and a
    # depth-limited miss come out the same for one and two workers
    target = perm_matrix(parse_perm(f"({' '.join(map(str, range(1, n + 1)))})", n))
    assert bidirectional_distance(n, target, IsometrySpec.SYM, fwd, bwd) == expected
    # count the pool's tasks, and where the forward ball ends, to see
    # that the backward side still hands the workers several chunks
    submitted = []
    forward_done = []
    submit = ThreadPoolExecutor.submit
    explore = bfs.isometry_bfs

    def counting(self, fn, *args, **kwargs):
        submitted.append(fn)
        return submit(self, fn, *args, **kwargs)

    def forward(*args, **kwargs):
        res = explore(*args, **kwargs)
        forward_done.append(len(submitted))
        return res

    monkeypatch.setattr(ThreadPoolExecutor, "submit", counting)
    monkeypatch.setattr(bfs, "isometry_bfs", forward)
    assert bidirectional_distance(n, target, IsometrySpec.SYM, fwd, bwd,
                                  limits=SearchLimits(threads=2)) == expected
    if n == 5:  # at n=4 every batch fits one chunk and stays serial
        assert len(submitted) - forward_done[0] >= 2


@pytest.mark.parametrize("limits", [SearchLimits(max_depth=3),
                                    SearchLimits(max_orbits=10, threads=2)])
def test_bidir_rejects_limits_it_does_not_read(limits):
    # the depths of the probe are fwd_depth and bwd_depth
    with pytest.raises(ValueError, match="fwd_depth and bwd_depth"):
        bidirectional_distance(3, identity(3), fwd_depth=1, bwd_depth=1, limits=limits)


def test_bidir_certified_lower_bound(explored):
    res = explored(3)
    deep = gf2.BitMatrix(3, int(res.keys[res.dists == 6][0]))
    out = bidirectional_distance(3, deep, fwd_depth=2, bwd_depth=2)
    assert not out.exact
    assert out.value == 5
    assert out.value <= distance_of(res, deep)

