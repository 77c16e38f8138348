"""Memory bounds of the phases of an exploration's life.

Expanding a level, classifying a result, and saving and loading a
database each hold the stored keys plus one bounded block of
temporaries, never a copy of the result or a block of a whole level's
successors.  Peaks are read with ``tracemalloc``, which sees numpy's
allocations; every bound is a small multiple of the block or of the
result, in bytes.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from cnotcayley import bfs, essential, store
from cnotcayley.bfs import SearchLimits, isometry_bfs
from cnotcayley.essential import essential_counts_batch
from cnotcayley.isometry import IsometrySpec, _chunk_size, canonicalize_batch

SYM = IsometrySpec.SYM


def traced_peak(fn, *args):
    """(result of fn, peak bytes allocated above the start while it ran)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def g6_d7():
    """GL(6,2) to depth 7: 105,967 keys, levels 6 and 7 of 13,425 and
    90,507 orbits."""
    return isometry_bfs(6, SYM, SearchLimits(max_depth=7))


def test_next_level_holds_one_block(g6_d7):
    # level 6 has 402,750 successors, six full blocks and a part
    levels = [g6_d7.keys[g6_d7.dists == d] for d in (5, 6, 7)]
    prev, curr, want = levels
    assert curr.size * 30 > 3 * bfs._BLOCK
    (nxt, elements, whole, *_), peak = traced_peak(
        bfs._next_level, 6, SYM, prev, curr, None, None)
    assert np.array_equal(nxt, want) and whole
    assert elements == g6_d7.sphere_sizes[7]
    # the new level twice over while a block is merged in, and 80 bytes
    # per successor of one block: its raw successors, their sort and the
    # filter's searches, the canonical keys and orbit sizes of the ones
    # kept, the dedup's sort and index arrays, and the kernel's working
    # set; expanding the whole level as one block peaks at 17.4 MiB
    assert peak <= 2 * want.nbytes + 80 * bfs._BLOCK


def test_classify_holds_one_block(g6_d7):
    res = g6_d7
    assert res.keys.size > 6 * essential._BLOCK
    table, peak = traced_peak(essential.classify, res)
    # the cells the whole result gives at once
    canon, sizes = canonicalize_batch(res.keys, 6, SYM)
    cell = res.dists.astype(np.int64) * 7 + essential_counts_batch(res.keys, 6)
    want = {(int(c) // 7, int(c) % 7): int(sizes[cell == c].sum(dtype=np.uint64))
            for c in np.unique(cell)}
    assert table.cells == want
    # the kernel's largest chunk, plus 64 bytes per key of one block:
    # canonical keys, orbit sizes, essential counts and their cells;
    # classifying the whole result at once peaks at 6.5 MiB
    size = _chunk_size(6)
    kernel = max(traced_peak(canonicalize_batch, res.keys[s:s + size], 6, SYM)[1]
                 for s in range(0, res.keys.size, size))
    assert peak <= kernel + 64 * essential._BLOCK


def test_classify_skips_the_inexact_level(g6_d7):
    # level 7 marked inexact, as a budget stop leaves it: its keys are
    # spread over every block and must all be skipped
    res = dataclasses.replace(g6_d7, last_level_complete=False)
    table = essential.classify(res)
    assert table.d_max == 6
    assert table.cells == {c: v for c, v in essential.classify(g6_d7).cells.items()
                           if c[0] <= 6}


def test_save_holds_one_slice(g6_d7, tmp_path):
    path = tmp_path / "g6.db"
    _, peak = traced_peak(store.save, g6_d7, path)
    assert np.array_equal(store.load(path).keys, g6_d7.keys)
    # one slice of 9-byte entries and the header; building the whole
    # entry block at once peaks at 0.9 MiB for this result
    assert g6_d7.keys.size > 4 * store._SLICE
    assert peak <= 2 * 9 * store._SLICE


def test_load_holds_the_result_and_one_slice(g6_d7, tmp_path):
    path = tmp_path / "g6.db"
    store.save(g6_d7, path)
    back, peak = traced_peak(store.load, path)
    assert np.array_equal(back.keys, g6_d7.keys)
    assert np.array_equal(back.dists, g6_d7.dists)
    # the keys and distances, plus four slices of 9-byte entries: the
    # read buffer and the checks' temporaries; reading the entry block
    # whole and copying it out peaks at 2.6 MiB for this 0.9 MiB result
    result = back.keys.nbytes + back.dists.nbytes
    assert g6_d7.keys.size > 4 * store._SLICE
    assert peak <= result + 4 * 9 * store._SLICE
