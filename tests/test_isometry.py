"""Group actions, canonical keys, orbit sizes, and the oracle cross-check."""

import math
import random
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache
from itertools import permutations

import numpy as np
import pytest

from cnotcayley import gf2, isometry
from cnotcayley.gf2 import (
    BitMatrix,
    Permutation,
    Transvection,
    all_transvections,
    apply_transvection,
    identity,
    multiply,
    parse_matrix,
    parse_perm,
    perm_matrix,
    random_invertible,
    transpose_inverse,
    transvection_matrix,
)
from cnotcayley.errors import ConsistencyError, SingularError
from cnotcayley.isometry import (
    IsometrySpec,
    _min_stab_matmul,
    _min_stab_one,
    _min_stab_search,
    _sources,
    _successors,
    _tables,
    act,
    canonicalize,
    canonicalize_batch,
    canonicalize_reference,
    canonicalize_successors,
    transpose_inverse_keys,
)

SYM = IsometrySpec.SYM
SYM_TI = IsometrySpec.SYM_TI


def enumerate_group(n):
    """All invertible packed matrices by exhaustive filtering; independent
    of every exploration code path.  Tractable for n <= 4."""
    out = []
    for bits in range(1 << (n * n)):
        if BitMatrix(n, bits).is_invertible():
            out.append(bits)
    return out


def all_perms(n):
    return [Permutation(n, tuple(x + 1 for x in p))
            for p in permutations(range(n))]


def random_perm(n, rng):
    images = list(range(1, n + 1))
    rng.shuffle(images)
    return Permutation(n, tuple(images))


# ---------------------------------------------------------------------------
# the action
# ---------------------------------------------------------------------------


def test_act_identity_axiom():
    rng = random.Random(1)
    for _ in range(20):
        m = random_invertible(4, rng)
        assert act(Permutation.identity(4), 1, m) == m


def test_act_on_generator():
    sigma = gf2.parse_perm("(1 2)", 3)
    assert act(sigma, 1, transvection_matrix(Transvection(1, 2), 3)) == \
        transvection_matrix(Transvection(2, 1), 3)


def test_act_sign_validation():
    with pytest.raises(ValueError):
        act(Permutation.identity(3), 0, identity(3))


def test_act_composition_order_immaterial():
    rng = random.Random(2)
    for _ in range(30):
        m = random_invertible(5, rng)
        sigma = random_perm(5, rng)
        assert act(sigma, -1, m) == \
            gf2.conjugate_by_perm(sigma, transpose_inverse(m)) == \
            transpose_inverse(gf2.conjugate_by_perm(sigma, m))


def test_generators_preserved_by_every_isometry():
    rng = random.Random(3)
    for n in (3, 4, 5):
        gens = {transvection_matrix(t, n).bits for t in all_transvections(n)}
        for _ in range(10):
            sigma = random_perm(n, rng)
            for xi in (1, -1):
                image = {act(sigma, xi, BitMatrix(n, b)).bits for b in gens}
                assert image == gens


# ---------------------------------------------------------------------------
# canonical keys
# ---------------------------------------------------------------------------


def test_canonicalize_identity():
    for n in range(1, 7):
        for spec in (SYM, SYM_TI):
            info = canonicalize(identity(n), spec)
            assert info.key == identity(n)
            assert info.orbit_size == 1


def test_transvections_share_one_orbit():
    infos = {canonicalize(transvection_matrix(t, 3), SYM)
             for t in all_transvections(3)}
    assert len({i.key for i in infos}) == 1
    assert all(i.orbit_size == 6 for i in infos)


def test_distance_two_sphere_n3():
    # all 24 distance-2 elements fall into 5 orbits
    gens = [transvection_matrix(t, 3) for t in all_transvections(3)]
    ball1 = {identity(3).bits} | {g.bits for g in gens}
    sphere2 = set()
    for a in gens:
        for b in gens:
            bits = gf2.multiply(a, b).bits
            if bits not in ball1:
                sphere2.add(bits)
    assert len(sphere2) == 24
    by_key = {}
    for b in sphere2:
        info = canonicalize(BitMatrix(3, b), SYM)
        by_key[info.key.bits] = info.orbit_size
    assert len(by_key) == 5
    assert sum(by_key.values()) == 24


def test_canonical_idempotence():
    rng = random.Random(4)
    for n in (2, 3, 4, 5):
        for spec in (SYM, SYM_TI):
            for _ in range(20):
                info = canonicalize(random_invertible(n, rng), spec)
                again = canonicalize(info.key, spec)
                assert again.key == info.key
                assert again.orbit_size == info.orbit_size


def test_canonical_invariant_on_orbit():
    rng = random.Random(5)
    for _ in range(40):
        m = random_invertible(5, rng)
        sigma = random_perm(5, rng)
        for spec, signs in ((SYM, (1,)), (SYM_TI, (1, -1))):
            base = canonicalize(m, spec)
            for xi in signs:
                other = canonicalize(act(sigma, xi, m), spec)
                assert other.key == base.key
                assert other.orbit_size == base.orbit_size


def test_orbit_partition_of_full_group_n3():
    elements = enumerate_group(3)
    assert len(elements) == 168
    by_key = {}
    for bits in elements:
        info = canonicalize(BitMatrix(3, bits), SYM)
        by_key[info.key.bits] = info.orbit_size
    assert len(by_key) == 33
    assert sum(by_key.values()) == 168


def test_orbit_stabilizer_product():
    rng = random.Random(6)
    for n in range(1, 7):
        for spec in (SYM, SYM_TI):
            order = spec.group_order(n)
            for _ in range(6):
                m = random_invertible(n, rng)
                images = set()
                fixing = 0
                for sigma in all_perms(n):
                    for xi in ((1,) if spec is SYM else (1, -1)):
                        img = act(sigma, xi, m).bits
                        images.add(img)
                        if img == m.bits:
                            fixing += 1
                assert len(images) * fixing == order
                info = canonicalize(m, spec)
                assert info.orbit_size == len(images)
                assert info.key.bits == min(images)


def test_orbit_size_divides_group_order():
    rng = random.Random(7)
    for n in (3, 4, 5, 6):
        for spec in (SYM, SYM_TI):
            order = spec.group_order(n)
            for _ in range(15):
                info = canonicalize(random_invertible(n, rng), spec)
                assert order % info.orbit_size == 0
                assert info.orbit_size <= 2 * math.factorial(n)


def test_full_isometry_orbit_is_kappa_times_sym_orbit():
    rng = random.Random(8)
    for n in (3, 4, 5):
        for _ in range(25):
            m = random_invertible(n, rng)
            s = canonicalize(m, SYM).orbit_size
            f = canonicalize(m, SYM_TI).orbit_size
            kappa = f // s
            assert f == s * kappa and kappa in (1, 2)
            ti = transpose_inverse(m)
            sym_image_contains_ti = any(
                gf2.conjugate_by_perm(sigma, m) == ti for sigma in all_perms(n))
            assert kappa == (1 if sym_image_contains_ti else 2)


def test_fast_path_matches_reference_oracle():
    rng = random.Random(9)
    for n in range(1, 7):
        for spec in (SYM, SYM_TI):
            for _ in range(25):
                m = random_invertible(n, rng)
                fast = canonicalize(m, spec)
                ref = canonicalize_reference(m, spec)
                assert fast.key == ref.key
                assert fast.orbit_size == ref.orbit_size


def test_fast_path_matches_oracle_large_orders():
    # n=8 exercises the lex-leader search; the oracle costs ~0.2 s per
    # random matrix there (twice that under sym-ti), so samples are few
    rng = random.Random(10)
    for n, spec, count in ((7, SYM, 4), (8, SYM, 3), (8, SYM_TI, 2)):
        for _ in range(count):
            m = random_invertible(n, rng)
            fast = canonicalize(m, spec)
            ref = canonicalize_reference(m, spec)
            assert fast.key == ref.key
            assert fast.orbit_size == ref.orbit_size


def test_batch_matches_scalar():
    rng = random.Random(10)
    for n in (2, 5, 8):
        keys = np.array([random_invertible(n, rng).bits for _ in range(64)],
                        dtype=np.uint64)
        for spec in (SYM, SYM_TI):
            canon, sizes = canonicalize_batch(keys, n, spec)
            for idx in range(keys.size):
                info = canonicalize(BitMatrix(n, int(keys[idx])), spec)
                assert info.key.bits == int(canon[idx])
                assert info.orbit_size == int(sizes[idx])


def test_order_zero_canonicalize():
    info = canonicalize(BitMatrix(0, 0), SYM)
    assert info.key.n == 0 and info.orbit_size == 1


@pytest.mark.parametrize("spec", list(IsometrySpec), ids=lambda spec: spec.value)
def test_order_zero_reference(spec):
    m = BitMatrix(0, 0)
    assert canonicalize_reference(m, spec) == canonicalize(m, spec)


def test_order_two_groups_coincide():
    # at n=2 the transpose-inverse map equals conjugation by the swap,
    # so adding it changes neither keys nor orbit sizes
    for bits in enumerate_group(2):
        m = BitMatrix(2, bits)
        assert canonicalize(m, SYM) == canonicalize(m, SYM_TI)
        assert transpose_inverse(m) == \
            gf2.conjugate_by_perm(gf2.parse_perm("(1 2)", 2), m)


# ---------------------------------------------------------------------------
# the batched transpose-inverse and its derivation from a parent
# ---------------------------------------------------------------------------


def random_keys(n, count, seed):
    rng = random.Random(seed)
    return np.array([random_invertible(n, rng).bits for _ in range(count)],
                    dtype=np.uint64)


def successors(keys, n):
    """The successors of 1-D keys, key-major."""
    return _successors(keys[:, None], n)[:, 0]


def scalar_ti(keys, n):
    return np.array([gf2.transpose_inverse_bits(int(k), n) for k in keys],
                    dtype=np.uint64)


@pytest.mark.parametrize("n", [3, 4])
def test_ti_keys_whole_group(n):
    keys = np.array(enumerate_group(n), dtype=np.uint64)
    assert np.array_equal(transpose_inverse_keys(keys, n), scalar_ti(keys, n))


@pytest.mark.parametrize("n", [1, 2, 5, 6, 7, 8])
def test_ti_keys_random_invertibles(n):
    keys = random_keys(n, 2000, 40 + n)
    assert np.array_equal(transpose_inverse_keys(keys, n), scalar_ti(keys, n))


@pytest.mark.parametrize("n", [1, 3, 5, 8])
def test_ti_keys_agree_on_both_sides_of_the_scalar_cutoff(n):
    cut = isometry._SCALAR_TI_KEYS
    keys = random_keys(n, cut + 1, 20 + n)
    for count in (1, cut - 1, cut, cut + 1):
        out = transpose_inverse_keys(keys[:count], n)
        assert out.dtype == np.uint64
        assert np.array_equal(out, scalar_ti(keys[:count], n))


def test_ti_keys_empty():
    out = transpose_inverse_keys(np.empty(0, dtype=np.uint64), 5)
    assert out.dtype == np.uint64 and out.size == 0


def test_ti_keys_singular_in_batch_raises():
    keys = random_keys(5, 50, 7)
    # rows e1, e2, e3, e4, e4: rank 4, so only the last column lacks a pivot
    keys[31] = sum(1 << (5 * i + min(i, 3)) for i in range(5))
    assert not BitMatrix(5, int(keys[31])).is_invertible()
    with pytest.raises(SingularError):
        transpose_inverse_keys(keys, 5)
    # the scalar path of a few keys raises the same error
    assert isometry._SCALAR_TI_KEYS > 2
    with pytest.raises(SingularError):
        transpose_inverse_keys(keys[30:32], 5)


@pytest.mark.parametrize("n", range(2, 9))
def test_swapped_successors_of_ti_are_ti_of_successors(n):
    frontier = random_keys(n, 40, 50 + n)
    succ = _successors(_sources(frontier, n, SYM_TI), n)
    assert np.array_equal(succ[:, 0], successors(frontier, n))
    assert np.array_equal(succ[:, 1], transpose_inverse_keys(succ[:, 0], n))


@pytest.mark.parametrize("n", range(2, 9))
def test_successors_are_key_major_in_generator_order(n):
    # synthesize reads the successors of one key in the (i, j) lex order
    # of all_transvections
    frontier = np.append(random_keys(n, 5, 40 + n), np.uint64(identity(n).bits))
    gens = all_transvections(n)
    succ = successors(frontier, n)
    assert succ.size == len(gens) * frontier.size
    for k, key in enumerate(frontier.tolist()):
        m = BitMatrix(n, key)
        assert succ[k * len(gens):(k + 1) * len(gens)].tolist() == [
            apply_transvection(t, m).bits for t in gens]
    for spec in (SYM, SYM_TI):
        for key in frontier[[0, -1]].tolist():
            m = BitMatrix(n, key)
            canon, sizes = canonicalize_successors(np.array([key], dtype=np.uint64),
                                                   n, spec)
            infos = [canonicalize(apply_transvection(t, m), spec) for t in gens]
            assert canon.tolist() == [i.key.bits for i in infos]
            assert sizes.tolist() == [i.orbit_size for i in infos]


# ---------------------------------------------------------------------------
# successors canonicalized tile by tile
# ---------------------------------------------------------------------------


def assert_successors_match_batch(keys, n, spec, executor=None):
    canon, sizes = canonicalize_successors(keys, n, spec, executor)
    assert canon.dtype == sizes.dtype == np.uint64
    ref_canon, ref_sizes = canonicalize_batch(successors(keys, n), n, spec)
    assert np.array_equal(canon, ref_canon)
    assert np.array_equal(sizes, ref_sizes)


@pytest.mark.parametrize("n", range(1, 9))
def test_successors_match_batch_of_successors(n):
    # 0 keys, 1 key, a few, and more than one chunk of successors
    chunk = isometry._chunk_size(n)
    for count in (0, 1, 5, (chunk // max(1, n * (n - 1))) + 3):
        keys = random_keys(n, count, 150 + n)
        for spec in (SYM, SYM_TI):
            assert_successors_match_batch(keys, n, spec)


@pytest.mark.parametrize("n, count", [(3, 20), (5, 300), (8, 60)])
def test_successors_at_positions(n, count):
    # the successors at ascending positions of the layout, over one or
    # several tiles, are those of the whole layout there
    keys = random_keys(n, count, 190 + n)
    rng = np.random.default_rng(n)
    for spec in (SYM, SYM_TI):
        canon, sizes = canonicalize_successors(keys, n, spec)
        for at in (np.flatnonzero(rng.random(canon.size) < 0.6),
                   np.arange(0), np.arange(canon.size)):
            got, got_sizes = canonicalize_successors(keys, n, spec, at=at)
            assert got.dtype == got_sizes.dtype == np.uint64
            assert np.array_equal(got, canon[at])
            assert np.array_equal(got_sizes, sizes[at])


@pytest.mark.parametrize("threads", [1, 2])
def test_batch_with_given_ti_matches_default(threads):
    # canonicalize_successors derives the successors' TIs from the
    # keys' TIs; canonicalize_batch inverts every successor itself
    for n, count in ((3, 100), (5, 300), (7, 60)):
        keys = random_keys(n, count, 60 + n)
        if n == 7:
            # the executor runs tiles only when the successors span chunks
            assert keys.size * n * (n - 1) > _tables(n).chunk
        with ThreadPoolExecutor(threads) as ex:
            assert_successors_match_batch(keys, n, SYM_TI, ex if threads > 1 else None)


@pytest.mark.parametrize("n", [4, 6, 8])
def test_results_do_not_depend_on_chunk_size(monkeypatch, n):
    # chunks of 1 and 7 keys fill the outputs slice by slice; a chunk
    # larger than the batch returns the single chunk's arrays.  With four
    # frontier keys, successor tiles of 1, 3, 7 and 9 positions cut
    # through keys, and a chunk of three keys' successors gives tiles of
    # three keys and of one
    frontier = np.append(random_keys(n, 3, 100 + n), np.uint64(identity(n).bits))
    keys = successors(frontier, n)
    expected = {}
    for spec in (SYM, SYM_TI):
        infos = [canonicalize(BitMatrix(n, int(k)), spec) for k in keys]
        expected[spec] = ([i.key.bits for i in infos], [i.orbit_size for i in infos])
    for size in (keys.size + 1, 1, 3, 7, 9, 3 * n * (n - 1)):
        if n <= isometry._MATMUL_MAX_ORDER:
            monkeypatch.setattr(_tables(n), "chunk", size)
        else:
            monkeypatch.setattr(isometry, "_SEARCH_CHUNK", size)
        for spec in (SYM, SYM_TI):
            canon, sizes = canonicalize_batch(keys, n, spec)
            assert canon.dtype == sizes.dtype == np.uint64
            assert (canon.tolist(), sizes.tolist()) == expected[spec]
            for threads in (1, 2):
                with ThreadPoolExecutor(threads) as ex:
                    canon, sizes = canonicalize_successors(frontier, n, spec,
                                                           ex if threads > 1 else None)
                assert canon.dtype == sizes.dtype == np.uint64
                assert (canon.tolist(), sizes.tolist()) == expected[spec]


def test_successor_tiles_reraise_a_workers_error(monkeypatch):
    keys = random_keys(4, 100, 170)
    real = isometry._canonicalize_chunk
    calls = []

    def failing(*args):
        calls.append(None)
        if len(calls) == 2:
            raise ConsistencyError("injected")
        return real(*args)

    monkeypatch.setattr(isometry, "_canonicalize_chunk", failing)
    # twelve tiles of 100 successors each
    monkeypatch.setattr(_tables(4), "chunk", keys.size)
    with ThreadPoolExecutor(2) as ex:
        with pytest.raises(ConsistencyError, match="injected"):
            canonicalize_successors(keys, 4, SYM, ex)
    # under sym-ti a singular key is refused when the keys are inverted
    keys[7] = 0
    with pytest.raises(SingularError):
        canonicalize_successors(keys, 4, SYM_TI)


@pytest.mark.parametrize("spec", [SYM, SYM_TI])
def test_batch_memory_stays_chunk_sized(spec):
    # the 102,000 successors of 3,400 keys at n=6: the peak is the two
    # outputs plus one chunk's working set (measured 1.6 MiB under sym,
    # 2.1 under sym-ti), with no successor or TI array for the whole
    # batch and no image plane for it
    keys = random_keys(6, 3400, 130)
    canonicalize_batch(keys[:10], 6, spec)     # tables built outside the trace
    tracemalloc.start()
    try:
        canon, sizes = canonicalize_successors(keys, 6, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert canon.size == 30 * keys.size
    assert peak - (canon.nbytes + sizes.nbytes) < 1.25 * isometry._PLANE_BYTES


@pytest.mark.parametrize("spec", [SYM, SYM_TI])
def test_tied_chunk_memory_stays_bounded(spec):
    # every index of a fixed-point-free permutation matrix ties for the
    # top image row, and P^-T = P, so each key brings n candidates (2n
    # under sym-ti) instead of the one or two a chunk is sized for
    n = 6
    derangements = [p for p in permutations(range(1, n + 1))
                    if all(p[k] != k + 1 for k in range(n))]
    keys = np.array([perm_matrix(Permutation(n, derangements[k % len(derangements)])).bits
                     for k in range(2000)], dtype=np.uint64)
    canonicalize_batch(keys[:10], n, spec)     # tables built outside the trace
    tracemalloc.start()
    try:
        canon, sizes = canonicalize_batch(keys, n, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the chunk's working set is sized for two candidates per key
    ties = 2 * n if spec.uses_ti else n
    assert peak - (canon.nbytes + sizes.nbytes) < 1.25 * ties / 2 * isometry._PLANE_BYTES


# ---------------------------------------------------------------------------
# the pruned product that serves n <= 7
# ---------------------------------------------------------------------------


def assert_pruned_matches_full(keys, n, full_matmul):
    for spec in (SYM, SYM_TI):
        srcs = _sources(keys, n, spec)
        canon, stab = _min_stab_matmul(srcs, _tables(n))
        ref_canon, ref_stab = full_matmul(keys, srcs[:, 1] if spec.uses_ti else None, n)
        assert np.array_equal(canon, ref_canon)
        assert np.array_equal(stab, ref_stab)
        # the scalar path of single-key callers
        for k in range(0, keys.size, max(1, keys.size // 50)):
            assert _min_stab_one(srcs[k].tolist(), _tables(n)) == \
                (int(ref_canon[k]), int(ref_stab[k]))


@pytest.mark.parametrize("n", range(1, 8))
def test_pruned_matmul_matches_full_on_random_keys(full_matmul, n):
    assert_pruned_matches_full(random_keys(n, 5000, 140 + n), n, full_matmul)


@pytest.mark.parametrize("n", range(1, 8))
def test_pruned_matmul_matches_full_on_shallow_balls(explored, full_matmul, n):
    # near the identity live the ties, the twins and the large stabilizers
    for spec in (SYM, SYM_TI):
        ball = explored(n, spec, 3).keys
        assert_pruned_matches_full(np.concatenate([ball, successors(ball, n)]), n,
                                   full_matmul)


def block_diagonal(*blocks):
    """The block-diagonal matrix of the given blocks, each as its rows."""
    n = sum(len(b) for b in blocks)
    rows, at = [], 0
    for b in blocks:
        rows += ["0" * at + r + "0" * (n - at - len(r)) for r in b]
        at += len(b)
    return parse_matrix(",".join(rows))


def best_top_rows(bits, n):
    """The least (diagonal bit, off-diagonal weight) over the rows of a
    packed matrix, and the indices whose rows attain it."""
    rows = [(bits >> (i * n)) & ((1 << n) - 1) for i in range(n)]
    scores = [((r >> i) & 1, bin(r).count("1") - ((r >> i) & 1)) for i, r in enumerate(rows)]
    return min(scores), [i for i, sc in enumerate(scores) if sc == min(scores)]


# the least top row of each matrix's TI is unique and beats every row of
# the matrix itself (asserted below)
TI_TOP_ROW = {
    6: "110010,011010,001010,000100,010010,001011",
    7: "1000000,0100001,1010000,0101100,0000100,0000010,0100100",
}


def structured_matrices(n):
    def t(i, j):
        return transvection_matrix(Transvection(i, j), n)

    def cycle(k):
        return perm_matrix(parse_perm("(" + " ".join(map(str, range(1, k + 1))) + ")", n))

    pad = [["1"]] * (n - 6)
    b2, a3, c4 = ["11", "01"], ["110", "011", "001"], ["1011", "0110", "0011", "0001"]
    cases = {
        "identity": identity(n),
        "6-cycle": cycle(6),
        "three equal 2x2 blocks": block_diagonal(b2, b2, b2, *pad),
        "two equal 3x3 blocks": block_diagonal(a3, a3, *pad),
        "2x2 and 4x4 blocks": block_diagonal(b2, c4, *pad),
        # row 1 adds rows 2 and 3: twins {2, 3} and {4, ..., n}
        "twins": multiply(t(1, 2), t(1, 3)),
        # a class of three twins next to a transvection
        "three twins": multiply(multiply(t(1, 2), t(1, 3)), multiply(t(1, 4), t(5, 6))),
        "top row only from TI": parse_matrix(TI_TOP_ROW[n]),
    }
    if n == 7:
        cases["7-cycle"] = cycle(7)
        cases["3x3 and 4x4 blocks"] = block_diagonal(a3, c4)
    return cases


@pytest.mark.parametrize("n, name", [(n, name) for n in (6, 7)
                                     for name in sorted(structured_matrices(n))])
def test_matmul_matches_oracle_on_structured(n, name):
    m = structured_matrices(n)[name]
    for spec in (SYM, SYM_TI):
        ref = canonicalize_reference(m, spec)
        assert canonicalize(m, spec) == ref
        # a batch takes the vectorised path
        canon, sizes = canonicalize_batch(np.array([m.bits] * 2, dtype=np.uint64), n, spec)
        assert (int(canon[1]), int(sizes[1])) == (ref.key.bits, ref.orbit_size)


@pytest.mark.parametrize("n", [6, 7])
def test_ti_case_takes_its_top_row_from_ti(n):
    m = parse_matrix(TI_TOP_ROW[n])
    best, _ = best_top_rows(m.bits, n)
    ti_best, ti_at = best_top_rows(transpose_inverse(m).bits, n)
    assert ti_best < best and len(ti_at) == 1
    assert canonicalize(m, SYM_TI).key != canonicalize(m, SYM).key


# ---------------------------------------------------------------------------
# the cell split of the top row
# ---------------------------------------------------------------------------


def top_row_weight(bits, n, spec):
    """The off-diagonal weight w of a minimal image's top row: that of
    the least row over the key and, under sym-ti, its TI."""
    sources = [bits] + ([gf2.transpose_inverse_bits(bits, n)] if spec.uses_ti else [])
    return min(best_top_rows(src, n)[0] for src in sources)[1]


def split_keys(n, spec, count, seed):
    """Packed keys whose minimal images have each top-row weight w =
    0..n-1 under a spec, conjugated by random permutations, and
    permutation matrices.  Every row but row 0 holds its diagonal bit.
    For w = 0 the rows are unit upper triangular, so the last is a unit
    row; for w >= 1 row 0 holds ones at 1..w and no diagonal bit, and
    w = n-1 is a row of all off-diagonal ones.  The other rows are
    drawn at random until the matrix is invertible and, under sym-ti,
    its TI has no row below w (one draw in 2,000 at n=7 for w = 5, 6)."""
    rng = random.Random(seed)
    keys = []
    for w in range(n):
        found = 0
        while found < count:
            rows = [[int((w or j > i) and rng.random() < 0.5) for j in range(n)]
                    for i in range(n)]
            for i in range(n):
                rows[i][i] = 1
            if w:
                rows[0] = [int(1 <= j <= w) for j in range(n)]
            m = BitMatrix(n, sum(1 << (i * n + j) for i in range(n) for j in range(n)
                                 if rows[i][j]))
            if m.is_invertible() and top_row_weight(m.bits, n, spec) == w:
                keys.append(gf2.conjugate_by_perm(random_perm(n, rng), m).bits)
                found += 1
    keys += [perm_matrix(random_perm(n, rng)).bits for _ in range(count)]
    return np.array(keys, dtype=np.uint64)


class RecordingTables(list):
    """A list of tables that records which are read."""

    def __init__(self, tables):
        super().__init__(tables)
        self.read = set()

    def __getitem__(self, w):
        self.read.add(int(w))
        return super().__getitem__(w)


@pytest.mark.parametrize("n", range(3, 8))
def test_split_matches_oracles_on_every_top_row_weight(monkeypatch, full_matmul, n):
    # every w, with its own table (a constant of 1) and in the full table
    # (a constant no batch reaches), against the full product
    t = _tables(n)
    wf = RecordingTables(t.wf)
    monkeypatch.setattr(t, "wf", wf)
    for spec in (SYM, SYM_TI):
        keys = split_keys(n, spec, 12, 200 + n)
        weights = [top_row_weight(int(k), n, spec) for k in keys]
        assert set(weights) == set(range(n))
        srcs = _sources(keys, n, spec)
        ref = full_matmul(keys, srcs[:, 1] if spec.uses_ti else None, n)
        for madds, read in ((1, set(range(n - 1))), (10**18, {0})):
            monkeypatch.setattr(isometry, "_W_TABLE_MADDS", madds)
            wf.read.clear()
            canon, stab = _min_stab_matmul(srcs, t)
            assert wf.read == read
            assert np.array_equal(canon, ref[0]) and np.array_equal(stab, ref[1])
        # the scalar path takes each key's own table, against the plain
        # enumeration (on one key per w at n=7, where it is slow)
        for w in range(n):
            at = [k for k, kw in enumerate(weights) if kw == w][:3 if n < 7 else 1]
            for k in at:
                m = BitMatrix(n, int(keys[k]))
                assert canonicalize(m, spec) == canonicalize_reference(m, spec)


@pytest.mark.parametrize("n", range(1, 8))
def test_split_tables(n):
    t = _tables(n)
    nb = n + 1
    for w in range(n):
        table = t.wf[w].astype(np.uint64)
        cut = w if 0 < w < n - 1 else 0
        assert table.shape == (math.factorial(cut) * math.factorial(n - 1 - cut), n * n)
        # each row's diagonal weights name its permutation p, and every
        # entry (i, j) weighs 2^(p(i)*n + p(j))
        perms = set()
        for row in table.tolist():
            p = [row[i * nb].bit_length() // nb for i in range(n)]
            assert sorted(p) == list(range(n)) and p[n - 1] == n - 1
            assert set(p[:cut]) == set(range(cut))
            assert row == [1 << (p[i] * n + p[j]) for i in range(n) for j in range(n)]
            perms.add(tuple(p))
        assert len(perms) == table.shape[0]
    for a in range(n):
        for r in range(1 << n):
            masks = t.relabel[r | a << n].tolist()
            # entry (i, j) of the relabelled matrix reads source entry
            # (s(i), s(j)), s listing per new label the index it takes
            s = [masks[i * nb].bit_length() // nb for i in range(n)]
            ones = {j for j in range(n) if j != a and r >> j & 1}
            assert s[n - 1] == a and sorted(s) == list(range(n))
            assert set(s[:len(ones)]) == ones
            assert masks == [1 << (s[i] * n + s[j]) for i in range(n) for j in range(n)]


# ---------------------------------------------------------------------------
# the lex-leader search that serves order 8
# ---------------------------------------------------------------------------


def assert_search_matches_matmul(keys, n):
    for spec in (SYM, SYM_TI):
        srcs = _sources(keys, n, spec)
        canon, stab = _min_stab_search(srcs, n)
        ref_canon, ref_stab = _min_stab_matmul(srcs, _tables(n))
        assert np.array_equal(canon, ref_canon)
        assert np.array_equal(stab, ref_stab)


@pytest.mark.parametrize("n", range(1, 8))
def test_search_matches_matmul_on_random_keys(n):
    assert_search_matches_matmul(random_keys(n, 10_000, 80 + n), n)


@pytest.mark.parametrize("n", range(1, 8))
def test_search_matches_matmul_on_shallow_balls(explored, n):
    # near the identity live the twins and the large stabilizers
    for spec in (SYM, SYM_TI):
        ball = explored(n, spec, 3).keys
        assert_search_matches_matmul(np.concatenate([ball, successors(ball, n)]), n)


@pytest.mark.parametrize("n", [6, 7])
def test_search_splits_at_the_children_cap(explored, monkeypatch, n):
    # a cap of 40 children splits the keys down to one or two per part,
    # at many positions, and the results stay those of the whole block
    ball = explored(n, SYM, 3).keys
    keys = np.concatenate([ball, successors(ball, n)])
    monkeypatch.setattr(isometry, "_SEARCH_CHILDREN", 40)
    assert_search_matches_matmul(keys, n)


def test_search_memory_follows_the_children_cap():
    # the heaviest of the depth-5 successors of GL(8,2) keeps 540 live
    # branches; a chunk of its copies forms 552,960 children at one
    # position and peaks at 23.7 MiB uncapped
    m = parse_matrix("10101100,01110000,00100000,00010000,"
                     "00001000,00000100,00000010,00000001")
    assert m.bits == 0x8040201008040E35
    keys = np.full(isometry._SEARCH_CHUNK, m.bits, dtype=np.uint64)
    want = canonicalize(m, SYM)
    tracemalloc.start()
    try:
        canon, sizes = canonicalize_batch(keys, 8, SYM)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert set(canon.tolist()) == {want.key.bits}
    assert set(sizes.tolist()) == {want.orbit_size}
    # the children of one half-block and the branches of the halves
    # still waiting: measured 3.2 MiB
    assert peak < 100 * isometry._SEARCH_CHILDREN


def order8_structured_matrices():
    t = {(i, j): transvection_matrix(Transvection(i, j), 8)
         for i, j in ((1, 2), (3, 4), (5, 6), (7, 8))}
    return {
        "identity": identity(8),
        "one transvection": t[1, 2],
        "two disjoint transvections": multiply(t[1, 2], t[3, 4]),
        "8-cycle": perm_matrix(parse_perm("(1 2 3 4 5 6 7 8)", 8)),
        # blocks [[1, 1], [0, 1]] are not twins; their automorphisms
        # permute the blocks
        "four equal 2x2 blocks": multiply(multiply(t[1, 2], t[3, 4]),
                                          multiply(t[5, 6], t[7, 8])),
    }


@pytest.mark.parametrize("name", sorted(order8_structured_matrices()))
def test_search_matches_oracle_on_structured_order8(name):
    m = order8_structured_matrices()[name]
    for spec in (SYM, SYM_TI):
        assert canonicalize(m, spec) == canonicalize_reference(m, spec)


def test_search_matches_oracle_on_order8_words(monkeypatch):
    # only at n = 8 are all eight lanes of the search's branch state
    # live, and there is no matmul to compare with: three words of each
    # length 1..8 over the transvections, against the plain enumeration,
    # scalar and batched, whole and split at a cap of 40 children
    rng = random.Random(180)
    gens = all_transvections(8)
    words = []
    for length in range(1, 9):
        for _ in range(3):
            m = identity(8)
            for _ in range(length):
                m = apply_transvection(rng.choice(gens), m)
            words.append(m)
    keys = np.array([m.bits for m in words], dtype=np.uint64)
    for spec in (SYM, SYM_TI):
        ref = [canonicalize_reference(m, spec) for m in words]
        assert [canonicalize(m, spec) for m in words] == ref
        expected = ([r.key.bits for r in ref], [r.orbit_size for r in ref])
        for cap in (isometry._SEARCH_CHILDREN, 40):
            monkeypatch.setattr(isometry, "_SEARCH_CHILDREN", cap)
            canon, sizes = canonicalize_batch(keys, 8, spec)
            assert (canon.tolist(), sizes.tolist()) == expected


def test_order8_builds_no_permutation_table(monkeypatch):
    built = []

    class Recording(isometry._PermTables):
        def __init__(self, n):
            built.append(n)
            super().__init__(n)

    monkeypatch.setattr(isometry, "_PermTables", Recording)
    monkeypatch.setattr(isometry, "_tables",
                        lru_cache(maxsize=None)(lambda n: isometry._PermTables(n)))
    canonicalize(identity(8), SYM_TI)
    canonicalize_batch(successors(random_keys(8, 30, 90), 8), 8, SYM)
    assert built == []
    canonicalize(identity(7), SYM)
    assert built == [7]


# ---------------------------------------------------------------------------
# successor orbits
# ---------------------------------------------------------------------------


def test_successor_orbit_sets_agree_across_orbit():
    # same-orbit inputs yield the same successor key sets
    rng = random.Random(12)
    for _ in range(15):
        m = random_invertible(4, rng)
        sigma = random_perm(4, rng)
        g2 = act(sigma, 1, m)
        keys1 = {canonicalize(apply_transvection(t, m), SYM).key.bits
                 for t in all_transvections(4)}
        keys2 = {canonicalize(apply_transvection(t, g2), SYM).key.bits
                 for t in all_transvections(4)}
        assert keys1 == keys2
