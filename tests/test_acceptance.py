"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  Criterion 2 (the
order-6 full exploration, about 20 minutes on two cores) only runs
when CNOTCAYLEY_STRETCH=1 is set.  All assertions are exact; expected values
are frozen from the published tables or computed by the independent
oracles defined here and in conftest.
"""

import os
import random
from itertools import permutations as iter_perms

import numpy as np
import pytest

from cnotcayley import gf2, store
from cnotcayley.bfs import (
    SearchLimits,
    bidirectional_distance,
    distance_of,
    isometry_bfs,
    synthesize,
)
from cnotcayley.bounds import (
    SphereProfile,
    ell,
    product_inequality_check,
    quadratic_crossing,
)
from cnotcayley.essential import classify, extract_coeffs, eval_poly, load_coeffs
from cnotcayley.gf2 import (
    BitMatrix,
    Permutation,
    eval_circuit,
    identity,
    multiply,
    parse_matrix,
    parse_perm,
    perm_matrix,
    random_invertible,
    transvection_matrix,
)
from cnotcayley.isometry import (
    IsometrySpec,
    act,
    canonicalize,
    canonicalize_reference,
)
from cnotcayley.permcheck import partitions, verify_conjecture

SYM = IsometrySpec.SYM
SYM_TI = IsometrySpec.SYM_TI

# ---- frozen expected data (published tables) ------------------------------

SPHERES = {
    2: [1, 2, 2, 1],
    3: [1, 6, 24, 51, 60, 24, 2],
    4: [1, 12, 96, 542, 2058, 5316, 7530, 4058, 541, 6],
    5: [1, 20, 260, 2570, 19680, 117860, 540470, 1769710, 3571175,
        3225310, 736540, 15740, 24],
}
ORBITS = {
    2: [1, 1, 1, 1],
    3: [1, 1, 5, 9, 12, 4, 1],
    4: [1, 1, 6, 27, 94, 238, 334, 181, 25, 1],
    5: [1, 1, 6, 31, 200, 1069, 4740, 15198, 30461, 27333, 6236, 134, 1],
}
COEFFS = {
    1: (0, 0, 2),
    2: (0, 0, 2, 18, 12),
    3: (0, 0, 1, 48, 344, 360, 120),
    4: (0, 0, 0, 60, 1818, 9990, 13200, 7560, 1680),
}
SPHERES_67 = {
    (1, 6): 30, (2, 6): 570, (3, 6): 8415, (4, 6): 101610,
    (1, 7): 42, (2, 7): 1092, (3, 7): 22141, (4, 7): 375480,
}
ELL_10 = {20: 58, 21: 63, 22: 68, 23: 73, 24: 78, 25: 83, 26: 89,
          27: 95, 28: 101, 29: 107, 30: 113, 40: 183}
SPHERES_6_FULL = [1, 30, 570, 8415, 101610, 1026852, 8747890, 61978340,
                  355193925, 1561232840, 4753747050, 8111988473,
                  4866461728, 437272014, 949902, 120]


def report(num, detail):
    print(f"\n[criterion {num}] PASS  {detail}")


# ---------------------------------------------------------------------------


def test_criterion_1_sphere_tables(explored):
    for n in (2, 3, 4, 5):
        res = explored(n)
        assert res.complete
        assert res.sphere_sizes == SPHERES[n], f"sphere sizes differ at n={n}"
        assert res.orbit_counts == ORBITS[n], f"orbit counts differ at n={n}"
    assert explored(5).total_elements() == 9_999_360
    assert sum(explored(5).orbit_counts) == 85_411
    assert explored(5).max_depth == 12
    report(1, "sphere tables and orbit counts exact for n = 2..5; "
              "|GL(5,2)| = 9,999,360 over 85,411 orbits, diameter 12")


@pytest.mark.skipif(not os.environ.get("CNOTCAYLEY_STRETCH"),
                    reason="about 20 min and 565 MB RSS with 2 threads on a 2-core "
                           "host; set CNOTCAYLEY_STRETCH=1 to run")
def test_criterion_2_stretch_n6():
    res = isometry_bfs(6, limits=SearchLimits(threads=os.cpu_count() or 1))
    assert res.complete
    assert res.sphere_sizes == SPHERES_6_FULL
    assert sum(res.orbit_counts) == 28_227_922
    assert res.max_depth == 15
    report(2, "order-6 exploration: 28,227,922 orbits, diameter 15")


def test_criterion_3_polynomial_coefficients(explored):
    for d in (1, 2, 3, 4):
        res = explored(2 * d, max_depth=d)
        table = classify(res)
        got = extract_coeffs(table, d)
        assert got.a == COEFFS[d], f"coefficients differ at d={d}"
    assert COEFFS[4][3:] == (60, 1818, 9990, 13200, 7560, 1680)
    report(3, "binomial-basis coefficients d = 1..4 reproduced exactly "
              "(d = 4 from the depth-4 ball of GL(8,2))")


def test_criterion_4_polynomial_consistency(explored):
    for d in (1, 2, 3, 4):
        c = extract_coeffs(classify(explored(2 * d, max_depth=d)), d)
        for n in range(2 * d, 6):
            assert eval_poly(c, n) == explored(n).sphere_sizes[d]
        for n in (6, 7):
            assert eval_poly(c, n) == SPHERES_67[(d, n)]
    report(4, "f_d matches explored sphere sizes for 2d <= n <= 5 and the "
              "published values at n = 6, 7 (e.g. f_3(6) = 8,415, f_3(7) = 22,141)")


def test_criterion_5_diameter_bounds():
    coeffs = load_coeffs()
    for n, expected in ELL_10.items():
        profile = SphereProfile.from_coeffs(coeffs, n, 10)
        assert ell(profile) == expected, f"ell_{n}(10) differs"
    report(5, "ell_n(10) = 58, 63, 68, 73, 78, 83, 89, 95, 101, 107, 113 "
              "for n = 20..30 and 183 for n = 40")


def test_criterion_6_quadratic_threshold():
    assert quadratic_crossing() == 30
    report(6, "smallest n with (n^2-n)/log2(n^2-n+1) > 3(n-1) is 30, "
              "decided by exact integer comparison")


def test_criterion_7_permutation_distances(explored):
    for n in (1, 2, 3, 4, 5):
        rows = verify_conjecture(explored(n))
        assert len(rows) == len(list(partitions(n)))
        for r in rows:
            assert r.ok, f"cycle type {r.cycle_type} at n={n}: " \
                         f"{r.measured} != {r.expected}"
    long5 = perm_matrix(parse_perm("(1 2 3 4 5)", 5))
    full = distance_of(explored(5), long5)
    probe = bidirectional_distance(5, long5, fwd_depth=6, bwd_depth=6)
    assert full == 12
    assert probe.exact and probe.value == 12
    report(7, "distance 3(n - cycles) holds for every cycle type at n <= 5; "
              "the order-5 long cycle measures 12 by full BFS and by the "
              "6+6 bidirectional probe")


def test_criterion_8_synthesis_round_trip(explored):
    fig = parse_matrix("111,010,011")
    c = synthesize(explored(3), fig)
    assert len(c) == 2 and eval_circuit(c) == fig
    rng = random.Random(2024)
    for n in (1, 2, 3, 4, 5):
        res = explored(n)
        for _ in range(1000):
            m = random_invertible(n, rng)
            circuit = synthesize(res, m)
            assert eval_circuit(circuit) == m
            assert len(circuit) == distance_of(res, m)
    report(8, "1,000 random matrices per order n <= 5 synthesize to optimal "
              "circuits that evaluate back exactly; the worked example "
              "yields a 2-gate circuit")


# ---------------------------------------------------------------------------
# criterion 9: property suites
# ---------------------------------------------------------------------------


def _pow(m, k):
    out = identity(m.n)
    for _ in range(k):
        out = multiply(out, m)
    return out


def _check_generator_relations(rng):
    for n in range(2, 9):
        for _ in range(12):
            i, j = rng.sample(range(1, n + 1), 2)
            a = transvection_matrix(gf2.Transvection(i, j), n)
            b = transvection_matrix(gf2.Transvection(j, i), n)
            assert multiply(a, a) == identity(n)                      # (1)
            assert _pow(multiply(a, b), 2) == multiply(b, a)          # (3)
            swap = perm_matrix(Permutation.from_cycles(n, [(i, j)]))
            assert multiply(multiply(a, b), a) == swap                # (5)
            assert multiply(multiply(b, a), b) == swap
        for _ in range(12):
            if n >= 3:
                i, j, k = rng.sample(range(1, n + 1), 3)
                prod = multiply(transvection_matrix(gf2.Transvection(i, j), n),
                                transvection_matrix(gf2.Transvection(j, k), n))
                assert _pow(prod, 2) == \
                    transvection_matrix(gf2.Transvection(i, k), n)    # (2)
            i, j = rng.sample(range(1, n + 1), 2)
            k, l = rng.sample(range(1, n + 1), 2)
            if i != l and j != k:
                prod = multiply(transvection_matrix(gf2.Transvection(i, j), n),
                                transvection_matrix(gf2.Transvection(k, l), n))
                assert _pow(prod, 2) == identity(n)                   # (4)


def _check_orbit_stabilizer(rng):
    for n in range(1, 7):
        perms = [Permutation(n, tuple(x + 1 for x in p))
                 for p in iter_perms(range(n))]
        for spec in (SYM, SYM_TI):
            signs = (1,) if spec is SYM else (1, -1)
            for _ in range(5):
                m = random_invertible(n, rng)
                images = set()
                fixing = 0
                for sigma in perms:
                    for xi in signs:
                        img = act(sigma, xi, m).bits
                        images.add(img)
                        fixing += img == m.bits
                assert len(images) * fixing == spec.group_order(n)
                assert canonicalize(m, spec).orbit_size == len(images)


def _check_canonicalizer_against_oracle(rng):
    for n in range(1, 7):
        for _ in range(10_000):
            m = random_invertible(n, rng)
            fast = canonicalize(m, SYM)
            ref = canonicalize_reference(m, SYM)
            assert fast.key == ref.key and fast.orbit_size == ref.orbit_size
        for _ in range(500):
            m = random_invertible(n, rng)
            fast = canonicalize(m, SYM_TI)
            ref = canonicalize_reference(m, SYM_TI)
            assert fast.key == ref.key and fast.orbit_size == ref.orbit_size


def _check_distance_invariance(oracle_dist):
    for n in (3, 4):
        truth = oracle_dist(n)
        perms = [Permutation(n, tuple(x + 1 for x in p))
                 for p in iter_perms(range(n))]
        for bits, d in truth.items():
            m = BitMatrix(n, bits)
            ti = gf2.transpose_inverse(m)
            for sigma in perms:
                assert truth[gf2.conjugate_by_perm(sigma, m).bits] == d
                assert truth[gf2.conjugate_by_perm(sigma, ti).bits] == d


def _check_orbit_growth(rng):
    from cnotcayley.essential import orbit_growth_check
    t12 = transvection_matrix(gf2.Transvection(1, 2), 2)
    assert orbit_growth_check(t12, 4)
    for _ in range(10):
        assert orbit_growth_check(random_invertible(3, rng), 6)
        assert orbit_growth_check(random_invertible(2, rng), 5)


def _check_product_inequality(explored):
    for n in (4, 5):
        res = explored(n)
        for d in range(1, 7):
            for parts in partitions(d):
                assert product_inequality_check(res, d, parts)


def _check_database_round_trips(explored, tmp_path):
    for n in (3, 4):
        res = explored(n)
        a = tmp_path / f"a{n}.db"
        b = tmp_path / f"b{n}.db"
        store.save(res, a)
        store.save(store.load(a), b)
        assert a.read_bytes() == b.read_bytes()
        back = store.load(b)
        assert np.array_equal(back.keys, res.keys)
        assert np.array_equal(back.dists, res.dists)
        assert back.sphere_sizes == res.sphere_sizes


def test_criterion_9_property_suites(explored, oracle_dist, tmp_path):
    rng = random.Random(99)
    _check_generator_relations(rng)
    _check_orbit_stabilizer(rng)
    _check_canonicalizer_against_oracle(rng)
    _check_distance_invariance(oracle_dist)
    _check_orbit_growth(rng)
    _check_product_inequality(explored)
    _check_database_round_trips(explored, tmp_path)
    report(9, "generator relations, orbit-stabilizer products, 10,000-sample "
              "canonicalizer/oracle agreement per order <= 6, full-enumeration "
              "distance invariance at n = 3, 4, orbit-growth identity, "
              "sphere-product inequality over all partitions of d <= 6, "
              "and byte-identical database round trips")


def test_criterion_10_thread_determinism(tmp_path):
    single = isometry_bfs(4, limits=SearchLimits(threads=1))
    threaded = isometry_bfs(4, limits=SearchLimits(threads=8))
    a = tmp_path / "single.db"
    b = tmp_path / "threaded.db"
    store.save(single, a)
    store.save(threaded, b)
    assert a.read_bytes() == b.read_bytes()
    report(10, "single-threaded and 8-thread explorations of GL(4,2) "
               "produce byte-identical databases")
