"""Essential-index classification, polynomial extraction and evaluation."""

import dataclasses
import random

import pytest

from cnotcayley import gf2
from cnotcayley.bfs import distance_of
from cnotcayley.errors import ConsistencyError, FormatError, OrderError
from cnotcayley.essential import (
    EssentialClassTable,
    PolyCoeffs,
    classify,
    essential_counts_batch,
    eval_poly,
    extract_coeffs,
    format_coeffs_record,
    load_coeffs,
    orbit_growth_check,
    parse_coeffs_record,
    witness_matrix,
)
from cnotcayley.gf2 import (
    Transvection,
    embed,
    essential_indices,
    random_invertible,
    transvection_matrix,
)
from cnotcayley.isometry import IsometrySpec

# published binomial-basis coefficient columns for d = 1..4
PUBLISHED_COEFFS = {
    1: (0, 0, 2),
    2: (0, 0, 2, 18, 12),
    3: (0, 0, 1, 48, 344, 360, 120),
    4: (0, 0, 0, 60, 1818, 9990, 13200, 7560, 1680),
}
# published sphere sizes at orders beyond the explorations run here
PUBLISHED_SPHERES_67 = {
    (1, 6): 30, (2, 6): 570, (3, 6): 8415, (4, 6): 101610,
    (1, 7): 42, (2, 7): 1092, (3, 7): 22141, (4, 7): 375480,
}


@pytest.fixture(scope="module")
def tables(explored):
    def get(d, spec=IsometrySpec.SYM):
        return classify(explored(2 * d, spec=spec, max_depth=d))
    return get


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def test_cell_origin(explored):
    table = classify(explored(3))
    assert table.cells[(0, 0)] == 1


def test_cells_n4(explored):
    table = classify(explored(4))
    assert table.cells[(1, 2)] == 12
    assert sum(table.cells.get((2, m), 0) for m in range(5)) == 96


def test_class_bound_and_witness_cells(explored):
    for n in (4, 5):
        table = classify(explored(n))
        for (d, m), v in table.cells.items():
            assert v > 0
            assert m <= 2 * d, f"cell ({d},{m}) violates the 2d bound"
        for d in range(1, table.d_max + 1):
            if 2 * d <= n:
                assert table.cells.get((d, 2 * d), 0) > 0


def test_cells_sum_to_spheres(explored):
    for n in (4, 5):
        res = explored(n)
        table = classify(res)
        for d in range(res.max_depth + 1):
            assert table.sphere_size(d) == res.sphere_sizes[d]


def test_classify_rejects_non_canonical_keys(off_canonical):
    with pytest.raises(ConsistencyError, match="not canonical"):
        classify(off_canonical)


@pytest.mark.parametrize("n", [3, 4])
def test_classify_rejects_a_result_under_the_wrong_spec(explored, n):
    # sym-ti keys are sym-minimal too, so only the level sums can tell
    res = dataclasses.replace(explored(n, IsometrySpec.SYM_TI), spec=IsometrySpec.SYM)
    with pytest.raises(ConsistencyError, match="orbit sizes at distance 2 sum to"):
        classify(res)


def test_essential_counts_batch_matches_scalar():
    import numpy as np
    rng = random.Random(1)
    for n in range(1, 9):
        mats = [random_invertible(n, rng) for _ in range(50)]
        mats += [gf2.identity(n), gf2.BitMatrix(n, (1 << (n * n)) - 1),
                 gf2.BitMatrix(n, rng.getrandbits(n * n))]
        if n == 8:
            # the last entry of the last row is bit 63 of the packed word
            mats += [gf2.BitMatrix(8, (1 << 63) | gf2.identity(8).bits),
                     gf2.BitMatrix(8, 1 << 63),
                     gf2.BitMatrix(8, (1 << 63) | rng.getrandbits(63))]
        keys = np.array([m.bits for m in mats], dtype=np.uint64)
        counts = essential_counts_batch(keys, n)
        assert counts.dtype == np.int64
        assert counts.tolist() == [len(essential_indices(m)) for m in mats]
        assert essential_counts_batch(keys[:0], n).size == 0


# ---------------------------------------------------------------------------
# coefficient extraction
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("d", [1, 2, 3])
def test_extracted_coefficients(tables, d):
    assert extract_coeffs(tables(d), d).a == PUBLISHED_COEFFS[d]


@pytest.mark.parametrize("d", [1, 2, 3])
def test_full_isometry_extraction_identical(tables, d):
    assert extract_coeffs(tables(d, IsometrySpec.SYM_TI), d).a == \
        extract_coeffs(tables(d), d).a


def test_extract_requires_matching_order(explored):
    with pytest.raises(OrderError):
        extract_coeffs(classify(explored(4)), 1)


@pytest.mark.parametrize("call, error, message", [
    (lambda explored: extract_coeffs(classify(explored(2)), 0), ValueError,
     "coefficient extraction needs d >= 1"),
    (lambda explored: extract_coeffs(classify(explored(4, max_depth=1)), 2), OrderError,
     "classification stops at depth 1 < 2"),
    (lambda explored: eval_poly(PolyCoeffs(d=1, a=(0, 0, 2)), -1), ValueError,
     "polynomial argument must be non-negative"),
    (lambda explored: orbit_growth_check(gf2.identity(3), 2), OrderError,
     "cannot embed order 3 into 2"),
    (lambda explored: parse_coeffs_record("3", "test"), FormatError,
     "coefficient record too short"),
], ids=["extract-d0", "extract-shallow", "eval-negative", "growth-smaller", "short-record"])
def test_bad_arguments_raise(explored, call, error, message):
    with pytest.raises(error, match=message):
        call(explored)


def test_extract_rejects_inexact_division():
    # C(4,3) = 4 does not divide 3
    bad = EssentialClassTable(n=4, spec=IsometrySpec.SYM, d_max=2,
                              cells={(0, 0): 1, (2, 3): 3})
    with pytest.raises(ConsistencyError):
        extract_coeffs(bad, 2)


def test_coeff_invariants():
    for d, a in PUBLISHED_COEFFS.items():
        c = PolyCoeffs(d, a)
        assert c.a[0] == 0 and c.a[1] == 0
        assert c.a[2 * d] > 0
        assert all(v >= 0 for v in c.a)


# ---------------------------------------------------------------------------
# polynomial evaluation
# ---------------------------------------------------------------------------


def test_eval_examples():
    assert eval_poly(PolyCoeffs(2, PUBLISHED_COEFFS[2]), 4) == 96
    assert eval_poly(PolyCoeffs(1, PUBLISHED_COEFFS[1]), 7) == 42


def test_f2_closed_form():
    c = PolyCoeffs(2, PUBLISHED_COEFFS[2])
    for n in range(4, 11):
        assert eval_poly(c, n) == (n**4 - 5 * n**2 + 4 * n) // 2


def test_polynomials_match_explorations(tables, explored):
    for d in (1, 2, 3):
        c = extract_coeffs(tables(d), d)
        for n in range(2 * d, 6):
            assert c.valid_at(n)
            assert eval_poly(c, n) == explored(n).sphere_sizes[d]


def test_polynomials_match_published_larger_orders(tables):
    for d in (1, 2, 3):
        c = extract_coeffs(tables(d), d)
        assert eval_poly(c, 6) == PUBLISHED_SPHERES_67[(d, 6)]
        assert eval_poly(c, 7) == PUBLISHED_SPHERES_67[(d, 7)]


def test_no_shortcuts_observed_below_validity(tables, explored):
    # embedding conjecturally preserves distance, so f_d should match
    # sphere sizes even for n < 2d; report loudly if it ever fails
    for d in (2, 3):
        c = extract_coeffs(tables(d), d)
        for n in range(1, 2 * d):
            res = explored(n)
            actual = res.sphere_sizes[d] if d <= res.max_depth else 0
            value = eval_poly(c, n)
            assert value == actual, (
                f"counterexample to the embedding-distance conjecture: "
                f"f_{d}({n}) = {value} but the sphere has {actual} elements")


def test_embedding_never_increases_distance(explored):
    rng = random.Random(2)
    for _ in range(40):
        m = random_invertible(3, rng)
        d3 = distance_of(explored(3), m)
        for n in (4, 5):
            assert distance_of(explored(n), embed(m, n)) <= d3


def test_orbit_count_saturation(explored):
    # at distance d the number of orbits stops changing once n >= 2d
    assert explored(4).orbit_counts[2] == explored(5).orbit_counts[2] == 6


# ---------------------------------------------------------------------------
# orbit growth and witnesses
# ---------------------------------------------------------------------------


def test_orbit_growth_examples():
    t12 = transvection_matrix(Transvection(1, 2), 2)
    assert orbit_growth_check(t12, 4)
    assert orbit_growth_check(gf2.identity(2), 5)


def test_orbit_growth_random():
    rng = random.Random(3)
    for _ in range(15):
        m = random_invertible(3, rng)
        assert orbit_growth_check(m, 6)


def test_witness_matrices(explored):
    for d in (1, 2, 3, 4):
        w = witness_matrix(d)
        assert w.n == 2 * d
        assert len(essential_indices(w)) == 2 * d
        assert distance_of(explored(2 * d, max_depth=d), w) == d
    assert witness_matrix(1) == transvection_matrix(Transvection(1, 2), 2)
    with pytest.raises(OrderError):
        witness_matrix(5)


# ---------------------------------------------------------------------------
# coefficient records
# ---------------------------------------------------------------------------


def test_record_round_trip():
    c = PolyCoeffs(2, PUBLISHED_COEFFS[2])
    assert parse_coeffs_record(format_coeffs_record(c), "file").a == c.a
    with pytest.raises(FormatError):
        parse_coeffs_record("2,0,0", "file")
    with pytest.raises(FormatError):
        parse_coeffs_record("2,x,0,0,0", "file")


def test_bundled_table(tables):
    coeffs = load_coeffs()
    assert sorted(coeffs) == list(range(1, 11))
    for d, c in coeffs.items():
        assert c.source == "published"
        assert len(c.a) == 2 * d + 1
    # the recomputable prefix of the bundled data matches fresh extraction
    for d in (1, 2, 3):
        assert coeffs[d].a == extract_coeffs(tables(d), d).a


def test_load_coeffs_from_path(tmp_path):
    p = tmp_path / "coeffs.csv"
    p.write_text("# comment\n1,0,0,2\n")
    coeffs = load_coeffs(p)
    assert coeffs[1].a == (0, 0, 2)
    assert coeffs[1].source == "file"


def test_coeffs_table_text():
    from cnotcayley.essential import coeffs_table_text
    text = coeffs_table_text({d: PolyCoeffs(d, PUBLISHED_COEFFS[d])
                              for d in (1, 2)})
    lines = text.splitlines()
    assert lines[0].split() == ["m", "d=1", "d=2"]
    assert lines[3].split() == ["2", "2", "2"]
    assert lines[4].split() == ["3", "-", "18"]
