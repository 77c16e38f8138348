"""Permutation distances: the 3(n - cycles) construction and cycle gluing."""

import random
from itertools import permutations as iter_perms

import pytest

from cnotcayley import gf2
from cnotcayley.bfs import distance_of
from cnotcayley.errors import HorizonError
from cnotcayley.gf2 import (
    Circuit,
    Permutation,
    cycle_count,
    eval_circuit,
    multiply,
    parse_perm,
    perm_matrix,
)
from cnotcayley.permcheck import (
    ConjectureRow,
    CycleType,
    conjecture_report,
    cycle_type_reps,
    glue_cycles,
    partitions,
    perm_circuit,
    transposition_circuit,
    verify_conjecture,
)


def random_perm(n, rng):
    images = list(range(1, n + 1))
    rng.shuffle(images)
    return Permutation(n, tuple(images))


# ---------------------------------------------------------------------------
# swap and permutation circuits
# ---------------------------------------------------------------------------


def test_transposition_circuit_n2():
    c = transposition_circuit(1, 2, 2)
    assert len(c) == 3
    assert eval_circuit(c) == gf2.parse_matrix("01,10")


def test_transposition_circuit_embedded():
    c = transposition_circuit(2, 3, 4)
    assert eval_circuit(c) == perm_matrix(parse_perm("(2 3)", 4))


def test_transposition_both_orders():
    a = transposition_circuit(1, 2, 3)
    b = transposition_circuit(2, 1, 3)
    assert eval_circuit(a) == eval_circuit(b)
    assert a.gates != b.gates


def test_perm_circuit_identity():
    assert perm_circuit(Permutation.identity(4)).gates == ()


def test_perm_circuit_three_cycle():
    sigma = parse_perm("(1 2 3)", 3)
    c = perm_circuit(sigma)
    assert len(c) == 6
    assert eval_circuit(c) == perm_matrix(sigma)


def test_perm_circuit_double_transposition():
    sigma = parse_perm("(1 2)(3 4)", 4)
    c = perm_circuit(sigma)
    assert len(c) == 6 == 3 * (4 - 2)
    assert eval_circuit(c) == perm_matrix(sigma)


def test_perm_circuit_length_and_value_random():
    rng = random.Random(1)
    for n in range(1, 7):
        for _ in range(20):
            sigma = random_perm(n, rng)
            c = perm_circuit(sigma)
            assert len(c) == 3 * (n - cycle_count(sigma))
            assert eval_circuit(c) == perm_matrix(sigma)


# ---------------------------------------------------------------------------
# cycle gluing
# ---------------------------------------------------------------------------


def test_glue_long_cycle_is_noop():
    sigma = parse_perm("(1 2 3 4 5)", 5)
    tau, glue = glue_cycles(sigma)
    assert tau == sigma
    assert glue.gates == ()


def test_glue_two_transpositions():
    sigma = parse_perm("(1 2)(3 4)", 4)
    tau, glue = glue_cycles(sigma)
    assert tau == parse_perm("(1 2 3 4)", 4)
    assert glue.gates == transposition_circuit(1, 3, 4).gates
    assert multiply(eval_circuit(glue), perm_matrix(sigma)) == perm_matrix(tau)


def test_glue_identity_n3():
    sigma = Permutation.identity(3)
    tau, glue = glue_cycles(sigma)
    assert cycle_count(tau) == 1
    assert len(glue) == 6
    assert multiply(eval_circuit(glue), perm_matrix(sigma)) == perm_matrix(tau)


def test_glue_law_random():
    rng = random.Random(2)
    for n in range(1, 8):
        for _ in range(15):
            sigma = random_perm(n, rng)
            tau, glue = glue_cycles(sigma)
            assert cycle_count(tau) == 1
            assert len(glue) == 3 * (cycle_count(sigma) - 1)
            assert multiply(eval_circuit(glue), perm_matrix(sigma)) == perm_matrix(tau)


def test_glue_composition_counting():
    # gluing turns the 3(n-c) circuit into a 3(n-1) circuit for a long cycle
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(2, 6)
        sigma = random_perm(n, rng)
        tau, glue = glue_cycles(sigma)
        combined = Circuit(n, perm_circuit(sigma).gates + glue.gates)
        assert len(combined) == 3 * (n - 1)
        assert eval_circuit(combined) == perm_matrix(tau)


# ---------------------------------------------------------------------------
# cycle types
# ---------------------------------------------------------------------------


def test_partition_counts():
    assert len(cycle_type_reps(4)) == 5
    assert len(cycle_type_reps(5)) == 7
    assert len(cycle_type_reps(8)) == 22


def test_partitions_are_descending_and_sum():
    for n in range(1, 9):
        for parts in partitions(n):
            assert sum(parts) == n
            assert list(parts) == sorted(parts, reverse=True)


def test_cycle_type_of():
    assert CycleType.of(parse_perm("(1 2)(3 4 5)", 6)).parts == (3, 2, 1)
    assert str(CycleType.of(parse_perm("(1 2)(3 4 5)", 6))) == "3+2+1"
    with pytest.raises(ValueError):
        CycleType((1, 2))


def test_reps_cover_all_types():
    for n in (4, 5):
        reps = cycle_type_reps(n)
        assert len({CycleType.of(s) for s in reps}) == len(reps)


@pytest.mark.parametrize("n", [0, 9])
def test_reps_order_range(n):
    with pytest.raises(ValueError, match=r"order must be in 1..8"):
        cycle_type_reps(n)


# ---------------------------------------------------------------------------
# the distance conjecture
# ---------------------------------------------------------------------------


def test_conjecture_small_orders(explored):
    for n in (1, 2, 3, 4):
        rows = verify_conjecture(explored(n))
        assert all(r.ok for r in rows)


def test_conjecture_n2_swap_is_diameter(explored):
    res = explored(2)
    rows = verify_conjecture(res)
    swap_row = next(r for r in rows if r.cycle_type.parts == (2,))
    assert swap_row.measured == 3 == res.max_depth


def test_conjecture_requires_complete(explored):
    with pytest.raises(HorizonError):
        verify_conjecture(explored(4, max_depth=3))


def test_distance_constant_on_cycle_types(explored):
    # full enumeration over the symmetric group at small orders
    for n in (3, 4):
        res = explored(n)
        by_type = {}
        for images in iter_perms(range(1, n + 1)):
            sigma = Permutation(n, images)
            d = distance_of(res, perm_matrix(sigma))
            by_type.setdefault(CycleType.of(sigma).parts, set()).add(d)
        for parts, dists in by_type.items():
            assert len(dists) == 1, f"type {parts} has mixed distances {dists}"


def test_report_format():
    rows = [ConjectureRow(CycleType((2, 1)), 3, 3),
            ConjectureRow(CycleType((3,)), 6, 5)]
    text = conjecture_report(rows)
    assert "2+1,3,3,PASS" in text
    assert "3,6,5,FAIL" in text
