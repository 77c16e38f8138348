"""Bit-level linear algebra: constructors, generator relations, text formats."""

import random

import pytest

from cnotcayley import gf2
from cnotcayley.errors import (
    DimensionError,
    FormatError,
    OrderError,
    SingularError,
)
from cnotcayley.gf2 import (
    BitMatrix,
    Circuit,
    Permutation,
    Transvection,
    all_transvections,
    apply_transvection,
    compact_to_essential,
    conjugate_by_perm,
    cycle_count,
    embed,
    essential_indices,
    eval_circuit,
    format_circuit,
    format_matrix,
    identity,
    invert,
    multiply,
    parse_circuit,
    parse_matrix,
    parse_perm,
    perm_matrix,
    random_invertible,
    transpose_inverse,
    transvection_matrix,
)


def from_rows(rows):
    """Independent builder used by the reference oracles below."""
    n = len(rows)
    bits = 0
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            if v:
                bits |= 1 << (i * n + j)
    return BitMatrix(n, bits)


def multiply_reference(a, b):
    """Naive O(n^3) triple-loop product over F2."""
    n = a.n
    ra, rb = a.rows(), b.rows()
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            s = 0
            for k in range(n):
                s ^= ra[i][k] & rb[k][j]
            out[i][j] = s
    return from_rows(out)


def T(i, j):
    return Transvection(i, j)


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def test_identity_small():
    assert identity(2).rows() == [[1, 0], [0, 1]]
    assert identity(1).rows() == [[1]]


def test_identity_law():
    rng = random.Random(1)
    for _ in range(20):
        m = random_invertible(3, rng)
        assert multiply(identity(3), m) == m
        assert multiply(m, identity(3)) == m


def test_identity_order_range():
    with pytest.raises(OrderError):
        identity(0)
    with pytest.raises(OrderError):
        identity(9)


def test_raw_constructor_range_checks():
    with pytest.raises(FormatError):
        BitMatrix(2, 1 << 4)
    with pytest.raises(OrderError):
        BitMatrix(9, 0)
    assert BitMatrix(0, 0).n == 0


@pytest.mark.parametrize("call, error, message", [
    (lambda: apply_transvection(T(1, 3), identity(2)), DimensionError,
     r"transvection \(1,3\) does not fit order 2"),
    (lambda: conjugate_by_perm(Permutation.identity(3), identity(2)), DimensionError,
     "permutation degree 3 vs order 2"),
    (lambda: embed(identity(3), 2), OrderError, "cannot embed order 3 into order 2"),
    (lambda: parse_matrix(",".join(["1"] * 9)), FormatError,
     r"matrix must have 1..8 rows, got 9"),
    (lambda: parse_circuit("CNOT 0 x", 2), FormatError, "bad gate arguments"),
    (lambda: parse_perm("(1 x)", 3), FormatError, "bad cycle"),
    (lambda: parse_perm("(1 2)()", 3), FormatError, "empty cycle"),
], ids=["apply-order", "conjugate-order", "embed-smaller", "matrix-rows",
        "gate-arguments", "cycle-entry", "empty-cycle"])
def test_bad_arguments_raise(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_transvection_validation():
    with pytest.raises(FormatError):
        Transvection(2, 2)
    with pytest.raises(DimensionError):
        transvection_matrix(T(1, 4), 3)


# ---------------------------------------------------------------------------
# multiplication
# ---------------------------------------------------------------------------


def test_swap_relation_n2():
    t12 = transvection_matrix(T(1, 2), 2)
    t21 = transvection_matrix(T(2, 1), 2)
    prod = multiply(multiply(t12, t21), t12)
    assert prod == from_rows([[0, 1], [1, 0]])
    assert prod == perm_matrix(Permutation.from_cycles(2, [(1, 2)]))


def test_multiply_vs_reference_random():
    rng = random.Random(5)
    for _ in range(100):
        a = random_invertible(5, rng)
        b = random_invertible(5, rng)
        assert multiply(a, b) == multiply_reference(a, b)


def test_multiply_associative():
    rng = random.Random(6)
    for _ in range(50):
        a, b, c = (random_invertible(4, rng) for _ in range(3))
        assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


def test_multiply_dimension_mismatch():
    with pytest.raises(DimensionError):
        multiply(identity(3), identity(4))


# ---------------------------------------------------------------------------
# transvection application
# ---------------------------------------------------------------------------


def test_apply_definition():
    m = apply_transvection(T(3, 2), identity(3))
    assert m == from_rows([[1, 0, 0], [0, 1, 0], [0, 1, 1]])


def test_apply_is_involution():
    rng = random.Random(7)
    for n in range(2, 9):
        for _ in range(10):
            m = random_invertible(n, rng)
            i, j = rng.sample(range(1, n + 1), 2)
            t = T(i, j)
            assert apply_transvection(t, apply_transvection(t, m)) == m


def test_apply_agrees_with_multiply():
    rng = random.Random(8)
    for n in range(2, 9):
        for _ in range(10):
            m = random_invertible(n, rng)
            i, j = rng.sample(range(1, n + 1), 2)
            assert apply_transvection(T(i, j), m) == \
                multiply(transvection_matrix(T(i, j), n), m)


def test_parity_matrix_example():
    circuit = Circuit(3, (T(3, 2), T(1, 3)))
    assert eval_circuit(circuit) == parse_matrix("111,010,011")


# ---------------------------------------------------------------------------
# the generator relations
# ---------------------------------------------------------------------------


def _pow(m, k):
    out = identity(m.n)
    for _ in range(k):
        out = multiply(out, m)
    return out


def test_relation_square_is_identity():
    rng = random.Random(11)
    for n in range(2, 9):
        for _ in range(8):
            i, j = rng.sample(range(1, n + 1), 2)
            tm = transvection_matrix(T(i, j), n)
            assert multiply(tm, tm) == identity(n)


def test_relation_chained_square():
    # (T[i,j] T[j,k])^2 = T[i,k] for distinct i, j, k
    rng = random.Random(12)
    for n in range(3, 9):
        for _ in range(8):
            i, j, k = rng.sample(range(1, n + 1), 3)
            prod = multiply(transvection_matrix(T(i, j), n),
                            transvection_matrix(T(j, k), n))
            assert _pow(prod, 2) == transvection_matrix(T(i, k), n)


def test_relation_opposed_square():
    # (T[i,j] T[j,i])^2 = T[j,i] T[i,j]
    rng = random.Random(13)
    for n in range(2, 9):
        for _ in range(8):
            i, j = rng.sample(range(1, n + 1), 2)
            a = transvection_matrix(T(i, j), n)
            b = transvection_matrix(T(j, i), n)
            assert _pow(multiply(a, b), 2) == multiply(b, a)


def test_relation_disjoint_commute():
    # (T[i,j] T[k,l])^2 = I when i != l and j != k
    rng = random.Random(14)
    for n in range(2, 9):
        tried = 0
        while tried < 8:
            i, j = rng.sample(range(1, n + 1), 2)
            k, l = rng.sample(range(1, n + 1), 2)
            if i == l or j == k:
                continue
            tried += 1
            prod = multiply(transvection_matrix(T(i, j), n),
                            transvection_matrix(T(k, l), n))
            assert _pow(prod, 2) == identity(n)


def test_relation_swap_both_orders():
    rng = random.Random(15)
    for n in range(2, 9):
        for _ in range(8):
            i, j = rng.sample(range(1, n + 1), 2)
            a = transvection_matrix(T(i, j), n)
            b = transvection_matrix(T(j, i), n)
            swap = perm_matrix(Permutation.from_cycles(n, [(i, j)]))
            assert multiply(multiply(a, b), a) == swap
            assert multiply(multiply(b, a), b) == swap


# ---------------------------------------------------------------------------
# transpose / inverse
# ---------------------------------------------------------------------------


def test_transpose_inverse_on_generators():
    for n in range(2, 6):
        for t in all_transvections(n):
            assert transpose_inverse(transvection_matrix(t, n)) == \
                transvection_matrix(T(t.j, t.i), n)


def test_invert_identity():
    for n in range(1, 9):
        assert invert(identity(n)) == identity(n)


def test_invert_random_self_consistency():
    rng = random.Random(21)
    for _ in range(60):
        m = random_invertible(6, rng)
        assert multiply(invert(m), m) == identity(6)


def test_invert_singular_raises():
    with pytest.raises(SingularError):
        invert(BitMatrix(2, 0b0101))  # two equal rows


def test_transpose_inverse_involution_and_automorphism():
    rng = random.Random(22)
    for _ in range(40):
        a = random_invertible(5, rng)
        b = random_invertible(5, rng)
        assert transpose_inverse(transpose_inverse(a)) == a
        assert transpose_inverse(multiply(a, b)) == \
            multiply(transpose_inverse(a), transpose_inverse(b))


# ---------------------------------------------------------------------------
# permutation conjugation
# ---------------------------------------------------------------------------


def test_conjugate_transvection_example():
    sigma = parse_perm("(1 2)", 3)
    assert conjugate_by_perm(sigma, transvection_matrix(T(1, 2), 3)) == \
        transvection_matrix(T(2, 1), 3)


def test_conjugate_identity_perm():
    rng = random.Random(23)
    m = random_invertible(4, rng)
    assert conjugate_by_perm(Permutation.identity(4), m) == m


def test_conjugate_vs_matrix_product():
    rng = random.Random(24)
    for _ in range(60):
        m = random_invertible(5, rng)
        images = list(range(1, 6))
        rng.shuffle(images)
        sigma = Permutation(5, tuple(images))
        p = perm_matrix(sigma)
        p_inv = perm_matrix(sigma.inverse())
        assert conjugate_by_perm(sigma, m) == multiply(p, multiply(m, p_inv))


def test_conjugate_commutes_with_transpose_inverse():
    rng = random.Random(25)
    for _ in range(40):
        m = random_invertible(5, rng)
        images = list(range(1, 6))
        rng.shuffle(images)
        sigma = Permutation(5, tuple(images))
        assert conjugate_by_perm(sigma, transpose_inverse(m)) == \
            transpose_inverse(conjugate_by_perm(sigma, m))


# ---------------------------------------------------------------------------
# circuits
# ---------------------------------------------------------------------------


def test_empty_circuit():
    assert eval_circuit(Circuit(4, ())) == identity(4)


def test_circuit_followed_by_reverse():
    rng = random.Random(26)
    for _ in range(20):
        n = rng.randint(2, 6)
        gates = []
        for _ in range(rng.randint(1, 12)):
            i, j = rng.sample(range(1, n + 1), 2)
            gates.append(T(i, j))
        c = Circuit(n, tuple(gates))
        both = Circuit(n, tuple(gates) + tuple(reversed(gates)))
        assert eval_circuit(both) == identity(n)
        assert eval_circuit(c.reversed()) == invert(eval_circuit(c))


def test_circuit_gate_bounds():
    with pytest.raises(FormatError):
        Circuit(2, (T(1, 3),))


# ---------------------------------------------------------------------------
# essential indices, embedding, compaction
# ---------------------------------------------------------------------------


def test_essential_of_generators():
    for n in range(2, 7):
        for t in all_transvections(n):
            assert essential_indices(transvection_matrix(t, n)) == {t.i, t.j}


def test_essential_of_identity():
    for n in range(1, 9):
        assert essential_indices(identity(n)) == frozenset()


def test_essential_disjoint_product():
    m = apply_transvection(T(1, 2), apply_transvection(T(3, 4), identity(4)))
    assert essential_indices(m) == {1, 2, 3, 4}


def test_embed_identity():
    assert embed(identity(2), 4) == identity(4)


def test_embed_transvection():
    assert embed(transvection_matrix(T(1, 2), 2), 3) == \
        transvection_matrix(T(1, 2), 3)


def test_embed_preserves_essential():
    rng = random.Random(31)
    for _ in range(40):
        m = random_invertible(4, rng)
        assert essential_indices(embed(m, 7)) == essential_indices(m)
        assert len(essential_indices(embed(m, 6))) == len(essential_indices(m))


def test_essential_conjugation_equivariance():
    rng = random.Random(32)
    for _ in range(40):
        m = random_invertible(5, rng)
        images = list(range(1, 6))
        rng.shuffle(images)
        sigma = Permutation(5, tuple(images))
        assert essential_indices(conjugate_by_perm(sigma, m)) == \
            frozenset(sigma(i) for i in essential_indices(m))


def test_compact_identity_degenerate():
    core, sigma = compact_to_essential(identity(5))
    assert core.n == 0 and core.bits == 0
    assert sigma == Permutation.identity(5)


def test_compact_single_transvection():
    core, sigma = compact_to_essential(transvection_matrix(T(2, 3), 4))
    assert core == transvection_matrix(T(1, 2), 2)
    assert sigma(2) == 1 and sigma(3) == 2
    # frozen from the derived check embed(core, 4) == sigma . N
    assert embed(core, 4) == conjugate_by_perm(
        sigma, transvection_matrix(T(2, 3), 4))


def test_compact_round_trip_random():
    rng = random.Random(33)
    for _ in range(60):
        m = random_invertible(6, rng)
        core, sigma = compact_to_essential(m)
        assert core.n == len(essential_indices(m))
        assert embed(core, 6) == conjugate_by_perm(sigma, m)


# ---------------------------------------------------------------------------
# permutations
# ---------------------------------------------------------------------------


def test_cycle_count_examples():
    assert cycle_count(Permutation.identity(5)) == 5
    assert cycle_count(parse_perm("(1 2 3 4 5)", 5)) == 1
    sigma = parse_perm("(1 2)", 4)
    assert cycle_count(sigma) == 3


def test_perm_matrix_is_swap_product():
    sigma = parse_perm("(1 2)", 4)
    swap2 = multiply(multiply(transvection_matrix(T(1, 2), 2),
                              transvection_matrix(T(2, 1), 2)),
                     transvection_matrix(T(1, 2), 2))
    assert perm_matrix(sigma) == embed(swap2, 4)


def test_perm_matrix_columns():
    sigma = parse_perm("(1 3 2)", 3)
    p = perm_matrix(sigma)
    for j in range(1, 4):
        col = [p.get(i, j) for i in range(1, 4)]
        expect = [1 if i == sigma(j) else 0 for i in range(1, 4)]
        assert col == expect


def test_permutation_validation():
    with pytest.raises(FormatError):
        Permutation(3, (1, 1, 2))
    with pytest.raises(FormatError):
        Permutation.from_cycles(3, [(1, 2), (2, 3)])


# ---------------------------------------------------------------------------
# text formats
# ---------------------------------------------------------------------------


def test_matrix_text_round_trip():
    rng = random.Random(41)
    for _ in range(30):
        m = random_invertible(rng.randint(1, 8), rng)
        assert parse_matrix(format_matrix(m)) == m


def test_matrix_text_errors():
    with pytest.raises(FormatError):
        parse_matrix("10,0")
    with pytest.raises(FormatError):
        parse_matrix("1a,01")
    with pytest.raises(SingularError):
        parse_matrix("11,11")


def test_circuit_text_round_trip():
    c = parse_circuit("CNOT 1 2; CNOT 2 0", 3)
    assert c.gates == (T(3, 2), T(1, 3))
    assert format_circuit(c) == "CNOT 1 2; CNOT 2 0"
    assert eval_circuit(c) == parse_matrix("111,010,011")
    assert parse_circuit("", 3).gates == ()


def test_circuit_text_errors():
    with pytest.raises(FormatError):
        parse_circuit("CNOT 0 0", 3)
    with pytest.raises(FormatError):
        parse_circuit("CNOT 0 3", 3)
    with pytest.raises(FormatError):
        parse_circuit("H 0", 3)


def test_perm_text():
    sigma = parse_perm("(1 2 3)(4 5)", 6)
    assert sigma(1) == 2 and sigma(3) == 1 and sigma(4) == 5 and sigma(6) == 6
    assert parse_perm("()", 4) == Permutation.identity(4)
    assert gf2.format_perm(sigma) == "(1 2 3)(4 5)"
    with pytest.raises(FormatError):
        parse_perm("(1 7)", 6)
