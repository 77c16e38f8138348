"""Property tests: text round trips, parsers on any text, a database
reader under single-byte corruption, and the level search's dedup."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from cnotcayley import bfs, essential, store  # noqa: E402
from cnotcayley.errors import CnotCayleyError  # noqa: E402
from cnotcayley.gf2 import (  # noqa: E402
    MAX_ORDER,
    BitMatrix,
    Circuit,
    Permutation,
    Transvection,
    eval_circuit,
    format_circuit,
    format_matrix,
    format_perm,
    multiply,
    parse_circuit,
    parse_matrix,
    parse_perm,
    perm_matrix,
)
from cnotcayley.isometry import IsometrySpec  # noqa: E402

# reproducible runs that neither read nor write an example database
PROPERTY = settings(derandomize=True, database=None, deadline=None)

orders = st.integers(1, MAX_ORDER)


def circuits_of(n):
    pairs = st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda p: p[0] != p[1])
    gates = st.lists(pairs, max_size=12) if n > 1 else st.just([])
    return gates.map(lambda g: Circuit(n, tuple(Transvection(i, j) for i, j in g)))


def permutations_of(n):
    return st.permutations(range(1, n + 1)).map(lambda p: Permutation(n, tuple(p)))


circuits = orders.flatmap(circuits_of)
perms = orders.flatmap(permutations_of)


@st.composite
def invertible_matrices(draw):
    # words in the generators reach all of GL(n,2); the permutation
    # reaches it in fewer gates
    c = draw(circuits)
    return multiply(perm_matrix(draw(permutations_of(c.n))), eval_circuit(c))


@PROPERTY
@given(invertible_matrices())
def test_matrix_text_round_trips(m):
    assert parse_matrix(format_matrix(m)) == m


@PROPERTY
@given(circuits)
def test_circuit_text_round_trips(c):
    assert parse_circuit(format_circuit(c), c.n) == c


@PROPERTY
@given(perms)
def test_permutation_text_round_trips(sigma):
    assert parse_perm(format_perm(sigma), sigma.n) == sigma


# text near the grammars reaches deeper than arbitrary text does
texts = st.one_of(st.text(), st.text(alphabet="01,;() \t\nCNOTcnotid-+_9٣"))


@PROPERTY
@given(texts, st.integers(-1, MAX_ORDER + 1))
def test_parsers_raise_only_package_errors(text, n):
    for parse in (lambda: parse_matrix(text), lambda: parse_circuit(text, n),
                  lambda: parse_perm(text, n)):
        try:
            parse()
        except CnotCayleyError:
            pass


# ---------------------------------------------------------------------------
# single-byte corruption of a database
# ---------------------------------------------------------------------------


def answers(path, queries):
    """What the three readers make of a file: the loaded result's fields,
    the lookup of every query, and the classification table."""
    res = store.load(path)
    loaded = (res.n, res.spec, res.keys.tolist(), res.dists.tolist(),
              res.sphere_sizes, res.orbit_counts, res.last_level_complete)
    looked_up = [store.lookup(path, m) for m in queries]
    return loaded, looked_up, essential.classify(res).cells


@pytest.fixture(scope="module", params=[IsometrySpec.SYM, IsometrySpec.SYM_TI],
                ids=lambda spec: spec.value)
def saved_gl3(request, tmp_path_factory):
    from cnotcayley.bfs import isometry_bfs
    res = isometry_bfs(3, request.param)
    path = tmp_path_factory.mktemp("db") / "g3.db"
    store.save(res, path)
    queries = [BitMatrix(3, int(k)) for k in res.keys]
    return path.read_bytes(), queries, answers(path, queries)


def assert_caught_or_harmless(saved, tmp_path, offset, value):
    blob, queries, expected = saved
    bad = bytearray(blob)
    bad[offset] = value
    path = tmp_path / "bad.db"
    path.write_bytes(bad)
    try:
        got = answers(path, queries)
    except CnotCayleyError:
        return
    assert got == expected, (offset, value)


@settings(PROPERTY, max_examples=400,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_single_byte_corruption_is_caught_or_harmless(saved_gl3, tmp_path, data):
    # Every byte the readers use is checked against another field, so a
    # changed byte either makes one of them raise a typed error or
    # changes nothing they report.  An entry's distance changed to
    # another value below the level count passes a seeking lookup; the
    # full load's histogram catches it (docs/db_format.md).
    blob = saved_gl3[0]
    offset = data.draw(st.integers(0, len(blob) - 1), label="offset")
    value = data.draw(st.integers(0, 255).filter(lambda v: v != blob[offset]), label="value")
    assert_caught_or_harmless(saved_gl3, tmp_path, offset, value)


def test_every_header_bit_flip_is_caught_or_harmless(saved_gl3, tmp_path):
    # the 26 header bytes, where single bits decide the most (a flipped
    # isometry tag reads a sym-ti file as sym)
    blob = saved_gl3[0]
    for offset in range(26):
        for bit in range(8):
            assert_caught_or_harmless(saved_gl3, tmp_path, offset, blob[offset] ^ (1 << bit))


# ---------------------------------------------------------------------------
# the level search's dedup
# ---------------------------------------------------------------------------


@st.composite
def values_and_tables(draw):
    """uint64 values drawn from a few keys, so that most repeat, and up to
    three sorted tables: empty, one key, covering every value, or a mix
    of the keys and others."""
    keys = st.integers(0, 2**64 - 1)
    pool = draw(st.lists(keys, min_size=1, max_size=8, unique=True))
    values = draw(st.lists(st.sampled_from(pool), max_size=40))
    tables = draw(st.lists(st.one_of(
        st.just([]),
        keys.map(lambda k: [k]),
        st.lists(keys, max_size=4).map(lambda extra: pool + extra),
        st.lists(st.one_of(st.sampled_from(pool), keys), max_size=8),
    ), max_size=3))
    return (np.array(values, dtype=np.uint64),
            [np.unique(np.array(t, dtype=np.uint64)) for t in tables])


@PROPERTY
@given(values_and_tables())
def test_fresh_keeps_one_of_each_unstored_value(case):
    values, tables = case
    pos = bfs._fresh(values, tables)
    assert np.unique(pos).size == pos.size
    kept = values[pos]
    assert np.all(kept[1:] > kept[:-1])
    stored = {int(k) for t in tables for k in t}
    assert {int(v) for v in kept} == {int(v) for v in values} - stored
