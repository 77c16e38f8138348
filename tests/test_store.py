"""Database format: round trips, byte reproducibility, seek-based lookup."""

import dataclasses
import hashlib
import random

import numpy as np
import pytest

from cnotcayley import store
from cnotcayley.bfs import SearchLimits, distance_of, isometry_bfs
from cnotcayley.cli import run
from cnotcayley.errors import DatabaseError, HorizonError
from cnotcayley.gf2 import BitMatrix, identity, parse_matrix, random_invertible
from cnotcayley.isometry import IsometrySpec, canonicalize

# SHA-256 of complete saved databases, frozen from the implementation
# that computed every transpose-inverse with the scalar F2 inverse.
FROZEN_SHA256 = {
    (1, "sym"): "b5a22a301a42ace7ccea9b6d01a490e3850e4a1c399212530000e0ce5df4d368",
    (1, "sym-ti"): "a067a2b4b9b015664ec5e222d1b1957bda607011358c4ef9bb0d53bf284b8c7b",
    (2, "sym"): "9f5d26b14f3f21997f68eed721ab4554f669f8a5f3b508c8efd594703f22ea47",
    (2, "sym-ti"): "37be5ac388a2a4e54c42a7e20344d37a7e95072521aa54ea86e63365ffa6e833",
    (3, "sym"): "318da3d3052c4d3250e7a0805c86af821cd6ef7153b6667b5f27b728380a6dd3",
    (3, "sym-ti"): "17e495413d85ef9722739a6dbff2d85b9e8954f37931b4df5511f7c3057e64ac",
    (4, "sym"): "0ccc52af0126af231ba501c5804c1b9f224976da2758be488ff9dc2a93698db2",
    (4, "sym-ti"): "0bf232a5eb4e4628cf1297ee514741c44de5f3b892bc866787c5d8a60e38a82f",
    (5, "sym"): "12794313bfddb39d685b4803202468f51d6230cb92578e3c8e42c0c019fa95e3",
    (5, "sym-ti"): "741d94892376ad851cee485f56b24f5c6242168ff09a80ede0e7da2b50fab867",
}


# SHA-256 of saved order-8 balls (spec, depth), frozen from the kernel
# that enumerated all 8! images of every key; depth 5, the benchmark's
# ball, from the level loop that canonicalized the successors of every
# generator, before the twin rule dropped any.
FROZEN_SHA256_ORDER8 = {
    ("sym", 4): "2a048f595b98ac48085fb1f68d78f96801b5b41aa5ef7b90e25d52759ebf9325",
    ("sym", 5): "1bb05d6e4a38823c4037eebfc9fde33f8b1c21892c84c83fbeae58c73eb17583",
    ("sym-ti", 3): "12de52058b395c8a36776f7a2bfabe76a8c6a192c70259d58f8b39bbc1edff98",
}


# SHA-256 of saved GL(7,2) balls to depth 6 (spec, orbits), frozen from
# the pruned product whose tables hold all (n-1)! = 720 permutations
# fixing n-1, the n <= 7 kernel at its largest order.
FROZEN_SHA256_ORDER7 = {
    ("sym", 20_831): "f45961aa3dd769317e73e858ce7d4da31861f849966daed8701a3e7fc68f02ca",
    ("sym-ti", 10_536): "969629490b833fb686c26746e964cb37de1f2a6274e9e35fb53432a65d1cad2b",
}


# SHA-256 of saved GL(6,2) balls to depth 8 (spec, orbits), the
# benchmark's ball, frozen from the level loop that deduplicated each
# block's canonical keys with np.unique.  Level 8 spans dozens of
# memory blocks, where the capped runs below stop partway into it.
FROZEN_SHA256_ORDER6 = {
    ("sym", 612_719): "04f93c4d3bdf4963154364c8449a653d627fcf3b535e37fc3994df21986caa6b",
    ("sym-ti", 307_299): "cdac4cc40f892f2e641e46c2aaac5a6a9afc3a4eff98c5910c1d35380e7e4bcd",
}


# SHA-256 of saved GL(6,2) `sym` explorations capped by max_orbits,
# frozen from the level loop that re-sorted the next level after every
# block of 2^20 successors.  The orbit budget is checked only at those
# block ends: 40,000 stops after level 7 (90,507 orbits, whole but
# flagged inexact), 200,000 in level 8 at 278,460 orbits.
FROZEN_SHA256_CAPPED = {
    40_000: "5c5b79900f0f94e760792a2d06dec7e218597be784faafb78c9aa9141f9f3269",
    200_000: "af9599ca7eb95a2cb38b51ae3f02011a6870a136ab0744f1abee263626d74467",
}


@pytest.fixture(autouse=True)
def no_remembered_layout(monkeypatch):
    # lookup remembers the last layout it validated, whatever the file;
    # each test starts without one, so it sees its own parses
    monkeypatch.setattr(store, "_last_layout", None)


@pytest.mark.parametrize("n, spec", sorted(FROZEN_SHA256))
def test_saved_databases_frozen(explored, tmp_path, n, spec):
    path = tmp_path / "g.db"
    store.save(explored(n, IsometrySpec(spec)), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == FROZEN_SHA256[n, spec]


@pytest.mark.parametrize("spec, depth", sorted(FROZEN_SHA256_ORDER8))
def test_saved_order8_balls_frozen(explored, tmp_path, spec, depth):
    path = tmp_path / "g.db"
    store.save(explored(8, IsometrySpec(spec), depth), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        FROZEN_SHA256_ORDER8[spec, depth]


@pytest.mark.parametrize("spec, orbits", sorted(FROZEN_SHA256_ORDER7))
def test_saved_order7_balls_frozen(explored, tmp_path, spec, orbits):
    res = explored(7, IsometrySpec(spec), 6)
    assert res.keys.size == orbits
    path = tmp_path / "g.db"
    store.save(res, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        FROZEN_SHA256_ORDER7[spec, orbits]


@pytest.mark.parametrize("spec, orbits", sorted(FROZEN_SHA256_ORDER6))
def test_saved_order6_balls_frozen(explored, tmp_path, spec, orbits):
    res = explored(6, IsometrySpec(spec), 8)
    assert res.keys.size == orbits
    path = tmp_path / "g.db"
    store.save(res, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        FROZEN_SHA256_ORDER6[spec, orbits]


@pytest.mark.parametrize("max_orbits", sorted(FROZEN_SHA256_CAPPED))
def test_saved_budget_capped_databases_frozen(tmp_path, max_orbits):
    res = isometry_bfs(6, limits=SearchLimits(max_orbits=max_orbits))
    assert not res.last_level_complete
    path = tmp_path / "g.db"
    store.save(res, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        FROZEN_SHA256_CAPPED[max_orbits]


def test_round_trip_field_by_field(explored, tmp_path):
    res = explored(4)
    path = tmp_path / "g4.db"
    store.save(res, path)
    back = store.load(path)
    assert back.n == res.n
    assert back.spec == res.spec
    assert np.array_equal(back.keys, res.keys)
    assert np.array_equal(back.dists, res.dists)
    assert back.sphere_sizes == res.sphere_sizes
    assert back.orbit_counts == res.orbit_counts
    assert back.complete == res.complete
    assert back.last_level_complete == res.last_level_complete


def test_byte_identical_saves(explored, tmp_path):
    res = explored(3)
    a, b, c = (tmp_path / x for x in ("a.db", "b.db", "c.db"))
    store.save(res, a)
    store.save(res, b)
    store.save(store.load(a), c)
    assert a.read_bytes() == b.read_bytes() == c.read_bytes()


def test_entry_counts_published(explored, tmp_path):
    path = tmp_path / "g3.db"
    store.save(explored(3), path)
    assert store.load(path).keys.size == 33


def test_order5_database(explored, tmp_path):
    path = tmp_path / "g5.db"
    store.save(explored(5), path)
    back = store.load(path)
    assert back.keys.size == 85_411
    assert back.total_elements() == 9_999_360


def test_truncated_result_round_trip(tmp_path):
    from cnotcayley.bfs import SearchLimits
    res = isometry_bfs(4, limits=SearchLimits(max_orbits=50))
    path = tmp_path / "trunc.db"
    store.save(res, path)
    back = store.load(path)
    assert not back.complete and not back.last_level_complete
    assert back.max_exact_depth == res.max_exact_depth


def test_corruption_detection(explored, tmp_path):
    res = explored(3)
    path = tmp_path / "g3.db"
    store.save(res, path)
    blob = bytearray(path.read_bytes())

    bad = tmp_path / "bad.db"
    bad.write_bytes(blob[:10])
    with pytest.raises(DatabaseError):
        store.load(bad)

    wrong_magic = bytearray(blob)
    wrong_magic[0] ^= 0xFF
    bad.write_bytes(wrong_magic)
    with pytest.raises(DatabaseError):
        store.load(bad)

    wrong_version = bytearray(blob)
    wrong_version[8] = 99
    bad.write_bytes(wrong_version)
    with pytest.raises(DatabaseError):
        store.load(bad)

    truncated = blob[:-5]
    bad.write_bytes(truncated)
    with pytest.raises(DatabaseError):
        store.load(bad)


@pytest.fixture
def g3_blob(explored, tmp_path):
    path = tmp_path / "g3.db"
    store.save(explored(3), path)
    return bytearray(path.read_bytes())


def test_header_order_out_of_range(g3_blob, tmp_path):
    bad = tmp_path / "bad.db"
    for n in (0, 9):
        g3_blob[10] = n
        bad.write_bytes(g3_blob)
        with pytest.raises(DatabaseError, match="outside 1..8"):
            store.load(bad)
        with pytest.raises(DatabaseError, match="outside 1..8"):
            store.lookup(bad, identity(3))


@pytest.mark.parametrize("depth", [None, 3])
def test_complete_flag_checked(explored, tmp_path, depth):
    # byte 12 is the complete flag; it must agree with the sphere table
    path = tmp_path / "g3.db"
    store.save(explored(3, max_depth=depth), path)
    blob = bytearray(path.read_bytes())
    assert blob[12] == (depth is None)
    blob[12] ^= 1
    bad = tmp_path / "bad.db"
    bad.write_bytes(blob)
    with pytest.raises(DatabaseError, match="complete flag"):
        store.load(bad)
    with pytest.raises(DatabaseError, match="complete flag"):
        store.lookup(bad, identity(3))


def test_complete_requires_last_level_complete(explored, tmp_path):
    # byte 13 is the last-level-complete flag and bytes 14-15 the max
    # complete depth; clearing the one and lowering the other keeps the
    # depth fields consistent, but a complete run has no inexact level
    path = tmp_path / "g3.db"
    store.save(explored(3), path)
    blob = bytearray(path.read_bytes())
    assert (blob[12], blob[13], blob[14:16]) == (1, 1, b"\x06\x00")
    blob[13] = 0
    blob[14:16] = (5).to_bytes(2, "little")
    bad = tmp_path / "bad.db"
    bad.write_bytes(blob)
    with pytest.raises(DatabaseError, match="last level marked inexact"):
        store.load(bad)
    with pytest.raises(DatabaseError, match="last level marked inexact"):
        store.lookup(bad, identity(3))


@pytest.mark.parametrize("offset", [12, 13])
def test_flag_bytes_are_zero_or_one(g3_blob, tmp_path, offset):
    # byte 12 is the complete flag, byte 13 the last-level-complete flag;
    # both are 1 here, so any other nonzero value read as true before
    bad = tmp_path / "bad.db"
    for value in (0x02, 0x7F, 0x81, 0xFF):
        g3_blob[offset] = value
        bad.write_bytes(g3_blob)
        with pytest.raises(DatabaseError, match="not 0 or 1"):
            store.load(bad)
        with pytest.raises(DatabaseError, match="not 0 or 1"):
            store.lookup(bad, identity(3))


def test_level_counts_must_be_possible(g3_blob, tmp_path):
    # a level holds at least one orbit and 1 to 2*n! elements per orbit;
    # the sphere table of GL(3,2) starts (1 orbit, "1"), (1, "6"), (5, "24")
    level0 = store._HEADER.size + store._LEVEL_HEAD.size
    level2 = level0 + 2 * (1 + store._LEVEL_HEAD.size)
    assert g3_blob[level0:level0 + 1] == b"1" and g3_blob[level2:level2 + 2] == b"24"
    bad = tmp_path / "bad.db"
    for at, digits in ((level0, b"0"), (level2, b"99")):
        blob = bytearray(g3_blob)
        blob[at:at + len(digits)] = digits
        bad.write_bytes(blob)
        with pytest.raises(DatabaseError, match="cannot hold"):
            store.load(bad)
        with pytest.raises(DatabaseError, match="cannot hold"):
            store.lookup(bad, identity(3))


def test_database_without_entries_is_refused(capsys, tmp_path):
    # order 1, one complete level of 0 orbits and 1 element: the element
    # count sums to |GL(1,2)| and the empty entry block matches 0 orbits
    path = tmp_path / "empty.db"
    path.write_bytes(store._HEADER.pack(store.MAGIC, store.VERSION, 1, 0, 1, 1, 0, 1, 0)
                     + store._LEVEL_HEAD.pack(0, 1) + b"1")
    with pytest.raises(DatabaseError, match="cannot hold"):
        store.load(path)
    with pytest.raises(DatabaseError, match="cannot hold"):
        store.lookup(path, identity(1))
    for verb in ("synth", "dist"):
        assert run([verb, "--db", str(path), "--matrix", "1"]) == 1
        err = capsys.readouterr().err
        assert "cannot hold" in err and "Traceback" not in err


def test_lookup_checks_the_distance_it_finds(explored, tmp_path):
    res = explored(3, IsometrySpec.SYM_TI)
    path = tmp_path / "g3.db"
    store.save(res, path)
    m = parse_matrix("111,010,011")
    assert store.lookup(path, m) == 2
    blob = bytearray(path.read_bytes())
    # the record of m's canonical key: its distance byte ends it
    idx = int(np.searchsorted(res.keys, np.uint64(canonicalize(m, res.spec).key.bits)))
    at = len(blob) - 9 * (res.keys.size - idx) + 8
    assert at == 277 and blob[at] == 2 and len(res.sphere_sizes) == 7
    bad = tmp_path / "bad.db"
    for value in (7, 0x7F, 0x82, 0xFF):
        blob[at] = value
        bad.write_bytes(blob)
        with pytest.raises(DatabaseError, match=f"distance {value} beyond the 7"):
            store.lookup(bad, m)
    # a distance moved within range is seen only by a full load
    blob[at] = 3
    bad.write_bytes(blob)
    assert store.lookup(bad, m) == 3
    with pytest.raises(DatabaseError, match="histogram"):
        store.load(bad)


def test_key_wider_than_the_order(g3_blob, tmp_path):
    # still sorted, since it exceeds every order-3 key
    g3_blob[-9:-1] = (0x7F00000000000177).to_bytes(8, "little")
    bad = tmp_path / "bad.db"
    bad.write_bytes(g3_blob)
    with pytest.raises(DatabaseError, match="bits beyond"):
        store.load(bad)


def test_distance_histogram_checked(g3_blob, tmp_path):
    bad = tmp_path / "bad.db"
    # a flip within range moves one orbit to another level; a flip of
    # the high bits leaves the recorded levels altogether
    for flip, msg in ((0x01, "histogram"), (0xFF, "beyond")):
        blob = bytearray(g3_blob)
        blob[-1] ^= flip
        bad.write_bytes(blob)
        with pytest.raises(DatabaseError, match=msg):
            store.load(bad)


def test_lookup_from_loaded_and_from_file(explored, tmp_path):
    res = explored(4)
    path = tmp_path / "g4.db"
    store.save(res, path)
    rng = random.Random(1)
    for _ in range(30):
        m = random_invertible(4, rng)  # generally not canonical
        assert store.lookup(path, m) == distance_of(res, m)


def test_lookup_beyond_horizon(tmp_path):
    from cnotcayley.bfs import SearchLimits
    res = isometry_bfs(4, limits=SearchLimits(max_depth=2))
    path = tmp_path / "shallow.db"
    store.save(res, path)
    deep = parse_matrix("0001,0010,0100,1000")  # distance 3(4-1)=9
    with pytest.raises(HorizonError):
        store.lookup(path, deep)


def test_lookup_checks_file_length(explored, tmp_path):
    path = tmp_path / "g3.db"
    store.save(explored(3), path)
    blob = path.read_bytes()
    assert store.lookup(path, identity(3)) == 0
    bad = tmp_path / "bad.db"
    # cut in the sphere table, in the entry block, at a record boundary,
    # and one record too many
    for cut in (blob[:30], blob[:-5], blob[:-9], blob + blob[-9:]):
        bad.write_bytes(cut)
        with pytest.raises(DatabaseError):
            store.lookup(bad, identity(3))


def test_lookup_revalidates_a_rewritten_file(explored, tmp_path, monkeypatch):
    # a lookup compares the file size and the header and sphere-table
    # bytes with those it last validated at the path, and parses them
    # again only when they differ
    path = tmp_path / "g3.db"
    store.save(explored(3), path)
    blob = bytearray(path.read_bytes())
    parsed = []
    real = store._read_layout
    monkeypatch.setattr(store, "_read_layout", lambda fh: parsed.append(1) or real(fh))
    assert [store.lookup(path, identity(3)) for _ in range(3)] == [0, 0, 0]
    assert len(parsed) == 1
    # the same path and the same size, with a corrupt element count: the
    # first level's head is 10 bytes after the 26-byte header, and its
    # count of one element is the digit "1"
    assert blob[36:37] == b"1"
    blob[36:37] = b"x"
    path.write_bytes(blob)
    assert path.stat().st_size == len(blob)
    with pytest.raises(DatabaseError, match="corrupt sphere element count"):
        store.lookup(path, identity(3))
    # restored, it is again the file last validated there
    blob[36:37] = b"1"
    path.write_bytes(blob)
    assert store.lookup(path, identity(3)) == 0
    assert len(parsed) == 2
    # cut after a good lookup: the header and the sphere table are
    # intact, and only the file length tells
    path.write_bytes(blob[:-9])
    with pytest.raises(DatabaseError, match="entry block"):
        store.lookup(path, identity(3))
    assert len(parsed) == 3


def test_lookup_alternates_between_databases(explored, tmp_path, monkeypatch):
    # one layout is remembered: a lookup in the other database parses
    # its header again, one through another path to the same file does not
    g3, g4 = explored(3), explored(4, IsometrySpec.SYM_TI)
    p3, p4 = tmp_path / "g3.db", tmp_path / "g4.db"
    store.save(g3, p3)
    store.save(g4, p4)
    (tmp_path / "sub").mkdir()
    p3_again = str(tmp_path / "sub" / ".." / "g3.db")
    parsed = []
    real = store._read_layout
    monkeypatch.setattr(store, "_read_layout", lambda fh: parsed.append(1) or real(fh))
    rng = random.Random(3)
    for _ in range(10):
        m3, m4 = random_invertible(3, rng), random_invertible(4, rng)
        assert store.lookup(p3, m3) == distance_of(g3, m3)
        assert store.lookup(p4, m4) == distance_of(g4, m4)
    assert len(parsed) == 20
    for _ in range(10):
        m3 = random_invertible(3, rng)
        assert store.lookup(p3, m3) == distance_of(g3, m3)
        assert store.lookup(p3_again, m3) == distance_of(g3, m3)
    assert len(parsed) == 21


def test_save_refuses_keys_that_miss_the_orbit_counts(explored, tmp_path):
    res = explored(3)
    short = dataclasses.replace(res, keys=res.keys[:-1], dists=res.dists[:-1])
    with pytest.raises(ValueError, match="result keys do not match its orbit counts"):
        store.save(short, tmp_path / "short.db")
    assert not (tmp_path / "short.db").exists()


def test_lookup_order_mismatch(explored, tmp_path):
    path = tmp_path / "g3.db"
    store.save(explored(3), path)
    with pytest.raises(DatabaseError):
        store.lookup(path, parse_matrix("01,10"))


def test_persisted_distances_match_recomputation(explored, tmp_path):
    res = explored(4)
    path = tmp_path / "g4.db"
    store.save(res, path)
    back = store.load(path)
    rng = random.Random(2)
    fresh = isometry_bfs(4)
    for idx in rng.sample(range(back.keys.size), 50):
        key = BitMatrix(4, int(back.keys[idx]))
        assert distance_of(fresh, key) == int(back.dists[idx])


def test_sphere_table_exports(explored):
    res = explored(2)
    csv = store.sphere_table_csv(res)
    assert csv.splitlines()[0] == "d,orbits,elements"
    assert csv.splitlines()[1:] == ["0,1,1", "1,1,2", "2,1,2", "3,1,1"]
    js = store.sphere_table_json(res)
    assert js["sphere_sizes"] == ["1", "2", "2", "1"]
    assert js["total_elements"] == "6"
