"""Binary distance databases: compact, byte-reproducible, binary-searchable.

The layout and the checks a reader makes are specified in
``docs/db_format.md``.  Keys are the packed row-major matrix words, so
records are bit-exact across platforms; sphere element counts are
decimal strings because they are exact integers of unbounded size.
"""

from __future__ import annotations

import os
import struct
from typing import NamedTuple

import numpy as np

from . import gf2
from .bfs import ExplorationResult
from .bounds import gl_order
from .errors import DatabaseError, HorizonError
from .gf2 import BitMatrix
from .isometry import IsometrySpec, canonicalize

MAGIC = b"GL2CAYDB"
VERSION = 1
_HEADER = struct.Struct("<8sHBBBBHHQ")
_LEVEL_HEAD = struct.Struct("<QH")
_ENTRY_DTYPE = np.dtype([("key", "<u8"), ("dist", "u1")])

# entries written and read per slice by ``save`` and ``load``; the slice
# buffer and the checks' temporaries are the only memory beyond the result
_SLICE = 1 << 14

_SPEC_TAGS = {IsometrySpec.SYM: 0, IsometrySpec.SYM_TI: 1}
_TAG_SPECS = {v: k for k, v in _SPEC_TAGS.items()}


def save(res: ExplorationResult, path) -> None:
    """Write a result; identical inputs give byte-identical files.  The
    entry block is written a slice at a time, as ``load`` reads it."""
    if res.keys.size != sum(res.orbit_counts):
        raise ValueError("result keys do not match its orbit counts; nothing to persist")
    levels = len(res.sphere_sizes)
    max_complete = res.max_exact_depth
    head = bytearray(_HEADER.pack(MAGIC, VERSION, res.n, _SPEC_TAGS[res.spec],
                                  int(res.complete), int(res.last_level_complete),
                                  max_complete, levels, res.keys.size))
    for d in range(levels):
        digits = str(res.sphere_sizes[d]).encode("ascii")
        head += _LEVEL_HEAD.pack(res.orbit_counts[d], len(digits))
        head += digits
    buf = np.empty(min(res.keys.size, _SLICE), dtype=_ENTRY_DTYPE)
    with open(path, "wb") as fh:
        fh.write(head)
        for s in range(0, res.keys.size, _SLICE):
            part = buf[:min(_SLICE, res.keys.size - s)]
            part["key"] = res.keys[s:s + part.size]
            part["dist"] = res.dists[s:s + part.size]
            fh.write(part.view(np.uint8))


class _Layout(NamedTuple):
    n: int
    spec: IsometrySpec
    last_complete: bool
    orbit_counts: list[int]
    sphere_sizes: list[int]
    entry_count: int
    offset: int  # of the entry block


def _read_layout(fh) -> _Layout:
    """Parse the header and sphere table of an open database and check
    them against each other and against the file length."""
    size = os.fstat(fh.fileno()).st_size
    head = fh.read(_HEADER.size)
    if len(head) < _HEADER.size:
        raise DatabaseError("file shorter than the header")
    magic, version, n, spec_tag, complete, last_complete, max_complete, \
        levels, entry_count = _HEADER.unpack(head)
    if magic != MAGIC:
        raise DatabaseError(f"bad magic {magic!r}")
    if version != VERSION:
        raise DatabaseError(f"unsupported format version {version}")
    if not 1 <= n <= gf2.MAX_ORDER:
        raise DatabaseError(f"matrix order {n} outside 1..{gf2.MAX_ORDER}")
    if spec_tag not in _TAG_SPECS:
        raise DatabaseError(f"unknown isometry tag {spec_tag}")
    if complete not in (0, 1) or last_complete not in (0, 1):
        raise DatabaseError(f"flag bytes {complete}, {last_complete} are not 0 or 1")
    orbit_counts = []
    sphere_sizes = []
    # each orbit holds 1 to 2*n! elements, under the larger group whatever
    # the tag, so that a flipped tag still reaches classify's check
    largest_orbit = IsometrySpec.SYM_TI.group_order(n)
    for d in range(levels):
        level_head = fh.read(_LEVEL_HEAD.size)
        if len(level_head) != _LEVEL_HEAD.size:
            raise DatabaseError("truncated sphere table")
        oc, dlen = _LEVEL_HEAD.unpack(level_head)
        digits = fh.read(dlen)
        if len(digits) != dlen or not digits.isdigit():
            raise DatabaseError("corrupt sphere element count")
        elements = int(digits)
        if not 1 <= oc <= elements <= oc * largest_orbit:
            raise DatabaseError(f"level {d} cannot hold {elements} elements in {oc} orbits")
        orbit_counts.append(oc)
        sphere_sizes.append(elements)
    offset = fh.tell()
    if size - offset != entry_count * _ENTRY_DTYPE.itemsize:
        raise DatabaseError(
            f"entry block is {size - offset} bytes, expected {entry_count} entries")
    if sum(orbit_counts) != entry_count:
        raise DatabaseError("orbit counts do not match the entry count")
    if int(max_complete) != levels - 1 - (0 if last_complete else 1):
        raise DatabaseError("inconsistent depth fields")
    if complete and not last_complete:
        raise DatabaseError("complete flag set but the last level marked inexact")
    if complete != (sum(sphere_sizes) == gl_order(n)):
        raise DatabaseError(f"complete flag {complete} disagrees with the sphere table")
    return _Layout(n, _TAG_SPECS[spec_tag], bool(last_complete),
                   orbit_counts, sphere_sizes, entry_count, offset)


def load(path) -> ExplorationResult:
    """Read a database back into an ExplorationResult after checking
    the entries against the sphere table."""
    with open(path, "rb") as fh:
        lay = _read_layout(fh)
        levels = len(lay.orbit_counts)
        keys = np.empty(lay.entry_count, dtype=np.uint64)
        dists = np.empty(lay.entry_count, dtype=np.uint8)
        histogram = np.zeros(levels, dtype=np.int64)
        buf = np.empty(min(lay.entry_count, _SLICE), dtype=_ENTRY_DTYPE)
        for s in range(0, lay.entry_count, _SLICE):
            part = buf[:min(_SLICE, lay.entry_count - s)]
            if fh.readinto(part.view(np.uint8)) != part.nbytes:
                raise DatabaseError("entry block shorter than its header says")
            k, d = keys[s:s + part.size], dists[s:s + part.size]
            k[:], d[:] = part["key"], part["dist"]
            # a slice is checked with the last key of the one before it
            if np.any(k[1:] <= k[:-1]) or (s and k[0] <= keys[s - 1]):
                raise DatabaseError("entries are not strictly sorted by key")
            if int(d.max()) >= levels:
                raise DatabaseError(f"distance {int(d.max())} beyond the "
                                    f"{levels} recorded levels")
            histogram += np.bincount(d, minlength=levels)
    if keys.size and int(keys[-1]) >> (lay.n * lay.n):
        raise DatabaseError(f"key {int(keys[-1]):#x} has bits beyond an "
                            f"order-{lay.n} matrix")
    if histogram.tolist() != lay.orbit_counts:
        raise DatabaseError("distance histogram does not match the orbit counts")
    return ExplorationResult(
        n=lay.n, spec=lay.spec, keys=keys, dists=dists,
        sphere_sizes=lay.sphere_sizes, orbit_counts=lay.orbit_counts,
        last_level_complete=lay.last_complete,
    )


# per path, the (file size, header and sphere-table bytes, layout) of
# the last database ``lookup`` validated there.  Entries are replaced,
# never changed, and each call compares the bytes it reads itself, so
# concurrent lookups at worst validate a file twice
_LAYOUTS: dict[str, tuple[int, bytes, _Layout]] = {}
# paths whose layouts are kept; past this many the cache starts over
_LAYOUTS_MAX = 64


def _cached_layout(path, fh) -> _Layout:
    """The layout of an open database, validated again unless its size
    and its header and sphere-table bytes equal those last validated
    at this path: one ``fstat`` and one positioned read of those bytes
    instead of a parse."""
    key = os.fspath(path)
    size = os.fstat(fh.fileno()).st_size
    hit = _LAYOUTS.get(key)
    if hit is not None and hit[0] == size and \
            os.pread(fh.fileno(), len(hit[1]), 0) == hit[1]:
        return hit[2]
    lay = _read_layout(fh)
    if len(_LAYOUTS) >= _LAYOUTS_MAX:
        _LAYOUTS.clear()
    _LAYOUTS[key] = size, os.pread(fh.fileno(), lay.offset, 0), lay
    return lay


def lookup(path, m: BitMatrix) -> int:
    """Distance of a matrix from a database file.

    Binary-searches the entry block in place, reading one 9-byte record
    per probe, so no full load happens.  The file length must equal
    header + sphere table + 9 bytes per entry, and the record found must
    hold a distance below the level count.  The header and sphere table
    are validated once per path and then only compared, with the file
    size, against the bytes that were validated.  The matrix is
    canonicalized under the recorded isometry spec first.  For a result
    in memory use ``bfs.distance_of``.
    """
    with open(path, "rb") as fh:
        lay = _cached_layout(path, fh)
        if m.n != lay.n:
            raise DatabaseError(f"matrix order {m.n} vs database order {lay.n}")
        key = canonicalize(m, lay.spec).key.bits
        lo, hi = 0, lay.entry_count
        while lo < hi:
            mid = (lo + hi) // 2
            # one positioned read per probe, bypassing the 8 KiB buffer fill
            rec = os.pread(fh.fileno(), _ENTRY_DTYPE.itemsize,
                           lay.offset + mid * _ENTRY_DTYPE.itemsize)
            k, d = struct.unpack("<QB", rec)
            if k == key:
                if d >= len(lay.orbit_counts):
                    raise DatabaseError(f"distance {d} beyond the "
                                        f"{len(lay.orbit_counts)} recorded levels")
                return d
            if k < key:
                lo = mid + 1
            else:
                hi = mid
    raise HorizonError(
        f"element beyond the explored horizon (depth {len(lay.orbit_counts) - 1})")


# ---------------------------------------------------------------------------
# table exporters
# ---------------------------------------------------------------------------


def sphere_table_csv(res: ExplorationResult) -> str:
    out = ["d,orbits,elements"]
    for d in range(len(res.sphere_sizes)):
        out.append(f"{d},{res.orbit_counts[d]},{res.sphere_sizes[d]}")
    return "\n".join(out) + "\n"


def sphere_table_json(res: ExplorationResult) -> dict:
    return {
        "n": res.n,
        "isometry": res.spec.value,
        "complete": res.complete,
        "last_level_complete": res.last_level_complete,
        "orbit_counts": [int(c) for c in res.orbit_counts],
        "sphere_sizes": [str(s) for s in res.sphere_sizes],
        "total_elements": str(res.total_elements()),
        "stored_orbits": int(res.keys.size),
    }
