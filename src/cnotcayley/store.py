"""Binary distance databases: compact, byte-reproducible, binary-searchable.

Layout (all little-endian, no timestamps anywhere):

    offset  size  field
    0       8     magic "GL2CAYDB"
    8       2     format version (u16) = 1
    10      1     matrix order n (u8)
    11      1     isometry tag (u8): 0 = sym, 1 = sym-ti
    12      1     complete flag (u8)
    13      1     last-level-complete flag (u8)
    14      2     max complete depth (u16)
    16      2     level count (u16)
    18      8     entry count (u64)
    26      ...   sphere table, one block per level:
                      orbit count (u64),
                      element count as decimal ASCII (u16 length + bytes)
    ...     9*E   entries: (canonical key u64, distance u8), sorted by key

Keys are the packed row-major matrix words, so records are bit-exact
across platforms; element counts are decimal strings because they are
exact integers of unbounded size.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np

from .bfs import ExplorationResult
from .errors import DatabaseError, HorizonError
from .gf2 import BitMatrix
from .isometry import IsometrySpec, canonicalize

MAGIC = b"GL2CAYDB"
VERSION = 1
_HEADER = struct.Struct("<8sHBBBBHHQ")
_LEVEL_HEAD = struct.Struct("<QH")
_ENTRY_DTYPE = np.dtype([("key", "<u8"), ("dist", "u1")])

_SPEC_TAGS = {IsometrySpec.SYM: 0, IsometrySpec.SYM_TI: 1}
_TAG_SPECS = {v: k for k, v in _SPEC_TAGS.items()}


def save(res: ExplorationResult, path) -> None:
    """Write a result; identical inputs give byte-identical files."""
    if res.keys.size != sum(res.orbit_counts):
        raise ValueError("result has no key map (streaming run?); nothing to persist")
    levels = len(res.sphere_sizes)
    max_complete = res.max_exact_depth
    blob = bytearray()
    blob += _HEADER.pack(MAGIC, VERSION, res.n, _SPEC_TAGS[res.spec],
                         int(res.complete), int(res.last_level_complete),
                         max_complete, levels, res.keys.size)
    for d in range(levels):
        digits = str(res.sphere_sizes[d]).encode("ascii")
        blob += _LEVEL_HEAD.pack(res.orbit_counts[d], len(digits))
        blob += digits
    entries = np.empty(res.keys.size, dtype=_ENTRY_DTYPE)
    entries["key"] = res.keys
    entries["dist"] = res.dists
    blob += entries.tobytes()
    Path(path).write_bytes(bytes(blob))


def _parse_header(buf: bytes):
    if len(buf) < _HEADER.size:
        raise DatabaseError("file shorter than the header")
    magic, version, n, spec_tag, complete, last_complete, max_complete, \
        levels, entry_count = _HEADER.unpack_from(buf, 0)
    if magic != MAGIC:
        raise DatabaseError(f"bad magic {magic!r}")
    if version != VERSION:
        raise DatabaseError(f"unsupported format version {version}")
    if spec_tag not in _TAG_SPECS:
        raise DatabaseError(f"unknown isometry tag {spec_tag}")
    return (n, _TAG_SPECS[spec_tag], bool(complete), bool(last_complete),
            max_complete, levels, entry_count)


def load(path) -> ExplorationResult:
    """Read a database back into an ExplorationResult (orbit sizes are
    not persisted and come back as None; they are recomputable)."""
    buf = Path(path).read_bytes()
    n, spec, complete, last_complete, max_complete, levels, entry_count = \
        _parse_header(buf)
    off = _HEADER.size
    orbit_counts = []
    sphere_sizes = []
    for _ in range(levels):
        if off + _LEVEL_HEAD.size > len(buf):
            raise DatabaseError("truncated sphere table")
        oc, dlen = _LEVEL_HEAD.unpack_from(buf, off)
        off += _LEVEL_HEAD.size
        digits = buf[off:off + dlen]
        if len(digits) != dlen or not digits.isdigit():
            raise DatabaseError("corrupt sphere element count")
        off += dlen
        orbit_counts.append(int(oc))
        sphere_sizes.append(int(digits))
    body = buf[off:]
    if len(body) != entry_count * _ENTRY_DTYPE.itemsize:
        raise DatabaseError(
            f"entry block is {len(body)} bytes, expected {entry_count} entries")
    entries = np.frombuffer(body, dtype=_ENTRY_DTYPE)
    keys = entries["key"].copy()
    dists = entries["dist"].copy()
    if keys.size and np.any(keys[1:] <= keys[:-1]):
        raise DatabaseError("entries are not strictly sorted by key")
    if sum(orbit_counts) != entry_count:
        raise DatabaseError("orbit counts do not match the entry count")
    if int(max_complete) != levels - 1 - (0 if last_complete else 1):
        raise DatabaseError("inconsistent depth fields")
    return ExplorationResult(
        n=n, spec=spec, keys=keys, dists=dists,
        sphere_sizes=sphere_sizes, orbit_counts=orbit_counts,
        complete=complete, last_level_complete=last_complete,
        orbit_sizes=None,
    )


def lookup(source, m: BitMatrix) -> int:
    """Distance of a matrix from a loaded result or a database path.

    Path lookups binary-search the entry block in place, reading one
    9-byte record per probe, so no full load happens.  The file length
    must equal header + sphere table + 9 bytes per entry.  The matrix is
    canonicalized under the recorded isometry spec first.
    """
    if isinstance(source, ExplorationResult):
        from .bfs import distance_of
        return distance_of(source, m)
    with open(source, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(_HEADER.size)
        n, spec, _, _, _, levels, entry_count = _parse_header(head)
        if m.n != n:
            raise DatabaseError(f"matrix order {m.n} vs database order {n}")
        # skip the variable-length sphere table
        off = _HEADER.size
        for _ in range(levels):
            if off + _LEVEL_HEAD.size > size:
                raise DatabaseError("truncated sphere table")
            fh.seek(off)
            _, dlen = _LEVEL_HEAD.unpack(fh.read(_LEVEL_HEAD.size))
            off += _LEVEL_HEAD.size + dlen
        if size - off != entry_count * _ENTRY_DTYPE.itemsize:
            raise DatabaseError(
                f"entry block is {size - off} bytes, expected {entry_count} entries")
        key = canonicalize(m, spec).key.bits
        lo, hi = 0, entry_count
        while lo < hi:
            mid = (lo + hi) // 2
            fh.seek(off + mid * _ENTRY_DTYPE.itemsize)
            rec = fh.read(_ENTRY_DTYPE.itemsize)
            k, d = struct.unpack("<QB", rec)
            if k == key:
                return d
            if k < key:
                lo = mid + 1
            else:
                hi = mid
    raise HorizonError(
        f"element beyond the explored horizon (depth {levels - 1})")


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
