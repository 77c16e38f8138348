"""Orbit classification by essential-index count and the sphere-size
polynomials in the binomial basis.

An index is essential when its row or column differs from the identity
pattern; a word of length d touches at most 2d indices, so the sphere
at distance d splits into classes with m = 0..2d essential indices.
Summing orbit sizes per class in GL(2d,2) and dividing by C(2d,m)
yields integer coefficients a[d][m] such that the sphere size at
distance d in GL(n,2) equals sum_m a[d][m] * C(n,m) for every
n >= 2d.  The same coefficients come out whether the classes are taken
under the symmetric group alone or the full isometry group.

Coefficients for d = 1..4 are recomputable on this machine (d=4 takes a
depth-4 exploration of GL(8,2)); the bundled file ships the published
d = 1..10 table for the diameter bounds, tagged as such and never
recomputed here.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from math import comb

import numpy as np

from . import gf2
from .bfs import ExplorationResult
from .errors import ConsistencyError, FormatError, OrderError
from .gf2 import BitMatrix
from .isometry import IsometrySpec, canonicalize, canonicalize_batch

BUNDLED_COEFFS = "published_coeffs.csv"


@dataclass
class EssentialClassTable:
    """cells[(d, m)] = number of group elements at distance d whose
    matrices have m essential indices, for the explored order n."""

    n: int
    spec: IsometrySpec
    d_max: int
    cells: dict[tuple[int, int], int]

    def sphere_size(self, d: int) -> int:
        return sum(v for (dd, _), v in self.cells.items() if dd == d)


@dataclass(frozen=True)
class PolyCoeffs:
    """Coefficients of f_d in the binomial basis: f_d(n) = sum a[m]*C(n,m)."""

    d: int
    a: tuple[int, ...]
    source: str = "extracted"

    def __post_init__(self) -> None:
        if len(self.a) != 2 * self.d + 1:
            raise FormatError(
                f"degree-{self.d} record needs {2*self.d+1} coefficients, got {len(self.a)}")

    def valid_at(self, n: int) -> bool:
        """Whether f_d(n) is certified to equal the sphere size."""
        return n >= 2 * self.d


def essential_counts_batch(keys: np.ndarray, n: int) -> np.ndarray:
    """Number of essential indices of each packed matrix.

    Works on the packed rows: with off_i the off-diagonal part of row i,
    index i is essential when off_i != 0 (its row) or bit i is set in
    the OR of all off_k (its column, since off_i itself lacks bit i).
    """
    rows_hit = np.zeros(keys.size, dtype=np.uint64)
    cols_hit = np.zeros(keys.size, dtype=np.uint64)
    for i in range(n):
        off = (keys >> np.uint64(i * n)) & np.uint64(((1 << n) - 1) & ~(1 << i))
        cols_hit |= off
        rows_hit |= (off != 0).astype(np.uint64) << np.uint64(i)
    return np.bitwise_count(rows_hit | cols_hit).astype(np.int64)


# stored keys classified per block: the block's canonical keys, sizes
# and essential counts are the only temporaries that grow with a result
_BLOCK = 1 << 14


def classify(res: ExplorationResult) -> EssentialClassTable:
    """Tally orbit sizes into (distance, essential-count) cells.

    Only levels with exact sphere sizes are classified.  Orbit sizes are
    recomputed from the stored keys, which must be canonical, and must
    sum per level to the recorded sphere size: keys reduced under another
    isometry spec than the recorded one fail there.  Keys are taken in
    blocks, so memory beyond the result stays at one block's worth.
    """
    n = res.n
    d_max = res.max_exact_depth
    # totals[d, m]: elements at distance d with m essential indices;
    # orbit sizes <= 2*8! and |GL(8,2)| < 2^63, so uint64 is exact
    totals = np.zeros((d_max + 1, n + 1), dtype=np.uint64)
    for s in range(0, res.keys.size, _BLOCK):
        exact = res.dists[s:s + _BLOCK] <= d_max
        keys = res.keys[s:s + _BLOCK][exact]
        dists = res.dists[s:s + _BLOCK][exact]
        canon, sizes = canonicalize_batch(keys, n, res.spec)
        if not np.array_equal(canon, keys):
            raise ConsistencyError("stored keys are not canonical")
        cell = dists * np.intp(n + 1) + essential_counts_batch(keys, n)
        np.add.at(totals.reshape(-1), cell, sizes)
    cells = {(d, m): int(totals[d, m])
             for d in range(d_max + 1) for m in range(n + 1) if totals[d, m]}
    table = EssentialClassTable(n=n, spec=res.spec, d_max=d_max, cells=cells)
    for d in range(d_max + 1):
        level = table.sphere_size(d)
        if level != res.sphere_sizes[d]:
            raise ConsistencyError(f"orbit sizes at distance {d} sum to {level}, "
                                   f"the sphere table records {res.sphere_sizes[d]}")
    return table


def extract_coeffs(table: EssentialClassTable, d: int) -> PolyCoeffs:
    """Binomial-basis coefficients of f_d from the GL(2d,2) classes.

    Every division must be exact; a remainder would mean the orbit
    accounting is broken, not that the input is unusual.
    """
    if d < 1:
        raise ValueError("coefficient extraction needs d >= 1")
    if table.n != 2 * d:
        raise OrderError(f"need classes of GL({2*d},2), got order {table.n}")
    if table.d_max < d:
        raise OrderError(f"classification stops at depth {table.d_max} < {d}")
    a = []
    for m in range(2 * d + 1):
        s = table.cells.get((d, m), 0)
        denom = comb(2 * d, m)
        if s % denom:
            raise ConsistencyError(
                f"class ({d},{m}) size {s} not divisible by C({2*d},{m})")
        a.append(s // denom)
    return PolyCoeffs(d=d, a=tuple(a))


def eval_poly(coeffs: PolyCoeffs, n: int) -> int:
    """f_d(n), exact; equals the sphere size whenever coeffs.valid_at(n)."""
    if n < 0:
        raise ValueError("polynomial argument must be non-negative")
    return sum(am * comb(n, m) for m, am in enumerate(coeffs.a))


def witness_matrix(d: int) -> BitMatrix:
    """The order-2d product of d disjoint transvections: its 2d essential
    indices meet the upper bound 2*distance with distance exactly d."""
    if not 1 <= d <= gf2.MAX_ORDER // 2:
        raise OrderError(f"witness needs order 2d <= {gf2.MAX_ORDER}")
    n = 2 * d
    m = gf2.identity(n)
    for t in range(d):
        m = gf2.apply_transvection(gf2.Transvection(2 * t + 1, 2 * t + 2), m)
    return m


def orbit_growth_check(m: BitMatrix, n: int) -> bool:
    """Verify, by direct enumeration at both orders, that embedding into
    order n scales the symmetric-group orbit by C(n,k)/C(m,k) where k is
    the number of essential indices."""
    if not m.n <= n <= gf2.MAX_ORDER:
        raise OrderError(f"cannot embed order {m.n} into {n}")
    k = len(gf2.essential_indices(m))
    small = canonicalize(m, IsometrySpec.SYM).orbit_size
    big = canonicalize(gf2.embed(m, n), IsometrySpec.SYM).orbit_size
    lhs = big * comb(m.n, k)
    rhs = small * comb(n, k)
    return lhs == rhs


# ---------------------------------------------------------------------------
# coefficient records
# ---------------------------------------------------------------------------


def format_coeffs_record(c: PolyCoeffs) -> str:
    """One CSV record: d followed by a[0..2d] as decimal strings."""
    return ",".join([str(c.d)] + [str(v) for v in c.a])


def parse_coeffs_record(line: str, source: str) -> PolyCoeffs:
    fields = [f.strip() for f in line.split(",")]
    try:
        values = [int(f) for f in fields]
    except ValueError as exc:
        raise FormatError(f"bad coefficient record: {line!r}") from exc
    if len(values) < 2:
        raise FormatError(f"coefficient record too short: {line!r}")
    return PolyCoeffs(d=values[0], a=tuple(values[1:]), source=source)


def coeffs_table_text(coeffs: dict[int, PolyCoeffs]) -> str:
    """Aligned text table of coefficients, one row per m, one column per d."""
    ds = sorted(coeffs)
    m_max = max(2 * d for d in ds)
    header = ["m"] + [f"d={d}" for d in ds]
    rows = [header]
    for m in range(m_max + 1):
        row = [str(m)]
        for d in ds:
            row.append(str(coeffs[d].a[m]) if m <= 2 * d else "-")
        rows.append(row)
    widths = [max(len(r[c]) for r in rows) for c in range(len(header))]
    return "\n".join(
        "  ".join(cell.rjust(w) for cell, w in zip(r, widths)) for r in rows
    ) + "\n"


def load_coeffs(path=None) -> dict[int, PolyCoeffs]:
    """Read coefficient records; defaults to the bundled published table."""
    if path is None:
        text = (resources.files("cnotcayley") / "data" / BUNDLED_COEFFS).read_text()
        source = "published"
    else:
        with open(path, "r", encoding="ascii") as fh:
            try:
                text = fh.read()
            except UnicodeDecodeError as exc:
                raise FormatError(f"coefficient file is not ASCII: {exc}") from exc
        source = "file"
    out: dict[int, PolyCoeffs] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        rec = parse_coeffs_record(line, source)
        out[rec.d] = rec
    return out
