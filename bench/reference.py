"""Data and arithmetic the benchmark checks the program against.

Nothing here imports the package under test.  The sphere sizes and the
sphere-polynomial coefficient records are published values, copied here
so that no check compares the program with its own output.  Matrices are tuples of row integers, bit j of row i
being entry (i, j), 0-indexed; a transvection (i, j), 1-indexed, adds
row j into row i, which is the CNOT with control j-1 and target i-1.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb

# Published sphere sizes |R_n(d)|, d = 0, 1, ...
SPHERES = {
    4: (1, 12, 96, 542, 2058, 5316, 7530, 4058, 541, 6),
    5: (1, 20, 260, 2570, 19680, 117860, 540470, 1769710, 3571175,
        3225310, 736540, 15740, 24),
    6: (1, 30, 570, 8415, 101610, 1026852, 8747890, 61978340, 355193925),
}

# Published binomial-basis records: f_d(n) = sum_m a[m] * C(n, m), exact
# for n >= 2d.
COEFFS = {
    1: (0, 0, 2),
    2: (0, 0, 2, 18, 12),
    3: (0, 0, 1, 48, 344, 360, 120),
    4: (0, 0, 0, 60, 1818, 9990, 13200, 7560, 1680),
}


def f(d: int, n: int) -> int:
    """The published sphere polynomial f_d at n (f_0 = 1)."""
    if d == 0:
        return 1
    return sum(a * comb(n, m) for m, a in enumerate(COEFFS[d]))


def group_order(n: int) -> int:
    out = 1
    for i in range(n):
        out *= (1 << n) - (1 << i)
    return out


def polynomial_spheres(n: int, depth: int | None) -> list[int]:
    """f_d(n) for every published record certified at n (n >= 2d)."""
    top = max(d for d in COEFFS if 2 * d <= n) if n >= 2 else 0
    if depth is not None:
        top = min(top, depth)
    return [f(d, n) for d in range(top + 1)]


# ---------------------------------------------------------------------------
# row-XOR arithmetic
# ---------------------------------------------------------------------------


def identity(n: int) -> tuple[int, ...]:
    return tuple(1 << i for i in range(n))


def apply_word(rows, word) -> tuple[int, ...]:
    """Apply the gates of ``word`` in order, each as a row addition."""
    rows = list(rows)
    for i, j in word:
        rows[i - 1] ^= rows[j - 1]
    return tuple(rows)


def pack(rows) -> int:
    """The package's key layout: entry (i, j) at bit i*n + j."""
    n = len(rows)
    return sum(r << (i * n) for i, r in enumerate(rows))


def text(rows) -> str:
    """The CLI matrix format: rows of 0/1 joined by commas, row 1 first."""
    n = len(rows)
    return ",".join("".join("1" if r >> j & 1 else "0" for j in range(n))
                    for r in rows)


def long_cycle(n: int) -> tuple[int, ...]:
    """Permutation matrix of the n-cycle sending index k to k+1 mod n."""
    rows = [0] * n
    for j in range(n):
        rows[(j + 1) % n] |= 1 << j
    return tuple(rows)


def lower_bound(rows) -> int:
    """Each gate changes exactly one row and one column, so at least as
    many gates as rows (or columns) that differ from the identity."""
    n = len(rows)
    diff = [r ^ (1 << i) for i, r in enumerate(rows)]
    cols = 0
    for r in diff:
        cols |= r
    return max(sum(1 for r in diff if r), bin(cols).count("1"))


# ---------------------------------------------------------------------------
# seeded queries
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Query:
    """A matrix built from a known word, with the matrices whose distance
    must equal or neighbour its own."""

    length: int
    rows: tuple[int, ...]
    inverse: tuple[int, ...]
    transpose: tuple[int, ...]
    neighbour: tuple[int, ...]
    low: int


def make_queries(n: int, lengths, per_length: int, seed: int) -> list[Query]:
    """``per_length`` random words of every length in ``lengths``, with no
    gate repeated back to back.  The same seed gives the same queries."""
    rng = random.Random(seed)
    gates = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    out = []
    for length in lengths:
        for _ in range(per_length):
            word: list[tuple[int, int]] = []
            while len(word) < length:
                g = rng.choice(gates)
                if not word or g != word[-1]:
                    word.append(g)
            rows = apply_word(identity(n), word)
            back = word[::-1]
            out.append(Query(
                length=length,
                rows=rows,
                inverse=apply_word(identity(n), back),
                transpose=apply_word(identity(n), [(j, i) for i, j in back]),
                neighbour=apply_word(rows, [rng.choice(gates)]),
                low=lower_bound(rows),
            ))
    return out


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


class Checker:
    """Collects failed checks; a run is correct when none failed."""

    def __init__(self) -> None:
        self.failures: list[str] = []
        self.count = 0

    def check(self, ok: bool, what: str) -> bool:
        self.count += 1
        if not ok:
            self.failures.append(what)
        return ok

    @property
    def correct(self) -> bool:
        return not self.failures


def check_spheres(c: Checker, n: int, depth: int | None, spheres, complete) -> None:
    got = [int(s) for s in spheres]
    poly = polynomial_spheres(n, depth)
    c.check(got[:len(poly)] == poly, f"sphere sizes {got[:len(poly)]} != f_d({n}) {poly}")
    if n in SPHERES:
        table = list(SPHERES[n][:None if depth is None else depth + 1])
        c.check(got[:len(table)] == table, f"sphere sizes {got} != published {table}")
    if depth is None:
        c.check(len(got) == len(SPHERES[n]), f"{len(got)} levels, published {len(SPHERES[n])}")
        c.check(sum(got) == group_order(n) and complete,
                f"full exploration covers {sum(got)} of {group_order(n)} elements")
    else:
        c.check(len(got) == depth + 1, f"{len(got)} levels for depth {depth}")


def check_classes(c: Checker, n: int, spheres, cells: dict) -> None:
    """Every class tally must add up to its sphere size."""
    for d, size in enumerate(spheres):
        total = sum(v for (dd, _), v in cells.items() if dd == d)
        c.check(total == int(size), f"classes at d={d} sum to {total}, sphere {size}")


def check_coeffs(c: Checker, d: int, a) -> None:
    c.check(tuple(int(v) for v in a) == COEFFS[d],
            f"re-extracted f_{d} record {tuple(a)} != published {COEFFS[d]}")


def check_query(c: Checker, q: Query, d, d_inv, d_t, d_nb, d_cli, circuit) -> None:
    """``circuit`` is a list of (i, j) gates in application order; d_nb is
    None when the neighbour may lie outside the explored ball."""
    c.check(q.low <= d <= q.length,
            f"distance {d} outside [{q.low}, {q.length}] for {text(q.rows)}")
    c.check(d_inv == d, f"d(m^-1) = {d_inv} != d(m) = {d} for {text(q.rows)}")
    c.check(d_t == d, f"d(m^T) = {d_t} != d(m) = {d} for {text(q.rows)}")
    if d_nb is not None:
        c.check(abs(d_nb - d) <= 1, f"neighbour at {d_nb} next to {d} for {text(q.rows)}")
    c.check(d_cli == d, f"dist printed {d_cli}, lookup gave {d} for {text(q.rows)}")
    c.check(len(circuit) == d, f"{len(circuit)}-gate circuit for distance {d}")
    c.check(apply_word(identity(len(q.rows)), circuit) == q.rows,
            f"circuit does not evaluate to {text(q.rows)}")


def expected_probe(n: int, fwd: int, bwd: int) -> tuple[int, bool]:
    """The n-cycle lies at 3(n-1) (one cycle): a probe whose horizons
    reach that far measures it exactly, else it certifies fwd+bwd+1."""
    dist = 3 * (n - 1)
    return (dist, True) if fwd + bwd >= dist else (fwd + bwd + 1, False)


def check_probe(c: Checker, n: int, fwd: int, bwd: int, value: int, exact: bool) -> None:
    want = expected_probe(n, fwd, bwd)
    c.check((value, exact) == want, f"probe gave {(value, exact)}, expected {want}")
