"""Bit-packed linear algebra over F2 for matrix orders up to 8.

A matrix M of order n is stored in a single integer: entry M[i,j]
(1-indexed, row i, column j) sits at bit (i-1)*n + (j-1).  Row i is the
n-bit slice starting at bit (i-1)*n, with column 1 in the least
significant position.  The packed value doubles as the key format of
the on-disk distance database, so this layout is a format contract.

Left multiplication by the transvection T[i,j] = I + D[i,j] adds row j
of the operand to row i; acting on a register state it is the CNOT gate
with control j and target i.  The CLI text format "CNOT c d" labels
qubits q0..q(n-1) (qubit qk is row k+1) and denotes control c, target
d, i.e. T[d+1, c+1].

Everything in this module is a pure function over immutable values.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random

from .errors import (
    ConsistencyError,
    DimensionError,
    FormatError,
    OrderError,
    SingularError,
)

MAX_ORDER = 8


def _check_order(n: int) -> None:
    if not 1 <= n <= MAX_ORDER:
        raise OrderError(f"matrix order must be in 1..{MAX_ORDER}, got {n}")


@dataclass(frozen=True, slots=True)
class BitMatrix:
    """An order-n matrix over F2, packed row-major into one integer.

    Direct construction is the unchecked raw path used by parsers and
    the degenerate order-0 value; it only validates the bit range.  All
    other constructors in this module produce invertible matrices.
    """

    n: int
    bits: int

    def __post_init__(self) -> None:
        if not 0 <= self.n <= MAX_ORDER:
            raise OrderError(f"matrix order must be in 0..{MAX_ORDER}, got {self.n}")
        if not 0 <= self.bits < (1 << (self.n * self.n)):
            raise FormatError("packed bits outside the n*n range")

    def get(self, i: int, j: int) -> int:
        return (self.bits >> ((i - 1) * self.n + (j - 1))) & 1

    def row_int(self, i: int) -> int:
        """Row i as an n-bit integer, column 1 in the low bit."""
        return (self.bits >> ((i - 1) * self.n)) & ((1 << self.n) - 1)

    def rows(self) -> list[list[int]]:
        return [[self.get(i, j) for j in range(1, self.n + 1)]
                for i in range(1, self.n + 1)]

    def is_invertible(self) -> bool:
        try:
            invert_bits(self.bits, self.n)
        except SingularError:
            return False
        return True


@dataclass(frozen=True, slots=True, order=True)
class Transvection:
    """T[i,j] = I + D[i,j]: adds row j to row i (CNOT control j, target i)."""

    i: int
    j: int

    def __post_init__(self) -> None:
        if self.i == self.j or self.i < 1 or self.j < 1:
            raise FormatError(f"transvection needs two distinct indices >= 1, got ({self.i},{self.j})")


@dataclass(frozen=True, slots=True)
class Permutation:
    """A bijection on {1..n}; images[k] = sigma(k+1)."""

    n: int
    images: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.images) != self.n or sorted(self.images) != list(range(1, self.n + 1)):
            raise FormatError(f"not a permutation of 1..{self.n}: {self.images}")

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for k, v in enumerate(self.images):
            inv[v - 1] = k + 1
        return Permutation(self.n, tuple(inv))

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(n, tuple(range(1, n + 1)))

    @classmethod
    def from_cycles(cls, n: int, cycles) -> "Permutation":
        images = list(range(1, n + 1))
        seen: set[int] = set()
        for cyc in cycles:
            for a in cyc:
                if not 1 <= a <= n:
                    raise FormatError(f"cycle entry {a} outside 1..{n}")
                if a in seen:
                    raise FormatError(f"index {a} appears in two cycles")
                seen.add(a)
            for k, a in enumerate(cyc):
                images[a - 1] = cyc[(k + 1) % len(cyc)]
        return cls(n, tuple(images))

    def cycles(self) -> list[tuple[int, ...]]:
        """Disjoint cycles including fixed points, each starting at its
        minimum element, listed in increasing order of that minimum."""
        out = []
        seen = [False] * self.n
        for start in range(1, self.n + 1):
            if seen[start - 1]:
                continue
            cyc = [start]
            seen[start - 1] = True
            nxt = self(start)
            while nxt != start:
                cyc.append(nxt)
                seen[nxt - 1] = True
                nxt = self(nxt)
            out.append(tuple(cyc))
        return out


@dataclass(frozen=True, slots=True)
class Circuit:
    """A word over the transvection generators; gates[0] is applied first."""

    n: int
    gates: tuple[Transvection, ...]

    def __post_init__(self) -> None:
        for t in self.gates:
            if t.i > self.n or t.j > self.n:
                raise FormatError(f"gate ({t.i},{t.j}) does not fit order {self.n}")

    def __len__(self) -> int:
        return len(self.gates)

    def reversed(self) -> "Circuit":
        return Circuit(self.n, tuple(reversed(self.gates)))


# ---------------------------------------------------------------------------
# bit-level helpers (also used by the vectorised layers)
# ---------------------------------------------------------------------------


def invert_bits(bits: int, n: int) -> int:
    """Gauss-Jordan over F2; pivot = leftmost column, topmost available row."""
    mask = (1 << n) - 1
    rows = [(bits >> (k * n)) & mask for k in range(n)]
    inv = [1 << k for k in range(n)]
    for col in range(n):
        piv = None
        for k in range(col, n):
            if (rows[k] >> col) & 1:
                piv = k
                break
        if piv is None:
            raise SingularError("matrix is singular over F2")
        rows[col], rows[piv] = rows[piv], rows[col]
        inv[col], inv[piv] = inv[piv], inv[col]
        for k in range(n):
            if k != col and (rows[k] >> col) & 1:
                rows[k] ^= rows[col]
                inv[k] ^= inv[col]
    out = 0
    for k in range(n):
        out |= inv[k] << (k * n)
    return out


def transpose_bits(bits: int, n: int) -> int:
    out = 0
    b = bits
    while b:
        low = b & -b
        pos = low.bit_length() - 1
        i0, j0 = divmod(pos, n)
        out |= 1 << (j0 * n + i0)
        b ^= low
    return out


def transpose_inverse_bits(bits: int, n: int) -> int:
    return invert_bits(transpose_bits(bits, n), n)


def _col_offdiag_mask(n: int, j0: int) -> int:
    m = 0
    for k in range(n):
        if k != j0:
            m |= 1 << (k * n + j0)
    return m


def _diag_mask(n: int) -> int:
    m = 0
    for k in range(n):
        m |= 1 << (k * n + k)
    return m


# ---------------------------------------------------------------------------
# constructors and arithmetic
# ---------------------------------------------------------------------------


def identity(n: int) -> BitMatrix:
    _check_order(n)
    return BitMatrix(n, _diag_mask(n))


def transvection_matrix(t: Transvection, n: int) -> BitMatrix:
    _check_order(n)
    if t.i > n or t.j > n:
        raise DimensionError(f"transvection ({t.i},{t.j}) does not fit order {n}")
    return BitMatrix(n, _diag_mask(n) | (1 << ((t.i - 1) * n + (t.j - 1))))


def all_transvections(n: int) -> tuple[Transvection, ...]:
    """The generating set, in (i, j) lexicographic order."""
    return tuple(Transvection(i, j)
                 for i in range(1, n + 1) for j in range(1, n + 1) if i != j)


def multiply(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    if a.n != b.n:
        raise DimensionError(f"order mismatch: {a.n} vs {b.n}")
    n = a.n
    mask = (1 << n) - 1
    out = 0
    for i in range(n):
        arow = (a.bits >> (i * n)) & mask
        acc = 0
        while arow:
            low = arow & -arow
            k = low.bit_length() - 1
            acc ^= (b.bits >> (k * n)) & mask
            arow ^= low
        out |= acc << (i * n)
    return BitMatrix(n, out)


def apply_transvection(t: Transvection, m: BitMatrix) -> BitMatrix:
    """T[i,j] * M as one shift/mask/xor: row j of M xored into row i."""
    n = m.n
    if t.i > n or t.j > n:
        raise DimensionError(f"transvection ({t.i},{t.j}) does not fit order {n}")
    row_j = (m.bits >> ((t.j - 1) * n)) & ((1 << n) - 1)
    return BitMatrix(n, m.bits ^ (row_j << ((t.i - 1) * n)))


def transpose(m: BitMatrix) -> BitMatrix:
    return BitMatrix(m.n, transpose_bits(m.bits, m.n))


def invert(m: BitMatrix) -> BitMatrix:
    return BitMatrix(m.n, invert_bits(m.bits, m.n))


def transpose_inverse(m: BitMatrix) -> BitMatrix:
    """M -> (M^T)^-1, an involutive automorphism; on generators it swaps
    the two indices of every transvection."""
    return BitMatrix(m.n, transpose_inverse_bits(m.bits, m.n))


def conjugate_by_perm(sigma: Permutation, m: BitMatrix) -> BitMatrix:
    """P_sigma * M * P_sigma^-1, computed entrywise: the (a,b) entry of M
    moves to (sigma(a), sigma(b))."""
    n = m.n
    if sigma.n != n:
        raise DimensionError(f"permutation degree {sigma.n} vs order {n}")
    out = 0
    b = m.bits
    while b:
        low = b & -b
        pos = low.bit_length() - 1
        i0, j0 = divmod(pos, n)
        out |= 1 << ((sigma(i0 + 1) - 1) * n + (sigma(j0 + 1) - 1))
        b ^= low
    return BitMatrix(n, out)


def eval_circuit(c: Circuit) -> BitMatrix:
    m = identity(c.n) if c.n else BitMatrix(0, 0)
    for t in c.gates:
        m = apply_transvection(t, m)
    return m


def cycle_count(sigma: Permutation) -> int:
    """Number of disjoint cycles, fixed points included."""
    return len(sigma.cycles())


def perm_matrix(sigma: Permutation) -> BitMatrix:
    n = sigma.n
    out = 0
    for j in range(1, n + 1):
        out |= 1 << ((sigma(j) - 1) * n + (j - 1))
    return BitMatrix(n, out)


# ---------------------------------------------------------------------------
# essential indices and embeddings
# ---------------------------------------------------------------------------


def essential_indices(m: BitMatrix) -> frozenset[int]:
    """Indices i with an off-diagonal 1 in row i or column i.

    For invertible matrices this is exactly the set of indices where M
    differs from the identity pattern.
    """
    n = m.n
    ess = []
    for i in range(1, n + 1):
        row_off = m.row_int(i) & ~(1 << (i - 1))
        if row_off or (m.bits & _col_offdiag_mask(n, i - 1)):
            ess.append(i)
    return frozenset(ess)


def embed(m: BitMatrix, order: int) -> BitMatrix:
    """block-diag(M, I): places M in the top-left corner of I_order."""
    if not m.n <= order <= MAX_ORDER:
        raise OrderError(f"cannot embed order {m.n} into order {order}")
    out = 0
    for k in range(m.n):
        out |= m.row_int(k + 1) << (k * order)
    for k in range(m.n, order):
        out |= 1 << (k * order + k)
    return BitMatrix(order, out)


def compact_to_essential(m: BitMatrix) -> tuple[BitMatrix, Permutation]:
    """Shrink M to the order spanned by its essential indices.

    Returns (core, sigma) with embed(core, m.n) == conjugate_by_perm(sigma, m).
    sigma sends essential indices to 1..k preserving ascending order and
    non-essential indices to k+1..n, also ascending.  For M = I the core
    is the distinguished order-0 empty matrix.
    """
    n = m.n
    ess = sorted(essential_indices(m))
    non = [i for i in range(1, n + 1) if i not in set(ess)]
    images = [0] * n
    for new, old in enumerate(ess, start=1):
        images[old - 1] = new
    for new, old in enumerate(non, start=len(ess) + 1):
        images[old - 1] = new
    sigma = Permutation(n, tuple(images))
    conj = conjugate_by_perm(sigma, m)
    k = len(ess)
    core_bits = 0
    for r in range(k):
        core_bits |= ((conj.bits >> (r * n)) & ((1 << k) - 1)) << (r * k)
    core = BitMatrix(k, core_bits)
    if embed(core, n).bits != conj.bits:
        raise ConsistencyError("essential compaction did not reproduce the matrix")
    return core, sigma


# ---------------------------------------------------------------------------
# text formats
# ---------------------------------------------------------------------------


def parse_matrix(text: str) -> BitMatrix:
    """Rows of '0'/'1' joined by commas, row 1 first: "111,010,011"."""
    rows = [r.strip() for r in text.strip().split(",")]
    n = len(rows)
    if not 1 <= n <= MAX_ORDER:
        raise FormatError(f"matrix must have 1..{MAX_ORDER} rows, got {n}")
    bits = 0
    for r, row in enumerate(rows):
        if len(row) != n or set(row) - {"0", "1"}:
            raise FormatError(f"row {r+1} is not {n} binary digits: {row!r}")
        for c, ch in enumerate(row):
            if ch == "1":
                bits |= 1 << (r * n + c)
    m = BitMatrix(n, bits)
    if not m.is_invertible():
        raise SingularError(f"matrix {text!r} is singular over F2")
    return m


def format_matrix(m: BitMatrix) -> str:
    return ",".join("".join(str(m.get(i, j)) for j in range(1, m.n + 1))
                    for i in range(1, m.n + 1))


def parse_circuit(text: str, n: int) -> Circuit:
    """Semicolon-joined gates "CNOT c d" with 0-indexed qubit labels."""
    _check_order(n)
    gates = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        fields = part.split()
        if len(fields) != 3 or fields[0].upper() != "CNOT":
            raise FormatError(f"bad gate {part!r}, expected 'CNOT c d'")
        try:
            c, d = int(fields[1]), int(fields[2])
        except ValueError as exc:
            raise FormatError(f"bad gate arguments in {part!r}") from exc
        if not (0 <= c < n and 0 <= d < n) or c == d:
            raise FormatError(f"gate {part!r} out of range for {n} qubits")
        gates.append(Transvection(i=d + 1, j=c + 1))
    return Circuit(n, tuple(gates))


def format_circuit(c: Circuit) -> str:
    return "; ".join(f"CNOT {t.j - 1} {t.i - 1}" for t in c.gates)


def parse_perm(text: str, n: int) -> Permutation:
    """Cycle notation "(1 2 3)(4 5)"; unmentioned indices are fixed."""
    _check_order(n)
    text = text.strip()
    if text in ("", "()", "id"):
        return Permutation.identity(n)
    if not text.startswith("(") or not text.endswith(")"):
        raise FormatError(f"bad cycle notation: {text!r}")
    cycles = []
    for chunk in text[1:-1].split(")("):
        entries = chunk.replace(",", " ").split()
        try:
            cyc = tuple(int(e) for e in entries)
        except ValueError as exc:
            raise FormatError(f"bad cycle {chunk!r}") from exc
        if not cyc:
            raise FormatError("empty cycle")
        cycles.append(cyc)
    return Permutation.from_cycles(n, cycles)


def format_perm(sigma: Permutation) -> str:
    parts = [c for c in sigma.cycles() if len(c) > 1]
    if not parts:
        return "()"
    return "".join("(" + " ".join(str(a) for a in c) + ")" for c in parts)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def random_invertible(n: int, rng: Random) -> BitMatrix:
    """Uniformly random element of GL(n,2) by rejection sampling.

    The acceptance rate prod(1 - 2^-k) stays above 0.288 for every n.
    """
    _check_order(n)
    while True:
        m = BitMatrix(n, rng.getrandbits(n * n))
        if m.is_invertible():
            return m
