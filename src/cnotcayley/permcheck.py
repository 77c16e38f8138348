"""Distances of permutation matrices: the 3(n - cycles) construction,
its exactness check against explored distances, and the cycle-gluing
reduction to long cycles.

A transposition is three row additions; a cycle of length L is L-1
transpositions; so any permutation with p cycles has a circuit of
3(n-p) gates.  Whether that is optimal is checked per cycle type
(conjugation is an isometry and preserves cycle type, so one
representative per type suffices).  Gluing the p cycles into one long
cycle with p-1 transpositions shows the question collapses to long
cycles.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import gf2
from .bfs import ExplorationResult, distance_of
from .errors import HorizonError
from .gf2 import Circuit, Permutation, Transvection


@dataclass(frozen=True)
class CycleType:
    """Partition of n given by the cycle lengths, sorted descending."""

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(p < 1 for p in self.parts) or list(self.parts) != sorted(self.parts, reverse=True):
            raise ValueError(f"not a descending partition: {self.parts}")

    @classmethod
    def of(cls, sigma: Permutation) -> "CycleType":
        return cls(tuple(sorted((len(c) for c in sigma.cycles()), reverse=True)))

    @property
    def cycles(self) -> int:
        return len(self.parts)

    def __str__(self) -> str:
        return "+".join(str(p) for p in self.parts)


def partitions(n: int, cap: int | None = None):
    """Integer partitions of n in descending lexicographic order."""
    if n == 0:
        yield ()
        return
    cap = n if cap is None else cap
    for first in range(min(n, cap), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def cycle_type_reps(n: int) -> list[Permutation]:
    """One permutation per cycle type, in canonical block form: the parts
    act on consecutive index blocks."""
    if not 1 <= n <= gf2.MAX_ORDER:
        raise ValueError(f"order must be in 1..{gf2.MAX_ORDER}")
    reps = []
    for parts in partitions(n):
        cycles = []
        start = 1
        for p in parts:
            cycles.append(tuple(range(start, start + p)))
            start += p
        reps.append(Permutation.from_cycles(n, cycles))
    return reps


def transposition_circuit(i: int, j: int, n: int) -> Circuit:
    """Three gates realizing the swap of rows/qubits i and j."""
    return Circuit(n, (Transvection(i, j), Transvection(j, i), Transvection(i, j)))


def _cycle_transpositions(cycle: tuple[int, ...]) -> list[tuple[int, int]]:
    # (a1 .. aL) = (a1 a2)(a2 a3)...(a_{L-1} a_L) as a function composition,
    # so the matrix product runs left to right over this list
    return [(cycle[t], cycle[t + 1]) for t in range(len(cycle) - 1)]


def perm_circuit(sigma: Permutation) -> Circuit:
    """A circuit of exactly 3(n - c(sigma)) gates evaluating to P_sigma."""
    n = sigma.n
    gates: list[Transvection] = []
    # evaluation multiplies gates[-1] * ... * gates[0], so emit each
    # cycle's transposition blocks in reverse product order
    for cycle in sigma.cycles():
        for (i, j) in reversed(_cycle_transpositions(cycle)):
            gates.extend(transposition_circuit(i, j, n).gates)
    return Circuit(n, tuple(gates))


def glue_cycles(sigma: Permutation) -> tuple[Permutation, Circuit]:
    """Join all cycles of sigma into one long cycle tau.

    Returns (tau, glue) with eval(glue) * P_sigma = P_tau and exactly
    3(c(sigma) - 1) glue gates.  Deterministic: cycles are merged in
    increasing order of their minimum element, anchored at that minimum.
    """
    n = sigma.n
    cycles = sigma.cycles()  # each starts at its min, ordered by min
    merged = cycles[0]
    gates: list[Transvection] = []
    for nxt in cycles[1:]:
        # (a1 b1)(a1..ak)(b1..bl) = (a1..ak b1..bl)
        gates.extend(transposition_circuit(merged[0], nxt[0], n).gates)
        merged = merged + nxt
    tau = Permutation.from_cycles(n, [merged])
    return tau, Circuit(n, tuple(gates))


@dataclass(frozen=True)
class ConjectureRow:
    cycle_type: CycleType
    expected: int
    measured: int

    @property
    def ok(self) -> bool:
        return self.expected == self.measured


def verify_conjecture(res: ExplorationResult) -> list[ConjectureRow]:
    """Check distance(P_sigma) = 3(n - c(sigma)) for one representative
    per cycle type; needs a complete exploration."""
    if not res.complete:
        raise HorizonError("conjecture check needs a complete exploration")
    rows = []
    for sigma in cycle_type_reps(res.n):
        ct = CycleType.of(sigma)
        expected = 3 * (res.n - ct.cycles)
        measured = distance_of(res, gf2.perm_matrix(sigma))
        rows.append(ConjectureRow(ct, expected, measured))
    return rows


def conjecture_report(rows) -> str:
    out = ["cycle_type,expected,measured,status"]
    for r in rows:
        out.append(f"{r.cycle_type},{r.expected},{r.measured},"
                   f"{'PASS' if r.ok else 'FAIL'}")
    return "\n".join(out) + "\n"
