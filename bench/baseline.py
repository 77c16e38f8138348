"""Reference figures quoted in README.md: whole explorations under both
specs, steady-state canonicalization cost per key for n = 5..8, and
explore time with one worker thread against two.

    python3 bench/baseline.py [--blas-threads 1]

Prints one line per figure.  Not part of the gated benchmark.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from time import perf_counter

import reference
from run import BLAS_VARS, SRC

# keys per canonicalization batch: about a second of work per order
BATCH = {5: 50000, 6: 20000, 7: 3000, 8: 300}


def random_keys(n: int, count: int, rng: random.Random) -> list[int]:
    gates = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    return [reference.pack(reference.apply_word(
        reference.identity(n), [rng.choice(gates) for _ in range(4 * n * n)]))
        for _ in range(count)]


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--blas-threads", type=int, default=1)
    args = p.parse_args()
    for var in BLAS_VARS:
        os.environ[var] = str(args.blas_threads)
    sys.path.insert(0, str(SRC))
    import numpy as np
    from cnotcayley.bfs import SearchLimits, isometry_bfs
    from cnotcayley.isometry import IsometrySpec, canonicalize_batch

    for spec in IsometrySpec:
        t0 = perf_counter()
        res = isometry_bfs(5, spec)
        print(f"explore n=5 {spec.value}: {perf_counter() - t0:.2f} s, "
              f"{res.keys.size} orbits")

    rng = random.Random(1)
    for n, count in BATCH.items():
        keys = np.array(random_keys(n, count, rng), dtype=np.uint64)
        for spec in IsometrySpec:
            canonicalize_batch(keys[:2], n, spec)   # tables built outside the timing
            t0 = perf_counter()
            canonicalize_batch(keys, n, spec)
            us = (perf_counter() - t0) / count * 1e6
            print(f"canonicalize n={n} {spec.value}: {us:.1f} us/key ({count} keys)")

    for n, spec, depth in ((5, IsometrySpec.SYM, None), (6, IsometrySpec.SYM, 8)):
        for threads in (1, 2):
            t0 = perf_counter()
            isometry_bfs(n, spec, SearchLimits(max_depth=depth, threads=threads))
            print(f"explore n={n} {spec.value} depth={depth} threads={threads}: "
                  f"{perf_counter() - t0:.2f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
