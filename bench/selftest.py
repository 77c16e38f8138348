"""Shows that the benchmark's checks catch wrong answers.

    python3 bench/selftest.py

Runs the benchmark pipeline on all of GL(4,2) once as is, which must
pass every check, and then once per corruption: each replaces one of
the program's answers with a wrong one, and the run must then report
the matching check as failed.  Exits 0 when every corruption is caught.
"""

from __future__ import annotations

import dataclasses
import os
import sys

from run import BLAS_VARS, OUT, SRC, Pipeline, Workload

SELF = Workload("self-n4", 4, "sym", None, range(1, 6), 2, (5, 4), 2, 1, "QCP")


def corruptions():
    """(name, expected failure text, patch installer) triples."""
    from cnotcayley import bfs, cli, essential, store

    def lookup(orig):
        return lambda src, m: orig(src, m) + 1

    def synth(orig):
        def wrong(res, m):
            c = orig(res, m)
            return dataclasses.replace(c, gates=c.gates[:-1])
        return wrong

    def dist(orig):
        return lambda res, m: orig(res, m) + 1

    def explore(orig):
        def wrong(*args, **kwargs):
            res = orig(*args, **kwargs)
            res.sphere_sizes[3] += 1
            return res
        return wrong

    def extract(orig):
        def wrong(table, d):
            c = orig(table, d)
            return dataclasses.replace(c, a=c.a[:-1] + (c.a[-1] + 1,))
        return wrong

    def probe(orig):
        def wrong(*args, **kwargs):
            out = orig(*args, **kwargs)
            return dataclasses.replace(out, value=out.value - 1)
        return wrong

    def asymmetric(orig):
        # entry (1,2) moves to (2,1) under transposition
        return lambda src, m: orig(src, m) + (m.bits >> 1 & 1)

    return [
        ("lookup", "outside", store, "lookup", lookup),
        ("synth", "-gate circuit", bfs, "synthesize", synth),
        ("dist", "dist printed", cli, "distance_of", dist),
        ("spheres", "sphere sizes", bfs, "isometry_bfs", explore),
        ("coeffs", "re-extracted", essential, "extract_coeffs", extract),
        ("probe", "probe gave", bfs, "bidirectional_distance", probe),
        ("asymmetric", "d(m^", store, "lookup", asymmetric),
    ]


def attempt() -> Pipeline:
    p = Pipeline(SELF, seed=1, seconds=0, tracer=None)
    db = OUT / f"selftest-{SELF.name}.db"
    try:
        p.run(db)
    finally:
        db.unlink(missing_ok=True)
    return p


def main() -> int:
    OUT.mkdir(exist_ok=True)
    sys.path.insert(0, str(SRC))
    ok = True
    clean = attempt()
    print(f"clean: {clean.checks.count} checks, {len(clean.checks.failures)} failed, "
          f"{clean.failed} of {clean.attempted} operations failed")
    ok &= clean.checks.correct and clean.failed == 0
    for name, text, module, attr, make in corruptions():
        orig = getattr(module, attr)
        setattr(module, attr, make(orig))
        try:
            p = attempt()
        finally:
            setattr(module, attr, orig)
        hits = [f for f in p.checks.failures if text in f]
        print(f"{name}: {'caught' if hits else 'MISSED'}"
              + (f" ({len(hits)}x, e.g. {hits[0]})" if hits else ""))
        ok &= bool(hits)
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    for var in BLAS_VARS:
        os.environ.setdefault(var, "1")
    sys.exit(main())
