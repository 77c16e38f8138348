"""End-to-end benchmark of cnotcayley: explore, save/load, query,
classify and probe, on one workload per process.

    python3 bench/run.py --blas-threads 1 --workload ball-n6-d8 \
        --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Lines before it give every figure by name with its unit, the latency
tails with their sample counts, and a machine record.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import reference
from tracing import Tracer, layer_metrics, wrapped_call_cost

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
FAILED = object()


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    spec: str
    depth: int | None
    lengths: range          # word lengths of the queries, equally many each
    per_length: int
    probe: tuple[int, int]  # forward and backward depth
    extract: int | None     # d for which n = 2d
    passes: int             # passes over the query set in a Q step
    round: str              # Q queries, C classify, P probe, in this order

    @property
    def full(self) -> bool:
        return self.depth is None


# Equally many words of every length give every seed nearly the same mix
# of distances, so the latencies compare like with like across seeds.
# Query passes sit between the long operations, and the long operations
# of one kind are apart, so that the samples of each come from different
# moments of the run.
WORKLOADS = {w.name: w for w in (
    Workload("full-n5-ti", 5, "sym-ti", None, range(1, 10), 6, (8, 4), None, 4, "QCQPQC"),
    Workload("ball-n6-d8", 6, "sym", 8, range(1, 8), 6, (7, 5), 3, 3, "QCQPQC"),
    Workload("ball-n8-d5", 8, "sym", 5, range(1, 6), 2, (4, 2), 4, 2, "QCQPQCQP"),
)}

END_TO_END_UNITS = {
    "setup_s": "s", "explore_s": "s", "peak_rss_mb": "MB", "db_bytes": "B",
    "lookup_us": "us", "dist_ms": "ms", "synth_ms": "ms", "classify_s": "s",
    "probe_s": "s",
}


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import cnotcayley, cnotcayley.cli
from cnotcayley import gf2, isometry
t1 = time.perf_counter()
isometry.canonicalize(gf2.identity(int(sys.argv[2])), isometry.IsometrySpec(sys.argv[3]))
print(t1 - t0, time.perf_counter() - t1, flush=True)
"""


def setup_once(w: Workload) -> tuple[float, float, float]:
    """(process start to ready, import, tables) of one fresh process."""
    t0 = perf_counter()
    with subprocess.Popen([sys.executable, "-c", SETUP_CHILD, str(SRC), str(w.n), w.spec],
                          stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        ready = perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process exited with {proc.returncode}")
    import_s, tables_s = (float(v) for v in line.split())
    return ready, import_s, tables_s


def tail(values) -> str:
    """Mean, median and the highest percentile with ten samples beyond it."""
    n = len(values)
    text = f"mean {statistics.fmean(values):.4g}, median {statistics.median(values):.4g} (n={n})"
    for p in (99.9, 99, 90):
        if n * (100 - p) / 100 >= 10:
            q = statistics.quantiles(values, n=1000, method="inclusive")[round(p * 10) - 1]
            return text + f", p{p:g} {q:.4g}"
    return text


class Pipeline:
    """One workload's operations, counted, timed and checked."""

    def __init__(self, w: Workload, seed: int, seconds: int, tracer: Tracer | None):
        self.w, self.seed, self.seconds, self.tracer = w, seed, seconds, tracer
        self.checks = reference.Checker()
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.e2e: dict[str, float] = {}
        self.layers: dict[str, float] = {}
        self.setups: list[tuple[float, float, float]] = []
        self.repeated: dict[str, list[float]] = {
            "lookup_us": [], "dist_ms": [], "synth_ms": [], "classify_s": [], "probe_s": []}
        self.deadline = 0.0
        self.rounds = 0

    def phase(self, name: str):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def op(self, what: str, fn, *args, **kwargs):
        """Run one user operation; (result, seconds), result FAILED if it raised."""
        self.attempted += 1
        t0 = perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception:  # counted as failed and reported, the run goes on
            self.failed += 1
            self.errors.append(f"{what}: {traceback.format_exc()}")
            return FAILED, perf_counter() - t0
        return out, perf_counter() - t0

    def stage(self, what: str, fn, *args, **kwargs):
        """An operation the rest of the pipeline needs."""
        out, secs = self.op(what, fn, *args, **kwargs)
        if out is FAILED:
            raise RuntimeError(f"{what} failed:\n{self.errors[-1]}")
        return out, secs

    def setup(self) -> None:
        self.setups.append(self.stage("set-up", setup_once, self.w)[0])

    def run(self, db: Path) -> None:
        w, c = self.w, self.checks
        self.setup()
        queries = reference.make_queries(w.n, w.lengths, w.per_length, self.seed)

        sys.path.insert(0, str(SRC))
        import cnotcayley
        from cnotcayley import bfs, cli, essential, gf2, store
        from cnotcayley.isometry import IsometrySpec
        if Path(cnotcayley.__file__).resolve().parent != (SRC / "cnotcayley").resolve():
            raise RuntimeError(f"imported {cnotcayley.__file__}, not the checkout's src/")
        spec = IsometrySpec(w.spec)

        def matrix(rows):
            return gf2.BitMatrix(w.n, reference.pack(rows))

        if self.tracer:
            self.tracer.install()
        self.deadline = perf_counter() + self.seconds
        with self.phase("phase.explore"):
            res, self.e2e["explore_s"] = self.stage(
                "explore", bfs.isometry_bfs, w.n, spec,
                bfs.SearchLimits(max_depth=w.depth, threads=1))
        self.layers["rss.after_explore_mb"] = rss_mb()
        reference.check_spheres(c, w.n, w.depth, res.sphere_sizes, res.complete)
        stored = int(res.keys.size)

        with self.phase("phase.save"):
            self.stage("save", store.save, res, db)
        self.e2e["db_bytes"] = db.stat().st_size
        spheres = list(res.sphere_sizes)
        del res
        with self.phase("phase.load"):
            loaded, _ = self.stage("load", store.load, db)
        c.check(list(loaded.sphere_sizes) == spheres and loaded.keys.size == stored,
                "loaded database differs from the saved exploration")

        target = matrix(reference.long_cycle(w.n))
        fwd, bwd = w.probe

        def queries_once() -> None:
            for _ in range(w.passes):
                for q in queries:
                    self.query(q, db, loaded, matrix, bfs, cli, store)

        def classify_once() -> None:
            table, secs = self.stage("classify", essential.classify, loaded)
            if w.extract:
                coeffs, more = self.stage("extract", essential.extract_coeffs, table, w.extract)
                secs += more
                reference.check_coeffs(c, w.extract, coeffs.a)
            self.repeated["classify_s"].append(secs)
            reference.check_classes(c, w.n, spheres[:table.d_max + 1], table.cells)
            c.check(table.d_max == len(spheres) - 1, f"classified to depth {table.d_max}")

        def probe_once() -> None:
            outcome, secs = self.stage("probe", bfs.bidirectional_distance, w.n, target,
                                       spec, fwd, bwd, limits=bfs.SearchLimits(threads=1))
            self.repeated["probe_s"].append(secs)
            reference.check_probe(c, w.n, fwd, bwd, outcome.value, outcome.exact)
            if len(self.repeated["probe_s"]) == 1:
                # every operation has run once by now; the ones after it
                # raise the peak only by allocator fragmentation, and how
                # many of them run depends on the host's speed
                self.e2e["peak_rss_mb"] = self.layers["rss.after_probe_mb"] = rss_mb()

        steps = {"Q": ("phase.queries", queries_once), "C": ("phase.classify", classify_once),
                 "P": ("phase.probe", probe_once)}
        # Every run attempts whole rounds.  A round starts only if one as
        # long as the last still ends within --seconds of the start of
        # explore, so a run measures for at most that long (or one round).
        rounds, last = 0, 0.0
        while not rounds or perf_counter() + last <= self.deadline:
            t = perf_counter()
            self.setup()
            for step in w.round:
                name, once = steps[step]
                with self.phase(name):
                    once()
            rounds += 1
            last = perf_counter() - t
        self.setup()
        self.rounds = rounds

        if self.tracer:
            self.tracer.uninstall()
            self.layers.update(layer_metrics(self.tracer.spans, stored))
            self.layers["trace.spans"] = len(self.tracer.spans)
            self.layers["trace.overhead_s"] = len(self.tracer.spans) * wrapped_call_cost()
        self.e2e["setup_s"] = statistics.median(s[0] for s in self.setups)
        self.layers["setup.import_s"] = statistics.median(s[1] for s in self.setups)
        self.layers["setup.tables_s"] = statistics.median(s[2] for s in self.setups)
        # the mean follows the share of the run the host spent slow; the
        # median jumps between the fast and the slow value
        for name, values in self.repeated.items():
            self.e2e[name] = statistics.fmean(values)

    def query(self, q, db, loaded, matrix, bfs, cli, store) -> None:
        ds = []
        for rows in (q.rows, q.inverse, q.transpose) + ((q.neighbour,) if self.w.full else ()):
            d, secs = self.op("lookup", store.lookup, db, matrix(rows))
            self.repeated["lookup_us"].append(secs * 1e6)
            ds.append(d)

        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code, secs = self.op("dist", cli.run,
                                 ["dist", "--db", str(db), "--matrix", reference.text(q.rows)])
        self.repeated["dist_ms"].append(secs * 1e3)
        lines = out.getvalue().split()
        d_cli = int(lines[1]) if code == 0 and len(lines) == 2 and lines[1].isdigit() else FAILED
        if code is not FAILED and d_cli is FAILED:
            self.failed += 1
            self.errors.append(f"dist exited {code}: {out.getvalue()!r}")

        circuit, secs = self.op("synth", bfs.synthesize, loaded, matrix(q.rows))
        self.repeated["synth_ms"].append(secs * 1e3)

        if FAILED in (d_cli, circuit, *ds):
            return
        d_nb = ds[3] if self.w.full else None
        reference.check_query(self.checks, q, ds[0], ds[1], ds[2], d_nb, d_cli,
                              [(t.i, t.j) for t in circuit.gates])


def machine(blas_threads: int) -> dict:
    import numpy as np
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError):
        blas_name = "unknown"
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_name, "blas_threads": blas_threads, "program_threads": 1,
            "machine": platform.machine()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True,
                   help="time from the start of explore within which rounds of set-up, "
                        "queries, classify and probe must end (one round at least)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--blas-threads", type=int, default=1)
    args = p.parse_args(argv)
    nproc = len(os.sched_getaffinity(0))
    if not 1 <= args.blas_threads <= nproc:
        p.error(f"--blas-threads must be in 1..{nproc}")
    if args.seconds < 1:
        p.error("--seconds must be positive")
    if not (SRC / "cnotcayley" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'cnotcayley'}", file=sys.stderr)
        return 2
    # before numpy loads, here and in the set-up processes
    for var in BLAS_VARS:
        os.environ[var] = str(args.blas_threads)

    w = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    run = Pipeline(w, args.seed, args.seconds, tracer)
    OUT.mkdir(exist_ok=True)
    db = OUT / f"{w.name}-{os.getpid()}.db"
    try:
        run.run(db)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        db.unlink(missing_ok=True)
    for err in run.errors:
        print(f"failed operation: {err}", file=sys.stderr)
    for what in run.checks.failures:
        print(f"check failed: {what}", file=sys.stderr)

    for name, values in run.repeated.items():
        print(f"{name}: {tail(values)}")
    print(f"rounds: {run.rounds}")
    print(f"setup_s: {tail([s[0] for s in run.setups])}")
    e2e = {k: {"value": run.e2e[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    if tracer:
        spans = OUT / f"spans-{w.name}-seed{args.seed}.jsonl"
        tracer.dump(spans)
        print(f"spans written to {spans.relative_to(ROOT)}")
        for k, m in e2e.items():
            print(f"traced, not for comparison: {k} {m['value']:.6g} {m['unit']}")
        metrics = {k: {"value": v, "unit": unit(k)} for k, v in run.layers.items()}
    else:
        metrics = e2e
    for k, m in metrics.items():
        print(f"{k} {m['value']:.6g} {m['unit']}")
    print(f"{w.name}: {run.attempted} operations attempted, {run.failed} failed, "
          f"{run.checks.count} checks, {len(run.checks.failures)} failed")
    print(json.dumps({"machine": machine(args.blas_threads), "workload": w.name,
                      "seed": args.seed, "trace": args.trace}))
    print(json.dumps({"correct": run.checks.correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


def unit(metric: str) -> str:
    for suffix, u in (("_us_per_key", "us"), ("_mb", "MB"), ("_ms", "ms"),
                      ("_us", "us"), ("_s", "s"), ("_ratio", "1")):
        if metric.endswith(suffix):
            return u
    return "count"


if __name__ == "__main__":
    sys.exit(main())
