"""Spans around the package's public functions, recorded from outside.

``Tracer.install`` replaces each traced function, in every module that
binds it, with a wrapper that records (name, parent, start, end, keys).
Spans stay in memory until ``dump``.  The program runs with one
thread, so a single stack of open spans gives each span its parent.
``layer_metrics`` turns the spans into the per-layer figures.
"""

from __future__ import annotations

import functools
import json
import statistics
from contextlib import contextmanager
from time import perf_counter

CANON = ("isometry.canonicalize", "isometry.canonicalize_batch")


def _nkeys(keys, *_args, **_kwargs) -> int:
    return len(keys)


def _one(*_args, **_kwargs) -> int:
    return 1


class Tracer:
    def __init__(self) -> None:
        # [name, parent index or -1, start, end, keys]
        self.spans: list[list] = []
        self._open: list[int] = []
        self._patches: list[tuple] = []

    @contextmanager
    def span(self, name: str, keys: int = 0):
        idx = len(self.spans)
        rec = [name, self._open[-1] if self._open else -1, perf_counter(), 0.0, keys]
        self.spans.append(rec)
        self._open.append(idx)
        try:
            yield
        finally:
            rec[3] = perf_counter()
            self._open.pop()

    def wrap(self, fn, name: str, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, count(*args, **kwargs) if count else 0):
                return fn(*args, **kwargs)
        return traced

    def install(self) -> None:
        """Wrap the layer boundaries.  A function imported by name into
        another module is wrapped there too, since that is where the
        caller looks it up."""
        from cnotcayley import bfs, cli, essential, isometry, store

        targets = [
            ("isometry.canonicalize_batch", _nkeys,
             [(isometry, "canonicalize_batch"), (bfs, "canonicalize_batch"),
              (essential, "canonicalize_batch")]),
            ("isometry.canonicalize", _one,
             [(isometry, "canonicalize"), (bfs, "canonicalize"),
              (store, "canonicalize"), (essential, "canonicalize")]),
            ("isometry.transpose_inverse_keys", _nkeys,
             [(isometry, "transpose_inverse_keys")]),
            ("bfs.isometry_bfs", None, [(bfs, "isometry_bfs"), (cli, "isometry_bfs")]),
            ("bfs.bidirectional_distance", None,
             [(bfs, "bidirectional_distance"), (cli, "bidirectional_distance")]),
            ("bfs.synthesize", None, [(bfs, "synthesize"), (cli, "synthesize")]),
            ("store.save", None, [(store, "save")]),
            ("store.load", None, [(store, "load")]),
            ("store.lookup", None, [(store, "lookup")]),
            ("essential.classify", None, [(essential, "classify")]),
            ("essential.extract_coeffs", None, [(essential, "extract_coeffs")]),
            ("cli.run", None, [(cli, "run")]),
        ]
        for name, count, sites in targets:
            for module, attr in sites:
                fn = getattr(module, attr)
                self._patches.append((module, attr, fn))
                setattr(module, attr, self.wrap(fn, name, count))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patches):
            setattr(module, attr, fn)
        self._patches.clear()

    def dump(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for i, (name, parent, start, end, keys) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "parent": parent, "name": name,
                                     "start": start, "end": end, "keys": keys}) + "\n")


def wrapped_call_cost(calls: int = 20000) -> float:
    """Measured cost of one wrapped call over a bare one, in seconds."""
    def noop():
        return None
    wrapped = Tracer().wrap(noop, "noop")
    t0 = perf_counter()
    for _ in range(calls):
        noop()
    t1 = perf_counter()
    for _ in range(calls):
        wrapped()
    t2 = perf_counter()
    return max(0.0, (t2 - t1) - (t1 - t0)) / calls


class _Tree:
    def __init__(self, spans) -> None:
        self.spans = spans
        self.children: list[list[int]] = [[] for _ in spans]
        for i, s in enumerate(spans):
            if s[1] >= 0:
                self.children[s[1]].append(i)

    def dur(self, i: int) -> float:
        return self.spans[i][3] - self.spans[i][2]

    def named(self, name: str, parent_name: str | None = None) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s[0] == name and (
            parent_name is None or (s[1] >= 0 and self.spans[s[1]][0] == parent_name))]

    def canon_under(self, i: int, skip: tuple[str, ...] = ()) -> tuple[int, int, float]:
        """(calls, keys, seconds) of the outermost canonicalization spans
        below span i, not descending into spans named in ``skip``."""
        calls = keys = 0
        secs = 0.0
        stack = list(self.children[i])
        while stack:
            j = stack.pop()
            name = self.spans[j][0]
            if name in CANON:
                calls += 1
                keys += self.spans[j][4]
                secs += self.dur(j)
            elif name not in skip:
                stack.extend(self.children[j])
        return calls, keys, secs


def _mean(values, scale: float = 1.0) -> float:
    return statistics.fmean(values) * scale if values else 0.0


def layer_metrics(spans, stored_orbits: int) -> dict[str, float]:
    """Per-layer figures of one pipeline run, from its spans."""
    t = _Tree(spans)
    out: dict[str, float] = {}

    explore = t.named("bfs.isometry_bfs", "phase.explore")
    _, keys, secs = t.canon_under(explore[0])
    out["isometry.canon_keys"] = keys
    out["isometry.canon_s"] = secs
    out["isometry.canon_us_per_key"] = secs / keys * 1e6 if keys else 0.0
    ti = t.named("isometry.transpose_inverse_keys")
    out["isometry.ti_keys"] = sum(spans[i][4] for i in ti)
    out["isometry.ti_s"] = sum(t.dur(i) for i in ti)

    # every successor the loop generates is handed to canonicalize_batch once
    out["bfs.successors"] = keys
    out["bfs.new_orbits"] = stored_orbits - 1
    out["bfs.useful_ratio"] = (stored_orbits - 1) / keys if keys else 0.0
    out["bfs.self_s"] = t.dur(explore[0]) - secs

    probes = t.named("bfs.bidirectional_distance", "phase.probe")
    fwd = [j for i in probes for j in t.children[i] if spans[j][0] == "bfs.isometry_bfs"]
    bwd = [t.canon_under(i, skip=("bfs.isometry_bfs",)) for i in probes]
    out["bfs.probe_fwd_s"] = _mean([t.dur(j) for j in fwd])
    out["bfs.probe_bwd_keys"] = _mean([k for _, k, _ in bwd])
    out["bfs.probe_canon_s"] = _mean([s for _, _, s in bwd])

    synth = [t.canon_under(i) for i in t.named("bfs.synthesize", "phase.queries")]
    out["bfs.synth_canon_calls"] = _mean([c for c, _, _ in synth])
    out["bfs.synth_canon_s"] = _mean([s for _, _, s in synth])

    out["store.save_s"] = sum(t.dur(i) for i in t.named("store.save", "phase.save"))
    out["store.load_s"] = sum(t.dur(i) for i in t.named("store.load", "phase.load"))
    lookups = t.named("store.lookup", "phase.queries")
    canon = [t.canon_under(i)[2] for i in lookups]
    out["store.lookup_canon_us"] = _mean(canon, 1e6)
    out["store.lookup_seek_us"] = _mean([t.dur(i) - c for i, c in zip(lookups, canon)], 1e6)
    out["cli.dist_load_ms"] = _mean([t.dur(i) for i in t.named("store.load", "cli.run")], 1e3)

    classify = t.named("essential.classify", "phase.classify")
    out["essential.classify_canon_s"] = _mean([t.canon_under(i)[2] for i in classify])
    return out
