"""Command-line front door.

One verb per capability: explore, dist, synth, perm-check, classify,
poly-extract, poly-eval, diam-bound, n0-search, bidir, db-info.
Machine-readable output (CSV by default, JSON with --json) goes to
stdout; progress and human context go to stderr.  Exit status, for
every verb:

0  success;
1  usage error or bad input: options, matrix, permutation or
   coefficient text, a coefficient record the file lacks, an order out
   of range, an unreadable or corrupt database;
2  truncated or incomplete result: an exploration short of the whole
   group, a matrix beyond a database's horizon, a bidir lower bound,
   an n0-search range that never crosses;
3  internal consistency failure: non-canonical or mislabelled database
   keys, a perm-check row that disagrees with the conjecture.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import bounds, essential, gf2, permcheck, store
from .bfs import SearchLimits, bidirectional_distance, isometry_bfs, synthesize
from .errors import CnotCayleyError, ConsistencyError, HorizonError, MissingRecordError
from .isometry import IsometrySpec

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_TRUNCATED = 2
EXIT_INCONSISTENT = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _int_at_least(low: int):
    """An argparse ``type`` for integers >= ``low``."""
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return integer


_positive = _int_at_least(1)
_non_negative = _int_at_least(0)


def _add_common(p, db=False, matrix=False, threads=False, isometry=False,
                coeffs=False):
    if db:
        p.add_argument("--db", required=True, help="distance database path")
    if matrix:
        p.add_argument("--matrix", required=True,
                       help="rows of 0/1 joined by commas, e.g. 111,010,011")
    if threads:
        p.add_argument("--threads", type=_positive, default=1)
    if isometry:
        p.add_argument("--isometry", choices=["sym", "sym-ti"], default="sym")
    if coeffs:
        p.add_argument("--coeffs", default=None,
                       help="coefficient file (default: bundled published table)")
    p.add_argument("--json", action="store_true", help="JSON instead of CSV")


@functools.cache
def build_parser() -> _Parser:
    """The whole command-line parser, built once per process: building
    it costs a few milliseconds, far more than a parse."""
    p = _Parser(prog="cnotcayley",
                description="exact minimal CNOT circuits via the Cayley graph of GL(n,2)")
    sub = p.add_subparsers(dest="command", required=True)

    def verb(name, run, help):
        q = sub.add_parser(name, help=help)
        q.set_defaults(run=run)
        return q

    q = verb("explore", _cmd_explore, "run the reduced BFS and print the sphere table")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--max-depth", type=_positive, default=None)
    q.add_argument("--max-orbits", type=_positive, default=None)
    q.add_argument("--out", default=None, help="write a distance database here")
    _add_common(q, threads=True, isometry=True)

    q = verb("dist", _cmd_dist, "minimal CNOT count of a matrix")
    _add_common(q, db=True, matrix=True)

    q = verb("synth", _cmd_synth, "an optimal circuit for a matrix")
    _add_common(q, db=True, matrix=True)

    q = verb("perm-check", _cmd_perm_check, "permutation distances per cycle type")
    q.add_argument("--n", type=int, default=None)
    q.add_argument("--db", default=None)
    _add_common(q, threads=True)

    q = verb("classify", _cmd_classify, "orbit classes by essential-index count")
    _add_common(q, db=True)

    q = verb("poly-extract", _cmd_poly_extract, "sphere-polynomial coefficients from GL(2d,2)")
    q.add_argument("--d", type=_positive, required=True)
    q.add_argument("--db", default=None,
                   help="existing exploration of GL(2d,2); explored on the fly if absent")
    _add_common(q, threads=True, isometry=True)

    q = verb("poly-eval", _cmd_poly_eval, "evaluate a sphere polynomial")
    q.add_argument("--d", type=_positive, required=True)
    q.add_argument("--n", type=_non_negative, required=True)
    _add_common(q, coeffs=True)

    q = verb("diam-bound", _cmd_diam_bound, "diameter lower bound from sphere sizes")
    q.add_argument("--k", type=_positive, required=True)
    q.add_argument("--n", type=int, required=True)
    _add_common(q, coeffs=True)

    q = verb("n0-search", _cmd_n0_search, "smallest n with bound above 3(n-1)")
    q.add_argument("--k", type=_positive, required=True)
    q.add_argument("--n-min", type=int, default=None)
    q.add_argument("--n-max", type=int, required=True)
    _add_common(q, coeffs=True)

    q = verb("bidir", _cmd_bidir, "meet-in-the-middle distance probe")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--matrix", default=None)
    q.add_argument("--perm", default=None, help='cycle notation, e.g. "(1 2 3)(4 5)"')
    q.add_argument("--fwd", type=_positive, required=True)
    q.add_argument("--bwd", type=_positive, required=True)
    _add_common(q, threads=True, isometry=True)

    q = verb("db-info", _cmd_db_info, "header and sphere table of a database")
    _add_common(q, db=True)

    return p


def _emit(args, csv_text: str, payload: dict) -> None:
    if args.json:
        print(json.dumps(payload))
    else:
        sys.stdout.write(csv_text)


def _cmd_explore(args) -> int:
    limits = SearchLimits(max_depth=args.max_depth, max_orbits=args.max_orbits,
                          threads=args.threads)
    res = isometry_bfs(args.n, IsometrySpec(args.isometry), limits, log=sys.stderr)
    if args.out:
        store.save(res, args.out)
        print(f"database written to {args.out}", file=sys.stderr)
    _emit(args, store.sphere_table_csv(res), store.sphere_table_json(res))
    return EXIT_OK if res.complete else EXIT_TRUNCATED


def _cmd_dist(args) -> int:
    m = gf2.parse_matrix(args.matrix)
    d = store.lookup(args.db, m)
    _emit(args, f"distance\n{d}\n", {"distance": d})
    return EXIT_OK


def _cmd_synth(args) -> int:
    res = store.load(args.db)
    m = gf2.parse_matrix(args.matrix)
    circuit = synthesize(res, m)
    text = gf2.format_circuit(circuit)
    _emit(args, text + "\n",
          {"circuit": text, "gates": len(circuit), "distance": len(circuit)})
    return EXIT_OK


def _cmd_perm_check(args) -> int:
    if args.db:
        res = store.load(args.db)
    elif args.n is not None:
        res = isometry_bfs(args.n, limits=SearchLimits(threads=args.threads),
                           log=sys.stderr)
    else:
        raise _UsageError("perm-check needs --db or --n")
    rows = permcheck.verify_conjecture(res)
    payload = {"n": res.n, "rows": [
        {"cycle_type": str(r.cycle_type), "expected": r.expected,
         "measured": r.measured, "ok": r.ok} for r in rows]}
    _emit(args, permcheck.conjecture_report(rows), payload)
    return EXIT_OK if all(r.ok for r in rows) else EXIT_INCONSISTENT


def _cmd_classify(args) -> int:
    res = store.load(args.db)
    table = essential.classify(res)
    lines = ["d,m,elements"]
    for (d, m) in sorted(table.cells):
        lines.append(f"{d},{m},{table.cells[(d, m)]}")
    payload = {"n": table.n, "isometry": table.spec.value, "d_max": table.d_max,
               "cells": [{"d": d, "m": m, "elements": str(v)}
                         for (d, m), v in sorted(table.cells.items())]}
    _emit(args, "\n".join(lines) + "\n", payload)
    return EXIT_OK


def _cmd_poly_extract(args) -> int:
    if args.db:
        res = store.load(args.db)
    else:
        res = isometry_bfs(2 * args.d, IsometrySpec(args.isometry),
                           SearchLimits(max_depth=args.d, threads=args.threads),
                           log=sys.stderr)
    table = essential.classify(res)
    coeffs = essential.extract_coeffs(table, args.d)
    record = essential.format_coeffs_record(coeffs)
    _emit(args, record + "\n",
          {"d": coeffs.d, "a": [str(v) for v in coeffs.a]})
    return EXIT_OK


def _cmd_poly_eval(args) -> int:
    coeffs = essential.load_coeffs(args.coeffs)
    if args.d not in coeffs:
        raise MissingRecordError(f"no degree-{args.d} coefficient record")
    c = coeffs[args.d]
    value = essential.eval_poly(c, args.n)
    note = "certified" if c.valid_at(args.n) else "outside-certified-range"
    _emit(args, f"d,n,value,validity\n{args.d},{args.n},{value},{note}\n",
          {"d": args.d, "n": args.n, "value": str(value),
           "certified": c.valid_at(args.n)})
    return EXIT_OK


def _cmd_diam_bound(args) -> int:
    coeffs = essential.load_coeffs(args.coeffs)
    profile = bounds.SphereProfile.from_coeffs(coeffs, args.n, args.k)
    e = bounds.ell(profile)
    _emit(args, bounds.bounds_csv([(args.n, args.k, e)]),
          {"n": args.n, "k": args.k, "ell": e})
    return EXIT_OK


def _cmd_n0_search(args) -> int:
    coeffs = essential.load_coeffs(args.coeffs)
    n_min = args.n_min if args.n_min is not None else 2 * args.k
    if n_min > args.n_max:
        raise _UsageError(f"empty search range: n from {n_min} to {args.n_max}")
    n0 = bounds.n0_upper(args.k, coeffs, range(n_min, args.n_max + 1))
    if n0 is None:
        _emit(args, "n0\nnone\n", {"n0": None})
        return EXIT_TRUNCATED
    _emit(args, f"n0\n{n0}\n", {"n0": n0})
    return EXIT_OK


def _cmd_bidir(args) -> int:
    if (args.matrix is None) == (args.perm is None):
        raise _UsageError("bidir needs exactly one of --matrix or --perm")
    if args.matrix is not None:
        target = gf2.parse_matrix(args.matrix)
        if target.n != args.n:
            raise _UsageError(f"matrix order {target.n} does not match --n {args.n}")
    else:
        target = gf2.perm_matrix(gf2.parse_perm(args.perm, args.n))
    outcome = bidirectional_distance(
        args.n, target, IsometrySpec(args.isometry),
        fwd_depth=args.fwd, bwd_depth=args.bwd,
        limits=SearchLimits(threads=args.threads), log=sys.stderr)
    kind = "exact" if outcome.exact else "lower_bound"
    _emit(args, f"kind,value\n{kind},{outcome.value}\n",
          {"kind": kind, "value": outcome.value})
    return EXIT_OK if outcome.exact else EXIT_TRUNCATED


def _cmd_db_info(args) -> int:
    res = store.load(args.db)
    print(f"n={res.n} isometry={res.spec.value} complete={res.complete} "
          f"last_level_complete={res.last_level_complete} "
          f"orbits={res.keys.size} elements={res.total_elements()}",
          file=sys.stderr)
    _emit(args, store.sphere_table_csv(res), store.sphere_table_json(res))
    return EXIT_OK


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.run(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except HorizonError as exc:
        print(f"incomplete: {exc}", file=sys.stderr)
        return EXIT_TRUNCATED
    except ConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except (CnotCayleyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
