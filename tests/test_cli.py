"""The command-line surface: outputs, formats and exit codes."""

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import cnotcayley
from cnotcayley import cli
from cnotcayley.cli import build_parser, run


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def g3_db(tmp_path_factory):
    path = tmp_path_factory.mktemp("db") / "g3.db"
    assert run(["explore", "--n", "3", "--out", str(path)]) == 0
    return str(path)


def test_explore_sphere_table(capsys):
    code, out, _ = invoke(capsys, "explore", "--n", "3")
    assert code == 0
    assert out.splitlines() == [
        "d,orbits,elements",
        "0,1,1", "1,1,6", "2,5,24", "3,9,51", "4,12,60", "5,4,24", "6,1,2",
    ]


def test_explore_json(capsys):
    code, out, _ = invoke(capsys, "explore", "--n", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["sphere_sizes"] == ["1", "2", "2", "1"]
    assert payload["complete"] is True


def test_run_builds_the_parser_once(monkeypatch, capsys, g3_db):
    built = []
    init = cli._Parser.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting)
    cli.build_parser.cache_clear()
    code, out, _ = invoke(capsys, "dist", "--db", g3_db, "--matrix", "111,010,011",
                          "--json")
    assert code == 0 and json.loads(out) == {"distance": 2}
    assert built
    first = len(built)
    # the same parser answers again, and --json does not carry over
    code, out, _ = invoke(capsys, "dist", "--db", g3_db, "--matrix", "111,010,011")
    assert code == 0 and out == "distance\n2\n"
    assert len(built) == first


def test_explore_truncated_exit_code(capsys):
    code, out, _ = invoke(capsys, "explore", "--n", "4", "--max-depth", "2")
    assert code == 2


def test_explore_progress_on_stderr(capsys):
    _, out, err = invoke(capsys, "explore", "--n", "3")
    assert "level 1:" in err and "orbits=" in err
    # the successors of level 1 and those canonicalized: of the six
    # successors of its one key, one is the identity
    assert "level 2: orbits=5 elements=24 stored=7 successors=6 canonicalized=5 " in err
    assert "level" not in out


def test_explore_progress_counts_twins(capsys):
    # the level-1 key of GL(4,2) leaves two indices untouched, and they
    # are twins: the rule keeps 7 of its 12 generators
    _, _, err = invoke(capsys, "explore", "--n", "4", "--max-depth", "2")
    assert "level 2: orbits=6 elements=96 stored=8 successors=12 canonicalized=6 twins=5 " in err


def test_dist(capsys, g3_db):
    code, out, _ = invoke(capsys, "dist", "--db", g3_db,
                          "--matrix", "111,010,011")
    assert code == 0
    assert out == "distance\n2\n"


def test_dist_json(capsys, g3_db):
    code, out, _ = invoke(capsys, "dist", "--db", g3_db,
                          "--matrix", "111,010,011", "--json")
    assert code == 0
    assert json.loads(out) == {"distance": 2}


def test_dist_seeks_without_loading(capsys, g3_db, monkeypatch):
    from cnotcayley import store

    def no_load(path):
        raise AssertionError("dist must not load the whole database")

    monkeypatch.setattr(store, "load", no_load)
    code, out, _ = invoke(capsys, "dist", "--db", g3_db, "--matrix", "111,010,011")
    assert code == 0
    assert out == "distance\n2\n"


def test_dist_on_truncated_database(capsys, g3_db, tmp_path):
    bad = tmp_path / "bad.db"
    with open(g3_db, "rb") as fh:
        bad.write_bytes(fh.read()[:-5])
    code, _, err = invoke(capsys, "dist", "--db", str(bad), "--matrix", "111,010,011")
    assert code == 1
    assert "entry block" in err


def test_dist_beyond_horizon_exit(capsys, tmp_path):
    shallow = tmp_path / "shallow.db"
    assert run(["explore", "--n", "3", "--max-depth", "1",
                "--out", str(shallow)]) == 2
    code, _, err = invoke(capsys, "dist", "--db", str(shallow),
                          "--matrix", "111,010,011")
    assert code == 2
    assert "incomplete" in err


def test_synth_round_trip(capsys, g3_db):
    from cnotcayley import eval_circuit, parse_circuit, parse_matrix
    code, out, _ = invoke(capsys, "synth", "--db", g3_db,
                          "--matrix", "111,010,011")
    assert code == 0
    circuit = parse_circuit(out.strip(), 3)
    assert len(circuit.gates) == 2
    assert eval_circuit(circuit) == parse_matrix("111,010,011")


def test_perm_check(capsys):
    code, out, _ = invoke(capsys, "perm-check", "--n", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "cycle_type,expected,measured,status"
    assert "3,6,6,PASS" in lines
    assert "1+1+1,0,0,PASS" in lines


def test_perm_check_order_zero(capsys):
    # an explicit --n 0 is an out-of-range order, not a missing --n
    code, _, err = invoke(capsys, "perm-check", "--n", "0")
    assert code == 1
    assert "order must be in 1..8, got 0" in err
    assert "needs --db or --n" not in err


def test_classify(capsys, g3_db):
    code, out, _ = invoke(capsys, "classify", "--db", g3_db)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "d,m,elements"
    assert "1,2,6" in lines


def test_poly_extract(capsys):
    code, out, _ = invoke(capsys, "poly-extract", "--d", "2")
    assert code == 0
    assert out.strip() == "2,0,0,2,18,12"


def test_poly_eval(capsys):
    code, out, _ = invoke(capsys, "poly-eval", "--d", "3", "--n", "7")
    assert code == 0
    assert out.splitlines()[1] == "3,7,22141,certified"


@pytest.mark.parametrize("module", ["cnotcayley", "cnotcayley.cli"])
def test_python_m_runs_the_cli(module):
    src = str(Path(cnotcayley.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-m", module, "poly-eval", "--d", "3", "--n", "7"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "3,7,22141,certified"


def test_diam_bound(capsys):
    code, out, _ = invoke(capsys, "diam-bound", "--k", "10", "--n", "20")
    assert code == 0
    assert out == "n,k,ell\n20,10,58\n"


def test_n0_search(capsys):
    code, out, _ = invoke(capsys, "n0-search", "--k", "10", "--n-max", "40")
    assert code == 0
    assert out == "n0\n20\n"


def test_bidir_exact(capsys):
    code, out, _ = invoke(capsys, "bidir", "--n", "4", "--perm", "(1 2 3 4)",
                          "--fwd", "5", "--bwd", "4")
    assert code == 0
    assert out == "kind,value\nexact,9\n"


def test_bidir_lower_bound(capsys):
    code, out, _ = invoke(capsys, "bidir", "--n", "4", "--perm", "(1 2 3 4)",
                          "--fwd", "2", "--bwd", "2")
    assert code == 2
    assert out == "kind,value\nlower_bound,5\n"


def test_db_info(capsys, g3_db):
    code, out, err = invoke(capsys, "db-info", "--db", g3_db)
    assert code == 0
    assert out.splitlines()[0] == "d,orbits,elements"
    assert "n=3" in err and "orbits=33" in err


@pytest.mark.parametrize("argv, code, out, err", [
    (("perm-check",), 1, "", "usage error: perm-check needs --db or --n"),
    # for k = 1 no order up to 4 has ell_n(1) > 3(n-1): exit 2
    (("n0-search", "--k", "1", "--n-max", "4"), 2, "n0\nnone\n", ""),
    (("bidir", "--n", "3", "--matrix", "11,01", "--fwd", "1", "--bwd", "1"), 1, "",
     "usage error: matrix order 2 does not match --n 3"),
], ids=["perm-check-no-source", "n0-search-none", "bidir-matrix-order"])
def test_refusals_and_empty_answers(capsys, argv, code, out, err):
    got = invoke(capsys, *argv)
    assert got[:2] == (code, out)
    assert err in got[2] and "Traceback" not in got[2]


def test_usage_errors(capsys):
    assert invoke(capsys, "explore")[0] == 1              # missing --n
    assert invoke(capsys, "no-such-command")[0] == 1
    assert invoke(capsys, "bidir", "--n", "3", "--fwd", "1", "--bwd", "1")[0] == 1
    code, _, err = invoke(capsys, "dist", "--db", "/nonexistent.db",
                          "--matrix", "10,01")
    assert code == 1


@pytest.mark.parametrize("argv", [
    ("explore", "--n", "4", "--max-depth", "0"),
    ("explore", "--n", "4", "--max-depth", "two"),
    ("explore", "--n", "4", "--max-orbits", "-1"),
    ("explore", "--n", "4", "--threads", "0"),
    ("perm-check", "--n", "3", "--threads", "-2"),
    ("bidir", "--n", "3", "--perm", "(1 2)", "--fwd", "0", "--bwd", "1"),
    ("bidir", "--n", "3", "--perm", "(1 2)", "--fwd", "1", "--bwd", "0"),
    ("poly-extract", "--d", "0"),
    ("poly-eval", "--d", "0", "--n", "3"),
    ("poly-eval", "--d", "1", "--n", "-1"),
    ("diam-bound", "--k", "0", "--n", "20"),
    ("n0-search", "--k", "-1", "--n-max", "40"),
])
def test_bad_numbers_are_usage_errors(capsys, argv):
    code, _, err = invoke(capsys, *argv)
    assert code == 1
    assert "usage error: argument --" in err
    assert "Traceback" not in err


def test_unreadable_inputs_exit_1(capsys, g3_db, tmp_path):
    # a directory where a file belongs, a coefficient file that is not
    # text, one whose polynomial gives no sphere size, and one with
    # R(1) = 1, whose sphere product never grows
    binary = tmp_path / "binary.csv"
    binary.write_bytes(b"1,0,\xff,0\n")
    zero = tmp_path / "zero.csv"
    zero.write_text("1,0,0,0\n")
    flat = tmp_path / "flat.csv"
    flat.write_text("1,1,0,0\n")
    for argv in (("dist", "--db", str(tmp_path), "--matrix", "10,01"),
                 ("classify", "--db", str(tmp_path)),
                 ("poly-eval", "--d", "1", "--n", "3", "--coeffs", str(tmp_path)),
                 ("poly-eval", "--d", "1", "--n", "3", "--coeffs", str(binary)),
                 ("diam-bound", "--k", "1", "--n", "20", "--coeffs", str(zero)),
                 ("diam-bound", "--k", "1", "--n", "20", "--coeffs", str(flat))):
        code, _, err = invoke(capsys, *argv)
        assert code == 1
        assert err.startswith("error: ")


def test_value_errors_inside_commands_propagate(monkeypatch):
    # a ValueError from inside a command is a bug, not a usage error
    from cnotcayley import essential

    def broken(*args):
        raise ValueError("bug")

    monkeypatch.setattr(essential, "extract_coeffs", broken)
    with pytest.raises(ValueError, match="bug"):
        run(["poly-extract", "--d", "1"])


def test_classify_non_canonical_database(capsys, off_canonical, tmp_path):
    from cnotcayley import store
    path = tmp_path / "off.db"
    store.save(off_canonical, path)
    store.load(path)  # valid in every respect the loader checks
    code, _, err = invoke(capsys, "classify", "--db", str(path))
    assert code == 3
    assert "not canonical" in err


def test_classify_database_with_a_flipped_isometry_tag(capsys, tmp_path):
    path = tmp_path / "ti.db"
    assert run(["explore", "--n", "3", "--isometry", "sym-ti", "--out", str(path)]) == 0
    blob = bytearray(path.read_bytes())
    assert blob[11] == 1
    blob[11] = 0
    path.write_bytes(blob)
    capsys.readouterr()
    code, out, err = invoke(capsys, "classify", "--db", str(path))
    assert code == 3 and out == ""
    assert "sum to 15, the sphere table records 24" in err


def test_bad_matrix_text(capsys, g3_db):
    code, _, err = invoke(capsys, "dist", "--db", g3_db, "--matrix", "11,11")
    assert code == 1
    assert "singular" in err


def test_matrix_order_mismatch(capsys, g3_db):
    code, _, _ = invoke(capsys, "dist", "--db", g3_db, "--matrix", "10,01")
    assert code == 1


def test_explore_full_isometry(capsys):
    code, out, _ = invoke(capsys, "explore", "--n", "3", "--isometry", "sym-ti")
    assert code == 0
    lines = out.splitlines()
    # same spheres as the permutation-only run, fewer stored orbits
    assert [l.split(",")[2] for l in lines[1:]] == \
        ["1", "6", "24", "51", "60", "24", "2"]
    assert sum(int(l.split(",")[1]) for l in lines[1:]) == 19


def test_perm_check_from_db(capsys, g3_db):
    code, out, _ = invoke(capsys, "perm-check", "--db", g3_db)
    assert code == 0
    assert "3,6,6,PASS" in out.splitlines()


def test_bidir_matrix_target(capsys):
    code, out, _ = invoke(capsys, "bidir", "--n", "3",
                          "--matrix", "111,010,011", "--fwd", "1", "--bwd", "1")
    assert code == 0
    assert out == "kind,value\nexact,2\n"


def test_poly_extract_full_isometry(capsys):
    code, out, _ = invoke(capsys, "poly-extract", "--d", "2",
                          "--isometry", "sym-ti")
    assert code == 0
    assert out.strip() == "2,0,0,2,18,12"


# every verb on an input that succeeds and on one that fails, with the
# exit code the module docstring and the README document for it
EXIT_CODES = {
    "explore": (("--n", "3"), ("--n", "4", "--max-depth", "2"), 2),
    "dist": (("--db", "{db}", "--matrix", "111,010,011"),
             ("--db", "{shallow}", "--matrix", "111,010,011"), 2),
    "synth": (("--db", "{db}", "--matrix", "111,010,011"),
              ("--db", "{db}", "--matrix", "11,11"), 1),
    "perm-check": (("--n", "3"), ("--n", "9"), 1),
    "classify": (("--db", "{db}"), ("--db", "{off}"), 3),
    "poly-extract": (("--d", "2"), ("--d", "2", "--db", "{db}"), 1),
    "poly-eval": (("--d", "3", "--n", "7"), ("--d", "11", "--n", "30"), 1),
    "diam-bound": (("--k", "10", "--n", "20"), ("--k", "11", "--n", "30"), 1),
    "n0-search": (("--k", "10", "--n-max", "40"),
                  ("--k", "1", "--n-min", "5", "--n-max", "3"), 1),
    "bidir": (("--n", "4", "--perm", "(1 2 3 4)", "--fwd", "5", "--bwd", "4"),
              ("--n", "4", "--perm", "(1 2 3 4)", "--fwd", "2", "--bwd", "2"), 2),
    "db-info": (("--db", "{db}"), ("--db", "{short}"), 1),
}


@pytest.fixture(scope="module")
def verb_files(g3_db, off_canonical, tmp_path_factory):
    from cnotcayley import store
    root = tmp_path_factory.mktemp("verbs")
    shallow, off, short = root / "shallow.db", root / "off.db", root / "short.db"
    assert run(["explore", "--n", "3", "--max-depth", "1", "--out", str(shallow)]) == 2
    store.save(off_canonical, off)
    short.write_bytes(Path(g3_db).read_bytes()[:-5])
    return {"db": g3_db, "shallow": str(shallow), "off": str(off), "short": str(short)}


def test_every_verb_is_in_the_exit_code_table():
    verbs, = [a.choices for a in build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    assert sorted(EXIT_CODES) == sorted(verbs)
    # the module docstring lists the same verbs
    listed = re.search(r"One verb per capability:(.*?)\.\n", cli.__doc__, re.S).group(1)
    assert sorted(v.strip() for v in listed.split(",")) == sorted(verbs)


@pytest.mark.parametrize("verb", sorted(EXIT_CODES))
def test_exit_codes(capsys, verb_files, verb):
    good, bad, code = EXIT_CODES[verb]
    for argv, want in ((good, 0), (bad, code)):
        got, _, err = invoke(capsys, verb, *(a.format(**verb_files) for a in argv))
        assert got == want, (argv, err)
        assert "Traceback" not in err
