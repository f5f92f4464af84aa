import argparse
import ast
import contextlib
import functools
import hashlib
import io
import itertools
import json
import os
import pathlib
import random
import shlex
import subprocess
import sys
import time
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from parakat import cli, verify
from parakat.cli import _shared_parser, build_parser, main
from parakat.polys import Polynomial
from parakat.rperms import count_cnr, count_total
from parakat.rtuples import (
    CONSTRUCTION_KINDS,
    MAX_SIZE,
    CriticalList,
    RSubset,
    enumerate_critical_lists,
    enumerate_tuples,
)
from parakat.tableaux import Shape, enumerate_tableaux
from parakat.verify import SUITE_NAMES


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_core_example(capsys):
    code, out = run_cli(capsys, "core", "--n", "9", "--R", "3,8", "--tuple", "7,9,6,5,5,9,8,9,9")
    assert code == 0 and out == "(4,5,6;4,5,7,8,9;9)\n"


def test_map_psi_example(capsys):
    code, out = run_cli(capsys, "map", "psi", "--n", "9", "--R", "3,8", "--perm", "2,4,6,1,5,7,8,9,3")
    assert code == 0 and out == "(2,4,6;5,6,7,8,9;9)\n"


def test_count_cnr_example(capsys):
    code, out = run_cli(capsys, "count", "cnr", "--n", "4", "--R", "1,2,3")
    assert code == 0 and out == "14\n"


def test_count_default_r_is_empty(capsys):
    code, out = run_cli(capsys, "count", "cnr", "--n", "5")
    assert code == 0 and out == "1\n"


def test_count_total_refuses_n_below_one(capsys):
    for n in ("0", "-3"):
        code = main(["count", "total", "--n", n])
        captured = capsys.readouterr()
        assert code == 64 and captured.out == ""
        assert f"n must be positive, got {n}" in captured.err
    code, out = run_cli(capsys, "count", "total", "--n", "1")
    assert code == 0 and out == "1\n"


def test_count_ui_agrees_with_the_walk(capsys):
    # the closed form against the walk over every increasing upper tuple
    for n in range(1, 8):
        for k in range(n):
            for r in itertools.combinations(range(1, n), k):
                walked = sum(1 for _ in enumerate_tuples(n, r, "increasing"))
                argv = ["count", "ui", "--n", str(n), "--R", ",".join(map(str, r))]
                assert run_cli(capsys, *argv) == (0, f"{walked}\n")


def test_count_ui_costs_no_walk(capsys):
    # one carrel per position: the walk would yield all 12! tuples
    start = time.perf_counter()
    code, out = run_cli(capsys, "count", "ui", "--n", "12", "--R", ",".join(map(str, range(1, 12))))
    assert time.perf_counter() - start < 0.1
    assert code == 0 and out == "479001600\n"


def test_count_ui_past_the_digit_limit_is_a_usage_error(capsys):
    # 1559! has more digits than Python turns into a string by default
    for fmt in ("--text", "--json", "--csv"):
        code = main(["count", "ui", "--n", "1559", "--R", ",".join(map(str, range(1, 1559))), fmt])
        captured = capsys.readouterr()
        assert code == 64 and captured.out == ""
        assert captured.err.startswith("parakat: error: ") and "Traceback" not in captured.err
        assert f"more than {sys.get_int_max_str_digits()} digits" in captured.err
        assert "set_int_max_str_digits" not in captured.err


def test_critlist_json_round_trips_through_make(capsys):
    code, out = run_cli(
        capsys, "critlist", "--n", "9", "--R", "3,8", "--tuple", "2,7,5,8,6,6,9,9,9", "--json"
    )
    assert code == 0
    payload = out.strip()
    code, out = run_cli(capsys, "make", "--kind", "increasing", "--critlist", payload)
    assert code == 0 and out == "(2,4,5;4,5,6,8,9;9)\n"


def test_classify_text_and_json(capsys):
    code, out = run_cli(capsys, "classify", "--n", "9", "--R", "3,8", "--tuple", "2,4,6,4,5,6,7,9,9", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["gapless"] is True and report["shell"] is False


def test_perm_commands(capsys):
    code, out = run_cli(capsys, "perm", "avoiding", "--n", "9", "--R", "3,8", "--perm", "2,3,6,1,4,5,8,9,7")
    assert code == 0 and out == "true\n"
    code, out = run_cli(capsys, "perm", "lift", "--n", "9", "--R", "3,8", "--perm", "2,3,6,1,4,5,8,9,7")
    assert code == 0 and out == "2,3,6,5,4,1,8,9,7\n"
    code, out = run_cli(capsys, "perm", "lifts", "--n", "4", "--R", "2", "--perm", "2,4,1,3")
    assert code == 0 and out == "2,4,3,1\n"
    code, out = run_cli(capsys, "perm", "project", "--n", "4", "--R", "2", "--perm", "2,4,3,1")
    assert code == 0 and out == "(2,4;1,3)\n"


def test_tab_and_set_commands(capsys):
    code, out = run_cli(capsys, "tab", "key", "--n", "3", "--lambda", "2,1", "--perm", "3,1,2", "--json")
    assert code == 0
    assert json.loads(out) == {"lambda": [2, 1, 0], "n": 3, "columns": [[1, 3], [3]]}
    code, out = run_cli(capsys, "tab", "scan", "--n", "3", "--lambda", "2,1",
                        "--tab", json.dumps({"lambda": [2, 1, 0], "n": 3, "columns": [[1, 3], [2]]}))
    assert code == 0 and out == "2 2\n3\n"
    code, out = run_cli(capsys, "set", "demazure", "--n", "3", "--lambda", "2,1", "--perm", "3,1,2")
    assert code == 0 and out.startswith("5 tableaux\n")


def test_set_stream_ndjson(capsys):
    argv = ["set", "rowbound", "--n", "3", "--lambda", "1,1", "--tuple", "3,3,3"]
    code, out = run_cli(capsys, *argv, "--stream")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 3
    assert all(json.loads(line)["lambda"] == [1, 1, 0] for line in lines)
    # --stream is a format, so it excludes the other three
    for fmt in ("--json", "--csv", "--text"):
        for pair in ([fmt, "--stream"], ["--stream", fmt]):
            code, out, err = _captured(main, argv + pair)
            assert (code, out) == (64, ""), pair
            assert "not allowed with argument" in err and "Traceback" not in err


def test_a_closed_stdout_ends_quietly(monkeypatch):
    # 3.5 MB of NDJSON, well past a 64 KiB pipe buffer; the reader takes one line
    argv = ["set", "rowbound", "--n", "6", "--lambda", "5,4,3,2,1", "--tuple", "6,6,6,6,6,6", "--stream"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "parakat", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_src_env(),
    )
    assert json.loads(proc.stdout.readline())["n"] == 6
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait() == 0 and err == "", err
    # a failing suite keeps its exit code when its reader has gone
    monkeypatch.setattr(verify, "count_total", lambda n: -1)
    read_end, write_end = os.pipe()
    os.close(read_end)
    with open(write_end, "w") as closed:
        monkeypatch.setattr(sys, "stdout", closed)
        assert main(["verify", "counts", "--max-n", "2", "--poly-max-n", "0"]) == 2


def test_poly_commands(capsys):
    code, out = run_cli(capsys, "poly", "rowboundsum", "--n", "3", "--lambda", "1,1", "--tuple", "3,3,3")
    assert code == 0 and out == "x1*x2 + x1*x3 + x2*x3\n"
    code, out = run_cli(capsys, "poly", "dd", "--n", "3", "--lambda", "1,1", "--perm", "2,3,1", "--json")
    assert code == 0
    assert json.loads(out)["terms"] == [
        {"exp": [1, 1, 0], "coef": 1},
        {"exp": [1, 0, 1], "coef": 1},
        {"exp": [0, 1, 1], "coef": 1},
    ]
    code, out = run_cli(capsys, "poly", "compare", "--n", "3", "--lambda", "1,1",
                        "--tuple", "2,3,3", "--perm", "2,3,1")
    assert code == 0 and out == "poly_eq=true gf_identical=true\n"


def test_verify_command(capsys):
    code, out = run_cli(capsys, "verify", "tables", "--csv")
    assert code == 0 and out.startswith("tables,pass,")
    code, out = run_cli(capsys, "verify", "convexity", "--max-n", "3", "--json")
    assert code == 0
    (report,) = json.loads(out)
    assert report["verdict"] == "pass" and report["counterexamples"] == []


def test_failing_suite_exits_2(monkeypatch, capsys):
    from parakat import rperms

    monkeypatch.setattr(verify, "count_total", lambda n: rperms.count_total(n) + (n == 3))
    argv = ["verify", "counts", "--max-n", "3", "--poly-max-n", "0"]
    bad = {"by_avoidance_filter": 12, "by_transfer_matrix": 13, "family": "total_two_routes", "n": 3}
    code, out = run_cli(capsys, *argv, "--json")
    (report,) = json.loads(out)
    assert code == 2 and report["verdict"] == "fail" and report["counterexamples"] == [bad]
    code, out = run_cli(capsys, *argv, "--text")
    assert code == 2 and out.splitlines()[1:] == [
        "counterexamples (1 total):", "  " + json.dumps(bad, sort_keys=True)
    ]
    code, out = run_cli(capsys, *argv, "--csv")
    assert code == 2 and out.startswith("counts,fail,55,")


def test_usage_error_exit_64(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["core", "--n", "9"])  # missing --tuple
    assert exc.value.code == 64
    capsys.readouterr()
    # a word longer than n is refused, not cut to its first n entries
    code = main(["perm", "project", "--n", "3", "--R", "1", "--perm", "3,1,2,4"])
    captured = capsys.readouterr()
    assert code == 64 and captured.out == ""
    assert captured.err == "parakat: error: entries are not a permutation of [3]: (3, 1, 2, 4)\n"


def test_domain_error_exit_65(capsys):
    code = main(["core", "--n", "3", "--tuple", "1,1,1"])
    assert code == 65
    err = capsys.readouterr().err
    assert err.startswith("NotUpper")


def test_cap_error_exit_3(capsys, monkeypatch):
    monkeypatch.setenv("PARAKAT_CAP", "5")
    code = main(["set", "demazure", "--n", "4", "--lambda", "3,2,1", "--perm", "4,3,2,1"])
    assert code == 3
    assert capsys.readouterr().err.startswith("CapExceeded")
    # compare builds the tuple's sum before it reads the permutation
    monkeypatch.setenv("PARAKAT_CAP", "0")
    code = main(["poly", "compare", "--n", "3", "--lambda", "1,1", "--tuple", "3,3,3", "--perm", "q"])
    assert code == 3
    assert capsys.readouterr().err.startswith("CapExceeded")
    # the suites build under the same limit
    code = main(["verify", "accidental"])
    assert code == 3
    assert capsys.readouterr().err.startswith("CapExceeded")


def test_manifest_written_and_reproducible(tmp_path, monkeypatch, capsys):
    # a clock whose steps grow, so every verify run reports another wall time
    ticks = itertools.accumulate(itertools.count(1))
    monkeypatch.setattr(verify, "time", SimpleNamespace(perf_counter=lambda: next(ticks)))
    core = ["core", "--n", "9", "--R", "3,8", "--tuple", "7,9,6,5,5,9,8,9,9"]
    for argv in [core, *(["verify", "tables", fmt] for fmt in ("--text", "--csv", "--json"))]:
        m1 = tmp_path / "run1.json"
        m2 = tmp_path / "run2.json"
        assert main(argv + ["--manifest", str(m1)]) == 0
        out1 = capsys.readouterr().out
        assert main(argv + ["--manifest", str(m2)]) == 0
        out2 = capsys.readouterr().out
        a = json.loads(m1.read_text())
        b = json.loads(m2.read_text())
        assert a["output_sha256"] == b["output_sha256"], argv
        assert sorted(a) == ["command_line", "output_sha256", "version"] and a["version"]
        if argv is core:  # any other command checksums exactly what it prints
            assert a["output_sha256"] == hashlib.sha256(out1.removesuffix("\n").encode()).hexdigest()
        else:
            assert out1 != out2, argv


def test_csv_rendering(capsys):
    code, out = run_cli(capsys, "core", "--n", "3", "--R", "2", "--tuple", "3,3,3", "--csv")
    assert code == 0 and out == "2,3,3\n"
    code, out = run_cli(capsys, "critlist", "--n", "3", "--R", "2", "--tuple", "3,3,3", "--csv")
    assert code == 0 and out == "1,2,3\n2,3,3\n"


# Golden bytes: one argv per command and action, and more for each printed
# type (critical lists, lift words, avoidance both ways, compare's flags,
# counts), each run in every format its command takes.  A digest covers, per
# format, the exit code and the sha256 of stdout; for verify also the
# manifest's output_sha256, under a clock that steps by one per reading, so
# that stdout's wall times differ from the zeroed ones the manifest sums.
_CRITLIST = json.dumps({"carrels": [[[1, 2], [3, 5]], [[6, 6], [8, 9]], [[9, 9]]]})
_TAB21 = json.dumps({"lambda": [2, 1, 0], "n": 3, "columns": [[1, 3], [2]]})
_S21 = ["--n", "3", "--lambda", "2,1"]
_GOLDEN = [
    (["classify", "--n", "9", "--R", "3,8", "--tuple", "2,4,6,4,5,6,7,9,9"], "99b47cfec4b61c34"),
    (["classify", "--n", "3", "--tuple", "2,3,3"], "8f4e617d1911b07c"),
    (["critlist", "--n", "9", "--R", "3,8", "--tuple", "2,7,5,8,6,6,9,9,9"], "15169bbd5c63379b"),
    (["core", "--n", "9", "--R", "3,8", "--tuple", "7,9,6,5,5,9,8,9,9"], "5b0289fb49918d92"),
    (["make", "--kind", "increasing", "--critlist", _CRITLIST], "56dc8567cba3b0ae"),
    (["make", "--kind", "shell", "--critlist", _CRITLIST], "77293af5ad9acf0b"),
    (["make", "--kind", "gapless", "--critlist", _CRITLIST], "56dc8567cba3b0ae"),
    (["make", "--kind", "canopy", "--critlist", _CRITLIST], "77293af5ad9acf0b"),
    (["make", "--kind", "floor", "--critlist", _CRITLIST], "18ff0d984f702c85"),
    (["make", "--kind", "ceiling", "--critlist", _CRITLIST], "7987bdf082021c85"),
    (["map", "psi", "--n", "9", "--R", "3,8", "--perm", "2,4,6,1,5,7,8,9,3"], "15bf8002572713d9"),
    (["map", "pi", "--n", "4", "--R", "2", "--tuple", "2,4,3,4"], "8b4ee0d9aeeec5d9"),
    (["map", "floor", "--n", "9", "--R", "3,8", "--tuple", "3,4,6,4,5,6,8,9,9"],
     "4d567724ac568656"),
    (["map", "ceiling", "--n", "9", "--R", "3,8", "--tuple", "3,4,6,4,5,6,8,9,9"],
     "c57bd10b6342affd"),
    (["perm", "project", "--n", "4", "--R", "2", "--perm", "2,4,3,1"], "8b4ee0d9aeeec5d9"),
    (["perm", "lift", "--n", "9", "--R", "3,8", "--perm", "2,3,6,1,4,5,8,9,7"],
     "cd729d2a8dc7384f"),
    (["perm", "lifts", "--n", "4", "--R", "2", "--perm", "3,4,1,2"], "a009e29097a0469a"),
    (["perm", "lifts", "--n", "5", "--R", "1,3", "--perm", "2,4,5,1,3"], "96f541085f541c6d"),
    (["perm", "lifts", "--n", "1", "--perm", "1"], "de1ebaba64656386"),
    (["perm", "avoiding", "--n", "9", "--R", "3,8", "--perm", "2,3,6,1,4,5,8,9,7"],
     "0731ff69d4ed5e83"),
    (["perm", "avoiding", "--n", "3", "--R", "1,2", "--perm", "3,1,2"], "92d504f8776098a5"),
    (["tab", "key", *_S21, "--perm", "3,1,2"], "95c7d6baaeba3929"),
    (["tab", "rowendmax", *_S21, "--tuple", "2,3,3"], "c7347dacc2620520"),
    (["tab", "rowboundmax", *_S21, "--tuple", "3,3,3"], "e0880f16459b97be"),
    (["tab", "scan", *_S21, "--tab", _TAB21], "c7347dacc2620520"),
    (["set", "rowbound", *_S21, "--tuple", "2,3,3"], "d98c7d877a00ae42"),
    (["set", "demazure", "--n", "4", "--lambda", "3,2,1", "--perm", "4,2,3,1"],
     "c268c42f3579c217"),
    (["set", "ideal", *_S21, "--tab", _TAB21], "4981b9cf5b65e7a0"),
    (["set", "z", *_S21, "--tuple", "3,3,3"], "fe7072f4c02d5036"),
    (["poly", "rowboundsum", "--n", "4", "--lambda", "2,1", "--tuple", "3,4,4,4"],
     "d677d0eaec427c34"),
    (["poly", "demazure", "--n", "4", "--lambda", "3,2,1", "--perm", "4,2,3,1"],
     "2dd9c0df6341b9cb"),
    (["poly", "dd", "--n", "4", "--lambda", "3,1,1", "--perm", "2,3,4,1"], "5a15e62408ce2801"),
    (["poly", "compare", "--n", "3", "--lambda", "1,1", "--tuple", "2,3,3", "--perm", "2,3,1"],
     "4f54a5f1e91bab91"),
    (["poly", "compare", *_S21, "--tuple", "2,3,3", "--perm", "1,3,2"], "7cf396b042ba531e"),
    (["count", "cnr", "--n", "6", "--R", "2,4"], "f39671c77a604711"),
    (["count", "total", "--n", "5"], "f734cbf1b67bec9c"),
    (["count", "ui", "--n", "4", "--R", "2"], "c8a79042d7f481cc"),
    (["verify", "all"], "ca8245cf14352bcd"),
]


def _golden_digest(argv, tmp_path) -> str:
    formats = ["--json", "--csv", "--text"] + ["--stream"] * (argv[0] == "set")
    records = []
    for fmt in formats:
        manifest = tmp_path / "golden.json"
        extra = ["--manifest", str(manifest)] if argv[0] == "verify" else []
        with mock.patch.object(verify, "time", SimpleNamespace(perf_counter=itertools.count().__next__)):
            code, out, _ = _captured(main, [*argv, fmt, *extra])
        records.append(f"{fmt} {code} {hashlib.sha256(out.encode()).hexdigest()}")
        if extra:
            records.append(json.loads(manifest.read_text())["output_sha256"])
    return hashlib.sha256("\n".join(records).encode()).hexdigest()[:16]


@pytest.mark.parametrize("argv, digest", _GOLDEN, ids=[" ".join(argv[:2]) for argv, _ in _GOLDEN])
def test_every_printed_byte_is_pinned(tmp_path, argv, digest):
    assert _golden_digest(argv, tmp_path) == digest


# the description block of the top-level help at 80 columns; the usage and
# option blocks around it are argparse's own, and their wrapping varies by version
_HELP_DESCRIPTION = """\
Exact checks of carrel-divided tuples, R-312-avoiding permutations (counted by
the parabolic Catalan numbers), their keys, row-bound and Demazure tableau
sets, and the generating polynomials of those sets. Every command prints
--text (the default), --json or --csv, and set also --stream: one tableau per
JSON line. Exit codes: 0 success, 2 a verification suite failed, 3 the tableau
cap (PARAKAT_CAP) exceeded, 64 usage error, 65 any other domain error."""


def test_help_bytes_are_pinned(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = _captured(main, ["-h"])
    assert (code, err) == (0, "") and _captured(main, ["--help"]) == (code, out, err)
    usage, description, *options = out.split("\n\n")
    assert usage.startswith("usage: parakat [-h] [--version]")
    assert description == _HELP_DESCRIPTION
    assert options[0].startswith("positional arguments:") and out.endswith("exit\n")


_MISSING_INPUTS = {
    ("map", "psi"): "--perm",
    ("map", "pi"): "--tuple",
    ("map", "floor"): "--tuple",
    ("map", "ceiling"): "--tuple",
    ("tab", "key"): "--perm",
    ("tab", "rowendmax"): "--tuple",
    ("tab", "rowboundmax"): "--tuple",
    ("tab", "scan"): "--tab",
    ("set", "rowbound"): "--tuple",
    ("set", "demazure"): "--perm",
    ("set", "ideal"): "--tab",
    ("set", "z"): "--tuple",
    ("poly", "rowboundsum"): "--tuple",
    ("poly", "demazure"): "--perm",
    ("poly", "dd"): "--perm",
    ("poly", "compare"): "--tuple, --perm",
}


def test_missing_value_argument_is_usage_error(capsys):
    for (command, action), missing in _MISSING_INPUTS.items():
        shape = [] if command == "map" else ["--lambda", "1,1"]
        code = main([command, action, "--n", "3", *shape])
        captured = capsys.readouterr()
        assert code == 64 and captured.out == "", (command, action)
        assert captured.err == f"parakat: error: missing required arguments: {missing}\n"
    # the inputs are checked before the shape is read
    assert main(["poly", "compare", "--n", "3", "--lambda", "x", "--tuple", "3,3,3"]) == 64
    assert capsys.readouterr().err == "parakat: error: missing required arguments: --perm\n"
    code = main(["core", "--n", "3", "--tuple", "a,b,c"])
    assert code == 64
    capsys.readouterr()


# each action-table command: a valid call, its usage line, and an input option none of its actions reads
_TABLE_COMMANDS = [
    (["map", "psi", "--n", "3", "--R", "2", "--perm", "1,3,2"],
     "usage: parakat map [-h] [--json | --csv | --text] [--manifest MANIFEST] --n N "
     "[--R R] [--perm PERM] [--tuple TUPLE] {psi,pi,floor,ceiling}",
     ["--lambda", "1"]),
    (["tab", "key", "--n", "3", "--lambda", "2,1", "--perm", "3,1,2"],
     "usage: parakat tab [-h] [--json | --csv | --text] [--manifest MANIFEST] --n N "
     "[--lambda LAM] [--perm PERM] [--tuple TUPLE] [--tab TAB] {key,rowendmax,rowboundmax,scan}",
     ["--R", "1"]),
    (["set", "z", "--n", "3", "--lambda", "1,1", "--tuple", "2,3,3"],
     "usage: parakat set [-h] [--json] [--csv] [--text] [--manifest MANIFEST] --n N "
     "[--stream] [--lambda LAM] [--perm PERM] [--tuple TUPLE] [--tab TAB] {rowbound,demazure,ideal,z}",
     ["--R", "1"]),
    (["poly", "demazure", "--n", "3", "--lambda", "2,1", "--perm", "3,1,2"],
     "usage: parakat poly [-h] [--json | --csv | --text] [--manifest MANIFEST] --n N "
     "[--lambda LAM] [--perm PERM] [--tuple TUPLE] {rowboundsum,demazure,dd,compare}",
     ["--tab", "{}"]),
]


@pytest.mark.parametrize("argv, usage, unread", _TABLE_COMMANDS)
def test_the_action_table_drives_the_parser(argv, usage, unread):
    code, out, err = _captured(main, [argv[0], "--help"])
    assert (code, err) == (0, "")
    assert " ".join(out.split("\n\n")[0].split()) == usage
    assert _captured(main, argv)[0] == 0
    code, out, err = _captured(main, argv + unread)
    assert (code, out) == (64, "")
    assert err.endswith(f"error: unrecognized arguments: {' '.join(unread)}\n")


def test_tab_rowendmax_and_rowboundmax(capsys):
    code, out = run_cli(capsys, "tab", "rowendmax", "--n", "3", "--lambda", "1,1", "--tuple", "2,3,3")
    assert code == 0 and out == "2\n3\n"
    code, out = run_cli(capsys, "tab", "rowboundmax", "--n", "3", "--lambda", "1,1", "--tuple", "3,3,3")
    assert code == 0 and out == "2\n3\n"


def test_verify_all_parallel(capsys):
    code, out = run_cli(capsys, "verify", "all", "--max-n", "2", "--poly-max-n", "2",
                        "--csv", "--jobs", "2")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 8 and all(",pass," in line for line in lines)


def test_set_z_and_ideal(capsys):
    code, out = run_cli(capsys, "set", "z", "--n", "3", "--lambda", "1,1", "--tuple", "2,3,3")
    assert code == 0 and out == "1 tableaux\n[[2, 3]]\n"
    tab = json.dumps({"lambda": [1, 1, 0], "n": 3, "columns": [[2, 3]]})
    code, out = run_cli(capsys, "set", "ideal", "--n", "3", "--lambda", "1,1", "--tab", tab)
    assert code == 0 and out.startswith("3 tableaux\n")


@pytest.mark.parametrize("action", ["scan", "ideal"])
@pytest.mark.parametrize(
    "shape_argv, shape",
    [
        (["--n", "4", "--lambda", "3,2,1"], "(3,2,1,0)"),  # another n
        (["--n", "3", "--lambda", "2,1"], "(2,1,0)"),  # another partition
        (["--n", "3"], "(0,0,0)"),  # no --lambda: the empty shape
    ],
)
def test_a_tableau_of_another_shape_is_a_usage_error(action, shape_argv, shape):
    # --n and --lambda name the shape, so the tableau of --tab must have it
    command = "tab" if action == "scan" else "set"
    tab = json.dumps({"lambda": [1, 1, 0], "n": 3, "columns": [[2, 3]]})
    code, out, err = _captured(main, [command, action, *shape_argv, "--tab", tab])
    assert (code, out) == (64, "")
    assert err == f"parakat: error: --tab has shape (1,1,0), but --n and --lambda give {shape}\n"


def test_make_floor_and_ceiling(capsys):
    code, out = run_cli(capsys, "critlist", "--n", "9", "--R", "3,8",
                        "--tuple", "3,4,6,4,5,6,8,9,9", "--json")
    assert code == 0
    payload = out.strip()
    code, out = run_cli(capsys, "make", "--kind", "floor", "--critlist", payload)
    assert code == 0 and out == "(3,4,6;6,6,6,8,9;9)\n"
    code, out = run_cli(capsys, "make", "--kind", "canopy", "--critlist", payload)
    assert code == 0 and out == "(9,4,6;9,9,6,9,9;9)\n"


IDEAL_ARGV = ["set", "ideal", "--n", "3", "--lambda", "1,1",
              "--tab", json.dumps({"lambda": [1, 1, 0], "n": 3, "columns": [[2, 3]]})]


_SHAPE = ["--n", "2", "--lambda", "1"]
_TAB1 = json.dumps({"lambda": [1, 0], "n": 2, "columns": [[1]]})
_ACTION_CALLS = [
    (["map", "psi", "--n", "1", "--perm", "1"], ["rank_tuple"]),
    (["map", "pi", "--n", "1", "--tuple", "1"], ["pi_map"]),
    (["map", "floor", "--n", "1", "--tuple", "1"], ["floor_map"]),
    (["map", "ceiling", "--n", "1", "--tuple", "1"], ["ceiling_map"]),
    (["tab", "key", *_SHAPE, "--perm", "1,2"], ["key_of_perm"]),
    (["tab", "rowendmax", *_SHAPE, "--tuple", "1,2"], ["row_end_max"]),
    (["tab", "rowboundmax", *_SHAPE, "--tuple", "1,2"], ["row_bound_max"]),
    (["tab", "scan", *_SHAPE, "--tab", _TAB1], ["scanning"]),
    (["set", "rowbound", *_SHAPE, "--tuple", "1,2"], ["row_bound_set"]),
    (["set", "demazure", *_SHAPE, "--perm", "1,2"], ["demazure_set"]),
    (["set", "ideal", *_SHAPE, "--tab", _TAB1], ["ideal"]),
    (["set", "z", *_SHAPE, "--tuple", "1,2"], ["z_set"]),
    (["poly", "rowboundsum", *_SHAPE, "--tuple", "1,2"], ["row_bound_sum"]),
    (["poly", "demazure", *_SHAPE, "--perm", "1,2"], ["demazure_poly"]),
    (["poly", "dd", *_SHAPE, "--perm", "1,2"], ["demazure_poly_dd"]),
    (["poly", "compare", *_SHAPE, "--tuple", "1,2", "--perm", "1,2"], ["row_bound_sum", "demazure_poly"]),
]


def test_each_action_looks_its_library_call_up_when_it_runs(monkeypatch, capsys):
    # perfbench's tracer rebinds these names in parakat.cli and must see every call
    for argv, names in _ACTION_CALLS:
        seen = []
        with monkeypatch.context() as m:
            for name in names:
                fn = getattr(cli, name)
                m.setattr(cli, name, lambda *a, _fn=fn, _name=name: seen.append(_name) or _fn(*a))
            assert main(argv) == 0, argv
        assert seen == names, argv
    capsys.readouterr()


_VERIFY_ARGV = ["verify", "convexity", "--max-n", "2", "--json"]


@pytest.mark.parametrize("extra", [
    (["poly", "rowboundsum", "--n", "3", "--lambda", "1,1", "--tuple", "3,3,3"], [],
     {"PARAKAT_CAP": "-1"}),
    (IDEAL_ARGV, ["--manifest", "{tmp}/no-such-dir/run.json"], {}),
    # PARAKAT_CAP is read where tableaux are built: by set and poly, and by the suites
    *[(argv, [], {"PARAKAT_CAP": cap}) for argv in (IDEAL_ARGV, _VERIFY_ARGV) for cap in ("-1", "abc")],
])
def test_cap_and_manifest_errors_exit_cleanly(tmp_path, capsys, monkeypatch, extra):
    argv, options, env = extra
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    assert main(argv + [a.format(tmp=tmp_path) for a in options]) == 64
    err = capsys.readouterr().err
    assert err and "Traceback" not in err
    assert all(name in err for name in env)


def test_empty_suite_range_is_usage_error(capsys):
    code = main(["verify", "convexity", "--max-n", "-2", "--json"])
    assert code == 64
    captured = capsys.readouterr()
    assert captured.out == "" and "at least 1" in captured.err
    # a pool of fewer than one worker is refused, not run serially
    for suite, jobs in (("tables", "0"), ("all", "-3")):
        code = main(["verify", suite, "--jobs", jobs])
        captured = capsys.readouterr()
        assert code == 64 and captured.out == ""
        assert captured.err == f"parakat: error: --jobs must be at least 1, got {jobs}\n"
    # a zero polynomial range stays valid: it only skips the polynomial counts
    code, out = run_cli(capsys, "verify", "counts", "--max-n", "2", "--poly-max-n", "0", "--csv")
    assert code == 0 and out.startswith("counts,pass,")


@pytest.mark.parametrize("argv, refused", [
    (["verify", "tables", "--max-n", "3"], "suite tables does not take --max-n"),
    (["verify", "lifts", "--max-col", "2"], "suite lifts does not take --max-col"),
    (["verify", "bijections", "--all-shapes", "--json"], "suite bijections does not take --all-shapes"),
    (["verify", "counts", "--max-n", "2", "--max-col", "2"], "suite counts does not take --max-col"),
    (["verify", "tables", "--poly-max-n=0", "--all-shapes"], "suite tables does not take --poly-max-n, --all-shapes"),
])
def test_a_suite_run_alone_refuses_a_range_flag_it_does_not_take(argv, refused):
    assert _captured(main, argv) == (64, "", f"parakat: error: {refused}\n")


_EVERY_COMMAND = [
    ["classify", "--n", "3", "--tuple", "3,3,3"],
    ["critlist", "--n", "3", "--tuple", "3,3,3"],
    ["core", "--n", "3", "--tuple", "3,3,3"],
    ["make", "--kind", "floor", "--critlist", '{"carrels": [[[3, 3]]]}'],
    ["map", "psi", "--n", "3", "--R", "2", "--perm", "1,3,2"],
    ["perm", "avoiding", "--n", "3", "--perm", "1,2,3"],
    ["tab", "key", "--n", "3", "--lambda", "2,1", "--perm", "3,1,2"],
    ["count", "cnr", "--n", "3"],
    ["verify", "tables", "--csv"],
    ["verify", "accidental", "--max-n", "2"],
    ["set", "z", "--n", "3", "--lambda", "1,1", "--tuple", "2,3,3"],
    ["poly", "rowboundsum", "--n", "3", "--lambda", "1,1", "--tuple", "3,3,3"],
    ["poly", "dd", "--n", "3", "--lambda", "1,1", "--perm", "2,3,1"],
]


def test_every_command_refuses_cap_and_budget():
    # PARAKAT_CAP is the one limit on tableaux, so no command takes another
    for argv in _EVERY_COMMAND:
        assert _captured(main, argv)[0] == 0, argv
        for option in ("--cap", "--budget"):
            code, out, err = _captured(main, argv + [option, "1"])
            assert (code, out) == (64, ""), (argv, option)
            assert err.endswith(f"error: unrecognized arguments: {option} 1\n"), (argv, option)
            assert "Traceback" not in err


def test_verify_passes_each_suite_the_flags_it_names(monkeypatch, capsys):
    got = {}

    def recorder(name, suite):
        @functools.wraps(suite)  # the CLI reads the flags off the signature
        def record(**kwargs):
            got[name] = kwargs
            return verify._Run(name).report()

        return record

    for name, suite in verify.SUITES.items():
        monkeypatch.setitem(verify.SUITES, name, recorder(name, suite))
    argv = ["verify", "all", "--max-n", "2", "--max-col", "1", "--poly-max-n", "0", "--all-shapes"]
    assert main(argv) == 0
    capsys.readouterr()
    shape_flags = {"max_n": 2, "max_col": 1, "all_shapes": True}
    assert got == {
        "tables": {},
        "bijections": {"max_n": 2},
        "counts": {"max_n": 2, "poly_max_n": 0},
        "convexity": shape_flags,
        "coincidence": shape_flags,
        "polynomials": shape_flags,
        "lifts": {"max_n": 2},
        "accidental": shape_flags,
    }


def _count_ui(n):
    """``parakat count ui --n n``, raising its stderr as a ValueError on exit 64."""
    code, _, err = _captured(main, ["count", "ui", "--n", str(n)])
    if code == 64:
        raise ValueError(err)


# every entry point that takes n.  The JSON and argv readers type their input
# first, so a non-integer n reaches the n rule only through the library calls
_TAKES_N = {
    "RSubset": (lambda n: RSubset(n, (1,)), None),
    "Shape": (lambda n: Shape(n, (1,)), None),
    "Shape.of": (lambda n: Shape.of(n, (1,)), None),
    "Polynomial": (lambda n: Polynomial(n), None),
    "count_cnr": (lambda n: count_cnr(n, ()), None),
    "count_total": (count_total, None),
    "CriticalList.from_json_dict": (
        lambda n: CriticalList.from_json_dict({"carrels": [[[n, n]]]}),
        "critical list JSON key 'carrels' must hold arrays of [x, y] integer pairs",
    ),
    "count ui": (_count_ui, "argument --n: invalid int value"),
}


@pytest.mark.parametrize("n, message", [
    (2.5, "n must be an integer, got 2.5"),
    (True, "n must be an integer, got True"),
    (0, "n must be positive, got 0"),
    (MAX_SIZE + 1, f"n={MAX_SIZE + 1} exceeds the size bound of {MAX_SIZE}"),
])
@pytest.mark.parametrize("entry", _TAKES_N)
def test_every_entry_point_refuses_n_by_one_rule(entry, n, message):
    call, typed = _TAKES_N[entry]
    if typed is not None and type(n) is not int:
        message = typed  # the reader refuses a non-integer before the n rule sees it
    with pytest.raises(ValueError) as info:
        call(n)
    assert message in str(info.value)


@pytest.mark.parametrize(
    "argv",
    [
        ["tab", "scan", "--n", "3", "--tab", '{"n":1000000000,"lambda":[1],"columns":[[1]]}'],
        ["tab", "scan", "--n", "3", "--tab", '{"n":3,"lambda":[1000000000],"columns":[[1]]}'],
        ["count", "cnr", "--n", "1000000000"],
        ["count", "cnr", "--n", "1000000000", "--R", "1"],
        ["count", "total", "--n", "1000000000"],
        ["set", "ideal", "--n", "1000000000", "--lambda", "1", "--tab", "{}"],
        ["poly", "dd", "--n", "1000000000", "--lambda", "1", "--perm", "1"],
        ["make", "--kind", "increasing", "--critlist", '{"carrels":[[[4097,4097]]]}'],
        ["count", "ui", "--n", "5000"],
    ],
)
def test_sizes_past_the_bound_are_usage_errors(capsys, argv):
    started = time.perf_counter()
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 64 and captured.out == ""
    assert "exceeds the size bound of 4096" in captured.err and "Traceback" not in captured.err
    assert time.perf_counter() - started < 1.0


@pytest.mark.parametrize(
    "argv, message",
    [
        (["set", "ideal", "--n", "3", "--lambda", "1,1", "--tab",
          '{"lambda": [1, 1, 0], "columns": [[2, 3]]}'], "tableau JSON lacks the key 'n'"),
        (["tab", "scan", "--n", "3", "--lambda", "1,1", "--tab",
          '{"n": 3, "lambda": [1, 1, 0]}'], "tableau JSON lacks the key 'columns'"),
        (["tab", "scan", "--n", "3", "--lambda", "1,1", "--tab", "[1, 2]"],
         "tableau JSON lacks the key 'n'"),
        (["make", "--kind", "increasing", "--critlist", "{}"],
         "critical list JSON lacks the key 'carrels'"),
        (["make", "--kind", "increasing", "--critlist", '{"carrels": [[[1, 2]], []]}'],
         "every carrel must carry at least one critical pair"),
        (["set", "ideal", "--n", "3", "--lambda", "1,1", "--tab",
          '{"n":3,"lambda":5,"columns":[]}'], "tableau JSON key 'lambda' must hold an array of integers"),
        (["tab", "scan", "--n", "3", "--tab", '{"n":"3","lambda":[1],"columns":[[1]]}'],
         "tableau JSON key 'n' must hold an integer"),
        (["tab", "scan", "--n", "3", "--tab", '{"n":3,"lambda":[1],"columns":[1]}'],
         "tableau JSON key 'columns' must hold an array of arrays of integers"),
        (["tab", "scan", "--n", "3", "--tab", "5"], "tableau JSON lacks the key 'n'"),
        (["make", "--kind", "increasing", "--critlist", '{"carrels":[[1,2]]}'],
         "critical list JSON key 'carrels' must hold arrays of [x, y] integer pairs"),
        (["make", "--kind", "increasing", "--critlist", '{"carrels":[[[1,2,3]]]}'],
         "critical list JSON key 'carrels' must hold arrays of [x, y] integer pairs"),
        (["make", "--kind", "increasing", "--critlist", "null"],
         "critical list JSON lacks the key 'carrels'"),
        # JSON true is no integer, though Python's bool is an int
        (["tab", "scan", "--n", "1", "--lambda", "1", "--tab", '{"n":true,"lambda":[1],"columns":[[1]]}'],
         "tableau JSON key 'n' must hold an integer"),
    ],
)
def test_incomplete_json_names_what_is_missing(capsys, argv, message):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 64 and captured.out == ""
    assert captured.err == f"parakat: error: {message}\n"


# Integers stay small: a large n or part makes the shape allocate in
# proportion to it, which this test is not about.
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 5) | st.floats(-2, 5) | st.text(max_size=2),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["n", "lambda", "columns", "carrels", "x"]), inner, max_size=3),
    max_leaves=10,
)
_SMALL = st.integers(-1, 4)
_VALID_TABS = [
    t.to_json_dict()
    for parts in [(1,), (1, 1), (2, 1), (2, 2, 1)]
    for t in enumerate_tableaux(Shape.of(3, parts))
]
_VALID_CRITLISTS = [
    c.to_json_dict()
    for n in range(1, 4)
    for r in itertools.chain.from_iterable(
        itertools.combinations(range(1, n), k) for k in range(n)
    )
    for c in enumerate_critical_lists(n, r)
]
_TAB_JSON = st.one_of(
    _JSON,
    st.sampled_from(_VALID_TABS),
    st.fixed_dictionaries({"n": _JSON, "lambda": _JSON, "columns": _JSON}),
    st.fixed_dictionaries({
        "n": _SMALL,
        "lambda": st.lists(_SMALL, max_size=3),
        "columns": st.lists(st.lists(_SMALL, max_size=3), max_size=3),
    }),
)
_CRITLIST_JSON = st.one_of(
    _JSON,
    st.sampled_from(_VALID_CRITLISTS),
    st.fixed_dictionaries({"carrels": _JSON}),
    st.fixed_dictionaries(
        {"carrels": st.lists(st.lists(st.lists(_SMALL, max_size=3), max_size=3), max_size=3)}
    ),
)


def _json_text(values):
    """JSON text of a drawn value, whole or cut short."""
    return st.tuples(values, st.integers(0, 40), st.booleans()).map(
        lambda t: json.dumps(t[0]) if t[2] else json.dumps(t[0])[: t[1]]
    )


@settings(max_examples=300, deadline=None)
@given(
    argv=st.one_of(
        _json_text(_TAB_JSON).map(
            lambda s: ["tab", "scan", "--n", "3", "--lambda", "2,1", "--tab=" + s]
        ),
        _json_text(_TAB_JSON).map(
            lambda s: ["set", "ideal", "--n", "3", "--lambda", "1,1", "--tab=" + s]
        ),
        # a valid tableau under the --lambda of its own shape reaches exit 0
        st.tuples(st.sampled_from([["tab", "scan"], ["set", "ideal"]]),
                  st.sampled_from(_VALID_TABS)).map(
            lambda t: [*t[0], "--n", "3", "--lambda", ",".join(map(str, t[1]["lambda"])),
                       "--tab=" + json.dumps(t[1])]
        ),
        st.tuples(st.sampled_from(CONSTRUCTION_KINDS), _json_text(_CRITLIST_JSON)).map(
            lambda t: ["make", "--kind", t[0], "--critlist=" + t[1]]
        ),
    ),
    fmt=st.sampled_from(["--text", "--json"]),
)
def test_json_arguments_never_escape_the_exit_codes(argv, fmt):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv + [fmt])
    assert code in (0, 64, 65), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()


def test_count_total_json_reaches_n9(capsys):
    code, out = run_cli(capsys, "count", "total", "--n", "9", "--json")
    assert code == 0 and out == '{"count": 275808}\n'


ROOT = pathlib.Path(__file__).resolve().parent.parent


def _src_env() -> dict:
    """The environment with this checkout's src/ first on PYTHONPATH."""
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    )}


def test_catalan_table_script_totals():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "catalan_table.py"), "--max-n", "9"],
        capture_output=True, text=True, env=_src_env(), check=True, timeout=120,
    )
    lines = proc.stdout.splitlines()
    assert lines[-1] == "  total over all R: 275808"
    assert proc.stderr == ""


def test_dimension_tables_script_matches_the_library():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "dimension_tables.py"),
         "--n", "3", "--lambda", "2,1", "--json"],
        capture_output=True, text=True, env=_src_env(), check=True, timeout=120,
    )
    assert json.loads(proc.stdout) == verify.dimension_tables(Shape.of(3, (2, 1)))
    assert proc.stderr == ""


def test_readme_command_line_examples(capsys):
    # every README line "parakat ..." followed by a "# output" line
    lines = (ROOT / "README.md").read_text().splitlines()
    examples = [
        (shlex.split(cmd)[1:], out[2:])
        for cmd, out in zip(lines, lines[1:])
        if cmd.startswith("parakat ") and out.startswith("# ")
    ]
    assert len(examples) == 5
    for argv, expected in examples:
        assert run_cli(capsys, *argv) == (0, expected + "\n"), argv


def test_readme_library_quick_tour():
    # the README's python block runs, and each line with a comment evaluates to
    # the value the comment opens with
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Library quick tour", 1)[1].split("```python\n", 1)[1]
    block = block.split("```", 1)[0]
    scope: dict = {}
    exec(block, scope)
    stated = [line.split("#", 1) for line in block.splitlines() if "#" in line]
    assert len(stated) == 4
    for code, comment in stated:
        assert eval(code, scope) == ast.literal_eval(comment.split()[0]), code


def _captured(call, *args):
    """(result or SystemExit code, stdout, stderr) of one call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = call(*args)
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


def _parsed(parser, argv):
    result, out, err = _captured(parser.parse_args, argv)
    return (vars(result) if isinstance(result, argparse.Namespace) else result), out, err


_PARSE_CORPUS = [
    ["classify", "--n", "9", "--R", "3,8", "--tuple", "2,4,6,4,5,6,7,9,9", "--json"],
    ["critlist", "--n", "3", "--R", "2", "--tuple", "3,3,3", "--csv"],
    ["core", "--n", "3", "--tuple", "3,3,3"],
    ["make", "--kind", "floor", "--critlist", "{}", "--manifest", "make.json"],
    ["map", "psi", "--n", "4", "--perm", "2,4,1,3", "--text"],
    ["map", "pi", "--n", "4", "--R", "2", "--tuple", "2,4,3,4"],
    ["perm", "lifts", "--n", "4", "--R", "2", "--perm", "2,4,1,3", "--json"],
    ["tab", "scan", "--n", "3", "--lambda", "2,1",
     "--tab", json.dumps({"lambda": [2, 1, 0], "n": 3, "columns": [[1, 3], [2]]})],
    ["set", "demazure", "--n", "3", "--lambda", "2,1", "--perm", "3,1,2", "--stream"],
    ["set", "demazure", "--n", "3", "--lambda", "2,1", "--perm", "3,1,2"],
    ["set", "z", "--n", "3", "--lambda", "1,1", "--tuple", "2,3,3", "--csv"],
    ["poly", "compare", "--n", "3", "--lambda", "1,1", "--tuple", "2,3,3", "--perm", "2,3,1"],
    ["count", "cnr", "--n", "4", "--R", "1,2,3", "--manifest", "count.json"],
    ["count", "total", "--n", "4"],
    ["verify", "counts", "--max-n", "2", "--poly-max-n", "0", "--jobs", "2"],
    ["verify", "all", "--max-n", "2", "--all-shapes", "--max-col", "2", "--json"],
    ["verify", "convexity", "--max-n", "2"],
    # usage errors (exit 64) and --version between the valid calls
    ["core", "--n", "9"],
    ["core", "--n", "3", "--tuple", "3,3,3", "--cap", "4", "--config", "missing.conf"],
    ["verify", "accidental", "--budget", "5"],
    ["set", "demazure", "--n", "3", "--lambda", "2,1", "--perm", "3,1,2", "--stream", "--csv"],
    ["set", "demazure", "--json", "--csv", "--n", "3"],
    ["count", "bogus", "--n", "3"],
    ["verify", "all", "--max-n", "x"],
    [],
    ["--version"],
]


def test_shared_parser_leaks_nothing_between_calls(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the corpus's manifest paths
    parser = _shared_parser()
    assert parser is _shared_parser() and build_parser() is not build_parser()
    seen = []
    parse = cli._parse

    def spy(argv):
        namespace = parse(argv)
        seen.append(dict(vars(namespace)))
        return namespace

    monkeypatch.setattr(cli, "_parse", spy)
    rng = random.Random(20171)
    for _ in range(3):
        for argv in rng.sample(_PARSE_CORPUS, len(_PARSE_CORPUS)):
            seen.clear()
            code, out, err = _captured(main, argv)
            fresh = _parsed(build_parser(), argv)
            if seen:  # main parsed, then ran the command
                assert seen == [fresh[0]], argv
                assert code in (0, 3, 64), argv
            else:  # the parser exited: usage error or --version
                assert (code, out, err) == fresh, argv


# the corpus, and what only the full parser can take: help, versions, an
# unknown command, a stray argument after a command, two exclusive formats
_PARITY_ARGV = [
    *_PARSE_CORPUS,
    ["-h"],
    ["--help"],
    ["count", "--version"],
    ["count", "-h"],
    ["frobnicate", "--n", "3"],
    ["core", "--n", "3", "--tuple", "3,3,3", "stray"],
    ["count", "cnr", "extra", "--n", "3"],
    ["poly", "dd", "--n", "3", "--lambda", "2,1", "--perm", "3,1,2", "--json", "--csv"],
    ["--json", "count", "cnr", "--n", "3"],
    ["count", "cnr", "--n", "3", "--", "x"],
    # plain forms that the plain-form reader leaves to the full parser
    ["count", "total", "--n", "-1"],
    ["count", "cnr", "--n", "3", "--n", "4"],
    ["tab", "key", "--n", "3", "--lam", "2,1", "--perm", "3,1,2"],
    ["count", "--n", "3", "cnr"],
    ["count", "cnr", "--n", "3", "--R"],
]


@pytest.mark.parametrize("argv", _PARITY_ARGV, ids=" ".join)
def test_main_parses_as_a_fresh_full_parser(tmp_path, monkeypatch, argv):
    """(code, stdout, stderr) through ``main`` match those of a fresh
    ``build_parser()`` followed by the command's handler."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")  # help text wraps to the terminal width
    monkeypatch.setattr(verify, "time", SimpleNamespace(perf_counter=lambda: 0.0))

    def through_fresh_parser(argv):
        parsed = build_parser().parse_args(argv)
        with mock.patch.object(cli, "_parse", lambda _: parsed):
            return main(argv)

    assert _captured(main, argv) == _captured(through_fresh_parser, argv)


def test_plain_argv_never_reaches_argparse(tmp_path, monkeypatch):
    """Every valid argv of the corpus is in the plain form, which main reads
    without argparse, to the bytes that argparse's namespace gives."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(verify, "time", SimpleNamespace(perf_counter=lambda: 0.0))
    valid = [argv for argv in _PARSE_CORPUS if isinstance(_parsed(build_parser(), argv)[0], dict)]
    assert len(valid) == 17
    expected = []
    for argv in valid:
        parsed = build_parser().parse_args(argv)
        with mock.patch.object(cli, "_parse", lambda _: parsed):
            expected.append(_captured(main, argv))

    def refuse(*args, **kwargs):
        raise AssertionError("argparse parsed a plain-form argv")

    with mock.patch.object(argparse.ArgumentParser, "parse_known_args", refuse), \
            mock.patch.object(argparse.ArgumentParser, "parse_args", refuse):
        assert [_captured(main, argv) for argv in valid] == expected


# Argv for the plain-form reader, drawn from the full parser's own actions.
# A plain draw writes each option once, in full, after the positionals; a
# messy one also writes options with "=", abbreviated, bare or twice, adds
# help, stray arguments, "--" and values that argparse reads specially, and
# shuffles the pieces.  Values may still fail their type or their choices.
_FULL_PARSER = build_parser()
_ODD_VALUES = ["-1", "-x", "--", "-", "--n", "--json"]
_EXTRAS = [["--"], ["--version"], ["-h"], ["--cap", "1"], ["stray"], ["-1"], ["--json"]]


def _values_of(action, messy):
    if action.choices is not None:
        usual = st.sampled_from([*action.choices, "bogus"])
    elif action.type is int:
        usual = st.sampled_from(["3", "0", " 2", "1_0", "x", "1.5"])
    else:
        usual = st.sampled_from(["1,2", "3,3,3", "", "{}", "a b", "x=y"])
    return usual | st.sampled_from(_ODD_VALUES) if messy else usual


def _written(name, action, messy):
    """One occurrence of the option ``name``, as a list of arguments."""
    value = _values_of(action, messy)
    plain = st.just([name]) if action.nargs == 0 else value.map(lambda v: [name, v])
    if not messy:
        return plain
    abbreviated = st.tuples(st.integers(min(3, len(name)), len(name)), value).map(lambda t: [name[: t[0]], t[1]])
    return plain | value.map(lambda v: [f"{name}={v}"]) | abbreviated | st.just([name]) | value.map(lambda v: [name, v])


def _argv_of(command, messy):
    sub = _FULL_PARSER.commands[command]
    positionals = [_values_of(a, messy).map(lambda v: [[v]]) for a in sub._actions if not a.option_strings]
    times = {True: [0, 1, 1, 2], False: [1]}
    options = [
        st.sampled_from(times[messy] if a.required else [0, 0, 0, 1]).flatmap(
            lambda k, name=a.option_strings[-1], a=a: st.lists(_written(name, a, messy), min_size=k, max_size=k))
        for a in sub._actions if a.option_strings and (messy or a.dest != argparse.SUPPRESS)
    ]
    extra = st.sampled_from([[]] + [[e] for e in _EXTRAS]) if messy else st.just([])
    pieces = st.tuples(*positionals, *options, extra).map(lambda t: sum(t, []))
    if messy:
        pieces = pieces.flatmap(lambda p: st.just(p) | st.permutations(p))
    return pieces.map(lambda p: [command, *sum(p, [])])


_COMMAND_NAMES = st.sampled_from(sorted(_FULL_PARSER.commands))
_ANY_ARGV = st.one_of(
    _COMMAND_NAMES.flatmap(lambda c: _argv_of(c, messy=False)),
    _COMMAND_NAMES.flatmap(lambda c: _argv_of(c, messy=True)),
    st.sampled_from([[], ["--version"], ["-h"], ["frobnicate", "--n", "3"], ["--json", "count", "cnr", "--n", "3"]]),
)


@settings(max_examples=600, deadline=None)
@given(argv=_ANY_ARGV)
def test_the_plain_reader_reads_as_the_full_parser(argv):
    # the reader takes none of argparse's own parsing code, only its actions
    read = cli._read_plain(argv)
    if read is not None:
        assert vars(read) == _parsed(build_parser(), argv)[0], argv


def test_import_builds_no_parser_and_loads_no_process_pool():
    probe = (
        "import sys, parakat.cli as cli; "
        "print(cli._shared_parser.cache_info().currsize, 'concurrent.futures' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=_src_env(), check=True
    )
    assert proc.stdout == "0 False\n"


@pytest.mark.parametrize(
    "argv", [["--help"], ["set", "--help"], ["--version"], ["core", "--n", "9"]]
)
def test_main_matches_a_fresh_process(monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")  # help text wraps to the terminal width
    _captured(main, ["count", "cnr", "--n", "3"])  # the shared parser has served a call
    code, out, err = _captured(main, argv)
    proc = subprocess.run(
        [sys.executable, "-m", "parakat", *argv],
        capture_output=True, text=True, env={**_src_env(), "COLUMNS": "80"},
    )
    assert (code or 0, out, err) == (proc.returncode, proc.stdout, proc.stderr)



_COMMANDS = [
    *([name] for name in ("classify", "critlist", "core", "make")),
    *(["map", a] for a in ("psi", "pi", "floor", "ceiling")),
    *(["perm", a] for a in ("project", "lift", "lifts", "avoiding")),
    *(["tab", a] for a in ("key", "rowendmax", "rowboundmax", "scan")),
    *(["set", a] for a in ("rowbound", "demazure", "ideal", "z")),
    *(["poly", a] for a in ("rowboundsum", "demazure", "dd", "compare")),
    *(["count", a] for a in ("cnr", "total", "ui")),
]
_ACCEPTS = {
    **dict.fromkeys(("classify", "critlist", "core"), ("--n", "--R", "--tuple")),
    "make": ("--kind", "--critlist"),
    "map": ("--n", "--R", "--perm", "--tuple"),
    "perm": ("--n", "--R", "--perm"),
    "tab": ("--n", "--lambda", "--perm", "--tuple", "--tab"),
    "set": ("--n", "--lambda", "--perm", "--tuple", "--tab"),
    "poly": ("--n", "--lambda", "--perm", "--tuple"),
    "count": ("--n", "--R"),
}
# Integers stay in -1..6 so that drawn shapes stay small; sizes past the
# bound are tested in test_sizes_past_the_bound_are_usage_errors.
_INT = st.integers(-1, 6)
_JUNK_INTS = st.one_of(
    st.lists(_INT, max_size=7).map(lambda v: ",".join(map(str, v))),
    st.sampled_from(["a", "1,,2", " ", "1.5"]),
)


def _option_values(n):
    """A strategy per option: a value near-valid for ``--n=n``, or junk."""
    k = max(n, 1)

    def ints(values):
        near = values.map(lambda v: ",".join(map(str, v)))
        return st.sampled_from([near, near, near, _JUNK_INTS]).flatmap(lambda s: s)

    return {
        "--n": st.sampled_from([str(n), "x"]),
        "--R": ints(st.lists(st.integers(1, max(k - 1, 1)), max_size=k - 1, unique=True).map(sorted)),
        "--tuple": ints(st.tuples(*(st.integers(i, k) for i in range(1, k + 1)))),
        "--perm": ints(st.permutations(range(1, k + 1))),
        "--lambda": ints(st.lists(st.integers(0, 3), max_size=k).map(lambda v: sorted(v, reverse=True))),
        "--kind": st.sampled_from([*CONSTRUCTION_KINDS, "upper"]),
        "--critlist": _json_text(_CRITLIST_JSON),
        "--tab": _json_text(_TAB_JSON),
    }


def _options(strategies):
    """Shuffled arguments for ``strategies`` less a few, each ``--flag=value``
    or ``--flag value``; a flag whose value is None stands alone."""
    names = sorted(strategies)
    kept = st.lists(st.sampled_from(names), max_size=3, unique=True).map(
        lambda dropped: {k: strategies[k] for k in names if k not in dropped}
    )

    def written(d):
        forms = [st.just([k]) if v is None else st.sampled_from([[f"{k}={v}"], [k, v]]) for k, v in d.items()]
        return st.tuples(*forms).flatmap(st.permutations).map(lambda pieces: sum(pieces, []))

    return kept.flatmap(st.fixed_dictionaries).flatmap(written)


def _command_argv(command):
    def options(n):
        values = _option_values(n)
        return _options({o: values[o] for o in _ACCEPTS[command[0]]})

    return _INT.flatmap(options).map(lambda args: command + args)


# verify runs whole suites, so its ranges stay at n <= 3 and col <= 3
_VERIFY_ARGV = st.tuples(
    st.sampled_from([["verify", s] for s in (*SUITE_NAMES, "all")]),
    st.integers(-1, 3).flatmap(lambda n: st.sampled_from([[f"--max-n={n}"], ["--max-n", str(n)]])),
    _options(
        {
            "--poly-max-n": st.integers(-1, 3).map(str),
            "--max-col": st.integers(-1, 3).map(str),
            "--all-shapes": st.just(None),
        }
    ),
).map(lambda t: t[0] + t[1] + t[2])
_FORMATS = st.sampled_from(
    [[], ["--text"], ["--json"], ["--csv"], ["--stream"], ["--json", "--csv"], ["--stream", "--csv"]]
)


@settings(max_examples=400, deadline=None)
@given(argv=st.sampled_from(_COMMANDS).flatmap(_command_argv) | _VERIFY_ARGV, fmt=_FORMATS)
def test_every_command_keeps_its_exit_codes(argv, fmt):
    # a small default cap keeps the drawn n = 6 shapes fast; exit 3 is allowed
    with mock.patch.dict(os.environ, {"PARAKAT_CAP": "2000"}):
        code, _, err = _captured(main, argv + fmt)
    assert code in (0, 2, 3, 64, 65), (argv + fmt, code, err)
    assert "Traceback" not in err
