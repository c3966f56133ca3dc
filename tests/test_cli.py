import contextlib
import io
import json
import hashlib
import os
import pathlib
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from youngops import (AlgebraElement, Polynomial, YoungTableau,
                      enumerate_syt, hermitian_young, tableaux, verify,
                      young_operator)
from youngops.cli import main

STDOUT_PINS = pathlib.Path(__file__).resolve().parents[1] / ".github" / "stdout"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_tableaux_json(capsys):
    code, out, _ = run_cli(capsys, "tableaux", "--n", "3")
    assert code == 0
    data = json.loads(out)
    assert data == [
        {"shape": [3], "rows": [[1, 2, 3]]},
        {"shape": [2, 1], "rows": [[1, 2], [3]]},
        {"shape": [1, 1, 1], "rows": [[1], [2], [3]]},
        {"shape": [2, 1], "rows": [[1, 3], [2]]},
    ]


def test_operator_conventional(capsys):
    code, out, _ = run_cli(capsys, "operator", "12")
    assert code == 0
    assert json.loads(out) == {
        "n": 2,
        "terms": [{"perm": [1, 2], "coeff": "1/2"},
                  {"perm": [2, 1], "coeff": "1/2"}]}


def test_operator_hermitian(capsys):
    code, out, _ = run_cli(capsys, "operator", "12/3", "--kind", "hermitian")
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 3 and len(data["terms"]) == 6
    coeffs = {tuple(t["perm"]): t["coeff"] for t in data["terms"]}
    assert coeffs[(1, 2, 3)] == "1/3" and coeffs[(1, 3, 2)] == "-1/6"


def test_operator_accepts_json_input(capsys):
    text = json.dumps({"shape": [2, 1], "rows": [[1, 2], [3]]})
    code, out, _ = run_cli(capsys, "operator", text)
    assert code == 0
    assert json.loads(out)["n"] == 3


def test_trace_known_polynomial(capsys):
    code, out, _ = run_cli(capsys, "trace", "12/3")
    assert code == 0
    assert out == '{"coeffs":{"0":"0","1":"-1/3","3":"1/3"}}\n'


def _read_tableaux(data):
    return [YoungTableau.from_dict(d) for d in data]


# The wire-format writers pinned in CI: pin name, argv, the reader of
# the output and the value the library builds.
WIRE_PINS = [
    ("tableaux-n4", ["tableaux", "--n", "4"], _read_tableaux,
     lambda: enumerate_syt(4)),
    ("operator-hermitian-135-24", ["operator", "135/24", "--kind", "hermitian"],
     AlgebraElement.from_dict,
     lambda: hermitian_young(YoungTableau.from_string("135/24"))),
    ("operator-conventional-1234-567", ["operator", "1234/567"],
     AlgebraElement.from_dict,
     lambda: young_operator(YoungTableau.from_string("1234/567"))),
    ("trace-hermitian-135-24", ["trace", "135/24", "--kind", "hermitian"],
     Polynomial.from_dict,
     lambda: hermitian_young(
         YoungTableau.from_string("135/24")).trace_polynomial()),
]


@pytest.mark.parametrize("name, argv, read, build", WIRE_PINS,
                         ids=[pin[0] for pin in WIRE_PINS])
def test_wire_output_matches_its_pin_and_reads_back(capsys, name, argv,
                                                    read, build):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    pin = (STDOUT_PINS / f"{name}.sha256").read_text().split()[0]
    assert hashlib.sha256(out.encode()).hexdigest() == pin
    assert read(json.loads(out)) == build()


def test_dims_table(capsys):
    code, out, _ = run_cli(capsys, "dims", "--n", "3", "--N", "3")
    assert code == 0
    assert "sum(dim) = 27, N^n = 27: ok" in out
    assert "12/3" in out


def test_dims_past_nine_boxes(capsys):
    # Past n = 9 an entry can have two digits, so labels separate
    # entries with dots.  n = 10 is also the tableau cap.
    code, out, _ = run_cli(capsys, "dims", "--n", "10", "--N", "2")
    assert code == 0
    assert out.splitlines()[2].split()[0] == "1.2.3.4.5.6.7.8.9.10"
    assert out.endswith("sum(dim) = 1024, N^n = 1024: ok\n\n")


def test_dims_json_out(capsys, tmp_path):
    path = tmp_path / "dims.json"
    code, out, _ = run_cli(capsys, "dims", "--n", "2", "--N", "1",
                           "--json-out", str(path))
    assert code == 0
    data = json.loads(path.read_text())
    assert data["n"] == 2
    table = data["tables"][0]
    assert table["N"] == 1 and table["ok"] is True
    assert [r["dim"] for r in table["rows"]] == [1, 0]


def test_dims_repeated_N_runs_once(capsys, tmp_path):
    # As in `verify`, a repeated N runs once, at its first place.
    path = tmp_path / "dims.json"
    code, out, _ = run_cli(capsys, "dims", "--n", "2", "--N", "3", "--N", "2",
                           "--N", "3", "--json-out", str(path))
    assert code == 0
    assert re.findall(r"^n=2 N=(\d+)$", out, re.M) == ["3", "2"]
    assert [t["N"] for t in json.loads(path.read_text())["tables"]] == [3, 2]


def test_dims_rows_match_the_dimension_polynomial(capsys, tmp_path):
    # The table takes f_T(N) as a product over cells, once per shape;
    # the expanded polynomial, evaluated per tableau, is the reference.
    path = tmp_path / "dims.json"
    code, _, _ = run_cli(capsys, "dims", "--n", "5", "--N", "1", "--N", "3",
                         "--N", "6", "--json-out", str(path))
    assert code == 0
    for table in json.loads(path.read_text())["tables"]:
        N = table["N"]
        for t, row in zip(enumerate_syt(5), table["rows"], strict=True):
            f = t.shape.dimension_polynomial()(N)
            assert row == {"tableau": str(t), "f": f,
                           "hook": t.shape.hook_product(),
                           "dim": f / t.shape.hook_product()}


def test_verify_passes_small(capsys):
    code, out, err = run_cli(capsys, "verify", "--n", "2")
    assert code == 0
    assert out.startswith("verify n=2 N=2,3\n")
    assert "overall:" in out and " 0 failed" in out
    assert "# timing suite=" in err  # timings go to stderr only


def test_verify_exit_one_on_failure(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n", "5", "--N", "2",
                           "--suite", "conventional-transversality")
    assert code == 1
    assert "FAIL conventional-transversality:123/45*135/24" in out
    assert "FAIL conventional-transversality:12/34/5*14/25/3" in out
    assert "witness:" in out


def test_verify_repeated_tensor_dimension_runs_once(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n", "2", "--N", "2",
                           "--N", "2", "--suite", "tensor")
    assert code == 0
    assert out.startswith("verify n=2 N=2\n")
    assert out.count("PASS tensor:N=2:sum-to-identity ") == 1


def test_verify_json_out(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, _, _ = run_cli(capsys, "verify", "--n", "3", "--N", "2",
                         "--suite", "traces", "--suite", "completeness",
                         "--json-out", str(path))
    assert code == 0
    data = json.loads(path.read_text())
    assert data["passed"] is True
    assert [s["suite"] for s in data["suites"]] == ["completeness", "traces"]


def test_usage_errors_exit_two(capsys):
    assert run_cli(capsys, "verify", "--n", "3", "--suite", "nope")[0] == 2
    assert run_cli(capsys, "tableaux", "--n", "11")[0] == 2
    assert run_cli(capsys, "operator", "21/3")[0] == 2
    assert run_cli(capsys, "operator", "12//3")[0] == 2
    assert run_cli(capsys, "operator", '{"rows":[[1,2],[3]')[0] == 2
    assert run_cli(capsys, "dims", "--n", "2", "--N", "0")[0] == 2


def test_argparse_usage_exit_two():
    with pytest.raises(SystemExit) as exc:
        main(["verify"])  # missing required --n
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_max_n_flag(capsys):
    # Every size cap is fixed: --max-n is no option of any subcommand.
    for argv in (["tableaux", "--n", "8"], ["dims", "--n", "8", "--N", "2"],
                 ["operator", "12"], ["trace", "12"], ["verify", "--n", "2"]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--max-n", "8"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --max-n" in capsys.readouterr().err
    code, out, _ = run_cli(capsys, "tableaux", "--n", "8")
    assert code == 0
    assert len(json.loads(out)) == 764


def test_output_is_byte_stable(capsys):
    first = run_cli(capsys, "verify", "--n", "2", "--N", "2")
    second = run_cli(capsys, "verify", "--n", "2", "--N", "2")
    assert first[1] == second[1]
    t1 = run_cli(capsys, "tableaux", "--n", "4")
    t2 = run_cli(capsys, "tableaux", "--n", "4")
    assert t1[1] == t2[1]


def test_json_out_matches_stdout_for_json_commands(capsys, tmp_path):
    path = tmp_path / "op.json"
    code, out, _ = run_cli(capsys, "operator", "123/45",
                           "--json-out", str(path))
    assert code == 0
    assert path.read_text() == out


def test_installed_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "youngops", "trace", "12"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"coeffs": {"0": "0", "1": "1/2", "2": "1/2"}}



def _assert_one_line_error(code, err):
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["verify", "--n", "8"],
    ["verify", "--n", "6", "--N", "5"],  # 5**6 > TENSOR_MAX_DIM
    ["operator", '{"rows":[[1,2,3,4,5,6,7,8,9,10]]}'],
])
def test_size_caps_refuse_before_any_work(capsys, monkeypatch, argv):
    def no_work(*args):
        raise AssertionError("work started before the size check")
    monkeypatch.setattr(verify, "enumerate_syt", no_work)
    code, out, err = run_cli(capsys, *argv)
    _assert_one_line_error(code, err)  # so no "# timing" line either
    assert out == ""


@pytest.mark.parametrize("argv", [
    ["tableaux", "--n", "11"],
    ["dims", "--n", "11", "--N", "2"],
])
def test_tableau_cap_refuses_before_enumeration(capsys, monkeypatch, argv):
    def no_tableau(*args):
        raise AssertionError("tableau built before the size check")
    monkeypatch.setattr(tableaux, "YoungTableau", no_tableau)
    code, out, err = run_cli(capsys, *argv)
    _assert_one_line_error(code, err)
    assert "1..10" in err and out == ""


# Non-integer entries are refused, not truncated: 2.9 is not read as 2,
# nor "1" as 1, nor true as 1.
MALFORMED_TABLEAUX = ['{"rows":5}', '{"shape":[2]}', '{"rows":[[1.5]]}',
                      '{"rows":[[1,2.9],[3]]}', '{"rows":[["1"]]}',
                      '{"rows":[[true]]}', '{"rows":[[1]],"shape":[true]}']


@pytest.mark.parametrize("text", MALFORMED_TABLEAUX)
def test_malformed_tableau_json_exits_two(capsys, text):
    code, _, err = run_cli(capsys, "operator", text)
    _assert_one_line_error(code, err)


def test_unwritable_json_out_exits_two(capsys, tmp_path):
    path = tmp_path / "missing" / "x.json"
    code, _, err = run_cli(capsys, "operator", "12", "--json-out", str(path))
    _assert_one_line_error(code, err)


def test_deeply_nested_tableau_json_exits_two(capsys):
    depth = 5000  # past the JSON decoder's recursion limit
    text = '{"rows": ' + "[" * depth + "]" * depth + "}"
    code, out, err = run_cli(capsys, "trace", text)
    _assert_one_line_error(code, err)
    assert err.startswith("error: bad tableau JSON: ") and out == ""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("argv", [
    ["operator", '{"rows": [[1]]}'],
    ["dims", "--n", "2", "--N", "2"],
    ["verify", "--n", "2", "--suite", "completeness"],
])
def test_json_out_on_a_full_device_exits_two(capsys, argv):
    code, _, err = run_cli(capsys, *argv, "--json-out", "/dev/full")
    assert code == 2
    # verify's stderr also carries its "# timing" lines
    assert [line for line in err.splitlines() if not line.startswith("#")] == [
        "error: cannot write /dev/full: No space left on device"]


def test_unwritable_json_out_exits_two_before_verify_runs(capsys, tmp_path):
    path = tmp_path / "missing" / "x.json"
    code, out, err = run_cli(capsys, "verify", "--n", "2",
                             "--json-out", str(path))
    _assert_one_line_error(code, err)
    assert out == ""


# Pieces of argv for the fuzz.  --n stays small or refused, so that no
# drawn argv starts minutes of work.  --max-n is no option of any
# subcommand; its pieces exercise the argparse refusal.
_N = [["--n", v] for v in ("-1", "0", "1", "2", "3", "8", "99")]
_TENSOR_N = [["--N", v] for v in ("-1", "0", "1", "2", "3", "99", "x")]
_TABLEAUX = [[t] for t in ["12", "12/3", "1/2/3", "21/3", "12//3", "", "abc",
                           '{"rows":[[1,2],[3]]}', '{"rows":[[1,2],[3]]',
                           '{"rows":[[1,2,3,4,5,6,7,8]]}', "{}", "null"]
             + MALFORMED_TABLEAUX]
_PIECES = (_N + _TENSOR_N + _TABLEAUX
           + [["--max-n", v] for v in ("-1", "0", "3")]
           + [["--suite", v] for v in ("tensor", "traces", "partial-trace",
                                       "completeness", "nope")]
           + [["--kind", v] for v in ("conventional", "hermitian", "other")]
           + [["--json-out", v] for v in (os.devnull, ".")]
           + [["--n"], ["--help"], ["--bogus"], ["-"], ["--"]])


@st.composite
def fuzz_argv(draw):
    """A subcommand, usually with its required arguments, and up to three
    more pieces, in any order."""
    command = draw(st.sampled_from(["tableaux", "operator", "trace", "dims",
                                    "verify", "nope"]))
    pieces = []
    if draw(st.integers(0, 4)):  # required arguments, most of the time
        if command in ("operator", "trace"):
            pieces.append(draw(st.sampled_from(_TABLEAUX)))
        else:
            pieces.append(draw(st.sampled_from(_N)))
        if command == "dims":
            pieces.append(draw(st.sampled_from(_TENSOR_N)))
    pieces += draw(st.lists(st.sampled_from(_PIECES), max_size=3))
    return [command] + [tok for piece in draw(st.permutations(pieces))
                        for tok in piece]


@settings(max_examples=200, deadline=None)
@given(fuzz_argv())
def test_cli_argv_fuzz_exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: usage errors and --help
            code = exc.code
    err = err.getvalue()
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err, argv
    if code == 2:
        lines = err.splitlines()
        assert re.match(r"(youngops[\w -]*: )?error: ", lines[-1]), argv
        assert sum("error:" in line for line in lines) == 1, argv
