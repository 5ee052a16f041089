import json
import os
import warnings

import numpy as np
import pytest

from cauchykit import (RealLineFunction, SingularityPrescription,
                       catalog_function, hilbert_complementary, hilbert_line,
                       hilbert_line_inverse)
from cauchykit import cli
from cauchykit.cli import SUITES, main, parse_boundary_file
from cauchykit.errors import ParseError


def write_boundary_file(path, func, n=256):
    th = -np.pi + 2.0 * np.pi * np.arange(n) / n
    vals = func(np.exp(1j * th))
    with open(path, "w") as fh:
        for t, v in zip(th, vals):
            fh.write(f"{t:.16e} {v.real:.16e} {v.imag:.16e}\n")
    return path


class TestVerify:
    def test_all_suites_pass(self, tmp_path):
        for suite in SUITES:
            out = tmp_path / f"{suite}.csv"
            code = main(["verify", suite, "--out", str(out)])
            assert code == 0, f"suite {suite} failed"
            lines = out.read_text().strip().splitlines()
            assert lines[0] == "check,residual,tolerance,pass"
            assert all(row.endswith(",1") for row in lines[1:])

    def test_unknown_suite_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "bogus"])
        assert exc.value.code == 2

    def test_forced_failure_exits_1(self, tmp_path):
        out = tmp_path / "fail.csv"
        code = main(["verify", "integral-theorems", "--tol", "1e-30",
                     "--out", str(out)])
        assert code == 1
        assert any(row.endswith(",0")
                   for row in out.read_text().strip().splitlines()[1:])

    def test_json_format(self, tmp_path):
        out = tmp_path / "rep.json"
        code = main(["verify", "hilbert", "--format", "json", "--out",
                     str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["schema"] == "cauchy-kit/1"
        assert doc["all_pass"] is True
        assert any(c["check"] == "parseval-line" for c in doc["checks"])

    def test_deterministic_for_fixed_seed(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["verify", "convergence", "--seed", "42", "--out", str(a)])
        main(["verify", "convergence", "--seed", "42", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


# 64 nodes resolve the targets of these suites, 0.1 and 0.15 from the unit
# circle, only to ~1e-3 and ~1e-5: they report failed rows, not an error
COARSE_FAILS = ("convergence", "direct-problem")


@pytest.mark.parametrize("suite", SUITES)
def test_every_suite_reads_n(capsys, suite):
    code = main(["verify", suite, "--n", "64"])
    coarse = capsys.readouterr()
    assert code == (1 if suite in COARSE_FAILS else 0)
    assert coarse.err == ""
    assert main(["verify", suite]) == 0
    default = capsys.readouterr().out
    ids = [row.split(",")[0] for row in default.splitlines()]
    assert [row.split(",")[0] for row in coarse.out.splitlines()] == ids
    assert coarse.out != default


class TestAirfoil:
    def test_scalars(self, tmp_path):
        out = tmp_path / "air.json"
        code = main(["airfoil", "--u", "1.0", "--alpha",
                     str(np.pi / 6.0), "--rho", "1.0", "--format", "json",
                     "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["scalars"]["circulation"] == pytest.approx(np.pi)
        assert doc["scalars"]["lift_magnitude"] == pytest.approx(np.pi)
        assert len(doc["chord_table"]["x"]) == 128

    def test_zero_incidence_table(self, tmp_path):
        out = tmp_path / "air0.json"
        assert main(["airfoil", "--alpha", "0.0", "--format", "json",
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["scalars"]["circulation"] == 0.0
        assert max(abs(v) for v in doc["chord_table"]["gamma"]) == 0.0
        assert max(abs(v) for v in doc["chord_table"]["dp"]) == 0.0

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["airfoil", "--out", str(a)])
        main(["airfoil", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_invalid_physics_exits_2(self):
        assert main(["airfoil", "--alpha", "2.0"]) == 2
        assert main(["airfoil", "--u", "-1.0"]) == 2


class TestProbe:
    def test_recovers_exterior_pole(self, tmp_path):
        data = write_boundary_file(tmp_path / "pole.txt",
                                   lambda t: 1.0 / (t - 2.0))
        out = tmp_path / "probe.json"
        assert main(["probe", str(data), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        (loc,) = doc["report"]["locations"]
        assert abs(complex(loc[0], loc[1]) - 2.0) < 1e-4
        assert doc["report"]["poles_asserted"] is True

    def test_coeffs_is_the_coefficient_count(self, tmp_path):
        data = write_boundary_file(tmp_path / "pole.txt",
                                   lambda t: 1.0 / (t - 2.0))
        for argv, used in (([], 64), (["--coeffs", "20"], 20)):
            out = tmp_path / "probe.json"
            assert main(["probe", str(data), "--out", str(out)] + argv) == 0
            report = json.loads(out.read_text())["report"]
            assert report["coefficients_used"] == used

    def test_explicit_degrees(self, tmp_path):
        data = write_boundary_file(
            tmp_path / "two.txt", lambda t: 1.0 / (t - 2.0) + 1.0 / (t + 3j))
        out = tmp_path / "probe2.json"
        assert main(["probe", str(data), "--degrees", "1", "2", "--out",
                     str(out)]) == 0
        doc = json.loads(out.read_text())
        locs = sorted(abs(complex(*p)) for p in doc["report"]["locations"])
        assert locs == pytest.approx([2.0, 3.0], abs=1e-3)

    def test_constant_input_empty_pole_list(self, tmp_path):
        data = write_boundary_file(tmp_path / "const.txt",
                                   lambda t: np.ones_like(t))
        out = tmp_path / "probec.json"
        assert main(["probe", str(data), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["report"]["locations"] == []

    def test_rank_deficient_branch_fit_writes_json(self, tmp_path):
        # the Hankel fit of this branch density is rank-deficient; the
        # report must still serialize, and a branch asserts no poles
        f = catalog_function(SingularityPrescription("algebraic-branch", 2.5))
        data = write_boundary_file(tmp_path / "branch.txt", f, n=256)
        out = tmp_path / "probeb.json"
        assert main(["probe", str(data), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["report"]["poles_asserted"] \
            is False

    def test_malformed_rows_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("0.0 1.0 0.0\n0.1 broken\n")
        assert main(["probe", str(bad)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_truncated_file_exits_2(self, tmp_path):
        data = write_boundary_file(tmp_path / "short.txt",
                                   lambda t: 1.0 / (t - 2.0), n=6)
        assert main(["probe", str(data)]) == 2

    def test_non_equispaced_rejected(self, tmp_path):
        bad = tmp_path / "uneven.txt"
        rows = [f"{th:.6f} 1.0 0.0" for th in np.linspace(-3.0, 3.0, 16)]
        bad.write_text("\n".join(rows) + "\n")
        assert main(["probe", str(bad)]) == 2


class TestTransform:
    def test_circular_sin_to_cos(self, tmp_path, capsys):
        data = tmp_path / "sin.txt"
        n = 64
        th = -np.pi + 2.0 * np.pi * np.arange(n) / n
        data.write_text("".join(f"{t:.16e} {np.sin(t):.16e} 0.0\n"
                                for t in th))
        assert main(["transform", str(data), "--kind", "circular"]) == 0
        out = capsys.readouterr().out
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        got = np.array([float(r[1]) for r in rows])
        assert np.max(np.abs(got - np.cos(th))) < 1e-10

    def test_json_output(self, tmp_path):
        data = tmp_path / "cos.txt"
        n = 64
        th = -np.pi + 2.0 * np.pi * np.arange(n) / n
        data.write_text("".join(f"{t:.16e} {np.cos(t):.16e} 0.0\n"
                                for t in th))
        out = tmp_path / "tr.json"
        assert main(["transform", str(data), "--kind", "circular-inverse",
                     "--format", "json", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["schema"] == "cauchy-kit/1"
        got = np.asarray(doc["values"])
        assert np.max(np.abs(got - np.sin(th))) < 1e-10


@pytest.mark.parametrize("kind,op", [
    ("line", hilbert_line), ("line-inverse", hilbert_line_inverse),
    ("line-complementary", hilbert_complementary)])
def test_line_kinds_echo_the_library(tmp_path, kind, op):
    # the CLI returns the library's line transform of its own
    # RealLineFunction (the interpolated column, zero outside the samples)
    # at 0.9 theta, byte-identically across runs and without a warning
    n = 256
    th = -np.pi + 2.0 * np.pi * np.arange(n) / n
    col = -0.7 / (th ** 2 + 0.49)
    data = tmp_path / "line.txt"
    data.write_text("".join(f"{t:.17g} {c:.17g} 0.0\n"
                            for t, c in zip(th, col)))
    outs = [tmp_path / "a.json", tmp_path / "b.json"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for out in outs:
            assert main(["transform", str(data), "--kind", kind,
                         "--format", "json", "--out", str(out)]) == 0
        want = op(RealLineFunction(
            lambda x: np.interp(x, th, col, left=0.0, right=0.0),
            decay=2.0, window=float(np.max(np.abs(th)))), 0.9 * th)
    assert outs[0].read_bytes() == outs[1].read_bytes()
    doc = json.loads(outs[0].read_text())
    assert np.max(np.abs(np.asarray(doc["values"]) - want.values)) <= 1e-12
    assert want.grid_size <= 256

# each subcommand accepts only the options it reads


@pytest.mark.parametrize("command,option,value", [
    ("probe", "--n", "64"), ("probe", "--seed", "1"), ("probe", "--tol", "1e-3"),
    ("probe", "--format", "csv"), ("transform", "--n", "64"),
    ("transform", "--seed", "1"), ("transform", "--tol", "1e-3"),
    ("airfoil", "--seed", "1"), ("airfoil", "--tol", "1e-3"),
])
def test_unread_option_exits_2(tmp_path, capsys, command, option, value):
    data = write_boundary_file(tmp_path / "pole.txt",
                               lambda t: 1.0 / (t - 2.0), n=32)
    argv = [command] + ([str(data)] if command != "airfoil" else [])
    with pytest.raises(SystemExit) as exc:
        main(argv + [option, value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {option}" in capsys.readouterr().err


@pytest.mark.parametrize("option,value", [("--n", "7"), ("--tol", "0"),
                                          ("--tol", "nan"), ("--tol", "inf")])
def test_bad_value_is_usage_error_naming_option(capsys, option, value):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "hilbert", option, value])
    assert exc.value.code == 2
    assert f"argument {option}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["--coeffs", "-5"], ["--coeffs", "0"], ["--coeffs", "two"],
    ["--degrees", "-1", "1"], ["--degrees", "0", "0"], ["--degrees", "1", "-2"],
])
def test_bad_probe_counts_are_usage_errors(tmp_path, capsys, argv):
    data = write_boundary_file(tmp_path / "pole.txt",
                               lambda t: 1.0 / (t - 2.0), n=32)
    with pytest.raises(SystemExit) as exc:
        main(["probe", str(data)] + argv)
    assert exc.value.code == 2
    assert f"argument {argv[0]}" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["nan", "inf", "-inf", "NaN"])
@pytest.mark.parametrize("command", [["probe"],
                                     ["transform", "--kind", "circular"]])
def test_non_finite_field_is_a_parse_error(tmp_path, capsys, field, command):
    data = write_boundary_file(tmp_path / "pole.txt",
                               lambda t: 1.0 / (t - 2.0), n=32)
    rows = data.read_text().splitlines()
    rows[4] = rows[4].rsplit(" ", 1)[0] + " " + field
    data.write_text("\n".join(rows) + "\n")
    assert main([command[0], str(data)] + command[1:]) == 2
    assert "line 5" in capsys.readouterr().err
    with pytest.raises(ParseError):
        parse_boundary_file(str(data))


def test_probe_help_lists_no_format(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["probe", "--help"])
    assert exc.value.code == 0
    help_text = capsys.readouterr().out
    assert "--out" in help_text and "--format" not in help_text


def test_parse_boundary_file_roundtrip(tmp_path):
    path = write_boundary_file(tmp_path / "ok.txt", lambda t: t ** 2, n=32)
    thetas, samples = parse_boundary_file(str(path))
    assert thetas.size == 32
    assert np.allclose(samples, np.exp(1j * thetas) ** 2)
    with pytest.raises(ParseError):
        parse_boundary_file(str(tmp_path / "missing.txt"))


# the JSON writer: json.dumps(doc, indent=2, sort_keys=True) byte for byte,
# with the stdlib's pure-Python encoder made to fail, so that no document
# can fall back to it unnoticed


def _no_python_encoder(*args, **kwargs):
    raise AssertionError("the pure-Python JSON encoder ran")


def _json_argv(tmp_path):
    data = str(write_boundary_file(
        tmp_path / "two.txt", lambda t: 1.0 / (t - 2.0) + 1.0 / (t + 3j), n=64))
    return ([["verify", suite, "--n", "64", "--format", "json"]
             for suite in SUITES]
            + [["airfoil", "--n", n, "--format", "json"]
               for n in ("64", "128", "256")]
            + [["probe", data], ["probe", data, "--degrees", "1", "2"]]
            + [["transform", data, "--kind", kind, "--format", "json"]
               for kind in cli.TRANSFORM_KINDS])


def test_every_json_document_is_written_as_json_dumps(tmp_path, monkeypatch,
                                                      capsys):
    docs, emit_json = [], cli._emit_json
    monkeypatch.setattr(cli, "_emit_json",
                        lambda doc, out: docs.append(doc) or emit_json(doc, out))
    written = []
    with monkeypatch.context() as m:
        m.setattr(json.encoder, "_make_iterencode", _no_python_encoder)
        for argv in _json_argv(tmp_path):
            assert main(argv) in (0, 1)
            written.append(capsys.readouterr().out)
    assert len(docs) == len(written) == 6 + 3 + 2 + len(cli.TRANSFORM_KINDS)
    for doc, text in zip(docs, written):
        assert text == json.dumps(doc, indent=2, sort_keys=True) + "\n"


class Real(float):
    pass


@pytest.mark.parametrize("doc", [
    [float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 5e-324,
     1.7976931348623157e308, 1e-7, 1e16, 0.1],
    {"nan": float("nan"), "inf": [float("inf")], "neg": -float("inf")},
    [], {}, [[]], {"a": {}}, [[], {}, [1.0]],
    [[1.0, 2.5], [[3.0], [-0.0, []]], {"x": [0.5, 0.25]}],
    (1.0, 2.0), {"t": (1.5, (2.5, 3.5), ())},
    {"naïve": "Δ → ∞", "ключ": ["é, ü", "a, b\n\"c\"", "\u2028"]},
    [np.float64(1.5), np.float64(-0.0), np.float64("nan"), 2.0],
    {"f64": np.float64(0.1), "sub": [Real(2.5), Real(3.0)]},
    [True, False, None, 1, -2, 10 ** 30], [1, 2.0, 3, 4.5], [0, 1],
    {"b": True, "n": None, "i": 3, "s": "", "f": 1.0},
    {"z": 1, "a": 2, "m": {"y": [1.0], "b": [2.0, 3.0]}},
    {1: "int", 2: "keys"}, {1.5: "float", 0.5: "keys"}, {True: 1, False: 0},
    {None: [0.5]}, 1.0, float("nan"), -0.0, 3, "a, b", None, True,
], ids=repr)
def test_json_writer_matches_json_dumps_on_edge_documents(monkeypatch, doc):
    want = json.dumps(doc, indent=2, sort_keys=True)
    monkeypatch.setattr(json.encoder, "_make_iterencode", _no_python_encoder)
    assert cli._dumps(doc) == want


# the process's one parser carries nothing from one call to the next


def test_the_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_a_tolerance_override_does_not_persist(capsys):
    assert main(["verify", "integral-theorems", "--tol", "1e-30"]) == 1
    capsys.readouterr()
    assert main(["verify", "integral-theorems"]) == 0
    rows = [row.split(",") for row in capsys.readouterr().out.splitlines()[1:]]
    assert [(r[0], float(r[2])) for r in rows] == [
        (c.id, float(f"{c.tolerance:.6e}")) for c in cli.CHECKS
        if c.suite == "integral-theorems"]


def test_degrees_do_not_persist(tmp_path, capsys):
    data = str(write_boundary_file(
        tmp_path / "two.txt", lambda t: 1.0 / (t - 2.0) + 1.0 / (t + 3j), n=64))
    cli.build_parser.cache_clear()
    assert main(["probe", data]) == 0
    first = capsys.readouterr().out
    assert main(["probe", data, "--degrees", "1", "2"]) == 0
    assert capsys.readouterr().out != first
    assert main(["probe", data]) == 0
    assert capsys.readouterr().out == first


def test_a_usage_error_leaves_the_parser_usable(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "integral-theorems", "--tol", "0"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(["verify", "integral-theorems"]) == 0
    assert capsys.readouterr().out.startswith("check,residual,tolerance,pass")


# an --out path that cannot be written is a usage error, not a traceback


@pytest.mark.parametrize("where", ["missing-directory", "a-directory"])
@pytest.mark.parametrize("command", [
    ["verify", "integral-theorems"], ["airfoil"], ["probe", "DATA"],
    ["transform", "DATA", "--format", "json"]], ids=lambda argv: argv[0])
def test_unwritable_out_exits_2(tmp_path, capsys, command, where):
    data = str(write_boundary_file(tmp_path / "pole.txt",
                                   lambda t: 1.0 / (t - 2.0), n=32))
    out = tmp_path / "missing" / "x.out" if where == "missing-directory" \
        else tmp_path
    argv = [data if arg == "DATA" else arg for arg in command]
    assert main(argv + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {out}: ")
    assert not (tmp_path / "missing").exists()


@pytest.fixture
def residual_calls(monkeypatch):
    """The n of every registry residual call."""
    calls = []

    def counted(residual):
        def run(n, rng):
            calls.append(n)
            return residual(n, rng)
        return run
    monkeypatch.setattr(cli, "CHECKS", [
        c._replace(residual=counted(c.residual)) for c in cli.CHECKS])
    return calls


def deny_writes_in(monkeypatch, directory):
    """os.access as a user who may not create files in directory, whatever
    user the tests run as."""
    access = os.access
    monkeypatch.setattr(os, "access", lambda path, mode: os.fspath(
        path) != str(directory) and access(path, mode))


@pytest.mark.parametrize("where", ["missing-directory", "a-directory",
                                   "read-only-directory"])
def test_unwritable_out_is_refused_before_any_check_runs(
        tmp_path, capsys, monkeypatch, residual_calls, where):
    out = {"missing-directory": tmp_path / "missing" / "x.csv",
           "a-directory": tmp_path,
           "read-only-directory": tmp_path / "x.csv"}[where]
    before = sorted(tmp_path.rglob("*"))
    with monkeypatch.context() as patch:
        if where == "read-only-directory":
            deny_writes_in(patch, tmp_path)
        assert main(["verify", "plemelj", "--out", str(out)]) == 2
    assert residual_calls == []
    assert capsys.readouterr().err.startswith(f"error: cannot write {out}: ")
    assert sorted(tmp_path.rglob("*")) == before
    # a writable path runs the suite
    assert main(["verify", "integral-theorems", "--out",
                 str(tmp_path / "ok.csv")]) == 0
    assert residual_calls


@pytest.mark.parametrize("where", ["devnull", "file-in-read-only-directory"])
def test_writable_out_in_a_read_only_directory_is_written(
        tmp_path, capsys, monkeypatch, residual_calls, where):
    # writing an existing file needs permission on the file, not its directory
    out = os.devnull if where == "devnull" else tmp_path / "x.csv"
    if where != "devnull":
        out.write_text("old\n")
    deny_writes_in(monkeypatch, os.path.dirname(out))
    assert main(["verify", "integral-theorems", "--out", str(out)]) == 0
    assert residual_calls and capsys.readouterr() == ("", "")
    if where != "devnull":
        assert out.read_text().startswith("check,residual,tolerance,pass\n")
