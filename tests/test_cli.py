"""End-to-end tests for the command-line front end."""

import ast
import contextlib
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import delayw
from delayw import cli, sim
from delayw.cli import main, parse_complex
from delayw.errors import DomainError, NonFiniteInput
from delayw.lambertw import K_MAX
from delayw.spectrum import ClosedLoopParams, SpectrumRoot

from recipes import mp_root_error

BP = -0.36787944117144233  # closest double to -1/e


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


def source_env():
    """Environment under which a child interpreter imports the delayw
    these tests import, installed or not."""
    src = str(Path(delayw.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, env=source_env())
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout


def test_import_loads_no_dataclasses():
    # every record is a plain tuple subclass, so importing the package
    # leaves dataclasses and the inspect machinery behind it unloaded,
    # and builds no namedtuple: counted, not timed, so the check holds
    # on any machine
    code = ("import collections, sys; made = []; real = collections.namedtuple\n"
            "collections.namedtuple = lambda *a, **k: made.append(a[0]) or real(*a, **k)\n"
            "before = set(sys.modules); import delayw\n"
            "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)), made)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, check=True, text=True,
                          env=source_env())
    assert proc.stdout.strip() == "[] []"


def test_sources_parse_at_the_python_floor():
    # every module of the repository parses under the grammar of the
    # oldest Python that pyproject.toml admits
    floor = re.search(r'^requires-python\s*=\s*">=(\d+)\.(\d+)"', (ROOT / "pyproject.toml").read_text(), re.M)
    version = tuple(map(int, floor.groups()))
    paths = [path for folder in ("src", "tests", "bench", "demos") for path in sorted((ROOT / folder).rglob("*.py"))]
    assert len(paths) > 20
    for path in paths:
        ast.parse(path.read_text(), filename=str(path), feature_version=version)


# Fixed commands whose stdout, exit code and --out file must not change by
# a single byte.  The recorded outputs live in cli_golden.json; after an
# intended output change, rewrite it with
#     PYTHONPATH=src python tests/test_cli.py
# The floats come from the platform libm (exp, sin, cos), so the file
# pins one platform's results.  No printed value goes through sum(),
# whose float total is compensated from Python 3.12 on:
# test_goldens_do_not_depend_on_sum runs them under 3.12's algorithm.
_PLANT = ("--a", "1", "--a1d", "-1", "--b", "1", "--h", "1")
# a = u + v*cot(v*h) and a1d = -v*e^(u*h)/sin(v*h) for S = -0.5+1.5i, h = 1
_DELAY_PLANT = ("--a", "-0.3936277335460213", "--a1d", "0.3", "--b", "2", "--h", "1")
_CURRENT_PLANT = ("--a", "0.7", "--a1d", "-0.912080764101208", "--b", "2", "--h", "1")
_INPUT_PLANT = ("--a", "0", "--b", "1", "--h", "1", "--input-delay")
_OVERFLOW_PLANT = ("--a", "0", "--a1d", "1", "--b", "1", "--h", "1")
GOLDEN_COMMANDS = {
    "assign-both": ("assign", *_PLANT, "--target", "-0.092484+1.9973i", "--mode", "both"),
    "assign-both-parts": ("assign", *_PLANT, "--target-re", "-0.5", "--target-im", "1.5"),
    "assign-both-window": ("assign", *_PLANT, "--target", "-1+4i", "--mode", "both"),
    "assign-both-real-target": ("assign", *_PLANT, "--target", "-1", "--mode", "both"),
    "assign-delay-only": ("assign", *_DELAY_PLANT, "--target", "-0.5+1.5i", "--mode", "delay-only"),
    "assign-delay-only-real": ("assign", *_PLANT, "--target", "0.5", "--mode", "delay-only"),
    "assign-delay-only-condition": ("assign", *_PLANT, "--target", "-0.5+1.5i", "--mode", "delay-only"),
    "assign-delay-only-window": ("assign", *_DELAY_PLANT, "--target", "-0.5+3.5i", "--mode", "delay-only"),
    "assign-delay-only-real-bound": ("assign", *_PLANT, "--target", "-0.5", "--mode", "delay-only"),
    "assign-current-only": ("assign", *_CURRENT_PLANT, "--target", "-0.5+1.5i", "--mode", "current-only"),
    "assign-current-only-real": ("assign", *_PLANT, "--target", "0.5", "--mode", "current-only"),
    "assign-current-only-real-not-rightmost": ("assign", *_PLANT, "--target", "-1",
                                               "--mode", "current-only"),
    "assign-current-only-condition": ("assign", *_PLANT, "--target", "-0.5+1.5i", "--mode", "current-only"),
    "assign-current-only-window": ("assign", *_CURRENT_PLANT, "--target", "-0.5+3.5i",
                                   "--mode", "current-only"),
    "assign-real-both": ("assign", *_PLANT, "--target", "-1", "--mode", "real-both"),
    "assign-real-both-alpha": ("assign", *_PLANT, "--target-re", "-1", "--mode", "real-both",
                               "--alpha", "-1.5"),
    "assign-real-both-alpha-bound": ("assign", *_PLANT, "--target", "-1", "--mode", "real-both",
                                     "--alpha", "0.5"),
    "assign-real-both-complex-target": ("assign", *_PLANT, "--target", "-1+1i", "--mode", "real-both"),
    "assign-input-delay": ("assign", *_INPUT_PLANT, "--target", "0", "--mode", "input-delay"),
    "assign-input-delay-condition": ("assign", *_INPUT_PLANT, "--target", "1+2i", "--mode", "input-delay"),
    "assign-input-delay-on-direct-plant": ("assign", *_PLANT, "--target", "0", "--mode", "input-delay"),
    "assign-both-on-input-delay-plant": ("assign", *_INPUT_PLANT, "--target", "-1+1i", "--mode", "both"),
    # e^(u*h), e^(-u*h) or v*h past the double range
    "assign-both-overflow": ("assign", *_OVERFLOW_PLANT, "--target", "800+1i", "--mode", "both"),
    "assign-both-vh-overflow": ("assign", "--a", "0", "--a1d", "1", "--b", "1", "--h", "2",
                                "--target", "1e308i", "--mode", "both"),
    "assign-delay-only-overflow": ("assign", "--a", "0", "--a1d", "0", "--b", "1", "--h", "1",
                                   "--target", "800", "--mode", "delay-only"),
    "assign-current-only-overflow": ("assign", *_OVERFLOW_PLANT, "--target", "-800", "--mode", "current-only"),
    "assign-real-both-overflow": ("assign", *_OVERFLOW_PLANT, "--target", "800", "--mode", "real-both",
                                  "--alpha", "0"),
    # a finite design whose loop has alpha*h past the double range: no
    # confirming spectrum, but the design stands and exits 0
    "assign-current-only-confirmation-overflow": ("assign", "--a", "0", "--a1d", "1e299", "--b", "1",
                                                  "--h", "10", "--target", "-2", "--mode", "current-only"),
    "wk-branch-0-real": ("wk", "--branch", "0", "--re", "0.5"),
    "wk-branch-minus-1-real": ("wk", "--branch", "-1", "--re", "-0.2"),
    "wk-cut": ("wk", "--branch", "0", "--re", "-1"),
    "wk-off-axis": ("wk", "--branch", "2", "--re", "1", "--im", "3"),
    "wk-branch-1500": ("wk", "--branch", "1500", "--re", "1"),
    "wk-branch-past-k-max": ("wk", "--branch", "4294967297", "--re", "1"),
    "spectrum-json": ("spectrum", "--alpha", "-1", "--beta", "-2", "--h", "1", "--branches", "3"),
    "spectrum-csv": ("spectrum", "--alpha", "-1", "--beta", "-2", "--h", "1", "--branches", "3",
                     "--format", "csv"),
    "spectrum-coalescence": ("spectrum", *_PLANT),
    "spectrum-coalescence-csv": ("spectrum", *_PLANT, "--branches", "2", "--format", "csv"),
    "spectrum-overflow": ("spectrum", "--alpha=-300", "--beta=1", "--h=3"),
    "verify": ("verify", "--alpha", "-1", "--beta", "-2", "--h", "1", "--branches", "3"),
    "verify-mismatch": ("verify", "--alpha", "-1", "--beta", "-2", "--h", "1", "--branches", "3",
                        "--match-tol", "1e-300"),
    "verify-match-tol-nan": ("verify", "--alpha", "-1", "--beta", "-2", "--h", "1", "--match-tol", "nan"),
    "simulate-out": ("simulate", *_PLANT, "--k", "-2", "--k1d", "-1", "--tfinal", "10",
                     "--step", "0.05", "--out", "traj.csv"),
    "simulate-estimate": ("simulate", "--alpha", "-1", "--beta", "-2", "--h", "1", "--tfinal", "40"),
    # zero initial data excites no mode, so there is no estimate to report
    "simulate-zero": ("simulate", "--alpha", "-1", "--beta", "-2", "--h", "1", "--tfinal", "10",
                      "--x0", "0"),
    # grows until the overflow limit stops it at t = 472
    "simulate-truncated": ("simulate", "--alpha", "1", "--beta", "2", "--h", "1", "--tfinal", "800",
                           "--step", "0.5"),
    # a stable loop (rightmost root -12.2) at alpha*step = -100, past
    # RK4's real-axis stability limit: the integrator blows up, and a
    # warning says so
    "simulate-stiff": ("simulate", "--alpha=-1e5", "--beta", "0.5", "--h", "1", "--tfinal", "2"),
    # a subnormal delay: the trajectory and its estimate stand, but the
    # branch -1 root passes the double range, so there is no prediction
    "simulate-prediction-unavailable": ("simulate", "--alpha", "-1", "--beta", "-2", "--h", "1e-310",
                                        "--tfinal", "1e-309"),
}
GOLDEN = Path(__file__).with_name("cli_golden.json")


def golden_run(argv):
    """Exit code, stdout and the --out file's text of one command, run in
    the current directory."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    out = Path(argv[argv.index("--out") + 1]).read_text() if "--out" in argv else None
    return {"exit": code, "stdout": buf.getvalue(), "out": out}


@pytest.mark.parametrize("name", GOLDEN_COMMANDS)
def test_golden_output(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    expected = json.loads(GOLDEN.read_text())[name]
    assert golden_run(GOLDEN_COMMANDS[name]) == expected


def neumaier_sum(items, start=0):
    """sum() as CPython 3.12 adds floats: Neumaier's compensated sum,
    whose compensation is left out where it is not finite, so that an
    overflowed total stays inf rather than turning NaN."""
    total, comp = start, 0.0
    for x in items:
        if type(total) is float and type(x) is float:
            t = total + x
            comp += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
            total = t
        else:
            total = total + x
    return total + comp if comp and math.isfinite(comp) else total


def test_goldens_do_not_depend_on_sum(tmp_path, monkeypatch):
    # every golden reads the same where sim's sum() compensates, as from
    # Python 3.12 on
    assert (neumaier_sum([1.0, 1e100, 1.0, -1e100]), sum([1.0, 1e100, 1.0, -1e100])) == (2.0, 0.0)
    assert neumaier_sum([1e308, 1e308, -1e308]) == math.inf
    calls = []
    monkeypatch.setattr(sim, "sum", lambda *args: calls.append(1) or neumaier_sum(*args), raising=False)
    monkeypatch.chdir(tmp_path)
    expected = json.loads(GOLDEN.read_text())
    assert len(expected) == len(GOLDEN_COMMANDS) == 48
    for name, argv in GOLDEN_COMMANDS.items():
        assert golden_run(argv) == expected[name], name
    assert calls


def test_readme_commands_run(tmp_path, monkeypatch):
    # every line of the README's command-line example exits 0
    block = README.read_text().split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("delayw ")]
    assert len(lines) == 8
    monkeypatch.chdir(tmp_path)
    for line in lines:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(shlex.split(line, comments=True)[1:]) == 0, line


def test_every_float_flag_takes_a_negative_value(capsys, monkeypatch):
    # argparse reads a dash-led token that is not a plain decimal as an
    # option; a value like -1e-1 must still reach every float flag
    # and so must a unique prefix of the flag, as argparse abbreviates
    (sub,) = cli._build_parser()._subparsers._group_actions
    seen, abbreviated = set(), set()
    for command, p in sub.choices.items():
        monkeypatch.setattr(cli, f"cmd_{command}", lambda args: ({}, []))
        required = [opt for act in p._actions if act.required for opt in (act.option_strings[0], "1")]
        for act in p._actions:
            if act.type is float:
                flag = act.option_strings[0]
                prefixes = [flag[:n] for n in range(3, len(flag)) if flag[:n] not in p._option_string_actions
                            and [opt for opt in p._option_string_actions if opt.startswith(flag[:n])] == [flag]]
                for name in (flag, *prefixes):
                    code, env = run_json(capsys, command, *required, name, "-1e-1")
                    assert (code, env["inputs"][act.dest]) == (0, -0.1), (command, name)
                seen.add(flag)
                abbreviated.update(prefixes[:1])
    assert seen == {"--a", "--a1d", "--b", "--k", "--k1d", "--alpha", "--beta", "--h", "--re", "--im",
                    "--target-re", "--target-im", "--match-tol", "--x0", "--tfinal", "--step"}
    assert abbreviated == {"--a1", "--k1", "--al", "--be", "--r", "--i", "--target-r", "--target-i",
                           "--m", "--x", "--t", "--s"}
    code, env = run_json(capsys, "spectrum", "--alp", "-1e-1", "--beta", "-2", "--h", "1")
    assert (code, env["inputs"]["alpha"], env["inputs"]["beta"]) == (0, -0.1, -2.0)
    # a prefix of several flags stays argparse's error, value or not
    for argv in (["assign", "--a", "1", "--b", "1", "--h", "1", "--targ", "-1+2i"],
                 ["assign", "--a", "1", "--b", "1", "--h", "1", "--target-", "-1"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"ambiguous option: {argv[-2]} could match" in capsys.readouterr().err
    # dash-led values of the other flags keep their meaning; -h is never a value
    code, env = run_json(capsys, "assign", "--a", "1", "--b", "1", "--h", "1", "--target", "-i")
    assert env["inputs"]["target"] == "-i"
    code, env = run_json(capsys, "simulate", "--alpha", "1", "--beta", "1", "--h", "1", "--tfinal", "1",
                         "--out", "-", "--x0", "-2")
    assert (env["inputs"]["out"], env["inputs"]["x0"]) == ("-", -2.0)
    code, env = run_json(capsys, "wk", "--branch", "-1", "--re", "-1e-1")
    assert (env["inputs"]["branch"], env["inputs"]["re"]) == (-1, -0.1)
    for flag, argv in (("--target", ["assign", "--a", "1", "--b", "1", "--h", "1", "--target", "-h"]),
                       ("--alpha", ["spectrum", "--alpha", "--beta", "-2", "--h", "1"])):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"{flag}: expected one argument" in capsys.readouterr().err
    # a flag that takes no value is left alone
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--help", "-1e-1"])
    assert exc.value.code == 0


def test_no_single_dash_option_but_help():
    # a subcommand reads any token with one leading minus as a value,
    # which holds only while -h is its one single-dash option
    (sub,) = cli._build_parser()._subparsers._group_actions
    for command, p in sub.choices.items():
        short = [opt for act in p._actions for opt in act.option_strings if opt[:2] != "--"]
        assert short == ["-h"], command


def test_stray_and_dash_led_tokens(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    loop = ("--alpha", "-1", "--beta", "-2", "--h", "1")
    # a stray token is argparse's error, after the subcommand or before it
    for argv, message in ((["spectrum", *loop, "-x"], "unrecognized arguments: -x"),
                          (["-x", "spectrum", *loop], "unrecognized arguments: -x"),
                          (["spectrum", "-x", *loop], "unrecognized arguments: -x"),
                          (["spectrum", *loop, "--x"], "unrecognized arguments: --x")):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
    # a dash-led path is a value; one led by -h is read as -h, so it
    # takes the --out=<path> spelling
    for flag, path in (("--out", "-x.csv"), ("--ou", "-"), ("--out=-h.csv", None)):
        argv = ["simulate", *loop, "--tfinal", "2", flag, *([path] if path else [])]
        code, env = run_json(capsys, *argv)
        written = path or flag.split("=", 1)[1]
        assert (code, env["inputs"]["out"]) == (0, written)
        assert (tmp_path / written).read_text().startswith("t,x\n")
    with pytest.raises(SystemExit) as exc:
        main(["simulate", *loop, "--tfinal", "2", "--out", "-h.csv"])
    assert exc.value.code == 2
    assert "argument --out: expected one argument" in capsys.readouterr().err


class TestParseComplex:
    def test_forms(self):
        assert parse_complex("-1") == -1.0
        assert parse_complex("2i") == 2j
        assert parse_complex("-i") == -1j
        assert parse_complex("1+j") == 1 + 1j
        assert parse_complex(" -0.5 + 1.25e-1i ") == complex(-0.5, 0.125)
        assert parse_complex("1e-2-2.5e+1I") == complex(0.01, -25.0)

    def test_rejects(self):
        for bad in ("", "1+2x", "i2", "1++2i", "nan+nani"):
            with pytest.raises((DomainError, NonFiniteInput)):
                parse_complex(bad)
        # an exponent needs digits: these are no literal of the grammar
        for bad in ("1e+i", "1e-i", "-1e+i", "1E+J"):
            with pytest.raises(DomainError):
                parse_complex(bad)
        # an infinity in any spelling complex() takes is a finiteness
        # error, as NaN is, not a parse error
        for bad in ("inf", "-inf", "Infinity", "1+infi", "nan"):
            with pytest.raises(NonFiniteInput, match="complex literal must be finite"):
                parse_complex(bad)

    @settings(max_examples=300, deadline=None)
    @given(re_=st.floats(allow_nan=False, allow_infinity=False),
           im=st.floats(allow_nan=False, allow_infinity=False),
           form=st.sampled_from(("re", "im", "both")),
           fmt=st.sampled_from((repr, "%.17g".__mod__, "%.16e".__mod__)),
           unit=st.sampled_from("ijIJ"),
           pad=st.sampled_from(("", " ")))
    def test_round_trip(self, re_, im, form, fmt, unit, pad):
        # a finite complex written in any documented spelling parses
        # back to itself exactly
        if form == "re":
            text, im = fmt(re_), 0.0
        elif form == "im":
            text, re_ = fmt(im) + unit, 0.0
        else:
            sign = "-" if math.copysign(1.0, im) < 0 else "+"
            text = fmt(re_) + pad + sign + pad + fmt(abs(im)) + unit
        assert parse_complex(pad + text + pad) == complex(re_, im)


class TestEnvelope:
    def test_schema_and_echo(self, capsys):
        code, env = run_json(capsys, "wk", "--branch", "0", "--re", "0.5")
        assert code == 0
        assert env["schema_version"] == "1"
        assert env["command"] == "wk"
        assert env["warnings"] == []
        assert env["inputs"]["branch"] == 0
        assert env["inputs"]["re"] == 0.5
        assert set(env) == {"schema_version", "command", "inputs", "result", "warnings"}

    def test_determinism_byte_identical(self):
        argv = [sys.executable, "-m", "delayw", "spectrum",
                "--alpha", "-1", "--beta", "-2", "--h", "1", "--branches", "3"]
        first = subprocess.run(argv, capture_output=True, check=True, env=source_env()).stdout
        second = subprocess.run(argv, capture_output=True, check=True, env=source_env()).stdout
        assert first == second
        json.loads(first)

    def test_console_script(self):
        # the `delayw` command is the [project.scripts] entry point; launch
        # that entry point the way the installed wrapper does, without
        # needing an install
        pyproject = (ROOT / "pyproject.toml").read_text()
        scripts = pyproject.split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
        assert re.search(r'^delayw\s*=\s*"delayw\.cli:main"\s*$', scripts, re.M)
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from delayw.cli import main; sys.exit(main())",
             "wk", "--branch", "0", "--re", "1"],
            capture_output=True, env=source_env(),
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["command"] == "wk"

    def test_seventeen_digit_floats(self, capsys):
        code, out = run_cli(capsys, "wk", "--branch", "1", "--re", str(BP))
        # shortest repr would end ...044; the fixed format keeps 17 digits
        assert '"re": -3.088843015613044' in out


class TestWk:
    def test_branch_point_exact(self, capsys):
        code, env = run_json(capsys, "wk", "--branch", "0", "--re", str(BP), "--im", "0")
        assert code == 0
        assert env["result"]["w"] == {"re": -1.0, "im": 0.0}

    def test_branch_point_printed_decimal(self, capsys):
        # the 16-digit decimal is one ulp off the true branch point, so
        # w sits sqrt-of-that away from -1
        code, env = run_json(capsys, "wk", "--branch", "0",
                             "--re", "-0.3678794411714423", "--im", "0")
        assert code == 0
        w = complex(env["result"]["w"]["re"], env["result"]["w"]["im"])
        assert abs(w + 1.0) <= 1e-7
        assert env["result"]["residual"] <= 1e-13

    def test_branch_one_at_cut(self, capsys):
        code, env = run_json(capsys, "wk", "--branch", "1", "--re", str(BP), "--im", "0")
        w = complex(env["result"]["w"]["re"], env["result"]["w"]["im"])
        assert abs(w - complex(-3.08884, 7.46149)) <= 5e-5
        assert env["result"]["iterations"] >= 0

    def test_branch_out_of_range(self, capsys):
        code, env = run_json(capsys, "wk", "--branch", str(K_MAX + 1), "--re", "1")
        assert code == 2
        assert env["result"]["error"] == "BranchOutOfRange"

    def test_nonfinite_input(self, capsys):
        code, env = run_json(capsys, "wk", "--branch", "0", "--re", "inf")
        assert code == 2

    def test_no_tol_flag(self, capsys):
        # the kernel always runs at full double precision, so a tolerance
        # would change nothing but its own echo
        with pytest.raises(SystemExit) as exc:
            main(["wk", "--branch", "0", "--re", "1", "--tol", "1e-10"])
        assert exc.value.code == 2


TABLE2_MIDDLE = [
    complex(-0.092484, 1.99730), complex(-1.36300, 7.80750),
    complex(-1.95315, 14.0695), complex(-2.32231, 20.3555),
]


class TestSpectrum:
    def test_plant_gain_form_matches_printed_roots(self, capsys):
        code, env = run_json(capsys, "spectrum", "--a", "1", "--a1d", "-1", "--b", "1",
                             "--h", "1", "--k", "-2", "--k1d", "-1", "--branches", "4")
        assert code == 0
        roots = [complex(r["re"], r["im"]) for r in env["result"]["roots"]]
        assert len(roots) == 2 * 4 + 2
        for ref in TABLE2_MIDDLE:
            assert min(abs(r - ref) for r in roots) <= 5e-4
            assert min(abs(r - ref.conjugate()) for r in roots) <= 5e-4
        assert env["result"]["stable"] is True
        assert env["result"]["margin"] == pytest.approx(-0.092484, abs=5e-4)

    def test_delay_free(self, capsys):
        code, env = run_json(capsys, "spectrum", "--alpha", "-1", "--beta", "0", "--h", "1")
        assert code == 0
        assert env["result"]["roots"] == [
            {"branch": 0, "re": -1.0, "im": 0.0, "multiplicity": 1}]
        assert env["result"]["margin"] == -1.0

    def test_coalescent_open_loop(self, capsys):
        # a=1, a1d=-1, b=1 open loop sits exactly at the branch point
        code, env = run_json(capsys, "spectrum", "--a", "1", "--a1d", "-1", "--b", "1",
                             "--h", "1", "--branches", "3")
        assert code == 0
        top = env["result"]["roots"][0]
        assert top == {"branch": 0, "re": 0.0, "im": 0.0, "multiplicity": 2}
        roots = [complex(r["re"], r["im"]) for r in env["result"]["roots"]]
        assert min(abs(r - complex(-2.08880, 7.46150)) for r in roots) <= 5e-4
        assert env["result"]["stable"] is False

    def test_csv_format(self, capsys):
        code, out = run_cli(capsys, "spectrum", "--a", "1", "--a1d", "-1", "--b", "1",
                            "--h", "1", "--branches", "2", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "branch,re,im,multiplicity"
        assert lines[1] == "0,0,0,2"
        assert len(lines) == 6
        for line in lines[1:]:
            branch, re, im, mult = line.split(",")
            int(branch), float(re), float(im), int(mult)

    def test_w_argument_overflow(self, capsys):
        # z = 3e390 is past the largest double; the printed roots come
        # from Log z and agree with 60-digit mpmath to a few ulps
        code, env = run_json(capsys, "spectrum", "--alpha=-300", "--beta=1", "--h=3")
        assert code == 0
        roots = env["result"]["roots"]
        assert sorted(r["branch"] for r in roots) == list(range(-4, 5))
        got = [SpectrumRoot(r["branch"], complex(r["re"], r["im"])) for r in roots]
        assert mp_root_error(ClosedLoopParams(-300.0, 1.0, 3.0), got, floor=0) <= 5e-14
        assert env["result"]["stable"] is True
        assert env["result"]["margin"] == roots[0]["re"]

    def test_mixed_forms_rejected(self, capsys):
        code, env = run_json(capsys, "spectrum", "--alpha", "-1", "--beta", "0",
                             "--a", "1", "--h", "1")
        assert code == 2
        code, env = run_json(capsys, "spectrum", "--a", "1", "--b", "1", "--h", "1")
        assert code == 2
        code, env = run_json(capsys, "spectrum", "--alpha", "-1", "--h", "1")
        assert code == 2


class TestAssign:
    def test_table_gains(self, capsys):
        cases = [
            ("-0.092484+1.9973i", "both", -2.0, -1.0),
            ("-0.60502+1.7882i", "both", -2.0, 0.0),
            ("-1", "real-both", -2.0, 1.0),
        ]
        for target, mode, k, k1d in cases:
            code, env = run_json(capsys, "assign", "--a", "1", "--a1d", "-1", "--b", "1",
                                 "--h", "1", "--target", target, "--mode", mode)
            assert code == 0
            assert env["result"]["gains"]["k"] == pytest.approx(k, abs=1e-4)
            assert env["result"]["gains"]["k1d"] == pytest.approx(k1d, abs=1e-4)
            assert env["result"]["confirmation"]["distance_to_target"] <= 1e-8

    def test_target_re_im_flags(self, capsys):
        code_a, env_a = run_json(capsys, "assign", "--a", "1", "--a1d", "-1", "--b", "1",
                                 "--h", "1", "--target", "-0.5+1.5i")
        code_b, env_b = run_json(capsys, "assign", "--a", "1", "--a1d", "-1", "--b", "1",
                                 "--h", "1", "--target-re", "-0.5", "--target-im", "1.5")
        assert code_a == code_b == 0
        assert env_a["result"]["gains"] == env_b["result"]["gains"]

    def test_input_delay_infeasible(self, capsys):
        code, env = run_json(capsys, "assign", "--a", "0", "--b", "1", "--h", "1",
                             "--input-delay", "--target", "1+2i", "--mode", "input-delay")
        assert code == 3
        assert env["result"]["error"] == "ConditionViolated"
        assert abs(env["result"]["residual"]) == pytest.approx(
            abs(1.0 + 2.0 / math.tan(2.0)), abs=1e-12)

    def test_window_violation_payload(self, capsys):
        code, env = run_json(capsys, "assign", "--a", "1", "--a1d", "-1", "--b", "1",
                             "--h", "1", "--target", "-1+4i", "--mode", "both")
        assert code == 3
        res = env["result"]
        assert res["error"] == "NotAssignableAsRightmost"
        assert "would_be_gains" in res and "would_be_closed_loop" in res
        assert res["admissible_v"] == [0.0, pytest.approx(math.pi)]

    def test_missing_target(self, capsys):
        code, env = run_json(capsys, "assign", "--a", "1", "--a1d", "-1", "--b", "1",
                             "--h", "1")
        assert code == 2

    def test_bad_target_literal(self, capsys):
        code, env = run_json(capsys, "assign", "--a", "1", "--a1d", "-1", "--b", "1",
                             "--h", "1", "--target", "1+2x")
        assert code == 2
        # a literal and a part flag together are ambiguous
        code, env = run_json(capsys, "assign", "--a", "1", "--a1d", "-1", "--b", "1",
                             "--h", "1", "--target", "-1", "--target-re", "-1")
        assert code == 2
        assert env["result"]["error"] == "DomainError"

    def test_alpha_only_for_real_both(self, capsys):
        code, env = run_json(capsys, "assign", "--a", "1", "--a1d", "-1", "--b", "1",
                             "--h", "1", "--target", "-0.5+1.5i", "--alpha", "-2")
        assert code == 2

    def test_mode_names(self, capsys):
        with pytest.raises(SystemExit):
            main(["assign", "--help"])
        assert "--mode {both,delay-only,current-only,real-both,input-delay}" in capsys.readouterr().out
        with pytest.raises(SystemExit) as exc:
            main(["assign", *_PLANT, "--target", "-1", "--mode", "both-gains"])
        assert exc.value.code == 2

    def test_no_branches_flag(self, capsys):
        # the confirmation reads the branch-0 rightmost root alone, so a
        # branch count would change nothing but its own echo
        with pytest.raises(SystemExit) as exc:
            main(["assign", *_PLANT, "--target", "-1", "--branches", "3"])
        assert exc.value.code == 2

    def test_help_documents_grammar(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["assign", "--help"])
        assert exc.value.code == 0
        assert "complex literal" in capsys.readouterr().out


class TestVerify:
    def test_coalescent_match(self, capsys):
        code, env = run_json(capsys, "verify", "--a", "1", "--a1d", "-1", "--b", "1",
                             "--h", "1", "--branches", "3")
        assert code == 0
        res = env["result"]
        assert res["match"] is True
        assert res["spectrum_count"] == res["oracle_count"] == 8
        assert res["max_distance"] <= 1e-8

    def test_oscillatory_match(self, capsys):
        code, env = run_json(capsys, "verify", "--alpha", "-1", "--beta", "-2",
                             "--h", "1", "--branches", "4")
        assert code == 0
        assert env["result"]["spectrum_count"] == 10

    def test_delay_free_match(self, capsys):
        code, env = run_json(capsys, "verify", "--alpha", "-1", "--beta", "0", "--h", "1")
        assert code == 0
        assert env["result"]["spectrum_count"] == 1
        assert env["result"]["max_distance"] == 0.0

    def test_forced_mismatch_exit_code(self, capsys):
        code, env = run_json(capsys, "verify", "--alpha", "-1", "--beta", "-2",
                             "--h", "1", "--branches", "3", "--match-tol", "1e-300")
        assert code == 4
        res = env["result"]
        assert res["error"] == "MismatchDetected"
        assert res["spectrum_count"] == res["oracle_count"] == 8
        assert res["max_distance"] > 0.0
        assert set(res["rect"]) == {"re_min", "re_max", "im_min", "im_max"}


class TestSimulate:
    def test_oscillatory_estimate_and_csv(self, capsys, tmp_path):
        out = tmp_path / "traj.csv"
        code, env = run_json(capsys, "simulate", "--a", "1", "--a1d", "-1", "--b", "1",
                             "--h", "1", "--k", "-2", "--k1d", "-1",
                             "--tfinal", "40", "--out", str(out))
        assert code == 0
        res = env["result"]
        est = complex(res["estimate"]["value"]["re"], res["estimate"]["value"]["im"])
        ref = complex(-0.092484, 1.9973)
        assert abs(est - ref) <= 1e-2 * abs(ref)
        assert res["estimate"]["kind"] == "oscillatory"
        assert res["deviation"] <= 1e-4
        lines = out.read_text().splitlines()
        assert lines[0] == "t,x"
        assert len(lines) == res["n_samples"] + 1

    def test_unwritable_out_path(self, capsys, tmp_path):
        out = tmp_path / "missing" / "x.csv"
        code, env = run_json(capsys, "simulate", "--alpha", "-1", "--beta", "0.5",
                             "--h", "1", "--tfinal", "2", "--out", str(out))
        assert code == 2
        assert env["result"]["error"] == "DomainError"
        assert str(out) in env["result"]["message"]
        assert not out.exists()

    def test_delay_free_rate(self, capsys):
        code, env = run_json(capsys, "simulate", "--a", "1", "--a1d", "-1", "--b", "1",
                             "--h", "1", "--k", "-2", "--k1d", "1", "--tfinal", "25")
        assert code == 0
        est = env["result"]["estimate"]
        assert est["kind"] == "monotone"
        assert est["value"]["re"] == pytest.approx(-1.0, abs=1e-3)
        assert est["value"]["im"] == 0.0

    def test_constant_trajectory(self, capsys):
        code, env = run_json(capsys, "simulate", "--alpha", "1", "--beta", "-1",
                             "--h", "1", "--tfinal", "10")
        assert code == 0
        assert env["result"]["estimate"]["value"] == {"re": 0.0, "im": 0.0}
        assert env["result"]["estimate"]["kind"] == "constant"
        assert env["result"]["deviation"] == 0.0

    def test_overflow_warning(self, capsys):
        code, env = run_json(capsys, "simulate", "--alpha", "2", "--beta", "0.5",
                             "--h", "1", "--tfinal", "400", "--step", "0.01")
        assert code == 0
        assert env["result"]["truncated"] is True
        assert any("truncated" in w for w in env["warnings"])

    def test_stiff_step_warns(self, capsys):
        # alpha*step past RK4's real-axis stability limit -2.785 is named,
        # whatever the trajectory does; inside it, nothing is said
        for alpha, warned in (("-2.78", False), ("-2.79", True)):
            code, env = run_json(capsys, "simulate", "--alpha", alpha, "--beta", "0",
                                 "--h", "1", "--tfinal", "30", "--step", "1")
            assert code == 0
            assert any("real-axis stability limit" in w for w in env["warnings"]) is warned

    def test_estimate_unavailable_warns(self, capsys):
        code, env = run_json(capsys, "simulate", "--alpha", "-0.05", "--beta", "0",
                             "--h", "1", "--tfinal", "20")
        assert code == 0
        assert env["result"]["estimate"] is None
        assert env["result"]["deviation"] is None
        assert any("estimate unavailable" in w for w in env["warnings"])

    def test_linear_history(self, capsys):
        code, env = run_json(capsys, "simulate", "--alpha", "-1", "--beta", "-0.5",
                             "--h", "1", "--tfinal", "5", "--phi", "linear:1,2")
        assert code == 0

    def test_bad_phi(self, capsys):
        for phi in ("quadratic:1", "const:xyz", "linear:1", "const"):
            code, env = run_json(capsys, "simulate", "--alpha", "-1", "--beta", "-0.5",
                                 "--h", "1", "--tfinal", "5", "--phi", phi)
            assert code == 2

    def test_horizon_below_delay(self, capsys):
        code, env = run_json(capsys, "simulate", "--alpha", "-1", "--beta", "-0.5",
                             "--h", "1", "--tfinal", "0.5")
        assert code == 2
        assert env["result"]["error"] == "InvalidStep"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        golden = {name: golden_run(argv) for name, argv in GOLDEN_COMMANDS.items()}
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
