"""End-to-end tests for the command-line front end."""

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import delayw
from delayw.cli import main, parse_complex
from delayw.errors import DomainError, NonFiniteInput
from delayw.lambertw import K_MAX

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


DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, env=source_env())
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout


def test_import_loads_no_dataclasses():
    # every record is a named tuple, so importing the package leaves
    # dataclasses and the inspect machinery behind it unloaded
    code = ("import sys; before = set(sys.modules); import delayw; "
            "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, check=True, text=True,
                          env=source_env())
    assert proc.stdout.strip() == "[]"


# Fixed commands whose stdout, exit code and --out file must not change by
# a single byte.  The recorded outputs live in cli_golden.json; after an
# intended output change, rewrite it with
#     PYTHONPATH=src python tests/test_cli.py
# The floats come from the platform libm (exp, sin, cos), so the file
# pins one platform's results.
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
    "wk-branch-0-real": ("wk", "--branch", "0", "--re", "0.5"),
    "wk-branch-minus-1-real": ("wk", "--branch", "-1", "--re", "-0.2"),
    "wk-cut": ("wk", "--branch", "0", "--re", "-1"),
    "wk-off-axis": ("wk", "--branch", "2", "--re", "1", "--im", "3", "--tol", "1e-10"),
    "wk-branch-1500": ("wk", "--branch", "1500", "--re", "1"),
    "wk-branch-past-k-max": ("wk", "--branch", "4294967297", "--re", "1"),
    "wk-tol-nan": ("wk", "--branch", "0", "--re", "1", "--tol", "nan"),
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
        pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
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
        code, env = run_json(capsys, "spectrum", "--alpha=-300", "--beta=1", "--h=3")
        assert code == 2
        assert env["result"]["error"] == "NonFiniteInput"

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
