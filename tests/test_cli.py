"""Command-line behaviour: verbs, filters, formats, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qbax.cli import main


def test_no_command_prints_help_and_exits_2(capsys):
    assert main([]) == 2
    assert "verify" in capsys.readouterr().out


def test_verify_filtered_subset_passes(capsys):
    code = main(["verify", "--filter", "classical-liouville-zero-point"])
    out = capsys.readouterr().out
    assert code == 0
    assert "[PASS] classical-liouville-zero-point" in out
    assert "1 passed" in out


def test_verify_unmatched_filter_warns_but_succeeds(capsys):
    code = main(["verify", "--filter", "bogus-*"])
    out = capsys.readouterr().out
    assert code == 0
    assert "matched no check ids" in out


def test_verify_json_format(capsys):
    code = main(["verify", "--filter", "qdilog-self-dual,qdilog-fixed-point",
                 "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["counts"]["pass"] == 2
    assert [c["id"] for c in payload["checks"]] == [
        "qdilog-self-dual", "qdilog-fixed-point"]
    assert all("seconds" not in c for c in payload["checks"])


def test_verify_timing_flag_adds_seconds(capsys):
    code = main(["verify", "--filter", "qdilog-fixed-point",
                 "--format", "json", "--timing"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["checks"][0]["seconds"] >= 0.0


def test_tolerance_override_forces_failure(capsys):
    code = main(["verify", "--filter", "qdilog-unitarity", "--tol", "1e-30"])
    out = capsys.readouterr().out
    assert code == 1
    assert "[FAIL]" in out


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "0", "-1e-3", "abc"])
def test_tolerance_must_be_finite_and_positive(capsys, tol):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--filter", "qdilog-unitarity", "--tol", tol])
    assert exc.value.code == 2
    assert "--tol" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", ["0", "-2", "1.5", "many"])
def test_jobs_must_be_a_positive_integer(capsys, jobs):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--filter", "qdilog-unitarity", "--jobs", jobs])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


@pytest.mark.parametrize("max_sites", ["0", "-3", "2.5", "x"])
def test_max_sites_must_be_a_positive_integer(capsys, max_sites):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--filter", "rep-transfer-commute",
              "--max-sites", max_sites])
    assert exc.value.code == 2
    assert "--max-sites" in capsys.readouterr().err


@pytest.mark.parametrize("seed", ["-1", "1.5", "x"])
def test_seed_must_be_a_non_negative_integer(capsys, seed):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--filter", "qdilog-power*,rep-rll", "--seed", seed])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "--seed" in captured.err and "[FAIL]" not in captured.out


def test_qdilog_verb(capsys):
    code = main(["qdilog"])
    out = capsys.readouterr().out
    assert code == 0
    assert "10 passed" in out


def test_classical_verb(capsys):
    code = main(["classical"])
    out = capsys.readouterr().out
    assert code == 0
    assert "10 passed" in out


def test_rep_subset_via_filter(capsys):
    # the rep verb runs the slow transfer check; exercise one cheap id instead
    code = main(["verify", "--filter", "rep-relations"])
    assert code == 0
    assert "[PASS] rep-relations" in capsys.readouterr().out


def test_continuum_table_text(capsys):
    code = main(["classical", "continuum", "--model", "liouville",
                 "--n0", "8", "--levels", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "model liouville" in out
    assert "slope" in out and "monotone True" in out
    data_rows = [ln for ln in out.splitlines() if "e-" in ln or "e+" in ln]
    assert len(data_rows) == 3


def test_continuum_table_json_with_sine_field(capsys):
    code = main(["classical", "continuum", "--model", "freefield_volterra",
                 "--field", "sine", "--n0", "8", "--levels", "3",
                 "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["model"] == "freefield_volterra"
    assert payload["field"] == "sine"
    assert len(payload["rows"]) == 3
    assert payload["rows"][0]["order"] is None
    assert payload["order"] > 1.8
    assert payload["monotone"] is True


def test_continuum_explicit_kappa_list(capsys):
    code = main(["classical", "continuum", "--model", "liouville",
                 "--kappa-list", "0.125,0.0625"])
    out = capsys.readouterr().out
    assert code == 0
    assert "1.250000e-01" in out


def test_continuum_bad_kappa_list(capsys):
    code = main(["classical", "continuum", "--model", "liouville",
                 "--kappa-list", "0.1,zebra"])
    err = capsys.readouterr().err
    assert code == 2
    assert "bad --kappa-list" in err


def test_continuum_kappa_too_large_for_the_box(capsys):
    code = main(["classical", "continuum", "--model", "liouville",
                 "--kappa-list", "0.9"])
    err = capsys.readouterr().err
    assert code == 2
    assert "two sites" in err


def test_continuum_unknown_model_rejected_by_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classical", "continuum", "--model", "toda"])
    assert exc.value.code == 2


def test_report_lists_every_check(capsys):
    code = main(["report"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("110 registered checks")
    assert "rll-quantum-matrix" in out


def test_report_json(capsys):
    code = main(["report", "--format", "json"])
    entries = json.loads(capsys.readouterr().out)
    assert code == 0
    assert len(entries) == 110
    assert all(e["id"] and e["claim"] for e in entries)


@pytest.mark.parametrize("flags", [
    ["--kappa-list", "0.1,0"],
    ["--kappa-list", "nan"],
    ["--kappa-list", "nan,0.1"],
    ["--kappa-list", "inf,0.1"],
    ["--kappa-list=-0.1,0.05"],
    ["--kappa-list", "0.125"],
    ["--length", "0"],
    ["--length", "-1"],
    ["--length", "nan"],
    ["--beta", "0"],
    ["--beta", "inf"],
    ["--n0", "1"],
    ["--n0", "2.5"],
    ["--levels", "-1"],
    ["--levels", "1"],
    # ladders above 2**20 sites per level
    ["--n0", "100000000"],
    ["--n0", "1048576"],              # 2**20 sites, then 2**21
    ["--levels", "1000000000"],       # rejected before any level is formed
    ["--kappa-list", "1e-300,0.1"],
    ["--kappa-list", "1e-320,0.1"],   # length/kappa overflows to inf
])
def test_continuum_bad_input_is_a_usage_error(capsys, flags):
    # each of these used to end in a traceback (ZeroDivisionError, a nan
    # conversion or a bare ValueError from continuum_check)
    try:
        code = main(["classical", "continuum", "--model", "liouville", *flags])
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    assert flags[0].split("=")[0] in capsys.readouterr().err


# ---------------------------------------------------------------------------
# the package as a program, in fresh interpreters
# ---------------------------------------------------------------------------

SRC = str(Path(__file__).resolve().parent.parent / "src")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _child_env(**extra) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return {**env, **extra}


def test_python_dash_m_qbax_runs_the_cli():
    done = subprocess.run([sys.executable, "-m", "qbax", "report"], env=_child_env(),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("110 registered checks")


_SHOW_BLAS = """
import contextlib, io, os, sys
from qbax.cli import main
before = [os.environ.get(v) for v in {vars}]
assert "numpy" not in sys.modules
with contextlib.redirect_stdout(io.StringIO()):
    main(["report"])
assert "numpy" in sys.modules
print([before, [os.environ.get(v) for v in {vars}]])
""".format(vars=BLAS_VARS)


def test_cli_pins_blas_threads_unless_the_user_set_them():
    def run(**extra):
        done = subprocess.run([sys.executable, "-c", _SHOW_BLAS], env=_child_env(**extra),
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        return done.stdout.strip()

    # unset: importing the CLI leaves them alone, running it sets one
    # thread before numpy loads
    assert run() == str([[None] * 3, ["1"] * 3])
    # a value the user set is kept
    assert run(OPENBLAS_NUM_THREADS="3") == str([["3", None, None], ["3", "1", "1"]])


def test_importing_every_module_runs_no_command():
    # tools that import the whole package (as the benchmark's set-up does)
    # must not start the CLI by importing qbax.__main__
    import importlib
    import pkgutil

    import qbax

    for info in pkgutil.iter_modules(qbax.__path__):
        importlib.import_module(f"qbax.{info.name}")
