"""The scripts in scripts/ run to completion at their smallest sizes."""

import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

# smallest arguments per script; every script must have an entry
SMALL_ARGS = {
    "charge_tower.py": ["--clock-sizes", "3", "--sites", "2"],
    "continuum_sweep.py": ["--n0", "2", "--levels", "2"],
    "dilog_defect_grid.py": ["--omegas", "0.5", "--x-count", "2"],
}


def _run(monkeypatch, name, args) -> int:
    monkeypatch.setattr(sys, "argv", [name, *args])
    try:
        runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    except SystemExit as exc:
        return exc.code
    return 0


def test_every_script_has_small_arguments():
    assert sorted(p.name for p in SCRIPTS.glob("*.py")) == sorted(SMALL_ARGS)


@pytest.mark.parametrize("name", sorted(SMALL_ARGS))
def test_script_runs_at_its_smallest_size(monkeypatch, capsys, name):
    assert _run(monkeypatch, name, SMALL_ARGS[name]) in (0, None)
    assert capsys.readouterr().out


@pytest.mark.parametrize("args", [
    ["--n0", "1"],
    ["--levels", "40"],
    ["--beta", "nan"],
    ["--length", "0"],
    ["--levels", "x"],
])
def test_continuum_sweep_bad_input_is_a_usage_error(monkeypatch, capsys, args):
    assert _run(monkeypatch, "continuum_sweep.py", args) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err
