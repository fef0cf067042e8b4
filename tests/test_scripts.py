"""The scripts in scripts/ run to completion at their smallest sizes."""

import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

# smallest arguments per script; every script must have an entry
SMALL_ARGS = {
    "charge_tower.py": ["--clock-sizes", "3", "--sites", "2"],
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


@pytest.mark.parametrize("name, args", [
    ("charge_tower.py", ["--sites", "1"]),
    ("charge_tower.py", ["--sites", "0"]),
    ("charge_tower.py", ["--sites", "-1"]),
    ("charge_tower.py", ["--sites", ","]),
    ("charge_tower.py", ["--clock-sizes", "4"]),
    ("charge_tower.py", ["--clock-sizes", "1"]),
    ("charge_tower.py", ["--clock-sizes", "x"]),
    ("dilog_defect_grid.py", ["--omegas", "0"]),
    ("dilog_defect_grid.py", ["--omegas", "1.5"]),
    ("dilog_defect_grid.py", ["--omegas", "x"]),
    ("dilog_defect_grid.py", ["--omegas", "nan"]),
    ("dilog_defect_grid.py", ["--x-count", "0"]),
    ("dilog_defect_grid.py", ["--x-decades", "nan"]),
    ("dilog_defect_grid.py", ["--steps", "nan"]),
    # DilogParams refuses the step count, or the certified evaluation
    # refuses a starved rule
    ("dilog_defect_grid.py", ["--omegas", "0.5", "--steps", "2"]),
    ("dilog_defect_grid.py", ["--omegas", "0.5", "--steps", "16"]),
])
def test_bad_tower_or_grid_input_is_a_usage_error(monkeypatch, capsys, name, args):
    assert _run(monkeypatch, name, args) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err


def test_dilog_grid_reaches_ten_decades(monkeypatch, capsys):
    # ell = +-23.03 is inside the decay strip, so the certified rule must
    # evaluate it
    args = ["--omegas", "0.5", "--x-decades", "10"]
    assert _run(monkeypatch, "dilog_defect_grid.py", args) in (0, None)
    assert "rbd3pp" in capsys.readouterr().out


def test_dilog_grid_certifies_fifty_decades(monkeypatch, capsys):
    # ell up to 115: the direct line stopped certifying at ell = 57.6 (at
    # omega = 0.5), the inversion relation reaches it from ell = -115
    args = ["--omegas", "0.5", "--x-decades", "50"]
    assert _run(monkeypatch, "dilog_defect_grid.py", args) in (0, None)
    assert "rbd3pp" in capsys.readouterr().out


@pytest.mark.parametrize("value", [1e-9, float("nan")])
def test_charge_tower_exits_1_when_a_value_exceeds_the_tolerance(
        monkeypatch, capsys, value):
    import qbax.cyclicrep

    monkeypatch.setattr(qbax.cyclicrep, "transfer_commutator_num",
                        lambda *args: value)
    assert _run(monkeypatch, "charge_tower.py", SMALL_ARGS["charge_tower.py"]
                ) == 1
    assert "exceeds 1e-10" in capsys.readouterr().err


@pytest.mark.parametrize("name, value, where", [
    ("check_feq", 2e-8, "rw, rw3, rbd3pp"),
    ("check_shift", float("nan"), "omega=0.5"),
])
def test_dilog_grid_exits_1_when_a_defect_exceeds_the_tolerance(
        monkeypatch, capsys, name, value, where):
    import qbax.qdilog

    real = getattr(qbax.qdilog, name)
    monkeypatch.setattr(qbax.qdilog, name,
                        lambda *args: real(*args) + value)
    assert _run(monkeypatch, "dilog_defect_grid.py",
                SMALL_ARGS["dilog_defect_grid.py"]) == 1
    assert f"exceeds 1e-08 at {where}" in capsys.readouterr().err


@pytest.mark.parametrize("sites", ["4", "3,1000"])
def test_charge_tower_bounds_the_dimension_before_building(monkeypatch,
                                                           capsys, sites):
    import qbax.cyclicrep

    def refuse(*args, **kwargs):
        raise AssertionError("a representation was built")

    monkeypatch.setattr(qbax.cyclicrep, "qosc_rep", refuse)
    args = ["--clock-sizes", "3,9", "--sites", sites]
    assert _run(monkeypatch, "charge_tower.py", args) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "exceeds 1000" in err
