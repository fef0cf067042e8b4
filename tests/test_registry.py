"""Check registry: selection, determinism, parallel merge, report formats."""

import hashlib
import json
import math
import multiprocessing
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from qbax import registry
from qbax.catalog import Aq, Wq
from qbax.cyclicrep import (qosc_rep, rep_residuals, rll_residual_num,
                            root_of_unity, spectral_points, weyl_rep)
from qbax.lmatrices import L_weyl, R_hat, R_sym
from qbax.qdilog import FEQ_IDS, DilogParams, check_shift
from qbax.registry import (
    Check,
    SkipCheck,
    build_checks,
    run_check,
    run_suite,
)


def test_registry_has_unique_ids_and_expected_size():
    checks = build_checks()
    ids = [c.check_id for c in checks]
    assert len(ids) == 110
    assert len(set(ids)) == 110
    prefixes = {i.split("-")[0] for i in ids}
    assert {"qdilog", "rep", "classical"} <= prefixes


def test_registry_fingerprint():
    # guards the order and the membership of the 110 checks; the same hash
    # is pinned by the benchmark's work fingerprint
    checks = build_checks()
    ids = "\n".join(c.check_id for c in checks).encode()
    assert hashlib.sha256(ids).hexdigest().startswith("28b67b9e36652adf")
    assert Counter(c.kind for c in checks) == {
        "exact-zero": 75, "numeric": 21, "structural": 8,
        "expected-failure": 6}


def test_seed_zero_statuses_are_pinned(full_report):
    # the 110 ids (hash as above) and each one's status at seed 0, in
    # build_checks order: a status that changes is a behaviour change
    ids = "\n".join(r.check_id for r in full_report.results).encode()
    assert hashlib.sha256(ids).hexdigest().startswith("28b67b9e36652adf")
    pairs = "\n".join(f"{r.check_id} {r.status}" for r in full_report.results)
    assert hashlib.sha256(pairs.encode()).hexdigest().startswith("53fb347508a698c1")


def test_draw_stream_is_pinned():
    # one stdlib Mersenne Twister per check, seeded by (seed, crc32(id)):
    # its floats do not depend on the numpy release
    rng = registry._rng(0, "qdilog-power-identity")
    assert [rng.random(), rng.random()] == [0.3588099620002595,
                                            0.8746303998469807]
    assert registry._rng(1, "qdilog-power-identity").random() != 0.3588099620002595


def test_normals_are_box_muller_pairs():
    rng = registry._rng(0, "t")
    u, v = rng.random(), rng.random()
    r = math.sqrt(-2.0 * math.log(1.0 - u))
    got = registry._normals(registry._rng(0, "t"), 3)
    assert got[:2].tolist() == [r * math.cos(2 * math.pi * v),
                                r * math.sin(2 * math.pi * v)]
    assert got.shape == (3,)
    big = registry._normals(registry._rng(0, "t"), 4000)
    assert abs(big.mean()) < 0.05 and abs(big.std() - 1.0) < 0.05


_NO_NUMPY_RANDOM = """
import sys
from qbax.registry import run_suite
report = run_suite()
assert len(report.results) == 110 and report.ok, report.counts
print("numpy" in sys.modules, "numpy.random" in sys.modules)
"""


def test_a_full_run_never_imports_numpy_random():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", _NO_NUMPY_RANDOM], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["True", "False"]


def test_unitarity_fails_on_its_own_defect_under_a_starved_rule(monkeypatch):
    # 16 steps, certificate lifted: S is off by about 1e-4, |S| is still 1
    # on the symmetric line, and the product S(x) S(1/x) shows the error
    real = registry.check_unitarity
    monkeypatch.setattr(registry, "check_unitarity", lambda om, x: real(
        om, x, DilogParams(om, steps=16, tol=1e3)))
    (res,) = run_suite(pattern="qdilog-unitarity").results
    assert res.status == "fail"
    worst = float(re.match(r"max defect (\S+) ", res.summary).group(1))
    assert worst > 1e-5, res.summary


def test_check_rejects_an_unknown_kind():
    with pytest.raises(ValueError, match="kind"):
        Check("t-kind", "no such kind", "approximate", lambda: (True, ""))


def test_run_check_statuses():
    ok = run_check(Check("t-pass", "passes", "numeric",
                         lambda: (True, "fine")))
    assert (ok.status, ok.summary) == ("pass", "fine")
    assert ok.seconds >= 0.0

    bad = run_check(Check("t-fail", "fails", "numeric",
                          lambda: (False, "off by 1")))
    assert bad.status == "fail"

    def crashes():
        raise ZeroDivisionError("1/0")

    crashed = run_check(Check("t-crash", "crashes", "numeric", crashes))
    assert crashed.status == "fail"
    assert crashed.summary.startswith("error: ZeroDivisionError")

    def skips():
        raise SkipCheck("needs more sites")

    skipped = run_check(Check("t-skip", "skips", "numeric", skips))
    assert (skipped.status, skipped.summary) == ("skipped", "needs more sites")


def test_sequential_subset_reports_are_identical():
    a = run_suite(pattern="classical-*", seed=0)
    b = run_suite(pattern="classical-*", seed=0)
    assert a.counts["fail"] == 0 and a.counts["pass"] == 10
    assert a.to_json() == b.to_json()


def test_parallel_run_matches_sequential():
    pattern = "classical-zero-*,classical-volterra-*,classical-toda-*"
    seq = run_suite(pattern=pattern, seed=3)
    par = run_suite(pattern=pattern, seed=3, jobs=3)
    assert seq.counts["pass"] == 6
    assert seq.to_json() == par.to_json()
    assert seq.to_text(timing=False) == par.to_text(timing=False)


def test_unmatched_filter_warns_instead_of_failing():
    report = run_suite(pattern="no-such-check-*")
    assert report.results == ()
    assert report.ok
    assert any("matched no check ids" in w for w in report.warnings)


def test_transfer_checks_skip_below_two_sites():
    report = run_suite(pattern="rep-transfer-commute", max_sites=1)
    assert [r.status for r in report.results] == ["skipped"]
    assert report.ok


def test_tol_override_reaches_the_summaries():
    report = run_suite(pattern="qdilog-unitarity", tol=1e-30)
    (res,) = report.results
    assert res.status == "fail"
    assert "tol 1e-30" in res.summary
    assert not report.ok


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_non_finite_defect_fails_a_numeric_check(monkeypatch, bad):
    real = registry.check_unitarity

    def one_bad_point(om, x):   # x is the whole grid: one call per omega
        out = real(om, x)
        out[np.equal(x, 1.0) & (om == 0.5)] = bad
        return out

    monkeypatch.setattr(registry, "check_unitarity", one_bad_point)
    report = run_suite(pattern="qdilog-unitarity")
    (res,) = report.results
    assert res.status == "fail"
    assert res.summary == (f"max defect {bad:.3e} at omega=0.5, x=1 over 36 "
                           "evaluations (tol 1e-08)")
    assert not report.ok


# The summaries of the batched numeric checks at seed 0: the evaluation
# count of each, and the form of every label it can name, as they were when
# each point was its own call.
_X = "x=(0.01|0.0316228|0.1|0.316228|1|3.16228|10|31.6228|100)"
_OM = "omega=0.[3579]"
BATCHED_SUMMARIES = {
    "qdilog-shift": (36, f"{_OM}, {_X}"),
    "qdilog-unitarity": (36, f"{_OM}, {_X}"),
    "qdilog-power-identity": (100, rf"{_OM}, w=[\d.]+, t=[\d.]+"),
    "qdilog-feq-rw": (100, rf"{_OM}, lam=[\d.]+, w=[\d.]+"),
    "qdilog-feq-rw3": (100, rf"{_OM}, lam=[\d.]+, w=[\d.]+"),
    "qdilog-feq-rbd3pp": (100, rf"{_OM}, lam=[\d.]+, w=[\d.]+"),
    "qdilog-kernel-ratio": (
        16, rf"{_OM}, lam=(0.45|2.2) \((spread|closed form)\)"),
    "qdilog-self-dual": (12, rf"{_OM}, s=(-0.2|0.1|0.3)"),
    "qdilog-product-form": (4, r"omega=(0.6\+0.15j|0.45\+0.2j), x=(0.3|1.7)"),
    "qdilog-fixed-point": (4, _OM),
    "rep-rll": (330, r"[\w-]+ N=[357] pair \d"),
}


def test_batched_checks_keep_their_labels_and_counts():
    report = run_suite(pattern=",".join(BATCHED_SUMMARIES))
    assert [r.check_id for r in report.results] == list(BATCHED_SUMMARIES)
    for r in report.results:
        count, label = BATCHED_SUMMARIES[r.check_id]
        assert r.status == "pass"
        assert re.fullmatch(rf"max defect \S+ at {label} over {count} "
                            r"evaluations \(tol [\de.-]+\)", r.summary), r


def test_sampled_checks_draw_the_same_points_in_the_same_order(monkeypatch):
    # each point used to be drawn and checked on its own: w then t per
    # power-identity sample, lam then w per kernel sample, 25 per omega
    calls = []

    def spy(real):
        def fn(*args):
            calls.append(args)
            return real(*args)
        return fn

    monkeypatch.setattr(registry, "check_ssw", spy(registry.check_ssw))
    monkeypatch.setattr(registry, "check_feq", spy(registry.check_feq))
    run_suite(pattern="qdilog-power-identity,qdilog-feq-*", seed=3)
    expected = []
    for check_id, lo in (("qdilog-power-identity", None),
                         *[(f"qdilog-feq-{f}", f) for f in FEQ_IDS]):
        rng = registry._rng(3, check_id)
        for om in registry.OMEGAS:
            if lo is None:
                draws = [(10.0 ** rng.uniform(-1.0, 1.0),
                          rng.uniform(0.05, 0.95)) for _ in range(25)]
                expected.append((om, *map(list, zip(*draws))))
            else:
                draws = [(10.0 ** rng.uniform(-0.6, 0.6),
                          10.0 ** rng.uniform(-1.0, 1.0)) for _ in range(25)]
                expected.append((lo, om, *map(list, zip(*draws))))
    got = [tuple(a.tolist() if isinstance(a, np.ndarray) else a for a in c)
           for c in calls]
    assert got == expected


def test_text_report_shape():
    report = run_suite(pattern="classical-liouville-zero-point,qdilog-shift")
    text = report.to_text()
    lines = text.strip().splitlines()
    assert sum(line.startswith("[PASS]") for line in lines) == 2
    assert "2 passed" in lines[-1]
    # timing on by default in text output
    assert "s)" in lines[0]


def test_json_report_shape_and_timing_flag():
    report = run_suite(pattern="classical-liouville-zero-point")
    payload = json.loads(report.to_json())
    assert payload["counts"] == {"pass": 1, "fail": 0, "skipped": 0}
    assert payload["filter"] == "classical-liouville-zero-point"
    assert payload["seed"] == 0
    (entry,) = payload["checks"]
    assert entry["id"] == "classical-liouville-zero-point"
    assert entry["status"] == "pass"
    assert "seconds" not in entry
    timed = json.loads(report.to_json(timing=True))
    assert timed["checks"][0]["seconds"] >= 0.0


def test_seed_changes_sampled_checks_but_not_status():
    a = run_suite(pattern="classical-volterra-duality", seed=0)
    b = run_suite(pattern="classical-volterra-duality", seed=99)
    assert a.results[0].status == b.results[0].status == "pass"
    # different draws, so the reported worst defect generally moves
    assert a.results[0].check_id == b.results[0].check_id


@pytest.mark.parametrize("pattern,expected", [
    ("qdilog-shift", 1),
    ("qdilog-feq-*", 3),
    ("qdilog-*", 10),
    ("classical-*", 10),
])
def test_glob_selection_counts(pattern, expected):
    report = run_suite(pattern=pattern)
    assert len(report.results) == expected
    assert report.ok


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1e-3])
def test_tol_must_be_finite_and_positive(tol):
    with pytest.raises(ValueError, match="tol"):
        run_suite(pattern="qdilog-unitarity", tol=tol)
    with pytest.raises(ValueError, match="tol"):
        build_checks(tol=tol)


@pytest.mark.parametrize("jobs", [0, -1])
def test_jobs_below_one_is_rejected(jobs):
    with pytest.raises(ValueError, match="jobs"):
        run_suite(pattern="classical-*", jobs=jobs)


@pytest.mark.parametrize("max_sites", [0, -3])
def test_max_sites_below_one_is_rejected(max_sites):
    with pytest.raises(ValueError, match="max_sites"):
        run_suite(pattern="rep-transfer-commute", max_sites=max_sites)
    with pytest.raises(ValueError, match="max_sites"):
        build_checks(max_sites=max_sites)


@pytest.mark.parametrize("seed", [-1, -2**40])
def test_negative_seed_is_rejected_before_any_check_runs(seed):
    # not a failed check: no seeded draw is ever made from a negative seed
    for jobs in (1, 2):
        with pytest.raises(ValueError, match="seed must be a non-negative"):
            run_suite(pattern="qdilog-power*,rep-rll", seed=seed, jobs=jobs)
    with pytest.raises(ValueError, match="seed"):
        build_checks(seed=seed)


class _InlinePool:
    """Stands in for multiprocessing.Pool: records its size, runs inline."""

    sizes: list[int] = []

    def __init__(self, processes, initializer, initargs):
        self.sizes.append(processes)
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return [fn(item) for item in items]


@pytest.mark.parametrize("jobs, cpus, expected", [
    (64, 2, 2),    # capped by the CPU count
    (64, 64, 6),   # capped by the number of selected checks
    (3, 64, 3),    # as asked
])
def test_pool_size_is_clamped(monkeypatch, jobs, cpus, expected):
    pattern = "classical-zero-*,classical-volterra-*,classical-toda-*"
    monkeypatch.setattr(multiprocessing.get_context(), "Pool", _InlinePool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(_InlinePool, "sizes", [])
    monkeypatch.setattr(registry, "_WORKER_CHECKS", {})
    report = run_suite(pattern=pattern, seed=3, jobs=jobs)
    assert _InlinePool.sizes == [expected]
    assert report.to_json() == run_suite(pattern=pattern, seed=3).to_json()


def test_numeric_negative_controls_fail_through_the_registrar():
    # each control beside its sound twin, at the pinned tolerance of the
    # registry check it mimics (rep-rll, rep-relations, qdilog-shift)
    checks: list[Check] = []
    numeric = registry._registrar(checks, None)
    N = 5
    q = root_of_unity(N)
    x, y = spectral_points(11, 2)
    sound = qosc_rep(N)
    perturbed = {**sound, "f": np.diag([1.5] + [1.0] * (N - 1)) @ sound["f"]}

    for tag, R in (("matched", R_sym), ("mismatched", R_hat)):
        numeric(f"t-rll-{tag}", "exchange residual", 1e-10)(
            lambda R=R: [(rll_residual_num(R, L_weyl, Wq, weyl_rep(N), x, y,
                                           q), "L_weyl N=5")])
    for tag, rep in (("sound", sound), ("perturbed", perturbed)):
        numeric(f"t-relations-{tag}", "relations", 1e-12)(
            lambda rep=rep: [(res, key) for key, res
                             in rep_residuals(Aq, rep, q).items()])
    for tag, p in (("default", DilogParams(0.5)),
                   ("starved", DilogParams(0.5, steps=4))):
        numeric(f"t-quadrature-{tag}", "shift relation", 1e-8)(
            lambda p=p: [(check_shift(0.5, 1.0, p), "omega=0.5, x=1")])

    results = [run_check(c) for c in checks]
    assert [r.status for r in results] == ["pass", "fail"] * 3
    mismatched, perturbed_rep, starved = results[1::2]
    assert "e+01 at L_weyl N=5 over 1 " in mismatched.summary   # about 23.8
    assert " at f.e over 9 " in perturbed_rep.summary
    assert starved.summary.startswith("error: QuadratureError")
