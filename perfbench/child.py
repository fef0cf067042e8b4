"""One measurement in a fresh interpreter; prints one JSON object on its
last line of standard output.  run.py starts it with ``src`` on PYTHONPATH:

  child.py setup   --seed S                 set-up only (import + registry)
  child.py imports --seed S                 per-module import increments
  child.py rep     --workload W --seed S --trace 0|1
                                            set-up, then one timed workload
                                            body, then the negative control

A rep times the body with tracing off unless --trace 1, in which case the
wrappers of layers.py are installed after set-up and the per-layer
metrics are returned as well.  Besides the whole body it returns the
body's laps, one per checked operation (workloads.Tally), in wall and CPU
seconds.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

import layers
from spans import Probe, Tracer
from workloads import WORKLOADS, Tally


def _provenance() -> dict:
    import numpy

    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError, AttributeError):
        blas = {"name": None, "version": None}
    return {"numpy": numpy.__version__, "blas": blas}


def _negative_control_flagged(seed: int) -> bool:
    """The mismatched pairing must fail every check it goes through."""
    control = Tally()
    WORKLOADS["negative-control"](seed, control, Probe())
    return control.attempted == 2 and control.failed == 2


def rep(workload: str, seed: int, traced: bool) -> dict:
    setup_s = layers.import_all(seed)
    probe, tally = Probe(), Tally()
    out: dict = {"setup_s": setup_s}
    tracer = None
    if traced:
        out["layers"] = layers.coeff_mul_ns()
        tracer = Tracer(probe)
        tracer.install(layers.SPANS, layers.COUNTERS)

    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    tally.start()
    summarize = WORKLOADS[workload](seed, tally, probe)
    tally.lap()
    wall_s = time.perf_counter() - t0
    ru1 = resource.getrusage(resource.RUSAGE_SELF)

    if tracer is not None:  # before summarize(), which calls qbax again
        values, samples, reasons = layers.traced_metrics(tracer)
        out["layers"].update(values)
        out["layer_samples"] = samples
        out["layer_reasons"] = reasons
    fingerprint, extras = summarize()
    out.update(
        wall_s=wall_s,
        cpu_s=(ru1.ru_utime + ru1.ru_stime) - (ru0.ru_utime + ru0.ru_stime),
        peak_rss_mb=ru1.ru_maxrss / 1024.0,  # Linux reports KiB
        attempted=tally.attempted,
        failed=tally.failed,
        failures=tally.failures,
        laps_wall=tally.laps_wall,
        laps_cpu=tally.laps_cpu,
        fingerprint=fingerprint,
        extras=extras,
        provenance=_provenance(),
    )
    # after the body, so its memo and node caches cannot warm the body
    if workload != "negative-control":
        out["control_flagged"] = _negative_control_flagged(seed)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=("setup", "imports", "rep"))
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.mode == "setup":
        result = {"setup_s": layers.import_all(args.seed)}
    elif args.mode == "imports":
        values, reasons = layers.import_increments(args.seed)
        result = {"layers": values, "layer_reasons": reasons}
    else:
        if args.workload is None:
            ap.error("rep needs --workload")
        result = rep(args.workload, args.seed, bool(args.trace))
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
