"""Runtime spans and counters around public qbax functions.

Nothing under ``src/`` knows about this module.  ``Tracer.install`` looks
each target up by dotted name below the ``qbax`` package
(``"cyclicrep.monodromy_num"``, ``"ncpoly.NCPoly.__mul__"``) and rebinds
every alias of the object it finds -- the owning module or class and any
other ``qbax`` module that imported the same function by name -- to a
wrapper.  A name that no longer resolves is not an error: it is listed in
``Tracer.unresolved`` with the reason, and every metric that needs it is
reported as ``None``.

Two kinds of wrapper:

  * span: records wall time per call, keyed by (target, label, phase).  A
    span's self time is its duration minus the time covered by the spans
    it caused (nesting is tracked with a stack, so it is exact for the
    single-threaded code traced here).
  * counter: counts calls only.  Used for ``coeff`` arithmetic and
    ``reduce_local``, which run millions of times per workload.

``Probe`` carries the phase and tag the workload is in; workloads set it in
traced and untraced runs alike, and only the tracer reads it.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import sys
import time
from contextlib import contextmanager


class Probe:
    """Where the workload is: a phase name and an optional per-call tag."""

    def __init__(self):
        self.phase = ""
        self.tag = None

    @contextmanager
    def in_phase(self, name: str):
        old, self.phase = self.phase, name
        try:
            yield
        finally:
            self.phase = old

    @contextmanager
    def tagged(self, tag: str):
        old, self.tag = self.tag, tag
        try:
            yield
        finally:
            self.tag = old


def resolve(dotted: str):
    """(container, object) for a name below the qbax package."""
    module_name, *attrs = dotted.split(".")
    try:
        container = importlib.import_module(f"qbax.{module_name}")
    except ImportError as exc:
        raise LookupError(f"qbax.{module_name} cannot be imported: {exc}") from exc
    for depth, attr in enumerate(attrs):
        obj = getattr(container, attr, None)
        if obj is None:
            where = ".".join([module_name, *attrs[:depth]])
            raise LookupError(f"qbax.{where} has no attribute {attr!r}")
        if depth < len(attrs) - 1:
            container = obj
    return container, obj


def _rebind(container, original, wrapper) -> None:
    """Point every alias of `original` at `wrapper`.

    For a class that is every attribute holding the same function (so
    ``__rmul__ = __mul__`` is wrapped once); for a module function it is
    also every other qbax module that bound the function with
    ``from .x import f``.
    """
    if inspect.isclass(container):
        for key, value in list(vars(container).items()):
            if value is original:
                setattr(container, key, wrapper)
        return
    for name, module in list(sys.modules.items()):
        if name != "qbax" and not name.startswith("qbax."):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapper)


class Tracer:
    """Installs wrappers and keeps their spans and counts in memory."""

    def __init__(self, probe: Probe):
        self.probe = probe
        self.durations: dict[tuple, list[int]] = {}   # ns per call
        self.self_ns: dict[tuple, int] = {}
        self.errors: dict[tuple[str, str], int] = {}
        self.sizes: dict[tuple, int] = {}              # summed result sizes
        self.counters: dict[str, itertools.count] = {}
        self.repeats: dict[tuple[str, str], list[int]] = {}  # [calls, repeats]
        self.unresolved: dict[str, str] = {}
        self._stack: list[list[int]] = []

    # ------------------------------------------------------------ install
    def install(self, spans: dict, counters: dict) -> None:
        """spans: name -> (label_fn or None, size_fn or None);
        counters: name -> True to also track repeated arguments."""
        for name, (label_fn, size_fn) in spans.items():
            self._wrap(name, lambda orig, n=name, lf=label_fn, sf=size_fn:
                       self._span_wrapper(n, orig, lf, sf))
        for name, track_repeats in counters.items():
            self._wrap(name, lambda orig, n=name, tr=track_repeats:
                       self._counter_wrapper(n, orig, tr))

    def _wrap(self, name: str, make) -> None:
        try:
            container, original = resolve(name)
        except LookupError as exc:
            self.unresolved[name] = str(exc)
            return
        if not callable(original):
            self.unresolved[name] = f"{name} is not callable"
            return
        _rebind(container, original, make(original))

    def _span_wrapper(self, name, original, label_fn, size_fn):
        durations, self_ns, errors, stack = (
            self.durations, self.self_ns, self.errors, self._stack)
        probe = self.probe
        signature = inspect.signature(original) if label_fn else None
        sizes = self.sizes

        def wrapper(*args, **kwargs):
            label = probe.tag
            if label_fn is not None:
                try:
                    bound = signature.bind(*args, **kwargs).arguments
                    label = label_fn(bound)
                except (TypeError, KeyError, AttributeError, IndexError):
                    label = "?"
            key = (name, label, probe.phase)
            frame = [0]
            stack.append(frame)
            t0 = time.perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            except Exception as exc:
                ekey = (name, type(exc).__name__)
                errors[ekey] = errors.get(ekey, 0) + 1
                raise
            finally:
                dur = time.perf_counter_ns() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                durations.setdefault(key, []).append(dur)
                self_ns[key] = self_ns.get(key, 0) + dur - frame[0]
            if size_fn is not None:
                sizes[key] = sizes.get(key, 0) + size_fn(result)
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def _counter_wrapper(self, name, original, track_repeats):
        if not track_repeats:
            tick = self.counters.setdefault(name, itertools.count())

            def wrapper(*args, **kwargs):
                next(tick)
                return original(*args, **kwargs)
        else:
            probe, repeats, seen = self.probe, self.repeats, set()

            def wrapper(*args, **kwargs):
                entry = repeats.setdefault((name, probe.phase), [0, 0])
                entry[0] += 1
                key = (id(args[0]),) + args[1:]  # receiver, then arguments
                if key in seen:
                    entry[1] += 1
                else:
                    seen.add(key)
                return original(*args, **kwargs)

        wrapper.__wrapped__ = original
        return wrapper

    # ------------------------------------------------------------- queries
    def final_counts(self) -> dict[str, int]:
        """Calls seen by each plain counter; read once, after the workload."""
        return {name: next(tick) for name, tick in self.counters.items()}

    def spans(self, name: str, where=lambda label, phase: True) -> list[int]:
        out: list[int] = []
        for (n, label, phase), durs in self.durations.items():
            if n == name and where(label, phase):
                out.extend(durs)
        return out

    def self_total_ns(self, name: str) -> int:
        return sum(v for (n, _l, _p), v in self.self_ns.items() if n == name)

    def size_total(self, name: str) -> int:
        return sum(v for (n, _l, _p), v in self.sizes.items() if n == name)

    def error_count(self, name: str, error: str) -> int:
        return self.errors.get((name, error), 0)
