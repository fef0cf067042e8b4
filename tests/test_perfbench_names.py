"""The benchmark's per-layer metrics wrap qbax functions by dotted name
(perfbench/layers.py).  A name that stops resolving, or a labelled call
whose arguments no longer bind, makes its metrics read null, so each
rename or removal must show up here first.  Nothing under perfbench/ is
changed by these tests."""

import importlib.util
import inspect
from pathlib import Path

import pytest

from qbax.catalog import Aq
from qbax.cyclicrep import qosc_rep, root_of_unity
from qbax.lmatrices import L_qdst

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


layers, spans = _load("layers"), _load("spans")


@pytest.mark.parametrize("name", sorted({*layers.SPANS, *layers.COUNTERS}))
def test_every_traced_name_resolves_to_a_callable(name):
    _, obj = spans.resolve(name)
    assert callable(obj), name


def test_labelled_spans_still_bind_their_arguments():
    # the transfer spans are labelled (N, sites) from the arguments named
    # rep and n_sites, bound as the tracer binds them
    _, fn = spans.resolve("cyclicrep.transfer_commutator_num")
    assert {"rep", "n_sites"} <= set(inspect.signature(fn).parameters)
    label_fn, _ = layers.SPANS["cyclicrep.transfer_commutator_num"]
    bound = inspect.signature(fn).bind(L_qdst, Aq, qosc_rep(5), 2, 1j, -1.0,
                                       root_of_unity(5)).arguments
    assert label_fn(bound) == (5, 2)
