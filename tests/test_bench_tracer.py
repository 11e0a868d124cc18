"""The benchmark's tracer (perfbench/tracer.py) wraps lalec's functions by
name. Installing it here makes a rename or deletion of a wrapped name, such
as ``toyml.cross_val_score``, fail the tests rather than the benchmark."""

import importlib.util
import sys
from pathlib import Path

from lalec import cli, grammar_engine, optimizer  # noqa: F401  (the tracer imports them)
from lalec import operator_graph as og
from lalec import toyml
from lalec.space_backends import CompiledSpace, PcsSpace

TRACER = Path(__file__).parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bindings():
    """Each namespace the tracer patches, live, with a copy of its bindings:
    every lalec module, the two traced classes and the implementations."""
    owners = [vars(mod) for name, mod in sys.modules.items()
              if mod is not None and (name == "lalec" or name.startswith("lalec."))]
    owners += [vars(PcsSpace), vars(CompiledSpace), og.IMPLEMENTATIONS]
    return [(live, dict(live)) for live in owners]


def test_install_wraps_every_name_and_restore_puts_them_back():
    tracer_module = load_tracer()
    before = bindings()
    cross_val_score, knn = toyml.cross_val_score, og.IMPLEMENTATIONS["knn"]
    tracer = tracer_module.Tracer()
    try:
        tracer_module.install(tracer)
        assert toyml.cross_val_score is not cross_val_score
        assert og.IMPLEMENTATIONS["knn"] is not knn
    finally:
        tracer.restore()
    for live, saved in before:
        assert live.keys() == saved.keys()
        changed = [key for key, value in saved.items() if live[key] is not value]
        assert changed == []
