"""The benchmark's tracer still fits the package it wraps.

`perfbench/tracer.py` replaces the package's public functions and
methods with timing wrappers from outside, so renaming or deleting one
it names breaks the benchmark.  One tiny traced solve here catches that
on every interpreter the tier-1 suite runs on.  The tracer is loaded
from its file and never changed.
"""

import importlib.util
import sys
import time
from pathlib import Path

import clusterbp.cli
from clusterbp import random_planar_map

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def namespaces(tracer):
    """Every namespace the tracer may patch: the package's modules and
    the classes whose methods it wraps, each as a copy of its dict."""
    owners = [
        module
        for name, module in sorted(sys.modules.items())
        if name == "clusterbp" or name.startswith("clusterbp.")
    ]
    for short, cls_name in tracer.METHODS:
        owners.append(getattr(sys.modules[f"clusterbp.{short}"], cls_name))
    return {owner: dict(vars(owner)) for owner in owners}


def test_install_and_uninstall_round_trip():
    module = load_tracer()
    tracer = module.Tracer()
    before = namespaces(module)
    started = time.perf_counter()
    tracer.install()
    try:
        wrapped = [(owner, attr) for owner, attr, _ in tracer._undo]
        assert wrapped
        for owner, attr in wrapped:
            assert vars(owner)[attr] is not before[owner][attr], (owner, attr)
        outcome = clusterbp.cli.color_problem(random_planar_map(4, 4, seed=1))
    finally:
        tracer.uninstall()
    assert outcome.valid
    for owner, attr in wrapped:
        assert vars(owner)[attr] is before[owner][attr], (owner, attr)
    assert namespaces(module) == before
    metrics = tracer.metrics(time.perf_counter() - started)
    assert metrics["inference.messages"] == outcome.messages > 0
    # `marginals` reads each variable off the table algebra.
    assert metrics["factors.marginalize.calls"] > 0
