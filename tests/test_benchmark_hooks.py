"""The benchmark tracer (perfbench/tracer.py) wraps library functions by name.
These tests fail when one of them is renamed or deleted, instead of a traced
benchmark run breaking later. The tracer source is only read, never changed.
"""

import importlib
import os
import runpy

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")
MODULES = ("autodiff", "evalsim", "geometry", "pipeline", "ssm", "tokens", "training")


def load_tracer():
    # run_path compiles the source without writing bytecode next to it
    return runpy.run_path(TRACER)


def test_tracer_entry_points_exist():
    entry_points = load_tracer()["ENTRY_POINTS"]
    missing = [f"scanpose.{module}.{attr}" for module, attr, _ in entry_points
               if not hasattr(importlib.import_module(f"scanpose.{module}"), attr)]
    assert entry_points and not missing, f"the tracer wraps missing names: {missing}"


def test_tracer_installs_and_restores():
    tracing = load_tracer()
    modules = {m: importlib.import_module(f"scanpose.{m}") for m in MODULES}
    before = {(m, a): getattr(modules[m], a) for m, a, _ in tracing["ENTRY_POINTS"]}
    tracer = tracing["Tracer"](modules)
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert all(getattr(modules[m], a) is fn for (m, a), fn in before.items())
