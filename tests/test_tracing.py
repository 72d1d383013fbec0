"""The benchmark's timing wrappers install on the package and come off cleanly.

perfbench/tracing.py patches package attributes by name; a renamed or
deleted name makes install() raise here, in well under a second, instead
of inside the benchmark's smoke run.
"""

import importlib.util
import sys
from pathlib import Path

from microgrid_dp import cli, config, constraints, grid, kernel, simulate, solver

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
OWNERS = (cli, config, constraints, grid, kernel, simulate, solver, kernel.TransitionKernel)


def _load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve the module's string annotations through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def _attributes():
    return {(owner.__name__, name): value
            for owner in OWNERS for name, value in vars(owner).items()}


def test_install_then_uninstall_restores_every_attribute(monkeypatch):
    tracing = _load_tracing(monkeypatch)
    before = _attributes()
    tracer = tracing.install()
    try:
        during = _attributes()
    finally:
        tracer.uninstall()
    after = _attributes()
    patched = {key for key, value in during.items() if value is not before.get(key)}
    assert patched
    assert set(after) == set(before)
    assert all(after[key] is before[key] for key in before)
