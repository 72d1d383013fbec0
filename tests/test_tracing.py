"""The benchmark's timing wrappers install on the package and come off cleanly.

perfbench/tracing.py patches package attributes by name; a renamed or
deleted name makes install() raise here, in well under a second, instead
of inside the benchmark's smoke run. Each import that test_imports.EXEMPT
keeps for the benchmark must be one that install() patches, so that an
exemption goes stale here as soon as the benchmark stops reading it.
"""

import importlib.util
import sys
from pathlib import Path

from microgrid_dp import cli, config, constraints, grid, kernel, simulate, solver
from test_imports import EXEMPT

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


def _patched(monkeypatch):
    """(attributes before, attributes after) install-then-uninstall, and the patched keys."""
    tracing = _load_tracing(monkeypatch)
    before = _attributes()
    tracer = tracing.install()
    try:
        during = _attributes()
    finally:
        tracer.uninstall()
    patched = {key for key, value in during.items() if value is not before.get(key)}
    return before, _attributes(), patched


def test_install_then_uninstall_restores_every_attribute(monkeypatch):
    before, after, patched = _patched(monkeypatch)
    assert patched
    assert set(after) == set(before)
    assert all(after[key] is before[key] for key in before)


def test_every_exempt_import_is_patched_by_install(monkeypatch):
    _, _, patched = _patched(monkeypatch)
    exempt = {(f"microgrid_dp.{module}", name) for module, name in EXEMPT}
    assert exempt <= patched, sorted(exempt - patched)


def test_law_counts_are_one_call_per_mask(monkeypatch, cfg_table1, grid_table1):
    """The feasibility rule reads the two Gaussian laws through
    constraints.q_moments and g_moments, the names the tracer counts, once
    each per feasibility_mask call: one mask over the horizon of a table1 solve."""
    tracer = _load_tracing(monkeypatch).install()
    try:
        solver.solve(cfg_table1, grid_table1)
    finally:
        tracer.uninstall()
    masks = sum(span.name == "solver.feasibility_mask" for span in tracer.spans)
    assert masks == 1
    assert tracer.counts["dynamics.q_moments"] == tracer.counts["dynamics.g_moments"] == masks
