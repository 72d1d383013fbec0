"""Checks of the package's imports: every imported name is used, no module
imports another package module's private (underscore) name, and the
package runs without scipy, which only the tests use."""

import ast
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "microgrid_dp"

# (module, name) pairs imported on purpose without a use in the module.
EXEMPT = {
    # perfbench/tracing.py wraps solver.feasible_actions to count its calls.
    ("solver", "feasible_actions"),
    # ... and simulate.transition_operator, which the step loop no longer calls.
    ("simulate", "transition_operator"),
}


def _imported(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def _used(tree: ast.Module) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:  # names re-exported through __all__ count as used
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return used


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    exempt = {name for module, name in EXEMPT if module == path.stem}
    imported = _imported(tree)
    assert exempt <= imported, f"stale exemption in {path.name}: {sorted(exempt - imported)}"
    unused = imported - _used(tree) - exempt
    assert not unused, f"{path.name} imports unused names: {sorted(unused)}"


def _private_package_imports(tree: ast.Module) -> list[str]:
    """Underscore names imported from a package module (relative or absolute)."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").startswith("microgrid_dp")):
            found += [f"{node.module}.{a.name}" for a in node.names
                      if a.name.startswith("_") and not a.name.startswith("__")]
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_private_names_cross_modules(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    private = _private_package_imports(tree)
    assert not private, f"{path.name} imports private names: {private}"


# A fresh interpreter whose import system refuses scipy imports the package
# and its CLI, solves a tiny grid with eta0 = beta_R (where the closed forms
# of the noise integrals would cancel; the one tanh-sinh route takes them),
# and runs calibrate and a tiny paper-run.
_SCIPY_FREE_RUN = textwrap.dedent("""
    import dataclasses, sys

    class RefuseScipy:
        def find_spec(self, name, path=None, target=None):
            if name.split(".")[0] == "scipy":
                raise ModuleNotFoundError(f"{name} is refused")
            return None

    sys.meta_path.insert(0, RefuseScipy())
    import microgrid_dp as m
    import microgrid_dp.cli
    cfg = m.default_config()
    tiny = dataclasses.replace(cfg.discretization, horizon_T=2.0, steps_N=2, N_Z=3, N_Q=2, N_G=2)
    cfg = dataclasses.replace(cfg, discretization=tiny)
    singular = dataclasses.replace(cfg, battery=dataclasses.replace(cfg.battery,
                                                                    eta0=cfg.demand.beta_R))
    m.solve(m.validate_config(singular), m.build_grid(singular))
    ini = sys.argv[1] + "/tiny.ini"
    with open(ini, "w", encoding="utf-8") as f:
        f.write(m.dump_config(cfg))
    assert microgrid_dp.cli.main(["calibrate", ini]) == 0
    assert microgrid_dp.cli.main(["paper-run", ini, "--out", sys.argv[1] + "/run",
                                  "--seeds", "1"]) == 0
    loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
    assert not loaded, loaded
""")


def test_package_and_cli_run_without_scipy(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run([sys.executable, "-c", _SCIPY_FREE_RUN, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
