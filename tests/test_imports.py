"""Static check of the package sources: every imported name is used."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "microgrid_dp"

# (module, name) pairs imported on purpose without a use in the module.
EXEMPT = {
    # perfbench/tracing.py wraps solver.feasible_actions to count its calls.
    ("solver", "feasible_actions"),
    # ... and simulate.expected_stage_cost / simulate.transition_operator, which
    # the path simulator no longer calls (it runs their private forms).
    ("simulate", "expected_stage_cost"),
    ("simulate", "transition_operator"),
    # ... and constraints.q_moments, which the feasibility rule no longer calls.
    ("constraints", "q_moments"),
    # ... and constraints.g_moments, likewise.
    ("constraints", "g_moments"),
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
