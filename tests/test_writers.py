"""The package opens files for writing in one place: cli._overwrite.

Opening an existing file with truncation (open(path, "wb"), np.savez(path))
makes ext4 flush the new data at close, so every writer goes through the
in-place overwrite of cli._overwrite. This AST check fails when a module
opens a file for writing anywhere else.
"""

import ast
import re
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "microgrid_dp"

# The one function allowed to open a file for writing, as (module, function).
WRITER = ("cli", "_overwrite")

_WRITE_MODE = re.compile(r"[rwxabt+]*[wxa+][rwxabt+]*")
_NUMPY_SAVERS = {"save", "savez", "savez_compressed", "savetxt"}
_PATH_WRITERS = {"write_text", "write_bytes", "tofile"}


def _buffers(func: ast.AST) -> set[str]:
    """Names in func that np.save* may write into: an io.BytesIO(), which
    writes no file, or `with _overwrite(...) as name`, a file opened by the
    one writer."""
    names = set()
    for node in ast.walk(func):
        if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
                and ast.unparse(node.value.func) in ("io.BytesIO", "BytesIO")):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        if isinstance(node, ast.withitem) and isinstance(node.optional_vars, ast.Name) \
                and isinstance(node.context_expr, ast.Call) \
                and ast.unparse(node.context_expr.func) == WRITER[1]:
            names.add(node.optional_vars.id)
    return names


def _writes(tree: ast.Module) -> list[tuple[str, int, str]]:
    """(enclosing function, line, call) of every call that writes a file."""
    found = []

    def visit(node, func_name, buffers):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func_name, buffers = node.name, _buffers(node)
        if isinstance(node, ast.Call):
            name = ast.unparse(node.func)
            attr = node.func.attr if isinstance(node.func, ast.Attribute) else name
            modes = [a.value for a in [*node.args, *(k.value for k in node.keywords)]
                     if isinstance(a, ast.Constant) and isinstance(a.value, str)]
            writes = (
                (attr == "open" and any(_WRITE_MODE.fullmatch(m) for m in modes))
                or name == "os.open"
                or (name.split(".")[0] in ("np", "numpy") and attr in _NUMPY_SAVERS
                    and not (node.args and isinstance(node.args[0], ast.Name)
                             and node.args[0].id in buffers))
                or attr in _PATH_WRITERS)
            if writes:
                found.append((func_name, node.lineno, ast.unparse(node)))
        for child in ast.iter_child_nodes(node):
            visit(child, func_name, buffers)

    visit(tree, "<module>", set())
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_only_the_one_writer_opens_files_for_writing(path):
    writes = _writes(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
    if path.stem == WRITER[0]:
        assert {func for func, _, _ in writes} == {WRITER[1]}, writes
        writes = [w for w in writes if w[0] != WRITER[1]]
    assert not writes, f"{path.name} writes files outside cli._overwrite: {writes}"


@pytest.mark.parametrize("source,flagged", [
    ("open(p, 'wb')", True),
    ("open(p, mode='w', encoding='utf-8')", True),
    ("open(p, 'x')", True),
    ("open(p, 'a')", True),
    ("open(p, 'r+b')", True),
    ("Path(p).open('w')", True),
    ("Path(p).write_text(s)", True),
    ("os.open(p, os.O_WRONLY)", True),
    ("np.save(p, a)", True),
    ("np.savez(os.path.join(d, 'tables.npz'), values=v)", True),
    ("def f():\n    buf = io.BytesIO()\n    np.savez(buf, values=v)", False),
    ("def f():\n    with _overwrite(p) as fh:\n        np.savez(fh, values=v)", False),
    ("def f():\n    with open(p, 'rb') as fh:\n        np.savez(fh, values=v)", True),
    ("open(p, encoding='utf-8')", False),
    ("open(p, 'rb')", False),
    ("archive.open('actions.npy')", False),
])
def test_guard_flags_writes(source, flagged):
    assert bool(_writes(ast.parse(source))) is flagged
