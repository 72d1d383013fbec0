"""The README's library quick start runs as written."""

import contextlib
import io
import math
import re
from pathlib import Path

import microgrid_dp as m

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quick_start_runs():
    """One table1 solve and one simulated path: a public name that is
    deleted or renamed fails here, not when a reader copies the block."""
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.M | re.S)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), {})
    value, action, cost = out.getvalue().splitlines()
    assert math.isfinite(float(value)) and math.isfinite(float(cost))
    assert action in {a.label for a in m.Action}
