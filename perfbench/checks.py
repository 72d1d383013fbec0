"""Correctness checks of one benchmark iteration against recorded references.

A reference file ``ref/<problem>.npz`` was written by ``record.py`` at the
commit that defined the benchmark. It holds the value and policy tables,
the SHA-256 of every exported step CSV and, for the paths simulated at
base seed 0, their SHA-256, action columns, last rows and (for the first
few seeds of each scenario) every numeric column.

Each check returns the number of failed operations, so the caller can
count failures against attempts. A file whose bytes match the recorded
hash passes at once; otherwise it is parsed and compared within the
tolerances below.
"""

from __future__ import annotations

import hashlib

import numpy as np

VALUE_ATOL = 1e-12   # value tables and exported numbers, absolute
PATH_RTOL = 1e-12    # path numeric columns at the reference seed, relative
REFERENCE_SEED = 0   # the CLI's default --base-seed
FULL_PATHS = 10      # seeds per scenario whose numeric columns are all recorded

EXPORT_HEADER = "i,j,k,z,r_mid,q,g,value_eur,action"
PATH_HEADER = "step,time_h,z,r,q,g,action,stage_cost_eur,cum_cost_eur"
PATH_NUMERIC = (1, 2, 3, 4, 5, 7, 8)  # time_h, z, r, q, g, stage, cum


def sha256_file(path: str) -> bytes:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).digest()


def action_labels() -> np.ndarray:
    from microgrid_dp.config import Action

    return np.array([a.label for a in sorted(Action)], dtype=object)


def check_tables(values: np.ndarray, actions: np.ndarray, ref) -> int:
    """1 if the policy differs anywhere or a value is off by more than VALUE_ATOL."""
    if values.shape != ref["values"].shape or actions.shape != ref["actions"].shape:
        return 1
    if not np.array_equal(actions, ref["actions"]):
        return 1
    return int(not np.all(np.abs(values - ref["values"]) <= VALUE_ATOL))


def _close(got: np.ndarray, want: np.ndarray, rtol: float) -> bool:
    """Within rtol of each column's largest magnitude (a zero entry allows no noise)."""
    return bool(np.all(np.abs(got - want) <= rtol * np.abs(want).max(axis=0, initial=0.0)))


def check_export_file(path: str, n: int, ref, labels: np.ndarray) -> bool:
    """One value_policy_step CSV: identical action column, numbers within VALUE_ATOL."""
    if sha256_file(path) == bytes(ref["export_sha"][n]):
        return True
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    z, q, g = ref["z_points"], ref["q_points"], ref["g_points"]
    n_states = len(z) * len(q) * len(g)
    if not lines or lines[0] != EXPORT_HEADER or len(lines) != n_states + 1:
        return False
    rows = [line.split(",") for line in lines[1:]]
    try:
        ijk = np.array([[int(r[0]), int(r[1]), int(r[2])] for r in rows])
        nums = np.array([[float(x) for x in r[3:8]] for r in rows])
        got_labels = [r[8] for r in rows]
    except (ValueError, IndexError):
        return False
    want_ijk = np.indices((len(z), len(q), len(g))).reshape(3, -1).T
    if not np.array_equal(ijk, want_ijk):
        return False
    i, j, k = want_ijk.T
    want = np.column_stack((z[i], ref["mu"][n] + z[i], q[j], g[k], ref["values"][n]))
    if not np.all(np.abs(nums - want) <= VALUE_ATOL):
        return False
    n_steps = ref["actions"].shape[0]
    want_labels = [""] * n_states if n == n_steps else list(labels[ref["actions"][n]])
    return got_labels == want_labels


def parse_path(path: str) -> tuple[np.ndarray, list[str], np.ndarray]:
    """(step column, action labels, numeric columns) of one path CSV."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != PATH_HEADER:
        raise ValueError(f"{path}: unexpected header {lines[0]!r}")
    rows = [line.split(",") for line in lines[1:]]
    steps = np.array([int(r[0]) for r in rows])
    nums = np.array([[float(r[c]) for c in PATH_NUMERIC] for r in rows]).reshape(-1, len(PATH_NUMERIC))
    return steps, [r[6] for r in rows], nums


def check_path_file(path: str, actions: np.ndarray, grid, labels: np.ndarray,
                    ref=None, scenario: int = 0, idx: int = 0) -> bool:
    """One simulated path.

    At every seed: one row per step, every number finite and every action
    the policy's action at the cell of the row's state. With ``ref`` (the
    reference seed) also: identical actions, the last row and, for the
    first FULL_PATHS seeds, every numeric column within PATH_RTOL.
    """
    try:
        steps, acts, nums = parse_path(path)
    except (ValueError, IndexError):
        return False
    n_steps = actions.shape[0]
    if not np.array_equal(steps, np.arange(n_steps)) or not np.isfinite(nums).all():
        return False
    z, q, g = nums[:, 1], nums[:, 3], nums[:, 4]
    nj, nk = grid.q.n_points, grid.g.n_points
    cells = ((np.searchsorted(grid.z.edges, z, side="left") * nj
              + np.searchsorted(grid.q.edges, q, side="left")) * nk
             + np.searchsorted(grid.g.edges, g, side="left"))
    if acts != list(labels[actions[np.arange(n_steps), cells]]):
        return False
    if ref is None:
        return True
    if sha256_file(path) == bytes(ref["path_sha"][scenario, idx]):
        return True
    if acts != list(labels[ref["path_actions"][scenario, idx]]):
        return False
    if not _close(nums[-1:], ref["path_last"][scenario, idx][None], PATH_RTOL):
        return False
    if idx < ref["path_full"].shape[1]:
        return _close(nums, ref["path_full"][scenario, idx], PATH_RTOL)
    return True
