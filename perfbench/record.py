"""Record the correctness references in perfbench/ref from the current code.

Run from the repository root only at a commit whose outputs are trusted:

    python3 perfbench/record.py

For each reference stem it runs the pipeline of one workload on that
problem (they all simulate the same paths), at base seed 0, and stores the
value and policy tables, the grid points, the seasonal mean per step, the
SHA-256 of every exported step CSV and of every path CSV, every path's
action column and last row, and every numeric column of the first
checks.FULL_PATHS paths per scenario.
"""

from __future__ import annotations

import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import run


def record(w: run.Workload) -> None:
    import numpy as np
    from microgrid_dp import config

    import checks

    cfg = config.load_config(str(run.ROOT / w.config))
    labels = list(checks.action_labels())
    scratch = run.ROOT / ".bench_out"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        _, out = run.run_pipeline(w, checks.REFERENCE_SEED, Path(tmp) / "out")
        n_scen = 1 + max(s for s, _, _ in out.paths)
        per = w.seeds_per_scenario
        n_steps = cfg.discretization.steps_N
        sha = np.zeros((n_scen, per, 32), dtype=np.uint8)
        acts = np.zeros((n_scen, per, n_steps), dtype=np.int8)
        last = np.zeros((n_scen, per, len(checks.PATH_NUMERIC)))
        full = np.zeros((n_scen, min(per, checks.FULL_PATHS), n_steps, len(checks.PATH_NUMERIC)))
        for s, idx, path in out.paths:
            _, names, nums = checks.parse_path(str(path))
            sha[s, idx] = np.frombuffer(checks.sha256_file(str(path)), dtype=np.uint8)
            acts[s, idx] = [labels.index(a) for a in names]
            last[s, idx] = nums[-1]
            if idx < full.shape[1]:
                full[s, idx] = nums
        export_sha = np.array([np.frombuffer(checks.sha256_file(p), dtype=np.uint8)
                               for p in out.exported])
    mu = np.array([config.seasonality(cfg.t_of(n), cfg.demand) for n in range(n_steps + 1)])
    target = run.HERE / "ref" / f"{w.ref}.npz"
    np.savez_compressed(
        target, values=out.values.values, actions=out.policy.actions,
        z_points=out.grid.z.points, q_points=out.grid.q.points, g_points=out.grid.g.points,
        mu=mu, export_sha=export_sha, path_sha=sha, path_actions=acts, path_last=last,
        path_full=full, config_hash=np.array(config.config_hash(cfg)))
    print(f"recorded {target.relative_to(run.ROOT)}")


def main() -> int:
    sys.path[:0] = [str(run.SRC), str(run.HERE)]
    smoke = replace(run.WORKLOADS["scenario-sim"], **run.SMOKE)
    for w in {w.ref: w for w in [*run.WORKLOADS.values(), smoke]}.values():
        record(w)
    return 0


if __name__ == "__main__":
    sys.exit(main())
