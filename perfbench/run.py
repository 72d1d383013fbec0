"""Benchmark of microgrid-dp: solve, export and simulate on two workloads.

Run from the repository root:

    python3 perfbench/run.py --workload table1-serial --seed 0 --seconds 10 --trace 0

Every workload runs the same pipeline through the public library and CLI:
one ``solver.solve``, then rounds of ``cli.export_value_policy`` for every
step 0..N followed by the ``simulate`` command of ``cli.main`` for all five
named scenarios, until ``--seconds`` have passed since the solve ended (at
least two rounds). Export and simulation times are medians over the
rounds. Every untraced phase time is corrected for the host's interpreter
speed by ``perfbench/hostspeed.py``. The last round's outputs are checked
against the references in ``perfbench/ref``.

With ``--trace 0`` the last stdout line reports the end-to-end metrics.
With ``--trace 1`` the pipeline first runs untraced with one round, then
again with the timing wrappers of ``perfbench/tracing.py`` installed, and
the last line reports the per-layer metrics (see NOTES.md). ``--smoke``
runs every workload's code path on a 4-step 6x4x4 instance in seconds.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


@dataclass(frozen=True)
class Workload:
    name: str
    config: str                # relative to the repository root
    ref: str                   # reference stem under perfbench/ref
    threads: str | None        # MICROGRID_DP_THREADS; None: the default cap, within usable CPUs
    seeds_per_scenario: int = 200   # paths simulated per named scenario


# Why each workload exists is recorded once, in BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    Workload("table1-serial", "configs/table1.ini", "table1", "1"),
    Workload("scenario-sim", "configs/table1.ini", "table1", None),
)}
SMOKE = {"config": "perfbench/configs/smoke.ini", "ref": "smoke", "seeds_per_scenario": 2}
SETUP_REPEATS = 5
MIN_ROUNDS = 2   # export + simulate rounds per untraced run

END_TO_END_UNITS = {"setup_s": "s", "solve_s": "s", "export_s": "s", "sim_s": "s",
                    "peak_rss_mb": "MB"}

# Timed in a fresh interpreter: import, load_config, build_grid.
_SETUP_CHILD = """
import sys
import hostspeed
with hostspeed.measure() as m:
    import microgrid_dp
    from microgrid_dp import config, grid
    grid.build_grid(config.load_config(sys.argv[1]))
print(m.seconds, m.wall)
"""


@dataclass
class Iteration:
    solve_s: float
    export_s: float   # median over rounds
    sim_s: float      # median over rounds
    wall: dict = field(default_factory=dict)   # the same phases' uncorrected wall times
    rounds: int = 1
    attempted: int = 0
    failed: int = 0
    digests: dict | None = None   # output file name -> SHA-256, to compare traced/untraced


@dataclass
class Outputs:
    values: object        # ValueTable
    policy: object        # PolicyTable
    grid: object          # StateGrid
    exported: list        # value_policy_step CSVs, step 0..N
    paths: list           # (scenario index, seed index, CSV path)
    config_hash: str


def measure_setup(cfg_path: str, repeats: int) -> tuple[float, float]:
    """Medians of the corrected and the wall time of import + load_config + build_grid,
    each in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(HERE))))
    samples = []
    for _ in range(repeats):
        out = subprocess.run([sys.executable, "-c", _SETUP_CHILD, cfg_path], env=env, cwd=ROOT,
                             capture_output=True, text=True, timeout=120, check=True)
        samples.append([float(x) for x in out.stdout.strip().splitlines()[-1].split()])
    corrected, wall = zip(*samples)
    return statistics.median(corrected), statistics.median(wall)


def run_pipeline(w: Workload, seed: int, out_dir: Path, seconds: float = 0.0,
                 min_rounds: int = 1, calibrate: bool = False) -> tuple[Iteration, Outputs]:
    """One timed solve, then export -> simulate rounds into out_dir.

    Each round overwrites the previous round's files. With ``calibrate``
    the phase times are corrected for the host's interpreter speed.
    """
    import numpy as np
    from microgrid_dp import cli, config, grid as grid_mod, simulate, solver

    import hostspeed

    cfg_path = str(ROOT / w.config)
    cfg = config.load_config(cfg_path)
    grid = grid_mod.build_grid(cfg)
    n_steps = cfg.discretization.steps_N
    policy_dir = out_dir / "policy"
    paths_dir = out_dir / "paths"
    scenarios = sorted(simulate.SCENARIOS)

    with hostspeed.measure(calibrate) as solve_m:
        values, policy = solver.solve(cfg, grid)
    export_m, sim_m = [], []
    commands = commands_failed = 0
    deadline = time.perf_counter() + seconds
    while len(export_m) < min_rounds or time.perf_counter() < deadline:
        with hostspeed.measure(calibrate) as m:
            written = cli.export_value_policy((values, policy), grid, list(range(n_steps + 1)),
                                              str(policy_dir), cfg)
            # The tables file `solve` writes beside its CSVs; `simulate --policy` reads it.
            np.savez(policy_dir / "tables.npz", values=values.values, actions=policy.actions)
        export_m.append(m)
        with hostspeed.measure(calibrate) as m:
            for name in scenarios:
                argv = ["simulate", cfg_path, "--policy", str(policy_dir), "--scenario", name,
                        "--seeds", str(w.seeds_per_scenario), "--base-seed", str(seed),
                        "--out", str(paths_dir)]
                commands += 1
                try:
                    with contextlib.redirect_stdout(io.StringIO()):
                        commands_failed += cli.main(argv) != 0
                except Exception as exc:  # counted as a failed operation, not fatal
                    print(f"simulate {name} raised {exc!r}", file=sys.stderr)
                    commands_failed += 1
        sim_m.append(m)

    def median(ms, attr):
        return statistics.median(getattr(m, attr) for m in ms)

    it = Iteration(solve_s=solve_m.seconds, export_s=median(export_m, "seconds"),
                   sim_s=median(sim_m, "seconds"),
                   wall={"solve_s": solve_m.wall, "export_s": median(export_m, "wall"),
                         "sim_s": median(sim_m, "wall")},
                   rounds=len(export_m), attempted=commands, failed=commands_failed)
    paths = [(s, idx, paths_dir / f"path_{name}_seed{idx:03d}.csv")
             for s, name in enumerate(scenarios) for idx in range(w.seeds_per_scenario)]
    return it, Outputs(values, policy, grid, written[:n_steps + 1], paths,
                       config.config_hash(cfg))


def check_outputs(it: Iteration, out: Outputs, seed: int, ref, labels) -> None:
    """Count every output (tables, each step CSV, each path) as one checked operation."""
    import checks

    it.digests = {}
    it.attempted += 1
    it.failed += (out.config_hash != str(ref["config_hash"])
                  or checks.check_tables(out.values.values, out.policy.actions, ref))
    for n, path in enumerate(out.exported):
        it.attempted += 1
        it.failed += not checks.check_export_file(path, n, ref, labels)
        it.digests[os.path.basename(path)] = checks.sha256_file(path)
    path_ref = ref if seed == checks.REFERENCE_SEED else None
    for s, idx, path in out.paths:
        it.attempted += 1
        ok = path.is_file() and checks.check_path_file(
            str(path), out.policy.actions, out.grid, labels, path_ref, s, idx)
        it.failed += not ok
        if ok:
            it.digests[path.name] = checks.sha256_file(str(path))


def checked_pipeline(w: Workload, seed: int, out_dir: Path, ref, labels,
                     seconds: float = 0.0, min_rounds: int = 1,
                     calibrate: bool = False) -> Iteration:
    it, out = run_pipeline(w, seed, out_dir, seconds, min_rounds, calibrate)
    check_outputs(it, out, seed, ref, labels)
    return it


def layer_metrics(tracer, traced: Iteration, untraced: Iteration, workers: int) -> dict:
    """Per-layer metrics of one traced pipeline pass."""
    from tracing import self_time

    by_name: dict[str, list] = {}
    children: dict[int, list] = {}
    for sp in tracer.spans:
        by_name.setdefault(sp.name, []).append(sp)
        children.setdefault(sp.parent, []).append(sp)

    def total(name: str) -> float:
        return sum(sp.duration for sp in by_name.get(name, []))

    def self_total(name: str) -> float:
        return sum(self_time(sp, children.get(sp.sid, [])) for sp in by_name.get(name, []))

    def median_s(name: str) -> float:
        return statistics.median(sp.duration for sp in by_name[name])

    def quantile(samples: list[float], q: int) -> float:
        return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]

    (solve_span,) = by_name["solver.solve"]
    kids = sorted(children.get(solve_span.sid, []), key=lambda sp: sp.start)
    main_kids = [sp for sp in kids if sp.thread == tracer.main_thread]
    # Main-thread time between the end of each mask and the next layer call:
    # waiting for the pool's blocks when threaded, a call gap when serial.
    block_wait = sum(nxt.start - sp.end for sp, nxt in zip(main_kids, main_kids[1:])
                     if sp.name == "solver.feasibility_mask")
    ends = sorted(sp.end for sp in by_name["solver.step_q_values"])
    step_ms = [1e3 * (b - a) for a, b in zip([solve_span.start] + ends[:-1], ends)]
    # CPU seconds inside the solve's layers over the CPU seconds the solve could use.
    capacity = solve_span.duration * min(workers, len(os.sched_getaffinity(0)))
    busy_ratio = sum(sp.cpu for sp in kids) / capacity
    paths = [1e3 * sp.duration for sp in by_name["simulate.simulate_path"]]
    c, secs = tracer.counts, tracer.seconds
    values = {
        "solver.feasibility_mask.s": (total("solver.feasibility_mask"), "s"),
        "constraints.feasible_actions.calls": (c["constraints.feasible_actions"], "count"),
        "dynamics.q_moments.calls": (c["dynamics.q_moments"], "count"),
        "dynamics.g_moments.calls": (c["dynamics.g_moments"], "count"),
        "constraints.feasible_frac": (c["constraints.feasible_pairs"]
                                      / c["constraints.mask_cells"], "ratio"),
        "kernel.battery_block.s": (total("kernel.battery_block"), "s"),
        "kernel.generator_block.s": (total("kernel.generator_block"), "s"),
        "kernel.bvn_evals": (c["kernel.bvn_evals"], "count"),
        "kernel.block_mb": (c["kernel.block_bytes_max"] / 1e6, "MB-computed"),
        "solver.step_q_values.self_s": (self_total("solver.step_q_values"), "s"),
        "solver.solve.self_s": (self_total("solver.solve"), "s"),
        "solver.block_wait_s": (block_wait, "s"),
        "solver.busy_ratio": (busy_ratio, "ratio"),
        "solver.step.ms_p50": (statistics.median(step_ms), "ms"),
        "solver.step.ms_p90": (quantile(step_ms, 90), "ms"),
        "cost.expected_stage_cost.calls": (c["cost.expected_stage_cost"], "count"),
        "cost.expected_stage_cost.s": (secs["cost.expected_stage_cost"], "s"),
        "simulate.simulate_path.calls": (len(paths), "count"),
        "simulate.simulate_path.ms_p50": (statistics.median(paths), "ms"),
        "simulate.simulate_path.ms_p99": (quantile(paths, 99), "ms"),
        "dynamics.transition_operator.s": (secs["dynamics.transition_operator"], "s"),
        "grid.cell_of.calls": (c["grid.cell_of"], "count"),
        "cli.export_value_policy.s": (total("cli.export_value_policy"), "s"),
        "cli.export.mb": (c["cli.export.bytes"] / 1e6, "MB"),
        "cli.main.self_s": (self_total("cli.main"), "s"),
        "cli.paths.mb": (c["cli.paths.bytes"] / 1e6, "MB"),
        "config.load_config.s": (median_s("config.load_config"), "s"),
        "grid.build_grid.s": (median_s("grid.build_grid"), "s"),
        "trace.solve_s": (traced.solve_s, "s"),
        "trace.sim_s": (traced.sim_s, "s"),
        "trace.solve_overhead_s": (traced.solve_s - untraced.solve_s, "s"),
        "trace.sim_overhead_s": (traced.sim_s - untraced.sim_s, "s"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def provenance(w: Workload, seed: int, cfg_hash: str, workers: int) -> dict:
    import numpy
    import scipy

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    why = next(x["why"] for x in spec["workloads"] if x["name"] == w.name)
    return {
        "workload": w.name, "why": why, "seed": seed, "config": w.config,
        "config_hash": cfg_hash, "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)), "worker_count": workers,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "machine": platform.machine(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run on the 4-step 6x4x4 instance instead")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    w = WORKLOADS[args.workload]
    if args.smoke:
        w = replace(w, **SMOKE)
    ref_path = HERE / "ref" / f"{w.ref}.npz"
    for needed in (SRC / "microgrid_dp" / "__init__.py", ROOT / w.config, ref_path):
        if not needed.is_file():
            print(f"error: {needed} is missing; run from a checkout of the repository",
                  file=sys.stderr)
            return 2
    # The library's default cap is min(4, os.cpu_count()), which ignores CPU
    # affinity and cgroup limits; never run more workers than usable CPUs.
    os.environ["MICROGRID_DP_THREADS"] = w.threads or str(min(4, len(os.sched_getaffinity(0))))
    sys.path[:0] = [str(SRC), str(HERE)]

    if not args.trace:
        setup_s, setup_wall = measure_setup(str(ROOT / w.config),
                                            1 if args.smoke else SETUP_REPEATS)

    import numpy as np
    from microgrid_dp import config, solver

    import checks
    import tracing

    labels = checks.action_labels()
    workers = solver.worker_count()
    cfg_hash = config.config_hash(config.load_config(str(ROOT / w.config)))
    scratch_root = ROOT / ".bench_out"
    scratch_root.mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(prefix=f"{w.name}-", dir=scratch_root))
    try:
        with np.load(ref_path) as data:
            ref = {k: data[k] for k in data.files}
        if args.trace:
            plain = checked_pipeline(w, args.seed, out_dir / "plain", ref, labels)
            tracer = tracing.install()
            try:
                it = checked_pipeline(w, args.seed, out_dir / "traced", ref, labels)
            finally:
                tracer.uninstall()
            tracer.counts["cli.paths.bytes"] = sum(
                p.stat().st_size for p in (out_dir / "traced" / "paths").glob("path_*.csv"))
            # Tracing must not change a byte of the CSV outputs.
            attempted = plain.attempted + it.attempted + 1
            failed = plain.failed + it.failed + (it.digests != plain.digests)
            metrics = layer_metrics(tracer, it, plain, workers)
        else:
            it = checked_pipeline(w, args.seed, out_dir, ref, labels, args.seconds, MIN_ROUNDS,
                                  calibrate=True)
            it.wall["setup_s"] = setup_wall
            attempted, failed = it.attempted, it.failed
            metrics = {
                "setup_s": setup_s,
                "solve_s": it.solve_s,
                "export_s": it.export_s,
                "sim_s": it.sim_s,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    info = provenance(w, args.seed, cfg_hash, workers)
    info.update(smoke=args.smoke, rounds=it.rounds, failed_frac=failed / attempted,
                wall_s=it.wall)
    print("provenance " + json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
