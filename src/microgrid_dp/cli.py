"""Command-line surface: validate, calibrate, moments, solve, simulate, paper-run.

Exit codes: 0 success, 1 configuration/usage failure, 2 I/O failure,
3 numerical failure, each with a one-line message on stderr. All numeric
exports use shortest round-trip float formatting so identical inputs
yield byte-identical CSV files. Run as `microgrid-dp`, `python -m
microgrid_dp` or `python -m microgrid_dp.cli`.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import sys
import zipfile

import numpy as np

from . import __version__
from .calibrate import calibration_report
from .config import (ACTION_BY_LABEL, Action, ConfigError, ModelConfig, State,
                     config_hash, load_config)
from .dynamics import transition_moments
from .grid import StateGrid, build_grid
from .kernel import NumericalError
from .simulate import SCENARIOS, simulate_path
from .solver import PolicyTable, ValueTable, solve

__all__ = ["cli", "export_value_policy", "main"]


class _Parser(argparse.ArgumentParser):
    """Argument errors are usage/validation failures: exit 1, not argparse's 2."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        raise ConfigError([message])


def _build_parser() -> _Parser:
    parser = _Parser(prog="microgrid-dp",
                     description="Stochastic control of a standalone solar microgrid "
                                 "with battery and backup generator.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a config file")
    p.add_argument("config")

    p = sub.add_parser("calibrate", help="derive battery/generator parameters")
    p.add_argument("config")
    p.add_argument("--q-star", type=float, default=0.98)
    p.add_argument("--q-star-hours", type=float, default=96.0)
    p.add_argument("--charge-window", type=str, default="6,18", metavar="T1,T2")
    p.add_argument("--discharge-window", type=str, default="18,30", metavar="T1,T2")
    p.add_argument("--confidence", type=float, default=0.92)
    p.add_argument("--z1", type=float, default=0.0)
    p.add_argument("--battery-price", type=float, default=None)
    p.add_argument("--battery-life", type=float, default=None, help="hours until replacement")
    p.add_argument("--max-abs-r", type=float, default=3.0)

    p = sub.add_parser("moments", help="one-step conditional moments at a state")
    p.add_argument("config")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--z", type=float, required=True)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--g", type=float, required=True)
    p.add_argument("--action", required=True, choices=sorted(ACTION_BY_LABEL))

    p = sub.add_parser("solve", help="run the backward recursion and export tables")
    p.add_argument("config")
    p.add_argument("--out", required=True)
    p.add_argument("--export-steps", type=str, default=None,
                   help="comma-separated step indices (default: 0, N-12, N-1, N)")

    p = sub.add_parser("simulate", help="sample scenario paths under a solved policy")
    p.add_argument("config")
    p.add_argument("--policy", required=True, help="directory produced by solve")
    p.add_argument("--scenario", required=True, choices=sorted(SCENARIOS))
    p.add_argument("--seeds", type=int, default=1, help="number of path seeds")
    p.add_argument("--base-seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("paper-run", help="full pipeline: solve plus all scenario path sets")
    p.add_argument("config")
    p.add_argument("--out", default="paper-run-out")
    p.add_argument("--seeds", type=int, default=3)
    p.add_argument("--base-seed", type=int, default=0)
    return parser


def _parse_window(raw: str) -> tuple[float, float]:
    try:
        start, end = (float(part) for part in raw.split(","))
    except ValueError:
        raise ConfigError([f"window must be 'start,end' hours, got {raw!r}"]) from None
    if not (math.isfinite(start) and math.isfinite(end)):
        raise ConfigError([f"window hours must be finite, got {raw!r}"])
    return start, end


def _parse_export_steps(raw: str | None, cfg: ModelConfig) -> list[int]:
    """Sorted unique export steps from '--export-steps', range-checked against 0..N."""
    if raw is None:
        return _default_export_steps(cfg)
    try:
        steps = sorted({int(s) for s in raw.split(",")})
    except ValueError:
        raise ConfigError([f"--export-steps must be comma-separated step indices, got {raw!r}"]) from None
    n_steps = cfg.discretization.steps_N
    for n in steps:
        if not 0 <= n <= n_steps:
            raise ConfigError([f"export step {n} outside 0..{n_steps}"])
    return steps


def _check_policy_config(policy_dir: str, cfg: ModelConfig) -> None:
    """Refuse a policy directory solved for another config (value_policy_meta.json hash)."""
    path = os.path.join(policy_dir, "value_policy_meta.json")
    with open(path, encoding="utf-8") as fh:
        try:
            meta = json.load(fh)
        except ValueError as exc:
            raise OSError(f"unreadable policy metadata {path}: {exc}") from None
    recorded = meta.get("config_hash") if isinstance(meta, dict) else None
    expected = config_hash(cfg)
    if recorded != expected:
        raise ConfigError([f"policy in {policy_dir} was solved for config hash "
                           f"{str(recorded)[:16]}, not this config's {expected[:16]}"])


def _check_options(args, cfg: ModelConfig) -> None:
    """Range checks of the numeric options, before any work: one usage error each.

    Every float option must be finite; the ranges below apply on top.
    """
    errors = [f"--{name.replace('_', '-')} must be finite, got {value}"
              for name, value in vars(args).items()
              if isinstance(value, float) and not math.isfinite(value)]
    if args.command == "moments":
        n_steps = cfg.discretization.steps_N
        if not 0 <= args.n < n_steps:
            errors.append(f"--n {args.n} outside 0..{n_steps - 1}")
        for name in ("q", "g"):
            value = getattr(args, name)
            if math.isfinite(value) and not 0.0 <= value <= 1.0:
                errors.append(f"--{name} must lie in [0, 1], got {value}")
    if args.command in ("simulate", "paper-run"):
        if args.seeds < 1:
            errors.append(f"--seeds must be >= 1, got {args.seeds}")
        if args.base_seed < 0:
            errors.append(f"--base-seed must be >= 0, got {args.base_seed}")
    if errors:
        raise ConfigError(errors)


_LABELS = [a.label for a in Action]  # action label by its int8 policy code


def export_value_policy(tables: tuple[ValueTable, PolicyTable], grid: StateGrid,
                        steps: list[int], out_dir: str, cfg: ModelConfig) -> list[str]:
    """Write one CSV per step (i,j,k,z,r_mid,q,g,value_eur,action) plus metadata.

    Floats are written as repr of Python floats (shortest round trip). The
    step-free 'i,j,k,z,' and ',q,g,' parts of every row are formatted once
    per call; each step formats only its r_mid per z point, one value per
    state and the action labels (empty at the terminal step N), and writes
    its file in one call.
    """
    values, policy = tables
    n_steps = cfg.discretization.steps_N
    z_points = grid.z.points.tolist()
    mu = cfg.constants.mu
    rows = [(f"{i},{j},{k},{z!r},", i, f",{q!r},{g!r},")
            for i, z in enumerate(z_points)
            for j, q in enumerate(grid.q.points.tolist())
            for k, g in enumerate(grid.g.points.tolist())]
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for n in steps:
        if not 0 <= n <= n_steps:
            raise ConfigError([f"export step {n} outside 0..{n_steps}"])
        r_mid = [repr(mu[n] + z) for z in z_points]
        labels = ([""] * len(rows) if n == n_steps
                  else [_LABELS[a] for a in policy.actions[n].tolist()])
        body = "".join(f"{head}{r_mid[i]}{qg}{v!r},{label}\n"
                       for (head, i, qg), v, label in zip(rows, values.values[n].tolist(), labels))
        path = os.path.join(out_dir, f"value_policy_step{n:04d}.csv")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("i,j,k,z,r_mid,q,g,value_eur,action\n" + body)
        written.append(path)
    meta = {
        "config_hash": config_hash(cfg),
        "version": __version__,
        "steps": list(steps),
        "grid": {
            "z_points": [float(v) for v in grid.z.points],
            "q_points": [float(v) for v in grid.q.points],
            "g_points": [float(v) for v in grid.g.points],
        },
    }
    meta_path = os.path.join(out_dir, "value_policy_meta.json")
    with open(meta_path, "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    written.append(meta_path)
    return written


def _solve_and_export(cfg: ModelConfig, grid: StateGrid, steps: list[int],
                      out_dir: str) -> tuple[PolicyTable, list[str]]:
    """Solve, then write the value/policy CSVs of `steps`, their metadata and tables.npz."""
    values, policy = solve(cfg, grid)
    outputs = export_value_policy((values, policy), grid, steps, out_dir, cfg)
    path = os.path.join(out_dir, "tables.npz")
    np.savez(path, values=values.values, actions=policy.actions)
    outputs.append(path)
    return policy, outputs


def _load_tables(policy_dir: str, cfg: ModelConfig, grid: StateGrid) -> PolicyTable:
    """The policy in policy_dir/tables.npz; unreadable or misshapen tables are I/O errors."""
    path = os.path.join(policy_dir, "tables.npz")
    try:
        with open(path, "rb") as fh, np.load(fh) as data:
            values, actions = data["values"], data["actions"]
    except (ValueError, KeyError, EOFError, TypeError, zipfile.BadZipFile) as exc:
        # TypeError: a bare .npy array, which is no archive (no context manager)
        raise OSError(f"unreadable policy tables {path}: {exc}") from None
    n_steps = cfg.discretization.steps_N
    for name, table, shape in (("values", values, (n_steps + 1, grid.n_states)),
                               ("actions", actions, (n_steps, grid.n_states))):
        if table.shape != shape:
            raise OSError(f"policy tables {path}: {name} has shape {table.shape}, "
                          f"expected {shape}")
    if not np.isin(actions, list(Action)).all():
        raise OSError(f"policy tables {path}: actions holds codes outside 0..{len(Action) - 1}")
    return PolicyTable(actions)


def _write_paths_csv(records, step_prefixes: list[str], path: str) -> None:
    """One path's records as CSV; step_prefixes[n] is the 'step,time_h,' of step n."""
    body = "".join(
        f"{head}{rec.z!r},{rec.r!r},{rec.q!r},{rec.g!r},{rec.action.label},"
        f"{rec.stage_cost_eur!r},{rec.cum_cost_eur!r}\n"
        for head, rec in zip(step_prefixes, records))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("step,time_h,z,r,q,g,action,stage_cost_eur,cum_cost_eur\n" + body)


def _write_manifest(out_dir: str, cfg: ModelConfig, seed, outputs: list[str]) -> None:
    manifest = {
        "config_hash": config_hash(cfg),
        "version": __version__,
        "seed": seed,
        "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "outputs": sorted(os.path.relpath(p, out_dir) for p in outputs),
    }
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _default_export_steps(cfg: ModelConfig) -> list[int]:
    n = cfg.discretization.steps_N
    return sorted({0, max(0, n - 12), max(0, n - 1), n})


def _simulate_scenario(cfg, grid, policy, scenario, seeds: int, out_dir: str) -> list[str]:
    os.makedirs(out_dir, exist_ok=True)
    # the step and time_h columns are the same for every path
    step_prefixes = [f"{n},{cfg.t_of(n)!r}," for n in range(cfg.discretization.steps_N)]
    written = []
    for idx in range(seeds):
        records = simulate_path(policy, scenario, cfg, grid, path_index=idx)
        path = os.path.join(out_dir, f"path_{scenario.name}_seed{idx:03d}.csv")
        _write_paths_csv(records, step_prefixes, path)
        written.append(path)
    return written


def _run(args) -> int:
    cfg = load_config(args.config)
    _check_options(args, cfg)

    if args.command == "validate":
        cfg.constants  # a config whose one-step constants cannot be formed exits 3
        print(f"configuration valid (hash {config_hash(cfg)[:16]})")
        return 0

    if args.command == "calibrate":
        window_charge = _parse_window(args.charge_window)
        window_discharge = _parse_window(args.discharge_window)
        try:
            report = calibration_report(
                cfg,
                q_star=args.q_star, q_star_hours=args.q_star_hours,
                window_charge=window_charge, window_discharge=window_discharge,
                p=args.confidence, z1=args.z1,
                battery_price=args.battery_price, battery_life_h=args.battery_life,
                max_abs_R=args.max_abs_r,
            )
        except ValueError as exc:  # out-of-range calibration inputs
            raise ConfigError([str(exc)]) from None
        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
        return 0

    if args.command == "moments":
        mom = transition_moments(args.n, State(args.z, args.q, args.g),
                                 ACTION_BY_LABEL[args.action], cfg)
        print(json.dumps({k: getattr(mom, k) for k in (
            "m_Z", "var_Z", "m_Q", "var_Q", "m_G", "var_G",
            "cov_ZQ", "rho_Q", "cov_ZG", "rho_G")}, indent=2))
        return 0

    grid = build_grid(cfg)

    if args.command == "solve":
        steps = _parse_export_steps(args.export_steps, cfg)
        _, outputs = _solve_and_export(cfg, grid, steps, args.out)
        _write_manifest(args.out, cfg, None, outputs)
        print(f"solved {cfg.discretization.steps_N} steps x {grid.n_states} states -> {args.out}")
        return 0

    if args.command == "simulate":
        _check_policy_config(args.policy, cfg)
        policy = _load_tables(args.policy, cfg, grid)
        scenario = SCENARIOS[args.scenario].with_seed(args.base_seed)
        os.makedirs(args.out, exist_ok=True)
        outputs = _simulate_scenario(cfg, grid, policy, scenario, args.seeds, args.out)
        _write_manifest(args.out, cfg, args.base_seed, outputs)
        print(f"wrote {len(outputs)} path file(s) -> {args.out}")
        return 0

    if args.command == "paper-run":
        policy, outputs = _solve_and_export(cfg, grid, _default_export_steps(cfg), args.out)
        for name in ("sunny-start", "overcast-break", "sunny-finish", "overcast-week"):
            scenario = SCENARIOS[name].with_seed(args.base_seed)
            outputs.extend(_simulate_scenario(cfg, grid, policy, scenario,
                                              args.seeds, args.out))
        _write_manifest(args.out, cfg, args.base_seed, outputs)
        print(f"pipeline complete: {len(outputs)} file(s) -> {args.out}")
        return 0

    raise AssertionError(f"unhandled command {args.command}")


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _run(args)
    except ConfigError as exc:
        print(f"error: {'; '.join(exc.errors)}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


cli = main


if __name__ == "__main__":
    sys.exit(main())
