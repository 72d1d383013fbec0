"""Command-line surface: validate, calibrate, moments, solve, simulate, paper-run.

Exit codes: 0 success, 1 configuration/usage failure, 2 I/O failure,
3 numerical failure. main prints the one stderr line of every failure:
argparse errors raise ConfigError (no usage text), numpy's floating-point
warnings are silenced while a command runs, and a non-finite field of the
moments or calibrate JSON is a NumericalError.

All numeric exports use shortest round-trip float formatting so
identical inputs yield byte-identical CSV files: both CSV writers format
every float with floatfmt.reprs, whose bytes are those of repr of the
Python float. Its array fast path covers 1e-4 <= |x| < 1e15; +-0.0 is
written directly and every other value goes to repr itself. `simulate`
and `paper-run` simulate the paths of a scenario in batches of
_PATHS_PER_BATCH (simulate_paths). Both writers format about
_FLOATS_PER_FORMAT floats per call: the paths of a column, or the steps
of the value export. The value export formats the r_mid of all its steps
(one string per step and z) up front, and each step's rows share those
strings. The path writer formats its fuel column one run of repeated bits
at a time (_reprs_by_run). main parses with one parser per
process (_build_parser is cached; parse_args keeps no state on it).
Every output file is opened by _overwrite, which overwrites an existing
file in place and then truncates it to the new length. A write that
fails still exits 2 and leaves that file invalid. A re-run into a used
directory that stops early (killed, or a crash or power loss before the
data reach the disk) can leave files that mix this run's bytes with the
previous run's and still parse, beside the previous run's manifest.json;
use a fresh --out where that matters. `solve` and `paper-run` create
--out before they solve, so an --out that is a file, or lies under one,
exits 2 at once; a run that then fails in the solve (exit 3) leaves an
empty --out behind. Run as `microgrid-dp`, `python -m
microgrid_dp` or `python -m microgrid_dp.cli`.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import datetime
import functools
import json
import math
import operator
import os
import sys
import zipfile

import numpy as np

from . import __version__
from .calibrate import calibration_report
from .config import (ACTION_BY_LABEL, Action, ConfigError, ModelConfig, State,
                     config_hash, load_config)
from .dynamics import transition_moments
from .floatfmt import reprs
from .grid import StateGrid, build_grid
from .kernel import NumericalError
# The batch simulator under the name perfbench/tracing.py times (cli.simulate_path).
from .simulate import SCENARIOS, simulate_paths as simulate_path
from .solver import PolicyTable, ValueTable, solve, stage_cost_rows, terminal_values

__all__ = ["export_value_policy", "main"]


class _Parser(argparse.ArgumentParser):
    """Argument errors are usage failures: main's one line and exit 1, not argparse's 2."""

    def error(self, message: str):
        raise ConfigError([message])


@functools.cache
def _build_parser() -> _Parser:
    """The command-line parser, built once per process: parse_args keeps no state on it."""
    parser = _Parser(prog="microgrid-dp",
                     description="Stochastic control of a standalone solar microgrid "
                                 "with battery and backup generator.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a config file")
    p.add_argument("config")

    # No defaults here: an option left out keeps calibration_report's default.
    p = sub.add_parser("calibrate", help="derive battery/generator parameters")
    p.add_argument("config")
    p.add_argument("--q-star", type=float)
    p.add_argument("--q-star-hours", type=float)
    p.add_argument("--charge-window", metavar="T1,T2")
    p.add_argument("--discharge-window", metavar="T1,T2")
    p.add_argument("--confidence", type=float)
    p.add_argument("--z1", type=float)
    p.add_argument("--battery-price", type=float)
    p.add_argument("--battery-life", type=float, help="hours until replacement")
    p.add_argument("--max-abs-r", type=float)

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

    p = sub.add_parser("paper-run", help="full pipeline: solve plus every non-neutral "
                                         "scenario's path set")
    p.add_argument("config")
    p.add_argument("--out", default="paper-run-out")
    p.add_argument("--seeds", type=int, default=3)
    p.add_argument("--base-seed", type=int, default=0)
    return parser


def _parse_window(raw: str | None) -> tuple[float, float] | None:
    if raw is None:
        return None
    try:
        start, end = (float(part) for part in raw.split(","))
    except ValueError:
        raise ConfigError([f"window must be 'start,end' hours, got {raw!r}"]) from None
    if not (math.isfinite(start) and math.isfinite(end)):
        raise ConfigError([f"window hours must be finite, got {raw!r}"])
    return start, end


def _check_export_steps(steps, cfg: ModelConfig) -> list[int]:
    """steps as Python ints, in the order given; the first that is not an integer in 0..N is refused.

    Any integer type passes (operator.index), so numpy integers are written
    to the metadata as plain ints.
    """
    n_steps = cfg.discretization.steps_N
    checked = []
    for n in steps:
        try:
            n = operator.index(n)
        except TypeError:
            raise ConfigError([f"export step {n!r} is not an integer"]) from None
        if not 0 <= n <= n_steps:
            raise ConfigError([f"export step {n} outside 0..{n_steps}"])
        checked.append(n)
    return checked


def _parse_export_steps(raw: str | None, cfg: ModelConfig) -> list[int]:
    """Sorted unique export steps from '--export-steps', range-checked against 0..N."""
    if raw is None:
        return _default_export_steps(cfg)
    try:
        steps = sorted({int(s) for s in raw.split(",")})
    except ValueError:
        raise ConfigError([f"--export-steps must be comma-separated step indices, got {raw!r}"]) from None
    return _check_export_steps(steps, cfg)


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
    if args.command == "calibrate" and args.max_abs_r is not None and None in (
            args.battery_price, args.battery_life):
        errors.append("--max-abs-r needs --battery-price and --battery-life")
    if args.command in ("simulate", "paper-run"):
        if args.seeds < 1:
            errors.append(f"--seeds must be >= 1, got {args.seeds}")
        if args.base_seed < 0:
            errors.append(f"--base-seed must be >= 0, got {args.base_seed}")
    if errors:
        raise ConfigError(errors)


@contextlib.contextmanager
def _overwrite(path: str):
    """A binary file object whose writes become the whole content of path.

    The file is opened without O_TRUNC, overwritten in place from its start
    and truncated to the written length at the end. On ext4, truncating a
    non-empty file to zero makes close() force writeback of the new data
    (auto_da_alloc), which costs several times the write itself; a temp
    file renamed over the old one pays it too. The buffered file object
    retries a write that a signal cuts short. Every file the CLI writes is
    opened here.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "wb") as fh:
        yield fh
        fh.truncate()


def _write_bytes(path: str, data) -> None:
    with _overwrite(path) as fh:
        fh.write(data)


def _write_json(path: str, obj) -> None:
    _write_bytes(path, (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode())


# By action code: the action column of both CSV writers, an object array that a code table gathers.
_LABELS = np.array([a.label.encode() for a in Action], dtype=object)

# Floats per reprs call, rounded down to whole steps or paths (at least
# one): enough to amortise reprs' per-call cost, few enough that the
# formatted strings stay a few MB. On table1, 4 steps of 2178 values or
# 64 paths of 168.
_FLOATS_PER_FORMAT = 10_752


def export_value_policy(tables: tuple[ValueTable, PolicyTable], grid: StateGrid,
                        steps: list[int], out_dir: str, cfg: ModelConfig) -> list[str]:
    """Write one CSV per step (i,j,k,z,r_mid,q,g,value_eur,action) plus metadata.

    Every step is checked (an integer in 0..N) before the first file is
    written. Floats are written by floatfmt.reprs, so each is the repr of a
    Python float (shortest round trip): the grid points and the r_mid of
    every step (mu[n] + z, one string per (step, z), shared by that step's
    rows) once per call, and the values of as many steps per reprs call as
    _FLOATS_PER_FORMAT holds. A file is one bytes.join of a list of row
    parts whose step-free 'i,j,k,z,' and ',q,g,' parts are set once per
    call; each step sets its r_mid, value and ',action' parts (empty labels
    at the terminal step N).
    """
    values, policy = tables
    steps = _check_export_steps(steps, cfg)
    n_steps = cfg.discretization.steps_N
    z, q, g = (reprs(axis.points).tolist() for axis in (grid.z, grid.q, grid.g))
    cells = list(np.ndindex(grid.shape))
    # header, then five parts per row: 'i,j,k,z,' r_mid ',q,g,' value ',action\n'
    parts = [b"i,j,k,z,r_mid,q,g,value_eur,action\n"] + [b""] * (5 * len(cells))
    parts[1::5] = [b"%d,%d,%d,%s," % (i, j, k, z[i]) for i, j, k in cells]
    parts[3::5] = [b",%s,%s," % (q[j], g[k]) for _, j, k in cells]
    ends = np.array([b",%s\n" % label for label in _LABELS], dtype=object)
    r_mid = (cfg.constants.mu[steps][:, None] + grid.z.points).ravel()
    r_mid_strs = np.array([s for first in range(0, r_mid.size, _FLOATS_PER_FORMAT)
                           for s in reprs(r_mid[first:first + _FLOATS_PER_FORMAT]).tolist()],
                          dtype=object).reshape(len(steps), grid.shape[0])
    os.makedirs(out_dir, exist_ok=True)
    written = []
    per_z = len(cells) // grid.shape[0]  # rows per z, contiguous: the rows are row-major
    per_call = max(1, _FLOATS_PER_FORMAT // grid.n_states)
    for first in range(0, len(steps), per_call):
        chunk = steps[first:first + per_call]
        value_strs = reprs(values.values[chunk].ravel()).reshape(len(chunk), -1)
        for n, vals, r_mids in zip(chunk, value_strs, r_mid_strs[first:first + per_call]):
            for i, r_mid_str in enumerate(r_mids.tolist()):
                parts[2 + 5 * per_z * i:2 + 5 * per_z * (i + 1):5] = [r_mid_str] * per_z
            parts[4::5] = vals.tolist()
            parts[5::5] = ([b",\n"] * len(cells) if n == n_steps
                           else ends[policy.actions[n]].tolist())
            path = os.path.join(out_dir, f"value_policy_step{n:04d}.csv")
            _write_bytes(path, b"".join(parts))
            written.append(path)
    meta = {
        "config_hash": config_hash(cfg),
        "version": __version__,
        "steps": steps,
        "grid": {f"{axis.name}_points": axis.points.tolist() for axis in (grid.z, grid.q, grid.g)},
    }
    meta_path = os.path.join(out_dir, "value_policy_meta.json")
    _write_json(meta_path, meta)
    written.append(meta_path)
    return written


def _solve_and_export(cfg: ModelConfig, grid: StateGrid, steps: list[int],
                      out_dir: str) -> tuple[PolicyTable, list[str]]:
    """Solve, then write the value/policy CSVs of `steps`, their metadata and tables.npz.

    out_dir is created first, so an --out that cannot be a directory fails
    before the solve runs.
    """
    os.makedirs(out_dir, exist_ok=True)
    values, policy = solve(cfg, grid)
    outputs = export_value_policy((values, policy), grid, steps, out_dir, cfg)
    path = os.path.join(out_dir, "tables.npz")
    with _overwrite(path) as fh:
        np.savez(fh, values=values.values, actions=policy.actions)
    outputs.append(path)
    return policy, outputs


def _npy_shape(archive: zipfile.ZipFile, name: str) -> tuple[int, ...]:
    """The shape of the .npy member name, read from its header alone.

    The member's size must be the header's plus shape x itemsize, so a
    truncated or padded body is refused without reading it.
    """
    info = archive.getinfo(name)
    with archive.open(info) as fh:
        version = np.lib.format.read_magic(fh)
        if version == (1, 0):
            shape, _, dtype = np.lib.format.read_array_header_1_0(fh)
        elif version == (2, 0):
            shape, _, dtype = np.lib.format.read_array_header_2_0(fh)
        else:
            raise ValueError(f"{name} has unsupported .npy format version {version}")
        expected = fh.tell() + math.prod(shape) * dtype.itemsize
    if info.file_size != expected:
        raise ValueError(f"{name} holds {info.file_size} bytes, expected {expected}")
    return shape


def _load_policy(policy_dir: str, cfg: ModelConfig, grid: StateGrid) -> PolicyTable:
    """The policy that solve wrote to policy_dir, for cfg on grid.

    First value_policy_meta.json: metadata that does not parse, or is not
    an object with a string config_hash, is an I/O error, and a policy
    solved for another config (another hash) a config error. Then
    tables.npz: unreadable or misshapen tables are I/O errors. Only the
    header of the values table is read, to check its shape.
    """
    path = os.path.join(policy_dir, "value_policy_meta.json")
    with open(path, encoding="utf-8") as fh:
        try:
            meta = json.load(fh)
        except ValueError as exc:
            raise OSError(f"unreadable policy metadata {path}: {exc}") from None
    recorded = meta.get("config_hash") if isinstance(meta, dict) else None
    if not isinstance(recorded, str):
        raise OSError(f"unreadable policy metadata {path}: not an object with a string config_hash")
    expected = config_hash(cfg)
    if recorded != expected:
        raise ConfigError([f"policy in {policy_dir} was solved for config hash "
                           f"{recorded[:16]}, not this config's {expected[:16]}"])
    path = os.path.join(policy_dir, "tables.npz")
    try:
        with zipfile.ZipFile(path) as archive:
            values_shape = _npy_shape(archive, "values.npy")
            with archive.open("actions.npy") as fh:
                actions = np.lib.format.read_array(fh)
    except (ValueError, KeyError, EOFError, zipfile.BadZipFile) as exc:
        raise OSError(f"unreadable policy tables {path}: {exc}") from None
    n_steps = cfg.discretization.steps_N
    for name, shape, expected in (("values", values_shape, (n_steps + 1, grid.n_states)),
                                  ("actions", actions.shape, (n_steps, grid.n_states))):
        if shape != expected:
            raise OSError(f"policy tables {path}: {name} has shape {shape}, "
                          f"expected {expected}")
    # solve writes int8 codes; a range test on them needs no transient the size of the table
    if not np.issubdtype(actions.dtype, np.integer):
        raise OSError(f"policy tables {path}: actions has dtype {actions.dtype}, "
                      "expected integer action codes")
    if actions.min() < 0 or actions.max() >= len(Action):
        raise OSError(f"policy tables {path}: actions holds codes outside 0..{len(Action) - 1}")
    return PolicyTable(actions)


def _write_manifest(out_dir: str, cfg: ModelConfig, seed, outputs: list[str]) -> None:
    manifest = {
        "config_hash": config_hash(cfg),
        "version": __version__,
        "seed": seed,
        "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "outputs": sorted(os.path.basename(p) for p in outputs),
    }
    _write_json(os.path.join(out_dir, "manifest.json"), manifest)


def _default_export_steps(cfg: ModelConfig) -> list[int]:
    n = cfg.discretization.steps_N
    return sorted({0, max(0, n - 12), max(0, n - 1), n})


def _reprs_by_run(values: np.ndarray) -> np.ndarray:
    """reprs of every entry of a C-contiguous (paths, N) float array, in its shape.

    Each run of entries with the same bits along a path is formatted once
    and repeated. Runs compare bits, not values, so 0.0 and -0.0 never
    share one, and each path starts a run of its own. The path writer
    formats its fuel column so: the level holds still while the generator
    is off, so on table1 about one entry in eleven starts a run. On the
    other columns most entries start one, and finding the runs costs more
    than it saves.
    """
    bits = values.view(np.int64)
    starts = np.ones(values.shape, dtype=bool)
    starts[:, 1:] = bits[:, 1:] != bits[:, :-1]
    first = starts.ravel().nonzero()[0]
    return np.repeat(reprs(values.ravel()[first]),
                     np.diff(first, append=values.size)).reshape(values.shape)


# Paths simulated and written per batch: memory is O(_PATHS_PER_BATCH * N) at any --seeds.
_PATHS_PER_BATCH = 256


def _simulate_scenario(cfg, grid, policy, scenario, seeds: int, out_dir: str,
                       base_seed: int) -> list[str]:
    """Simulate paths 0..seeds-1 of base_seed in batches and write one CSV per path.

    Floats are written by floatfmt.reprs, which yields the bytes of repr of
    each Python float (shortest round trip): one reprs call per column of
    as many paths as _FLOATS_PER_FORMAT holds, and one for the time_h column.
    The fuel column formats only the first entry of each run of repeats
    (_reprs_by_run). Each path's file is written in one call.
    """
    os.makedirs(out_dir, exist_ok=True)
    n_steps = cfg.discretization.steps_N
    times = reprs(np.array([cfg.t_of(n) for n in range(n_steps)])).tolist()
    steps = [b"%d,%s" % (n, t) for n, t in enumerate(times)]
    per_call = max(1, _FLOATS_PER_FORMAT // n_steps)
    written = []
    for start in range(0, seeds, _PATHS_PER_BATCH):
        indices = range(start, min(start + _PATHS_PER_BATCH, seeds))
        batch = simulate_path(policy, scenario, cfg, grid, indices, base_seed)
        for sub in range(0, len(indices), per_call):
            rows = slice(sub, sub + per_call)
            columns = [_reprs_by_run(field[rows]) if field is batch.g
                       else reprs(field[rows].ravel()).reshape(-1, n_steps) for field in (
                           batch.z, batch.r, batch.q, batch.g, batch.stage_cost_eur,
                           batch.cum_cost_eur)]
            labels = _LABELS[batch.action[rows]]
            for row, idx in enumerate(indices[rows]):
                z, r, q, g, stage, cum = (column[row].tolist() for column in columns)
                action = labels[row].tolist()
                body = b"\n".join(map(b",".join, zip(steps, z, r, q, g, action, stage, cum)))
                path = os.path.join(out_dir, f"path_{scenario.name}_seed{idx:03d}.csv")
                _write_bytes(path, b"step,time_h,z,r,q,g,action,stage_cost_eur,cum_cost_eur\n"
                                   + body + b"\n")
                written.append(path)
    return written


def _print_json(command: str, report: dict, sort_keys: bool = False) -> None:
    """Print report as indented JSON; a non-finite field is a numerical failure."""
    bad = [k for k, v in report.items() if isinstance(v, float) and not math.isfinite(v)]
    if bad:
        raise NumericalError(f"{command}: non-finite {', '.join(bad)}")
    print(json.dumps(report, indent=2, sort_keys=sort_keys, allow_nan=False))


def _run(args) -> int:
    cfg = load_config(args.config)
    _check_options(args, cfg)

    if args.command == "validate":
        # Exit 3 where solve would: constants that cannot be formed, or a
        # stage cost or terminal value that overflows or is not finite.
        grid = build_grid(cfg)
        finite = np.isfinite(stage_cost_rows(np.arange(cfg.discretization.steps_N), grid, cfg))
        if not finite.all():
            n = int(np.argmin(finite.all(axis=(1, 2))))
            raise NumericalError(f"stage cost at step {n} is not finite")
        if not np.isfinite(terminal_values(cfg, grid)).all():
            raise NumericalError("terminal value is not finite")
        print(f"configuration valid (hash {config_hash(cfg)[:16]})")
        return 0

    if args.command == "calibrate":
        options = {
            "q_star": args.q_star, "q_star_hours": args.q_star_hours,
            "window_charge": _parse_window(args.charge_window),
            "window_discharge": _parse_window(args.discharge_window),
            "p": args.confidence, "z1": args.z1,
            "battery_price": args.battery_price, "battery_life_h": args.battery_life,
            "max_abs_R": args.max_abs_r,
        }
        try:
            report = calibration_report(cfg, **{k: v for k, v in options.items() if v is not None})
        except ValueError as exc:  # out-of-range calibration inputs
            raise ConfigError([str(exc)]) from None
        _print_json("calibrate", report, sort_keys=True)
        return 0

    if args.command == "moments":
        mom = transition_moments(args.n, State(args.z, args.q, args.g),
                                 ACTION_BY_LABEL[args.action], cfg)
        _print_json("moments", dataclasses.asdict(mom))
        return 0

    grid = build_grid(cfg)

    if args.command == "solve":
        steps = _parse_export_steps(args.export_steps, cfg)
        _, outputs = _solve_and_export(cfg, grid, steps, args.out)
        _write_manifest(args.out, cfg, None, outputs)
        print(f"solved {cfg.discretization.steps_N} steps x {grid.n_states} states -> {args.out}")
        return 0

    if args.command == "simulate":
        policy = _load_policy(args.policy, cfg, grid)
        outputs = _simulate_scenario(cfg, grid, policy, SCENARIOS[args.scenario], args.seeds,
                                     args.out, args.base_seed)
        _write_manifest(args.out, cfg, args.base_seed, outputs)
        print(f"wrote {len(outputs)} path file(s) -> {args.out}")
        return 0

    if args.command == "paper-run":
        policy, outputs = _solve_and_export(cfg, grid, _default_export_steps(cfg), args.out)
        for scenario in (s for name, s in SCENARIOS.items() if name != "neutral"):
            outputs.extend(_simulate_scenario(cfg, grid, policy, scenario,
                                              args.seeds, args.out, args.base_seed))
        _write_manifest(args.out, cfg, args.base_seed, outputs)
        print(f"pipeline complete: {len(outputs)} file(s) -> {args.out}")
        return 0

    raise AssertionError(f"unhandled command {args.command}")


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        with np.errstate(all="ignore"):  # a failure reports once, below, not as a warning
            return _run(parser.parse_args(argv))
    except ConfigError as exc:
        code, message = 1, f"error: {'; '.join(exc.errors)}"
    except OSError as exc:
        code, message = 2, f"I/O error: {exc}"
    except NumericalError as exc:
        code, message = 3, f"numerical error: {exc}"
    except MemoryError as exc:  # no size limit on N_Z/N_Q/N_G: the blocks may not fit
        code, message = 3, f"numerical error: out of memory: {str(exc) or 'allocation failed'}"
    except OverflowError as exc:  # scalar float arithmetic on huge but finite parameters
        code, message = 3, f"numerical error: float overflow: {exc}"
    print(message, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
