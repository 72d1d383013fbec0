"""Scenario-controlled path simulation.

Paths are sampled from the exact one-step Gaussian laws (no time-stepping
error); scenarios tilt the weather by adding a bounded per-day offset to
the mean of the Z innovation (negative = favorable surplus, positive =
adverse demand). Every path owns an independent, reproducible generator
stream: default_rng(SeedSequence(entropy=base_seed, spawn_key=(scenario id,
path index))); all three are arguments of simulate_paths.

simulate_paths is the one simulator: it advances a batch of paths
together, one array step per time step, and returns their columns as a
PathBatch; one path is the batch of one index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import Action, ModelConfig, State
from .constraints import feasibility_mask
from .cost import expected_stage_cost
from .dynamics import NoiseVector, transition_operator
from .grid import StateGrid, cell_of, clamp01
from .solver import PolicyTable

__all__ = [
    "PathBatch",
    "SCENARIOS",
    "Scenario",
    "baseline_wait_policy",
    "simulate_paths",
]

_MAX_OFFSET = 1.5  # bound on |per-day innovation-mean offset|


@dataclass(frozen=True)
class Scenario:
    """Named weather tilt: one innovation-mean offset per day of the horizon."""

    name: str
    sid: int
    day_offsets: tuple[float, ...]

    def __post_init__(self):
        if any(not math.isfinite(o) or abs(o) > _MAX_OFFSET for o in self.day_offsets):
            raise ValueError(f"scenario offsets must be finite with |offset| <= {_MAX_OFFSET}")

    def offset_at(self, t_hours: float) -> float:
        if not self.day_offsets:
            return 0.0
        day = min(int(t_hours // 24.0), len(self.day_offsets) - 1)
        return self.day_offsets[day]


SCENARIOS = {
    s.name: s
    for s in (
        Scenario("neutral", 0, (0.0,) * 7),
        Scenario("sunny-start", 1, (-0.75, -0.75, -0.75, 0.75, 0.75, 0.75, 0.75)),
        Scenario("overcast-break", 2, (0.75, 0.75, -0.75, 0.75, 0.75, -0.75, 0.75)),
        Scenario("sunny-finish", 3, (0.75, 0.75, 0.75, 0.75, -0.75, -0.75, -0.75)),
        Scenario("overcast-week", 4, (0.75, 0.75, 0.75, 0.75, 0.75, 0.75, -0.75)),
    )
}


def default_initial_state(grid: StateGrid) -> State:
    """Full tank, 80% charge, demand residual at the grid maximum."""
    return State(float(grid.z.points[-1]), 0.8, 1.0)


class PathBatch(NamedTuple):
    """Simulated paths, one row per path and one column per step n = 0..N-1.

    Entry [p, n] is path p at step n: the state seen, the residual demand
    mu_R(t_n) + z, the action code taken, the step's conditional expected
    discounted cost and the running total of those costs.
    """

    z: np.ndarray
    r: np.ndarray
    q: np.ndarray
    g: np.ndarray
    action: np.ndarray          # int8 Action codes
    stage_cost_eur: np.ndarray
    cum_cost_eur: np.ndarray


def simulate_paths(policy: PolicyTable, scenario: Scenario, cfg: ModelConfig,
                   grid: StateGrid, path_indices, base_seed: int = 0,
                   initial_state: State | None = None) -> PathBatch:
    """Simulate the 0..N paths of path_indices together, one array step per time step.

    Every path starts at initial_state (default: default_initial_state)
    and moves by exact draws from the one-step laws, with q and g clamped
    to [0, 1]. The policy is read at the cell of the current continuous
    state. Path idx draws its 3N standard normals from its own stream,
    default_rng(SeedSequence(base_seed, spawn_key=(scenario id, idx))), so
    a path is the same in any batch.

    At each step the cell of every path is grid.lin of its three cell_of
    indices, one array call per axis; a NaN level raises cell_of's
    ValueError naming its axis.
    The public laws run once per action present at the step, over that
    action's paths: expected_stage_cost and transition_operator, on
    arrays, read the config's constants (cfg.constants). The running cost
    adds exp(-rho t_n) * stage step by step, in the order of a one-path
    loop, so every path has the bits of a per-step loop over the scalar
    laws. Memory is O(paths * N); callers with many paths pass them in
    chunks.
    """
    n_steps = cfg.discretization.steps_N
    streams = [np.random.default_rng(np.random.SeedSequence(
        entropy=base_seed, spawn_key=(scenario.sid, idx))).standard_normal(3 * n_steps)
        for idx in path_indices]
    n_paths = len(streams)
    # draws[n, k] is the k-th normal of step n for every path, contiguous
    draws = np.array(streams).reshape(n_paths, n_steps, 3).transpose(1, 2, 0).copy()
    out = PathBatch(*(np.empty((n_paths, n_steps), dtype=np.int8 if name == "action" else float)
                      for name in PathBatch._fields))
    mu = cfg.constants.mu
    axes = (grid.z, grid.q, grid.g)
    rho = cfg.costs.rho
    x0 = initial_state if initial_state is not None else default_initial_state(grid)
    z, q, g = (np.full(n_paths, float(level)) for level in x0)
    cum = np.zeros(n_paths)
    for n in range(n_steps):
        # z, q, g in order, so a NaN raises for the first axis holding one
        cell = grid.lin(*(cell_of(level, axis) for level, axis in zip((z, q, g), axes)))
        codes = policy.actions[n, cell]
        t = cfg.t_of(n)
        eps_z = draws[n, 0] + scenario.offset_at(t)
        stage = np.empty(n_paths)
        z_next, q_next, g_next = np.empty(n_paths), np.empty(n_paths), np.empty(n_paths)
        for code in np.unique(codes).tolist():
            a = Action(code)
            sel = np.flatnonzero(codes == code)
            x = State(z[sel], q[sel], g[sel])
            stage[sel] = expected_stage_cost(n, x, a, cfg)
            eps = NoiseVector(eps_z[sel], draws[n, 1, sel], draws[n, 2, sel])
            z_next[sel], q_next[sel], g_next[sel] = transition_operator(n, x, a, eps, cfg)
        cum = cum + math.exp(-rho * t) * stage
        for field, column in zip(out, (z, mu[n] + z, q, g, codes, stage, cum)):
            field[:, n] = column
        z, q, g = z_next, clamp01(q_next), clamp01(g_next)
    return out


def baseline_wait_policy(cfg: ModelConfig, grid: StateGrid) -> PolicyTable:
    """Do-nothing reference policy: overspill under surplus, wait otherwise."""
    steps = np.arange(cfg.discretization.steps_N)
    surplus = feasibility_mask(steps, grid, cfg)[:, Action.OVERSPILL].reshape(steps.size, -1)
    return PolicyTable(np.where(surplus, np.int8(Action.OVERSPILL), np.int8(Action.WAIT)))
