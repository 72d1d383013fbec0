"""Scenario-controlled path simulation.

Paths are sampled from the exact one-step Gaussian laws (no time-stepping
error); scenarios tilt the weather by adding a bounded per-day offset to
the mean of the Z innovation (negative = favorable surplus, positive =
adverse demand). Every path owns an independent, reproducible generator
stream: default_rng(SeedSequence(entropy=base_seed, spawn_key=(scenario id,
path index))).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .config import Action, ModelConfig, State
from .constraints import feasibility_mask
from .cost import expected_stage_cost
from .dynamics import NoiseVector, transition_operator
from .grid import StateGrid, cell_of, clamp01
from .solver import PolicyTable

__all__ = [
    "PathRecord",
    "SCENARIOS",
    "Scenario",
    "baseline_wait_policy",
    "simulate_path",
]

_MAX_OFFSET = 1.5  # bound on |per-day innovation-mean offset|


@dataclass(frozen=True)
class Scenario:
    """Named weather tilt: one innovation-mean offset per day of the horizon."""

    name: str
    sid: int
    day_offsets: tuple[float, ...]
    base_seed: int = 0

    def __post_init__(self):
        if any(not math.isfinite(o) or abs(o) > _MAX_OFFSET for o in self.day_offsets):
            raise ValueError(f"scenario offsets must be finite with |offset| <= {_MAX_OFFSET}")

    def offset_at(self, t_hours: float) -> float:
        if not self.day_offsets:
            return 0.0
        day = min(int(t_hours // 24.0), len(self.day_offsets) - 1)
        return self.day_offsets[day]

    def with_seed(self, base_seed: int) -> "Scenario":
        return replace(self, base_seed=base_seed)


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


class PathRecord(NamedTuple):
    """One simulated step: state seen, action taken, and its cost."""

    step: int
    time_h: float
    z: float
    r: float
    q: float
    g: float
    action: Action
    stage_cost_eur: float  # conditional expected discounted cost of this step
    cum_cost_eur: float    # running total, discounted to time 0


def default_initial_state(grid: StateGrid) -> State:
    """Full tank, 80% charge, demand residual at the grid maximum."""
    return State(float(grid.z.points[-1]), 0.8, 1.0)


def simulate_path(policy: PolicyTable, scenario: Scenario, cfg: ModelConfig,
                  grid: StateGrid, path_index: int = 0,
                  initial_state: State | None = None) -> list[PathRecord]:
    """Simulate one 0..N path under the policy; reproducible per (scenario, index).

    The path starts at initial_state (default: default_initial_state) and
    moves by exact draws from the one-step laws, with q and g clamped to
    [0, 1]. The policy is read at the cell of the current continuous state.

    The path's 3N standard normal draws come from one call (the same
    stream as N calls of three). Each step calls the public laws,
    expected_stage_cost and transition_operator, on floats; they and the
    recorded residual demand read the config's constants (cfg.constants,
    derived once per config). The cell is found by bisection of the axis
    edges, which is searchsorted(side="left") of cell_of. A NaN level
    raises cell_of's ValueError naming its axis.
    """
    seq = np.random.SeedSequence(entropy=scenario.base_seed,
                                 spawn_key=(scenario.sid, path_index))
    n_steps = cfg.discretization.steps_N
    draws = np.random.default_rng(seq).standard_normal(3 * n_steps).tolist()
    mu = cfg.constants.mu
    axes = (grid.z, grid.q, grid.g)
    z_edges, q_edges, g_edges = (axis.edges.tolist() for axis in axes)
    _, nj, nk = grid.shape
    rho = cfg.costs.rho
    x = initial_state if initial_state is not None else default_initial_state(grid)
    records: list[PathRecord] = []
    cum = 0.0
    for n in range(n_steps):
        if math.isnan(x.z) or math.isnan(x.q) or math.isnan(x.g):
            for value, axis in zip(x, axes):
                cell_of(value, axis)  # raises for the first NaN axis
        # grid.lin of the three cells, row-major
        cell = ((bisect_left(z_edges, x.z) * nj + bisect_left(q_edges, x.q)) * nk
                + bisect_left(g_edges, x.g))
        a = policy.action_at(n, cell)
        t = cfg.t_of(n)
        stage = expected_stage_cost(n, x, a, cfg)
        cum += math.exp(-rho * t) * stage
        records.append(PathRecord(
            step=n, time_h=t, z=x.z, r=mu[n] + x.z,
            q=x.q, g=x.g, action=a, stage_cost_eur=stage, cum_cost_eur=cum,
        ))
        eps = NoiseVector(draws[3 * n] + scenario.offset_at(t), draws[3 * n + 1], draws[3 * n + 2])
        nxt = transition_operator(n, x, a, eps, cfg)
        x = State(nxt.z, clamp01(nxt.q), clamp01(nxt.g))
    return records


def baseline_wait_policy(cfg: ModelConfig, grid: StateGrid) -> PolicyTable:
    """Do-nothing reference policy: overspill under surplus, wait otherwise."""
    actions = np.empty((cfg.discretization.steps_N, grid.n_states), dtype=np.int8)
    for n in range(actions.shape[0]):
        surplus = feasibility_mask(n, grid, cfg)[Action.OVERSPILL].reshape(-1)
        actions[n] = np.where(surplus, int(Action.OVERSPILL), int(Action.WAIT))
    return PolicyTable(actions)
