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
from dataclasses import dataclass, replace

import numpy as np

from .config import Action, ModelConfig, State, seasonality
from .constraints import feasibility_mask
from .cost import expected_stage_cost
from .dynamics import NoiseVector, transition_operator
from .grid import StateGrid, _clamp01, cell_of
from .solver import PolicyTable

__all__ = [
    "PathRecord",
    "SCENARIOS",
    "Scenario",
    "baseline_wait_policy",
    "sample_transition",
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


@dataclass(frozen=True)
class PathRecord:
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


def sample_transition(n: int, x: State, a: Action, rng: np.random.Generator,
                      cfg: ModelConfig, z_offset: float = 0.0) -> State:
    """Draw one exact-distribution transition; z_offset tilts the Z innovation mean."""
    draws = rng.standard_normal(3)
    eps = NoiseVector(float(draws[0]) + z_offset, float(draws[1]), float(draws[2]))
    return transition_operator(n, x, a, eps, cfg)


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
    """
    seq = np.random.SeedSequence(entropy=scenario.base_seed,
                                 spawn_key=(scenario.sid, path_index))
    rng = np.random.default_rng(seq)
    x = initial_state if initial_state is not None else default_initial_state(grid)
    records: list[PathRecord] = []
    cum = 0.0
    for n in range(cfg.discretization.steps_N):
        cell = grid.lin(cell_of(x.z, grid.z), cell_of(x.q, grid.q), cell_of(x.g, grid.g))
        a = policy.action_at(n, cell)
        t = cfg.t_of(n)
        stage = expected_stage_cost(n, x, a, cfg)
        cum += math.exp(-cfg.costs.rho * t) * stage
        records.append(PathRecord(
            step=n, time_h=t, z=x.z, r=seasonality(t, cfg.demand) + x.z,
            q=x.q, g=x.g, action=a, stage_cost_eur=stage, cum_cost_eur=cum,
        ))
        nxt = sample_transition(n, x, a, rng, cfg, z_offset=scenario.offset_at(t))
        x = State(nxt.z, _clamp01(nxt.q), _clamp01(nxt.g))
    return records


def baseline_wait_policy(cfg: ModelConfig, grid: StateGrid) -> PolicyTable:
    """Do-nothing reference policy: overspill under surplus, wait otherwise."""
    actions = np.empty((cfg.discretization.steps_N, grid.n_states), dtype=np.int8)
    for n in range(actions.shape[0]):
        surplus = feasibility_mask(n, grid, cfg)[Action.OVERSPILL].reshape(-1)
        actions[n] = np.where(surplus, int(Action.OVERSPILL), int(Action.WAIT))
    return PolicyTable(actions)
