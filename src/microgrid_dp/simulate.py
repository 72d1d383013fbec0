"""Scenario-controlled path simulation.

Paths are sampled from the exact one-step Gaussian laws (no time-stepping
error); scenarios tilt the weather by adding a bounded per-day offset to
the mean of the Z innovation (negative = favorable surplus, positive =
adverse demand). Every path owns an independent, reproducible generator
stream: default_rng(SeedSequence(entropy=base_seed, spawn_key=(scenario id,
path index))); all three are arguments of simulate_paths.

simulate_paths is the one simulator: it advances a batch of paths
together, one array step per time step, and returns their columns as a
PathBatch; one path is the batch of one index. Z' takes no action, so
the batch's z paths, their cells, each path's offset into the policy at
every step and r = mu_R(t_n) + z come first, and so does every term of
the laws of Q' and G' that reads no level: one dynamics.law_drive over
the whole (step, path) table gives the battery drive and its charge
regime, the generator burn and both innovations correlated with Z'. The
step loop carries only the q/g recursion: it locates q and g, reads the
policy and calls dynamics.move_levels with every path's action code and
its step's row of the drive, which runs the level part of each law of Q'
and of G' present once, and clamps. The stage cost depends on (step, z,
action) alone, so it runs after the loop, once per action present over
the whole (step, path) table, each entry keeping its own action's cost:
its steps are np.arange(N)[:, None], and a step array broadcasts against
the states as numpy broadcasts any argument. The module holds no law
arithmetic: every law is dynamics'.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import Action, ModelConfig, State
from .constraints import feasibility_mask
from .cost import expected_stage_cost
from .dynamics import LawDrive, NoiseVector, law_drive, move_levels, transition_operator, z_next
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
    """Simulate steps 0..N-1 of every path in path_indices together, one array step per time step.

    Every path starts at initial_state (default: default_initial_state)
    and moves by exact draws from the one-step laws, with q and g clamped
    to [0, 1]. The policy is read at the cell of the current continuous
    state. Path idx draws its 3N standard normals from its own stream,
    default_rng(SeedSequence(base_seed, spawn_key=(scenario id, idx))), so
    a path is the same in any batch.

    Z' takes no action, so every z path is drawn first (z_next), with its
    z cells in one cell_of call, each path's index of (step, z cell) into
    the flat policy table and r = mu_R(t_n) + z in one sum each; a NaN
    anywhere on a z path raises cell_of's ValueError naming 'z' before any
    step runs. One law_drive call over steps np.arange(N)[:, None], the z
    table and the noise gives the level-free terms of the laws of Q' and
    G'. The step loop carries only the q/g recursion: each step locates q
    and g with one cell_of call per axis (a NaN raises for that axis), adds
    their cell to the offsets to read the policy's action codes, and
    passes the codes with the step's row of the drive to
    move_levels, which runs each law of Q' and of G' present once, over
    all paths, each path keeping its own law's level (a code outside the
    Action alphabet raises ValueError); the clamped levels are the next
    step's state. After the loop, expected_stage_cost runs once per action
    present over the whole (step, path) table (steps np.arange(N)[:, None]),
    and each entry keeps the cost of its own action. All of them read the
    config's constants (cfg.constants). The running cost adds
    exp(-rho t_n) * stage in step order, as a one-path loop does, so every
    path has the bits of a per-step loop over the scalar laws
    (transition_operator). Memory is O(paths * N); callers with many paths
    pass them in chunks.
    """
    n_steps = cfg.discretization.steps_N
    # draws[n, k] is the k-th normal of step n for every path, contiguous
    draws = np.array([np.random.default_rng(np.random.SeedSequence(
        entropy=base_seed, spawn_key=(scenario.sid, idx))).standard_normal(3 * n_steps)
        for idx in path_indices]).reshape(-1, n_steps, 3).transpose(1, 2, 0).copy()
    n_paths = draws.shape[2]
    times = [cfg.t_of(n) for n in range(n_steps)]
    steps = np.arange(n_steps)[:, None]  # broadcasts against a (step, path) table
    eps_z = draws[:, 0]
    eps_z += np.array([scenario.offset_at(t) for t in times])[:, None]  # the scenario's tilt
    x0 = initial_state if initial_state is not None else default_initial_state(grid)
    # Rows are steps and columns paths; the batch is their transpose.
    z = np.empty((n_steps, n_paths))
    z[0] = x0.z
    for n in range(n_steps - 1):
        z[n + 1] = z_next(z[n], eps_z[n], cfg)
    # each path's index into the flat policy at its step and z cell; a step adds its (q, g) cell
    offsets = grid.lin(cell_of(z, grid.z), 0, 0) + steps * grid.n_states
    drive = law_drive(steps, z, cfg, NoiseVector(eps_z, draws[:, 1], draws[:, 2]))
    q_steps, g_steps, stage = (np.empty((n_steps, n_paths)) for _ in range(3))
    codes = np.empty((n_steps, n_paths), dtype=np.int8)
    q, g = np.full(n_paths, float(x0.q)), np.full(n_paths, float(x0.g))
    for n in range(n_steps):
        q_steps[n], g_steps[n] = q, g
        codes[n] = policy.actions.take(offsets[n] + grid.lin(0, cell_of(q, grid.q),
                                                             cell_of(g, grid.g)))
        q, g = map(clamp01, move_levels(LawDrive(*(field[n] for field in drive)), codes[n],
                                        q, g, cfg))
    # The stage cost depends on (step, z, action) alone: one call per action present over
    # the whole (step, path) table, each entry keeping its own action's cost.
    x = State(z, q_steps, g_steps)
    for code in np.bincount(codes.ravel(), minlength=1).nonzero()[0].tolist():
        np.copyto(stage, expected_stage_cost(steps, x, Action(code), cfg),
                  where=codes == code)
    discount = np.array([math.exp(-cfg.costs.rho * t) for t in times])
    # a zero row first, so step 0 sums 0.0 + cost as a step-by-step sum does (-0.0 becomes 0.0)
    cum = np.cumsum(np.vstack((np.zeros(n_paths), discount[:, None] * stage)), axis=0)[1:]
    r = cfg.constants.mu[:n_steps, None] + z
    return PathBatch(*(np.ascontiguousarray(rows.T)
                       for rows in (z, r, q_steps, g_steps, codes, stage, cum)))


def baseline_wait_policy(cfg: ModelConfig, grid: StateGrid) -> PolicyTable:
    """Do-nothing reference policy: overspill under surplus, wait otherwise."""
    steps = np.arange(cfg.discretization.steps_N)
    surplus = feasibility_mask(steps, grid, cfg)[:, Action.OVERSPILL].reshape(steps.size, -1)
    return PolicyTable(np.where(surplus, np.int8(Action.OVERSPILL), np.int8(Action.WAIT)))
