"""Finite-horizon Bellman backward recursion over the discretized chain.

Each backward step evaluates, for every grid state and feasible action,
the closed-form expected discounted stage cost plus the discounted
expected continuation value under the action's transition law, then takes
the canonical-order argmin. A step is array code throughout: the
feasibility mask (constraints.feasibility_mask) is one broadcast over the
lattice, the battery and generator probability blocks (TransitionKernel)
contract against the next value table with einsum, the stage costs are
one closed-form call per action over the z axis, and infeasible
(state, action) pairs are masked to +inf. The steps run one after another
on one thread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import Action, ModelConfig, State
from .constraints import feasibility_mask
# Bound only so that perfbench/tracing.py can count its calls as solver.feasible_actions.
from .constraints import feasible_actions  # noqa: F401
from .cost import expected_stage_cost, terminal_cost
from .grid import StateGrid
from .kernel import NumericalError, TransitionKernel

__all__ = [
    "PolicyTable",
    "ValueTable",
    "solve",
    "step_q_values",
    "terminal_values",
    "worker_count",
]

# Q-values within this tolerance of the minimum are ties; canonical order decides.
_TIE_TOL = 1e-12


@dataclass(frozen=True)
class ValueTable:
    """values[n, state id] = optimal cost-to-go [EUR] from step n, n = 0..N."""

    values: np.ndarray


@dataclass(frozen=True)
class PolicyTable:
    """actions[n, state id] = optimal Action value, n = 0..N-1."""

    actions: np.ndarray

    def action_at(self, n: int, state: int) -> Action:
        return Action(int(self.actions[n, state]))


# Kept because perfbench/run.py writes it into its provenance line.
def worker_count() -> int:
    """Threads a solve runs on: always 1, since the backward step is serial array code."""
    return 1


def terminal_values(cfg: ModelConfig, grid: StateGrid) -> np.ndarray:
    """V(N, .) over linear state ids; constant across the z axis."""
    per_qg = np.array([
        [terminal_cost(State(0.0, float(q), float(g)), cfg) for g in grid.g.points]
        for q in grid.q.points
    ])
    return np.broadcast_to(per_qg, grid.shape).reshape(-1).copy()


def _stage_cost_rows(n: int, grid: StateGrid, cfg: ModelConfig) -> np.ndarray:
    """Expected stage cost per (action, z index); independent of q and g."""
    out = np.empty((len(Action), grid.z.n_points))
    for a in Action:
        out[a] = expected_stage_cost(n, State(grid.z.points, 0.0, 0.0), a, cfg)
    return out


def step_q_values(n: int, v_next: np.ndarray, kernel: TransitionKernel) -> np.ndarray:
    """Q(n, state, action) for all states, +inf where infeasible; shape (action, i, j, k)."""
    cfg, grid = kernel.cfg, kernel.grid
    v1 = v_next.reshape(grid.shape)
    pz, q_idle, q_lim, g_lim = kernel.z_block, kernel.q_idle, kernel.q_limited, kernel.g_limited
    b_block, g_block = kernel.battery_block(n), kernel.generator_block(n)
    mask = feasibility_mask(n, grid, cfg)

    ev = np.empty((len(Action),) + grid.shape)
    ev_idle = np.tensordot(pz, v1[:, q_idle, :], axes=1)
    ev[Action.OVERSPILL] = ev_idle
    ev[Action.WAIT] = ev_idle
    ev_batt = np.einsum("ijIJ,IJk->ijk", b_block, v1)
    ev[Action.CHARGE] = ev_batt
    ev[Action.DISCHARGE_FULL] = ev_batt
    ev[Action.DISCHARGE_LIMITED] = np.tensordot(pz, v1[:, q_lim, :], axes=1)
    ev[Action.FUEL_LIMITED] = np.tensordot(pz, v1[:, q_idle, :][:, :, g_lim], axes=1)
    gen_t = np.einsum("ikIK,IJK->ikJ", g_block, v1)
    ev[Action.FUEL_FULL] = np.transpose(gen_t[:, :, q_idle], (0, 2, 1))

    disc = math.exp(-cfg.costs.rho * cfg.dt) if cfg.bellman_discount_continuation else 1.0
    stage = _stage_cost_rows(n, grid, cfg)
    q_vals = stage[:, :, None, None] + disc * ev
    return np.where(mask, q_vals, np.inf)


def solve(cfg: ModelConfig, grid: StateGrid) -> tuple[ValueTable, PolicyTable]:
    """Backward recursion over all steps; deterministic for a fixed config."""
    kernel = TransitionKernel(cfg, grid)
    steps = cfg.discretization.steps_N
    n_states = grid.n_states
    values = np.empty((steps + 1, n_states))
    actions = np.empty((steps, n_states), dtype=np.int8)
    values[steps] = terminal_values(cfg, grid)

    for n in range(steps - 1, -1, -1):
        q_vals = step_q_values(n, values[n + 1], kernel)
        v_n = q_vals.min(axis=0)
        if not np.isfinite(v_n).all():
            raise NumericalError(f"non-finite value at step {n}")
        values[n] = v_n.reshape(-1)
        tied = q_vals <= v_n[None] + _TIE_TOL
        actions[n] = np.argmax(tied, axis=0).reshape(-1)
    return ValueTable(values), PolicyTable(actions)
