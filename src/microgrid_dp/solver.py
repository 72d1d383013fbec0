"""Finite-horizon Bellman backward recursion over the discretized chain.

Each backward step evaluates, for every grid state and feasible action,
the closed-form expected discounted stage cost plus the discounted
expected continuation value under the action's transition row, then takes
the canonical-order argmin. A step is array code throughout: the
feasibility mask (constraints.feasibility_mask) is one broadcast over the
lattice, the battery and generator probability blocks (TransitionKernel)
contract against the next value table with einsum, and infeasible
(state, action) pairs are masked to +inf. With more than one worker the
two blocks run on a thread pool while the main thread builds the mask.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .config import Action, ModelConfig, State
from .constraints import feasibility_mask, feasible_actions
from .cost import expected_stage_cost, terminal_cost
from .grid import StateGrid
from .kernel import NumericalError, TransitionKernel

__all__ = [
    "PolicyTable",
    "ValueTable",
    "bellman_backup",
    "feasibility_mask",
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


def worker_count() -> int:
    """Worker cap for intra-step parallelism; MICROGRID_DP_THREADS overrides."""
    raw = os.environ.get("MICROGRID_DP_THREADS", "").strip()
    if raw:
        try:
            return max(1, int(raw))
        except ValueError:
            pass
    return min(4, os.cpu_count() or 1)


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
        for i, z in enumerate(grid.z.points):
            out[a, i] = expected_stage_cost(n, State(float(z), 0.0, 0.0), a, cfg)
    return out


def step_q_values(n: int, v_next: np.ndarray, kernel: TransitionKernel,
                  mask: np.ndarray | None = None,
                  blocks: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """Q(n, state, action) for all states, +inf where infeasible.

    Returns shape (action, i, j, k). `blocks` may carry precomputed
    (battery, generator) probability blocks for step n.
    """
    cfg, grid = kernel.cfg, kernel.grid
    v1 = v_next.reshape(grid.shape)
    pz = kernel.z_block()
    b_block, g_block = blocks if blocks is not None else (
        kernel.battery_block(n), kernel.generator_block(n))
    if mask is None:
        mask = feasibility_mask(n, grid, cfg)

    q_idle = kernel.q_idle_targets()
    q_lim = kernel.q_limited_targets()
    g_lim = kernel.g_limited_targets()

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


def bellman_backup(n: int, state: int, v_next: np.ndarray, kernel: TransitionKernel,
                   cfg: ModelConfig) -> tuple[float, Action]:
    """Scalar reference backup at one state: (optimal value, argmin action).

    Uses the memoized scalar transition rows; independent of the vectorized
    block path used by solve().
    """
    grid = kernel.grid
    x = grid.state_of(state)
    feas = feasible_actions(n, x, cfg)
    if len(feas) == 0:
        raise NumericalError(f"empty feasible set at step {n}, state {state}")
    disc = math.exp(-cfg.costs.rho * cfg.dt) if cfg.bellman_discount_continuation else 1.0
    q_vals = []
    for a in feas:
        row = kernel.row(n, state, a)
        q = expected_stage_cost(n, x, a, cfg) + disc * float(row.probs @ v_next[row.targets])
        q_vals.append((q, a))
    best = min(q for q, _ in q_vals)
    action = next(a for q, a in q_vals if q <= best + _TIE_TOL)
    return best, action


def solve(cfg: ModelConfig, grid: StateGrid,
          kernel: TransitionKernel | None = None) -> tuple[ValueTable, PolicyTable]:
    """Backward recursion over all steps; deterministic for a fixed config."""
    if kernel is None:
        kernel = TransitionKernel(cfg, grid)
    steps = cfg.discretization.steps_N
    n_states = grid.n_states
    values = np.empty((steps + 1, n_states))
    actions = np.empty((steps, n_states), dtype=np.int8)
    values[steps] = terminal_values(cfg, grid)

    workers = worker_count()
    pool = ThreadPoolExecutor(max_workers=workers) if workers > 1 else None
    try:
        for n in range(steps - 1, -1, -1):
            if pool is not None:
                fut_b = pool.submit(kernel.battery_block, n)
                fut_g = pool.submit(kernel.generator_block, n)
                mask = feasibility_mask(n, grid, cfg)
                blocks = (fut_b.result(), fut_g.result())
            else:
                mask = feasibility_mask(n, grid, cfg)
                blocks = (kernel.battery_block(n), kernel.generator_block(n))
            q_vals = step_q_values(n, values[n + 1], kernel, mask=mask, blocks=blocks)
            v_n = q_vals.min(axis=0)
            if not np.isfinite(v_n).all():
                raise NumericalError(f"non-finite value at step {n}")
            values[n] = v_n.reshape(-1)
            tied = q_vals <= v_n[None] + _TIE_TOL
            actions[n] = np.argmax(tied, axis=0).reshape(-1)
    finally:
        if pool is not None:
            pool.shutdown(wait=False)
    return ValueTable(values), PolicyTable(actions)
