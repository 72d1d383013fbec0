"""Finite-horizon Bellman backward recursion over the discretized chain.

Each backward step evaluates, for every grid state and feasible action,
the closed-form expected discounted stage cost plus the expected
continuation value under the action's transition law, discounted by
e^(-rho*Delta_N), then takes the canonical-order argmin. A step is array
code throughout: the stage costs are one closed-form call per action over
the z axis, the continuation is TransitionKernel.expected_next of the
next value table, and the feasibility mask (constraints.feasibility_mask)
is one broadcast over the lattice that sets infeasible (state, action)
pairs to +inf. The steps run one after another on one thread.

Everything but the contraction with V_{n+1} depends on the step only
through mu_R(t_n), and every layer takes a 1-D array of steps. solve
therefore walks the horizon backwards in the kernel's chunks of steps
(TransitionKernel.chunk_of, sized by its byte budget): per chunk it builds
the stage rows in one call and the mask in another, and the kernel builds
both bivariate blocks in one pass each; then step_q_values, the one
Bellman line, runs once per step of the chunk on that step's slices.

solve also hands the chunk's mask to the kernel, which then builds only
the block rows that a feasible (state, action) pair reads (81.5 % of the
battery rows and 50.5 % of the generator lattices on table1). The rows it
leaves out are 0, but the mask sets their Q-values to +inf, and every
other Q-value has the bits of blocks built for every row.
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
    "stage_cost_rows",
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
    per_qg = terminal_cost(State(0.0, grid.q.points[:, None], grid.g.points[None, :]), cfg)
    return np.broadcast_to(per_qg, grid.shape).reshape(-1).copy()


def stage_cost_rows(n, grid: StateGrid, cfg: ModelConfig) -> np.ndarray:
    """Expected stage cost per (action, z index); independent of q and g.

    A 1-D step array n gives (step, action, z index), one step's rows per slice.
    """
    out = np.empty(np.shape(n) + (len(Action), grid.z.n_points))
    steps = np.reshape(n, np.shape(n) + (1,))
    for a in Action:
        out[..., a, :] = expected_stage_cost(steps, State(grid.z.points, 0.0, 0.0), a, cfg)
    return out


def step_q_values(n: int, v_next: np.ndarray, kernel: TransitionKernel, stage: np.ndarray,
                  mask: np.ndarray, chunk_mask: np.ndarray | None = None) -> np.ndarray:
    """Q(n, state, action) for all states, +inf where infeasible; shape (action, i, j, k).

    stage and mask are step n's stage_cost_rows and feasibility_mask.
    chunk_mask, the feasibility_mask of kernel.chunk_of(n)'s steps, lets the
    kernel build only the block rows that a feasible pair reads; every
    Q-value keeps its bits with or without it.
    """
    cfg = kernel.cfg
    disc = math.exp(-cfg.costs.rho * cfg.dt)
    q_vals = stage[:, :, None, None] + disc * kernel.expected_next(n, v_next, chunk_mask)
    return np.where(mask, q_vals, np.inf)


def solve(cfg: ModelConfig, grid: StateGrid) -> tuple[ValueTable, PolicyTable]:
    """Backward recursion over all steps; deterministic for a fixed config."""
    kernel = TransitionKernel(cfg, grid)
    steps = cfg.discretization.steps_N
    n_states = grid.n_states
    values = np.empty((steps + 1, n_states))
    actions = np.empty((steps, n_states), dtype=np.int8)
    values[steps] = terminal_values(cfg, grid)

    for stop in range(steps, 0, -kernel.chunk_steps):
        chunk = kernel.chunk_of(stop - 1)
        stage = stage_cost_rows(chunk, grid, cfg)
        mask = feasibility_mask(chunk, grid, cfg)
        for s in range(chunk.size - 1, -1, -1):
            n = int(chunk[s])
            q_vals = step_q_values(n, values[n + 1], kernel, stage[s], mask[s], mask)
            v_n = q_vals.min(axis=0)
            if not np.isfinite(v_n).all():
                raise NumericalError(f"non-finite value at step {n}")
            values[n] = v_n.reshape(-1)
            tied = q_vals <= v_n[None] + _TIE_TOL
            actions[n] = np.argmax(tied, axis=0).reshape(-1)
    return ValueTable(values), PolicyTable(actions)
