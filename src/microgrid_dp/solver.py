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
therefore builds the stage rows and the mask once, each in one call over
the whole horizon (the mask is 2.6 MB on table1), and walks the horizon
backwards in chunks of kernel.chunk_steps steps (sized by the kernel's
byte budget), cut from step N - 1 down: per chunk it builds both
bivariate blocks' rows in one call (TransitionKernel.blocks) on the
chunk's slice of the mask; then step_q_values, the one Bellman line, runs
once per step of the chunk on that step's slices and rows, in place on the
expected continuation.

The blocks hold only the rows that a feasible (state, action) pair of the
chunk's mask reads (81.5 % of the battery rows and 50.5 % of the generator
lattices on table1); the mask sets the Q-values of the sources left out to
+inf.
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


def step_q_values(v_next: np.ndarray, kernel: TransitionKernel, stage: np.ndarray,
                  mask: np.ndarray, battery: tuple[np.ndarray, np.ndarray],
                  generator: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Q(n, state, action) for all states, +inf where infeasible; shape (action, i, j, k).

    stage and mask are step n's stage_cost_rows and feasibility_mask, and
    battery and generator step n's (source ids, masses) rows of
    kernel.blocks. A source whose rows the mask leaves out has no feasible
    action that reads them, so its Q-values there are +inf.
    """
    cfg = kernel.cfg
    disc = math.exp(-cfg.costs.rho * cfg.dt)
    q_vals = kernel.expected_next(v_next, battery, generator)
    q_vals *= disc
    q_vals += stage[:, :, None, None]
    q_vals[~mask] = np.inf
    return q_vals


def solve(cfg: ModelConfig, grid: StateGrid) -> tuple[ValueTable, PolicyTable]:
    """Backward recursion over all steps; deterministic for a fixed config."""
    kernel = TransitionKernel(cfg, grid)
    steps = cfg.discretization.steps_N
    n_states = grid.n_states
    values = np.empty((steps + 1, n_states))
    actions = np.empty((steps, n_states), dtype=np.int8)
    values[steps] = terminal_values(cfg, grid)

    horizon = np.arange(steps)
    stage = stage_cost_rows(horizon, grid, cfg)
    mask = feasibility_mask(horizon, grid, cfg)
    for stop in range(steps, 0, -kernel.chunk_steps):
        start = max(0, stop - kernel.chunk_steps)
        battery, generator = kernel.blocks(horizon[start:stop], mask[start:stop])
        for n in range(stop - 1, start - 1, -1):
            q_vals = step_q_values(values[n + 1], kernel, stage[n], mask[n], battery[n - start],
                                   generator[n - start])
            v_n = q_vals.min(axis=0)
            if not np.isfinite(v_n).all():
                raise NumericalError(f"non-finite value at step {n}")
            values[n] = v_n.reshape(-1)
            tied = q_vals <= v_n[None] + _TIE_TOL
            actions[n] = np.argmax(tied, axis=0).reshape(-1)
    return ValueTable(values), PolicyTable(actions)
