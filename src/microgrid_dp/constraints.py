"""State- and time-dependent feasible action sets via Gaussian chance constraints.

The sign of the residual demand r_n = mu_R(t_n) + z splits the alphabet:
under surplus (r_n < 0) only overspilling or charging make sense; under
deficit only serving actions do. A level-moving action is kept only if the
next battery/fuel level respects its physical box with probability at
least 1 - epsilon (deterministic moves: exactly), with the probabilistic
check applied in the action's direction of motion: charging guards both
ends of the box, discharging and fuel burning guard depletion below 0, so
a full battery may still serve demand. Near zero residual demand (within
half a grid cell of 0) the only feasible control is to wait.

One rule decides every set: _exclusions codes, for each action and each
state, the first test that excludes the action. It reads the (mean, sd)
of the dynamics' two Gaussian laws, q_moments under charge (the law that
full discharge shares) and g_moments under the full generator mode, and
the deterministic means of the two limited modes. Like them it takes
floats or broadcast arrays of states, and a step array broadcasts
against the states as numpy broadcasts any argument: feasibility_mask
passes the grid axes as an open lattice (np.ix_) for the solver, and
feasible_actions passes its one state's floats and names the reason for
every excluded action.

The box tails are dynamics.ndtr of the standardized box bounds. ndtr is
exactly 0 beyond 9 standard deviations (Phi(-9) = 1.1e-19), so a bound
that far out never excludes an action, whatever epsilon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import Action, ModelConfig, State
from .dynamics import (discharge_limited_mean, fuel_limited_mean, g_moments, ndtr, q_moments,
                       seasonal_mean)
from .grid import StateGrid, z_truncation

__all__ = ["FeasibleSet", "feasibility_mask", "feasible_actions", "near_zero_halfwidth"]


@dataclass(frozen=True)
class FeasibleSet:
    """Feasible actions in canonical order, plus why each excluded one fell out."""

    actions: tuple[Action, ...]
    excluded: dict[Action, str] = field(default_factory=dict)

    def __contains__(self, a: Action) -> bool:
        return a in self.actions

    def __iter__(self):
        return iter(self.actions)

    def __len__(self) -> int:
        return len(self.actions)


def near_zero_halfwidth(cfg: ModelConfig) -> float:
    """Half-width of the near-zero residual-demand band: Delta_z / 2."""
    return z_truncation(cfg) / cfg.discretization.N_Z


# Exclusion codes of _exclusions, in the order the rules are tested; 0 is feasible.
_BAND, _SURPLUS, _DEFICIT, _THRESHOLD, _BELOW, _ABOVE, _NEGATIVE = range(1, 8)
_REASONS = {
    _BAND: "near-zero residual demand band",
    _SURPLUS: "surplus production (r < 0)",
    _DEFICIT: "positive residual demand (r >= 0)",
    _THRESHOLD: "residual demand below threshold {threshold}",
    _BELOW: "P(next level < 0) >= {eps}",
    _ABOVE: "P(next level > 1) >= {eps}",
    _NEGATIVE: "deterministic next level < 0",
}


def _exclusions(n, z, q, g, cfg: ModelConfig) -> np.ndarray:
    """Exclusion code per action and state; 0 where the action is feasible.

    n is a step or an array of steps, and z, q and g are floats or
    arrays; a step array broadcasts against the states as numpy
    broadcasts any argument. The action axis comes first, followed by the
    broadcast shape of n, z, q and g: np.arange(N)[:, None] against a
    (step, path) table of states gives each entry its own step's codes.

    A nonzero code names the first rule that excludes the action. The
    regime rules depend on z only, the battery rules on (z, q) and the
    fuel rules on (z, g).
    """
    eps = cfg.discretization.epsilon
    r = seasonal_mean(n, cfg) + z
    band = np.abs(r) < near_zero_halfwidth(cfg)
    surplus = np.less(r, 0.0)  # a numpy bool even for floats, so that ~ is a logical not
    # P(Q' < 0) and P(Q' > 1) in one ndtr call under the Gaussian law that charge
    # and full discharge share, and P(G' < 0) under the full generator mode
    m_q, sd_q = q_moments(n, z, q, Action.CHARGE, cfg)
    q_below, q_above = ndtr(np.stack((-m_q / sd_q, (m_q - 1.0) / sd_q))) >= eps
    m_g, sd_g = g_moments(n, z, g, Action.FUEL_FULL, cfg)
    g_below = ndtr(-m_g / sd_g) >= eps
    q_negative = discharge_limited_mean(q, cfg) < 0.0
    g_negative = fuel_limited_mean(g, cfg) < 0.0

    code = np.zeros((len(Action),) + np.broadcast(r, q, g).shape, dtype=np.int8)

    def rules(a: Action, *tests) -> None:
        # the last test first, so that the first one that holds is the code left
        out = np.int8(0)
        for reason, holds in reversed(tests):
            out = np.where(holds, np.int8(reason), out)
        code[a] = out

    rules(Action.OVERSPILL, (_BAND, band), (_DEFICIT, ~surplus))
    rules(Action.CHARGE, (_BAND, band), (_DEFICIT, ~surplus), (_BELOW, q_below),
          (_ABOVE, q_above))
    rules(Action.WAIT, (_SURPLUS, ~band & surplus))
    rules(Action.DISCHARGE_LIMITED, (_BAND, band), (_SURPLUS, surplus),
          (_THRESHOLD, r < cfg.battery.R_Q0), (_NEGATIVE, q_negative))
    rules(Action.DISCHARGE_FULL, (_BAND, band), (_SURPLUS, surplus), (_BELOW, q_below))
    rules(Action.FUEL_LIMITED, (_BAND, band), (_SURPLUS, surplus),
          (_THRESHOLD, r < cfg.generator.R_G0), (_NEGATIVE, g_negative))
    rules(Action.FUEL_FULL, (_BAND, band), (_SURPLUS, surplus), (_BELOW, g_below))
    return code


def feasible_actions(n: int, x: State, cfg: ModelConfig) -> FeasibleSet:
    """Feasible action set U(n, x); never empty. A non-finite x raises ValueError."""
    for axis, value in zip("zqg", x):
        if not math.isfinite(value):
            raise ValueError(f"non-finite state on axis {axis!r}: {value}")
    codes = _exclusions(n, *x, cfg).tolist()
    thresholds = {Action.DISCHARGE_LIMITED: f"R_Q0 = {cfg.battery.R_Q0}",
                  Action.FUEL_LIMITED: f"R_G0 = {cfg.generator.R_G0}"}
    return FeasibleSet(
        actions=tuple(a for a in Action if codes[a] == 0),
        excluded={a: _REASONS[codes[a]].format(eps=cfg.discretization.epsilon,
                                               threshold=thresholds.get(a))
                  for a in Action if codes[a]},
    )


def feasibility_mask(n, grid: StateGrid, cfg: ModelConfig) -> np.ndarray:
    """Boolean mask (action, i, j, k): True where the action is feasible.

    _exclusions over the open lattice of the grid axes: the rule of
    feasible_actions at every grid state, taken for the whole lattice at
    once. For a 1-D step array n the mask is (step, action, i, j, k), one
    step's mask per slice.
    """
    steps = np.reshape(n, np.shape(n) + (1, 1, 1))
    code = _exclusions(steps, *np.ix_(grid.z.points, grid.q.points, grid.g.points), cfg)
    return np.moveaxis(code, 0, np.ndim(n)) == 0
