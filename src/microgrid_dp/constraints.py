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
state of a (z, q, g) lattice, the first test that excludes the action,
with the means and standard deviations of the dynamics' array laws.
feasibility_mask reads it over the grid axes for the solver;
feasible_actions reads it at one state and names the reason for every
excluded action.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr

from .config import Action, ModelConfig, State, seasonality
from .dynamics import battery_law, discharge_limited_mean, fuel_limited_mean, generator_law
# Bound only so that perfbench/tracing.py can count calls of constraints.q_moments/g_moments.
from .dynamics import g_moments, q_moments  # noqa: F401
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


def _box_tails(m, sd):
    """(P(next level < 0), P(next level > 1)) for N(m, sd^2), sd > 0; floats or arrays."""
    return ndtr(-m / sd), ndtr((m - 1.0) / sd)


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


def _exclusions(n: int, z: np.ndarray, q: np.ndarray, g: np.ndarray,
                cfg: ModelConfig) -> np.ndarray:
    """Exclusion code per (action, i, j, k) over the axes z, q, g; 0 where feasible.

    A nonzero code names the first rule that excludes the action. The
    regime rules depend on z only, the battery rules on (z, q) and the
    fuel rules on (z, g).
    """
    eps = cfg.discretization.epsilon
    r = seasonality(cfg.t_of(n), cfg.demand) + z
    band = (np.abs(r) < near_zero_halfwidth(cfg))[:, None, None]
    surplus = (r < 0.0)[:, None, None]
    q_below, q_above = (tail[:, :, None] >= eps
                        for tail in _box_tails(*battery_law(n, z[:, None], q[None, :], cfg)))
    burn, sd_g = generator_law(n, z, cfg)
    g_below = (_box_tails(g[None, :] - burn[:, None], sd_g)[0] >= eps)[:, None, :]
    q_negative = (discharge_limited_mean(q, cfg) < 0.0)[None, :, None]
    g_negative = (fuel_limited_mean(g, cfg) < 0.0)[None, None, :]

    code = np.zeros((len(Action), z.size, q.size, g.size), dtype=np.int8)

    def rules(a: Action, *tests) -> None:
        # the last test first, so that the first one that holds is the code left
        out = 0
        for reason, holds in reversed(tests):
            out = np.where(holds, reason, out)
        code[a] = out

    rules(Action.OVERSPILL, (_BAND, band), (_DEFICIT, ~surplus))
    rules(Action.CHARGE, (_BAND, band), (_DEFICIT, ~surplus), (_BELOW, q_below),
          (_ABOVE, q_above))
    rules(Action.WAIT, (_SURPLUS, ~band & surplus))
    rules(Action.DISCHARGE_LIMITED, (_BAND, band), (_SURPLUS, surplus),
          (_THRESHOLD, (r < cfg.battery.R_Q0)[:, None, None]), (_NEGATIVE, q_negative))
    rules(Action.DISCHARGE_FULL, (_BAND, band), (_SURPLUS, surplus), (_BELOW, q_below))
    rules(Action.FUEL_LIMITED, (_BAND, band), (_SURPLUS, surplus),
          (_THRESHOLD, (r < cfg.generator.R_G0)[:, None, None]), (_NEGATIVE, g_negative))
    rules(Action.FUEL_FULL, (_BAND, band), (_SURPLUS, surplus), (_BELOW, g_below))
    return code


def feasible_actions(n: int, x: State, cfg: ModelConfig) -> FeasibleSet:
    """Feasible action set U(n, x); never empty. A non-finite x raises ValueError."""
    for axis, value in zip("zqg", x):
        if not math.isfinite(value):
            raise ValueError(f"non-finite state on axis {axis!r}: {value}")
    axes = (np.array([value], dtype=float) for value in x)
    codes = _exclusions(n, *axes, cfg)[:, 0, 0, 0].tolist()
    thresholds = {Action.DISCHARGE_LIMITED: f"R_Q0 = {cfg.battery.R_Q0}",
                  Action.FUEL_LIMITED: f"R_G0 = {cfg.generator.R_G0}"}
    return FeasibleSet(
        actions=tuple(a for a in Action if codes[a] == 0),
        excluded={a: _REASONS[codes[a]].format(eps=cfg.discretization.epsilon,
                                               threshold=thresholds.get(a))
                  for a in Action if codes[a]},
    )


def feasibility_mask(n: int, grid: StateGrid, cfg: ModelConfig) -> np.ndarray:
    """Boolean mask (action, i, j, k): True where the action is feasible.

    _exclusions over the grid axes: the rule of feasible_actions at every
    grid state, taken for the whole lattice at once.
    """
    return _exclusions(n, grid.z.points, grid.q.points, grid.g.points, cfg) == 0
