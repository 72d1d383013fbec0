"""Independent verification oracles for the test suite.

Each oracle re-derives a quantity the package computes, through a
deliberately different route: pure-Python recursion from scalar
quadrature rows for the solver, sampled path integrals for the expected
stage cost, plain Monte Carlo for rectangle probabilities and cell
frequencies, and a composite Simpson rule for the terminal integral. The
full-lattice block forms evaluate the bivariate CDF on every edge of every
source, tails as +-37: the reference for the kernel's closed-form tail
edges and its one generator lattice per z source.
"""

from __future__ import annotations

import math

import numpy as np

from microgrid_dp import (
    Action,
    ModelConfig,
    State,
    StateGrid,
    cell_of,
    cross_moments,
    expected_stage_cost,
    feasible_actions,
    g_moments,
    seasonality,
    terminal_cost,
    transition_operator,
    transition_row,
    z_moments,
)
from microgrid_dp.dynamics import NoiseVector
from microgrid_dp.kernel import _CLIP, _bvn_cdf, _normalize_rows


def mc_bvn_rect(rho: float, rect, n_samples: int = 10**7, seed: int = 7771):
    """Monte-Carlo probability of a rectangle under a standard BVN law.

    Returns (estimate, standard error). rect is ((x_lo, x_hi), (y_lo, y_hi)).
    """
    (x_lo, x_hi), (y_lo, y_hi) = rect
    rng = np.random.default_rng(seed)
    tail = math.sqrt(1.0 - rho * rho)
    hits = 0
    left = n_samples
    while left > 0:
        m = min(2_000_000, left)
        left -= m
        u = rng.standard_normal(m)
        v = rho * u + tail * rng.standard_normal(m)
        inside = (u > x_lo) & (u <= x_hi) & (v > y_lo) & (v <= y_hi)
        hits += int(inside.sum())
    p = hits / n_samples
    se = math.sqrt(max(p * (1.0 - p), 1e-300) / n_samples)
    return p, se


def _integrand(a: Action, cfg: ModelConfig):
    """Vectorized instantaneous cost rate in the residual demand r.

    For charging the signed rate -gamma_deg*r is integrated: that is the
    quantity the closed form represents, and it equals the |r| cost on
    the region where charging is admissible (r < 0).
    """
    c = cfg.costs
    gen = cfg.generator
    r_q0 = cfg.battery.R_Q0
    r_g0 = gen.R_G0
    if a is Action.OVERSPILL:
        return lambda r: np.zeros_like(r)
    if a is Action.CHARGE:
        return lambda r: -c.gamma_deg * r
    if a is Action.WAIT:
        return lambda r: c.k0 * r * r
    if a is Action.DISCHARGE_FULL:
        return lambda r: c.gamma_deg * r
    if a is Action.DISCHARGE_LIMITED:
        return lambda r: c.gamma_deg * r_q0 + c.k0 * (r - r_q0) ** 2
    if a is Action.FUEL_FULL:
        return lambda r: c.fuel_price_F0 * (gen.c0 + gen.c1 * r)
    if a is Action.FUEL_LIMITED:
        base = c.fuel_price_F0 * (gen.c0 + gen.c1 * r_g0)
        return lambda r: base + c.k0 * (r - r_g0) ** 2
    raise ValueError(a)


def mc_stage_cost(n: int, z: float, a: Action, cfg: ModelConfig,
                  paths: int = 30_000, substeps: int = 200, seed: int = 4242):
    """Discounted path integral of the instantaneous cost over one step.

    The demand residual follows exact Ornstein-Uhlenbeck transitions on a
    fine subgrid; the integral is a trapezoid sum per path, so the only
    bias is the O((dt/substeps)^2) quadrature error of a smooth map.
    Returns (mean, standard error).
    """
    p = cfg.demand
    dt = cfg.dt
    h = dt / substeps
    decay = math.exp(-p.beta_R * h)
    shock = p.sigma_R * math.sqrt(-math.expm1(-2.0 * p.beta_R * h) / (2.0 * p.beta_R))
    mu = seasonality(cfg.t_of(n), p)
    f = _integrand(a, cfg)
    rng = np.random.default_rng(seed)
    zs = np.full(paths, float(z))
    acc = 0.5 * f(mu + zs)
    for k in range(1, substeps + 1):
        zs = decay * zs + shock * rng.standard_normal(paths)
        weight = 0.5 if k == substeps else 1.0
        acc = acc + weight * math.exp(-cfg.costs.rho * k * h) * f(mu + zs)
    samples = acc * h
    return float(samples.mean()), float(samples.std(ddof=1) / math.sqrt(paths))


def simpson_terminal_battery(x_q: float, cfg: ModelConfig, nodes: int = 20_001) -> float:
    """Composite-Simpson value of the battery part of the terminal cost."""
    c = cfg.costs
    bat = cfg.battery
    q_ref = c.q_ref
    if x_q == q_ref:
        return 0.0
    if x_q < q_ref:
        qs = np.linspace(x_q, q_ref, nodes)
        eta = bat.C0_C + bat.C1_C * qs**bat.l_C * (1.0 - qs) ** bat.m_C
        integrand = 1.0 / eta
        scale = c.gamma_pen_Q * bat.capacity_CQ
    else:
        qs = np.linspace(q_ref, x_q, nodes)
        integrand = 1.0 / (bat.C0_D + bat.C1_D * qs**bat.l_D * (1.0 - qs) ** bat.m_D)
        scale = -c.gamma_liq_Q * bat.capacity_CQ
    h = (qs[-1] - qs[0]) / (nodes - 1)
    weights = np.ones(nodes)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return scale * float(h / 3.0 * np.dot(weights, integrand))


def operator_cell_counts(n: int, x: State, a: Action, cfg: ModelConfig,
                         grid: StateGrid, draws: int, seed: int) -> np.ndarray:
    """Cell-visit counts of the sampled one-step operator, shape (n_states,)."""
    rng = np.random.default_rng(seed)
    eps = rng.standard_normal((draws, 3))
    counts = np.zeros(grid.n_states, dtype=np.int64)
    for row in eps:
        nxt = transition_operator(n, x, a, NoiseVector(*row), cfg)
        m = grid.lin(cell_of(nxt.z, grid.z), cell_of(nxt.q, grid.q),
                     cell_of(nxt.g, grid.g))
        counts[m] += 1
    return counts


def brute_force_values(cfg: ModelConfig, grid: StateGrid,
                       prune: float = 1e-13) -> np.ndarray:
    """V(0, .) by literal recursion over the full decision tree.

    No value is cached: every subtree is re-enumerated on every visit.
    Transition rows come from the scalar quadrature route and are
    tabulated once as plain data; entries below `prune` are dropped,
    which perturbs values by at most (dropped mass) * max|V| * steps.
    """
    n_steps = cfg.discretization.steps_N
    n_states = grid.n_states
    feas: dict[tuple[int, int], tuple[Action, ...]] = {}
    rows: dict[tuple[int, int, Action], list[tuple[int, float]]] = {}
    stage: dict[tuple[int, int, Action], float] = {}
    for n in range(n_steps):
        for m in range(n_states):
            x = grid.state_of(m)
            acts = tuple(feasible_actions(n, x, cfg))
            feas[n, m] = acts
            for a in acts:
                row = transition_row(n, m, a, grid, cfg)
                rows[n, m, a] = [
                    (int(t), float(p))
                    for t, p in zip(row.targets, row.probs) if p >= prune
                ]
                stage[n, m, a] = expected_stage_cost(n, x, a, cfg)
    term = [terminal_cost(grid.state_of(m), cfg) for m in range(n_states)]
    disc = (math.exp(-cfg.costs.rho * cfg.dt)
            if cfg.bellman_discount_continuation else 1.0)

    def value(n: int, m: int) -> float:
        if n == n_steps:
            return term[m]
        best = math.inf
        for a in feas[n, m]:
            acc = 0.0
            for target, p in rows[n, m, a]:
                acc += p * value(n + 1, target)
            total = stage[n, m, a] + disc * acc
            if total < best:
                best = total
        return best

    return np.array([value(0, m) for m in range(n_states)])


def full_lattice_rect_masses(std_a: np.ndarray, std_b: np.ndarray, rho: float) -> np.ndarray:
    """Cell masses with the bivariate CDF evaluated on every lattice edge.

    std_a (..., NA) and std_b (..., NB) are standardized interior edges;
    the -inf / +inf tails enter as -37 / +37 like any other edge.
    Returns shape (..., NA + 1, NB + 1).
    """
    def padded(std):
        lo = np.full(std.shape[:-1] + (1,), -_CLIP)
        return np.concatenate((lo, std, -lo), axis=-1)

    cdf = _bvn_cdf(padded(std_a)[..., :, None], padded(std_b)[..., None, :], rho)
    return np.clip(np.diff(np.diff(cdf, axis=-1), axis=-2), 0.0, None)


def generator_block_per_source(n: int, grid: StateGrid, cfg: ModelConfig) -> np.ndarray:
    """Full-generator (Z, G) block with one CDF lattice per (z, g) source.

    Means and variances come from the scalar moment functions, one source
    at a time, so neither the shared offset lattice nor the array laws
    are involved. Shape (z src, g src, z cell, g cell), rows normalized.
    """
    n_z, n_g = grid.z.n_points, grid.g.n_points
    std_z = np.empty((n_z, 1, grid.z.edges.size))
    std_g = np.empty((n_z, n_g, grid.g.edges.size))
    rho = cross_moments(n, 0.0, 0.0, Action.FUEL_FULL, cfg)[3]
    for i, z in enumerate(grid.z.points):
        m_z, var_z = z_moments(n, float(z), cfg)
        std_z[i, 0] = (grid.z.edges - m_z) / math.sqrt(var_z)
        for k, g in enumerate(grid.g.points):
            m_g, var_g = g_moments(n, float(z), float(g), Action.FUEL_FULL, cfg)
            std_g[i, k] = (grid.g.edges - m_g) / math.sqrt(var_g)
    mass = full_lattice_rect_masses(np.clip(std_z, -_CLIP, _CLIP),
                                    np.clip(std_g, -_CLIP, _CLIP), rho)
    return _normalize_rows(mass, (-2, -1), f"reference generator block n={n}")
