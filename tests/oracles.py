"""Independent verification oracles for the test suite.

Each oracle re-derives a quantity the package computes, through a
deliberately different route: scalar transition rows whose rectangle
masses come from adaptive quadrature (transition_row / bvn_rect_prob)
for the kernel blocks, a per-state Bellman backup over those rows and a
pure-Python recursion for the solver, a scalar if-tree over the scalar
moments (feasible_actions_reference) for the coded feasibility rule that
feasibility_mask and feasible_actions read, sampled path integrals for
the expected stage cost, plain Monte Carlo for rectangle probabilities
and cell frequencies, a composite Simpson rule for the terminal
integral, Euler-Maruyama integration of the continuous dynamics for
the closed-form one-step moments, Owen's T function for the bivariate
normal CDF that the kernel's Gauss-Legendre scheme evaluates, and
nested quadrature of the defining convolution for the noise integrals
I_Q and J_Q, whose closed forms cancel near eta0 = beta_R, and scipy's
adaptive quad over the package's own integrands (quad_terminal_battery,
quad_noise_integrals) for its fixed tanh-sinh rule, and the closed forms
of I_Q, J_Q, I_G and psi in 50-digit decimal arithmetic
(decimal_noise_integrals), where their cancellation costs no float
digits. Every row of a simulate_paths batch is checked against the
PathRecords of reference_path, a per-step loop over the public scalar API (one
standard_normal(3) draw, three cell_of lookups, expected_stage_cost and
transition_operator per step), and the CSV writers against the
row-at-a-time f-string writers. The full-lattice block forms evaluate
the bivariate CDF on every edge of every source, tails as +-37, with
scipy's ndtr for the marginals: the reference for the kernel's
closed-form tail edges and its one generator lattice per z source.
dense_cdf_lattice evaluates the kernel's banded CDF lattice through one
boolean band mask over the whole broadcast lattice, and dense_battery_block
and dense_generator_block build both blocks on it, the generator block by
gathering and differencing each g source's window of the offset lattice:
the references, bit for bit, for the kernel's column slabs and its
differences of the offset lattice.
neighborhood gives the (lo, hi] cell of a grid point, the reference for
cell_of, and state_of(grid, m) the grid-point state of a linear state
id, the inverse of grid.lin.
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.integrate import quad
from scipy.special import ndtr, owens_t

from microgrid_dp import (
    Action,
    FeasibleSet,
    ModelConfig,
    NumericalError,
    PolicyTable,
    Scenario,
    State,
    StateGrid,
    TransitionKernel,
    ValueTable,
    cell_of,
    expected_stage_cost,
    g_moments,
    q_moments,
    seasonality,
    terminal_cost,
    transition_moments,
    transition_operator,
)
from microgrid_dp.constraints import near_zero_halfwidth
from microgrid_dp.dynamics import NDTR_BAND, NoiseVector, _efficiency, z_law
from microgrid_dp.dynamics import ndtr as pkg_ndtr
from microgrid_dp.grid import clamp01
from microgrid_dp.simulate import default_initial_state
from microgrid_dp.kernel import _bvn_cdf, _lattice_masses, _normalize_rows, _std_edges
from microgrid_dp.solver import _TIE_TOL


def state_of(grid: StateGrid, m: int) -> State:
    """Grid-point state of linear state id m, the inverse of grid.lin."""
    i, j, k = np.unravel_index(m, grid.shape)
    return State(float(grid.z.points[i]), float(grid.q.points[j]), float(grid.g.points[k]))


# Finite stand-in for an infinite standardized edge: the full-lattice
# references below run Genz's scheme on every edge, and it cannot take +-inf.
_CLIP = 37.0

# Outer bounds of the bottom and the top cell: z is unbounded, q and g clamp at 0 and 1.
_OUTER_BOUNDS = {"z": (-math.inf, math.inf), "q": (0.0, 1.0), "g": (0.0, 1.0)}


def neighborhood(axis, i: int) -> tuple[float, float]:
    """Half-open cell (lo, hi] owned by grid point i of the axis: the cell_of reference."""
    lo, hi = _OUTER_BOUNDS[axis.name]
    if i > 0:
        lo = float(axis.edges[i - 1])
    if i < axis.n_points - 1:
        hi = float(axis.edges[i])
    return lo, hi


def _norm_cdf(x: float) -> float:
    """Standard normal CDF of a float via erfc; exactly 0 / 1 at -inf / +inf."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def bvn_rect_prob(mean2, cov2, rect) -> float:
    """P((X, Y) in rect) for a bivariate normal, via a single adaptive integral.

    The rectangle probability reduces to integrating, against the marginal
    density of X, the conditional normal CDF difference of Y given X.
    Absolute error <= 1e-7 (quadrature driven well below that).
    """
    m1, m2 = float(mean2[0]), float(mean2[1])
    (v1, c12), (c21, v2) = cov2
    v1, v2, c12, c21 = float(v1), float(v2), float(c12), float(c21)
    if abs(c12 - c21) > 1e-12 * max(1.0, abs(c12)):
        raise ValueError("covariance matrix must be symmetric")
    if v1 <= 0.0 or v2 <= 0.0 or v1 * v2 - c12 * c12 < -1e-12 * v1 * v2:
        raise ValueError("covariance matrix must be positive definite")
    rho = c12 / math.sqrt(v1 * v2)
    if abs(rho) >= 1.0:
        raise ValueError("degenerate correlation; use a univariate mass instead")

    (a1, b1), (a2, b2) = rect
    s1, s2 = math.sqrt(v1), math.sqrt(v2)
    lo1, hi1 = (a1 - m1) / s1, (b1 - m1) / s1
    lo2, hi2 = (a2 - m2) / s2, (b2 - m2) / s2
    if hi1 <= lo1 or hi2 <= lo2:
        return 0.0
    tail = math.sqrt(1.0 - rho * rho)

    def integrand(x: float) -> float:
        pdf = math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
        upper = _norm_cdf((hi2 - rho * x) / tail) if hi2 < math.inf else 1.0
        lower = _norm_cdf((lo2 - rho * x) / tail) if lo2 > -math.inf else 0.0
        return pdf * (upper - lower)

    value, _ = quad(integrand, lo1, hi1, epsabs=1e-10, epsrel=1e-10, limit=200)
    return min(1.0, max(0.0, value))


@dataclass(frozen=True)
class TransitionRow:
    """Sparse probability row: aligned target ids and probabilities."""

    targets: np.ndarray
    probs: np.ndarray

    def as_dense(self, n_states: int) -> np.ndarray:
        dense = np.zeros(n_states)
        dense[self.targets] = self.probs
        return dense


def _tail_edges(axis_edges: np.ndarray) -> np.ndarray:
    """Interior cell edges extended with infinite tails (boundary absorption)."""
    return np.concatenate(([-np.inf], axis_edges, [np.inf]))


def _z_cell_masses_scalar(m: float, sd: float, grid: StateGrid) -> np.ndarray:
    std = np.clip((_tail_edges(grid.z.edges) - m) / sd, -_CLIP, _CLIP)
    return np.clip(np.diff(ndtr(std)), 0.0, None)


def transition_row(n: int, source: int, a: Action, grid: StateGrid,
                   cfg: ModelConfig) -> TransitionRow:
    """Scalar transition row of one (step, source state id, action).

    Rectangle masses by adaptive quadrature (bvn_rect_prob), one cell at a
    time, from the scalar moments of transition_moments. The feasibility
    of `a` at the source state is the caller's contract; rows are
    well-defined Gaussian masses for any action.
    """
    x = state_of(grid, source)
    _, j_src, k_src = np.unravel_index(source, grid.shape)
    mom = transition_moments(n, x, a, cfg)
    sd_z = math.sqrt(mom.var_Z)

    z_edges = _tail_edges(grid.z.edges)
    n_z = grid.z.n_points

    if a in (Action.CHARGE, Action.DISCHARGE_FULL) or a is Action.FUEL_FULL:
        if a is Action.FUEL_FULL:
            other_axis, mean_o, var_o, cov = grid.g, mom.m_G, mom.var_G, mom.cov_ZG
            dirac = ("q", cell_of(clamp01(mom.m_Q), grid.q))
        else:
            other_axis, mean_o, var_o, cov = grid.q, mom.m_Q, mom.var_Q, mom.cov_ZQ
            dirac = ("g", k_src)
        o_edges = _tail_edges(other_axis.edges)
        mass = np.empty((n_z, other_axis.n_points))
        cov2 = ((mom.var_Z, cov), (cov, var_o))
        for zi in range(n_z):
            for oi in range(other_axis.n_points):
                rect = ((z_edges[zi], z_edges[zi + 1]), (o_edges[oi], o_edges[oi + 1]))
                mass[zi, oi] = bvn_rect_prob((mom.m_Z, mean_o), cov2, rect)
        mass = _normalize_rows(mass, (-2, -1), f"row n={n} src={source} a={a.label}")
        targets = []
        probs = []
        for zi in range(n_z):
            for oi in range(other_axis.n_points):
                if mass[zi, oi] > 0.0:
                    if dirac[0] == "q":
                        targets.append(grid.lin(zi, dirac[1], oi))
                    else:
                        targets.append(grid.lin(zi, oi, dirac[1]))
                    probs.append(mass[zi, oi])
        return TransitionRow(np.array(targets, dtype=np.intp), np.array(probs))

    # univariate Z times two Dirac axes
    z_mass = _z_cell_masses_scalar(mom.m_Z, sd_z, grid)
    z_mass = _normalize_rows(z_mass, (-1,), f"row n={n} src={source} a={a.label}")
    j_tgt = cell_of(clamp01(mom.m_Q), grid.q)
    k_tgt = cell_of(clamp01(mom.m_G), grid.g)
    keep = z_mass > 0.0
    targets = np.array([grid.lin(zi, j_tgt, k_tgt) for zi in range(n_z) if keep[zi]], dtype=np.intp)
    return TransitionRow(targets, z_mass[keep])


def _box_tails(m, sd):
    """(P(next level < 0), P(next level > 1)) for N(m, sd^2), sd > 0; floats or arrays."""
    return ndtr(-m / sd), ndtr((m - 1.0) / sd)


def _box_chance(m: float, sd: float, eps: float, check_upper: bool) -> str | None:
    """None if the next level stays in [0, 1] with chance >= 1 - eps, else the reason."""
    if sd > 0.0:
        below, above = _box_tails(m, sd)
        if below >= eps:
            return f"P(next level < 0) >= {eps}"
        if check_upper and above >= eps:
            return f"P(next level > 1) >= {eps}"
        return None
    if m < 0.0:
        return "deterministic next level < 0"
    if check_upper and m > 1.0:
        return "deterministic next level > 1"
    return None


def feasible_actions_reference(n: int, x: State, cfg: ModelConfig) -> FeasibleSet:
    """Feasible action set U(n, x) as a scalar if-tree over the scalar moments.

    The reference for constraints._exclusions, which feasibility_mask and
    feasible_actions both read: same actions, same reason strings.
    """
    eps = cfg.discretization.epsilon
    r = seasonality(cfg.t_of(n), cfg.demand) + x.z

    if abs(r) < near_zero_halfwidth(cfg):
        reason = "near-zero residual demand band"
        return FeasibleSet(
            actions=(Action.WAIT,),
            excluded={a: reason for a in Action if a is not Action.WAIT},
        )

    feasible: list[Action] = []
    excluded: dict[Action, str] = {}

    def consider(a: Action, reason: str | None) -> None:
        if reason is None:
            feasible.append(a)
        else:
            excluded[a] = reason

    if r < 0.0:
        consider(Action.OVERSPILL, None)
        m, sd = q_moments(n, x.z, x.q, Action.CHARGE, cfg)
        consider(Action.CHARGE, _box_chance(m, sd, eps, check_upper=True))
        for a in (Action.WAIT, Action.DISCHARGE_LIMITED, Action.DISCHARGE_FULL,
                  Action.FUEL_LIMITED, Action.FUEL_FULL):
            excluded[a] = "surplus production (r < 0)"
    else:
        excluded[Action.OVERSPILL] = "positive residual demand (r >= 0)"
        excluded[Action.CHARGE] = "positive residual demand (r >= 0)"
        consider(Action.WAIT, None)

        if r >= cfg.battery.R_Q0:
            m, sd = q_moments(n, x.z, x.q, Action.DISCHARGE_LIMITED, cfg)
            consider(Action.DISCHARGE_LIMITED, _box_chance(m, sd, eps, check_upper=False))
        else:
            excluded[Action.DISCHARGE_LIMITED] = f"residual demand below threshold R_Q0 = {cfg.battery.R_Q0}"
        m, sd = q_moments(n, x.z, x.q, Action.DISCHARGE_FULL, cfg)
        consider(Action.DISCHARGE_FULL, _box_chance(m, sd, eps, check_upper=False))

        if r >= cfg.generator.R_G0:
            m, sd = g_moments(n, x.z, x.g, Action.FUEL_LIMITED, cfg)
            consider(Action.FUEL_LIMITED, _box_chance(m, sd, eps, check_upper=False))
        else:
            excluded[Action.FUEL_LIMITED] = f"residual demand below threshold R_G0 = {cfg.generator.R_G0}"
        m, sd = g_moments(n, x.z, x.g, Action.FUEL_FULL, cfg)
        consider(Action.FUEL_FULL, _box_chance(m, sd, eps, check_upper=False))

    feasible.sort()
    return FeasibleSet(actions=tuple(feasible), excluded=excluded)


def bellman_backup(n: int, state: int, v_next: np.ndarray, kernel: TransitionKernel,
                   cfg: ModelConfig) -> tuple[float, Action]:
    """Scalar backup at one state: (optimal value, argmin action).

    Q-values come from the scalar feasible set and the quadrature rows of
    transition_row, so the vectorized blocks and mask of solve() are not
    involved; ties within the solver's tolerance go to the canonical order.
    """
    grid = kernel.grid
    x = state_of(grid, state)
    feas = feasible_actions_reference(n, x, cfg)
    if len(feas) == 0:
        raise NumericalError(f"empty feasible set at step {n}, state {state}")
    disc = math.exp(-cfg.costs.rho * cfg.dt)
    q_vals = []
    for a in feas:
        row = transition_row(n, state, a, grid, cfg)
        q = expected_stage_cost(n, x, a, cfg) + disc * float(row.probs @ v_next[row.targets])
        q_vals.append((q, a))
    best = min(q for q, _ in q_vals)
    action = next(a for q, a in q_vals if q <= best + _TIE_TOL)
    return best, action


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
        # energy delivered per unit stored: the eta_D of q_moments and terminal_cost
        integrand = bat.C0_D + bat.C1_D * qs**bat.l_D * (1.0 - qs) ** bat.m_D
        scale = -c.gamma_liq_Q * bat.capacity_CQ
    h = (qs[-1] - qs[0]) / (nodes - 1)
    weights = np.ones(nodes)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return scale * float(h / 3.0 * np.dot(weights, integrand))


def _quad(f, a: float, b: float) -> float:
    """int_a^b f by scipy's adaptive quad, to 1e-13 relative (its roundoff check
    warns on some of these integrands at a tighter tolerance)."""
    return quad(f, a, b, epsabs=0.0, epsrel=1e-13, limit=500)[0]


def quad_terminal_battery(x_q: float, cfg: ModelConfig) -> float:
    """The battery part of the terminal cost by adaptive quadrature.

    The shortfall below q_ref integrates 1 / eta_C, the surplus above it
    eta_D: the integrands of cost.terminal_cost, taken by quad.
    """
    c, bat = cfg.costs, cfg.battery
    if x_q < c.q_ref:
        return c.gamma_pen_Q * bat.capacity_CQ * _quad(
            lambda v: 1.0 / (bat.C0_C + bat.C1_C * v**bat.l_C * (1.0 - v) ** bat.m_C),
            x_q, c.q_ref)
    if x_q > c.q_ref:
        return -c.gamma_liq_Q * bat.capacity_CQ * _quad(
            lambda v: bat.C0_D + bat.C1_D * v**bat.l_D * (1.0 - v) ** bat.m_D, c.q_ref, x_q)
    return 0.0


def quad_noise_integrals(eta0: float, beta: float, dt: float) -> tuple[float, float, float]:
    """(I_Q, J_Q, I_G) by adaptive quadrature of their integrands.

    I_Q = int_0^dt e^(-2 beta v) phi(d, v)^2 dv and J_Q the same with the
    first power, d = eta0 - beta; I_G = int_0^dt phi(beta, v)^2 dv; where
    phi(a, v) = (1 - e^(-a v)) / a, or v at a = 0.
    """
    def phi(a: float, v: float) -> float:
        return v if a == 0.0 else -math.expm1(-a * v) / a

    d = eta0 - beta
    return (_quad(lambda v: math.exp(-2.0 * beta * v) * phi(d, v) ** 2, 0.0, dt),
            _quad(lambda v: math.exp(-2.0 * beta * v) * phi(d, v), 0.0, dt),
            _quad(lambda v: phi(beta, v) ** 2, 0.0, dt))


class NoiseIntegrals(NamedTuple):
    """The noise integrals of one (eta0, beta_R, dt), rounded to floats."""

    i_q: float
    j_q: float
    i_g: float
    psi: float


def decimal_noise_integrals(eta0: float, beta: float, dt: float,
                            digits: int = 50) -> NoiseIntegrals:
    """I_Q, J_Q, I_G and psi(eta0, beta, dt) from their closed forms, at 50 digits by default.

    The float inputs are taken exactly. The closed forms are difference
    quotients: I_Q and J_Q in d = eta0 - beta, which cancel about
    2 log10(1 / (|d| dt)) digits, and I_G in beta, which cancels about
    3 log10(1 / (beta dt)) with those of 1 - e^(-beta dt). So at 50 digits
    they round to the correct float for |d| dt >= 1e-14 and beta dt >= 1e-6
    (checked against 120 digits), but not for beta dt near 1e-14; smaller
    gaps need more digits. At d = 0 (and beta = 0 for I_G) the limits take
    their own closed forms.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        D = decimal.Decimal
        eta0, beta, dt = D(eta0), D(beta), D(dt)

        def phi(a):
            # int_0^dt e^(-a s) ds
            return dt if a == 0 else (1 - (-a * dt).exp()) / a

        d = eta0 - beta
        c = 2 * beta
        if d == 0:
            if c == 0:
                i_q, j_q = dt**3 / 3, dt**2 / 2
            else:
                # int_0^dt v^2 e^(-c v) dv and int_0^dt v e^(-c v) dv
                x, e = c * dt, (-c * dt).exp()
                i_q = 2 * (1 - e * (1 + x + x * x / 2)) / c**3
                j_q = (1 - e * (1 + x)) / c**2
            psi = dt * (-eta0 * dt).exp()
        else:
            i_q = (phi(2 * beta) - 2 * phi(beta + eta0) + phi(2 * eta0)) / (d * d)
            j_q = (phi(2 * beta) - phi(beta + eta0)) / d
            psi = ((-beta * dt).exp() - (-eta0 * dt).exp()) / d
        i_g = dt**3 / 3 if beta == 0 else (dt - 2 * phi(beta) + phi(2 * beta)) / (beta * beta)
        return NoiseIntegrals(*(float(v) for v in (i_q, j_q, i_g, psi)))


def battery_noise_reference(eta0: float, beta: float,
                            dt: float) -> tuple[float, float, float]:
    """(sqrt(I_Q), corr(Z', Q'), psi) by nested quadrature, with no difference quotient.

    The battery's noise kernel is the convolution
    k(v) = int_0^v e^(-beta (v - s)) e^(-eta0 s) ds, a positive integral for
    every eta0, so I_Q = int_0^dt k(v)^2 dv and J_Q = int_0^dt e^(-beta v) k(v) dv
    need no limit at eta0 = beta. The correlation is
    -J_Q / sqrt(I_Q int_0^dt e^(-2 beta v) dv), and psi = k(dt) weighs z in
    the battery drift. At eta0 = 0 the kernel is the generator's,
    (1 - e^(-beta v)) / beta, so the first two entries are sqrt(I_G) and
    corr(Z', G').
    """
    def kernel(v: float) -> float:
        return quad(lambda s: math.exp(-beta * (v - s) - eta0 * s), 0.0, v,
                    epsabs=0.0, epsrel=1e-13)[0]

    def integral(f) -> float:
        return quad(f, 0.0, dt, epsabs=0.0, epsrel=1e-13)[0]

    i_q = integral(lambda v: kernel(v) ** 2)
    j_q = integral(lambda v: math.exp(-beta * v) * kernel(v))
    z_var = integral(lambda v: math.exp(-2.0 * beta * v))
    return math.sqrt(i_q), -j_q / math.sqrt(i_q * z_var), kernel(dt)


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


def sample_transition(n: int, x: State, a: Action, rng: np.random.Generator,
                      cfg: ModelConfig, z_offset: float = 0.0) -> State:
    """Draw one exact-distribution transition; z_offset tilts the Z innovation mean."""
    draws = rng.standard_normal(3)
    eps = NoiseVector(float(draws[0]) + z_offset, float(draws[1]), float(draws[2]))
    return transition_operator(n, x, a, eps, cfg)


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


def reference_path(policy: PolicyTable, scenario: Scenario, cfg: ModelConfig,
                   grid: StateGrid, path_index: int = 0, base_seed: int = 0,
                   initial_state: State | None = None) -> list[PathRecord]:
    """Path path_index of simulate_paths as a per-step loop over the public scalar API.

    Each step draws its three normals with one standard_normal(3) call,
    locates the cell with three cell_of calls and evaluates
    expected_stage_cost and transition_operator from the config. Every
    row of a simulate_paths batch must reproduce the records of its path
    index bit for bit: record n's z, r, q, g, action code, stage and
    cumulative cost are column n of the row.
    """
    seq = np.random.SeedSequence(entropy=base_seed, spawn_key=(scenario.sid, path_index))
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
        # clamp01 returns a numpy scalar; the records hold Python floats (same bits)
        x = State(nxt.z, float(clamp01(nxt.q)), float(clamp01(nxt.g)))
    return records


def _fmt(value) -> str:
    return repr(float(value)) if isinstance(value, (float, np.floating)) else str(value)


def write_step_csv_reference(tables: tuple[ValueTable, PolicyTable], grid: StateGrid,
                             n: int, path: str, cfg: ModelConfig) -> None:
    """The value/policy CSV of step n, written one f-string row at a time."""
    values, policy = tables
    n_steps = cfg.discretization.steps_N
    mu = seasonality(cfg.t_of(n), cfg.demand)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("i,j,k,z,r_mid,q,g,value_eur,action\n")
        for m, (i, j, k) in enumerate(np.ndindex(grid.shape)):
            z = float(grid.z.points[i])
            label = "" if n == n_steps else policy.action_at(n, m).label
            fh.write(
                f"{i},{j},{k},{_fmt(z)},{_fmt(mu + z)},{_fmt(grid.q.points[j])},"
                f"{_fmt(grid.g.points[k])},{_fmt(values.values[n, m])},{label}\n"
            )


def write_paths_csv_reference(records, path: str) -> None:
    """A path as CSV, written one f-string row at a time.

    Each record is a PathRecord or a tuple in its field order, the action
    an Action or its integer code.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("step,time_h,z,r,q,g,action,stage_cost_eur,cum_cost_eur\n")
        for step, time_h, z, r, q, g, action, stage, cum in records:
            fh.write(
                f"{step},{_fmt(time_h)},{_fmt(z)},{_fmt(r)},{_fmt(q)},"
                f"{_fmt(g)},{Action(action).label},{_fmt(stage)},{_fmt(cum)}\n"
            )


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
            x = state_of(grid, m)
            acts = tuple(feasible_actions_reference(n, x, cfg))
            feas[n, m] = acts
            for a in acts:
                row = transition_row(n, m, a, grid, cfg)
                rows[n, m, a] = [
                    (int(t), float(p))
                    for t, p in zip(row.targets, row.probs) if p >= prune
                ]
                stage[n, m, a] = expected_stage_cost(n, x, a, cfg)
    term = [terminal_cost(state_of(grid, m), cfg) for m in range(n_states)]
    disc = math.exp(-cfg.costs.rho * cfg.dt)

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


def bvn_cdf_owens_t(x: np.ndarray, y: np.ndarray, rho: float) -> np.ndarray:
    """P(X <= x, Y <= y) for standard bivariate normals, via Owen's T function.

    Phi2(x, y; rho) = Phi(x) / 2 + Phi(y) / 2 - T(x, a_x) - T(y, a_y) - beta
    with a_x = (y - rho x) / (x sqrt(1 - rho^2)), a_y likewise, and
    beta = 1/2 where x y < 0, else 0 (Owen 1956). x and y must be nonzero.
    """
    s = math.sqrt(1.0 - rho * rho)
    t = owens_t(x, (y - rho * x) / (x * s)) + owens_t(y, (x - rho * y) / (y * s))
    return 0.5 * ndtr(x) + 0.5 * ndtr(y) - t - np.where(x * y < 0.0, 0.5, 0.0)


def full_lattice_rect_masses(std_a: np.ndarray, std_b: np.ndarray, rho: float) -> np.ndarray:
    """Cell masses with the bivariate CDF evaluated on every lattice edge.

    std_a (..., NA) and std_b (..., NB) are standardized interior edges;
    the -inf / +inf tails enter as -37 / +37 like any other edge. The
    marginals Genz's scheme reads are scipy's ndtr of the edges.
    Returns shape (..., NA + 1, NB + 1).
    """
    def padded(std):
        lo = np.full(std.shape[:-1] + (1,), -_CLIP)
        return np.concatenate((lo, std, -lo), axis=-1)

    a, b = padded(std_a)[..., :, None], padded(std_b)[..., None, :]
    cdf = _bvn_cdf(a, b, rho, ndtr(a), ndtr(b))
    return np.clip(np.diff(np.diff(cdf, axis=-1), axis=-2), 0.0, None)


def generator_block_per_source(n: int, grid: StateGrid, cfg: ModelConfig) -> np.ndarray:
    """Full-generator (Z, G) block with one CDF lattice per (z, g) source.

    Means and variances come from the scalar moment functions, one source
    at a time, so the shared offset lattice is not involved. The scalar
    functions read the same array laws as the block, so this checks the
    lattice, not the laws; the Euler oracle and the frozen constants in
    test_dynamics check the laws. Shape (z src, g src, z cell, g cell),
    rows normalized.
    """
    n_z, n_g = grid.z.n_points, grid.g.n_points
    std_z = np.empty((n_z, 1, grid.z.edges.size))
    std_g = np.empty((n_z, n_g, grid.g.edges.size))
    rho = transition_moments(n, State(0.0, 0.0, 0.0), Action.FUEL_FULL, cfg).rho_G
    for i, z in enumerate(grid.z.points):
        m_z, sd_z = z_law(float(z), cfg)
        std_z[i, 0] = (grid.z.edges - m_z) / sd_z
        for k, g in enumerate(grid.g.points):
            m_g, sd_g = g_moments(n, float(z), float(g), Action.FUEL_FULL, cfg)
            std_g[i, k] = (grid.g.edges - m_g) / sd_g
    mass = full_lattice_rect_masses(np.clip(std_z, -_CLIP, _CLIP),
                                    np.clip(std_g, -_CLIP, _CLIP), rho)
    return _normalize_rows(mass, (-2, -1), f"reference generator block n={n}")


def dense_cdf_lattice(std_a: np.ndarray, std_b: np.ndarray, rho: float,
                      cdf_a: np.ndarray, cdf_b: np.ndarray) -> np.ndarray:
    """kernel._cdf_lattice's contract on a dense boolean band mask: shape (..., NA + 2, NB + 2).

    The marginal closed forms (cdf_b where std_a >= NDTR_BAND, else cdf_a
    where std_b >= NDTR_BAND, else 0) are taken on the whole (..., NA, NB)
    lattice. Where both edges lie in the band, the joint band of
    u = a - b (rho > 0) or a + b (rho < 0) at reach NDTR_BAND * sqrt(2 (1 - |rho|))
    then gives cdf_b / cdf_a (rho > 0) or max(cdf_a + cdf_b - 1, 0) / 0
    (rho < 0) at u >= reach / u <= -reach. Genz's scheme overwrites every
    remaining point, gathered through one mask over the broadcast lattice.
    """
    a, b = std_a[..., :, None], std_b[..., None, :]
    ca, cb = cdf_a[..., :, None], cdf_b[..., None, :]
    inner = np.where(a >= NDTR_BAND, cb, np.where(b >= NDTR_BAND, ca, 0.0))
    band = (np.abs(a) < NDTR_BAND) & (np.abs(b) < NDTR_BAND)
    if rho:
        u = a - b if rho > 0.0 else a + b
        reach = NDTR_BAND * math.sqrt(2.0 * (1.0 - abs(rho)))
        inner = np.where(band & (u >= reach), cb if rho > 0.0 else np.maximum(ca + cb - 1.0, 0.0),
                         inner)
        inner = np.where(band & (u <= -reach), ca if rho > 0.0 else 0.0, inner)
        band &= np.abs(u) < reach
    a, b, ca, cb = np.broadcast_arrays(a, b, ca, cb)
    inner[band] = _bvn_cdf(a[band], b[band], rho, ca[band], cb[band])
    cdf = np.zeros(inner.shape[:-2] + (inner.shape[-2] + 2, inner.shape[-1] + 2))
    cdf[..., 1:-1, 1:-1] = inner
    cdf[..., 1:-1, -1] = cdf_a
    cdf[..., -1, 1:-1] = cdf_b
    cdf[..., -1, -1] = 1.0
    return cdf


def dense_battery_block(kern: TransitionKernel, n: int) -> np.ndarray:
    """TransitionKernel.battery_block over dense_cdf_lattice, from the kernel's z edges."""
    grid, cfg = kern.grid, kern.cfg
    m_q, sd_q = q_moments(n, grid.z.points[:, None], grid.q.points[None, :], Action.CHARGE, cfg)
    std_q = _std_edges(grid.q.edges, m_q, sd_q)
    cdf = dense_cdf_lattice(kern._z_std[:, None, :], std_q, cfg.constants.rho_q,
                            kern._z_cdf[:, None, :], pkg_ndtr(std_q))
    return _normalize_rows(_lattice_masses(cdf), (-2, -1), f"dense battery block n={n}")


def dense_generator_block(kern: TransitionKernel, n: int) -> np.ndarray:
    """TransitionKernel.generator_block over dense_cdf_lattice, differencing windows.

    Each g source gathers its window of the (z src, z edge, offset)
    lattice, tail edges included, and the whole gathered (z src, z edge,
    g src, g edge) array is differenced along g and z: the shared offset
    lattice, but none of the kernel's differencing of it. The rows are
    normalized in the block's own (z src, g src, z cell, g cell) memory
    order, whose row sums add in the kernel's order.
    """
    grid, cfg = kern.grid, kern.cfg
    pts, edges = grid.g.points, grid.g.edges
    n_int = edges.size
    # the mean at g = 0 is the shared offsets' shift
    m_g, sd_g = g_moments(n, grid.z.points, 0.0, Action.FUEL_FULL, cfg)
    offsets = np.concatenate((edges[0] - pts[:0:-1], edges - pts[0]))
    std_g = _std_edges(offsets, m_g, sd_g)
    cdf = dense_cdf_lattice(kern._z_std, std_g, cfg.constants.rho_g, kern._z_cdf, pkg_ndtr(std_g))
    # Padded column of interior edge f (column f + 1) for source k is
    # f - k + N_G + 1; the two tail columns are shared by every source.
    cols = np.arange(n_int + 2)[None, :] - np.arange(pts.size)[:, None] + n_int
    cols[:, 0] = 0
    cols[:, -1] = 2 * n_int + 1
    mass = np.ascontiguousarray(_lattice_masses(cdf[:, :, cols].transpose(0, 2, 1, 3)))
    return _normalize_rows(mass, (-2, -1), f"dense generator block n={n}")


@dataclass(frozen=True)
class MomentEstimate:
    value: float
    se: float


@dataclass(frozen=True)
class EmpiricalMoments:
    """Monte-Carlo moment estimates with standard errors."""

    m_Z: MomentEstimate
    var_Z: MomentEstimate
    m_Q: MomentEstimate
    var_Q: MomentEstimate
    m_G: MomentEstimate
    var_G: MomentEstimate
    cov_ZQ: MomentEstimate
    rho_Q: MomentEstimate
    cov_ZG: MomentEstimate
    rho_G: MomentEstimate


def _is_degenerate(samples: np.ndarray) -> bool:
    """True when the sample spread is pure floating-point roundoff.

    Deterministic axes (for example the fuel level under a battery action)
    accumulate spreads of order 1e-13 over many Euler substeps; genuinely
    stochastic axes have standard deviations above 1e-2.  The relative
    threshold separates the two regimes by several orders of magnitude.
    """
    return float(samples.std()) < 1e-9 * (1.0 + abs(float(samples.mean())))


def _mean_est(samples: np.ndarray) -> MomentEstimate:
    n = samples.size
    if _is_degenerate(samples):
        return MomentEstimate(float(samples.mean()), 0.0)
    return MomentEstimate(float(samples.mean()), float(samples.std(ddof=1) / math.sqrt(n)))


def _var_est(samples: np.ndarray) -> MomentEstimate:
    n = samples.size
    if _is_degenerate(samples):
        return MomentEstimate(0.0, 0.0)
    v = float(samples.var(ddof=1))
    return MomentEstimate(v, v * math.sqrt(2.0 / (n - 1)))


def _cov_est(a: np.ndarray, b: np.ndarray) -> MomentEstimate:
    n = a.size
    if _is_degenerate(a) or _is_degenerate(b):
        return MomentEstimate(0.0, 0.0)
    c = float(np.cov(a, b, ddof=1)[0, 1])
    va, vb = float(a.var(ddof=1)), float(b.var(ddof=1))
    return MomentEstimate(c, math.sqrt((va * vb + c * c) / (n - 1)))


def _corr_est(a: np.ndarray, b: np.ndarray) -> MomentEstimate:
    n = a.size
    if _is_degenerate(a) or _is_degenerate(b):
        return MomentEstimate(0.0, 0.0)
    r = float(np.corrcoef(a, b)[0, 1])
    return MomentEstimate(r, (1.0 - r * r) / math.sqrt(n - 3))


def euler_oracle(n: int, x: State, a, paths: int, inner_step: float,
                 cfg: ModelConfig, seed: int = 12345):
    """Euler-Maruyama integration of the continuous dynamics over one step.

    Integrates the coupled (Z, Q, G) equations with the seasonal mean and
    the efficiency factor frozen at the step's left endpoint, exactly as
    the closed-form laws assume, and returns empirical one-step moments.
    This is a verification oracle, not a production sampler.

    `a` is one action (returns its EmpiricalMoments) or a tuple of actions
    (returns {action: EmpiricalMoments}). The Z path does not depend on
    the action, so a tuple integrates all its actions over one shared Z
    stream; each entry equals the one-action call with the same seed.
    """
    dt = cfg.dt
    if inner_step > dt / 100.0:
        raise ValueError("inner_step must be <= Delta/100 for a meaningful oracle")
    actions = (a,) if isinstance(a, Action) else tuple(a)
    p, bat, gen = cfg.demand, cfg.battery, cfg.generator
    mu = seasonality(cfg.t_of(n), p)

    eta = _efficiency(mu + x.z <= 0.0, x.q, cfg)
    eta_lim = 1.0 / (bat.C0_D + bat.C1_D * x.q**bat.l_D * (1.0 - x.q) ** bat.m_D)

    rng = np.random.default_rng(seed)
    n_steps = int(round(dt / inner_step))
    h = dt / n_steps
    sqrt_h = math.sqrt(h)
    z = np.full(paths, x.z)
    q = {b: np.full(paths, x.q) for b in actions}
    g = {b: np.full(paths, x.g) for b in actions}
    for _ in range(n_steps):
        for b in actions:
            dq = -bat.eta0 * q[b] * h
            if b in (Action.CHARGE, Action.DISCHARGE_FULL):
                dq -= (eta / bat.capacity_CQ) * (mu + z) * h
            elif b is Action.DISCHARGE_LIMITED:
                dq -= (eta_lim * bat.R_Q0 / bat.capacity_CQ) * h
            if b is Action.FUEL_FULL:
                g[b] -= (gen.c0 + gen.c1 * (mu + z)) / gen.capacity_CG * h
            elif b is Action.FUEL_LIMITED:
                g[b] -= (gen.c0 + gen.c1 * gen.R_G0) / gen.capacity_CG * h
            q[b] += dq
        z = z - p.beta_R * z * h + p.sigma_R * sqrt_h * rng.standard_normal(paths)

    moments = {
        b: EmpiricalMoments(
            m_Z=_mean_est(z), var_Z=_var_est(z),
            m_Q=_mean_est(q[b]), var_Q=_var_est(q[b]),
            m_G=_mean_est(g[b]), var_G=_var_est(g[b]),
            cov_ZQ=_cov_est(z, q[b]), rho_Q=_corr_est(z, q[b]),
            cov_ZG=_cov_est(z, g[b]), rho_G=_corr_est(z, g[b]),
        )
        for b in actions
    }
    return moments[a] if isinstance(a, Action) else moments
