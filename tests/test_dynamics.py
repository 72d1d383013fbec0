"""Exact one-step Gaussian moments against arithmetic and Monte Carlo."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr as scipy_ndtr

import microgrid_dp as m
from microgrid_dp import dynamics
from microgrid_dp.config import eta_discharge
from microgrid_dp.dynamics import NoiseVector, law_drive, step_constants, z_law
from microgrid_dp.solver import stage_cost_rows
from conftest import small_discretization
from oracles import battery_noise_reference, decimal_noise_integrals, euler_oracle

STATE = m.State(1.0, 0.8, 0.9)
FIELDS = ("m_Z", "var_Z", "m_Q", "var_Q", "m_G", "var_G",
          "cov_ZQ", "rho_Q", "cov_ZG", "rho_G")


def _with_dt(cfg, dt):
    disc = dataclasses.replace(cfg.discretization, horizon_T=dt, steps_N=1)
    return dataclasses.replace(cfg, discretization=disc)


def test_z_moments_frozen_values(cfg_table1):
    m_Z, sd_Z = z_law(2.13, cfg_table1)
    assert m_Z == pytest.approx(1.7438965040561012, abs=1e-12)
    assert sd_Z * sd_Z == pytest.approx(0.16690047669445762, abs=1e-12)


def test_z_mean_linear_in_z(cfg_table1):
    decay = math.exp(-cfg_table1.demand.beta_R)
    for z in (-2.0, -0.5, 0.0, 1.3):
        m_Z, sd_Z = z_law(z, cfg_table1)
        assert m_Z == pytest.approx(z * decay, abs=1e-14)
        assert sd_Z * sd_Z == pytest.approx(0.16690047669445762, abs=1e-12)


def test_efficiency_branch_switch(cfg_table1):
    mu0 = m.seasonality(0.0, cfg_table1.demand)

    def eta(z, q):
        return dynamics._efficiency(law_drive(0, z, cfg_table1).charging, q, cfg_table1)

    assert eta(-5.0, 1.0 / 3.0) == pytest.approx(0.9955555555555556, abs=1e-13)
    expected = 1.0 / eta_discharge(1.0 / 3.0, cfg_table1.battery)
    assert eta(5.0, 1.0 / 3.0) == pytest.approx(expected, abs=1e-13)
    assert eta(-mu0, 0.5) == pytest.approx(eta(-10.0, 0.5), abs=1e-14)


def test_idle_battery_decays_exponentially(cfg_table1):
    m_Q, sd_Q = m.q_moments(0, 0.0, 1.0, m.Action.WAIT, cfg_table1)
    assert m_Q == pytest.approx(0.9997895821409437, abs=1e-12)
    assert sd_Q == 0.0
    for a in (m.Action.OVERSPILL, m.Action.FUEL_FULL, m.Action.FUEL_LIMITED):
        got = m.q_moments(0, 0.3, 0.6, a, cfg_table1)
        assert got == (pytest.approx(0.6 * math.exp(-cfg_table1.battery.eta0)), 0.0)


def test_charge_and_discharge_full_share_one_law(cfg_table1):
    for z in (-1.5, -0.2, 0.4, 2.0):
        a = m.q_moments(3, z, 0.45, m.Action.CHARGE, cfg_table1)
        b = m.q_moments(3, z, 0.45, m.Action.DISCHARGE_FULL, cfg_table1)
        assert a == b
        ca = m.transition_moments(3, m.State(z, 0.45, 0.5), m.Action.CHARGE, cfg_table1)
        cb = m.transition_moments(3, m.State(z, 0.45, 0.5), m.Action.DISCHARGE_FULL, cfg_table1)
        assert ((ca.cov_ZQ, ca.rho_Q, ca.cov_ZG, ca.rho_G)
                == (cb.cov_ZQ, cb.rho_Q, cb.cov_ZG, cb.rho_G))


def test_discharge_limited_is_deterministic_drain(cfg_table1):
    bat = cfg_table1.battery
    q, z = 0.7, 1.0
    m_Q, sd_Q = m.q_moments(0, z, q, m.Action.DISCHARGE_LIMITED, cfg_table1)
    phi = -math.expm1(-bat.eta0) / bat.eta0
    expect = q * math.exp(-bat.eta0) - bat.R_Q0 * phi / (
        bat.capacity_CQ * eta_discharge(q, bat))
    assert m_Q == pytest.approx(expect, abs=1e-14)
    assert sd_Q == 0.0
    assert m_Q == pytest.approx(
        m.q_moments(0, -2.0, q, m.Action.DISCHARGE_LIMITED, cfg_table1)[0], abs=1e-14)


def test_fuel_limited_mean_frozen(cfg_table1):
    m_G, sd_G = m.g_moments(0, 0.0, 1.0, m.Action.FUEL_LIMITED, cfg_table1)
    assert m_G == pytest.approx(0.9502935, abs=1e-12)
    assert sd_G == 0.0


def test_fuel_idle_is_exact_identity(cfg_table1):
    for a in (m.Action.OVERSPILL, m.Action.CHARGE, m.Action.WAIT,
              m.Action.DISCHARGE_LIMITED, m.Action.DISCHARGE_FULL):
        m_G, sd_G = m.g_moments(0, 1.2, 0.37, a, cfg_table1)
        assert m_G == 0.37
        assert sd_G == 0.0


def test_fuel_full_burn_arithmetic(cfg_table1):
    gen, p = cfg_table1.generator, cfg_table1.demand
    z, g = 0.5, 0.9
    m_G, sd_G = m.g_moments(0, z, g, m.Action.FUEL_FULL, cfg_table1)
    phi_beta = -math.expm1(-p.beta_R) / p.beta_R
    mu = m.seasonality(0.0, p)
    expect = g - (gen.c0 + gen.c1 * (mu + z * phi_beta)) / gen.capacity_CG
    assert m_G == pytest.approx(expect, abs=1e-14)
    assert sd_G > 0.0


def test_covariance_survives_an_underflowing_variance(cfg_table1):
    """With capacity_CQ = 1e300 the sd of Q' under charge is about 1e-301,
    whose square underflows to 0: var_Q is 0, but cov_ZQ is still
    rho_Q * sd_Z * sd_Q, taken from the sd itself, not from sqrt(var_Q)."""
    cfg = m.validate_config(dataclasses.replace(
        cfg_table1, battery=dataclasses.replace(cfg_table1.battery, capacity_CQ=1e300)))
    x = m.State(0.5, 0.5, 0.5)
    mom = m.transition_moments(3, x, m.Action.CHARGE, cfg)
    sd_Q = m.q_moments(3, x.z, x.q, m.Action.CHARGE, cfg)[1]
    assert 0.0 < sd_Q < 1e-300 and mom.var_Q == 0.0
    assert mom.rho_Q < -0.8
    assert mom.cov_ZQ < 0.0
    assert mom.cov_ZQ == mom.rho_Q * math.sqrt(mom.var_Z) * sd_Q
    assert mom.cov_ZQ == pytest.approx(-8.6e-302, rel=1e-2)


def test_correlations_state_free_and_frozen(cfg_table1):
    rho_qs = set()
    for z, q in ((-1.5, 0.1), (0.3, 0.5), (2.0, 0.9)):
        mom = m.transition_moments(0, m.State(z, q, 0.5), m.Action.CHARGE, cfg_table1)
        rho_qs.add(round(mom.rho_Q, 13))
    assert len(rho_qs) == 1
    assert rho_qs.pop() == pytest.approx(-0.8435046872971607, abs=1e-11)
    mom = m.transition_moments(0, STATE, m.Action.FUEL_FULL, cfg_table1)
    assert mom.rho_G == pytest.approx(-0.843496129329308, abs=1e-11)


def test_correlation_product_vanishes_for_all_actions(cfg_table1):
    for a in m.Action:
        mom = m.transition_moments(0, STATE, a, cfg_table1)
        assert mom.rho_Q * mom.rho_G == 0.0
        if a in (m.Action.CHARGE, m.Action.DISCHARGE_FULL):
            assert -1.0 < mom.rho_Q < 0.0
            assert mom.cov_ZQ < 0.0
        if a is m.Action.FUEL_FULL:
            assert -1.0 < mom.rho_G < 0.0
            assert mom.cov_ZG < 0.0


def test_variances_increase_with_step_size(cfg_table1):
    prev = None
    for dt in (0.125, 0.25, 0.5, 1.0):
        cfg = _with_dt(cfg_table1, dt)
        mom = m.transition_moments(0, STATE, m.Action.DISCHARGE_FULL, cfg)
        momf = m.transition_moments(0, STATE, m.Action.FUEL_FULL, cfg)
        triple = (mom.var_Z, mom.var_Q, momf.var_G)
        if prev is not None:
            assert all(b > a > 0.0 for a, b in zip(prev, triple))
        prev = triple


def test_moments_euler_consistent_at_small_steps(cfg_table1):
    """Closed-form means approach the one-step Euler drift at rate O(dt^2)."""
    p, bat = cfg_table1.demand, cfg_table1.battery
    z, q = STATE.z, STATE.q

    def errors(dt):
        cfg = _with_dt(cfg_table1, dt)
        mu = m.seasonality(0.0, p)
        eta = dynamics._efficiency(law_drive(0, z, cfg).charging, q, cfg)
        mom = m.transition_moments(0, m.State(z, q, 0.9), m.Action.DISCHARGE_FULL, cfg)
        e_z = abs(mom.m_Z - (z - p.beta_R * z * dt))
        euler_q = q - bat.eta0 * q * dt - (eta / bat.capacity_CQ) * (mu + z) * dt
        e_q = abs(mom.m_Q - euler_q)
        e_var = abs(mom.var_Z - p.sigma_R**2 * dt)
        return e_z, e_q, e_var

    coarse, mid, fine = errors(1.0), errors(0.5), errors(0.25)
    for idx in range(3):
        assert coarse[idx] / mid[idx] > 3.0
        assert mid[idx] / fine[idx] > 3.0


def test_transition_operator_reproduces_moments(cfg_table1):
    a = m.Action.DISCHARGE_FULL
    mom = m.transition_moments(0, STATE, a, cfg_table1)
    at_zero = m.transition_operator(0, STATE, a, NoiseVector(0.0, 0.0, 0.0), cfg_table1)
    assert at_zero.z == pytest.approx(mom.m_Z, abs=1e-14)
    assert at_zero.q == pytest.approx(mom.m_Q, abs=1e-14)
    assert at_zero.g == pytest.approx(mom.m_G, abs=1e-14)
    kicked = m.transition_operator(0, STATE, a, NoiseVector(1.0, 0.0, 0.0), cfg_table1)
    assert kicked.z - at_zero.z == pytest.approx(math.sqrt(mom.var_Z), abs=1e-12)
    assert kicked.q - at_zero.q == pytest.approx(
        math.sqrt(mom.var_Q) * mom.rho_Q, abs=1e-12)
    lifted = m.transition_operator(0, STATE, a, NoiseVector(0.0, 1.0, 0.0), cfg_table1)
    assert lifted.q - at_zero.q == pytest.approx(
        math.sqrt(mom.var_Q) * math.sqrt(1.0 - mom.rho_Q**2), abs=1e-12)
    assert lifted.z == at_zero.z


def test_transition_operator_is_the_law_closed_form(cfg_table1):
    """With fixed noise the sampler is exactly m + sd (rho eps_Z + sqrt(1 - rho^2) eps)
    of the array laws on the stochastic axes and the law mean on the others."""
    cfg = cfg_table1
    eps = NoiseVector(0.7, -1.3, 0.4)
    rho_q, rho_g = cfg.constants.rho_q, cfg.constants.rho_g
    for n in (0, 5, 17, 100):
        for x in (STATE, m.State(-1.5, 0.3, 1.0), m.State(0.2, 0.05, 0.6), m.State(2.2, 1.0, 0.0)):
            m_z, sd_z = z_law(x.z, cfg)
            m_q, sd_q = m.q_moments(n, x.z, x.q, m.Action.CHARGE, cfg)
            m_g, sd_g = m.g_moments(n, x.z, x.g, m.Action.FUEL_FULL, cfg)
            for a in m.Action:
                got = m.transition_operator(n, x, a, eps, cfg)
                assert got.z == m_z + sd_z * eps.eps_Z
                if a in (m.Action.CHARGE, m.Action.DISCHARGE_FULL):
                    assert got.q == m_q + sd_q * (rho_q * eps.eps_Z
                                                  + math.sqrt(1.0 - rho_q**2) * eps.eps_Q)
                else:
                    assert got.q == m.q_moments(n, x.z, x.q, a, cfg)[0]
                if a is m.Action.FUEL_FULL:
                    assert got.g == m_g + sd_g * (rho_g * eps.eps_Z
                                                  + math.sqrt(1.0 - rho_g**2) * eps.eps_G)
                else:
                    assert got.g == m.g_moments(n, x.z, x.g, a, cfg)[0]


def test_transition_operator_on_arrays_is_the_scalar_call(cfg_table1):
    """Over arrays of states and noise (one entry per simulated path) every
    entry equals the scalar call's bits, under each of the seven actions."""
    cfg = cfg_table1
    rng = np.random.default_rng(5)
    size = 64
    z = rng.uniform(-2.5, 2.5, size)
    q = np.concatenate(([0.0, 1.0], rng.uniform(0.0, 1.0, size - 2)))
    g = np.concatenate(([1.0, 0.0], rng.uniform(0.0, 1.0, size - 2)))
    eps = rng.standard_normal((3, size))
    for n in (0, 17, 100, 167):
        for a in m.Action:
            got = m.transition_operator(n, m.State(z, q, g), a, NoiseVector(*eps), cfg)
            assert all(field.shape == (size,) for field in got), a
            want = [m.transition_operator(n, m.State(*x), a, NoiseVector(*e), cfg)
                    for x, e in zip(zip(z.tolist(), q.tolist(), g.tolist()), eps.T.tolist())]
            for axis, column in zip("zqg", got):
                assert column.tolist() == [float(getattr(w, axis)) for w in want], (n, a, axis)


@settings(max_examples=100, deadline=None)
@given(codes=st.lists(st.integers(0, len(m.Action) - 1), max_size=48),
       n=st.integers(0, 167), seed=st.integers(0, 2**32 - 1))
def test_transition_operator_on_action_codes_is_the_per_action_call(cfg_table1, codes, n, seed):
    """With one action code per path, each path's next state has the bits of
    the call with its own Action over the paths that take it, for all seven
    actions, whichever mix of laws of Q' and G' the codes hold."""
    cfg = cfg_table1
    codes = np.array(codes, dtype=np.int8)
    rng = np.random.default_rng(seed)
    x = m.State(rng.uniform(-2.5, 2.5, codes.size), rng.uniform(0.0, 1.0, codes.size),
                rng.uniform(0.0, 1.0, codes.size))
    eps = NoiseVector(*rng.standard_normal((3, codes.size)))
    got = m.transition_operator(n, x, codes, eps, cfg)
    assert all(field.shape == codes.shape for field in got)
    for a in m.Action:
        sel = np.flatnonzero(codes == a)
        want = m.transition_operator(n, m.State(*(f[sel] for f in x)), a,
                                     NoiseVector(*(e[sel] for e in eps)), cfg)
        for axis, column, w in zip("zqg", got, want):
            # repr of a float is its shortest round trip, so equal reprs are equal bits
            assert repr(column[sel].tolist()) == repr(np.broadcast_to(w, sel.shape).tolist()), \
                (a, axis)


@pytest.mark.parametrize("n", [0, 17, 167])
@pytest.mark.parametrize("a", list(m.Action))
def test_an_action_over_arrays_is_its_code_repeated(cfg_table1, a, n):
    """An Action is the one-law case of the code route: over arrays of states
    and noise it gives the bits of the same code repeated for every entry."""
    rng = np.random.default_rng(11)
    size = 40
    x = m.State(rng.uniform(-2.5, 2.5, size), np.concatenate(([0.0, 1.0], rng.uniform(0, 1, 38))),
                np.concatenate(([1.0, 0.0], rng.uniform(0, 1, 38))))
    eps = NoiseVector(*rng.standard_normal((3, size)))
    by_action = m.transition_operator(n, x, a, eps, cfg_table1)
    by_code = m.transition_operator(n, x, np.full(size, a, dtype=np.int8), eps, cfg_table1)
    for axis, got, want in zip("zqg", by_action, by_code):
        assert np.shape(got) == np.shape(want) == (size,), axis
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), axis


@pytest.mark.parametrize("codes", [np.array([1, 7], dtype=np.int8), np.array([-1, 2]),
                                   np.array([1.0, 2.0]), np.array([[1, 2]]), np.array(1),
                                   np.array([True, False])],
                         ids=["above", "negative", "float", "2-d", "0-d", "bool"])
def test_action_code_arrays_outside_the_alphabet_are_refused(cfg_table1, codes):
    x = m.State(np.zeros(2), np.full(2, 0.5), np.full(2, 0.5))
    eps = NoiseVector(*np.zeros((3, 2)))
    with pytest.raises(ValueError, match="unknown action"):
        m.transition_operator(0, x, codes, eps, cfg_table1)


_ONE_ROUTE_CASES = {
    "table1": lambda cfg: cfg,
    "small": small_discretization,
    "eta0=20": lambda cfg: _with_eta0(cfg, 20.0),
}


@pytest.mark.parametrize("case", sorted(_ONE_ROUTE_CASES))
def test_drive_and_mover_are_the_one_route_of_every_law(cfg_table1, case):
    """At random (step, z, q, g) in both regimes and under all seven
    actions, three routes give the same next levels bit for bit: the
    simulator's, one law_drive over a (step, path) table and move_levels
    on each step's row with mixed action codes; transition_operator at a
    single state; and the (mean, sd) of q_moments or g_moments under the
    entry's action, with sd times the innovation added where sd is not 0."""
    cfg = _ONE_ROUTE_CASES[case](cfg_table1)
    sc = cfg.constants
    rng = np.random.default_rng(35)
    rows, paths = 6, 28
    steps = rng.integers(0, cfg.discretization.steps_N, (rows, 1))
    # z around -mu_R(t_n) puts entries in both regimes, mu + z <= 0 and > 0
    z = rng.uniform(-2.5, 2.5, (rows, paths)) - sc.mu[steps]
    q = np.concatenate((np.zeros((rows, 1)), np.ones((rows, 1)),
                        rng.uniform(0.0, 1.0, (rows, paths - 2))), axis=1)
    g = rng.uniform(0.0, 1.0, (rows, paths))
    eps = NoiseVector(*rng.standard_normal((3, rows, paths)))
    drive = law_drive(steps, z, cfg, eps)
    assert drive.charging.any() and not drive.charging.all()
    base = rng.integers(0, len(m.Action), (rows, paths))
    gaussian_q, gaussian_g = {m.Action.CHARGE, m.Action.DISCHARGE_FULL}, {m.Action.FUEL_FULL}
    for shift in range(len(m.Action)):  # every entry under every action, codes mixed in each row
        codes = ((base + shift) % len(m.Action)).astype(np.int8)
        moved = np.array([dynamics.move_levels(dynamics.LawDrive(*(f[r] for f in drive)),
                                               codes[r], q[r], g[r], cfg) for r in range(rows)])
        by_operator, by_laws = (np.empty((rows, 2, paths)) for _ in range(2))
        for r, p in np.ndindex(rows, paths):
            n, a = int(steps[r, 0]), m.Action(codes[r, p])
            x = m.State(float(z[r, p]), float(q[r, p]), float(g[r, p]))
            e = NoiseVector(*(float(f[r, p]) for f in eps))
            nxt = m.transition_operator(n, x, a, e, cfg)
            by_operator[r, :, p] = nxt.q, nxt.g
            m_q, sd_q = m.q_moments(n, x.z, x.q, a, cfg)
            m_g, sd_g = m.g_moments(n, x.z, x.g, a, cfg)
            assert (sd_q != 0.0) == (a in gaussian_q) and (sd_g != 0.0) == (a in gaussian_g)
            innovation_q = sc.rho_q * e.eps_Z + math.sqrt(1.0 - sc.rho_q * sc.rho_q) * e.eps_Q
            innovation_g = sc.rho_g * e.eps_Z + math.sqrt(1.0 - sc.rho_g * sc.rho_g) * e.eps_G
            by_laws[r, :, p] = (m_q + sd_q * innovation_q if sd_q else m_q,
                                m_g + sd_g * innovation_g if sd_g else m_g)
        assert moved.tobytes() == by_operator.tobytes(), (case, shift)
        assert moved.tobytes() == by_laws.tobytes(), (case, shift)


def test_scalar_moments_are_the_array_laws_bit_for_bit(cfg_table1, grid_table1):
    """On every table1 step and every (z, q) and (z, g) lattice pair (so for
    every grid state), the scalar (mean, sd) of q_moments and g_moments
    equal the same laws taken over the whole lattice, transition_moments'
    variances are those sds squared, and the correlations equal
    cfg.constants.rho_q / rho_g, without rounding slack."""
    cfg, grid = cfg_table1, grid_table1
    z, q, g = grid.z.points, grid.q.points, grid.g.points
    rho_q, rho_g = cfg.constants.rho_q, cfg.constants.rho_g
    mismatches = 0
    for n in range(cfg.discretization.steps_N):
        m_q, sd_q = m.q_moments(n, z[:, None], q[None, :], m.Action.CHARGE, cfg)
        m_g, sd_g = m.g_moments(n, z[:, None], g[None, :], m.Action.FUEL_FULL, cfg)
        for i, zi in enumerate(z.tolist()):
            for j, qj in enumerate(q.tolist()):
                for a in (m.Action.CHARGE, m.Action.DISCHARGE_FULL):
                    mismatches += m.q_moments(n, zi, qj, a, cfg) != (m_q[i, j], sd_q[i, j])
                mom = m.transition_moments(n, m.State(zi, qj, 0.5), m.Action.CHARGE, cfg)
                mismatches += (mom.var_Q, mom.rho_Q) != (sd_q[i, j] * sd_q[i, j], rho_q)
            for k, gk in enumerate(g.tolist()):
                mismatches += m.g_moments(n, zi, gk, m.Action.FUEL_FULL, cfg) != (m_g[i, k], sd_g)
                mom = m.transition_moments(n, m.State(zi, 0.5, gk), m.Action.FUEL_FULL, cfg)
                mismatches += (mom.var_G, mom.rho_G) != (sd_g * sd_g, rho_g)
    assert mismatches == 0


def test_operator_sample_covariance_matches(cfg_table1):
    rng = np.random.default_rng(77)
    a = m.Action.DISCHARGE_FULL
    mom = m.transition_moments(0, STATE, a, cfg_table1)
    draws = rng.standard_normal((20_000, 3))
    zs = np.empty(len(draws))
    qs = np.empty(len(draws))
    for idx, eps in enumerate(draws):
        nxt = m.transition_operator(0, STATE, a, NoiseVector(*eps), cfg_table1)
        zs[idx], qs[idx] = nxt.z, nxt.q
    cov = float(np.cov(zs, qs, ddof=1)[0, 1])
    se = math.sqrt((zs.var(ddof=1) * qs.var(ddof=1) + cov * cov) / (len(draws) - 1))
    assert abs(cov - mom.cov_ZQ) < 3.0 * se
    assert cov < 0.0


@pytest.mark.parametrize("action,state", [
    (m.Action.DISCHARGE_FULL, m.State(1.0, 0.8, 0.9)),
    (m.Action.CHARGE, m.State(-1.5, 0.3, 1.0)),
    (m.Action.FUEL_FULL, m.State(0.5, 0.5, 0.9)),
    (m.Action.DISCHARGE_LIMITED, m.State(2.0, 0.9, 0.5)),
    (m.Action.WAIT, m.State(0.0, 0.4, 0.2)),
])
def test_moments_match_euler_monte_carlo(cfg_table1, action, state):
    est = euler_oracle(0, state, action, paths=20_000, inner_step=1e-3,
                       cfg=cfg_table1)
    mom = m.transition_moments(0, state, action, cfg_table1)
    for field in FIELDS:
        sample = getattr(est, field)
        closed = getattr(mom, field)
        if sample.se == 0.0:
            assert abs(closed - sample.value) < 1e-6
        else:
            assert abs(closed - sample.value) < 3.0 * sample.se


def test_correlation_bias_shrinks_with_inner_step(cfg_table1):
    """The EM correlation estimate converges to the closed form as the
    integration step is refined; at 2.5e-4 h the bias is inside one SE."""
    est = euler_oracle(0, STATE, m.Action.DISCHARGE_FULL, paths=20_000,
                       inner_step=2.5e-4, cfg=cfg_table1)
    mom = m.transition_moments(0, STATE, m.Action.DISCHARGE_FULL, cfg_table1)
    assert abs(mom.rho_Q - est.rho_Q.value) < 3.0 * est.rho_Q.se


def test_euler_oracle_guards_inner_step(cfg_table1):
    with pytest.raises(ValueError):
        euler_oracle(0, STATE, m.Action.WAIT, paths=10, inner_step=0.5,
                     cfg=cfg_table1)


def test_noise_vector_fields():
    eps = NoiseVector(0.1, -0.2, 0.3)
    assert (eps.eps_Z, eps.eps_Q, eps.eps_G) == (0.1, -0.2, 0.3)


def _with_eta0(cfg, eta0):
    return dataclasses.replace(cfg, battery=dataclasses.replace(cfg.battery, eta0=eta0))


@pytest.mark.parametrize("gap", [0.0, 1e-12, -1e-12, 1e-9, 2e-9, 1e-8, 1e-7, 1e-5, 1e-3, 1e-1])
def test_battery_noise_constants_across_the_singular_gap(cfg_table1, gap):
    """sqrt(I_Q), corr(Z', Q') and psi stay accurate as eta0 approaches beta_R,
    where the closed forms are difference quotients that cancel."""
    cfg = _with_eta0(cfg_table1, cfg_table1.demand.beta_R + gap)
    sc = step_constants(cfg)
    sqrt_iq, rho_q, psi = battery_noise_reference(cfg.battery.eta0, cfg.demand.beta_R, cfg.dt)
    assert sc.q_sqrt_iq == pytest.approx(sqrt_iq, rel=1e-10, abs=0.0)
    assert sc.rho_q == pytest.approx(rho_q, rel=1e-10, abs=0.0)
    assert sc.q_psi == pytest.approx(psi, rel=1e-10, abs=0.0)


@pytest.mark.parametrize("beta", [4e-8, 1e-5, 1e-3, 0.05])
def test_generator_noise_constants_at_small_beta(cfg_table1, beta):
    """sd and corr(Z', G') stay accurate as beta_R dt -> 0, where
    (dt - 2 phi(beta) + phi(2 beta)) / beta^2 cancels."""
    cfg = dataclasses.replace(cfg_table1,
                              demand=dataclasses.replace(cfg_table1.demand, beta_R=beta))
    gen, sc = cfg.generator, step_constants(cfg)
    sqrt_ig, rho_g, _ = battery_noise_reference(0.0, beta, cfg.dt)
    assert sc.sd_g == pytest.approx(gen.c1 * cfg.demand.sigma_R / gen.capacity_CG * sqrt_ig,
                                    rel=1e-10, abs=0.0)
    assert sc.rho_g == pytest.approx(rho_g, rel=1e-10, abs=0.0)


# (eta0, beta_R, dt) sweep of the decimal accuracy test: table1, gaps
# eta0 - beta_R from 0 and 1e-12 up to both sides of the 0.1 / dt where the
# closed forms once took over, the same two sides for beta_R, at steps from
# 0.01 to 168 h. beta_R dt stays >= 1e-6, where the 50-digit oracle holds.
_ETA0_TABLE1 = m.default_config().battery.eta0
_GAPS = (0.0, 1e-12, 1e-9, 1e-6, 1e-3)
_NOISE_SWEEP = [(_ETA0_TABLE1, 0.2, 1.0)] + [
    (eta0, beta, dt)
    for dt in (0.01, 1.0, 24.0, 168.0)
    for beta in (1e-4, 0.09 / dt, 0.11 / dt, 0.2, 5.0)
    for eta0 in sorted({beta + sign * gap for gap in _GAPS + (0.09 / dt, 0.11 / dt, 1.0 / dt)
                        for sign in (1.0, -1.0)} | {0.0, _ETA0_TABLE1, 20.0})
    if eta0 >= 0.0
]


def _rel(got: float, want: float) -> float:
    return 0.0 if got == want else abs(got - want) / abs(want)


def test_noise_integrals_match_the_decimal_closed_forms():
    """I_Q, J_Q and I_G are within 1e-15 relative of their closed forms taken
    at 50 digits, and psi within 1e-15 (1 + min(eta0, beta_R) dt), the
    rounding of the exponent of e^(-min dt); the sign-normalised arguments
    below are those of step_constants."""
    worst = {}
    for eta0, beta, dt in _NOISE_SWEEP:
        ref = decimal_noise_integrals(eta0, beta, dt)
        low, gap = min(eta0, beta), abs(eta0 - beta)
        errors = {
            "i_q": _rel(dynamics.noise_integral(2.0 * low, gap, dt, 2), ref.i_q),
            "j_q": _rel(dynamics.noise_integral(beta + low, gap, dt, 1), ref.j_q),
            "i_g": _rel(dynamics.noise_integral(0.0, beta, dt, 2), ref.i_g),
            "psi": _rel(dynamics._psi(eta0, beta, dt), ref.psi) / (1.0 + low * dt),
        }
        for name, err in errors.items():
            worst[name] = max(worst.get(name, (0.0,)), (err, eta0, beta, dt))
    assert all(err <= 1e-15 for err, *_ in worst.values()), worst


@pytest.mark.parametrize("dt", [0.01, 1.0, 168.0])
@pytest.mark.parametrize("gap", [5e-16, 2e-15, 5e-15, 9e-15])
def test_noise_integrals_at_gaps_below_1e_14(gap, dt):
    """A gap eta0 - beta_R below 1e-14 is not taken as 0: at 168 h that would
    be off by gap dt / 2, up to 7.6e-13 in psi. The closed forms need 80
    digits here."""
    eta0, beta = 0.2 + gap, 0.2
    ref = decimal_noise_integrals(eta0, beta, dt, digits=80)
    gap = eta0 - beta
    assert _rel(dynamics.noise_integral(2.0 * beta, gap, dt, 2), ref.i_q) <= 1e-15
    assert _rel(dynamics.noise_integral(2.0 * beta, gap, dt, 1), ref.j_q) <= 1e-15
    assert _rel(dynamics._psi(eta0, beta, dt), ref.psi) <= 1e-15 * (1.0 + beta * dt)


@pytest.mark.parametrize("eta0, beta, dt", [
    (_ETA0_TABLE1, 0.2, 1.0), (0.2, 0.2, 1.0), (0.2 + 1e-12, 0.2, 1.0), (0.11, 0.2, 1.0),
    (0.0, 5.0, 168.0), (20.0, 1e-4, 0.01)])
def test_step_constants_read_the_one_route(cfg_table1, eta0, beta, dt):
    """step_constants passes non-negative rate arguments to noise_integral:
    eta0 = 0, beta_R = 5 over 168 h would overflow to NaN otherwise."""
    cfg = _with_dt(cfg_table1, dt)
    cfg = dataclasses.replace(cfg, battery=dataclasses.replace(cfg.battery, eta0=eta0),
                              demand=dataclasses.replace(cfg.demand, beta_R=beta))
    sc, ref = step_constants(cfg), decimal_noise_integrals(eta0, beta, dt)
    gen, sigma = cfg.generator, cfg.demand.sigma_R
    z_var = -math.expm1(-2.0 * beta * dt) / (2.0 * beta)
    assert _rel(sc.q_sqrt_iq, math.sqrt(ref.i_q)) <= 1e-15
    assert _rel(sc.sd_g, gen.c1 * sigma / gen.capacity_CG * math.sqrt(ref.i_g)) <= 1e-15
    assert _rel(sc.rho_q, -ref.j_q / math.sqrt(z_var * ref.i_q)) <= 2e-15
    assert _rel(sc.q_psi, ref.psi) <= 1e-15 * (1.0 + min(eta0, beta) * dt)


@pytest.mark.cpu_bits
def test_table1_constants_take_the_one_route(cfg_table1):
    """table1's noise integrals take the one tanh-sinh route and psi its
    non-cancelling form, bit for bit as recorded when that route became the
    only one."""
    sc = step_constants(cfg_table1)
    assert tuple(sc)[:-1] == (
        0.8187307530779818, 0.4085345477367338, 0.9997895821409437, 0.9062476991438482,
        0.9998947873804439, 0.025, 0.5363201026307692, 0.9063462346100907,
        0.004223859538960866, -0.8435046872971687, -0.8434961293293123, 0.985148881716394,
        0.8933321630289827, 0.8127695471550778, 0.50625)
    sqrt_iq, rho_q, psi = battery_noise_reference(cfg_table1.battery.eta0,
                                                  cfg_table1.demand.beta_R, cfg_table1.dt)
    assert sc.q_sqrt_iq == pytest.approx(sqrt_iq, rel=1e-13, abs=0.0)
    assert sc.rho_q == pytest.approx(rho_q, rel=1e-13, abs=0.0)
    assert sc.q_psi == pytest.approx(psi, rel=1e-13, abs=0.0)


def test_constants_out_of_range_are_numerical_errors(cfg_table1, monkeypatch):
    with pytest.raises(m.NumericalError, match="one-step law constants"):
        step_constants(_with_eta0(cfg_table1, 1e200))
    monkeypatch.setattr(dynamics, "_jg", lambda beta, dt: 1e3)
    with pytest.raises(m.NumericalError, match="rho_g"):
        step_constants(cfg_table1)


def test_config_derives_its_constants_once(cfg_table1, monkeypatch):
    """One solve and 200 simulated paths on one config build its constants once."""
    calls = []

    def counted(cfg):
        calls.append(cfg)
        return step_constants(cfg)

    monkeypatch.setattr(dynamics, "step_constants", counted)
    cfg = small_discretization(cfg_table1)
    grid = m.build_grid(cfg)
    _, policy = m.solve(cfg, grid)
    for idx in range(200):
        m.simulate_paths(policy, m.SCENARIOS["overcast-week"], cfg, grid, [idx])
    assert calls == [cfg]


def test_replaced_config_gets_fresh_constants(cfg_table1):
    cfg = small_discretization(cfg_table1)
    sc = cfg.constants
    assert cfg.constants is sc
    other = _with_eta0(cfg, 0.01)
    assert other.constants is not sc
    assert other.constants.q_decay == math.exp(-0.01 * other.dt) != sc.q_decay
    longer = small_discretization(cfg, steps=6)
    assert longer.constants.mu.shape == (7,)
    assert sc.mu.shape == (5,)


def test_laws_reject_steps_outside_the_horizon(cfg_table1):
    cfg = small_discretization(cfg_table1)
    n_steps = cfg.discretization.steps_N
    x, eps = m.State(0.5, 0.5, 0.5), NoiseVector(0.1, 0.2, 0.3)
    for n in (0, n_steps):
        m.q_moments(n, x.z, x.q, m.Action.CHARGE, cfg)
        m.expected_stage_cost(n, x, m.Action.WAIT, cfg)
    for n in (-1, n_steps + 1):
        laws = [lambda: m.feasible_actions(n, x, cfg),
                # one path per action code, the step-free moves included
                lambda: m.transition_operator(
                    n, m.State(*(np.full(len(m.Action), v) for v in x)), np.arange(len(m.Action)),
                    NoiseVector(*(np.full(len(m.Action), e) for e in eps)), cfg)]
        # every action, the step-free deterministic moves included
        for a in m.Action:
            laws += [lambda a=a: m.q_moments(n, x.z, x.q, a, cfg),
                     lambda a=a: m.g_moments(n, x.z, x.g, a, cfg),
                     lambda a=a: m.transition_moments(n, x, a, cfg),
                     lambda a=a: m.transition_operator(n, x, a, eps, cfg),
                     lambda a=a: m.expected_stage_cost(n, x, a, cfg)]
        for law in laws:
            with pytest.raises(KeyError):
                law()
    # a step array raises the same KeyError if any of its steps lies outside 0..N;
    # -1 must not wrap round to step N
    grid = m.build_grid(cfg)
    kern = m.TransitionKernel(cfg, grid)
    for bad in (-1, n_steps + 1):
        steps = np.array([0, bad, n_steps])
        laws = [lambda: stage_cost_rows(steps, grid, cfg),
                lambda: m.feasibility_mask(steps, grid, cfg),
                lambda: kern.blocks(steps, np.ones((3, len(m.Action)) + grid.shape, bool)),
                lambda: kern._generator_chunk(steps, np.ones((3, grid.z.n_points), bool)),
                lambda: kern.battery_block(bad),
                lambda: kern.generator_block(bad)]
        for a in m.Action:
            laws += [lambda a=a: m.q_moments(steps, x.z, x.q, a, cfg),
                     lambda a=a: m.g_moments(steps, grid.z.points, x.g, a, cfg),
                     lambda a=a: m.expected_stage_cost(steps, x, a, cfg)]
        for law in laws:
            with pytest.raises(KeyError):
                law()


@pytest.mark.parametrize("code", range(len(m.Action)))
def test_plain_int_actions_are_refused(cfg_table1, code):
    """Every law takes an Action: a plain int raises ValueError, also one
    whose value is that of an Action under which Q' is Gaussian."""
    x, eps = m.State(0.5, 0.5, 0.5), NoiseVector(0.1, 0.2, 0.3)
    laws = [lambda: m.q_moments(0, x.z, x.q, code, cfg_table1),
            lambda: m.g_moments(0, x.z, x.g, code, cfg_table1),
            lambda: m.expected_stage_cost(0, x, code, cfg_table1),
            lambda: m.transition_moments(0, x, code, cfg_table1),
            lambda: m.transition_operator(0, x, code, eps, cfg_table1)]
    for law in laws:
        with pytest.raises(ValueError, match="unknown action"):
            law()


# Edges of ndtr's band, points just inside them, the kernel's +-37 clip and
# both zeros, besides a dense grid over [-40, 40].
_NDTR_POINTS = np.concatenate((
    np.linspace(-40.0, 40.0, 400_001),
    [-9.0, 9.0, np.nextafter(-9.0, 0.0), np.nextafter(9.0, 0.0), -9.0 + 1e-9, 9.0 - 1e-9,
     -37.0, 37.0, 0.0, -0.0],
))


def test_ndtr_matches_scipy():
    """Within the band |x| < 9 ndtr is erfc's, within 2.3e-16 of scipy's
    ndtr (2.2e-16 measured); beyond it exactly 0 or 1, within Phi(-9) =
    1.1e-19."""
    x = _NDTR_POINTS
    got, want = dynamics.ndtr(x), scipy_ndtr(x)
    band = np.abs(x) < dynamics.NDTR_BAND
    assert np.abs(got - want)[band].max() <= 2.3e-16
    assert np.abs(got - want)[~band].max() <= 1.2e-19
    np.testing.assert_array_equal(got[~band], (x[~band] > 0.0).astype(float))
    assert dynamics.ndtr(0.0) == dynamics.ndtr(-0.0) == 0.5


def test_ndtr_keeps_nan_and_the_input_shape():
    assert math.isnan(dynamics.ndtr(math.nan))
    for x in (0.3, -12.0, np.float64(2.0), np.array(0.3)):
        assert isinstance(dynamics.ndtr(x), float)
    got = dynamics.ndtr(np.array([[math.nan, -math.inf], [math.inf, 1.0]]))
    assert got.shape == (2, 2)
    assert math.isnan(got[0, 0]) and got[0, 1] == 0.0 and got[1, 0] == 1.0
    assert got[1, 1] == 0.5 * math.erfc(-1.0 / math.sqrt(2.0))
    assert dynamics.ndtr(np.array([])).shape == (0,)
