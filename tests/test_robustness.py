"""Odd but valid configs solve to finite values or fail cleanly.

A small seeded sweep over the edges of the model: eta0 at and near beta_R
(where the battery's noise integrals have a removable singularity), a
battery correlation beyond the Genz high-|rho| switch at 0.925, epsilon
near 0 and 0.5, the coarsest grids and a one-step horizon, and the cost
and efficiency parameters at their edges: each cost coefficient and the
discount rate at 0, q_ref at 0 and 1, no idle fuel burn, no
self-discharge, non-integer efficiency exponents (where the
terminal cost's quadrature does the work), a charging efficiency whose
maximum is exactly 1, and, as invalid inputs, efficiencies just above 1,
negative exponents, and demand levels and limited-mode thresholds whose
squared stage-cost term overflows. Each case must either solve to finite
values (the kernel's row check runs inside solve) or raise
NumericalError / OverflowError / ConfigError, and both CLI `validate`
and `solve` must exit 0, 3, 3 or 1 accordingly with a one-line message.

A hypothesis strategy (valid_configs) draws from the same edges of the
validated domain: eta0 at beta_R or far beyond it, epsilon near 0 or 0.5,
1 to 6 steps on grids up to 6 x 4 x 4. Each example solves to finite
values or fails cleanly, with the same bits in one-step chunks as in the
default ones, and simulates 4 paths at finite cost; a few examples also
run `validate`, `solve` and `simulate` through the CLI. Both one-step
correlations of every example, and of the named configs of the kernel's
bit checks, lie in (-1, 0], the only domain of the kernel's
bivariate-normal scheme.

Two structural properties hold on every example (Puterman 1994, sec.
4.7; Smith & McCardle, Oper. Res. 50(5), 2002): the feasible sets nest
upwards in g, and in q for every action but CHARGE, whose overflow rule
can drop it at a fuller battery; and V_n is non-increasing in g. The
solver builds only the block rows that the mask selects, so a mask that
broke the nesting would show here too. V is not monotone in q: on a
26 x 16 x 16 grid a fuller battery costs more where CHARGE overflows.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import microgrid_dp as m
from microgrid_dp import cli, kernel
from conftest import small_discretization

BETA_R = m.default_config().demand.beta_R
GAPS = (0.0, 1e-12, -1e-12, 1e-9, 2e-9, 1e-8, 1e-7, 1e-5, 1e-3, 1e-1)


def _case(steps=3, n_z=5, n_q=3, n_g=3, **sections) -> m.ModelConfig:
    """table1 on a small grid (default 3 steps, 6x4x4) with some fields replaced,
    given per section: _case(battery={"eta0": 0.0})."""
    cfg = small_discretization(m.default_config(), steps, n_z, n_q, n_g)
    for section, fields in sections.items():
        params = dataclasses.replace(getattr(cfg, section), **fields)
        cfg = dataclasses.replace(cfg, **{section: params})
    return cfg


def _with_epsilon(cfg: m.ModelConfig, epsilon: float) -> m.ModelConfig:
    disc = dataclasses.replace(cfg.discretization, epsilon=epsilon)
    return dataclasses.replace(cfg, discretization=disc)


def _seeded_cases(count: int, seed: int = 20261018) -> dict[str, m.ModelConfig]:
    """Random combinations of the edges below, reproducible from the seed."""
    rng = np.random.default_rng(seed)
    cases = {}
    for idx in range(count):
        cfg = _case(battery={"eta0": BETA_R + float(rng.choice(GAPS))},
                    steps=int(rng.integers(1, 4)), n_z=int(rng.choice((3, 5))),
                    n_q=int(rng.integers(2, 4)), n_g=int(rng.integers(2, 4)))
        cases[f"seeded-{idx}"] = _with_epsilon(cfg, float(rng.uniform(1e-4, 0.4999)))
    return cases


CASES = {
    **{f"eta0=beta_R{gap:+g}": _case(battery={"eta0": BETA_R + gap}) for gap in GAPS},
    "eta0=20 (rho_q about -0.985)": _case(battery={"eta0": 20.0}),
    "beta_R=4e-8": _case(demand={"beta_R": 4e-8}),
    "epsilon=1e-4": _with_epsilon(_case(), 1e-4),
    "epsilon=0.4999": _with_epsilon(_case(), 0.4999),
    "N_Z=3 N_Q=N_G=2": _case(n_z=3, n_q=2, n_g=2),
    "steps_N=1": _case(steps=1),
    **{f"{name}=0": _case(costs={name: 0.0}) for name in (
        "gamma_deg", "gamma_pen_Q", "gamma_liq_G", "k0", "fuel_price_F0", "rho")},
    "gamma_liq_Q=0.5": _case(costs={"gamma_liq_Q": 0.5}),
    "q_ref=0": _case(costs={"q_ref": 0.0}),
    "q_ref=1": _case(costs={"q_ref": 1.0}),
    "c0=0": _case(generator={"c0": 0.0}),
    "eta0=0": _case(battery={"eta0": 0.0}),
    "l_C=1.5": _case(battery={"l_C": 1.5}),
    "m_D=1.01": _case(battery={"m_D": 1.01}),
    "C1_C=1.35 (max eta_C = 1)": _case(battery={"C1_C": 1.35}),
    "C1_C=1.3500001 (invalid)": _case(battery={"C1_C": 1.3500001}),
    "l_C=-1 (invalid)": _case(battery={"l_C": -1.0}),
    "l_D=-1 (invalid)": _case(battery={"l_D": -1.0}),
    **{f"{name}=1e300 (stage cost overflow)": _case(**{section: {name: 1e300}})
       for section, name in (("demand", "mu0_R"), ("demand", "kappa1_R"),
                             ("demand", "kappa2_R"), ("battery", "R_Q0"),
                             ("generator", "R_G0"))},
    "eta0=1e200 (constants overflow)": _case(battery={"eta0": 1e200}),
    "epsilon=0.5 (invalid)": _with_epsilon(_case(), 0.5),
    **_seeded_cases(6),
}

EXIT_CODES = {None: 0, m.NumericalError: 3, OverflowError: 3, m.ConfigError: 1}


def _library_outcome(cfg: m.ModelConfig):
    """None after a finite solve, else the class of the clean failure."""
    try:
        m.validate_config(cfg)
        values, policy = m.solve(cfg, m.build_grid(cfg))
    except (m.NumericalError, OverflowError, m.ConfigError) as exc:
        return type(exc)
    assert np.isfinite(values.values).all()
    assert np.isin(policy.actions, list(m.Action)).all()
    return None


@pytest.mark.parametrize("name", list(CASES))
def test_edge_config_solves_or_fails_cleanly(name, tmp_path, capsys):
    cfg = CASES[name]
    outcome = _library_outcome(cfg)
    ini = tmp_path / "case.ini"
    ini.write_text(m.dump_config(cfg))
    for argv in (["validate", str(ini)], ["solve", str(ini), "--out", str(tmp_path / "out")]):
        code = cli.main(argv)
        out, err = capsys.readouterr()
        assert code == EXIT_CODES[outcome], (argv[0], err)
        if outcome is None:
            assert err == ""
        else:
            assert err.count("\n") == 1 and "Traceback" not in err


def test_only_the_broken_cases_fail():
    """Every valid edge solves, the singular gaps and beta_R * dt = 4e-8 included;
    only the overflowing and the invalid configs fail, each with its own error."""
    failing = {"eta0=1e200 (constants overflow)": m.NumericalError,
               **{f"{name}=1e300 (stage cost overflow)": OverflowError
                  for name in ("mu0_R", "kappa1_R", "kappa2_R", "R_Q0", "R_G0")},
               "epsilon=0.5 (invalid)": m.ConfigError,
               "C1_C=1.3500001 (invalid)": m.ConfigError,
               "l_C=-1 (invalid)": m.ConfigError,
               "l_D=-1 (invalid)": m.ConfigError}
    for name, cfg in CASES.items():
        assert _library_outcome(cfg) is failing.get(name), name
    assert abs(CASES["eta0=20 (rho_q about -0.985)"].constants.rho_q) > 0.925


@pytest.mark.parametrize("n_q", [3, 6, 10, 12, 15])
def test_efficiency_at_its_bound_solves_on_refined_soc_grids(n_q):
    """C1_C = 1.35 puts max eta_C = 1 exactly on q = 1/3, a grid point when 3 | N_Q."""
    assert _library_outcome(_case(steps=24, n_q=n_q, battery={"C1_C": 1.35})) is None


# At 1 h steps, eta0 >= 6 puts the battery correlation rho_q beyond -0.95,
# past the Genz high-|rho| switch at 0.925.
HIGH_RHO_ETA0 = 6.0


@st.composite
def valid_configs(draw) -> m.ModelConfig:
    """table1 at the edges of the validated domain: 1 to 6 one-hour steps on
    grids up to 6 x 4 x 4, eta0 at beta_R plus one of GAPS, within 1e-6 of
    beta_R or large enough for |rho_q| > 0.95, and epsilon near 0 or 0.5."""
    eta0 = draw(st.one_of(st.sampled_from(GAPS).map(lambda gap: BETA_R + gap),
                          st.floats(-1e-6, 1e-6).map(lambda gap: BETA_R + gap),
                          st.floats(HIGH_RHO_ETA0, 1e3)))
    epsilon = draw(st.one_of(st.floats(1e-9, 1e-3), st.floats(0.499, 0.5, exclude_max=True)))
    cfg = _case(steps=draw(st.integers(1, 6)), n_z=draw(st.sampled_from((3, 5))),
                n_q=draw(st.integers(2, 3)), n_g=draw(st.integers(2, 3)),
                battery={"eta0": eta0})
    return _with_epsilon(cfg, epsilon)


@settings(max_examples=100, deadline=None)
@given(cfg=valid_configs(), scenario=st.sampled_from(list(m.SCENARIOS.values())))
def test_valid_configs_solve_alike_in_any_chunk_and_simulate(cfg, scenario):
    """A valid config solves to finite values or fails cleanly; a solve in
    one-step chunks has the bits of the default chunks; 4 paths cost finite sums."""
    if cfg.battery.eta0 >= HIGH_RHO_ETA0:
        assert abs(cfg.constants.rho_q) > 0.95
    grid = m.build_grid(cfg)
    try:
        m.validate_config(cfg)
        values, policy = m.solve(cfg, grid)
    except (m.NumericalError, m.ConfigError):
        return
    assert np.isfinite(values.values).all()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernel, "_CHUNK_BYTES", 1)
        one_values, one_policy = m.solve(cfg, grid)
    assert np.array_equal(values.values, one_values.values)
    assert np.array_equal(policy.actions, one_policy.actions)
    batch = m.simulate_paths(policy, scenario, cfg, grid, range(4))
    assert np.isfinite(batch.stage_cost_eur).all() and np.isfinite(batch.cum_cost_eur).all()


@settings(max_examples=200, deadline=None)
@given(cfg=valid_configs())
def test_valid_configs_have_correlations_in_the_kernels_domain(cfg):
    """Both one-step correlations lie in (-1, 0], the only domain of the
    kernel's bivariate-normal scheme: higher residual demand drains the
    battery and burns fuel."""
    assert -1.0 < cfg.constants.rho_q <= 0.0
    assert -1.0 < cfg.constants.rho_g <= 0.0


@pytest.mark.parametrize("cfg", [
    m.default_config(),
    _case(battery={"eta0": 20.0}),
    _case(demand={"sigma_R": 1e-9}),
    _case(demand={"mu0_R": 0.2}),
    small_discretization(m.default_config()),
    _case(steps=1),
    _case(demand={"beta_R": 4e-8}),
    _case(demand={"beta_R": 50.0}, battery={"eta0": 0.0}),
    small_discretization(m.default_config(), steps=24, n_z=35, n_q=20, n_g=20),
], ids=["table1", "eta0=20", "sigma_R=1e-9", "mu0_R=0.2", "small", "steps_N=1", "beta_R=4e-8",
        "beta_R=50 eta0=0", "36x21x21"])
def test_named_configs_have_correlations_in_the_kernels_domain(cfg):
    assert -1.0 < cfg.constants.rho_q <= 0.0
    assert -1.0 < cfg.constants.rho_g <= 0.0


@settings(max_examples=8, deadline=None)
@given(cfg=valid_configs())
def test_valid_configs_through_the_cli(cfg):
    """validate, solve and simulate exit 0 or the documented code of the
    library's outcome, each failure with one stderr line. simulate finds no
    policy (exit 2) after a failed solve."""
    outcome = _library_outcome(cfg)
    with tempfile.TemporaryDirectory() as tmp:
        ini, policy = os.path.join(tmp, "case.ini"), os.path.join(tmp, "policy")
        with open(ini, "w", encoding="utf-8") as fh:
            fh.write(m.dump_config(cfg))
        simulate = ["simulate", ini, "--policy", policy, "--scenario", "neutral",
                    "--seeds", "2", "--out", os.path.join(tmp, "paths")]
        for argv, codes in (
                (["validate", ini], {0, EXIT_CODES[outcome]}),
                (["solve", ini, "--out", policy], {EXIT_CODES[outcome]}),
                (simulate, {0} if outcome is None else {1} if outcome is m.ConfigError else {2})):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            assert code in codes, (argv[0], err.getvalue())
            if code == 0:
                assert err.getvalue() == ""
            else:
                assert err.getvalue().count("\n") == 1 and "Traceback" not in err.getvalue()


@settings(max_examples=100, deadline=None)
@given(cfg=valid_configs())
def test_feasible_sets_nest_upwards_in_fuel_and_battery_level(cfg):
    """At every step and state, a higher g never loses a feasible action,
    and a higher q loses none but CHARGE."""
    grid = m.build_grid(cfg)
    mask = m.feasibility_mask(np.arange(cfg.discretization.steps_N + 1), grid, cfg)
    assert not (mask[..., :-1] & ~mask[..., 1:]).any()
    lost_with_q = (mask[..., :-1, :] & ~mask[..., 1:, :]).any(axis=(0, 2, 3, 4))
    assert not lost_with_q[[a for a in m.Action if a is not m.Action.CHARGE]].any()


@settings(max_examples=100, deadline=None)
@given(cfg=valid_configs())
def test_values_do_not_rise_with_the_fuel_level(cfg):
    """V_n(z, q, g) is non-increasing in g at every step, to 1e-12 relative."""
    grid = m.build_grid(cfg)
    try:
        m.validate_config(cfg)
        values, _ = m.solve(cfg, grid)
    except (m.NumericalError, m.ConfigError):
        return
    v = values.values.reshape((cfg.discretization.steps_N + 1,) + grid.shape)
    low_g, high_g = v[..., :-1], v[..., 1:]
    assert (high_g - low_g <= 1e-12 * np.maximum(np.abs(low_g), np.abs(high_g))).all()


def test_a_fuller_battery_costs_more_where_charge_overflows():
    """26 x 16 x 16 over 24 steps, step 12, z = -1.79 (surplus): at every g,
    V rises by 0.0128 EUR from q = 0.867 to 0.933, because the lower cell
    charges and the higher one may not (P(Q' > 1) >= epsilon) and overspills."""
    cfg = _case(steps=24, n_z=25, n_q=15, n_g=15)
    grid = m.build_grid(cfg)
    values, policy = m.solve(cfg, grid)
    n, i, low, high = 12, 2, 13, 14
    assert grid.z.points[i] == pytest.approx(-1.79, abs=5e-3)
    assert grid.q.points[[low, high]] == pytest.approx([0.867, 0.933], abs=5e-4)
    v = values.values.reshape((25,) + grid.shape)[n, i]
    np.testing.assert_allclose(v[high] - v[low], 0.0128, rtol=0.0, atol=1e-4)
    actions = policy.actions.reshape((24,) + grid.shape)[n, i]
    assert (actions[low] == m.Action.CHARGE).all() and (actions[high] == m.Action.OVERSPILL).all()
    for g in grid.g.points:
        feasible = m.feasible_actions(n, m.State(grid.z.points[i], grid.q.points[high], g), cfg)
        assert feasible.excluded[m.Action.CHARGE].startswith("P(next level > 1)")
