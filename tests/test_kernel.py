"""Transition kernel: rectangle masses, blocks, scalar rows, and route agreement."""

import math

import numpy as np
import pytest
from scipy.special import ndtr

import microgrid_dp as m
from conftest import small_discretization
from microgrid_dp.grid import clamp01, cell_of
from microgrid_dp.kernel import _bvn_cdf, _cdf_lattice, _lattice_masses, _normalize_rows
from oracles import (_z_cell_masses_scalar, bvn_cdf_owens_t, bvn_rect_prob,
                     full_lattice_rect_masses, generator_block_per_source, mc_bvn_rect,
                     transition_row)

STD2 = ((1.0, 0.0), (0.0, 1.0))


def _corr2(rho):
    return ((1.0, rho), (rho, 1.0))


def test_bvn_orthant_closed_form():
    # P(X <= 0, Y <= 0) = 1/4 + asin(rho) / (2 pi) for standard bivariates
    for rho in (-0.9, -0.3, 0.0, 0.6, 0.95):
        want = 0.25 + math.asin(rho) / (2.0 * math.pi)
        rect = ((-np.inf, 0.0), (-np.inf, 0.0))
        assert bvn_rect_prob((0.0, 0.0), _corr2(rho), rect) == pytest.approx(want, abs=1e-9)


def test_bvn_rect_against_monte_carlo():
    rect = ((-0.5, 1.2), (-1.0, 0.4))
    p = bvn_rect_prob((0.1, -0.2), ((1.3, 0.6 * math.sqrt(1.3 * 0.8)),
                                    (0.6 * math.sqrt(1.3 * 0.8), 0.8)), rect)
    # standardized rect for the MC reference
    lo1, hi1 = (-0.5 - 0.1) / math.sqrt(1.3), (1.2 - 0.1) / math.sqrt(1.3)
    lo2, hi2 = (-1.0 + 0.2) / math.sqrt(0.8), (0.4 + 0.2) / math.sqrt(0.8)
    est, se = mc_bvn_rect(0.6, ((lo1, hi1), (lo2, hi2)), n_samples=10**6)
    assert abs(p - est) <= 3.0 * se


def test_bvn_independent_factorizes():
    xs = np.array([-2.0, -0.3, 0.0, 0.7, 1.9])
    ys = np.array([-1.1, 0.0, 0.4, 2.2, -0.6])
    got = _bvn_cdf(xs, ys, 0.0)
    np.testing.assert_allclose(got, ndtr(xs) * ndtr(ys), atol=1e-14)


@pytest.mark.parametrize("rho", [-0.99, -0.95, -0.8434, -0.5, 0.2, 0.925, 0.99])
def test_vectorized_cdf_matches_quadrature(rho):
    pts = np.array([-3.0, -1.2, -0.4, 0.0, 0.6, 1.5, 2.8])
    for x in pts:
        for y in pts:
            rect = ((-np.inf, float(x)), (-np.inf, float(y)))
            ref = bvn_rect_prob((0.0, 0.0), _corr2(rho), rect)
            got = float(_bvn_cdf(np.array(x), np.array(y), rho))
            assert got == pytest.approx(ref, abs=2e-9)


@pytest.mark.parametrize("rho", [0.0, 0.05, -0.05, -0.3, 0.5, -0.74,
                                 m.default_config().constants.rho_q,
                                 0.93, -0.95, 0.99, -0.999])
def test_bvn_cdf_matches_owens_t_closed_form(rho):
    """The one 20-point rule is exact to rounding at every |rho|: the bands
    Genz serves with 6 and 12 points, table1's rho_q, and both branches
    (|rho| < / >= 0.925), against Owen's T, an independent closed form."""
    xs, ys = np.random.default_rng(2024).uniform(-5.0, 5.0, size=(2, 2000))
    got = _bvn_cdf(xs, ys, rho)
    assert np.abs(got - bvn_cdf_owens_t(xs, ys, rho)).max() <= 1e-15


def test_bvn_rect_rejects_bad_covariance():
    rect = ((-1.0, 1.0), (-1.0, 1.0))
    with pytest.raises(ValueError):
        bvn_rect_prob((0.0, 0.0), ((1.0, 0.5), (0.2, 1.0)), rect)
    with pytest.raises(ValueError):
        bvn_rect_prob((0.0, 0.0), ((1.0, 0.0), (0.0, -0.5)), rect)
    with pytest.raises(ValueError):
        bvn_rect_prob((0.0, 0.0), ((1.0, 1.0), (1.0, 1.0)), rect)


def test_empty_rectangle_has_zero_mass():
    assert bvn_rect_prob((0.0, 0.0), STD2, ((1.0, -1.0), (0.0, 2.0))) == 0.0


def test_blocks_normalize_on_full_grid(cfg_table1, grid_table1):
    kern = m.TransitionKernel(cfg_table1, grid_table1)
    z_sums = kern.z_block.sum(axis=-1)
    np.testing.assert_allclose(z_sums, 1.0, atol=1e-12)
    for n in (0, 83, 167):
        b = kern.battery_block(n).sum(axis=(-2, -1))
        g = kern.generator_block(n).sum(axis=(-2, -1))
        np.testing.assert_allclose(b, 1.0, atol=1e-12)
        np.testing.assert_allclose(g, 1.0, atol=1e-12)


def test_block_rhos_match_moment_route(cfg_table1, grid_table1):
    kern = m.TransitionKernel(cfg_table1, grid_table1)
    x = m.State(1.0, 0.8, 0.9)
    bat = m.transition_moments(0, x, m.Action.CHARGE, cfg_table1)
    gen = m.transition_moments(0, x, m.Action.FUEL_FULL, cfg_table1)
    assert cfg_table1.constants.rho_q == pytest.approx(bat.rho_Q, abs=1e-14)
    assert cfg_table1.constants.rho_g == pytest.approx(gen.rho_G, abs=1e-14)


def test_scalar_rows_normalize_small_grid(cfg_small, grid_small):
    for n in (0, 2, 3):
        for source in range(grid_small.n_states):
            for a in m.Action:
                row = transition_row(n, source, a, grid_small, cfg_small)
                assert row.probs.sum() == pytest.approx(1.0, abs=1e-9)
                assert (row.probs > 0.0).all()
                assert len(np.unique(row.targets)) == len(row.targets)


def test_quad_and_gauss_legendre_routes_agree(cfg_table1, grid_table1):
    kern = m.TransitionKernel(cfg_table1, grid_table1)
    n = 7
    bat_block = kern.battery_block(n)
    gen_block = kern.generator_block(n)
    z_block = kern.z_block
    cases = [
        (m.Action.CHARGE, grid_table1.lin(2, 8, 4)),
        (m.Action.DISCHARGE_FULL, grid_table1.lin(14, 3, 9)),
        (m.Action.FUEL_FULL, grid_table1.lin(16, 5, 6)),
        (m.Action.WAIT, grid_table1.lin(9, 4, 2)),
        (m.Action.DISCHARGE_LIMITED, grid_table1.lin(15, 9, 0)),
        (m.Action.FUEL_LIMITED, grid_table1.lin(13, 0, 7)),
        (m.Action.OVERSPILL, grid_table1.lin(1, 6, 3)),
    ]
    for a, source in cases:
        i, j, k = grid_table1.ijk(source)
        dense = transition_row(n, source, a, grid_table1, cfg_table1).as_dense(
            grid_table1.n_states).reshape(grid_table1.shape)
        if a in (m.Action.CHARGE, m.Action.DISCHARGE_FULL):
            block = np.zeros(grid_table1.shape)
            block[:, :, k] = bat_block[i, j]
        elif a is m.Action.FUEL_FULL:
            jt = int(np.argmax(dense.sum(axis=(0, 2))))
            block = np.zeros(grid_table1.shape)
            block[:, jt, :] = gen_block[i, k]
        else:
            jt = int(np.argmax(dense.sum(axis=(0, 2))))
            kt = int(np.argmax(dense.sum(axis=(0, 1))))
            block = np.zeros(grid_table1.shape)
            block[:, jt, kt] = z_block[i]
        assert np.abs(dense - block).max() <= 1e-9


def test_z_marginal_shared_across_actions(cfg_table1, grid_table1):
    kern = m.TransitionKernel(cfg_table1, grid_table1)
    z_block = kern.z_block
    bat = kern.battery_block(42)
    gen = kern.generator_block(42)
    np.testing.assert_allclose(bat.sum(axis=-1), np.broadcast_to(
        z_block[:, None, :], bat.sum(axis=-1).shape), atol=1e-7)
    np.testing.assert_allclose(gen.sum(axis=-1), np.broadcast_to(
        z_block[:, None, :], gen.sum(axis=-1).shape), atol=1e-7)


def test_dirac_axes_are_single_cells(cfg_table1, grid_table1):
    source = grid_table1.lin(12, 7, 5)
    for a in (m.Action.WAIT, m.Action.OVERSPILL, m.Action.DISCHARGE_LIMITED,
              m.Action.FUEL_LIMITED):
        row = transition_row(0, source, a, grid_table1, cfg_table1)
        dense = row.as_dense(grid_table1.n_states).reshape(grid_table1.shape)
        assert (dense.sum(axis=(0, 2)) > 0).sum() == 1
        assert (dense.sum(axis=(0, 1)) > 0).sum() == 1


def test_limited_targets_match_moments(cfg_table1, grid_table1):
    kern = m.TransitionKernel(cfg_table1, grid_table1)
    q_idle = kern.q_idle
    q_lim = kern.q_limited
    g_lim = kern.g_limited
    for j, q in enumerate(grid_table1.q.points):
        for k, g in enumerate(grid_table1.g.points):
            x = m.State(1.6, float(q), float(g))
            idle = m.transition_moments(0, x, m.Action.WAIT, cfg_table1)
            lim = m.transition_moments(0, x, m.Action.DISCHARGE_LIMITED, cfg_table1)
            fuel = m.transition_moments(0, x, m.Action.FUEL_LIMITED, cfg_table1)
            from microgrid_dp.grid import cell_of
            assert q_idle[j] == cell_of(min(1.0, max(0.0, idle.m_Q)), grid_table1.q)
            assert q_lim[j] == cell_of(min(1.0, max(0.0, lim.m_Q)), grid_table1.q)
            assert g_lim[k] == cell_of(min(1.0, max(0.0, fuel.m_G)), grid_table1.g)


@pytest.mark.parametrize("n_z, n_q, n_g", [(5, 3, 3), (7, 9, 5), (1, 1, 1)])
def test_target_maps_match_per_point_moments(cfg_table1, n_z, n_q, n_g):
    cfg = small_discretization(cfg_table1, n_z=n_z, n_q=n_q, n_g=n_g)
    grid = m.build_grid(cfg)
    kern = m.TransitionKernel(cfg, grid)
    for targets, moments, axis, a in (
            (kern.q_idle, m.q_moments, grid.q, m.Action.WAIT),
            (kern.q_limited, m.q_moments, grid.q, m.Action.DISCHARGE_LIMITED),
            (kern.g_limited, m.g_moments, grid.g, m.Action.FUEL_LIMITED)):
        expected = [cell_of(clamp01(moments(0, 0.7, float(v), a, cfg)[0]), axis)
                    for v in axis.points]
        assert targets.tolist() == expected


def test_chain_matches_sampled_operator(cfg_table1, grid_table1):
    from oracles import operator_cell_counts
    n, a = 30, m.Action.CHARGE
    source = grid_table1.lin(3, 5, 8)
    draws = 4000
    counts = operator_cell_counts(n, grid_table1.state_of(source), a, cfg_table1,
                                  grid_table1, draws, seed=99)
    dense = transition_row(n, source, a, grid_table1, cfg_table1).as_dense(
        grid_table1.n_states)
    expect = dense * draws
    tol = 3.0 * np.sqrt(np.maximum(expect * (1.0 - dense), 0.0)) + 3.0
    assert (np.abs(counts - expect) <= tol).all()


def test_normalize_rows_raises_on_mass_leak():
    bad = np.full((2, 4), 0.225)  # rows sum to 0.9
    with pytest.raises(m.NumericalError):
        _normalize_rows(bad, (-1,), "test rows")


def test_scalar_z_masses_match_block(cfg_table1, grid_table1):
    kern = m.TransitionKernel(cfg_table1, grid_table1)
    block = kern.z_block
    p = cfg_table1.demand
    for i, z in enumerate(grid_table1.z.points):
        mom = m.z_moments(0, float(z), cfg_table1)
        mass = _z_cell_masses_scalar(mom[0], math.sqrt(mom[1]), grid_table1)
        np.testing.assert_allclose(mass / mass.sum(), block[i], atol=1e-12)


@pytest.mark.parametrize("rho", [0.0, 0.3, -0.84, 0.95, -0.999])
def test_rect_masses_tail_closed_forms_match_full_lattice(rho):
    # Both Genz branches (|rho| < / >= 0.925), rho = 0 included;
    # the q-like axis has a small sd so that far edges hit the +-37 clip.
    rng = np.random.default_rng(11)
    z_edges = np.linspace(-2.0, 2.0, 9)
    q_edges = np.linspace(0.05, 0.95, 10)
    std_a = np.clip(z_edges - rng.uniform(-3.0, 3.0, size=(6, 1, 1)), -37.0, 37.0)
    means = rng.uniform(-0.2, 1.2, size=(6, 4, 1))
    sds = np.array([0.02, 0.3, 1.0, 4.0])[None, :, None]
    std_b = np.clip((q_edges - means) / sds, -37.0, 37.0)
    got = _lattice_masses(_cdf_lattice(std_a, std_b, rho))
    ref = full_lattice_rect_masses(std_a, std_b, rho)
    assert got.shape == ref.shape == (6, 4, 10, 11)
    assert np.abs(got - ref).max() <= 1e-15


def test_generator_block_matches_per_source_lattices(cfg_table1, grid_table1):
    kern = m.TransitionKernel(cfg_table1, grid_table1)
    steps = cfg_table1.discretization.steps_N
    worst = 0.0
    for n in sorted({0, steps - 1, *range(0, steps, 7)}):
        ref = generator_block_per_source(n, grid_table1, cfg_table1)
        worst = max(worst, float(np.abs(kern.generator_block(n) - ref).max()))
    print(f"generator block vs per-source lattices: max |diff| {worst:.2e}")
    assert worst <= 1e-14
