"""Transition kernel: rectangle masses, blocks, scalar rows, and route agreement."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import ndtr

import microgrid_dp as m
from conftest import every_row, small_discretization
from microgrid_dp import dynamics, kernel
from microgrid_dp.dynamics import ndtr as pkg_ndtr
from microgrid_dp.grid import clamp01, cell_of
from microgrid_dp.kernel import _bvn_cdf, _cdf_lattice, _lattice_masses, _normalize_rows
from oracles import (_z_cell_masses_scalar, bvn_cdf_owens_t, bvn_rect_prob, dense_battery_block,
                     dense_cdf_lattice, dense_generator_block, full_lattice_rect_masses,
                     generator_block_per_source, mc_bvn_rect, state_of, transition_row)

STD2 = ((1.0, 0.0), (0.0, 1.0))


def _corr2(rho):
    return ((1.0, rho), (rho, 1.0))


def _genz(x, y, rho):
    """_bvn_cdf at the broadcast points of x and y, in their shape, with the
    package's marginals: the kernel calls it on 1-D point batches."""
    x, y = np.broadcast_arrays(x, y)
    points = x.ravel(), y.ravel()
    return _bvn_cdf(*points, rho, *map(pkg_ndtr, points)).reshape(x.shape)


def _lattice(std_a, std_b, rho):
    """_cdf_lattice with the package's CDFs of the edges, as the kernel calls
    it, over edges (..., NA) and (..., NB) whose leading axes broadcast: the
    kernel passes (row, edge) arrays, so the leading axes become the rows."""
    lead = np.broadcast_shapes(std_a.shape[:-1], std_b.shape[:-1])
    a, b = (np.broadcast_to(v, lead + v.shape[-1:]).reshape(-1, v.shape[-1])
            for v in (std_a, std_b))
    cdf = _cdf_lattice(a, b, rho, pkg_ndtr(a), pkg_ndtr(b))
    return cdf.reshape(lead + cdf.shape[1:])


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
    got = _genz(xs, ys, 0.0)
    np.testing.assert_allclose(got, ndtr(xs) * ndtr(ys), atol=1e-14)


@pytest.mark.parametrize("rho", [-0.99, -0.95, -0.8434, -0.5, -0.2, -0.925])
def test_vectorized_cdf_matches_quadrature(rho):
    pts = np.array([-3.0, -1.2, -0.4, 0.0, 0.6, 1.5, 2.8])
    for x in pts:
        for y in pts:
            rect = ((-np.inf, float(x)), (-np.inf, float(y)))
            ref = bvn_rect_prob((0.0, 0.0), _corr2(rho), rect)
            got = float(_genz(np.array(x), np.array(y), rho))
            assert got == pytest.approx(ref, abs=2e-9)


# table1's rho_q under a name that does not change with its last bits
TABLE1_RHO_Q = pytest.param(m.default_config().constants.rho_q, id="table1-rho_q")


@pytest.mark.parametrize("rho", [0.0, -0.05, -0.3, -0.5, -0.74, TABLE1_RHO_Q,
                                 -0.93, -0.95, -0.99, -0.999])
def test_bvn_cdf_matches_owens_t_closed_form(rho):
    """The one 20-point rule is exact to rounding at every rho in (-1, 0]:
    the bands Genz serves with 6 and 12 points, table1's rho_q, and both
    branches (rho > / <= -0.925), against Owen's T, an independent closed form."""
    xs, ys = np.random.default_rng(2024).uniform(-5.0, 5.0, size=(2, 2000))
    got = _genz(xs, ys, rho)
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
        i, j, k = np.unravel_index(source, grid_table1.shape)
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
    counts = operator_cell_counts(n, state_of(grid_table1, source), a, cfg_table1,
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
        mom = m.transition_moments(0, m.State(float(z), 0.5, 0.5), m.Action.WAIT, cfg_table1)
        mass = _z_cell_masses_scalar(mom.m_Z, math.sqrt(mom.var_Z), grid_table1)
        np.testing.assert_allclose(mass / mass.sum(), block[i], atol=1e-12)


@pytest.mark.parametrize("rho", [0.0, -0.3, -0.84, -0.95, -0.999])
def test_rect_masses_tail_closed_forms_match_full_lattice(rho):
    # Both Genz branches (rho > / <= -0.925), rho = 0 included;
    # the q-like axis has a small sd so that far edges hit the +-37 clip.
    rng = np.random.default_rng(11)
    z_edges = np.linspace(-2.0, 2.0, 9)
    q_edges = np.linspace(0.05, 0.95, 10)
    std_a = np.clip(z_edges - rng.uniform(-3.0, 3.0, size=(6, 1, 1)), -37.0, 37.0)
    means = rng.uniform(-0.2, 1.2, size=(6, 4, 1))
    sds = np.array([0.02, 0.3, 1.0, 4.0])[None, :, None]
    std_b = np.clip((q_edges - means) / sds, -37.0, 37.0)
    got = _lattice_masses(_lattice(std_a, std_b, rho))
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


_EPS9 = 9.0 - 1e-9
_BAND_EDGES_A = np.array([
    [-37.0, -9.0, -_EPS9, 0.0, _EPS9, 9.0, 37.0],
    [-37.0, -30.0, -20.0, -15.0, -12.0, -10.0, -9.0],
    [9.0, 9.0 + 1e-9, 10.0, 12.0, 20.0, 30.0, 37.0],
    [-9.0, -3.0, -1.0, 0.0, 1.0, 3.0, 9.0],
])
_BAND_EDGES_B = np.array([
    [-37.0, -9.0, -_EPS9, _EPS9, 9.0, 37.0],
    [9.0, 10.0, 15.0, 20.0, 30.0, 37.0],
    [-37.0, -25.0, -15.0, -11.0, -10.0, -9.0],
    [-9.0, -2.0, 0.3, 2.0, _EPS9, 9.0],
])


def _joint_band_edges(rho):
    """Edges of six sources whose correlated coordinate u = a + b lies at
    -9 s and 9 s and 1e-9 either side, s = sqrt(2 (1 + rho)), with both
    edges inside |std| < 9."""
    reach = 9.0 * math.sqrt(2.0 * (1.0 + rho))
    std_a, std_b = [], []
    for u in (-reach, reach):
        for shift in (-0.5, 0.0, 0.5):
            a, b = u / 2.0 + shift, u / 2.0 - shift
            std_a.append(a + np.array([-0.3, -1e-9, 0.0, 1e-9, 0.3]))
            std_b.append(b + np.array([-1.0, 0.0, 1.0]))
    return np.array(std_a), np.array(std_b)


@pytest.mark.parametrize("rho", [0.0, -0.3, -0.84, -0.95, -0.985, -0.999])
def test_banded_lattice_matches_full_lattice_at_band_edges(rho):
    """Edges exactly at +-9, just inside it, at the +-37 clip, and every
    pairing of the all-low / all-high / straddling edge rows (a <= -9 with
    b >= 9 included), in both Genz branches, and edges at and 1e-9 either
    side of the joint band's |u| = 9 s, rho = 0 included: the closed forms
    outside both bands match the CDF evaluated on every edge."""
    std_a = _BAND_EDGES_A[:, None, :]
    std_b = np.broadcast_to(_BAND_EDGES_B, (4, 4, 6))
    got = _lattice_masses(_lattice(std_a, std_b, rho))
    ref = full_lattice_rect_masses(std_a, std_b, rho)
    assert got.shape == ref.shape == (4, 4, 8, 7)
    assert np.abs(got - ref).max() <= 1e-15
    std_a, std_b = _joint_band_edges(rho)
    got = _lattice_masses(_lattice(std_a, std_b, rho))
    ref = full_lattice_rect_masses(std_a, std_b, rho)
    assert got.shape == ref.shape == (6, 6, 4)
    assert np.abs(got - ref).max() <= 1e-15


@pytest.mark.parametrize("rho", [0.0, -0.84, -0.95, -0.985])
def test_lattice_without_band_points_takes_the_closed_forms(rho):
    """No lattice point has both edges inside |std| < 9: every point is 0,
    the univariate CDF of one edge, or 1, exactly, and Genz's scheme runs
    on an empty batch without a warning."""
    std_a = np.array([-30.0, -9.0, 2.0, 9.0, 12.0])
    std_b = np.array([-12.0, 9.0, 40.0])
    cdf_a, cdf_b = pkg_ndtr(std_a), pkg_ndtr(std_b)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _cdf_lattice(std_a[None], std_b[None], rho, cdf_a[None], cdf_b[None])[0]
    want = np.zeros((7, 5))
    want[1:-1, 2:4] = cdf_a[:, None]  # b >= 9: P(X <= a)
    want[4:6, 1:-1] = cdf_b           # a >= 9: P(Y <= b), taken first
    want[1:-1, -1], want[-1, 1:-1], want[-1, -1] = cdf_a, cdf_b, 1.0
    assert np.array_equal(got, want)


def test_band_limits_genz_evaluations_on_table1(cfg_table1, grid_table1, monkeypatch):
    """Genz's scheme runs at under a quarter of the battery block's interior
    lattice points and under a tenth of the generator block's, per step of
    a chunk of solve's length built with every row. Over 168 one-step
    blocks built with every row it runs at exactly the lattice points whose
    two edges lie in the band and whose correlated coordinate lies in the
    joint band: 645,646 battery and 22,985 generator points
    (1,204,621 and 39,508 with the marginal band alone). A solve, whose
    chunks build only the rows that its masks select, runs it at 592,782
    points. A column slab that sent its out-of-band a edges to the scheme
    would count more."""
    seen = []

    def counting(x, y, rho, cdf_x, cdf_y):
        seen.append(np.broadcast(x, y).size)
        return _bvn_cdf(x, y, rho, cdf_x, cdf_y)

    monkeypatch.setattr(kernel, "_bvn_cdf", counting)
    kern = m.TransitionKernel(cfg_table1, grid_table1)
    n_z, n_q, n_g = grid_table1.shape
    chunk = np.arange(kern.chunk_steps)
    assert chunk.size == 4
    kern._battery_chunk(chunk, np.ones((chunk.size, n_z, n_q), bool))
    assert 0 < sum(seen) <= chunk.size * 0.25 * n_z * n_q * (n_z - 1) * (n_q - 1)
    seen.clear()
    kern._generator_chunk(chunk, np.ones((chunk.size, n_z), bool))
    assert 0 < sum(seen) <= chunk.size * 0.10 * n_z * (n_z - 1) * 2 * (n_g - 1)
    steps = range(cfg_table1.discretization.steps_N)
    fresh = m.TransitionKernel(cfg_table1, grid_table1)
    for block, total in ((fresh.battery_block, 645_646), (fresh.generator_block, 22_985)):
        seen.clear()
        for n in steps:
            block(n)
        assert sum(seen) == total, block.__name__
        assert max(seen) <= kernel._GENZ_BATCH
    seen.clear()
    m.solve(cfg_table1, grid_table1)
    assert sum(seen) == 592_782


_DENSE_RHOS = [0.0, -0.3, -0.84, -0.95, -0.985]


def _assert_lattice_is_dense(std_a, std_b, rho):
    """The column-slab lattice equals the dense band-mask oracle, bit for bit."""
    got = _lattice(std_a, std_b, rho)
    want = dense_cdf_lattice(std_a, std_b, rho, pkg_ndtr(std_a), pkg_ndtr(std_b))
    assert got.shape == want.shape
    assert np.array_equal(got, want)


def _random_lattice_edges():
    # the shapes and edges of test_rect_masses_tail_closed_forms_match_full_lattice
    rng = np.random.default_rng(11)
    std_a = np.clip(np.linspace(-2.0, 2.0, 9) - rng.uniform(-3.0, 3.0, size=(6, 1, 1)),
                    -37.0, 37.0)
    means = rng.uniform(-0.2, 1.2, size=(6, 4, 1))
    sds = np.array([0.02, 0.3, 1.0, 4.0])[None, :, None]
    return std_a, np.clip((np.linspace(0.05, 0.95, 10) - means) / sds, -37.0, 37.0)


_DENSE_CASES = {
    "band-edges": lambda: (_BAND_EDGES_A[:, None, :], np.broadcast_to(_BAND_EDGES_B, (4, 4, 6))),
    "band-edges-swapped": lambda: (_BAND_EDGES_B[None, :, :], _BAND_EDGES_A[:, None, :]),
    "random-shapes": _random_lattice_edges,
    "1-d": lambda: (np.linspace(-10.0, 10.0, 7), np.array([-9.0, -3.5, 0.2, 8.9, 9.0, 11.0])),
    "no-band-point": lambda: (np.array([-30.0, -9.0, 2.0, 9.0, 12.0]),
                              np.array([-12.0, 9.0, 40.0])),
    "joint-band-edges": lambda: _joint_band_edges(TABLE1_RHO_Q.values[0]),
}


@pytest.mark.parametrize("case", _DENSE_CASES.values(), ids=_DENSE_CASES.keys())
@pytest.mark.parametrize("rho", _DENSE_RHOS)
def test_lattice_matches_dense_oracle(case, rho):
    """One column per in-band b edge gives the dense lattice's bits: edges
    at and just inside +-9, the random shapes of the tail test, 1-D inputs,
    a broadcast view and a lattice with no band point, in both Genz branches."""
    _assert_lattice_is_dense(*case(), rho)


_EDGE_VALUES = st.one_of(st.sampled_from([-37.0, -9.0 - 1e-9, -9.0, -_EPS9, 0.0, _EPS9, 9.0,
                                          9.0 + 1e-9, 37.0]),
                         st.floats(-40.0, 40.0, allow_subnormal=False))


@st.composite
def _broadcast_edges(draw):
    """Sorted edge arrays (..., NA) and (..., NB) whose leading shapes
    broadcast: each keeps or collapses to 1 every axis of a common shape
    and may drop leading axes, and either may be a stride-0 broadcast view."""
    lead = draw(st.lists(st.integers(1, 3), max_size=2))
    arrays = []
    for _ in range(2):
        dims = tuple(d if draw(st.booleans()) else 1 for d in lead)
        shape = dims[draw(st.integers(0, len(dims))):] + (draw(st.integers(1, 6)),)
        size = math.prod(shape)
        edges = np.sort(np.array(draw(st.lists(_EDGE_VALUES, min_size=size, max_size=size)))
                        .reshape(shape), axis=-1)
        if draw(st.booleans()):
            edges = np.broadcast_to(edges, tuple(lead) + shape[-1:])
        arrays.append(edges)
    return arrays


@settings(max_examples=150, deadline=None)
@given(edges=_broadcast_edges(), rho=st.sampled_from(_DENSE_RHOS))
def test_lattice_matches_dense_oracle_on_drawn_edges(edges, rho):
    _assert_lattice_is_dense(*edges, rho)


def _with(cfg, section, **fields):
    return dataclasses.replace(cfg, **{section: dataclasses.replace(getattr(cfg, section),
                                                                    **fields)})


_TABLE1_STEPS = sorted({0, 83, 167, *range(0, 168, 7)})
_DENSE_BLOCK_CASES = {
    "table1": (lambda cfg: cfg, _TABLE1_STEPS),
    "eta0=20": (lambda cfg: _with(cfg, "battery", eta0=20.0), (0, 83, 167)),
    "sigma_R=1e-9": (lambda cfg: _with(cfg, "demand", sigma_R=1e-9), (0, 83, 167)),
    "36x21x21": (lambda cfg: small_discretization(cfg, steps=168, n_z=35, n_q=20, n_g=20),
                 (0, 83, 167)),
    "8x13x3": (lambda cfg: small_discretization(cfg, steps=168, n_z=7, n_q=12, n_g=2),
               (0, 83, 167)),
    "8x4x14": (lambda cfg: small_discretization(cfg, steps=168, n_z=7, n_q=3, n_g=13),
               (0, 83, 167)),
}


@pytest.mark.parametrize("make, steps", _DENSE_BLOCK_CASES.values(), ids=_DENSE_BLOCK_CASES.keys())
def test_blocks_match_dense_route(cfg_table1, make, steps):
    """Both blocks equal, bit for bit, the dense lattice with the generator's
    gathered windows: table1, the high-|rho| battery (eta0 = 20), a lattice
    with no band point (sigma_R = 1e-9), a refined grid, the smallest g axis
    (N_G = 2) beside a longer q axis, and a g axis longer than the q axis."""
    cfg = make(cfg_table1)
    kern = m.TransitionKernel(cfg, m.build_grid(cfg))
    for n in steps:
        assert np.array_equal(kern.battery_block(n), dense_battery_block(kern, n)), n
        assert np.array_equal(kern.generator_block(n), dense_generator_block(kern, n)), n


def test_table1_solve_sends_few_points_to_erfc(cfg_table1, grid_table1, monkeypatch):
    """Genz's scheme reads the edge CDFs that the lattice already holds, and
    the z edges' CDFs are computed once per kernel, so a table1 solve
    evaluates erfc at no more than 100,000 in-band points (88,207 measured)."""
    seen = []
    erfc = dynamics._ERFC

    def counting(x):
        seen.append(x.size)
        return erfc(x)

    monkeypatch.setattr(dynamics, "_ERFC", counting)
    m.solve(cfg_table1, grid_table1)
    assert 0 < sum(seen) <= 100_000


@pytest.mark.parametrize("rho", [TABLE1_RHO_Q, -0.5, -0.95, -0.985])
def test_bvn_cdf_bits_do_not_depend_on_the_batch(rho):
    """Genz's scheme sums its nodes in one fixed order, so a point gets the
    same bits whether the lattice is evaluated whole, in chunks of any size
    (one point included) or permuted, in both branches (rho > / <= -0.925)."""
    edges = np.linspace(-8.5, 8.5, 23)
    x, y = np.meshgrid(edges, 0.7 * edges[::-1], indexing="ij")
    whole = _genz(x, y, rho).ravel()
    x, y = x.ravel(), y.ravel()
    for size in (1, 2, 7, 100):
        parts = [_genz(x[i:i + size], y[i:i + size], rho) for i in range(0, x.size, size)]
        np.testing.assert_array_equal(np.concatenate(parts), whole)
    perm = np.random.default_rng(5).permutation(x.size)
    permuted = np.empty_like(whole)
    permuted[perm] = _genz(x[perm], y[perm], rho)
    np.testing.assert_array_equal(permuted, whole)


def test_nan_standardized_edge_fails_the_row_mass_check():
    """A NaN edge makes its rows' mass NaN. The row check raises on it
    instead of letting it pass (NaN > tolerance is False)."""
    std_a = np.array([[-1.0, 0.0, 1.0]])
    std_b = np.array([[-0.5, math.nan, 0.5]])
    mass = _lattice_masses(_lattice(std_a, std_b, m.default_config().constants.rho_q))
    with pytest.raises(m.NumericalError, match="row mass deviates from 1 by nan"):
        _normalize_rows(mass, (-2, -1), "battery block n=0")


@pytest.mark.parametrize("shape", [(17, 10, 10), (35, 20, 20)])
def test_expected_next_keeps_a_constant(cfg_table1, shape):
    """Every row is a probability distribution, so E[c | x, a] = c in every (action, state)."""
    n_z, n_q, n_g = shape
    cfg = small_discretization(cfg_table1, steps=168, n_z=n_z, n_q=n_q, n_g=n_g)
    kern = m.TransitionKernel(cfg, m.build_grid(cfg))
    const = 123.456
    for n in (0, 83, 167):
        ev = kern.expected_next(np.full(kern.grid.n_states, const), *every_row(kern, n))
        assert ev.shape == (len(m.Action),) + kern.grid.shape
        np.testing.assert_allclose(ev, const, rtol=1e-14, atol=0.0)


def test_expected_next_matches_the_scalar_rows(cfg_small, grid_small):
    """E[v(X') | x, a] of a random table against the quadrature row of each action."""
    kern = m.TransitionKernel(cfg_small, grid_small)
    v = np.random.default_rng(21).uniform(0.0, 100.0, grid_small.n_states)
    sources = [grid_small.lin(*idx) for idx in ((0, 0, 0), (2, 1, 2), (3, 2, 1), (5, 3, 3))]
    for n in (0, 3):
        ev = kern.expected_next(v, *every_row(kern, n))
        for a in m.Action:
            for source in sources:
                dense = transition_row(n, source, a, grid_small, cfg_small).as_dense(
                    grid_small.n_states)
                got = ev[(a,) + np.unravel_index(source, grid_small.shape)]
                assert got == pytest.approx(dense @ v, rel=0.0, abs=1e-7), (n, a, source)
