"""Shared fixtures: the full-scale problem is solved once per session."""

from __future__ import annotations

import dataclasses
import time

import numpy as np
import pytest

import microgrid_dp as m


def small_discretization(cfg: m.ModelConfig, steps: int = 4, n_z: int = 5,
                         n_q: int = 3, n_g: int = 3) -> m.ModelConfig:
    """A reduced instance (default 4 steps on a 6x4x4 grid) with 1 h steps."""
    disc = dataclasses.replace(cfg.discretization, horizon_T=float(steps),
                               steps_N=steps, N_Z=n_z, N_Q=n_q, N_G=n_g)
    return dataclasses.replace(cfg, discretization=disc)


def every_row(kern: m.TransitionKernel, n: int) -> tuple:
    """Step n's battery and generator rows of kern.blocks with every row selected."""
    battery, generator = kern.blocks(np.array([n]),
                                     np.ones((1, len(m.Action)) + kern.grid.shape, bool))
    return battery[0], generator[0]


@pytest.fixture(scope="session")
def cfg_table1() -> m.ModelConfig:
    return m.default_config()


@pytest.fixture(scope="session")
def grid_table1(cfg_table1) -> m.StateGrid:
    return m.build_grid(cfg_table1)


@pytest.fixture(scope="session")
def table1_solution(cfg_table1, grid_table1):
    """(values, policy, wall seconds) for the full default problem."""
    start = time.perf_counter()
    values, policy = m.solve(cfg_table1, grid_table1)
    elapsed = time.perf_counter() - start
    return values, policy, elapsed


@pytest.fixture(scope="session")
def cfg_small(cfg_table1) -> m.ModelConfig:
    return small_discretization(cfg_table1)


@pytest.fixture(scope="session")
def grid_small(cfg_small) -> m.StateGrid:
    return m.build_grid(cfg_small)


@pytest.fixture(scope="session")
def small_solution(cfg_small, grid_small):
    """(values, policy, wall seconds) for the small instance."""
    start = time.perf_counter()
    values, policy = m.solve(cfg_small, grid_small)
    elapsed = time.perf_counter() - start
    return values, policy, elapsed
