"""Stochastic optimal control of a standalone solar microgrid.

A small library and CLI for scheduling a battery and a finite-fuel backup
generator against seasonal, mean-reverting residual demand: exact one-step
Gaussian transition laws, a chance-constrained feasible action structure,
discretization to a finite Markov chain, finite-horizon backward recursion,
and scenario path simulation.
"""

__version__ = "0.1.0"

from .config import (Action, BatteryParams, ConfigError, CostParams,
                     DiscretizationParams, GeneratorParams, ModelConfig,
                     SeasonalOUParams, State, config_hash, default_config,
                     dump_config, load_config, seasonality, validate_config)
from .constraints import FeasibleSet, feasibility_mask, feasible_actions
from .cost import StageCost, expected_stage_cost, running_cost, terminal_cost
from .dynamics import (NoiseVector, TransitionMoments, efficiency, g_moments,
                       q_moments, transition_moments, transition_operator,
                       z_moments)
from .grid import Axis, StateGrid, build_grid, cell_of, neighborhood
from .kernel import NumericalError, TransitionKernel
from .simulate import (SCENARIOS, PathRecord, Scenario, baseline_wait_policy,
                       simulate_path)
from .solver import PolicyTable, ValueTable, solve

__all__ = [
    "Action", "Axis", "BatteryParams", "ConfigError", "CostParams",
    "DiscretizationParams", "FeasibleSet", "GeneratorParams",
    "ModelConfig", "NoiseVector", "NumericalError", "PathRecord", "PolicyTable",
    "SCENARIOS", "Scenario", "SeasonalOUParams", "StageCost", "State",
    "StateGrid", "TransitionKernel", "TransitionMoments", "ValueTable",
    "baseline_wait_policy", "build_grid", "cell_of", "config_hash",
    "default_config", "dump_config", "efficiency",
    "expected_stage_cost", "feasibility_mask", "feasible_actions", "g_moments",
    "load_config", "neighborhood", "q_moments", "running_cost", "seasonality",
    "simulate_path", "solve", "terminal_cost", "transition_moments",
    "transition_operator", "validate_config", "z_moments",
]
