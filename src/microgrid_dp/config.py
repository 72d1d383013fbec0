"""Model parameters, action alphabet, seasonality, and configuration I/O.

All quantities use a single time unit (hours). The default configuration
reproduces the published experiment: a 7-day horizon with hourly steps,
an 18 kWh battery, a 20 l fuel tank, and the seasonal demand pattern
with annual (8760 h) and daily (24 h) cosine components. The Bellman
recursion always discounts the continuation value, so the config files'
[discretization] key `bellman_discount_continuation` reads and writes only true.
"""

from __future__ import annotations

import configparser
import hashlib
import io
import math
from dataclasses import dataclass, field, fields as dc_fields, replace
from enum import IntEnum
from functools import cached_property
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    from .dynamics import StepConstants

__all__ = [
    "Action",
    "BatteryParams",
    "ConfigError",
    "CostParams",
    "DiscretizationParams",
    "GeneratorParams",
    "ModelConfig",
    "SeasonalOUParams",
    "State",
    "config_hash",
    "default_config",
    "dump_config",
    "eta_charge",
    "eta_discharge",
    "load_config",
    "seasonality",
    "validate_config",
]


class ConfigError(ValueError):
    """Aggregated configuration validation failure."""

    def __init__(self, errors: list[str]):
        self.errors = list(errors)
        super().__init__("invalid configuration:\n" + "\n".join(f"  - {e}" for e in errors))


class Action(IntEnum):
    """Control alphabet, in canonical (tie-break) order."""

    OVERSPILL = 0          # u^O: discard surplus production
    CHARGE = 1             # u^C: store surplus in the battery
    WAIT = 2               # u^W: do nothing, pay discomfort on unmet demand
    DISCHARGE_LIMITED = 3  # u^DL: battery serves only the threshold R_Q0
    DISCHARGE_FULL = 4     # u^D: battery serves the full residual demand
    FUEL_LIMITED = 5       # u^FL: generator serves only the threshold R_G0
    FUEL_FULL = 6          # u^F: generator serves the full residual demand

    @property
    def label(self) -> str:
        """The name in lower case, as written in CSVs and read by `moments --action`."""
        return self.name.lower()


ACTION_BY_LABEL = {a.label: a for a in Action}


class State(NamedTuple):
    """Continuous state: deseasonalized demand, state of charge, fuel level."""

    z: float  # [kW]
    q: float  # battery SoC in [0, 1]
    g: float  # fuel tank level in [0, 1]


@dataclass(frozen=True)
class SeasonalOUParams:
    """Ornstein-Uhlenbeck residual demand with deterministic seasonality."""

    beta_R: float = 0.2      # mean-reversion speed [1/h]
    sigma_R: float = 0.45    # volatility [kW/sqrt(h)]
    mu0_R: float = 0.1       # long-term mean [kW]
    kappa1_R: float = 0.1    # annual amplitude [kW]
    kappa2_R: float = 1.0    # daily amplitude [kW]
    t1_R: float = 0.0        # annual phase shift [h]
    t2_R: float = 0.0        # daily phase shift [h]
    delta1: float = 365.0 * 24.0  # annual period [h]
    delta2: float = 24.0          # daily period [h]


@dataclass(frozen=True)
class BatteryParams:
    """Battery capacity, self-discharge, and state-dependent efficiency.

    Efficiency polynomials are eta^dagger(q) = C0 + C1 * q^l * (1-q)^m for
    dagger in {C, D}; the defaults are the published instance
    eta_C(q) = 0.8 + 1.32 q (1-q)^2 and eta_D(q) = 0.8 + 1.32 q^2 (1-q).
    """

    capacity_CQ: float = 18.0   # energy capacity [kWh]
    eta0: float = 2.1044e-4     # self-discharge rate [1/h]
    R_Q0: float = 1.4118        # limited-mode threshold [kW]
    C0_C: float = 0.8
    C1_C: float = 1.32
    l_C: float = 1.0
    m_C: float = 2.0
    C0_D: float = 0.8
    C1_D: float = 1.32
    l_D: float = 2.0
    m_D: float = 1.0


@dataclass(frozen=True)
class GeneratorParams:
    """Diesel generator tank size and fuel-consumption curve."""

    capacity_CG: float = 20.0  # tank volume [l]
    c0: float = 0.5            # idle consumption [l/h]
    c1: float = 0.35           # load-dependent consumption [l/kWh]
    R_G0: float = 1.4118       # limited-mode threshold [kW]


@dataclass(frozen=True)
class CostParams:
    """Running and terminal cost coefficients plus the discount rate."""

    fuel_price_F0: float = 1.5   # [EUR/l]
    gamma_deg: float = 0.05     # battery degradation [EUR/kWh]
    k0: float = 0.575           # discomfort coefficient [EUR/(kWh)^2]
    gamma_pen_Q: float = 0.8    # terminal recharge penalty [EUR/kWh]
    gamma_liq_Q: float = 0.0    # terminal SoC liquidation value [EUR/kWh]
    gamma_liq_G: float = 1.25   # terminal fuel liquidation value [EUR/l]
    q_ref: float = 0.8          # contractual terminal SoC
    rho: float = 0.03           # discount rate [1/h]


@dataclass(frozen=True)
class DiscretizationParams:
    """Time grid, state-grid resolution, and chance-constraint tolerance.

    The published parameter table prints both N_Q = 15 and Delta_Q = 0.1;
    the latter (N_Q = 10, matching the experiment's 18 x 11 x 11 state
    space) is used as the default.
    """

    horizon_T: float = 168.0  # [h]
    steps_N: int = 168
    N_Z: int = 17             # z-axis sub-intervals (odd, so 0 is a cell boundary midpoint)
    N_Q: int = 10
    N_G: int = 10
    epsilon: float = 0.05     # chance-constraint tolerance


@dataclass(frozen=True)
class ModelConfig:
    """Aggregate of all model parameters; defaults reproduce the published run."""

    demand: SeasonalOUParams = field(default_factory=SeasonalOUParams)
    battery: BatteryParams = field(default_factory=BatteryParams)
    generator: GeneratorParams = field(default_factory=GeneratorParams)
    costs: CostParams = field(default_factory=CostParams)
    discretization: DiscretizationParams = field(default_factory=DiscretizationParams)

    @property
    def dt(self) -> float:
        """Step length Delta_N [h]."""
        return self.discretization.horizon_T / self.discretization.steps_N

    def t_of(self, n: int) -> float:
        """Time [h] of step index n."""
        return n * self.dt

    @cached_property
    def constants(self) -> StepConstants:
        """The one-step laws' config-only constants, derived on first use and kept.

        dynamics.step_constants(self), computed once per config object; a
        dataclasses.replace copy derives its own.
        """
        from .dynamics import step_constants  # here, not at the top: dynamics imports config
        return step_constants(self)


# The config file's sections, one per ModelConfig field in its order, each with the class of
# its parameters: load_config, dump_config and config_hash cover exactly these.
_SECTIONS = {f.name: f.default_factory for f in dc_fields(ModelConfig)}


def default_config() -> ModelConfig:
    """The published parameter set."""
    return ModelConfig()


def seasonality(t: float, p: SeasonalOUParams) -> float:
    """Deterministic seasonal mean mu_R(t) [kW] at time t [h]."""
    return (
        p.mu0_R
        + p.kappa1_R * math.cos(2.0 * math.pi * (t - p.t1_R) / p.delta1)
        + p.kappa2_R * math.cos(2.0 * math.pi * (t - p.t2_R) / p.delta2)
    )


def eta_charge(q, bat: BatteryParams):
    """Charging efficiency eta_E^C(q)."""
    return bat.C0_C + bat.C1_C * q**bat.l_C * (1.0 - q) ** bat.m_C


def eta_discharge(q, bat: BatteryParams):
    """Discharging efficiency eta_E^D(q)."""
    return bat.C0_D + bat.C1_D * q**bat.l_D * (1.0 - q) ** bat.m_D


def _validate_demand(p: SeasonalOUParams, errors: list[str]) -> None:
    if not p.beta_R > 0:
        errors.append("demand.beta_R must be > 0 (mean reversion must be positive)")
    if not p.sigma_R > 0:
        errors.append("demand.sigma_R must be > 0")
    if not (p.delta1 > p.delta2 > 0):
        errors.append("demand periods must satisfy delta1 > delta2 > 0")


def _validate_battery(p: BatteryParams, errors: list[str]) -> None:
    if not p.capacity_CQ > 0:
        errors.append("battery.capacity_CQ must be > 0")
    if not p.eta0 >= 0:
        errors.append("battery.eta0 must be >= 0")
    if not p.R_Q0 > 0:
        errors.append("battery.R_Q0 must be > 0")
    for name, value in (("C0_C", p.C0_C), ("C0_D", p.C0_D)):
        if not 0.0 < value < 1.0:
            errors.append(f"battery.{name} must lie in (0, 1)")
    for name, value in (("l_C", p.l_C), ("m_C", p.m_C), ("l_D", p.l_D), ("m_D", p.m_D)):
        if not value >= 1:
            errors.append(f"battery.{name} must be >= 1")
    # For exponents >= 1 each curve is C0 at q = 0 and 1 with its one interior
    # extreme at q* = l / (l + m): it lies in (0, 1] when C0 and eta(q*) do.
    if min(p.l_C, p.m_C, p.l_D, p.m_D) >= 1:
        if not 0.0 < eta_charge(p.l_C / (p.l_C + p.m_C), p) <= 1.0:
            errors.append("battery charging efficiency must lie in (0, 1] for all q in [0, 1]")
        if not 0.0 < eta_discharge(p.l_D / (p.l_D + p.m_D), p) <= 1.0:
            errors.append("battery discharging efficiency must lie in (0, 1] for all q in [0, 1]")


def _validate_generator(p: GeneratorParams, errors: list[str]) -> None:
    if not p.capacity_CG > 0:
        errors.append("generator.capacity_CG must be > 0")
    if not p.c0 >= 0:
        errors.append("generator.c0 must be >= 0")
    if not p.c1 > 0:
        errors.append("generator.c1 must be > 0")
    if not p.R_G0 > 0:
        errors.append("generator.R_G0 must be > 0")


def _validate_costs(p: CostParams, errors: list[str]) -> None:
    for name in ("fuel_price_F0", "gamma_deg", "k0", "gamma_pen_Q", "gamma_liq_Q", "gamma_liq_G", "rho"):
        if not getattr(p, name) >= 0:
            errors.append(f"costs.{name} must be >= 0")
    if not 0.0 <= p.q_ref <= 1.0:
        errors.append("costs.q_ref must lie in [0, 1]")


def _validate_discretization(p: DiscretizationParams, errors: list[str]) -> None:
    if not p.steps_N >= 1:
        errors.append("discretization.steps_N must be >= 1")
    if not p.horizon_T > 0:
        errors.append("discretization.horizon_T must be > 0")
    if p.N_Z % 2 != 1:
        errors.append("discretization.N_Z must be odd (zero must be a cell midpoint)")
    for name in ("N_Z", "N_Q", "N_G"):
        if not getattr(p, name) >= 2:
            errors.append(f"discretization.{name} must be >= 2")
    if not 0.0 < p.epsilon < 0.5:
        errors.append("discretization.epsilon must lie in (0, 0.5)")


def _finite_or_default(cfg: ModelConfig, errors: list[str]) -> ModelConfig:
    """Report each non-finite float field; return cfg with those fields at their defaults.

    The range checks run on the returned config, so a field reported here
    is not reported a second time by a range check.
    """
    for section in _SECTIONS:
        params = getattr(cfg, section)
        defaults = {}
        for f in dc_fields(params):
            value = getattr(params, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                errors.append(f"{section}.{f.name} must be finite, got {value}")
                defaults[f.name] = f.default
        if defaults:
            cfg = replace(cfg, **{section: replace(params, **defaults)})
    return cfg


def validate_config(cfg: ModelConfig) -> ModelConfig:
    """Check every parameter invariant; raise ConfigError listing all violations."""
    errors: list[str] = []
    checked = _finite_or_default(cfg, errors)
    _validate_demand(checked.demand, errors)
    _validate_battery(checked.battery, errors)
    _validate_generator(checked.generator, errors)
    _validate_costs(checked.costs, errors)
    _validate_discretization(checked.discretization, errors)
    if errors:
        raise ConfigError(errors)
    return cfg


def load_config(path: str) -> ModelConfig:
    """Read an INI-style config file; unknown sections or keys are errors.

    Its sections are ModelConfig's fields (_SECTIONS). Missing keys keep
    their defaults, so a partial file is a valid override of the published
    parameter set. A file that is not UTF-8 or not valid INI syntax is a
    ConfigError with a one-line message.
    """
    parser = configparser.ConfigParser()
    parser.optionxform = str  # keep key case
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            parser.read_file(fh)
        # items() interpolates, so a stray '%' fails here, not in read_file
        contents = [(section, parser.items(section)) for section in parser.sections()]
    except UnicodeDecodeError as exc:
        raise ConfigError([f"{path} is not UTF-8 text: {exc}"]) from None
    except configparser.Error as exc:
        raise ConfigError([f"cannot parse {path}: {' '.join(str(exc).split())}"]) from None

    errors: list[str] = []
    if parser.defaults():  # [DEFAULT] keys would leak into every other section
        errors.append(f"section [{parser.default_section}] is not supported")
    cfg = ModelConfig()
    for section, items in contents:
        if section not in _SECTIONS:
            errors.append(f"unknown section [{section}]")
            continue
        # declared types, as strings under `from __future__ import annotations`
        types = {f.name: f.type for f in dc_fields(_SECTIONS[section])}
        overrides = {}
        for key, raw in items:
            # the one key beyond the dataclass fields, kept readable for existing files
            if section == "discretization" and key == "bellman_discount_continuation":
                if raw.strip().lower() not in ("true", "1", "yes", "on"):
                    errors.append(f"key '{key}' in section [{section}] must be true, got {raw!r}: "
                                  "the continuation value is always discounted")
                continue
            if key not in types:
                errors.append(f"unknown key '{key}' in section [{section}]")
                continue
            kind, what = (int, "an integer") if types[key] == "int" else (float, "a number")
            try:
                overrides[key] = kind(raw)
            except ValueError:
                errors.append(f"key '{key}' in section [{section}] is not {what}: {raw!r}")
        if overrides:
            cfg = replace(cfg, **{section: replace(getattr(cfg, section), **overrides)})
    if errors:
        raise ConfigError(errors)
    return validate_config(cfg)


def dump_config(cfg: ModelConfig) -> str:
    """Serialize a config to the INI format accepted by load_config.

    Every section of ModelConfig is written, in its field order, with every
    field of the section in its declared order. Floats use shortest
    round-trip formatting, so dump -> load is exact.
    """
    out = io.StringIO()
    for section in _SECTIONS:
        out.write(f"[{section}]\n")
        params = getattr(cfg, section)
        for f in dc_fields(params):
            value = getattr(params, f.name)
            out.write(f"{f.name} = {value!r}\n")
        if section == "discretization":
            out.write("bellman_discount_continuation = true\n")  # fixed; keeps config_hash
        out.write("\n")
    return out.getvalue()


def config_hash(cfg: ModelConfig) -> str:
    """SHA-256 of the canonical serialized config (dump_config): every field of every section."""
    return hashlib.sha256(dump_config(cfg).encode("utf-8")).hexdigest()
