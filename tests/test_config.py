"""Configuration, validation, seasonality, and INI round-trips."""

import dataclasses
import math

import pytest

import microgrid_dp as m
from microgrid_dp.config import ACTION_BY_LABEL, eta_charge, eta_discharge


def test_action_alphabet():
    assert len(m.Action) == 7
    order = [m.Action.OVERSPILL, m.Action.CHARGE, m.Action.WAIT,
             m.Action.DISCHARGE_LIMITED, m.Action.DISCHARGE_FULL,
             m.Action.FUEL_LIMITED, m.Action.FUEL_FULL]
    assert sorted(m.Action) == order
    labels = [a.label for a in order]
    assert labels == ["overspill", "charge", "wait", "discharge_limited",
                      "discharge_full", "fuel_limited", "fuel_full"]
    for a in m.Action:
        assert ACTION_BY_LABEL[a.label] is a


def test_state_fields():
    x = m.State(0.5, 0.8, 1.0)
    assert (x.z, x.q, x.g) == (0.5, 0.8, 1.0)


def test_default_config_is_valid_and_idempotent():
    cfg = m.default_config()
    checked = m.validate_config(cfg)
    assert checked is cfg
    assert m.validate_config(checked) is cfg


def test_default_config_key_values():
    cfg = m.default_config()
    assert cfg.demand.beta_R == 0.2
    assert cfg.demand.sigma_R == 0.45
    assert cfg.battery.capacity_CQ == 18.0
    assert cfg.battery.R_Q0 == 1.4118
    assert cfg.generator.R_G0 == 1.4118
    assert cfg.costs.rho == 0.03
    assert cfg.discretization.steps_N == 168
    assert (cfg.discretization.N_Z, cfg.discretization.N_Q,
            cfg.discretization.N_G) == (17, 10, 10)
    assert cfg.dt == 1.0
    assert cfg.t_of(5) == 5.0


def test_seasonality_values():
    p = m.default_config().demand
    assert m.seasonality(0.0, p) == pytest.approx(1.2, abs=1e-12)
    assert m.seasonality(12.0, p) == pytest.approx(-0.8000037040883734, abs=1e-12)


def test_seasonality_constant_when_amplitudes_zero():
    p = dataclasses.replace(m.default_config().demand, kappa1_R=0.0, kappa2_R=0.0)
    for t in (0.0, 7.3, 100.0, 5000.0):
        assert m.seasonality(t, p) == pytest.approx(p.mu0_R, abs=1e-14)


def test_seasonality_daily_period():
    p = dataclasses.replace(m.default_config().demand, kappa1_R=0.0)
    for t in (0.0, 3.7, 11.0, 23.9):
        assert m.seasonality(t, p) == pytest.approx(m.seasonality(t + 24.0, p),
                                                    abs=1e-12)


def test_seasonality_bounds():
    p = m.default_config().demand
    hi = p.mu0_R + p.kappa1_R + p.kappa2_R
    lo = p.mu0_R - p.kappa1_R - p.kappa2_R
    for t in [0.1 * k for k in range(480)]:
        assert lo - 1e-12 <= m.seasonality(t, p) <= hi + 1e-12


def test_efficiency_curves_in_unit_interval():
    bat = m.default_config().battery
    for k in range(101):
        q = k / 100.0
        assert 0.0 < eta_charge(q, bat) <= 1.0
        assert 0.0 < eta_discharge(q, bat) <= 1.0
    assert eta_charge(0.0, bat) == pytest.approx(0.8, abs=1e-14)
    assert eta_charge(1.0, bat) == pytest.approx(0.8, abs=1e-14)
    assert eta_charge(1.0 / 3.0, bat) == pytest.approx(0.9955555555555556, abs=1e-13)
    assert eta_discharge(0.5, bat) == pytest.approx(0.965, abs=1e-12)


@pytest.mark.parametrize("section,field,bad", [
    ("demand", "beta_R", 0.0),
    ("demand", "sigma_R", -1.0),
    ("demand", "delta2", 9000.0),
    ("battery", "capacity_CQ", 0.0),
    ("battery", "eta0", -1e-4),
    ("battery", "R_Q0", 0.0),
    ("battery", "C0_C", 0.0),
    ("battery", "C0_C", 1.5),
    ("battery", "l_C", 0.5),
    ("battery", "l_C", -1.0),   # a negative exponent, before the efficiency check
    ("battery", "l_D", -1.0),
    ("generator", "capacity_CG", -20.0),
    ("generator", "c1", 0.0),
    ("costs", "q_ref", 1.5),
    ("costs", "rho", -0.1),
    ("discretization", "steps_N", 0),
    ("discretization", "N_Z", 16),
    ("discretization", "N_Q", 1),
    ("discretization", "epsilon", 0.0),
    ("discretization", "epsilon", 0.5),
])
def test_validate_rejects_bad_field(section, field, bad):
    cfg = m.default_config()
    part = dataclasses.replace(getattr(cfg, section), **{field: bad})
    broken = dataclasses.replace(cfg, **{section: part})
    with pytest.raises(m.ConfigError) as err:
        m.validate_config(broken)
    assert any(field in msg for msg in err.value.errors)


def test_validate_aggregates_all_violations():
    cfg = m.default_config()
    broken = dataclasses.replace(
        cfg,
        demand=dataclasses.replace(cfg.demand, beta_R=0.0),
        discretization=dataclasses.replace(cfg.discretization, N_Z=16),
    )
    with pytest.raises(m.ConfigError) as err:
        m.validate_config(broken)
    assert len(err.value.errors) >= 2
    joined = " ".join(err.value.errors)
    assert "beta_R" in joined and "N_Z" in joined


def test_efficiency_invariant_checked_on_validation():
    cfg = m.default_config()
    bat = dataclasses.replace(cfg.battery, C0_C=0.9, C1_C=0.9)
    with pytest.raises(m.ConfigError):
        m.validate_config(dataclasses.replace(cfg, battery=bat))


@pytest.mark.parametrize("fields,valid", [
    ({"C1_C": 1.35}, True),         # max eta_C = 0.8 + 1.35 * 4/27 = 1 exactly, at q = 1/3
    ({"C1_C": 1.3500001}, False),   # max 1 + 1.5e-8 at q = 1/3, off every q = k/100
    ({"C1_D": 1.35}, True),
    ({"C1_D": 1.3500001}, False),   # max at q = 2/3
    ({"C1_D": -5.39}, True),        # min eta_D = 0.8 + C1_D * 4/27 > 0 at q = 2/3
    ({"C1_D": -5.41}, False),
])
def test_efficiency_checked_at_its_extreme(fields, valid):
    cfg = m.default_config()
    broken = dataclasses.replace(cfg, battery=dataclasses.replace(cfg.battery, **fields))
    if valid:
        m.validate_config(broken)
    else:
        with pytest.raises(m.ConfigError, match="efficiency"):
            m.validate_config(broken)


def test_dump_load_round_trip(tmp_path):
    cfg = m.default_config()
    tweaked = dataclasses.replace(
        cfg,
        demand=dataclasses.replace(cfg.demand, sigma_R=1.0 / 3.0, t2_R=2.5),
        costs=dataclasses.replace(cfg.costs, k0=0.123456789012345),
    )
    path = tmp_path / "cfg.ini"
    path.write_text(m.dump_config(tweaked))
    loaded = m.load_config(str(path))
    assert loaded == tweaked
    assert m.config_hash(loaded) == m.config_hash(tweaked)


def test_bundled_table1_config_matches_defaults():
    import os
    here = os.path.join(os.path.dirname(__file__), "..", "configs", "table1.ini")
    loaded = m.load_config(here)
    assert loaded == m.default_config()


def test_load_skips_a_utf8_byte_order_mark(tmp_path, cfg_small):
    """A config saved with a leading BOM (as some Windows editors write it)
    loads as the same config as the file without it."""
    plain, bom = tmp_path / "plain.ini", tmp_path / "bom.ini"
    plain.write_text(m.dump_config(cfg_small), encoding="utf-8")
    bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert m.load_config(str(bom)) == m.load_config(str(plain)) == cfg_small


def test_load_partial_file_fills_defaults(tmp_path):
    path = tmp_path / "partial.ini"
    path.write_text("[discretization]\nsteps_N = 12\nhorizon_T = 12.0\n")
    cfg = m.load_config(str(path))
    assert cfg.discretization.steps_N == 12
    assert isinstance(cfg.discretization.steps_N, int)
    assert cfg.demand == m.default_config().demand


def test_load_rejects_unknown_section_and_key(tmp_path):
    bad1 = tmp_path / "a.ini"
    bad1.write_text("[turbine]\nblades = 3\n")
    with pytest.raises(m.ConfigError):
        m.load_config(str(bad1))
    bad2 = tmp_path / "b.ini"
    bad2.write_text("[demand]\nbeta_X = 1.0\n")
    with pytest.raises(m.ConfigError):
        m.load_config(str(bad2))


def test_load_rejects_bad_value_type(tmp_path):
    path = tmp_path / "c.ini"
    path.write_text("[demand]\nbeta_R = fast\n")
    with pytest.raises(m.ConfigError):
        m.load_config(str(path))


def test_load_names_an_integer_key_that_is_not_an_integer(tmp_path):
    path = tmp_path / "c.ini"
    path.write_text("[discretization]\nsteps_N = 168.0\n")
    want = r"key 'steps_N' in section \[discretization\] is not an integer: '168.0'"
    with pytest.raises(m.ConfigError, match=want):
        m.load_config(str(path))
    path.write_text("[discretization]\nhorizon_T = 1 week\n")
    with pytest.raises(m.ConfigError, match="is not a number: '1 week'"):
        m.load_config(str(path))


def test_load_validates_invariants(tmp_path):
    path = tmp_path / "d.ini"
    path.write_text("[discretization]\nN_Z = 16\n")
    with pytest.raises(m.ConfigError):
        m.load_config(str(path))


def test_config_hash_distinguishes_configs():
    cfg = m.default_config()
    other = dataclasses.replace(
        cfg, costs=dataclasses.replace(cfg.costs, k0=0.576))
    assert m.config_hash(cfg) != m.config_hash(other)
    assert m.config_hash(cfg) == m.config_hash(m.default_config())
    assert len(m.config_hash(cfg)) == 64


def test_every_field_of_every_section_reaches_config_hash():
    """Replacing any one field of any ModelConfig section with another value
    changes the hash, so a policy solved for other parameters is refused."""
    cfg = m.default_config()
    base = m.config_hash(cfg)
    for section in dataclasses.fields(m.ModelConfig):
        params = getattr(cfg, section.name)
        for f in dataclasses.fields(params):
            value = getattr(params, f.name)
            changed = dataclasses.replace(params, **{
                f.name: value + 1 if isinstance(value, int) else 1.5 * value + 0.25})
            other = dataclasses.replace(cfg, **{section.name: changed})
            assert m.config_hash(other) != base, f"{section.name}.{f.name}"


def test_discount_continuation_key_reads_only_true(tmp_path):
    """The continuation is always discounted: the key's true spellings load the
    default config, and every other value, false included, is refused."""
    path = tmp_path / "key.ini"
    for raw in ("true", "1", "yes", "on", " True ", "ON"):
        path.write_text(f"[discretization]\nbellman_discount_continuation = {raw}\n")
        assert m.load_config(str(path)) == m.default_config()
    for raw in ("false", "0", "no", "off", "maybe", ""):
        path.write_text(f"[discretization]\nbellman_discount_continuation = {raw}\n")
        with pytest.raises(m.ConfigError) as info:
            m.load_config(str(path))
        (error,) = info.value.errors
        assert "bellman_discount_continuation" in error and "always discounted" in error
    assert "bellman_discount_continuation = true\n" in m.dump_config(m.default_config())
