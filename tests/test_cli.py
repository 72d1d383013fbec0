"""End-to-end CLI checks on a small instance: subcommands, files, exit codes."""

import dataclasses
import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import zipfile
from pathlib import Path

import numpy as np
import pytest

import microgrid_dp as m
from microgrid_dp import cli
from conftest import small_discretization
from oracles import reference_path, write_paths_csv_reference, write_step_csv_reference


@pytest.fixture(scope="module")
def small_ini(tmp_path_factory, cfg_small):
    path = tmp_path_factory.mktemp("cfg") / "small.ini"
    path.write_text(m.dump_config(cfg_small))
    return str(path)


@pytest.fixture(scope="module")
def solve_dir(tmp_path_factory, small_ini):
    out = str(tmp_path_factory.mktemp("solve") / "out")
    assert cli.main(["solve", small_ini, "--out", out]) == 0
    return out


def test_validate_ok(small_ini, cfg_small, capsys):
    assert cli.main(["validate", small_ini]) == 0
    out = capsys.readouterr().out
    assert "configuration valid" in out
    assert m.config_hash(cfg_small)[:16] in out


def test_validate_rejects_bad_config(tmp_path, small_ini, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text(Path(small_ini).read_text().replace("beta_R = 0.2", "beta_R = -1.0"))
    assert cli.main(["validate", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err


def test_validate_rejects_config_whose_constants_overflow(tmp_path, small_ini, capsys):
    """validate builds the one-step constants, so it fails where moments and solve fail."""
    bad = tmp_path / "overflow.ini"
    bad.write_text(re.sub(r"^eta0 = .*$", "eta0 = 1e200", Path(small_ini).read_text(), flags=re.M))
    errors = []
    for argv in (["validate", str(bad)],
                 ["moments", str(bad), "--n", "0", "--z", "0", "--q", "0.5", "--g", "0.5",
                  "--action", m.Action.WAIT.label],
                 ["solve", str(bad), "--out", str(tmp_path / "out")]):
        assert cli.main(argv) == 3
        errors.append(capsys.readouterr().err)
    assert errors[0].startswith("numerical error: one-step law constants: ")
    assert errors[0].count("\n") == 1 and errors == [errors[0]] * 3


def test_missing_config_is_io_error(tmp_path, capsys):
    assert cli.main(["validate", str(tmp_path / "nope.ini")]) == 2
    assert "I/O error" in capsys.readouterr().err


@pytest.mark.parametrize("text,expect", [
    (b"beta_R = 0.2\n", "no section headers"),
    (b"[demand]\nbeta_R = 0.2\n[demand]\nsigma_R = 0.4\n", "section 'demand' already exists"),
    (b"[demand]\nbeta_R = 0.2\nbeta_R = 0.3\n", "option 'beta_R' in section 'demand' already exists"),
    (b"[demand]\nbeta_R = 0.2%\n", "'%' must be followed"),
    (b"[demand]\nbeta_R\n", "parsing errors"),
    (b"[demand]\n; caf\xe9\nbeta_R = 0.2\n", "not UTF-8"),
    (b"[DEFAULT]\nbeta_R = 0.3\n", "[DEFAULT] is not supported"),
    (b"[discretization]\nhorizon_T = inf\n", "horizon_T must be finite"),
    (b"[battery]\ncapacity_CQ = inf\n", "capacity_CQ must be finite"),
    (b"[demand]\nsigma_R = inf\n", "sigma_R must be finite"),
    (b"[costs]\nrho = nan\n", "rho must be finite"),
], ids=["no-header", "dup-section", "dup-key", "stray-percent", "bare-key", "latin-1",
        "default-section", "inf-horizon", "inf-capacity", "inf-sigma", "nan-rho"])
def test_malformed_config_is_one_line_error(tmp_path, text, expect, capsys):
    path = tmp_path / "bad.ini"
    path.write_bytes(text)
    out = tmp_path / "out"
    assert cli.main(["solve", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and expect in err
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("section,key", [("demand", "sigma_R"), ("battery", "capacity_CQ"),
                                         ("battery", "C1_C")])
def test_non_finite_field_is_reported_once(tmp_path, section, key, value, capsys):
    path = tmp_path / "bad.ini"
    path.write_text(f"[{section}]\n{key} = {value}\n")
    assert cli.main(["validate", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {section}.{key} must be finite, got {float(value)}\n"


# (argv, config override, exit code) per CLI failure: CFG is the small
# config with the override's one key replaced, OUT a fresh output directory.
_FAILURES = {
    "no-arguments": ([], None, 1),
    "unknown-subcommand": (["frobnicate", "CFG"], None, 1),
    "unknown-flag": (["solve", "CFG", "--bogus-flag"], None, 1),
    "simulate-without-policy": (["simulate", "CFG", "--scenario", "neutral", "--out", "OUT"],
                                None, 1),
    "unknown-scenario": (["simulate", "CFG", "--policy", "x", "--scenario", "martian-dust",
                          "--out", "OUT"], None, 1),
    "seeds-not-an-int": (["simulate", "CFG", "--policy", "x", "--scenario", "neutral",
                          "--seeds", "x", "--out", "OUT"], None, 1),
    "confidence-not-a-float": (["calibrate", "CFG", "--confidence", "abc"], None, 1),
    "validate-stage-cost-overflow": (["validate", "CFG"], ("k0", "1e308"), 3),
    "solve-stage-cost-overflow": (["solve", "CFG", "--out", "OUT"], ("k0", "1e308"), 3),
    "moments-infinite-variance": (["moments", "CFG", "--n", "0", "--z", "0", "--q", "0.5",
                                   "--g", "0.5", "--action", "charge"],
                                  ("capacity_CQ", "1e-300"), 3),
    "calibrate-infinite-capacity": (["calibrate", "CFG", "--z1", "1e308"], None, 3),
    "calibrate-infinite-eta0": (["calibrate", "CFG", "--q-star-hours", "1e-320"], None, 3),
    "validate-terminal-battery-overflow": (["validate", "CFG"], ("gamma_pen_Q", "1e308"), 3),
    "validate-terminal-fuel-overflow": (["validate", "CFG"], ("gamma_liq_G", "1e308"), 3),
}


@pytest.mark.parametrize("argv,override,code", list(_FAILURES.values()), ids=list(_FAILURES))
def test_usage_errors_exit_1(tmp_path, small_ini, argv, override, code, capsys):
    """Every failure exits with its code and one stderr line: no usage text, no warning."""
    ini = small_ini
    if override is not None:
        key, value = override
        text, count = re.subn(rf"^{key} = .*$", f"{key} = {value}", Path(small_ini).read_text(),
                              flags=re.M)
        assert count == 1
        ini = tmp_path / "override.ini"
        ini.write_text(text)
    argv = [{"CFG": str(ini), "OUT": str(tmp_path / "out")}.get(a, a) for a in argv]
    assert cli.main(argv) == code
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith({1: "error: ", 3: "numerical error: "}[code]) and err.count("\n") == 1
    assert "Warning" not in err and "Traceback" not in err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert m.__version__ in capsys.readouterr().out


def test_one_parser_per_process_keeps_no_parsed_state(small_ini, tmp_path, monkeypatch, capsys):
    """main parses every argv with the one cached parser. A call sees none of
    the options of an earlier call, of another subcommand or of the same one,
    and --version and an argparse error still end as without the cache."""
    assert cli._build_parser() is cli._build_parser()
    seen = []
    monkeypatch.setattr(cli, "_run", lambda args: seen.append(vars(args)) or 0)
    assert cli.main(["calibrate", small_ini, "--q-star", "0.7", "--z1", "2.0"]) == 0
    assert cli.main(["moments", small_ini, "--n", "0", "--z", "1.0", "--q", "0.8", "--g", "0.9",
                     "--action", "wait"]) == 0
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == f"microgrid-dp {m.__version__}\n"
    assert cli.main(["simulate", small_ini, "--scenario", "neutral",
                     "--out", str(tmp_path / "out")]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert cli.main(["calibrate", small_ini]) == 0
    assert [args["command"] for args in seen] == ["calibrate", "moments", "calibrate"]
    first, moments, last = seen
    assert (first["q_star"], first["z1"]) == (0.7, 2.0)
    assert set(moments) == {"command", "config", "n", "z", "q", "g", "action"}
    assert set(last) == set(first) and all(last[k] is None for k in last
                                           if k not in ("command", "config"))


def test_moments_json(small_ini, cfg_small, capsys):
    assert cli.main(["moments", small_ini, "--n", "0", "--z", "1.0", "--q", "0.8",
                     "--g", "0.9", "--action", "discharge_full"]) == 0
    got = json.loads(capsys.readouterr().out)
    mom = m.transition_moments(0, m.State(1.0, 0.8, 0.9),
                               m.Action.DISCHARGE_FULL, cfg_small)
    for key in ("m_Z", "var_Z", "m_Q", "var_Q", "m_G", "var_G",
                "cov_ZQ", "rho_Q", "cov_ZG", "rho_G"):
        assert got[key] == pytest.approx(getattr(mom, key), abs=1e-15)


def test_calibrate_json(small_ini, cfg_small, capsys):
    assert cli.main(["calibrate", small_ini]) == 0
    got = json.loads(capsys.readouterr().out)
    assert got["gamma_deg_source"] == "config"
    assert got["C_Q_kwh"] == pytest.approx(18.006833055598058, abs=1e-9)
    assert cli.main(["calibrate", small_ini, "--battery-price", "6000",
                     "--battery-life", "20000"]) == 0
    priced = json.loads(capsys.readouterr().out)
    assert priced["gamma_deg_source"] == "degradation_cost"
    assert priced["gamma_deg_eur_per_kwh"] > 0.0


def test_calibrate_bad_window(small_ini, capsys):
    assert cli.main(["calibrate", small_ini, "--charge-window", "6"]) == 1
    assert "window" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["--charge-window", "a,b"],
    ["--discharge-window", "18,x"],
    ["--charge-window", "6,6"],
    ["--q-star", "2"],
    # the degradation options price the battery only together: alone they
    # are refused, not ignored with gamma_deg taken from the config
    ["--battery-price", "5000"],
    ["--battery-life", "20000"],
    ["--max-abs-r", "2"],
    ["--max-abs-r", "2", "--battery-price", "5000"],
])
def test_calibrate_bad_inputs_are_one_line_usage_errors(small_ini, argv, capsys):
    assert cli.main(["calibrate", small_ini, *argv]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["--max-abs-r", "nan", "--battery-price", "6000", "--battery-life", "20000"],
    ["--z1", "inf"],
    ["--battery-price", "inf"],
    ["--battery-price", "6000", "--battery-life", "nan"],
    ["--q-star-hours", "inf"],
    ["--q-star=nan"],
    ["--confidence=-inf"],
    ["--charge-window", "6,inf"],
    ["--discharge-window", "nan,30"],
], ids=lambda argv: " ".join(argv))
def test_calibrate_rejects_non_finite_options(small_ini, argv, capsys):
    assert cli.main(["calibrate", small_ini, *argv]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "finite" in err


@pytest.mark.parametrize("args", [["validate"], ["solve", "--out", "unused", "--export-steps", "0,x"]])
def test_module_entry_points_run_the_cli(small_ini, args, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(m.__file__)))
    argv = [args[0], small_ini, *args[1:]]
    for module in ("microgrid_dp", "microgrid_dp.cli"):
        proc = subprocess.run([sys.executable, "-m", module, *argv], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)
        if args == ["validate"]:
            assert proc.returncode == 0, proc.stderr
            assert "configuration valid" in proc.stdout
        else:
            assert proc.returncode == 1
            assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


def test_solve_outputs(solve_dir, cfg_small, grid_small, small_solution, capsys):
    steps_n = cfg_small.discretization.steps_N
    names = set(os.listdir(solve_dir))
    assert {"value_policy_step0000.csv", f"value_policy_step{steps_n - 1:04d}.csv",
            f"value_policy_step{steps_n:04d}.csv", "value_policy_meta.json",
            "tables.npz", "manifest.json"} <= names
    meta = json.loads(Path(solve_dir, "value_policy_meta.json").read_text())
    assert meta["config_hash"] == m.config_hash(cfg_small)
    assert meta["grid"]["q_points"] == [float(v) for v in grid_small.q.points]

    values, policy, _ = small_solution
    lines = Path(solve_dir, "value_policy_step0000.csv").read_text().splitlines()
    assert lines[0] == "i,j,k,z,r_mid,q,g,value_eur,action"
    assert len(lines) == 1 + grid_small.n_states
    first = lines[1].split(",")
    assert float(first[7]) == values.values[0, 0]
    assert first[8] == policy.action_at(0, 0).label
    terminal = Path(solve_dir, f"value_policy_step{steps_n:04d}.csv").read_text().splitlines()
    assert terminal[1].endswith(",")

    with np.load(os.path.join(solve_dir, "tables.npz")) as data:
        np.testing.assert_array_equal(data["values"], values.values)
        np.testing.assert_array_equal(data["actions"], policy.actions)


def test_solve_export_steps_flag(small_ini, tmp_path, capsys):
    out = str(tmp_path / "sel")
    assert cli.main(["solve", small_ini, "--out", out, "--export-steps", "0,2"]) == 0
    assert sorted(f for f in os.listdir(out) if f.endswith(".csv")) == [
        "value_policy_step0000.csv", "value_policy_step0002.csv"]
    assert cli.main(["solve", small_ini, "--out", str(tmp_path / "bad"),
                     "--export-steps", "9"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("raw", ["0,x", "0,,2", "-1", "0,99"])
def test_bad_export_steps_fail_before_solving(small_ini, tmp_path, monkeypatch, raw, capsys):
    def never(cfg, grid):
        raise AssertionError("solve ran before --export-steps was checked")

    monkeypatch.setattr("microgrid_dp.cli.solve", never)
    assert cli.main(["solve", small_ini, "--out", str(tmp_path / "x"), "--export-steps", raw]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not os.path.exists(tmp_path / "x")


@pytest.mark.parametrize("argv", [
    ["simulate", "--policy", "unused", "--scenario", "neutral", "--out", "x", "--seeds", "0"],
    ["simulate", "--policy", "unused", "--scenario", "neutral", "--out", "x", "--seeds", "-3"],
    ["simulate", "--policy", "unused", "--scenario", "neutral", "--out", "x", "--base-seed", "-1"],
    ["paper-run", "--out", "x", "--seeds", "0"],
    ["paper-run", "--out", "x", "--seeds", "-3"],
    ["paper-run", "--out", "x", "--base-seed", "-1"],
], ids=lambda argv: " ".join((argv[0], *argv[-2:])))
def test_bad_seed_options_fail_before_any_work(small_ini, tmp_path, monkeypatch, argv, capsys):
    def never(cfg, grid):
        raise AssertionError("solve ran before the seed options were checked")

    monkeypatch.setattr("microgrid_dp.cli.solve", never)
    monkeypatch.chdir(tmp_path)
    assert cli.main([argv[0], small_ini, *argv[1:]]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and argv[-2] in err
    assert not os.path.exists(tmp_path / "x")


@pytest.mark.parametrize("flag,value", [("--z", "nan"), ("--z", "inf"), ("--z", "-inf"),
                                        ("--q", "1.7"), ("--q", "nan"), ("--g", "-3"),
                                        ("--n", "999"), ("--n", "-1")])
def test_moments_rejects_out_of_range_inputs(small_ini, flag, value, capsys):
    options = {"--n": "0", "--z": "1.0", "--q": "0.8", "--g": "0.9", flag: value}
    argv = ["moments", small_ini, *(f"{k}={v}" for k, v in options.items()), "--action", "charge"]
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and flag in err


def test_simulate_from_policy_dir(small_ini, solve_dir, cfg_small, grid_small,
                                  small_solution, tmp_path, capsys):
    out = str(tmp_path / "paths")
    assert cli.main(["simulate", small_ini, "--policy", solve_dir, "--scenario",
                     "neutral", "--seeds", "2", "--out", out]) == 0
    files = sorted(f for f in os.listdir(out) if f.endswith(".csv"))
    assert files == ["path_neutral_seed000.csv", "path_neutral_seed001.csv"]
    lines = Path(out, files[0]).read_text().splitlines()
    assert lines[0] == "step,time_h,z,r,q,g,action,stage_cost_eur,cum_cost_eur"
    assert len(lines) == 1 + cfg_small.discretization.steps_N
    _, policy, _ = small_solution
    batch = m.simulate_paths(policy, m.SCENARIOS["neutral"], cfg_small, grid_small, [0])
    first = lines[1].split(",")
    assert float(first[2]) == batch.z[0, 0]
    assert first[6] == m.Action(batch.action[0, 0]).label
    capsys.readouterr()


@pytest.mark.parametrize("problem", ["small", "table1"])
def test_step_csvs_match_row_writer(problem, request, tmp_path):
    cfg, grid = (request.getfixturevalue(f"{name}_{problem}") for name in ("cfg", "grid"))
    values, policy, _ = request.getfixturevalue(f"{problem}_solution")
    n_steps = cfg.discretization.steps_N
    steps = list(range(n_steps + 1)) if problem == "small" else [0, 85, 167, n_steps]
    written = cli.export_value_policy((values, policy), grid, steps, str(tmp_path / "out"), cfg)
    for n, path in zip(steps, written):
        ref = tmp_path / f"ref{n:04d}.csv"
        write_step_csv_reference((values, policy), grid, n, str(ref), cfg)
        assert Path(path).read_bytes() == ref.read_bytes(), n


@pytest.mark.parametrize("problem", ["small", "table1"])
def test_path_csvs_match_row_writer(problem, request, tmp_path):
    cfg, grid = (request.getfixturevalue(f"{name}_{problem}") for name in ("cfg", "grid"))
    _, policy, _ = request.getfixturevalue(f"{problem}_solution")
    scenario = m.SCENARIOS["overcast-break"]
    written = cli._simulate_scenario(cfg, grid, policy, scenario, 3, str(tmp_path / "out"),
                                     base_seed=3)
    batch = m.simulate_paths(policy, scenario, cfg, grid, range(3), base_seed=3)
    steps = range(cfg.discretization.steps_N)
    for idx, path in enumerate(written):
        ref = tmp_path / f"ref{idx}.csv"
        write_paths_csv_reference(zip(steps, map(cfg.t_of, steps),
                                      *(field[idx].tolist() for field in batch)), str(ref))
        assert Path(path).read_bytes() == ref.read_bytes(), idx


def test_path_csvs_across_batches_match_reference_loop(cfg_small, grid_small, small_solution,
                                                       tmp_path, monkeypatch):
    """Seven paths written three at a time (batches 0-2, 3-5, 6) are the
    reference loop's paths byte for byte."""
    _, policy, _ = small_solution
    monkeypatch.setattr(cli, "_PATHS_PER_BATCH", 3)
    scenario = m.SCENARIOS["sunny-finish"]
    written = cli._simulate_scenario(cfg_small, grid_small, policy, scenario, 7,
                                     str(tmp_path / "out"), base_seed=2)
    assert [Path(p).name for p in written] == [f"path_sunny-finish_seed{idx:03d}.csv"
                                               for idx in range(7)]
    for idx, path in enumerate(written):
        ref = tmp_path / f"ref{idx}.csv"
        write_paths_csv_reference(
            reference_path(policy, scenario, cfg_small, grid_small, path_index=idx, base_seed=2),
            str(ref))
        assert Path(path).read_bytes() == ref.read_bytes(), idx


def test_csvs_across_format_chunks_match_defaults(cfg_small, grid_small, small_solution,
                                                  tmp_path, monkeypatch):
    """Formatting three paths (0-2, 3-5, 6), three steps (0-2, 3-4) or one
    step or path per reprs call writes the bytes of the default chunks."""
    values, policy, _ = small_solution
    scenario = m.SCENARIOS["overcast-week"]
    steps = list(range(cfg_small.discretization.steps_N + 1))

    def write(out):
        paths = cli._simulate_scenario(cfg_small, grid_small, policy, scenario, 7, str(out),
                                       base_seed=5)
        tables = cli.export_value_policy((values, policy), grid_small, steps, str(out), cfg_small)
        return {Path(p).name: Path(p).read_bytes() for p in paths + tables}

    default = write(tmp_path / "default")
    for budget in (3 * cfg_small.discretization.steps_N, 3 * grid_small.n_states, 1):
        monkeypatch.setattr(cli, "_FLOATS_PER_FORMAT", budget)
        assert write(tmp_path / f"chunked{budget}") == default, budget
    assert len(default) == 7 + len(steps) + 1


def test_export_checks_every_step_before_writing(cfg_small, grid_small, small_solution,
                                                 tmp_path):
    values, policy, _ = small_solution
    out = tmp_path / "out"
    out.mkdir()
    with pytest.raises(m.ConfigError, match="export step 99 outside 0..4"):
        cli.export_value_policy((values, policy), grid_small, [0, 1, 99], str(out), cfg_small)
    assert list(out.iterdir()) == []


# sha256 over the sha256 of each of the 1000 table1 path CSVs (five scenarios
# x 200 seeds at base seed 0, the benchmark's paths), in file name order.
TABLE1_PATHS_DIGEST = "f81482801177b7bdf14d61a12dce86d936dee786c4ec4b661ec3fe2f7c0ed162"


def test_table1_path_bytes_match_earlier_versions(cfg_table1, grid_table1, table1_solution,
                                                  tmp_path):
    _, policy, _ = table1_solution
    out = tmp_path / "paths"
    for name in sorted(m.SCENARIOS):
        cli._simulate_scenario(cfg_table1, grid_table1, policy, m.SCENARIOS[name], 200,
                               str(out), base_seed=0)
    files = sorted(out.iterdir())
    assert len(files) == 1000
    digest = hashlib.sha256()
    for path in files:
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    assert digest.hexdigest() == TABLE1_PATHS_DIGEST


def test_simulate_missing_policy_dir(small_ini, tmp_path, capsys):
    assert cli.main(["simulate", small_ini, "--policy", str(tmp_path / "void"),
                     "--scenario", "neutral", "--out", str(tmp_path / "o")]) == 2
    capsys.readouterr()


def _ini_for(cfg, tmp_path, name):
    path = tmp_path / name
    path.write_text(m.dump_config(cfg))
    return str(path)


def test_simulate_refuses_policy_of_another_config(solve_dir, cfg_small, tmp_path, capsys):
    other_costs = dataclasses.replace(cfg_small, costs=dataclasses.replace(
        cfg_small.costs, k0=2.0 * cfg_small.costs.k0))
    other_grid = dataclasses.replace(cfg_small, discretization=dataclasses.replace(
        cfg_small.discretization, N_Z=7))
    for name, cfg in (("costs.ini", other_costs), ("grid.ini", other_grid)):
        out = tmp_path / f"paths_{name}"
        assert cli.main(["simulate", _ini_for(cfg, tmp_path, name), "--policy", solve_dir,
                         "--scenario", "neutral", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert m.config_hash(cfg)[:16] in err
        assert not out.exists()


def test_simulate_without_policy_meta_is_io_error(small_ini, solve_dir, tmp_path, capsys):
    """Metadata that does not parse, is missing, or parses to anything but an
    object with a string config_hash is unreadable: exit 2, one line naming the file."""
    policy = tmp_path / "policy"
    shutil.copytree(solve_dir, policy)
    meta = policy / "value_policy_meta.json"
    argv = ["simulate", small_ini, "--policy", str(policy), "--scenario", "neutral",
            "--out", str(tmp_path / "o")]
    meta.write_text("{not json")
    assert cli.main(argv) == 2
    meta.unlink()
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 2 and "value_policy_meta.json" in err
    for text in ("[]", "{}", "null", '{"config_hash": 5}'):
        meta.write_text(text)
        assert cli.main(argv) == 2, text
        err = capsys.readouterr().err
        assert err.startswith("I/O error: ") and err.count("\n") == 1, text
        assert str(meta) in err, text
    assert not (tmp_path / "o").exists()


def _text_file(path, tables):
    path.write_text("not an npz archive\n")


def _no_actions(path, tables):
    np.savez(path, values=tables["values"])


def _actions_cut_short(path, tables):
    np.savez(path, values=tables["values"], actions=tables["actions"][:, :90])


def _unknown_action_code(path, tables):
    actions = tables["actions"].astype(np.int8)
    actions[0, 0] = len(m.Action)
    np.savez(path, values=tables["values"], actions=actions)


def _negative_action_code(path, tables):
    actions = tables["actions"].astype(np.int8)
    actions[-1, -1] = -1
    np.savez(path, values=tables["values"], actions=actions)


def _fractional_action_code(path, tables):
    actions = tables["actions"].astype(np.float64)
    actions[0, 1] = 1.5
    np.savez(path, values=tables["values"], actions=actions)


def _whole_float_action_codes(path, tables):
    np.savez(path, values=tables["values"], actions=tables["actions"].astype(np.float64))


def _write_members(path, tables, version=(1, 0), edit=lambda name, data: data):
    """tables as an archive of .npy members in format version, each passed through edit."""
    with zipfile.ZipFile(path, "w") as archive:
        for name, table in tables.items():
            buf = io.BytesIO()
            np.lib.format.write_array(buf, table, version=version)
            archive.writestr(f"{name}.npy", edit(name, buf.getvalue()))


def _unknown_npy_version(path, tables):
    """values.npy whose magic carries version bytes (9, 9), which numpy never wrote."""
    _write_members(path, tables, edit=lambda name, data: (
        data[:6] + bytes((9, 9)) + data[8:] if name == "values" else data))


def _values_cut_short(path, tables):
    np.savez(path, values=tables["values"][:-1], actions=tables["actions"])


def _values_body_cut_short(path, tables):
    """A well-formed archive whose values.npy keeps its header but loses its last 8 bytes."""
    _write_members(path, tables, edit=lambda name, data: data[:-8] if name == "values" else data)


def _truncated_archive(path, tables):
    data = path.read_bytes()
    path.write_bytes(data[:len(data) // 2])


def _bare_npy_array(path, tables):
    with path.open("wb") as fh:
        np.save(fh, tables["actions"])


@pytest.mark.parametrize("corrupt", [_text_file, _no_actions, _actions_cut_short,
                                     _unknown_action_code, _negative_action_code,
                                     _fractional_action_code, _whole_float_action_codes,
                                     _unknown_npy_version, _values_cut_short,
                                     _values_body_cut_short, _truncated_archive, _bare_npy_array],
                         ids=lambda f: f.__name__.strip("_"))
def test_simulate_with_bad_tables_is_io_error(small_ini, solve_dir, tmp_path, capsys, corrupt):
    policy = tmp_path / "policy"
    shutil.copytree(solve_dir, policy)
    with np.load(policy / "tables.npz") as data:
        tables = {k: data[k] for k in data.files}
    corrupt(policy / "tables.npz", tables)
    out = tmp_path / "o"
    assert cli.main(["simulate", small_ini, "--policy", str(policy), "--scenario", "neutral",
                     "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("I/O error: ") and err.count("\n") == 1 and "tables.npz" in err
    assert not out.exists()


def test_simulate_reads_version_2_values_header(small_ini, solve_dir, tmp_path, capsys):
    """A values.npy in .npy format 2.0 is accepted and gives the paths of a 1.0 table."""
    policy = tmp_path / "policy"
    shutil.copytree(solve_dir, policy)
    with np.load(policy / "tables.npz") as data:
        tables = {k: data[k] for k in data.files}
    _write_members(policy / "tables.npz", tables, version=(2, 0))
    with zipfile.ZipFile(policy / "tables.npz") as archive:
        assert archive.read("values.npy")[6:8] == bytes((2, 0))
    outputs = {}
    for name, source in (("v1", solve_dir), ("v2", str(policy))):
        out = tmp_path / name
        assert cli.main(["simulate", small_ini, "--policy", source, "--scenario", "sunny-start",
                         "--seeds", "3", "--out", str(out)]) == 0
        outputs[name] = {p.name: p.read_bytes() for p in out.glob("path_*.csv")}
    assert len(outputs["v1"]) == 3 and outputs["v2"] == outputs["v1"]
    capsys.readouterr()


def test_paper_run_pipeline(small_ini, tmp_path, capsys):
    out = str(tmp_path / "pipe")
    assert cli.main(["paper-run", small_ini, "--out", out, "--seeds", "1"]) == 0
    names = set(os.listdir(out))
    for scenario in ("sunny-start", "overcast-break", "sunny-finish", "overcast-week"):
        assert f"path_{scenario}_seed000.csv" in names
    assert "tables.npz" in names and "manifest.json" in names
    manifest = json.loads(Path(out, "manifest.json").read_text())
    assert manifest["seed"] == 0
    assert sorted(manifest["outputs"]) == manifest["outputs"]
    capsys.readouterr()


@pytest.mark.parametrize("form", ["./out/", "out", "absolute"])
@pytest.mark.parametrize("command", ["solve", "simulate"])
def test_manifest_lists_output_names_however_out_is_spelled(small_ini, solve_dir, tmp_path,
                                                           monkeypatch, command, form, capsys):
    """Every output is a direct child of --out, so the manifest lists its
    file names, the same for ./out/, out and an absolute path."""
    monkeypatch.chdir(tmp_path)
    out = str(tmp_path / "out") if form == "absolute" else form
    assert cli.main([*_rerun_commands(small_ini, solve_dir)[command], "--out", out]) == 0
    manifest = json.loads(Path(tmp_path, "out", "manifest.json").read_text())
    assert manifest["outputs"] == sorted(set(os.listdir(tmp_path / "out")) - {"manifest.json"})
    capsys.readouterr()


def test_paper_run_repeatable_bytes(small_ini, tmp_path, capsys):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert cli.main(["paper-run", small_ini, "--out", out1, "--seeds", "2"]) == 0
    assert cli.main(["paper-run", small_ini, "--out", out2, "--seeds", "2"]) == 0
    csvs = sorted(f for f in os.listdir(out1) if f.endswith(".csv"))
    assert csvs == sorted(f for f in os.listdir(out2) if f.endswith(".csv"))
    for name in csvs:
        b1 = Path(out1, name).read_bytes()
        b2 = Path(out2, name).read_bytes()
        assert b1 == b2, name
    capsys.readouterr()


def _outputs(out):
    """Every file in out by name: bytes, with the run-dependent parts replaced.

    The manifest's creation time is dropped; tables.npz keeps its length
    and each member's bytes, since the zip entries carry their write time.
    """
    files = {}
    for path in sorted(Path(out).iterdir()):
        data = path.read_bytes()
        if path.name == "manifest.json":
            data = json.loads(data)
            del data["created_utc"]
        elif path.name == "tables.npz":
            with zipfile.ZipFile(path) as archive:
                data = (len(data), {name: archive.read(name) for name in archive.namelist()})
        files[path.name] = data
    return files


def _rerun_commands(small_ini, solve_dir):
    return {
        "solve": ["solve", small_ini, "--export-steps", "0,1,4"],
        "simulate": ["simulate", small_ini, "--policy", solve_dir, "--scenario", "neutral",
                     "--seeds", "3"],
        "paper-run": ["paper-run", small_ini, "--seeds", "2"],
    }


@pytest.mark.parametrize("junk", ["longer", "one-byte"])
@pytest.mark.parametrize("command", ["solve", "simulate", "paper-run"])
def test_rerun_into_used_directory_matches_fresh_run(small_ini, solve_dir, tmp_path, command,
                                                     junk, capsys):
    """Files written over longer junk or over 1-byte files are those of a
    run into a fresh directory, and the manifest lists the same outputs."""
    argv = _rerun_commands(small_ini, solve_dir)[command]
    fresh, used = tmp_path / "fresh", tmp_path / "used"
    assert cli.main([*argv, "--out", str(fresh)]) == 0
    used.mkdir()
    for path in fresh.iterdir():
        size = path.stat().st_size
        (used / path.name).write_bytes(b"\xff" * (2 * size + 4096) if junk == "longer" else b"x")
    assert cli.main([*argv, "--out", str(used)]) == 0
    assert _outputs(used) == _outputs(fresh)
    capsys.readouterr()


@pytest.mark.parametrize("command,name", [("solve", "value_policy_step0001.csv"),
                                          ("solve", "tables.npz"),
                                          ("simulate", "path_neutral_seed002.csv"),
                                          ("paper-run", "manifest.json")])
def test_output_name_that_is_a_directory_is_io_error(small_ini, solve_dir, tmp_path, command,
                                                     name, capsys):
    argv = _rerun_commands(small_ini, solve_dir)[command]
    (tmp_path / "out" / name).mkdir(parents=True)
    assert cli.main([*argv, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("I/O error: ") and err.count("\n") == 1 and name in err
    assert "Traceback" not in err


# SHA-256 of every CSV that `paper-run --seeds 2` writes for 24 steps on the
# 6x7x4 grid, as earlier versions wrote them. A change that moves any of these
# bytes, even by the last bit of one float, must name and bound the drift.
# (On 6x4x4 a last-bit change of the battery sd moves no byte; here it moves
# the step CSVs and a sunny-finish path.)
PAPER_RUN_DIGESTS = {
    "path_overcast-break_seed000.csv":
        "1cb325fb890852fc54bc6c8913977f21b074268035c26ccaf09321e1e6e98a03",
    "path_overcast-break_seed001.csv":
        "8b19eed5a2dd6edc50e2b44561d3abb3f1e3f4fd9b7ee02f7f0e17dd08858d89",
    "path_overcast-week_seed000.csv":
        "331529d0f158561b594c784bca437bc85222cd90b638e4ab620f2ec94dc7029a",
    "path_overcast-week_seed001.csv":
        "78325fce3ce43ac5e54b24fb1cb7157dbb75b95cc8835da100d80fe08b14da6c",
    "path_sunny-finish_seed000.csv":
        "58c2a05f5237a842e032479469bda32e420182b05ee2dce3a549939bd4869597",
    "path_sunny-finish_seed001.csv":
        "9e6438acada5e58f1cfc1931d7c3f7344bf6057938e930f86024e08676c8b79f",
    "path_sunny-start_seed000.csv":
        "b75183544718888913fd9636f0c8bfa00a75339fb23caed618f0f955d68b2714",
    "path_sunny-start_seed001.csv":
        "4624f623b496ca78e967c0970ed176f455856fb9bdc3b08d6e682e66ca0acc70",
    "value_policy_step0000.csv":
        "2962b3e5f6a4b9d03f58e5b40c067108af12e01af95bb9720139a7bd6feacffa",
    "value_policy_step0012.csv":
        "8f2c22c0c96da557e4a4fe6c11b4bb2663c2f3d185e86925d7ed0f8049445e65",
    "value_policy_step0023.csv":
        "beb257b2cc761f91746cea3c99ca9c9b3c33893dd3fab881dadf6118748b65d2",
    "value_policy_step0024.csv":
        "9a23cd30a14e1181a4598f02bd481d12823a5a3fb6e5e65fbbd580aa73f5b1a7",
}


def test_paper_run_bytes_match_earlier_versions(cfg_table1, tmp_path, capsys):
    ini = _ini_for(small_discretization(cfg_table1, steps=24, n_q=6), tmp_path,
                  "small24.ini")
    out = tmp_path / "pipe"
    assert cli.main(["paper-run", ini, "--out", str(out), "--seeds", "2"]) == 0
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in sorted(out.glob("*.csv"))}
    assert digests == PAPER_RUN_DIGESTS
    capsys.readouterr()


def test_numerical_failure_exit_code(small_ini, tmp_path, monkeypatch, capsys):
    def boom(cfg, grid):
        raise m.NumericalError("synthetic failure")

    monkeypatch.setattr("microgrid_dp.cli.solve", boom)
    assert cli.main(["solve", small_ini, "--out", str(tmp_path / "x")]) == 3
    assert "numerical error" in capsys.readouterr().err


@pytest.mark.parametrize("detail", [
    "Unable to allocate 65.6 GiB for an array with shape (202, 101, 201, 100, 20) "
    "and data type float64",
    "",
])
def test_out_of_memory_is_one_line_numerical_error(small_ini, tmp_path, monkeypatch,
                                                   detail, capsys):
    """A lattice too large for the host ends in exit 3, not a traceback with
    exit 1. The solve is replaced, so nothing large is allocated."""
    def oom(cfg, grid):
        raise MemoryError(detail)

    monkeypatch.setattr("microgrid_dp.cli.solve", oom)
    assert cli.main(["solve", small_ini, "--out", str(tmp_path / "x")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical error: out of memory")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert detail in err
