"""End-to-end CLI checks on a small instance: subcommands, files, exit codes."""

import dataclasses
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import microgrid_dp as m
from microgrid_dp import cli
from conftest import small_discretization
from oracles import write_paths_csv_reference, write_step_csv_reference


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


def test_usage_errors_exit_1(small_ini, capsys):
    assert cli.main(["frobnicate", small_ini]) == 1
    assert cli.main(["solve", small_ini, "--bogus-flag"]) == 1
    assert cli.main([]) == 1
    assert cli.main(["simulate", small_ini, "--policy", "x", "--scenario",
                     "martian-dust", "--out", "y"]) == 1
    capsys.readouterr()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert m.__version__ in capsys.readouterr().out


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
])
def test_calibrate_bad_inputs_are_one_line_usage_errors(small_ini, argv, capsys):
    assert cli.main(["calibrate", small_ini, *argv]) == 1
    err = capsys.readouterr().err
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
    records = m.simulate_path(policy, m.SCENARIOS["neutral"], cfg_small,
                              grid_small, path_index=0)
    first = lines[1].split(",")
    assert float(first[2]) == records[0].z
    assert first[6] == records[0].action.label
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
    scenario = m.SCENARIOS["overcast-break"].with_seed(3)
    written = cli._simulate_scenario(cfg, grid, policy, scenario, 3, str(tmp_path / "out"))
    for idx, path in enumerate(written):
        records = m.simulate_path(policy, scenario, cfg, grid, path_index=idx)
        ref = tmp_path / f"ref{idx}.csv"
        write_paths_csv_reference(records, str(ref))
        assert Path(path).read_bytes() == ref.read_bytes(), idx


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
    policy = tmp_path / "policy"
    shutil.copytree(solve_dir, policy)
    meta = policy / "value_policy_meta.json"
    meta.write_text("{not json")
    assert cli.main(["simulate", small_ini, "--policy", str(policy), "--scenario", "neutral",
                     "--out", str(tmp_path / "o")]) == 2
    meta.unlink()
    assert cli.main(["simulate", small_ini, "--policy", str(policy), "--scenario", "neutral",
                     "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 2 and "value_policy_meta.json" in err


def _text_file(path, tables):
    path.write_text("not an npz archive\n")


def _no_actions(path, tables):
    np.savez(path, values=tables["values"])


def _actions_cut_short(path, tables):
    np.savez(path, values=tables["values"], actions=tables["actions"][:, :90])


def _unknown_action_code(path, tables):
    actions = tables["actions"].copy()
    actions[0, 0] = len(m.Action)
    np.savez(path, values=tables["values"], actions=actions)


def _truncated_archive(path, tables):
    data = path.read_bytes()
    path.write_bytes(data[:len(data) // 2])


def _bare_npy_array(path, tables):
    with path.open("wb") as fh:
        np.save(fh, tables["actions"])


@pytest.mark.parametrize("corrupt", [_text_file, _no_actions, _actions_cut_short,
                                     _unknown_action_code, _truncated_archive, _bare_npy_array],
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


# SHA-256 of every CSV that `paper-run --seeds 2` writes for 24 steps on the
# 6x7x4 grid, as earlier versions wrote them. A change that moves any of these
# bytes, even by the last bit of one float, must name and bound the drift.
# (On 6x4x4 a last-bit change of the battery sd moves no byte; here it moves
# the step CSVs and a sunny-finish path.)
PAPER_RUN_DIGESTS = {
    "path_overcast-break_seed000.csv":
        "4ba388998144f92a008f8f1bd9656088e3960db5b2ddf1c79d5f3fb868804f18",
    "path_overcast-break_seed001.csv":
        "9870450a45ec6f990b4b1cef3c4fc260476d8f73defb05683af0e1b328c3549f",
    "path_overcast-week_seed000.csv":
        "b7931568bfdc08366d5b41a9bd5d7b1bb4ba0e5977c3bdbd2e4719c1930f1f6e",
    "path_overcast-week_seed001.csv":
        "4d0e8e8c1f70e9f9fb7d56371e5aebb755707ecc21814ecdc68a2355f9fd1369",
    "path_sunny-finish_seed000.csv":
        "3cf007060f918823f6aaa96d04774cb19921e8eb47ff66e132ae15aa18ed181a",
    "path_sunny-finish_seed001.csv":
        "23949d29b3a540316a4f865b12c03bea85d09f1c2837bd1f7c4ff2528b9b0e27",
    "path_sunny-start_seed000.csv":
        "a9a526725c44e1545d4239802459b1b747413e18b3f4f9e39a9ae8a1c6cd3a10",
    "path_sunny-start_seed001.csv":
        "79f6dcde0b1efe311c6cf2b62c67d9736c2a31689dcc83c54ed0cdf6570a2afb",
    "value_policy_step0000.csv":
        "fbeca961892fb0d22de63909cea5e1ab0c0f2863d3f9688d5f5249b8cd15d97f",
    "value_policy_step0012.csv":
        "2ea8c13f8590ebadba822ec044520f87b1b7d21ba819c583afac0b0616f6fd9b",
    "value_policy_step0023.csv":
        "2284a98ed9aeb28fd74b4fa4229adc44cf607cb3aa2d9e31cb2d49a8ed078a57",
    "value_policy_step0024.csv":
        "650370c959277d015d75b592deaac5e062aac826dc0fa2d15ca1b8a5898d48a2",
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
