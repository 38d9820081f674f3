"""The `car2` command-line contract: outputs, reruns and exit codes.

Exit codes: 0 success, 2 argument, config or file error (including a regime
with no NLRR normalization), 3 numeric failure.
"""

import importlib
import json
import math
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import car2
import car2.cli
import car2.io
import car2.model
import car2.montecarlo
from car2 import (
    ExperimentConfig,
    NoNlrrError,
    SimulationOverflowError,
    SingularDesignError,
    run_experiment,
)
from car2.cli import main

MODEL = ["--theta1", "-3", "--theta2", "-2", "--x0", "0.3", "--dx0", "-0.2"]


def _config(command="experiment", **overrides):
    config = {
        "command": command,
        "params": {"theta1": -3.0, "theta2": -2.0, "sigma": 1.0, "x0": 0.3, "dx0": -0.2},
        "horizons": [1.0, 2.0, 4.0],
        "n_reps": 12,
        "seed": 5,
        "steps_per_unit_time": 20,
        "comparison": "limit_sampler",
        "n_reference": 200,
        "grid_n": 50,
        "write_residuals": True,
    }
    config.update(overrides)
    return config


def _write(tmp_path, config, name="config.json"):
    dest = tmp_path / name
    dest.write_text(config if isinstance(config, str) else json.dumps(config))
    return str(dest)


def _run(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


class TestSubcommandOutputs:
    def test_roots(self, capsys):
        code, out, _ = _run(capsys, ["roots", *MODEL])
        assert code == 0
        info = json.loads(out)
        assert info["regime"] == "Ergodic"
        assert sorted([info["p"][0], info["q"][0]]) == pytest.approx([-2.0, -1.0])
        assert _run(capsys, ["roots", *MODEL])[1] == out

    def test_simulate_then_estimate(self, tmp_path, capsys):
        outputs = []
        for run in ("a", "b"):
            sim_dir, est_dir = tmp_path / run / "sim", tmp_path / run / "est"
            argv = ["simulate", *MODEL, "--horizon", "5", "--n-steps", "500",
                    "--seed", "3", "--out", str(sim_dir)]
            assert _run(capsys, argv)[0] == 0
            assert _run(capsys, ["estimate", "--path", str(sim_dir / "path.csv"),
                                 "--out", str(est_dir)])[0] == 0
            outputs.append((_files(sim_dir), _files(est_dir)))
        sim, est = outputs[0]
        assert set(sim) == {"path.csv", "path.meta.json"}
        assert set(est) == {"estimate.json"}
        assert outputs[1] == outputs[0]
        record = json.loads(est["estimate.json"])
        assert (record["T"], record["n"], record["seed"]) == (5.0, 500, 3)
        # the sigma the estimator used: the path's own, read from its meta file
        assert record["sigma_used"] == json.loads(sim["path.meta.json"])["params"]["sigma"] == 1.0

    def test_limit_sample(self, tmp_path, capsys):
        outputs = []
        for run in ("a", "b"):
            argv = ["limit-sample", "--theta1", "0", "--theta2", "-1", "--n", "40",
                    "--grid-n", "1000", "--seed", "2", "--out", str(tmp_path / run)]
            assert _run(capsys, argv)[0] == 0
            outputs.append(_files(tmp_path / run))
        assert set(outputs[0]) == {"limit.csv", "limit.meta.json"}
        assert outputs[1] == outputs[0]
        meta = json.loads(outputs[0]["limit.meta.json"])
        assert (meta["regime"], meta["n"], meta["grid_n"]) == ("Harmonic", 40, 1000)

    def test_experiment(self, tmp_path, capsys):
        config = _write(tmp_path, _config())
        outputs = []
        for run in ("a", "b"):
            code, _, _ = _run(capsys, ["experiment", "--config", config,
                                       "--out", str(tmp_path / run)])
            assert code == 0
            outputs.append(_files(tmp_path / run))
        assert set(outputs[0]) == {"report.json", "residuals.csv"}
        assert outputs[1] == outputs[0]
        report = json.loads(outputs[0]["report.json"])
        assert (report["regime"], report["seed"], report["n_reps"]) == ("Ergodic", 5, 12)
        assert report["steps_per_unit_time"] == 20
        assert [h["n_used"] + h["n_excluded"] for h in report["horizons"]] == [12] * 3

    def test_experiment_defaults_and_seed_override(self, tmp_path, capsys):
        config = _config(n_reps=3, horizons=[1.0], comparison="none")
        for key in ("steps_per_unit_time", "n_reference", "grid_n", "write_residuals"):
            del config[key]
        path = _write(tmp_path, config)
        code, _, _ = _run(capsys, ["experiment", "--config", path, "--seed", "9",
                                   "--out", str(tmp_path / "out")])
        assert code == 0
        assert set(_files(tmp_path / "out")) == {"report.json"}
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert (report["seed"], report["steps_per_unit_time"]) == (9, 100)
        assert report["normalization"] == "deterministic_rate"
        assert report["horizons"][0]["n_steps"] == 100

    def test_convergence(self, tmp_path, capsys):
        config = _write(tmp_path, _config("convergence"))
        outputs = []
        for run in ("a", "b"):
            code, _, _ = _run(capsys, ["convergence", "--config", config,
                                       "--out", str(tmp_path / run)])
            assert code == 0
            outputs.append(_files(tmp_path / run))
        assert set(outputs[0]) == {"convergence.json"}
        assert outputs[1] == outputs[0]
        report = json.loads(outputs[0]["convergence.json"])
        assert [row["horizon"] for row in report["rows"]] == [1.0, 2.0, 4.0]


def _drop(key):
    def edit(config):
        del config[key]
    return edit


def _set(*path_and_value):
    *path, value = path_and_value

    def edit(config):
        node = config
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return edit


NORMAL_REF = {"mean1": 0.0, "var1": 1.0}

REJECTED = {
    "unknown_top_level_key": _set("bogus", 1),
    "unknown_params_key": _set("params", "bogus", 1),
    "unknown_comparison_key": _set("comparison", {**NORMAL_REF, "bogus": 1}),
    "missing_n_reps": _drop("n_reps"),
    "missing_seed": _drop("seed"),
    "missing_command": _drop("command"),
    "missing_theta2": lambda c: c["params"].pop("theta2"),
    "missing_var1": _set("comparison", {"mean1": 0.0}),
    "theta1_bool": _set("params", "theta1", True),
    "theta1_string": _set("params", "theta1", "1"),
    "sigma_negative": _set("params", "sigma", -1.0),
    "var1_negative": _set("comparison", {**NORMAL_REF, "var1": -1}),
    "var2_negative": _set("comparison", {**NORMAL_REF, "mean2": 0.0, "var2": -1}),
    "grid_n_1": _set("grid_n", 1),
    "n_reps_1": _set("n_reps", 1),
    "seed_negative": _set("seed", -1),
    "seed_2_64": _set("seed", 2**64),
    "steps_per_unit_time_0": _set("steps_per_unit_time", 0),
    "n_reference_0": _set("n_reference", 0),
    "horizons_empty": _set("horizons", []),
    "horizon_zero": _set("horizons", [0.0, 1.0]),
    "horizon_bool": _set("horizons", [True]),
    "horizons_repeated": _set("horizons", [5.0, 5.0]),
    # json.load reads NaN and Infinity; they are not numbers a run can use.
    "horizon_inf": _set("horizons", [1.0, math.inf]),
    "horizon_nan": _set("horizons", [math.nan]),
    "mean1_nan": _set("comparison", {**NORMAL_REF, "mean1": math.nan}),
    "var1_inf": _set("comparison", {**NORMAL_REF, "var1": math.inf}),
    "normalization_unknown": _set("normalization", "bogus"),
    "comparison_unknown": _set("comparison", "bogus"),
    "comparison_number": _set("comparison", 3),
    "params_not_object": _set("params", [-3.0, -2.0]),
    "write_residuals_not_bool": _set("write_residuals", 1),
    "command_mismatch": _set("command", "convergence"),
    # Integral floats are not integers: they would reach range() or be
    # echoed into report.json as 1.0 / 10.0.
    "n_reps_float": _set("n_reps", 2.0),
    "n_reference_float": _set("n_reference", 50.0),
    "seed_float": _set("seed", 1.0),
    "steps_per_unit_time_float": _set("steps_per_unit_time", 10.0),
    "seed_bool": _set("seed", True),
    # A second reference variance needs a mean to shift by.
    "var2_without_mean2": _set("comparison", {**NORMAL_REF, "var2": 1.0}),
}

# Configs that a rule of their regime rejects: no scalar NLRR rate, a
# functional limit law on too coarse a grid, a limit law that needs sigma > 0.
REGIME_RULES = {
    "nlrr_harmonic": dict(params={"theta1": 0.0, "theta2": -1.0}, normalization="nlrr",
                          comparison=NORMAL_REF),
    "zero_double_grid_999": dict(params={"theta1": 0.0, "theta2": 0.0}, grid_n=999),
    "distinct_positive_sigma_0": dict(params={"theta1": 1.5, "theta2": -0.5, "sigma": 0.0}),
}


class TestConfigErrors:
    @pytest.mark.parametrize("edit", REJECTED.values(), ids=REJECTED.keys())
    def test_rejected_config_exits_2(self, tmp_path, capsys, edit):
        config = _config()
        edit(config)
        code, _, err = _run(capsys, ["experiment", "--config", _write(tmp_path, config),
                                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert err.startswith("error: ")
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_convergence_rejects_experiment_config(self, tmp_path, capsys):
        code, _, err = _run(capsys, ["convergence", "--config", _write(tmp_path, _config()),
                                     "--out", str(tmp_path / "out")])
        assert code == 2 and err.startswith("error: ")

    @pytest.mark.parametrize("text", ["[1, 2]", "3", "null", "{not json"])
    def test_not_a_json_object(self, tmp_path, capsys, text):
        code, _, err = _run(capsys, ["experiment", "--config", _write(tmp_path, text)])
        assert code == 2 and err.startswith("error: ")

    def test_unreadable_file(self, tmp_path, capsys):
        code, _, err = _run(capsys, ["experiment", "--config", str(tmp_path / "missing.json")])
        assert code == 2 and err.startswith("error: ")

    @pytest.mark.parametrize("command", ["roots", "limit-sample"])
    @pytest.mark.parametrize("tol", ["inf", "nan", "-1"])
    def test_bad_tol_exits_2(self, tmp_path, capsys, command, tol):
        # tol inf snapped every root to 0 (ZeroDouble), nan acted like 0.
        extra = ["--n", "5", "--out", str(tmp_path / "out")] if command == "limit-sample" else []
        code, out, err = _run(capsys, [command, *MODEL, "--tol", tol, *extra])
        assert code == 2 and err.startswith("error: ") and "tol" in err
        assert out == "" and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("theta", [("0.5", "-1.0625"), ("-3", "-2")],
                             ids=["unstable_oscillation", "ergodic"])
    @pytest.mark.parametrize("horizon", ["nan", "inf", "-5"])
    def test_bad_limit_horizon_exits_2(self, tmp_path, capsys, theta, horizon):
        # nan wrote all-NaN UnstableOscillation draws; inf wrote
        # "horizon": Infinity, which is not JSON.
        code, out, err = _run(capsys, ["limit-sample", "--theta1", theta[0], "--theta2", theta[1],
                                       "--n", "3", "--horizon", horizon,
                                       "--out", str(tmp_path / "out")])
        assert code == 2 and err.startswith("error: ") and "horizon" in err
        assert out == "" and not (tmp_path / "out").exists()

    def test_missing_path_csv_exits_2(self, tmp_path, capsys):
        sim_dir = _simulate(tmp_path, capsys)
        code, _, err = _run(capsys, ["estimate", "--path", str(tmp_path / "missing.csv"),
                                     "--meta", str(sim_dir / "path.meta.json"),
                                     "--out", str(tmp_path / "est")])
        assert code == 2 and err.startswith("error: ")
        assert "Traceback" not in err and not (tmp_path / "est").exists()

    def test_simulate_out_is_a_file_exits_2(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("keep\n")
        code, _, err = _run(capsys, ["simulate", *MODEL, "--horizon", "1", "--n-steps", "10",
                                     "--out", str(taken)])
        assert code == 2 and err.startswith("error: ")
        assert taken.read_text() == "keep\n"

    def test_negative_seed_override(self, tmp_path, capsys):
        code, _, err = _run(capsys, ["experiment", "--config", _write(tmp_path, _config()),
                                     "--seed", "-1", "--out", str(tmp_path / "out")])
        assert code == 2 and err.startswith("error: ")

    def test_nlrr_on_harmonic_exits_2(self, tmp_path, capsys):
        config = _config(params={"theta1": 0.0, "theta2": -1.0}, normalization="nlrr",
                         comparison=NORMAL_REF)
        code, _, err = _run(capsys, ["experiment", "--config", _write(tmp_path, config),
                                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "no NLRR" in err

    @pytest.mark.parametrize("edit", [
        dict(params={"theta1": 0.0, "theta2": -1.0}, grid_n=500),  # Harmonic
        dict(params={"theta1": 3.0, "theta2": -2.0, "sigma": 0.0}),  # DistinctPositive
        dict(params={"theta1": 0.5, "theta2": -1.0625, "sigma": 0.0}),  # UnstableOscillation
    ], ids=["harmonic_coarse_grid", "distinct_positive_sigma_0", "unstable_sigma_0"])
    def test_undrawable_limit_law_exits_2_before_simulating(self, tmp_path, capsys,
                                                             monkeypatch, edit):
        calls = []

        def recording(*args, **kwargs):
            calls.append(args)
            return simulate_exact(*args, **kwargs)

        simulate_exact = car2.montecarlo.simulate_exact
        monkeypatch.setattr(car2.montecarlo, "simulate_exact", recording)
        code, _, err = _run(capsys, ["experiment", "--config", _write(tmp_path, _config(**edit)),
                                     "--out", str(tmp_path / "out")])
        assert code == 2 and err.startswith("error: ")
        assert calls == []

    def test_nlrr_on_unstable_oscillation_exits_2(self, tmp_path, capsys):
        # The regime table says "yes": its NLRR exists only in matrix form.
        config = _config(params={"theta1": 0.5, "theta2": -1.0625}, horizons=[4.0],
                         n_reps=10, normalization="nlrr", comparison=NORMAL_REF)
        code, _, err = _run(capsys, ["experiment", "--config", _write(tmp_path, config),
                                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "no NLRR" in err and "UnstableOscillation" in err

    @pytest.mark.parametrize("edit", REGIME_RULES.values(), ids=REGIME_RULES.keys())
    def test_regime_rule_rejects_config_at_load(self, tmp_path, capsys, edit):
        # A rule of the regime rejects the config as it is built, so the
        # convergence command, which draws no limit samples, exits 2 as well.
        config = _config("convergence", **edit)
        fields = {k: v for k, v in config.items() if k not in ("command", "write_residuals")}
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict(fields)
        code, _, err = _run(capsys, ["convergence", "--config", _write(tmp_path, config),
                                     "--out", str(tmp_path / "out")])
        assert code == 2 and err.startswith("error: ")
        assert not (tmp_path / "out").exists()


def _simulate(tmp_path, capsys, *extra):
    sim_dir = tmp_path / "sim"
    argv = ["simulate", *MODEL, "--horizon", "5", "--n-steps", "500", "--seed", "3",
            "--out", str(sim_dir), *extra]
    assert _run(capsys, argv)[0] == 0
    return sim_dir


RESCALED_META = """{
  "horizon": 1.6666666666666667,
  "n_steps": 500,
  "params": {
    "dx0": -0.6000000000000001,
    "sigma": 5.196152422706632,
    "theta1": -9.0,
    "theta2": -18.0,
    "x0": 0.3
  },
  "replication_index": 0,
  "seed": 3
}
"""


def test_simulate_meta_pinned(tmp_path, capsys):
    # The params block is every ModelParams field of the written (rescaled) path.
    sim_dir = _simulate(tmp_path, capsys, "--rescale", "3")
    assert (sim_dir / "path.meta.json").read_text() == RESCALED_META


class TestPathTimeColumn:
    """estimate reads only paths on the grid t_i = i*T/n that simulate writes."""

    @pytest.mark.parametrize("extra", [[], ["--rescale", "3"]], ids=["plain", "rescaled"])
    def test_simulated_paths_read_back(self, tmp_path, capsys, extra):
        sim_dir = _simulate(tmp_path, capsys, *extra)
        code, _, _ = _run(capsys, ["estimate", "--path", str(sim_dir / "path.csv"),
                                   "--out", str(tmp_path / "est")])
        assert code == 0
        record = json.loads((tmp_path / "est" / "estimate.json").read_text())
        assert record["n"] == 500
        assert record["T"] == pytest.approx(5.0 / 3.0 if extra else 5.0, rel=1e-15)

    @pytest.mark.parametrize("retime", [
        lambda i, t: t + 10.0,  # shifted to start at 10
        lambda i, t: t if i <= 250 else 2.5 + 1.5 * (t - 2.5),  # stretched second half
    ], ids=["shifted", "non_uniform"])
    def test_other_time_columns_exit_2(self, tmp_path, capsys, retime):
        sim_dir = _simulate(tmp_path, capsys)
        csv = sim_dir / "path.csv"
        header, *rows = csv.read_text().splitlines()
        rows = [",".join([repr(retime(i, float(t))), rest])
                for i, (t, rest) in enumerate(row.split(",", 1) for row in rows)]
        csv.write_text("\n".join([header, *rows]) + "\n")
        code, _, err = _run(capsys, ["estimate", "--path", str(csv),
                                     "--out", str(tmp_path / "est")])
        assert code == 2 and err.startswith("error: ") and "t column" in err
        assert not (tmp_path / "est").exists()


def _with_field(line, index, value):
    fields = line.split(",")
    fields[index] = value
    return ",".join(fields)


class TestEstimateInputErrors:
    """estimate exits 2 with an error line, and writes nothing, for a path
    file or metadata it cannot use."""

    @pytest.mark.parametrize("edit, message", [
        (lambda lines: ["t,x,v", *lines[1:]], "unexpected CSV header"),
        (lambda lines: [*lines[:3], lines[3].rsplit(",", 1)[0], *lines[4:]],
         "malformed CSV row"),
        (lambda lines: [lines[0], _with_field(lines[1], 3, "0.1"), *lines[2:]],
         "dw column must be all empty or filled on every step row"),
        (lambda lines: [*lines[:3], _with_field(lines[3], 1, "nan"), *lines[4:]],
         "path contains non-finite samples"),
        (lambda lines: [lines[0], lines[1], "5.0,0.1,0.1,"], "need at least 2 steps"),
    ], ids=["wrong_header", "three_field_row", "dw_on_one_row", "nan_sample", "one_step"])
    def test_bad_path_csv_exits_2(self, tmp_path, capsys, edit, message):
        csv = _simulate(tmp_path, capsys) / "path.csv"
        csv.write_text("\n".join(edit(csv.read_text().splitlines())) + "\n")
        code, out, err = _run(capsys, ["estimate", "--path", str(csv),
                                       "--out", str(tmp_path / "est")])
        assert code == 2 and err.startswith("error: ") and message in err
        assert out == "" and not (tmp_path / "est").exists()

    @pytest.mark.parametrize("meta", [None, '{"seed": 3}\n'], ids=["missing", "no_params"])
    def test_bad_meta_exits_2(self, tmp_path, capsys, meta):
        sim_dir = _simulate(tmp_path, capsys)
        meta_file = tmp_path / "other.meta.json"
        if meta is not None:
            meta_file.write_text(meta)
        code, out, err = _run(capsys, ["estimate", "--path", str(sim_dir / "path.csv"),
                                       "--meta", str(meta_file), "--out", str(tmp_path / "est")])
        assert code == 2 and err.startswith("error: cannot read path metadata")
        assert out == "" and not (tmp_path / "est").exists()


@pytest.mark.parametrize("extra, message", [
    (["--horizon", "0"], "horizon must be positive, got 0.0"),
    (["--horizon", "nan"], "horizon must be positive, got nan"),
    (["--n-steps", "0"], "n_steps must be >= 1, got 0"),
    (["--rescale", "0"], "alpha must be positive, got 0.0"),
], ids=["horizon_0", "horizon_nan", "n_steps_0", "rescale_0"])
def test_bad_simulate_grid_exits_2(tmp_path, capsys, extra, message):
    code, out, err = _run(capsys, ["simulate", *MODEL, "--horizon", "5", "--n-steps", "500",
                                   *extra, "--out", str(tmp_path / "sim")])
    assert (code, err) == (2, f"error: {message}\n")
    assert out == "" and not (tmp_path / "sim").exists()


def test_atomic_write_leaves_no_temp_file(tmp_path, monkeypatch):
    def refuse(src, dst):
        raise OSError("replace refused")

    monkeypatch.setattr(car2.io.os, "replace", refuse)
    with pytest.raises(OSError, match="replace refused"):
        car2.io.atomic_write_text(tmp_path / "out.txt", "text\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
def test_artifacts_take_the_umask(tmp_path, capsys, monkeypatch, umask, mode):
    # The mode open(dest, "w") would give, not the temp file's 0o600, and
    # without setting the umask, which is process-wide: a file another
    # thread created meanwhile would take the value set.
    def refuse(mask):
        raise AssertionError("os.umask called")

    set_umask = os.umask
    old = set_umask(umask)
    try:
        with monkeypatch.context() as patch:
            patch.setattr(os, "umask", refuse)
            sim_dir = _simulate(tmp_path, capsys)
    finally:
        set_umask(old)
    assert {f.name: f.stat().st_mode & 0o777 for f in sim_dir.iterdir()} == {
        "path.csv": mode, "path.meta.json": mode}


def test_simulate_rejects_scheme_option(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", *MODEL, "--horizon", "1", "--n-steps", "10", "--scheme", "exact",
              "--out", str(tmp_path / "sim")])
    assert exc.value.code == 2 and "--scheme" in capsys.readouterr().err
    assert not (tmp_path / "sim").exists()


def _strict_json(text):
    """Parse JSON proper: the NaN and Infinity tokens json.dumps may write are errors."""
    def refuse(token):
        raise ValueError(f"{token} is not JSON")
    return json.loads(text, parse_constant=refuse)


DISTINCT_POSITIVE = {"theta1": 3.0, "theta2": -2.0, "sigma": 1.0, "x0": 0.3, "dx0": -0.2}


class TestNonFiniteStatistics:
    """A statistic that is not a finite number is written as null; keys stay."""

    def _artifact(self, tmp_path, capsys, config, name):
        command = config["command"]
        code, _, _ = _run(capsys, [command, "--config", _write(tmp_path, config),
                                   "--out", str(tmp_path / "out")])
        assert code == 0
        return _strict_json((tmp_path / "out" / name).read_text())

    def test_larger_root_zero_nlrr_has_no_theta2_statistics(self, tmp_path, capsys):
        # The NLRR normalizes theta1 only, so every r2 is NaN by design.
        config = _config(params={"theta1": -2.0, "theta2": 0.0, "x0": 0.3, "dx0": -0.2},
                         horizons=[2.0, 4.0], n_reps=6, normalization="nlrr",
                         comparison={"mean1": 0.0, "var1": 1.0, "mean2": 0.0, "var2": 1.0})
        report = self._artifact(tmp_path, capsys, config, "report.json")
        for h in report["horizons"]:
            assert set(h) == {"horizon", "n_steps", "n_used", "n_excluded", "ks1", "ks2",
                              "quantiles1", "quantiles2"}
            assert 0.0 <= h["ks1"] <= 1.0 and h["ks2"] is None
            assert all(isinstance(q, float) for q in h["quantiles1"].values())
            assert list(h["quantiles2"].values()) == [None] * 9

    def test_nan_estimates_give_null_ks_and_quantiles(self, tmp_path, capsys):
        # At T = 200 the paths near 1e300 overflow the sums to NaN estimates.
        config = _config(params=DISTINCT_POSITIVE, horizons=[200.0], n_reps=4, seed=1)
        (h,) = self._artifact(tmp_path, capsys, config, "report.json")["horizons"]
        assert h["ks1"] is None and h["ks2"] is None
        assert list(h["quantiles1"].values()) == list(h["quantiles2"].values()) == [None] * 9

    def test_nan_medians_are_null(self, tmp_path, capsys):
        config = _config("convergence", params=DISTINCT_POSITIVE, horizons=[350.0, 352.0, 354.5],
                         n_reps=4, seed=1, steps_per_unit_time=2, comparison="none")
        report = self._artifact(tmp_path, capsys, config, "convergence.json")
        assert [row["horizon"] for row in report["rows"]] == [350.0, 352.0, 354.5]
        for row in report["rows"]:
            assert row["raw_median"] == row["normalized_median"] == [None, None]
        assert report["stabilized"] == [False, False]


def test_residuals_written_through_io(tmp_path, capsys, monkeypatch):
    # One row writer in car2.io: ints via str, floats via repr.
    written = []

    def recording(dest, text):
        written.append(Path(dest).name)
        return atomic_write_text(dest, text)

    atomic_write_text = car2.io.atomic_write_text
    monkeypatch.setattr(car2.io, "atomic_write_text", recording)
    config = _config()
    code, _, _ = _run(capsys, ["experiment", "--config", _write(tmp_path, config),
                               "--out", str(tmp_path / "out")])
    assert code == 0
    assert written == ["report.json", "residuals.csv"]
    del config["command"], config["write_residuals"]
    report = run_experiment(ExperimentConfig.from_dict(config))
    rows = "".join(f"{k},{T!r},{a!r},{b!r}\n" for k, T, a, b in report.residual_rows())
    assert (tmp_path / "out" / "residuals.csv").read_text() == "rep,T,r1,r2\n" + rows


def test_overflow_exits_3(tmp_path, capsys):
    # No path leaves float64 here: at T = 120 the paths stay finite, and the
    # exit comes from the OverflowError of the rotated solve's Python-float
    # SXV**2 (its cond_flag diagnostic), not from an overflow exclusion.
    config = _config(params={"theta1": 3.0, "theta2": -2.0, "x0": 0.3, "dx0": -0.2},
                     horizons=[120.0], n_reps=4)
    code, _, err = _run(capsys, ["experiment", "--config", _write(tmp_path, config),
                                 "--out", str(tmp_path / "out")])
    assert code == 3
    assert err.startswith("numeric failure: ")


@pytest.mark.parametrize("theta1, theta2, horizon", [(3.0, -2.0, 355.0), (401.0, -400.0, 2.0)],
                         ids=["paths-overflow", "kernel-overflows"])
def test_all_overflow_exits_3(tmp_path, capsys, theta1, theta2, horizon):
    # One step per unit time: every path leaves float64.  At (401, -400) the
    # step's transition covariance itself overflows, and the run ends the
    # same way as when only the paths do.
    config = _config(params={**DISTINCT_POSITIVE, "theta1": theta1, "theta2": theta2},
                     horizons=[horizon], n_reps=4, steps_per_unit_time=1, comparison="none")
    code, _, err = _run(capsys, ["experiment", "--config", _write(tmp_path, config),
                                 "--out", str(tmp_path / "out")])
    assert code == 3
    assert err == f"numeric failure: all 4 replications failed at T={horizon}\n"


@pytest.mark.parametrize("horizon", ["120", "200"])
def test_non_finite_path_estimate_exits_3(tmp_path, capsys, horizon):
    # At T = 200 the sums overflow to NaN estimates; at T = 120 SXV^2 overflows.
    # Neither writes an estimate.json, whose NaN would not be valid JSON.
    sim_dir = tmp_path / "sim"
    assert _run(capsys, ["simulate", "--theta1", "3", *MODEL[2:], "--horizon", horizon,
                         "--n-steps", "4000", "--out", str(sim_dir)])[0] == 0
    code, _, err = _run(capsys, ["estimate", "--path", str(sim_dir / "path.csv"),
                                 "--out", str(tmp_path / "est")])
    assert code == 3 and err.startswith("numeric failure: ")
    assert not (tmp_path / "est").exists()


@pytest.mark.parametrize("command", ["simulate", "experiment"])
def test_non_psd_transition_covariance_exits_3(tmp_path, capsys, monkeypatch, command):
    # A covariance that is not PSD is a numeric failure, not a config error.
    # (2, -0.999975) at h = 1/64 gives one today; this one is clearly not PSD.
    def non_psd(params, h):
        kern = car2.model.transition(params, h)
        return car2.model.TransitionKernel(kern.mean_matrix, np.diag([h, 1.0, -1.0]))

    # car2.simulate is the function
    monkeypatch.setattr(importlib.import_module("car2.simulate"), "transition", non_psd)
    if command == "simulate":
        argv = ["simulate", *MODEL, "--horizon", "1", "--n-steps", "64"]
    else:
        config = _config(horizons=[1.0], n_reps=4, comparison="none")
        argv = ["experiment", "--config", _write(tmp_path, config)]
    code, out, err = _run(capsys, [*argv, "--out", str(tmp_path / "out")])
    assert (code, out) == (3, "")
    assert err == "numeric failure: transition covariance not PSD: min eigenvalue -1.000e+00\n"
    assert not (tmp_path / "out").exists()


# Each exception a command may raise, and the exit code `main` maps it to.
RAISED = {
    "no_nlrr": (NoNlrrError("no NLRR for Harmonic"), 2),
    "singular_design": (SingularDesignError(0.0, 1e-12), 3),
    "simulation_overflow": (SimulationOverflowError(step=3, horizon_reached=1.5), 3),
    "floating_point": (FloatingPointError("covariance not PSD"), 3),
    "overflow": (OverflowError("(34, 'Numerical result out of range')"), 3),
    "runtime": (RuntimeError("all 4 replications failed"), 3),
    "value": (ValueError("tol must be finite"), 2),
    "json_decode": (json.JSONDecodeError("Expecting value", "{not json", 1), 2),
    "os": (OSError("No such file or directory"), 2),
}
PREFIXES = {2: "error: ", 3: "numeric failure: "}
# Exit code by base class: argument, config or file errors, then numeric failures.
FAMILIES = {2: (ValueError, OSError), 3: (RuntimeError, ArithmeticError)}


def _exit_for(monkeypatch, capsys, exc):
    """main's exit code and stderr when the roots command raises exc."""
    def raising(args):
        raise exc

    monkeypatch.setattr(car2.cli, "cmd_roots", raising)
    code, out, err = _run(capsys, ["roots", "--theta1", "0", "--theta2", "-1"])
    assert out == ""
    return code, err


@pytest.mark.parametrize("name", sorted(RAISED))
def test_exit_code_of_each_exception(monkeypatch, capsys, name):
    exc, code = RAISED[name]
    assert _exit_for(monkeypatch, capsys, exc) == (code, f"{PREFIXES[code]}{exc}\n")


def _package_exceptions():
    """Every exception class defined in a module of the car2 package."""
    found = set()
    for info in pkgutil.iter_modules(car2.__path__):
        module = importlib.import_module(f"car2.{info.name}")
        found.update(obj for obj in vars(module).values()
                     if isinstance(obj, type) and issubclass(obj, BaseException)
                     and obj.__module__ == module.__name__)
    return sorted(found, key=lambda cls: f"{cls.__module__}.{cls.__qualname__}")


def test_package_exceptions_exit_by_base_family(monkeypatch, capsys):
    classes = _package_exceptions()
    assert {NoNlrrError, SingularDesignError, SimulationOverflowError} <= set(classes)
    for cls in classes:
        (code,) = [code for code, bases in FAMILIES.items() if issubclass(cls, bases)]
        exc = cls.__new__(cls)  # past its own __init__: only the class matters
        BaseException.__init__(exc, "raised")
        assert _exit_for(monkeypatch, capsys, exc) == (code, f"{PREFIXES[code]}raised\n"), cls


def test_runs_without_jsonschema():
    script = ("import sys; sys.modules['jsonschema'] = None\n"
              "from car2.cli import main\n"
              "sys.exit(main(['roots', '--theta1', '0', '--theta2', '-1']))\n")
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["regime"] == "Harmonic"
