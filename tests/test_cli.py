"""The `car2` command-line contract: outputs, reruns and exit codes.

Exit codes: 0 success, 2 argument or config error (including a regime with
no NLRR normalization), 3 numeric failure.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import car2.io
from car2 import ExperimentConfig, run_experiment
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
    "steps_per_unit_time_0": _set("steps_per_unit_time", 0),
    "n_reference_0": _set("n_reference", 0),
    "horizons_empty": _set("horizons", []),
    "horizon_zero": _set("horizons", [0.0, 1.0]),
    "horizon_bool": _set("horizons", [True]),
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

    def test_nlrr_on_unstable_oscillation_exits_2(self, tmp_path, capsys):
        # The regime table says "yes": its NLRR exists only in matrix form.
        config = _config(params={"theta1": 0.5, "theta2": -1.0625}, horizons=[4.0],
                         n_reps=10, normalization="nlrr", comparison=NORMAL_REF)
        code, _, err = _run(capsys, ["experiment", "--config", _write(tmp_path, config),
                                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "no NLRR" in err and "UnstableOscillation" in err


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
    config = _config(params={"theta1": 3.0, "theta2": -2.0, "x0": 0.3, "dx0": -0.2},
                     horizons=[120.0], n_reps=4)
    code, _, err = _run(capsys, ["experiment", "--config", _write(tmp_path, config),
                                 "--out", str(tmp_path / "out")])
    assert code == 3
    assert err.startswith("numeric failure: ")


def test_runs_without_jsonschema():
    script = ("import sys; sys.modules['jsonschema'] = None\n"
              "from car2.cli import main\n"
              "sys.exit(main(['roots', '--theta1', '0', '--theta2', '-1']))\n")
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["regime"] == "Harmonic"
