import importlib
import json
import math
import os
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from collapse_sim import lindblad_jump_family, master_rhs, qsl_lower_bound
from collapse_sim.cli import main
from collapse_sim.config import load_run_config
from collapse_sim.csvio import read_csv_columns
from conftest import ALPHA_A, ALPHA_S


def write_config(path, **overrides):
    cfg = {
        "scenario": {
            "alpha_s": ALPHA_S,
            "alpha_a": ALPHA_A,
            "gamma": 5.0,
            "omega": 1.0,
            "epsilon": 1e-4,
        },
        "integrator": {"t_max": 1.0},
        "mode": "full",
        "outputs": {"dir": os.path.dirname(path), "plot": False},
    }
    for key, value in overrides.items():
        if isinstance(value, dict) and key in cfg:
            cfg[key].update(value)
        else:
            cfg[key] = value
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    return path


@pytest.fixture()
def config_path(tmp_path):
    return write_config(str(tmp_path / "run.json"))


class TestSimulate:
    def test_writes_trajectory_with_converged_diagonals(self, tmp_path, config_path):
        assert main(["simulate", "--config", config_path]) == 0
        cols = read_csv_columns(str(tmp_path / "trajectory.csv"))
        p1 = math.cos(ALPHA_S) ** 2
        p4 = math.sin(ALPHA_S) ** 2
        assert abs(cols["diag_0"][-1] - p1) < 1e-3
        assert abs(cols["diag_3"][-1] - p4) < 1e-3

    def test_missing_config_exits_one_naming_path(self, capsys, tmp_path):
        missing = str(tmp_path / "nope.json")
        assert main(["simulate", "--config", missing]) == 1
        assert missing in capsys.readouterr().err

    def test_invalid_json_exits_one(self, tmp_path, capsys):
        path = str(tmp_path / "broken.json")
        with open(path, "w") as fh:
            fh.write("{not json")
        assert main(["simulate", "--config", path]) == 1
        assert "JSON" in capsys.readouterr().err

    def test_usage_error_exits_one(self, capsys):
        assert main(["simulate"]) == 1

    def test_unstable_manual_step_exits_two(self, tmp_path, capsys):
        path = write_config(str(tmp_path / "stiff.json"), integrator={"t_max": 0.1, "dt": 0.01})
        assert main(["simulate", "--config", path]) == 2
        assert "numerical failure" in capsys.readouterr().err

    def test_modes_agree_at_strong_coupling(self, tmp_path):
        out_full = tmp_path / "full"
        out_fast = tmp_path / "fast"
        path = write_config(
            str(tmp_path / "strong.json"),
            scenario={"gamma": 50.0},
            integrator={"t_max": 0.1},
        )
        assert main(["simulate", "--config", path, "--mode", "full", "--out", str(out_full)]) == 0
        assert main(["simulate", "--config", path, "--mode", "fast", "--out", str(out_fast)]) == 0
        full_cols = read_csv_columns(str(out_full / "trajectory.csv"))
        fast_cols = read_csv_columns(str(out_fast / "trajectory.csv"))
        for k in range(4):
            assert abs(full_cols[f"diag_{k}"][-1] - fast_cols[f"diag_{k}"][-1]) < 1e-2

    def test_fast_mode_rejected_only_when_full_lacks_hamiltonian(self, tmp_path, capsys):
        path = str(tmp_path / "amps.json")
        cfg = {
            "scenario": {
                "sys_amplitudes": [math.cos(ALPHA_S), math.sin(ALPHA_S)],
                "app_amplitudes": [1.0, 0.0],
                "gamma": 5.0,
                "omega": 1.0,
            },
            "integrator": {"t_max": 0.5},
            "mode": "fast",
            "outputs": {"dir": str(tmp_path)},
        }
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        assert main(["simulate", "--config", path]) == 0
        assert main(["simulate", "--config", path, "--mode", "full"]) == 1
        assert "Hamiltonian" in capsys.readouterr().err

    def test_plot_writes_svg_figures(self, tmp_path, config_path):
        assert main(["simulate", "--config", config_path, "--plot"]) == 0
        for name in ("fig1.svg", "fig2.svg"):
            root = ET.parse(str(tmp_path / name)).getroot()
            assert root.tag.endswith("svg")

    @pytest.mark.parametrize(
        "section, key, value, fragment",
        [
            ("scenario", "gamma", float("nan"), "gamma"),
            ("scenario", "epsilon", float("nan"), "epsilon"),
            ("integrator", "t_max", float("nan"), "t_max"),
            ("integrator", "t_max", float("inf"), "t_max"),
            ("integrator", "dt", float("inf"), "dt"),
            ("scenario", "gamma", "five", "gamma"),
            ("scenario", "omega", float("inf"), "omega"),
            ("scenario", "alpha_s", float("nan"), "alpha_s"),
        ],
    )
    def test_non_finite_or_non_numeric_value_exits_one(self, tmp_path, capsys, section, key,
                                                       value, fragment):
        path = write_config(str(tmp_path / "bad.json"), **{section: {key: value}})
        assert main(["simulate", "--config", path]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1
        assert fragment in errors[0]

    def test_byte_identical_reruns(self, tmp_path, config_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for out in (out_a, out_b):
            assert main(["simulate", "--config", config_path, "--plot", "--out", str(out)]) == 0
        for name in ("trajectory.csv", "fig1.svg", "fig2.svg"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


class TestSpectrum:
    def test_report_one_zero_three_negative(self, tmp_path, config_path):
        assert main(["spectrum", "--config", config_path]) == 0
        cols = read_csv_columns(str(tmp_path / "spectrum.csv"))
        magnitudes = np.hypot(cols["eigenvalue_re"], cols["eigenvalue_im"])
        assert (magnitudes < 1e-9 * 5.0).sum() == 1
        assert (cols["eigenvalue_re"] < 0).sum() == 3

    def test_stationary_matches_simulate_final_diagonals(self, tmp_path, config_path):
        assert main(["simulate", "--config", config_path]) == 0
        assert main(["spectrum", "--config", config_path]) == 0
        traj = read_csv_columns(str(tmp_path / "trajectory.csv"))
        spectrum = read_csv_columns(str(tmp_path / "spectrum.csv"))
        final = np.array([traj[f"diag_{k}"][-1] for k in range(4)])
        assert np.max(np.abs(spectrum["stationary_component"] - final)) < 1e-3


class TestQsl:
    def test_report_contains_inequality(self, tmp_path, config_path):
        assert main(["qsl", "--config", config_path]) == 0
        cols = read_csv_columns(str(tmp_path / "qsl.csv"))
        assert cols["bound"][0] < cols["measured_tau"][0]
        assert cols["ratio"][0] == pytest.approx(cols["measured_tau"][0] / cols["bound"][0])

    def test_fast_mode_denominator_matches_dense_jump_family(self, tmp_path):
        path = str(tmp_path / "amps.json")
        cfg = {
            "scenario": {
                "sys_amplitudes": [0.6, 0.64, 0.48],
                "app_amplitudes": [0.48, 0.6, 0.64],
                "gamma": 5.0,
                "omega": 1.0,
            },
            "integrator": {"t_max": 2.0},
            "mode": "fast",
            "outputs": {"dir": str(tmp_path)},
        }
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        assert main(["qsl", "--config", path]) == 0
        cols = read_csv_columns(str(tmp_path / "qsl.csv"))
        model = load_run_config(path).model
        spec = lindblad_jump_family(model.rate_table(), model.gamma, model.omega)
        rho0 = model.initial_dm()
        expected = qsl_lower_bound(rho0, model.aligned_target(), master_rhs(None, spec, rho0))
        assert cols["denominator"][0] == pytest.approx(expected.denominator, rel=1e-12)


class TestSweep:
    def test_inverse_scaling_row_pair(self, tmp_path, config_path):
        assert main(["sweep", "--config", config_path, "--gammas", "5,10"]) == 0
        cols = read_csv_columns(str(tmp_path / "sweep.csv"))
        assert cols["gamma"][0] == 5.0
        assert cols["alignment_time"][1] == pytest.approx(cols["alignment_time"][0] / 2.0, rel=0.1)
        assert cols["gamma_times_tau"][0] == pytest.approx(
            cols["gamma"][0] * cols["alignment_time"][0]
        )

    def test_single_gamma_matches_simulate_alignment(self, tmp_path, config_path):
        from collapse_sim import alignment_time, simulate_model

        assert main(["sweep", "--config", config_path, "--gammas", "5"]) == 0
        cols = read_csv_columns(str(tmp_path / "sweep.csv"))
        cfg = load_run_config(config_path)
        traj = simulate_model(cfg.model, cfg.integrator, mode="full")
        tau = alignment_time(traj, cfg.model.aligned_target(), tol=0.01)
        assert cols["alignment_time"][0] == tau

    def test_empty_gamma_list_is_usage_error(self, config_path, capsys):
        assert main(["sweep", "--config", config_path, "--gammas", ""]) == 1
        assert main(["sweep", "--config", config_path]) == 1

    def test_thread_cap_env_var(self, tmp_path, config_path, monkeypatch):
        out_serial = tmp_path / "serial"
        out_threads = tmp_path / "threads"
        assert main(["sweep", "--config", config_path, "--gammas", "2.5,5",
                     "--out", str(out_serial)]) == 0
        monkeypatch.setenv("COLLAPSE_SIM_THREADS", "2")
        assert main(["sweep", "--config", config_path, "--gammas", "2.5,5",
                     "--out", str(out_threads)]) == 0
        assert (out_serial / "sweep.csv").read_bytes() == (out_threads / "sweep.csv").read_bytes()

    def test_invalid_thread_env_is_config_error(self, config_path, monkeypatch, capsys):
        monkeypatch.setenv("COLLAPSE_SIM_THREADS", "thirty")
        assert main(["sweep", "--config", config_path, "--gammas", "5"]) == 1
        assert "COLLAPSE_SIM_THREADS" in capsys.readouterr().err


def test_benchmark_tracer_targets_resolve(monkeypatch):
    # the benchmark's traced run wraps these names; a missing one would make
    # every traced op fail instead of failing here
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracer = importlib.import_module("tracer")
    for owner, attr, *_ in tracer._TARGETS:
        resolved = attr in owner.__dict__ if isinstance(owner, type) else hasattr(owner, attr)
        assert resolved, f"{owner!r} has no attribute {attr!r}"
