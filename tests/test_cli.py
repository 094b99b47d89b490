import importlib
import json
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import collapse_sim
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

    def test_fig1_legend_follows_assignment_order(self, tmp_path):
        cases = [
            # outcome 1 takes readings 2 then 1, so assignment order is not flat order
            ({"sys_amplitudes": [0.6, 0.8], "app_amplitudes": [0.5, 0.5, [0.5, 0.5]],
              "correspondence": {"assignment": {"0": [0], "1": [2, 1]}, "weights": {"1": [0.25, 0.75]}}},
             ["diag_0 / 0.36", "diag_5 / 0.16", "diag_4 / 0.48", "re_0_5"]),
            # n = 9 > 8: the aligned coherence (1, 6) is plotted though trajectory.csv holds only (0, 8)
            ({"sys_amplitudes": [0.6, 0.64, 0.48], "app_amplitudes": [0.6, 0.64, 0.48],
              "correspondence": {"assignment": {"0": [1], "1": [2], "2": [0]}}},
             ["diag_1 / 0.36", "diag_5 / 0.4096", "diag_6 / 0.2304", "re_1_6"]),
            # n = 1: no coherence to plot
            ({"sys_amplitudes": [1], "app_amplitudes": [1]}, ["diag_0 / 1"]),
        ]
        for k, (scenario, expected) in enumerate(cases):
            out = tmp_path / str(k)
            path = str(tmp_path / f"case{k}.json")
            cfg = {
                "scenario": {**scenario, "gamma": 5.0, "omega": 1.0},
                "integrator": {"t_max": 1.0},
                "mode": "fast",
                "outputs": {"dir": str(out), "plot": True},
            }
            with open(path, "w") as fh:
                json.dump(cfg, fh)
            assert main(["simulate", "--config", path]) == 0
            root = ET.parse(str(out / "fig1.svg")).getroot()
            labels = [el.text for el in root.iter()
                      if el.tag.endswith("text") and el.text.startswith(("diag_", "re_"))]
            assert labels == expected

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
            ("scenario", "gamma", 1e308, "gamma * omega"),
            ("integrator", "t_max", 1e20, "t_max"),
            ("integrator", "dt", 1e-300, "dt"),
            ("scenario", "omega", 1e300, "steps"),
            # JSON true is not the number 1
            ("integrator", "t_max", True, "t_max must be a finite number, got True"),
            ("scenario", "gamma", True, "gamma must be a finite number, got True"),
            ("integrator", "record_every", True, "record_every must be an integer, got True"),
            # a JSON string is not a number, whatever it spells
            ("scenario", "gamma", "5", "gamma must be a finite number, got '5'"),
            ("scenario", "alpha_s", "1.16", "alpha_s must be a finite number, got '1.16'"),
            ("integrator", "record_points", "240", "record_points must be an integer, got '240'"),
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

    @pytest.mark.parametrize(
        "overrides, fragment",
        [
            ({"correspondence": {"assignment": {"x": [0]}}}, "correspondence outcome"),
            ({"correspondence": {"assignment": {"7": [0]}}}, "outside 0..1"),
            ({"correspondence": {"assignment": {"0": [0], "1": [5]}}}, "correspondence reading"),
            ({"correspondence": {"assignment": {"0": 1}}}, "assignment group"),
            ({"correspondence": [0, 1]}, "correspondence must be a JSON object"),
            ({"correspondence": {"assignment": {"0": [0], "1": [1]}, "weights": {"0": 1.0}}},
             "weight group"),
            ({"sys_amplitudes": [[0.6]]}, "sys_amplitudes"),
            ({"correspondence": {"assignment": {"0": [0], "1": [1.5]}}},
             "correspondence reading must be an integer"),
            # a string is not iterated as a list of digit amplitudes
            ({"sys_amplitudes": "10"}, "sys_amplitudes must be a JSON list"),
            ({"sys_amplitudes": ["0.6", "0.8"]}, "sys_amplitudes entry must be a finite number, got '0.6'"),
            ({"sys_amplitudes": [True, False]}, "sys_amplitudes entry must be a finite number, got True"),
            ({"app_amplitudes": [[True, 0], 0]}, "app_amplitudes entry must be a finite number, got True"),
            ({"sys_amplitudes": [[0.6, 0, 7], 0.8]}, "amplitudes must be numbers or [re, im] pairs"),
            # "1.0" would silently overwrite "1"; keys are decimal integers
            ({"app_amplitudes": [0.6, 0.6, math.sqrt(0.28)],
              "correspondence": {"assignment": {"0": [0], "1": [1], "1.0": [2]}}},
             "correspondence outcome must be an integer, got '1.0'"),
            ({"correspondence": {"assignment": {"0": [0], "1": [1], "01": [1]}}},
             "correspondence assignment names outcome 1 twice"),
            ({"correspondence": {"assignment": {"0": [0], "1": [1]}, "weights": {"1": [1.0], "01": [1.0]}}},
             "correspondence weights names outcome 1 twice"),
            ({"correspondence": {"assignment": {"0": ["0"], "1": [1]}}},
             "correspondence reading must be an integer, got '0'"),
        ],
    )
    def test_malformed_correspondence_or_amplitudes_exit_one(self, tmp_path, capsys, overrides,
                                                             fragment):
        scenario = {"sys_amplitudes": [0.6, 0.8], "app_amplitudes": [0.8, 0.6], **overrides}
        path = self._replace_sections(str(tmp_path / "bad.json"), scenario=scenario, mode="fast")
        self._assert_config_error(main(["simulate", "--config", path]), capsys, fragment)

    @pytest.mark.parametrize(
        "overrides, fragment",
        [
            ({"scenario": [1.0, 2.0]}, "scenario must be a JSON object"),
            ({"integrator": [1.0]}, "integrator must be a JSON object"),
            ({"outputs": "out"}, "outputs must be a JSON object"),
            ({"gammas": 5}, "gammas must be a JSON list"),
            ({"alignment_tol": 0}, "alignment_tol"),
            ({"alignment_tol": -1}, "alignment_tol"),
            ({"integrator": {"t_max": 1.0, "record_every": 2.5}}, "record_every must be an integer"),
            ({"integrator": {"t_max": 1.0, "record_points": 240.7}},
             "record_points must be an integer"),
            ({"mode": "fast", "gammas": [1e308]}, "gamma * omega"),
            ({"mode": "fast", "gammas": [5.0], "integrator": {"t_max": 1e20}}, "t_max"),
            # finite rates and H whose summed bound overflows: the automatic dt is 0
            ({"gammas": [3.6e-5], "scenario": {"alpha_s": ALPHA_S, "alpha_a": ALPHA_A,
                                               "omega": 1.5e308}}, "needs inf steps"),
            ({"outputs": {"plot": "false"}}, "outputs plot must be a JSON boolean"),
            ({"outputs": {"dir": ["x"]}}, "outputs dir must be a JSON string"),
        ],
    )
    def test_malformed_structure_exits_one(self, tmp_path, capsys, overrides, fragment):
        path = self._replace_sections(str(tmp_path / "bad.json"), **overrides)
        self._assert_config_error(main(["sweep", "--config", path]), capsys, fragment)

    def test_oversized_record_count_exits_one_before_recording(self, tmp_path, capsys,
                                                              monkeypatch):
        from collapse_sim import evolution

        def forbidden(*args):
            raise AssertionError("_record_steps ran")

        monkeypatch.setattr(evolution, "_record_steps", forbidden)
        path = write_config(str(tmp_path / "huge.json"),
                            integrator={"t_max": 100.0, "record_points": 1e9}, mode="fast")
        self._assert_config_error(main(["simulate", "--config", path]), capsys, "MiB limit")

    def test_integral_numbers_load_as_integers(self, tmp_path):
        path = write_config(str(tmp_path / "run.json"),
                            integrator={"t_max": 1.0, "record_every": 2.0, "record_points": 1e3})
        integrator = load_run_config(path).integrator
        assert (integrator.record_every, integrator.record_points) == (2, 1000)
        assert all(type(v) is int for v in (integrator.record_every, integrator.record_points))

    @staticmethod
    def _replace_sections(path, **sections):
        # unlike write_config, replaces whole sections instead of merging them
        write_config(path)
        with open(path) as fh:
            cfg = json.load(fh)
        cfg.update(sections)
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        return path

    @staticmethod
    def _assert_config_error(code, capsys, fragment):
        assert code == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1
        assert fragment in errors[0]

    def test_byte_identical_reruns(self, tmp_path, config_path):
        # every command twice in one process: nothing one run derives or
        # caches may change what the next one writes
        commands = (["simulate", "--plot"], ["spectrum"], ["qsl"], ["sweep", "--gammas", "2.5,5,10,20"])
        names = ["fig1.svg", "fig2.svg", "qsl.csv", "spectrum.csv", "sweep.csv", "trajectory.csv"]
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for out in (out_a, out_b):
            for argv in commands:
                assert main([*argv, "--config", config_path, "--out", str(out)]) == 0
            assert sorted(os.listdir(out)) == names
        for name in names:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_reused_parser_matches_fresh_processes(self, tmp_path, config_path):
        # main builds its parser once per process; a flag of the first call
        # (--plot) must not leak into the second, which writes no figures
        runs = (["simulate", "--plot"], ["simulate", "--mode", "fast"])
        for k, argv in enumerate(runs):
            assert main([*argv, "--config", config_path, "--out", str(tmp_path / f"same{k}")]) == 0
        package_root = os.path.dirname(os.path.dirname(collapse_sim.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [package_root, os.environ.get("PYTHONPATH")])))
        for k, argv in enumerate(runs):
            fresh = tmp_path / f"fresh{k}"
            subprocess.run([sys.executable, "-m", "collapse_sim.cli", *argv, "--config", config_path,
                            "--out", str(fresh)], env=env, check=True, timeout=120)
            same = tmp_path / f"same{k}"
            names = sorted(os.listdir(fresh))
            assert sorted(os.listdir(same)) == names
            assert names == (["fig1.svg", "fig2.svg", "trajectory.csv"] if k == 0 else ["trajectory.csv"])
            for name in names:
                assert (same / name).read_bytes() == (fresh / name).read_bytes()


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

    @pytest.mark.parametrize("mode", ["full", "fast"])
    def test_denominator_matches_dense_jump_family(self, tmp_path, mode):
        # the tilt-angle scenario adds -i[H, rho0] to the family's action; amplitudes carry no H
        path = str(tmp_path / "run.json")
        if mode == "full":
            write_config(path)
        else:
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
        expected = qsl_lower_bound(rho0, model.aligned_target(), master_rhs(model.hamiltonian, spec, rho0))
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
        for gammas in ("5,nan", "5,inf"):
            capsys.readouterr()
            assert main(["sweep", "--config", config_path, "--gammas", gammas]) == 1
            assert capsys.readouterr().err.startswith(
                "error: sweep gammas must be positive and finite")


def test_benchmark_tracer_targets_resolve(monkeypatch):
    # the benchmark's traced run wraps these names; a missing one would make
    # every traced op fail instead of failing here
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracer = importlib.import_module("tracer")
    for owner, attr, *_ in tracer._TARGETS:
        resolved = attr in owner.__dict__ if isinstance(owner, type) else hasattr(owner, attr)
        assert resolved, f"{owner!r} has no attribute {attr!r}"
