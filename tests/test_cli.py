import ast
import hashlib
import importlib
import json
import math
import os
import re
import stat
import subprocess
import sys
import time
import tracemalloc
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import collapse_sim
from collapse_sim import states
from collapse_sim import (CorrespondenceMap, IntegratorConfig, MeasurementModel, StateVector, ValidationError,
                          gamma_sweep, qsl_lower_bound, spin_half_scenario)
from collapse_sim.cli import main
from collapse_sim.dissipator import lindblad_jump_family, master_rhs
from collapse_sim.config import load_run_config
from collapse_sim.csvio import read_csv_columns
from conftest import ALPHA_A, ALPHA_S, write_json
from test_properties import NOT_ANGLES, NOT_POSITIVE


def reference_config(out_dir, **overrides):
    """The README reference config writing to ``out_dir``; a dict override is merged into its
    section, any other value replaces its key."""
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
        "outputs": {"dir": out_dir, "plot": False},
    }
    for key, value in overrides.items():
        if isinstance(value, dict) and key in cfg:
            cfg[key].update(value)
        else:
            cfg[key] = value
    return cfg


def write_config(path, **overrides):
    return write_json(path, reference_config(os.path.dirname(path), **overrides))


def write_sections(path, **sections):
    # unlike write_config, replaces whole sections instead of merging them
    return write_json(path, {**reference_config(os.path.dirname(path)), **sections})


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
        # malformed text, a non-UTF-8 byte, an integer past Python's digit
        # limit and nesting past the recursion limit each give one error line
        payloads = [b"{not json", b'{"scenario": {"gamma": 5\xff}}',
                    b'{"scenario": {"gamma": ' + b"7" * 5000 + b"}}", b"[" * 200000]
        for k, payload in enumerate(payloads):
            path = str(tmp_path / f"broken{k}.json")
            with open(path, "xb") as fh:
                fh.write(payload)
            assert main(["simulate", "--config", path]) == 1
            err = capsys.readouterr().err
            assert "JSON" in err and "Traceback" not in err
            assert err.count("error:") == 1 and err.count("\n") == 1

    def test_usage_error_exits_one(self, capsys):
        assert main(["simulate"]) == 1

    def test_unstable_manual_step_exits_two(self, tmp_path, capsys):
        # at t_max = 100 these steps overflow the chain: no floating-point
        # warning (an error in this suite) may come before the snapshot checks
        for k, (t_max, dt) in enumerate(((0.1, 0.01), (100.0, 1e-3), (100.0, 0.01), (100.0, 1.0))):
            path = write_config(str(tmp_path / f"stiff{k}.json"), integrator={"t_max": t_max, "dt": dt})
            assert main(["simulate", "--config", path]) == 2
            err = capsys.readouterr().err
            assert err.startswith("numerical failure: ") and err.count("\n") == 1

    def test_outputs_honour_the_umask(self, tmp_path, config_path):
        # the mode a plain open() would give, not the temp file's 0o600
        umask = os.umask(0o027)
        try:
            assert main(["simulate", "--plot", "--config", config_path]) == 0
        finally:
            os.umask(umask)
        for name in ("trajectory.csv", "fig1.svg", "fig2.svg"):
            assert stat.S_IMODE(os.stat(tmp_path / name).st_mode) == 0o640

    def test_rerun_replaces_its_outputs(self, tmp_path):
        # a shorter second run into the same --out leaves its own outputs and no temp file
        out = tmp_path / "out"
        for t_max in (1.0, 0.5):
            path = write_config(str(tmp_path / f"run{t_max}.json"), integrator={"t_max": t_max})
            assert main(["simulate", "--plot", "--config", path, "--out", str(out)]) == 0
        assert sorted(os.listdir(out)) == ["fig1.svg", "fig2.svg", "trajectory.csv"]
        assert read_csv_columns(str(out / "trajectory.csv"))["t"][-1] == pytest.approx(0.5, rel=1e-12)

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
        path = write_json(str(tmp_path / "amps.json"), {
            "scenario": {
                "sys_amplitudes": [math.cos(ALPHA_S), math.sin(ALPHA_S)],
                "app_amplitudes": [1.0, 0.0],
                "gamma": 5.0,
                "omega": 1.0,
            },
            "integrator": {"t_max": 0.5},
            "mode": "fast",
            "outputs": {"dir": str(tmp_path)},
        })
        assert main(["simulate", "--config", path]) == 0
        assert main(["simulate", "--config", path, "--mode", "full"]) == 1
        assert "Hamiltonian" in capsys.readouterr().err

    def test_plot_writes_svg_figures(self, tmp_path, config_path):
        # every figure parses as XML: the reference config in both modes and a 3 x 3 amplitude config
        amplitudes = write_sections(str(tmp_path / "amplitudes.json"), mode="fast", scenario={
            "sys_amplitudes": [0.6, 0.64, 0.48], "app_amplitudes": [0.6, 0.64, 0.48],
            "gamma": 5.0, "omega": 1.0})
        runs = [[config_path], [config_path, "--mode", "fast"], [amplitudes]]
        for k, argv in enumerate(runs):
            out = tmp_path / f"out{k}"
            assert main(["simulate", "--config", *argv, "--plot", "--out", str(out)]) == 0
            for name in ("fig1.svg", "fig2.svg"):
                root = ET.parse(str(out / name)).getroot()
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
            path = write_json(str(tmp_path / f"case{k}.json"), {
                "scenario": {**scenario, "gamma": 5.0, "omega": 1.0},
                "integrator": {"t_max": 1.0},
                "mode": "fast",
                "outputs": {"dir": str(out), "plot": True},
            })
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
            ("integrator", "t_max", True, "t_max must be a number, got True"),
            ("scenario", "gamma", True, "gamma must be a number, got True"),
            ("integrator", "record_every", True, "record_every must be an integer, got True"),
            # a JSON string is not a number, whatever it spells
            ("scenario", "gamma", "5", "gamma must be a number, got '5'"),
            ("scenario", "alpha_s", "1.16", "alpha_s must be a number, got '1.16'"),
            ("integrator", "record_points", "240", "record_points must be an integer, got '240'"),
            # finite angles whose double, the field's tilt, overflows
            ("scenario", "alpha_s", 1e308, "alpha_s"),
            ("scenario", "alpha_a", 1e308, "alpha_a"),
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
            ({"correspondence": {"assignment": {"0": [0], "1": [5]}}}, "reading index 5 outside 0..1"),
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
        path = write_sections(str(tmp_path / "bad.json"), scenario=scenario, mode="fast")
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
            ({"integrator": {"t_max": 1.0, "safety": 0.7}}, "safety factor must lie in (0, 0.5]"),
            # a key no section reads is refused, not dropped: a typo would run the defaults
            ({"alignment_tolerance": 0.5}, "config has unknown key 'alignment_tolerance'"),
            ({"scenario": {"alpha_s": ALPHA_S, "alpha_a": ALPHA_A, "epsilonn": 0.01}},
             "scenario has unknown key 'epsilonn'"),
            ({"integrator": {"t_max": 1.0, "record_point": 16}}, "integrator has unknown key 'record_point'"),
        ],
    )
    def test_malformed_structure_exits_one(self, tmp_path, capsys, overrides, fragment):
        path = write_sections(str(tmp_path / "bad.json"), **overrides)
        self._assert_config_error(main(["sweep", "--config", path]), capsys, fragment)

    @pytest.mark.parametrize("section, value, fragment", [
        ("alignment_tolerance", 0.5, "config has unknown key 'alignment_tolerance'"),
        ("scenario", {"alpha_s": ALPHA_S, "alpha_a": ALPHA_A, "epsilonn": 0.01},
         "scenario has unknown key 'epsilonn'"),
        # an angle scenario reads no correspondence, and an amplitude one no angle
        ("scenario", {"alpha_s": ALPHA_S, "alpha_a": ALPHA_A, "correspondence": {}},
         "scenario has unknown key 'correspondence'"),
        ("scenario", {"sys_amplitudes": [0.6, 0.8], "app_amplitudes": [0.8, 0.6], "alpha_a": ALPHA_A},
         "scenario has unknown key 'alpha_a'"),
        ("scenario", {"sys_amplitudes": [0.6, 0.8], "app_amplitudes": [0.8, 0.6],
                      "correspondence": {"assignment": {"0": [0], "1": [1]}, "weight": {}}},
         "correspondence has unknown key 'weight'"),
        ("integrator", {"t_max": 1.0, "record_point": 16}, "integrator has unknown key 'record_point'"),
        ("outputs", {"plots": True}, "outputs has unknown key 'plots'"),
    ])
    def test_unknown_key_is_refused_before_the_model(self, tmp_path, monkeypatch, section, value,
                                                     fragment):
        from collapse_sim import config

        def forbidden(*args, **kwargs):
            raise AssertionError("a model was built")

        for name in ("spin_half_scenario", "MeasurementModel"):
            monkeypatch.setattr(config, name, forbidden)
        path = write_sections(str(tmp_path / "bad.json"), **{section: value})
        with pytest.raises(collapse_sim.ConfigError, match=re.escape(fragment)):
            load_run_config(path)

    def test_oversized_record_count_exits_one_before_recording(self, tmp_path, capsys,
                                                              monkeypatch):
        from collapse_sim import evolution

        def forbidden(*args):
            raise AssertionError("_record_steps ran")

        monkeypatch.setattr(evolution, "_record_steps", forbidden)
        path = write_config(str(tmp_path / "huge.json"),
                            integrator={"t_max": 100.0, "record_points": 1e9}, mode="fast")
        self._assert_config_error(main(["simulate", "--config", path]), capsys, "MiB limit")

    @pytest.mark.parametrize("argv", [["simulate"], ["qsl"], ["sweep", "--gammas", "1,2"]],
                             ids=["simulate", "qsl", "sweep"])
    def test_oversized_amplitude_config_exits_one_before_building(self, tmp_path, capsys,
                                                                 monkeypatch, argv):
        # n = 2500: sized from q alone, so no eigendecomposition and no n x n generator
        from collapse_sim import cli, dissipator, evolution

        def forbidden(*args, **kwargs):
            raise AssertionError("an n x n array was built")

        for module, name in ((np.linalg, "eigvalsh"), (np.linalg, "eigh"),
                             (dissipator, "diag_generator_matrix"), (dissipator, "_diag_generator"),
                             (evolution, "_diag_generator"), (cli, "diag_generator_matrix")):
            monkeypatch.setattr(module, name, forbidden)
        amplitudes = [50**-0.5] * 50
        path = write_sections(
            str(tmp_path / "wide.json"), mode="fast",
            scenario={"sys_amplitudes": amplitudes, "app_amplitudes": amplitudes, "gamma": 5.0})
        start = time.perf_counter()
        code = main([*argv, "--config", path])
        assert time.perf_counter() - start < 1.0
        self._assert_config_error(code, capsys, "22888 MiB")

    def test_fast_run_past_the_spectrum_limit_exits_one_before_building(self, tmp_path, capsys,
                                                                         monkeypatch):
        # n = 2601: two records fit the stack (206 MiB), but the family's eigh would need the
        # 258 MiB that the spectrum command refuses
        def forbidden(*args, **kwargs):
            raise AssertionError("an eigendecomposition ran")

        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, forbidden)
        amplitudes = [51**-0.5] * 51
        path = write_sections(
            str(tmp_path / "wide.json"), integrator={"t_max": 1.0, "record_points": 2},
            scenario={"sys_amplitudes": amplitudes, "app_amplitudes": amplitudes, "gamma": 5.0})
        code = main(["simulate", "--config", path, "--mode", "fast"])
        self._assert_config_error(code, capsys, "258 MiB")

    @pytest.mark.parametrize("command", ["simulate", "spectrum", "qsl", "sweep"])
    def test_config_past_every_limit_is_refused_at_load(self, tmp_path, capsys, monkeypatch,
                                                        command):
        # n = 2601: past the spectrum limit that bounds every command, so the loader refuses it
        # before the correspondence builds its O(I J) weights
        from collapse_sim.model import CorrespondenceMap

        def forbidden(*args, **kwargs):
            raise AssertionError("flat_weights ran")

        monkeypatch.setattr(CorrespondenceMap, "flat_weights", forbidden)
        amplitudes = [51**-0.5] * 51
        path = write_sections(
            str(tmp_path / "wide.json"), gammas=[5.0],
            scenario={"sys_amplitudes": amplitudes, "app_amplitudes": amplitudes, "gamma": 5.0})
        self._assert_config_error(main([command, "--config", path]), capsys, "258 MiB")

    def test_integral_numbers_load_as_integers(self, tmp_path):
        path = write_config(str(tmp_path / "run.json"),
                            integrator={"t_max": 1.0, "record_every": 2.0, "record_points": 1e3})
        integrator = load_run_config(path).integrator
        assert (integrator.record_every, integrator.record_points) == (2, 1000)
        assert all(type(v) is int for v in (integrator.record_every, integrator.record_points))

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


_ANGLES = {"alpha_s": ALPHA_S, "alpha_a": ALPHA_A, "gamma": 5.0, "omega": 1.0, "epsilon": 1e-4}
_AMPLITUDES = {"sys_amplitudes": [0.6, 0.8], "app_amplitudes": [0.8, 0.6], "gamma": 5.0, "omega": 1.0,
               "epsilon": 1e-4}
_ONE_TO_ONE = {"assignment": {"0": [0], "1": [1]}}
# each scalar the loader hands to a library call: (bad values, the config's sections with the
# value v, the owning library call with the same v)
_HANDED_ON = {
    **{f"angle scenario {name}": (NOT_POSITIVE, lambda v, name=name: {"scenario": {**_ANGLES, name: v}},
                                  lambda v, name=name: spin_half_scenario(**{**_ANGLES, name: v}))
       for name in ("gamma", "omega", "epsilon")},
    **{f"amplitude scenario {name}": (
        NOT_POSITIVE, lambda v, name=name: {"scenario": {**_AMPLITUDES, name: v}},
        lambda v, name=name: MeasurementModel(StateVector([0.6, 0.8]), StateVector([0.8, 0.6]),
                                              CorrespondenceMap.one_to_one(2),
                                              **{"gamma": 5.0, "omega": 1.0, "epsilon": 1e-4, name: v}))
       for name in ("gamma", "omega", "epsilon")},
    **{f"scenario {name}": (NOT_ANGLES, lambda v, name=name: {"scenario": {**_ANGLES, name: v}},
                            lambda v, name=name: spin_half_scenario(**{**_ANGLES, name: v}))
       for name in ("alpha_s", "alpha_a")},
    **{f"integrator {name}": (NOT_POSITIVE, lambda v, name=name: {"integrator": {"t_max": 1.0, name: v}},
                              lambda v, name=name: IntegratorConfig(**{"t_max": 1.0, name: v}))
       for name in ("t_max", "dt", "safety")},
    "correspondence weight": (
        NOT_POSITIVE,
        lambda v: {"scenario": {**_AMPLITUDES, "correspondence": {**_ONE_TO_ONE, "weights": {"1": [v]}}}},
        lambda v: CorrespondenceMap.from_assignment(2, 2, [[0], [1]], [[1.0], [v]])),
    "gammas entry": (NOT_POSITIVE, lambda v: {"gammas": [5.0, v]},
                     lambda v: gamma_sweep(spin_half_scenario(ALPHA_S, ALPHA_A, 5.0, 1.0), [5.0, v],
                                           IntegratorConfig(t_max=1.0))),
}


@pytest.mark.parametrize("site", _HANDED_ON)
def test_config_refuses_a_scalar_as_its_library_call_does(tmp_path, capsys, site):
    # one rule per value: the config's one error line is the owning call's own error
    values, sections, owner = _HANDED_ON[site]
    for k, value in enumerate(values):
        with pytest.raises(ValidationError) as info:
            owner(value)
        path = write_sections(str(tmp_path / f"bad{k}.json"), mode="fast", **sections(value))
        assert main(["simulate", "--config", path]) == 1, value
        err = capsys.readouterr().err
        assert err.splitlines() == [f"error: {info.value}"], value


# sha256 of every output of the README reference config in each mode;
# spectrum.csv does not depend on the mode
_SPECTRUM_DIGEST = "5e96caabd89dd43c16038d32f9a73cf829a8350117fa194d94b9ffd718eac565"
_REFERENCE_DIGESTS = {
    "full": {
        "fig1.svg": "57a33105c716c02cfdbc8aafd6679dcdbd8c5356236501d7b3387f705768168c",
        "fig2.svg": "3d7a58a138074cbdacd09a714fb23fc865f8f3037ffbc87959efc768cf7c8fac",
        "qsl.csv": "3dd0cc8b5ce50f1c730225295475b6d49d0c9638bfb3dd405345f48d0f9c7f17",
        "spectrum.csv": _SPECTRUM_DIGEST,
        "sweep.csv": "a043c26e775570f31fe81524affadef28c8fdf2f0c8c581bb61babf3f8320314",
        "trajectory.csv": "8cccdf7940d217e21e0e85036957238ef482bfbc177c6b14d442ca84b683ffae",
    },
    "fast": {
        "fig1.svg": "bbdbf95be190cbdfd98dfa4fc7d02cc3a1827b239c983470ea5cda335d8b6529",
        "fig2.svg": "a14ff4c741700ef57e657317897f4db60cd3d138479ce0d2d393c70dfe7d7840",
        "qsl.csv": "ef3c2b7ee10885bd8322cf2f58f8aab0af20a468f1b8366148c93db3b96ea7d1",
        "spectrum.csv": _SPECTRUM_DIGEST,
        "sweep.csv": "faff1ee5f71722ae9ad0e33a1fc1be3f1bcb4117e501a3ff2309cac4f88b6e0a",
        "trajectory.csv": "45daddb1ce15bc8ca97b14d49459736f685ef454a94017b2c94503a4a04b825f",
    },
}


@pytest.mark.parametrize("mode", ["full", "fast"])
def test_reference_outputs_keep_their_digests(tmp_path, mode):
    # the README commands on the README config: a change that moves any
    # output byte must update these digests and say why
    path = write_config(str(tmp_path / "run.json"), mode=mode)
    for argv in (["simulate", "--plot"], ["spectrum"], ["qsl"], ["sweep", "--gammas", "2.5,5,10,20"]):
        assert main([*argv, "--config", path, "--out", str(tmp_path / "out")]) == 0
    digests = {name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
               for name in sorted(os.listdir(tmp_path / "out"))}
    assert digests == _REFERENCE_DIGESTS[mode]


@pytest.mark.parametrize("mode", ["full", "fast"])
@pytest.mark.parametrize("argv", [["simulate", "--plot"], ["qsl"], ["sweep", "--gammas", "2.5,5,10,20"]],
                         ids=["simulate", "qsl", "sweep"])
def test_reference_commands_check_each_input_once(tmp_path, monkeypatch, mode, argv):
    # the two StateVectors each sum their norm once, when built, and the Hamiltonian takes one
    # Hermiticity pass, at model build; the states and target the model derives, and every later
    # read of them, take none. In states, an axis-free np.sum runs only in the amplitude norm and
    # np.isfinite only in _checked_hermitian's pass.
    counts = {"norm sums": 0, "Hermiticity passes": 0}

    class CountingNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def sum(self, a, *args, **kwargs):
            counts["norm sums"] += not args and "axis" not in kwargs
            return np.sum(a, *args, **kwargs)

        def isfinite(self, *args, **kwargs):
            counts["Hermiticity passes"] += 1
            return np.isfinite(*args, **kwargs)

    monkeypatch.setattr(states, "np", CountingNumpy())
    path = write_config(str(tmp_path / "run.json"), mode=mode)
    assert main([*argv, "--config", path, "--out", str(tmp_path / "out")]) == 0
    assert counts == {"norm sums": 2, "Hermiticity passes": 1}


class TestSpectrum:
    def test_oversized_amplitude_config_exits_one_before_building(self, tmp_path, capsys,
                                                                 monkeypatch):
        # n = 3600: sized from n alone, before the generator or its eigh
        from collapse_sim import cli, dissipator

        def forbidden(*args, **kwargs):
            raise AssertionError("an n x n array was built")

        for module, name in ((np.linalg, "eigh"), (dissipator, "diag_generator_matrix"),
                             (dissipator, "_diag_generator"), (cli, "diag_generator_matrix")):
            monkeypatch.setattr(module, name, forbidden)
        amplitudes = [60**-0.5] * 60
        path = write_sections(
            str(tmp_path / "wide.json"),
            scenario={"sys_amplitudes": amplitudes, "app_amplitudes": amplitudes, "gamma": 5.0})
        start = time.perf_counter()
        code = main(["spectrum", "--config", path])
        assert time.perf_counter() - start < 1.0
        TestSimulate._assert_config_error(code, capsys, "494 MiB")
        assert not (tmp_path / "spectrum.csv").exists()

    def test_peak_holds_the_balanced_generator_and_eigenvectors(self, tmp_path):
        # n = 1225: K, balanced in place from M, and eigh's eigenvectors; LAPACK's
        # own copy and workspace are allocated outside tracemalloc's view
        n = 35 * 35
        amplitudes = [35**-0.5] * 35
        path = write_sections(
            str(tmp_path / "wide.json"),
            scenario={"sys_amplitudes": amplitudes, "app_amplitudes": amplitudes, "gamma": 5.0})
        tracemalloc.start()
        try:
            assert main(["spectrum", "--config", path]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (n * n * np.dtype(float).itemsize) <= 2.2

    def test_report_one_zero_three_negative(self, tmp_path, config_path):
        assert main(["spectrum", "--config", config_path]) == 0
        cols = read_csv_columns(str(tmp_path / "spectrum.csv"))
        magnitudes = np.hypot(cols["eigenvalue_re"], cols["eigenvalue_im"])
        assert (magnitudes < 1e-9 * 5.0).sum() == 1
        assert (cols["eigenvalue_re"] < 0).sum() == 3

    def test_rows_ascend_to_an_exact_zero(self, tmp_path, config_path):
        assert main(["spectrum", "--config", config_path]) == 0
        cols = read_csv_columns(str(tmp_path / "spectrum.csv"))
        assert np.all(np.diff(cols["eigenvalue_re"]) > 0)
        assert cols["eigenvalue_re"][-1] == 0.0
        assert np.all(cols["eigenvalue_im"] == 0.0)

    def test_one_symmetric_eigendecomposition_per_command(self, tmp_path, config_path, monkeypatch):
        # spectrum and fast mode read the one balanced decomposition; neither runs eig
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda k: calls.append("eigh") or eigh(k))
        monkeypatch.setattr(np.linalg, "eig", lambda m: calls.append("eig"))
        for argv in (["spectrum"], ["simulate", "--mode", "fast"]):
            assert main([*argv, "--config", config_path]) == 0
            assert calls == ["eigh"]
            calls.clear()

    def test_amplitude_config_without_mode(self, tmp_path, capsys):
        # the spectrum has no mode; a config that would default to full still has one
        path = write_json(str(tmp_path / "amps.json"), {
            "scenario": {"sys_amplitudes": [0.6, 0.8], "app_amplitudes": [0.48, 0.6, 0.64],
                         "correspondence": {"assignment": {"0": [0], "1": [1, 2]}},
                         "gamma": 5.0, "omega": 1.0},
            "integrator": {"t_max": 1.0},
            "outputs": {"dir": str(tmp_path)},
        })
        assert main(["spectrum", "--config", path]) == 0
        cols = read_csv_columns(str(tmp_path / "spectrum.csv"))
        p_all = load_run_config(path).model.rate_table().flat_probabilities()
        assert np.array_equal(cols["stationary_component"], p_all / p_all.sum())
        assert main(["simulate", "--config", path]) == 1
        assert "requires a scenario with a Hamiltonian" in capsys.readouterr().err

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
            write_json(path, {
                "scenario": {
                    "sys_amplitudes": [0.6, 0.64, 0.48],
                    "app_amplitudes": [0.48, 0.6, 0.64],
                    "gamma": 5.0,
                    "omega": 1.0,
                },
                "integrator": {"t_max": 2.0},
                "mode": "fast",
                "outputs": {"dir": str(tmp_path)},
            })
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
        capsys.readouterr()
        assert main(["sweep", "--config", config_path, "--gammas", "5,"]) == 1
        assert capsys.readouterr().err == "error: --gammas must be a comma-separated number list, got '5,'\n"
        for gammas in ("5,nan", "5,inf"):
            capsys.readouterr()
            assert main(["sweep", "--config", config_path, "--gammas", gammas]) == 1
            assert capsys.readouterr().err.startswith(
                "error: sweep gammas must be positive and finite")

    @pytest.mark.parametrize("gamma, fragment", [("1e-20", "needs 1e+22 steps"),
                                                 ("1e-320", "got inf")])
    def test_row_error_names_its_gamma(self, config_path, capsys, gamma, fragment):
        # the row's horizon, not the config's t_max = 1, is what overflows
        assert main(["sweep", "--config", config_path, "--gammas", f"5,{gamma}"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: sweep gamma {gamma}, run to t_max = ")
        assert "gamma * t_max stays 5" in err and fragment in err
        assert err.count("\n") == 1


class TestConfigFuzz:
    """Seeded field-by-field mutations of two valid configs through all four
    commands, in-process: every case exits 0, 1 or 2, an exit 1 prints
    exactly one ``error:`` line, no exception escapes ``main``, and a
    ``simulate`` that exits 0 writes a trajectory that ends at its t_max."""

    RECORD_POINTS_CAP = 16
    _DROP = object()

    @staticmethod
    def _bases():
        reference = {
            "scenario": {"alpha_s": ALPHA_S, "alpha_a": ALPHA_A, "gamma": 5.0, "omega": 1.0,
                         "epsilon": 1e-4},
            "integrator": {"t_max": 1.0, "record_points": 16},
            "mode": "full",
            "gammas": [5.0],
            "alignment_tol": 0.01,
            "outputs": {"dir": ".", "plot": True},
        }
        amplitudes = {
            "scenario": {"sys_amplitudes": [0.6, [0.0, 0.8]], "app_amplitudes": [0.48, 0.6, 0.64],
                         "correspondence": {"assignment": {"0": [0], "1": [1, 2]},
                                            "weights": {"1": [0.25, 0.75]}},
                         "gamma": 5.0, "omega": 1.0},
            "integrator": {"t_max": 2.0, "record_points": 16, "record_spacing": "linear"},
            "mode": "fast",
            "gammas": [5.0],
            "outputs": {"dir": ".", "plot": False},
        }
        return {"reference": reference, "amplitudes": amplitudes}

    @classmethod
    def _paths(cls, node, prefix=()):
        # every value in the config, sections and list entries included
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, value in items:
            yield (*prefix, key)
            if isinstance(value, (dict, list)):
                yield from cls._paths(value, (*prefix, key))

    @classmethod
    def _mutations(cls, rng):
        # a fixed set for every field, plus a drawn number and a drawn pick from the rest
        nested = 1.0
        for level in range(int(rng.integers(2, 64))):
            nested = [nested] if level % 2 else {"0": nested}
        drawn = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-300.0, 300.0))
        others = [False, "", [1.0], 0, -1, 2.5, -1e308]
        return [cls._DROP, None, True, "5", [], {}, 1e308, 5e-324, 1e200, 2, nested, drawn,
                others[int(rng.integers(len(others)))]]

    @classmethod
    def _mutated(cls, base, path, value):
        cfg = json.loads(json.dumps(base))
        parent = cfg
        for key in path[:-1]:
            parent = parent[key]
        if value is cls._DROP:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
        integrator = cfg.get("integrator")
        if isinstance(integrator, dict):
            points = integrator.get("record_points")
            # a long automatic schedule would record a large stack; keep each case small
            if isinstance(points, (int, float)) and not isinstance(points, bool) \
                    and points > cls.RECORD_POINTS_CAP:
                integrator["record_points"] = cls.RECORD_POINTS_CAP
        return cfg

    def test_every_mutation_exits_cleanly(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        # each mutation its own config and each case its own output directory: no file is
        # written twice
        rng = np.random.default_rng(17)
        failures = []
        cases = 0
        for name, base in self._bases().items():
            for field in self._paths(base):
                for value in self._mutations(rng):
                    cfg = self._mutated(base, field, value)
                    path = write_json(str(tmp_path / f"fuzz{cases}.json"), cfg)  # named by its first case
                    for command in ("simulate", "spectrum", "qsl", "sweep"):
                        shown = "drop" if value is self._DROP else repr(value)[:40]
                        case = (name, field, shown, command)
                        out = tmp_path / f"out{cases}"
                        cases += 1
                        try:
                            code = main([command, "--config", path, "--out", str(out)])
                        except Exception as exc:  # any escape is a failure of the contract
                            code = f"raised {exc!r}"
                        err = capsys.readouterr().err
                        errors = [line for line in err.splitlines() if line.startswith("error:")]
                        if code not in (0, 1, 2) or (code == 1 and len(errors) != 1):
                            failures.append((*case, code, err))
                        elif command == "simulate" and code == 0:
                            t_end = read_csv_columns(str(out / "trajectory.csv"))["t"][-1]
                            t_max = cfg["integrator"]["t_max"]
                            if not abs(t_end - t_max) <= 1e-12 * t_max:
                                failures.append((*case, f"ends at t = {t_end!r}, not {t_max!r}"))
        assert cases > 2000
        assert not failures, failures[:5]


class TestEdgeScenarios:
    """Physical edge scenarios through every command, in-process: each run returns 0, 1 or 2,
    no exception escapes ``main``, and a non-zero return writes exactly one line, ``error:`` or
    ``numerical failure:``. Angle pairs (alpha_s, alpha_a) run in both modes, amplitude
    scenarios in fast mode. (pi/2, 0.3) runs: cos(pi/2) = 6.1e-17 is round-off, which the rate
    table floors like the exact 0 of the amplitudes [0, 1]. Two refusals are known and pinned:
    (pi/2 - 1e-10, 0.3) on every command, as its root 1e-10 lies above round-off and the rate
    floor would mask it, and ``qsl`` on the one-state scenario [1]/[1], which is static."""

    ROUNDOFF = {"alpha_s": math.pi / 2, "alpha_a": 0.3}
    RATE_FLOOR = {"alpha_s": math.pi / 2 - 1e-10, "alpha_a": 0.3}
    STATIC = {"sys_amplitudes": [1], "app_amplitudes": [1]}
    # each starts at its aligned target
    ALIGNED_AT_START = [({"alpha_s": 0.0, "alpha_a": 0.0}, "full"), ({"alpha_s": 0.0, "alpha_a": 0.0}, "fast"),
                        ({"sys_amplitudes": [1, 0], "app_amplitudes": [1, 0]}, "fast")]
    SCENARIOS = [
        *(({"alpha_s": alpha_s, "alpha_a": alpha_a}, mode)
          for alpha_s, alpha_a in [(0.0, 0.0), (0.0, math.pi / 2), (0.7, 0.0), (math.pi / 2, 0.3),
                                   (math.pi / 2 - 1e-10, 0.3)]
          for mode in ("full", "fast")),
        *(({"sys_amplitudes": sys, "app_amplitudes": app}, "fast")
          for sys, app in [([1, 0], [0, 1]), ([1, 0], [1, 0]), ([1], [1]), ([1, 0, 0], [0.6, 0.8, 0])]),
    ]
    COMMANDS = [["simulate", "--plot"], ["qsl"], ["spectrum"], ["sweep", "--gammas", "2,5"]]

    @staticmethod
    def _config(out, scenario, mode):
        # the config and the outputs of one scenario share the directory ``out``
        out.mkdir(exist_ok=True)
        return write_json(str(out / "edge.json"), {
            "scenario": {**scenario, "gamma": 5.0, "omega": 1.0}, "integrator": {"t_max": 1.0},
            "mode": mode, "outputs": {"dir": str(out)}})

    def test_exit_code_contract(self, tmp_path, capsys):
        failures = []
        for k, (scenario, mode) in enumerate(self.SCENARIOS):
            path = self._config(tmp_path / f"scenario{k}", scenario, mode)
            for command in self.COMMANDS:
                expected, fragment = 0, ""
                if scenario == self.RATE_FLOOR:
                    expected, fragment = 1, "would mask the smallest physical rate"
                elif scenario == self.STATIC and command == ["qsl"]:
                    expected, fragment = 1, "initial condition is static"
                try:
                    code = main([*command, "--config", path])
                except Exception as exc:  # any escape is a failure of the contract
                    code = f"raised {exc!r}"
                err = capsys.readouterr().err
                one_line = err.count("\n") == 1 and err.startswith(("error: ", "numerical failure: "))
                if code not in (0, 1, 2) or (code and not one_line) or code != expected or fragment not in err:
                    failures.append((scenario, mode, command[0], code, err))
        assert not failures, failures

    def test_roundoff_angle_runs_as_its_amplitudes(self, tmp_path):
        # (pi/2, 0.3) in fast mode is the amplitude scenario [0, 1] / [cos 0.3, sin 0.3] up to
        # round-off: the same columns, each value within 1e-14 (3.2e-15 measured), and the same
        # fig1.svg series, with no diag_0 normalised by its round-off weight 3.7e-33
        amplitudes = {"sys_amplitudes": [0, 1], "app_amplitudes": [math.cos(0.3), math.sin(0.3)]}
        columns = []
        for name, scenario in (("angles", self.ROUNDOFF), ("amplitudes", amplitudes)):
            out = tmp_path / name
            assert main(["simulate", "--plot", "--config", self._config(out, scenario, "fast")]) == 0
            columns.append(read_csv_columns(str(out / "trajectory.csv")))
            root = ET.parse(str(out / "fig1.svg")).getroot()
            assert [el.text for el in root.iter() if el.tag.endswith("text")
                    and el.text.startswith(("diag_", "re_"))] == ["diag_3 / 1", "re_0_3"]
        angles, amps = columns
        assert list(angles) == list(amps)
        assert max(np.abs(angles[k] - amps[k]).max() for k in angles) <= 1e-14

    @pytest.mark.parametrize("scenario, mode", ALIGNED_AT_START, ids=["angles-full", "angles-fast", "amplitudes"])
    def test_aligned_start_has_no_ratio(self, tmp_path, scenario, mode):
        # the bound and tau are both 0: qsl.csv leaves the ratio blank, read back as NaN
        assert main(["qsl", "--config", self._config(tmp_path, scenario, mode)]) == 0
        cols = read_csv_columns(str(tmp_path / "qsl.csv"))
        assert cols["bound"].tolist() == cols["measured_tau"].tolist() == [0.0]
        assert np.isnan(cols["ratio"]).all() and cols["ratio"].shape == (1,)


def test_benchmark_tracer_targets_resolve(monkeypatch):
    # the benchmark's traced run wraps these names; a missing one would make
    # every traced op fail instead of failing here
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracer = importlib.import_module("tracer")
    for owner, attr, *_ in tracer._TARGETS:
        resolved = attr in owner.__dict__ if isinstance(owner, type) else hasattr(owner, attr)
        assert resolved, f"{owner!r} has no attribute {attr!r}"


def test_cli_import_loads_no_network_or_sax_modules():
    # every command imports the CLI: xml.sax.saxutils.escape, an obvious SVG escaper, pulls in
    # urllib.request, which added 11-13 ms and about 7 MB to each start on a 2-core host.
    # numpy comes first, so only what the package itself loads counts
    package_root = os.path.dirname(os.path.dirname(collapse_sim.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    code = ("import sys, numpy\nbefore = set(sys.modules)\nimport collapse_sim.cli\n"
            "print(*sorted(set(sys.modules) - before))")
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                            timeout=60, check=True)
    loaded = set(result.stdout.split())
    assert "collapse_sim.cli" in loaded
    assert not loaded & {"urllib.request", "http.client", "ssl", "email", "xml.sax"}


def test_imports_kept_for_the_tracer_are_still_traced(monkeypatch):
    # an import that the package keeps only for the benchmark's tracer to wrap is marked; once
    # the tracer stops naming it, the import has no user left and goes
    root = Path(__file__).resolve().parents[1]
    monkeypatch.syspath_prepend(str(root / "perfbench"))
    tracer = importlib.import_module("tracer")
    traced = {(owner.__name__, attr) for owner, attr, *_ in tracer._TARGETS
              if not isinstance(owner, type)}
    marker = "# noqa: F401  (perfbench/tracer.py wraps this name)"
    kept = []
    for path in sorted((root / "src").rglob("*.py")):
        lines = path.read_text(encoding="utf-8").splitlines()
        module = ".".join(path.relative_to(root / "src").with_suffix("").parts)
        for node in ast.walk(ast.parse("\n".join(lines))):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and marker in lines[node.end_lineno - 1]:
                kept += [(module, alias.asname or alias.name) for alias in node.names]
    assert kept
    assert set(kept) <= traced, sorted(set(kept) - traced)


def test_tests_write_each_file_through_write_json():
    # one writer: outside conftest.write_json, which creates each file with mode "x", no test
    # code calls json.dump or opens a file to write ("w") or append ("a"), so none rewrites a file
    rewrites = []
    for path in sorted(Path(__file__).resolve().parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        exempt = set()
        if path.name == "conftest.py":
            (writer,) = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "write_json"]
            exempt = {id(node) for node in ast.walk(writer)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or id(node) in exempt:
                continue
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr == "dump" and getattr(func.value, "id", None) == "json":
                rewrites.append((path.name, node.lineno, "json.dump"))
            elif getattr(func, "id", getattr(func, "attr", None)) == "open":
                # the mode is the second argument or the keyword, "r" when neither is given
                mode = next(iter([*node.args[1:2], *(kw.value for kw in node.keywords if kw.arg == "mode")]),
                            ast.Constant("r"))
                if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)) or set(mode.value) & set("wa"):
                    rewrites.append((path.name, node.lineno, ast.unparse(mode)))
    assert not rewrites, rewrites


def test_src_imports_nothing_it_does_not_use():
    # every name a module of the package imports is read in that module, or kept for the
    # benchmark's tracer under its marker (which the test above holds to the tracer)
    root = Path(__file__).resolve().parents[1]
    marker = "# noqa: F401  (perfbench/tracer.py wraps this name)"
    unused = []
    for path in sorted((root / "src" / "collapse_sim").glob("*.py")):
        if path.name == "__init__.py":
            continue
        lines = path.read_text(encoding="utf-8").splitlines()
        tree = ast.parse("\n".join(lines))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if (isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
                    and marker not in lines[node.end_lineno - 1]):
                unused += [(path.name, name) for name in
                           (alias.asname or alias.name.partition(".")[0] for alias in node.names)
                           if name not in read]
    assert not unused, unused


def test_src_reads_every_private_name():
    # every private function, class or constant bound at module or class level in the package
    # is read somewhere in the package, by name or as an attribute; one only tests read is dead
    root = Path(__file__).resolve().parents[1]
    read, bound = set(), []
    for path in sorted((root / "src" / "collapse_sim").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
        for scope in [tree, *(node for node in ast.walk(tree) if isinstance(node, ast.ClassDef))]:
            for node in scope.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    names = [node.name]
                else:
                    targets = getattr(node, "targets", [getattr(node, "target", None)])
                    names = [target.id for target in targets if isinstance(target, ast.Name)]
                bound += [(path.name, name) for name in names
                          if name.startswith("_") and not name.endswith("__")]
    assert bound
    unread = sorted((module, name) for module, name in bound if name not in read)
    assert not unread, unread


def test_src_sets_every_private_default():
    # every defaulted parameter of a module-level private function is set by some call in the
    # package, by keyword, by position or through a * argument; one no caller sets is dead code
    root = Path(__file__).resolve().parents[1]
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((root / "src" / "collapse_sim").glob("*.py"))}
    defaults = {}  # (module, function) -> {parameter: its position, None when keyword-only}
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_"):
                args = node.args
                positional = args.posonlyargs + args.args
                params = {arg.arg: pos for pos, arg in enumerate(positional)
                          if pos >= len(positional) - len(args.defaults)}
                params.update({arg.arg: None for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                               if default is not None})
                if params:
                    defaults[(module, node.name)] = params
    set_params = set()
    for tree in trees.values():
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            callee = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            starred = any(isinstance(arg, ast.Starred) for arg in call.args)
            spread = any(kw.arg is None for kw in call.keywords)
            keywords = {kw.arg for kw in call.keywords}
            for (module, function), params in defaults.items():
                if function == callee:
                    set_params |= {(module, function, param) for param, pos in params.items()
                                   if spread or param in keywords
                                   or pos is not None and (starred or pos < len(call.args))}
    unset = sorted((module, function, param) for (module, function), params in defaults.items()
                   for param in params if (module, function, param) not in set_params)
    assert not unset, unset


def test_defaults_have_one_home(tmp_path, monkeypatch):
    # the alignment tolerance and the rate floor are each defined once, and
    # every default reads that one constant
    import inspect

    from collapse_sim import analysis, config, evolution, model

    def default(function, name):
        return inspect.signature(function).parameters[name].default

    assert default(evolution.alignment_time, "tol") is evolution.DEFAULT_ALIGNMENT_TOL
    assert default(analysis.gamma_sweep, "tol") is evolution.DEFAULT_ALIGNMENT_TOL
    assert config.DEFAULT_ALIGNMENT_TOL is evolution.DEFAULT_ALIGNMENT_TOL
    assert default(model.spin_half_scenario, "epsilon") is model.DEFAULT_EPSILON
    assert config.DEFAULT_EPSILON is model.DEFAULT_EPSILON
    raw = reference_config(str(tmp_path))
    del raw["scenario"]["epsilon"]
    assert "alignment_tol" not in raw
    path = write_json(str(tmp_path / "run.json"), raw)
    loaded = load_run_config(path)
    assert (loaded.alignment_tol, loaded.model.epsilon) == (0.01, 1e-4)
    # the loader reads the imported names when it runs, not a copy of the values
    monkeypatch.setattr(config, "DEFAULT_ALIGNMENT_TOL", 0.25)
    monkeypatch.setattr(config, "DEFAULT_EPSILON", 1e-5)
    loaded = load_run_config(path)
    assert (loaded.alignment_tol, loaded.model.epsilon) == (0.25, 1e-5)
