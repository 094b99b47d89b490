"""JSON run-configuration parsing.

A scenario names either tilt angles (``alpha_s``/``alpha_a``, two-level case
with Hamiltonians) or explicit amplitude lists (``sys_amplitudes``/
``app_amplitudes``, dissipator-dominated mode only), plus the couplings and
an optional outcome/reading correspondence. Example:

    {
      "scenario": {"alpha_s": 1.16238928, "alpha_a": 2.04203522,
                   "gamma": 5.0, "omega": 1.0, "epsilon": 1e-4},
      "integrator": {"t_max": 1.0},
      "mode": "full",
      "outputs": {"dir": ".", "plot": false}
    }
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .evolution import IntegratorConfig
from .model import CorrespondenceMap, MeasurementModel, StateVector, spin_half_scenario

DEFAULT_EPSILON = 1e-4
DEFAULT_ALIGNMENT_TOL = 0.01
_FLOAT_MAX = sys.float_info.max  # a Python float, so a huge int compares exactly


@dataclass(frozen=True)
class RunConfig:
    model: MeasurementModel
    integrator: IntegratorConfig
    mode: str
    out_dir: str
    plot: bool
    alignment_tol: float
    gammas: tuple[float, ...] | None


def _is_number(value) -> bool:
    """Whether ``value`` is a finite JSON number: not a string or a boolean,
    not NaN or infinite, and not an integer too large for a float."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= _FLOAT_MAX


def _number(value, name: str) -> float:
    """A finite JSON number; a string or a JSON boolean is rejected."""
    if not _is_number(value):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def _integer(value, name: str) -> int:
    """An integral JSON number; 2.0 passes, 2.5, strings and JSON booleans are rejected."""
    if not (_is_number(value) and float(value).is_integer()):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _section(raw, name: str) -> dict:
    if not isinstance(raw, dict):
        raise ConfigError(f"{name} must be a JSON object, got {raw!r}")
    return raw


def _list(raw, name: str) -> list:
    if not isinstance(raw, list):
        raise ConfigError(f"{name} must be a JSON list, got {raw!r}")
    return raw


def _index(raw, count: int, name: str) -> int:
    index = _integer(raw, name)
    if not 0 <= index < count:
        raise ConfigError(f"{name} {index} is outside 0..{count - 1}")
    return index


def _keyed(raw, count: int, name: str) -> dict:
    """A JSON object keyed by outcome: each key a decimal integer such as
    "0" or "12" that names an outcome in 0..count-1, and no outcome named twice."""
    out = {}
    for key, value in _section(raw, name).items():
        if not (key.isascii() and key.removeprefix("-").isdecimal()):
            raise ConfigError(f"correspondence outcome must be an integer, got {key!r}")
        index = _index(int(key), count, "correspondence outcome")
        if index in out:
            raise ConfigError(f"{name} names outcome {index} twice")
        out[index] = value
    return out


def _amplitudes(raw, name: str) -> np.ndarray:
    """Finite JSON numbers or [re, im] pairs of them."""
    values = []
    for x in _list(raw, name):
        parts = x if isinstance(x, list) else [x, 0]
        if len(parts) != 2:
            raise ConfigError(f"{name}: amplitudes must be numbers or [re, im] pairs, got {x!r}")
        values.append(complex(*(_number(v, f"{name} entry") for v in parts)))
    return np.asarray(values, dtype=complex)


def _correspondence(raw, outcomes: int, readings: int) -> CorrespondenceMap:
    if raw is None:
        if outcomes != readings:
            raise ConfigError(
                "a correspondence section is required when outcome and reading counts differ"
            )
        return CorrespondenceMap.one_to_one(outcomes)
    raw = _section(raw, "correspondence")
    assignment_raw = raw.get("assignment")
    if assignment_raw is None:
        raise ConfigError("correspondence section needs an 'assignment' mapping")
    assignment = [[] for _ in range(outcomes)]
    for index, group in _keyed(assignment_raw, outcomes, "correspondence assignment").items():
        assignment[index] = [
            _index(j, readings, "correspondence reading")
            for j in _list(group, "correspondence assignment group")
        ]
    weights = None
    if raw.get("weights") is not None:
        weights = [[1.0 / max(len(group), 1)] * len(group) for group in assignment]
        for index, group in _keyed(raw["weights"], outcomes, "correspondence weights").items():
            weights[index] = [
                _number(w, "correspondence weight")
                for w in _list(group, "correspondence weight group")
            ]
    return CorrespondenceMap.from_assignment(outcomes, readings, assignment, weights)


def _model_from_scenario(raw) -> MeasurementModel:
    raw = _section(raw, "scenario")
    gamma = _number(raw.get("gamma", 1.0), "gamma")
    omega = _number(raw.get("omega", 1.0), "omega")
    epsilon = _number(raw.get("epsilon", DEFAULT_EPSILON), "epsilon")
    has_angles = "alpha_s" in raw
    has_amplitudes = "sys_amplitudes" in raw
    if has_angles == has_amplitudes:
        raise ConfigError("scenario needs exactly one of 'alpha_s' or 'sys_amplitudes'")
    if has_angles:
        if "alpha_a" not in raw:
            raise ConfigError("scenario with 'alpha_s' also needs 'alpha_a'")
        return spin_half_scenario(_number(raw["alpha_s"], "alpha_s"),
                                  _number(raw["alpha_a"], "alpha_a"), gamma, omega, epsilon)
    sys_vec = StateVector(_amplitudes(raw["sys_amplitudes"], "sys_amplitudes"))
    if "app_amplitudes" not in raw:
        raise ConfigError("scenario with 'sys_amplitudes' also needs 'app_amplitudes'")
    app_vec = StateVector(_amplitudes(raw["app_amplitudes"], "app_amplitudes"))
    correspondence = _correspondence(raw.get("correspondence"), sys_vec.dim, app_vec.dim)
    return MeasurementModel(
        sys=sys_vec,
        app=app_vec,
        correspondence=correspondence,
        gamma=gamma,
        omega=omega,
        epsilon=epsilon,
        hamiltonian=None,
    )


def _integrator(raw) -> IntegratorConfig:
    raw = _section({} if raw is None else raw, "integrator")
    if "t_max" not in raw:
        raise ConfigError("integrator section needs 't_max'")
    kwargs = {"t_max": _number(raw["t_max"], "t_max")}
    if raw.get("dt") is not None:
        kwargs["dt"] = _number(raw["dt"], "dt")
    if "safety" in raw:
        kwargs["safety"] = _number(raw["safety"], "safety")
    if raw.get("record_every") is not None:
        kwargs["record_every"] = _integer(raw["record_every"], "record_every")
    if "record_points" in raw:
        kwargs["record_points"] = _integer(raw["record_points"], "record_points")
    if "record_spacing" in raw:
        kwargs["record_spacing"] = str(raw["record_spacing"])
    return IntegratorConfig(**kwargs)


def load_run_config(path: str, mode: str | None = None, out_dir: str | None = None,
                    plot: bool | None = None, gammas: tuple[float, ...] | None = None) -> RunConfig:
    """Load a JSON config; keyword arguments override the file's values."""
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict) or "scenario" not in raw:
        raise ConfigError(f"config file {path} lacks a 'scenario' section")
    model = _model_from_scenario(raw["scenario"])
    integrator = _integrator(raw.get("integrator"))
    outputs = _section(raw.get("outputs", {}), "outputs")
    config_dir = outputs.get("dir", ".")
    if not isinstance(config_dir, str):
        raise ConfigError(f"outputs dir must be a JSON string, got {config_dir!r}")
    config_plot = outputs.get("plot", False)
    if not isinstance(config_plot, bool):
        raise ConfigError(f"outputs plot must be a JSON boolean, got {config_plot!r}")
    resolved_mode = mode or raw.get("mode", "full")
    if resolved_mode not in ("full", "fast"):
        raise ConfigError(f"unknown mode {resolved_mode!r}; expected 'full' or 'fast'")
    if resolved_mode == "full" and model.hamiltonian is None:
        raise ConfigError("mode 'full' requires a scenario with a Hamiltonian (tilt angles)")
    if gammas is None and raw.get("gammas") is not None:
        gammas = tuple(_number(g, "gammas entry") for g in _list(raw["gammas"], "gammas"))
    alignment_tol = _number(raw.get("alignment_tol", DEFAULT_ALIGNMENT_TOL), "alignment_tol")
    if alignment_tol <= 0:
        raise ConfigError(f"alignment_tol must be positive, got {alignment_tol!r}")
    return RunConfig(
        model=model,
        integrator=integrator,
        mode=resolved_mode,
        out_dir=out_dir if out_dir is not None else config_dir,
        plot=bool(plot) if plot is not None else config_plot,
        alignment_tol=alignment_tol,
        gammas=gammas,
    )
