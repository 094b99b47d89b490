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
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .evolution import IntegratorConfig
from .model import CorrespondenceMap, MeasurementModel, StateVector, spin_half_scenario

DEFAULT_EPSILON = 1e-4
DEFAULT_ALIGNMENT_TOL = 0.01


@dataclass(frozen=True)
class RunConfig:
    model: MeasurementModel
    integrator: IntegratorConfig
    mode: str
    out_dir: str
    plot: bool
    alignment_tol: float
    gammas: tuple[float, ...] | None


def _number(value, name: str, kind=float):
    try:
        number = kind(value)
        if np.isfinite(number):
            return number
    except (TypeError, ValueError, OverflowError):
        pass
    raise ConfigError(f"{name} must be a finite number, got {value!r}")


def _amplitudes(raw, name: str) -> np.ndarray:
    try:
        values = [complex(x[0], x[1]) if isinstance(x, (list, tuple)) else complex(x) for x in raw]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name}: amplitudes must be numbers or [re, im] pairs") from exc
    return np.asarray(values, dtype=complex)


def _correspondence(raw, outcomes: int, readings: int) -> CorrespondenceMap:
    if raw is None:
        if outcomes != readings:
            raise ConfigError(
                "a correspondence section is required when outcome and reading counts differ"
            )
        return CorrespondenceMap.one_to_one(outcomes)
    assignment_raw = raw.get("assignment")
    if assignment_raw is None:
        raise ConfigError("correspondence section needs an 'assignment' mapping")
    assignment = [[] for _ in range(outcomes)]
    for key, group in assignment_raw.items():
        assignment[int(key)] = list(group)
    weights = None
    if raw.get("weights") is not None:
        weights = [[1.0 / max(len(group), 1)] * len(group) for group in assignment]
        for key, group in raw["weights"].items():
            weights[int(key)] = [_number(w, "correspondence weight") for w in group]
    return CorrespondenceMap.from_assignment(outcomes, readings, assignment, weights)


def _model_from_scenario(raw: dict) -> MeasurementModel:
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


def _integrator(raw: dict | None) -> IntegratorConfig:
    raw = raw or {}
    if "t_max" not in raw:
        raise ConfigError("integrator section needs 't_max'")
    kwargs = {"t_max": _number(raw["t_max"], "t_max")}
    if raw.get("dt") is not None:
        kwargs["dt"] = _number(raw["dt"], "dt")
    if "safety" in raw:
        kwargs["safety"] = _number(raw["safety"], "safety")
    if raw.get("record_every") is not None:
        kwargs["record_every"] = _number(raw["record_every"], "record_every", int)
    if "record_points" in raw:
        kwargs["record_points"] = _number(raw["record_points"], "record_points", int)
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
    if "scenario" not in raw:
        raise ConfigError(f"config file {path} lacks a 'scenario' section")
    model = _model_from_scenario(raw["scenario"])
    integrator = _integrator(raw.get("integrator"))
    outputs = raw.get("outputs", {})
    resolved_mode = mode or raw.get("mode", "full")
    if resolved_mode not in ("full", "fast"):
        raise ConfigError(f"unknown mode {resolved_mode!r}; expected 'full' or 'fast'")
    if resolved_mode == "full" and model.hamiltonian is None:
        raise ConfigError("mode 'full' requires a scenario with a Hamiltonian (tilt angles)")
    if gammas is None and raw.get("gammas") is not None:
        gammas = tuple(_number(g, "gammas entry") for g in raw["gammas"])
    return RunConfig(
        model=model,
        integrator=integrator,
        mode=resolved_mode,
        out_dir=out_dir if out_dir is not None else str(outputs.get("dir", ".")),
        plot=bool(plot) if plot is not None else bool(outputs.get("plot", False)),
        alignment_tol=_number(raw.get("alignment_tol", DEFAULT_ALIGNMENT_TOL), "alignment_tol"),
        gammas=gammas,
    )
