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

Each scalar goes as written to the library call that checks it, so a value
error is that call's ValidationError; the loader keeps only JSON's rules:
counts and reading indices may be written 2.0, amplitudes are numbers or
[re, im] pairs, outcome keys are decimal strings, and a section refuses
unknown keys. Those structural errors are ConfigError.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .evolution import DEFAULT_ALIGNMENT_TOL, IntegratorConfig, _size_spectrum
from .model import DEFAULT_EPSILON, CorrespondenceMap, MeasurementModel, StateVector, spin_half_scenario
from .states import _positive

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
    """A finite JSON number, for an amplitude part: ``complex()`` would overflow on a
    huge int; a string or a JSON boolean is rejected."""
    if not _is_number(value):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def _integer(value, name: str) -> int:
    """An integral JSON number; 2.0 passes, 2.5, strings and JSON booleans are rejected."""
    if not (_is_number(value) and float(value).is_integer()):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _section(raw, name: str, keys: tuple[str, ...] | None = None) -> dict:
    """``raw`` as a JSON object; given ``keys``, one that holds no other key."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{name} must be a JSON object, got {raw!r}")
    unknown = [key for key in raw if key not in keys] if keys is not None else []
    if unknown:
        raise ConfigError(f"{name} has unknown key {unknown[0]!r}; known keys: {', '.join(keys)}")
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
    raw = _section(raw, "correspondence", ("assignment", "weights"))
    assignment_raw = raw.get("assignment")
    if assignment_raw is None:
        raise ConfigError("correspondence section needs an 'assignment' mapping")
    assignment = [[] for _ in range(outcomes)]
    for index, group in _keyed(assignment_raw, outcomes, "correspondence assignment").items():
        assignment[index] = [
            _integer(j, "correspondence reading")
            for j in _list(group, "correspondence assignment group")
        ]
    weights = None
    if raw.get("weights") is not None:
        weights = [[1.0 / max(len(group), 1)] * len(group) for group in assignment]
        for index, group in _keyed(raw["weights"], outcomes, "correspondence weights").items():
            weights[index] = _list(group, "correspondence weight group")
    return CorrespondenceMap.from_assignment(outcomes, readings, assignment, weights)


def _model_from_scenario(raw) -> MeasurementModel:
    raw = _section(raw, "scenario")
    has_angles = "alpha_s" in raw
    if has_angles == ("sys_amplitudes" in raw):
        raise ConfigError("scenario needs exactly one of 'alpha_s' or 'sys_amplitudes'")
    kind = ("alpha_s", "alpha_a") if has_angles else ("sys_amplitudes", "app_amplitudes", "correspondence")
    _section(raw, "scenario", (*kind, "gamma", "omega", "epsilon"))
    gamma, omega, epsilon = raw.get("gamma", 1.0), raw.get("omega", 1.0), raw.get("epsilon", DEFAULT_EPSILON)
    if has_angles:
        if "alpha_a" not in raw:
            raise ConfigError("scenario with 'alpha_s' also needs 'alpha_a'")
        return spin_half_scenario(raw["alpha_s"], raw["alpha_a"], gamma, omega, epsilon)
    sys_vec = StateVector(_amplitudes(raw["sys_amplitudes"], "sys_amplitudes"))
    if "app_amplitudes" not in raw:
        raise ConfigError("scenario with 'sys_amplitudes' also needs 'app_amplitudes'")
    app_vec = StateVector(_amplitudes(raw["app_amplitudes"], "app_amplitudes"))
    _size_spectrum(sys_vec.dim * app_vec.dim)  # past every command's limit: refused before O(I J) work
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
    raw = _section({} if raw is None else raw, "integrator",
                   ("t_max", "dt", "safety", "record_every", "record_points", "record_spacing"))
    if "t_max" not in raw:
        raise ConfigError("integrator section needs 't_max'")
    counts = {name: _integer(raw[name], name) for name in ("record_every", "record_points")
              if raw.get(name) is not None}
    return IntegratorConfig(**{**raw, **counts})


def load_run_config(path: str, mode: str | None = None, out_dir: str | None = None,
                    plot: bool | None = None, gammas: tuple[float, ...] | None = None) -> RunConfig:
    """Load a JSON config; keyword arguments override the file's values."""
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except (ValueError, RecursionError) as exc:
        # ValueError: bad JSON, bad UTF-8 or too many integer digits; RecursionError: deep nesting
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict) or "scenario" not in raw:
        raise ConfigError(f"config file {path} lacks a 'scenario' section")
    # every section refuses a key it does not read, before the model is built
    _section(raw, "config", ("scenario", "integrator", "mode", "outputs", "gammas", "alignment_tol"))
    integrator = _integrator(raw.get("integrator"))
    outputs = _section(raw.get("outputs", {}), "outputs", ("dir", "plot"))
    model = _model_from_scenario(raw["scenario"])
    config_dir = outputs.get("dir", ".")
    if not isinstance(config_dir, str):
        raise ConfigError(f"outputs dir must be a JSON string, got {config_dir!r}")
    config_plot = outputs.get("plot", False)
    if not isinstance(config_plot, bool):
        raise ConfigError(f"outputs plot must be a JSON boolean, got {config_plot!r}")
    resolved_mode = mode or raw.get("mode", "full")
    if resolved_mode not in ("full", "fast"):
        raise ConfigError(f"unknown mode {resolved_mode!r}; expected 'full' or 'fast'")
    if gammas is None and raw.get("gammas") is not None:
        gammas = tuple(_positive(g, "sweep gammas") for g in _list(raw["gammas"], "gammas"))
    alignment_tol = _positive(raw.get("alignment_tol", DEFAULT_ALIGNMENT_TOL), "alignment_tol")
    return RunConfig(
        model=model,
        integrator=integrator,
        mode=resolved_mode,
        out_dir=out_dir if out_dir is not None else config_dir,
        plot=bool(plot) if plot is not None else config_plot,
        alignment_tol=alignment_tol,
        gammas=gammas,
    )
