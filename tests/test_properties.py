"""Seeded random valid scenarios at n = 4, 9 and 16: the physics invariants
on every snapshot of both modes, full mode against the exact solution, and
the closed-form dissipator against the dense jump family; and every public
scalar input refused alike, before any work."""

import dataclasses
import math

import numpy as np
import pytest

from collapse_sim import (
    CorrespondenceMap,
    IntegratorConfig,
    RateTable,
    ValidationError,
    alignment_time,
    apply_dissipator_closed_form,
    born_rate_table,
    gamma_sweep,
    simulate_model,
    spin_half_scenario,
    zeeman_hamiltonian,
)
from collapse_sim import evolution
from collapse_sim.dissipator import apply_dissipator, lindblad_jump_family
from collapse_sim.evolution import SNAPSHOT_HERMITICITY_TOL, SNAPSHOT_POSITIVITY_TOL, TRACE_DRIFT_TOL
from conftest import ALPHA_A, ALPHA_S, exact_states, random_amplitude_model, random_density_matrix

# (outcomes, readings): one reading per outcome, and several readings per
# outcome with random weights
SHAPES = [(2, 2), (3, 3), (4, 4), (2, 8)]
SEEDS = [0, 1, 2]


def _model(shape, seed):
    return random_amplitude_model(np.random.default_rng([seed, *shape]), *shape)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
class TestRandomScenarios:
    @pytest.mark.parametrize("mode", ["full", "fast"])
    def test_invariants_hold_on_every_snapshot(self, shape, seed, mode):
        traj = simulate_model(_model(shape, seed), IntegratorConfig(t_max=1.0), mode=mode)
        states = traj.states
        assert np.abs(np.trace(states, axis1=1, axis2=2) - 1.0).max() <= TRACE_DRIFT_TOL
        assert np.abs(states - states.conj().transpose(0, 2, 1)).max() <= SNAPSHOT_HERMITICITY_TOL
        assert np.linalg.eigvalsh(states)[:, 0].min() >= -SNAPSHOT_POSITIVITY_TOL

    def test_full_mode_matches_exact_solution(self, shape, seed):
        model = _model(shape, seed)
        traj = simulate_model(model, IntegratorConfig(t_max=1.0), mode="full")
        assert np.abs(exact_states(model, traj.times) - traj.states).max() <= 1e-5

    def test_closed_form_matches_dense_family(self, shape, seed):
        model = _model(shape, seed)
        rates = model.rate_table()
        spec = lindblad_jump_family(rates, model.gamma, model.omega)
        rng = np.random.default_rng(seed)
        for rho in (model.initial_dm().entries, random_density_matrix(rng, model.dim)):
            dense = apply_dissipator(spec, rho)
            closed = apply_dissipator_closed_form(rates, model.gamma, model.omega, rho)
            assert np.abs(closed - dense).max() <= 1e-12 * np.abs(dense).max()


# a bool, a string, an int past the largest float, NaN, +-inf, zero and a negative
NOT_POSITIVE = [True, "1", 10**400, math.nan, math.inf, -math.inf, 0, -1.0]
# a bool, a string, an int past the largest float, NaN, inf, and a float whose double overflows
NOT_ANGLES = [True, "0.3", 10**400, math.nan, math.inf, 1e308]
CFG = IntegratorConfig(t_max=0.1)

# (parameter named in the message, call with the value v on the reference model and trajectory)
POSITIVE_SITES = {
    "config t_max": ("t_max", lambda v, model, traj: IntegratorConfig(t_max=v)),
    "config dt": ("dt", lambda v, model, traj: IntegratorConfig(t_max=1.0, dt=v)),
    "config safety": ("safety", lambda v, model, traj: IntegratorConfig(t_max=1.0, safety=v)),
    "simulate gamma": ("gamma", lambda v, model, traj: simulate_model(model, CFG, "full", gamma=v)),
    "sweep gammas": ("sweep gammas", lambda v, model, traj: gamma_sweep(model, [5.0, v], CFG)),
    "sweep tol": ("alignment tolerance",
                  lambda v, model, traj: gamma_sweep(model, [5.0, 10.0], CFG, tol=v)),
    "alignment tol": ("alignment tolerance",
                      lambda v, model, traj: alignment_time(traj, model.aligned_target(), tol=v)),
    "rate floor": ("rate floor", lambda v, model, traj: RateTable(np.ones((2, 2)), v)),
    "born epsilon": ("epsilon", lambda v, model, traj: born_rate_table(
        [0.5, 0.5], CorrespondenceMap.one_to_one(2), v)),
    "energy scale": ("energy scale", lambda v, model, traj: zeeman_hamiltonian(0.3, v)),
    **{f"model {name}": (name, lambda v, model, traj, name=name: dataclasses.replace(model, **{name: v}))
       for name in ("gamma", "omega", "epsilon")},
    **{f"scenario {name}": (name, lambda v, model, traj, name=name: spin_half_scenario(
        ALPHA_S, ALPHA_A, **{"gamma": 5.0, "omega": 1.0, name: v}))
       for name in ("gamma", "omega", "epsilon")},
}
ANGLE_SITES = {
    "scenario alpha_s": ("alpha_s", lambda v: spin_half_scenario(v, ALPHA_A, 5.0, 1.0)),
    "scenario alpha_a": ("alpha_a", lambda v: spin_half_scenario(ALPHA_S, v, 5.0, 1.0)),
    "field alpha": ("alpha", lambda v: zeeman_hamiltonian(v, 1.0)),
}


def _refused(call, values, name):
    for value in values:
        with pytest.raises(ValidationError) as info:
            call(value)
        assert type(info.value) is ValidationError, (value, info.value)
        assert str(info.value).startswith(f"{name} must be "), (value, info.value)


class TestScalarInputs:
    """Every public positive scalar and angle is refused with exactly a
    ValidationError naming it, the same rule at every site, before a run starts."""

    @pytest.fixture
    def no_run(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a run started")

        monkeypatch.setattr(evolution, "_run", forbidden)

    @pytest.mark.parametrize("site", POSITIVE_SITES)
    def test_positive_scalar_is_refused(self, site, two_level_model, two_level_trajectory, no_run):
        name, call = POSITIVE_SITES[site]
        _refused(lambda v: call(v, two_level_model, two_level_trajectory), NOT_POSITIVE, name)

    @pytest.mark.parametrize("site", ANGLE_SITES)
    def test_angle_is_refused(self, site):
        name, call = ANGLE_SITES[site]
        _refused(call, NOT_ANGLES, name)

    def test_sweep_of_a_string_is_refused(self, two_level_model, no_run):
        # a string is not a sequence of gammas: "25" is not gamma = 2 then gamma = 5
        with pytest.raises(ValidationError, match="sweep gammas must be a number, got '2'"):
            gamma_sweep(two_level_model, "25", CFG)

    @pytest.mark.parametrize("gammas", [5.0, None])
    def test_sweep_of_one_value_is_refused(self, two_level_model, no_run, gammas):
        # one number, or none, is not a sequence of gammas
        with pytest.raises(ValidationError) as info:
            gamma_sweep(two_level_model, gammas, CFG)
        assert type(info.value) is ValidationError
        assert str(info.value) == f"sweep gammas must be a sequence of numbers, got {gammas!r}"

    @pytest.mark.parametrize("mode", ["full", "fast"])
    def test_int_and_numpy_gamma_run_as_their_float(self, two_level_model, mode):
        runs = [simulate_model(two_level_model, CFG, mode, gamma=g) for g in (5.0, 5, np.float64(5.0))]
        assert len({(t.states.tobytes(), t.times.tobytes()) for t in runs}) == 1
