"""Seeded random valid scenarios at n = 4, 9 and 16: the physics invariants
on every snapshot of both modes, full mode against the exact solution, and
the closed-form dissipator against the dense jump family."""

import numpy as np
import pytest

from collapse_sim import (
    IntegratorConfig,
    apply_dissipator,
    apply_dissipator_closed_form,
    lindblad_jump_family,
    simulate_model,
)
from collapse_sim.evolution import SNAPSHOT_HERMITICITY_TOL, SNAPSHOT_POSITIVITY_TOL, TRACE_DRIFT_TOL
from conftest import exact_states, random_amplitude_model, random_density_matrix

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
