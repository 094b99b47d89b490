import math

import numpy as np
import pytest

from collapse_sim import (
    CorrespondenceMap,
    IntegratorConfig,
    MeasurementModel,
    StateVector,
    apply_dissipator_closed_form,
    simulate_model,
    spin_half_scenario,
)
from collapse_sim.evolution import _stack_blocks

ALPHA_S = 0.37 * math.pi
ALPHA_A = 0.65 * math.pi
GAMMA = 5.0
OMEGA = 1.0
EPSILON = 1e-4


@pytest.fixture(scope="session")
def two_level_model():
    """The reference two-level scenario used across the suite."""
    return spin_half_scenario(ALPHA_S, ALPHA_A, GAMMA, OMEGA, EPSILON)


@pytest.fixture(scope="session")
def two_level_trajectory(two_level_model):
    return simulate_model(two_level_model, IntegratorConfig(t_max=1.0), mode="full")


def stack_block(n):
    """Snapshots per block of ``evolution._stack_blocks`` at dimension n, read off the rule
    itself on a zero-stride stack of 2^20 snapshots that holds the memory of one."""
    return next(_stack_blocks(np.broadcast_to(np.zeros((n, n), dtype=complex), (2**20, n, n)))).stop


def random_state(rng, n):
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


def random_density_matrix(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_hermitian_unit_trace(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h = 0.5 * (a + a.conj().T)
    h += (1.0 - np.trace(h).real) / n * np.eye(n)
    return h


def random_unitary(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(a)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_hamiltonian(rng, n, norm):
    """Hermitian n x n matrix with spectral norm ``norm``."""
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h = 0.5 * (a + a.conj().T)
    return h * (norm / np.abs(np.linalg.eigvalsh(h)).max())


def random_amplitude_model(rng, outcomes, readings):
    """A valid amplitude scenario with random amplitudes, couplings and
    reading weights, every reading assigned to a random outcome (each outcome
    gets at least one), and a random Hermitian H of spectral norm omega."""
    owner = np.concatenate([np.arange(outcomes), rng.integers(0, outcomes, readings - outcomes)])
    rng.shuffle(owner)
    assignment = [np.flatnonzero(owner == i).tolist() for i in range(outcomes)]
    weights = []
    for group in assignment:
        w = rng.uniform(0.5, 1.5, size=len(group))
        weights.append((w / w.sum()).tolist())
    omega = rng.uniform(0.5, 2.0)
    return MeasurementModel(
        sys=StateVector(random_state(rng, outcomes)),
        app=StateVector(random_state(rng, readings)),
        correspondence=CorrespondenceMap.from_assignment(outcomes, readings, assignment, weights),
        gamma=rng.uniform(1.0, 10.0),
        omega=omega,
        epsilon=1e-4,
        hamiltonian=random_hamiltonian(rng, outcomes * readings, omega),
    )


def closed_form_generator(model):
    """Liouvillian on row-major vec(rho), one column per matrix unit, from
    ``apply_dissipator_closed_form`` plus the commutator with the model's H."""
    n = model.dim
    rates = model.rate_table()
    h = np.asarray(model.hamiltonian)
    g = np.empty((n * n, n * n), dtype=complex)
    for k in range(n * n):
        unit = np.zeros((n, n), dtype=complex)
        unit.flat[k] = 1.0
        rhs = apply_dissipator_closed_form(rates, model.gamma, model.omega, unit)
        g[:, k] = (rhs - 1j * (h @ unit - unit @ h)).reshape(-1)
    return g


def exact_states(model, times):
    """exp(G t) rho0 for every t in ``times``, with G from
    :func:`closed_form_generator`, by one eigendecomposition; (T, n, n)."""
    w, v = np.linalg.eig(closed_form_generator(model))
    coeff = np.linalg.solve(v, model.initial_dm().entries.reshape(-1))
    n = model.dim
    return ((np.exp(np.outer(times, w)) * coeff) @ v.T).reshape(-1, n, n)


def balanced_draws(count=200, seed=2026):
    """Seeded (p, gamma, omega) draws at 1 <= n <= 59, with probabilities
    spread over eight decades and about a fifth of them at the 1e-8 floor."""
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(count):
        n = int(rng.integers(1, 60))
        p = 10.0 ** rng.uniform(-8.0, 0.0, size=n)
        p[rng.random(n) < 0.2] = 1e-8
        draws.append((p, 10.0 ** rng.uniform(-2.0, 2.0), 10.0 ** rng.uniform(-1.0, 1.0)))
    return draws

