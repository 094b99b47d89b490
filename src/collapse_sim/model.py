"""Measurement scenarios: Born weights, rate tables, outcome/reading
correspondence maps, and the tilted-field two-level example."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, ValidationError
from .states import (
    HERMITICITY_TOL,
    NORM_TOL,
    DensityMatrix,
    StateVector,
    _angle,
    _check_hermitian,
    _checked_amplitudes,
    _integer,
    _positive,
    _readonly,
    aligned_dm,
    product_state_dm,
)

# the rate floor of a scenario that names none: spin_half_scenario and a config without epsilon
DEFAULT_EPSILON = 1e-4


@dataclass(frozen=True)
class CorrespondenceMap:
    """Assignment of pointer readings to observable outcomes.

    ``assignment[i]`` lists the readings for outcome ``i`` and ``weights[i]``
    their probability shares (each group sums to 1). Reading sets are
    disjoint; the default construction is one reading per outcome.
    """

    outcomes: int
    readings: int
    assignment: tuple[tuple[int, ...], ...]
    weights: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        for name in ("outcomes", "readings"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        if self.outcomes < 1 or self.readings < 1:
            raise ValidationError("outcome and reading counts must be positive")
        object.__setattr__(self, "assignment",
                           tuple(tuple(_integer(j, "reading index") for j in g) for g in self.assignment))
        object.__setattr__(self, "weights",
                           tuple(tuple(_positive(x, "reading weight") for x in w) for w in self.weights))
        if len(self.assignment) != self.outcomes or len(self.weights) != self.outcomes:
            raise ValidationError("assignment and weights must cover every outcome")
        seen: set[int] = set()
        for i, (group, w) in enumerate(zip(self.assignment, self.weights)):
            if len(group) == 0:
                raise ValidationError(f"outcome {i} has no readings assigned")
            if len(group) != len(w):
                raise ValidationError(f"outcome {i}: weights do not match readings")
            for j in group:
                if not 0 <= j < self.readings:
                    raise ValidationError(f"reading index {j} outside 0..{self.readings - 1}")
                if j in seen:
                    raise ValidationError(f"reading {j} assigned to more than one outcome")
                seen.add(j)
            total = math.fsum(w)
            if not abs(total - 1.0) <= NORM_TOL:
                raise ValidationError(f"outcome {i}: reading weights sum to {total!r}")

    @classmethod
    def one_to_one(cls, n: int) -> "CorrespondenceMap":
        n = _integer(n, "n")
        return cls(n, n, tuple((i,) for i in range(n)), tuple((1.0,) for _ in range(n)))

    @classmethod
    def from_assignment(
        cls,
        outcomes: int,
        readings: int,
        assignment: Sequence[Sequence[int]],
        weights: Sequence[Sequence[float]] | None = None,
    ) -> "CorrespondenceMap":
        groups = tuple(tuple(g) for g in assignment)
        if weights is None:
            weights = tuple(tuple(1.0 / len(g) for _ in g) for g in groups)
        return cls(outcomes, readings, groups, weights)

    def _pairings(self):
        """``(i, i * J + j, w_ij)`` for every pairing, in assignment order."""
        for i, (group, weights) in enumerate(zip(self.assignment, self.weights)):
            for j, w in zip(group, weights):
                yield i, i * self.readings + j, w

    def aligned_flat_indices(self) -> list[int]:
        """Flat indices (i * J + j) of every outcome/reading pairing."""
        return sorted(flat for _, flat, _ in self._pairings())

    def flat_weights(self, probs) -> np.ndarray:
        """Born weights over the combined flat indices: ``p_i * w_ij`` at
        ``i * J + j`` for every pairing and zero elsewhere.

        ``probs`` must hold one non-negative probability per outcome and sum
        to 1 within NORM_TOL; a NaN entry fails the sum check.
        """
        p = np.asarray(probs, dtype=float).reshape(-1)
        if p.size != self.outcomes:
            raise ValidationError(f"got {p.size} probabilities for {self.outcomes} outcomes")
        total = float(p.sum())
        if not abs(total - 1.0) <= NORM_TOL:
            raise ValidationError(f"probabilities sum to {total!r}, expected 1")
        if np.any(p < 0):
            raise ValidationError("probabilities must be non-negative")
        out = np.zeros(self.outcomes * self.readings)
        for i, flat, w in self._pairings():
            out[flat] = p[i] * w
        return out


@dataclass(frozen=True, eq=False)
class RateTable:
    """Non-negative rate parameters on the outcome x reading grid.

    Entries sit at or above ``floor``; the floor replaces the zeros that
    would otherwise make the inverse rates singular.
    """

    values: np.ndarray
    floor: float

    def __post_init__(self):
        v = np.array(self.values, dtype=float)
        if v.ndim != 2:
            raise ValidationError(f"rate table must be 2-D, got shape {v.shape}")
        _positive(self.floor, "rate floor")
        if not np.all(v >= self.floor):
            raise ValidationError("rate table entries must not drop below the floor")
        object.__setattr__(self, "values", _readonly(v))

    @property
    def flat(self) -> np.ndarray:
        """Entries read through the flat (i * J + j) convention."""
        return self.values.reshape(-1)

    def flat_probabilities(self) -> np.ndarray:
        """Squared entries over flat indices: the stationary weights."""
        return self.flat**2


def born_probabilities(sys) -> np.ndarray:
    """Outcome probabilities |amplitude|^2 of a normalized state vector."""
    amps = _checked_amplitudes(sys, "sys")
    return np.abs(amps) ** 2


def born_rate_table(probs, correspondence: CorrespondenceMap, epsilon: float) -> RateTable:
    """Rate table whose squares reproduce the outcome probabilities.

    The entry for outcome ``i`` at an assigned reading ``j`` is
    ``max(sqrt(p_i * w_ij), epsilon)``, read off
    :meth:`CorrespondenceMap.flat_weights`; every unassigned entry is exactly
    ``epsilon``. One-to-one with uniform weights reduces to
    ``max(sqrt(p_i), epsilon)`` on the grid diagonal.
    """
    epsilon = _positive(epsilon, "epsilon")
    roots = np.sqrt(correspondence.flat_weights(probs))
    smallest = float(roots[roots > 0].min(initial=math.inf))
    if epsilon >= smallest:
        raise ConfigError(f"rate floor {epsilon!r} would mask the smallest physical rate {smallest!r}")
    grid = np.maximum(roots, epsilon).reshape(correspondence.outcomes, correspondence.readings)
    return RateTable(grid, epsilon)


def zeeman_hamiltonian(alpha: float, energy_scale: float) -> np.ndarray:
    """Two-level Hamiltonian for a field tilted by ``2 * alpha`` in the x-z plane.

    Eigenvalues are +-energy_scale/2 and the +energy_scale/2 eigenvector is
    ``(cos alpha, sin alpha)``.
    """
    _angle(alpha, "alpha")
    _positive(energy_scale, "energy scale")
    c = math.cos(2.0 * alpha)
    s = math.sin(2.0 * alpha)
    return 0.5 * energy_scale * np.array([[c, s], [s, -c]], dtype=float)


@dataclass(frozen=True, eq=False)
class MeasurementModel:
    """Full scenario: prepared states, correspondence, couplings, Hamiltonian.

    ``gamma`` is the dimensionless environment coupling, ``omega`` the
    frequency that carries the units (hbar = 1), ``epsilon`` the rate floor.
    ``hamiltonian`` may be None for scenarios run only in the
    dissipator-dominated mode.

    None of the rate table, the initial state and the aligned target depends
    on ``gamma``. A model derives each of them once: the rate table when it
    is built (which also validates ``epsilon``), the initial state and the
    target on their first call. Every later call returns the same read-only
    object, so a coupling sweep runs on one model and does not rebuild them.
    """

    sys: StateVector
    app: StateVector
    correspondence: CorrespondenceMap
    gamma: float
    omega: float
    epsilon: float
    hamiltonian: np.ndarray | None = None

    def __post_init__(self):
        for name in ("gamma", "omega", "epsilon"):
            _positive(getattr(self, name), name)
        if self.sys.dim != self.correspondence.outcomes:
            raise ValidationError(
                f"system dimension {self.sys.dim} does not match "
                f"{self.correspondence.outcomes} outcomes"
            )
        if self.app.dim != self.correspondence.readings:
            raise ValidationError(
                f"apparatus dimension {self.app.dim} does not match "
                f"{self.correspondence.readings} readings"
            )
        if self.hamiltonian is not None:
            h = np.array(self.hamiltonian, dtype=complex)
            _check_hermitian(h, self.dim, "Hamiltonian", HERMITICITY_TOL)
            object.__setattr__(self, "hamiltonian", _readonly(h))
        # rejects an epsilon large enough to mask a physical rate
        rates = born_rate_table(self.probabilities(), self.correspondence, self.epsilon)
        object.__setattr__(self, "_rate_table", rates)

    @property
    def dim(self) -> int:
        return self.sys.dim * self.app.dim

    def probabilities(self) -> np.ndarray:
        return born_probabilities(self.sys)

    def rate_table(self) -> RateTable:
        return self._rate_table

    def initial_dm(self) -> DensityMatrix:
        if "_initial_dm" not in self.__dict__:
            object.__setattr__(self, "_initial_dm", product_state_dm(self.sys, self.app))
        return self._initial_dm

    def aligned_target(self) -> DensityMatrix:
        if "_aligned_target" not in self.__dict__:
            object.__setattr__(self, "_aligned_target",
                               aligned_dm(self.probabilities(), self.correspondence))
        return self._aligned_target


def spin_half_scenario(
    alpha_s: float,
    alpha_a: float,
    gamma: float,
    omega: float,
    epsilon: float = DEFAULT_EPSILON,
) -> MeasurementModel:
    """Two-level system and two-level pointer, both prepared in eigenstates
    of fields tilted by ``2 * alpha``; one-to-one correspondence. Each argument
    is checked before any work, and a bad one raises ValidationError naming it."""
    _angle(alpha_s, "alpha_s")
    _angle(alpha_a, "alpha_a")
    gamma, omega, epsilon = _positive(gamma, "gamma"), _positive(omega, "omega"), _positive(epsilon, "epsilon")
    sys = StateVector(np.array([math.cos(alpha_s), math.sin(alpha_s)]))
    app = StateVector(np.array([math.cos(alpha_a), math.sin(alpha_a)]))
    h_sys = zeeman_hamiltonian(alpha_s, omega)
    h_app = zeeman_hamiltonian(alpha_a, omega)
    eye = np.eye(2)
    hamiltonian = np.kron(h_sys, eye) + np.kron(eye, h_app)
    return MeasurementModel(
        sys=sys,
        app=app,
        correspondence=CorrespondenceMap.one_to_one(2),
        gamma=gamma,
        omega=omega,
        epsilon=epsilon,
        hamiltonian=hamiltonian,
    )
