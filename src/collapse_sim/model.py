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
    _checked_amplitudes,
    _readonly,
    aligned_dm,
    product_state_dm,
)


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
        if self.outcomes < 1 or self.readings < 1:
            raise ValidationError("outcome and reading counts must be positive")
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
            if any(x <= 0 for x in w):
                raise ValidationError(f"outcome {i}: reading weights must be positive")
            total = math.fsum(w)
            if abs(total - 1.0) > NORM_TOL:
                raise ValidationError(f"outcome {i}: reading weights sum to {total!r}")

    @classmethod
    def one_to_one(cls, n: int) -> "CorrespondenceMap":
        return cls(n, n, tuple((i,) for i in range(n)), tuple((1.0,) for _ in range(n)))

    @classmethod
    def from_assignment(
        cls,
        outcomes: int,
        readings: int,
        assignment: Sequence[Sequence[int]],
        weights: Sequence[Sequence[float]] | None = None,
    ) -> "CorrespondenceMap":
        groups = tuple(tuple(int(j) for j in g) for g in assignment)
        if weights is None:
            weights = tuple(tuple(1.0 / len(g) for _ in g) for g in groups)
        else:
            weights = tuple(tuple(float(x) for x in w) for w in weights)
        return cls(outcomes, readings, groups, weights)

    @property
    def is_one_to_one(self) -> bool:
        return self.outcomes == self.readings and all(
            g == (i,) for i, g in enumerate(self.assignment)
        )

    def aligned_flat_indices(self) -> list[int]:
        """Flat indices (i * J + j) of every outcome/reading pairing."""
        out = []
        for i, group in enumerate(self.assignment):
            out.extend(i * self.readings + j for j in group)
        return sorted(out)


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
        if self.floor <= 0:
            raise ValidationError("rate floor must be positive")
        if np.any(v < self.floor):
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
    ``max(sqrt(p_i * w_ij), epsilon)``; every unassigned entry is exactly
    ``epsilon``. One-to-one with uniform weights reduces to
    ``max(sqrt(p_i), epsilon)`` on the grid diagonal.
    """
    p = np.asarray(probs, dtype=float).reshape(-1)
    if p.size != correspondence.outcomes:
        raise ValidationError(
            f"got {p.size} probabilities for {correspondence.outcomes} outcomes"
        )
    total = float(p.sum())
    if abs(total - 1.0) > NORM_TOL:
        raise ValidationError(f"probabilities sum to {total!r}, expected 1")
    if epsilon <= 0:
        raise ValidationError("epsilon must be positive")
    physical = [
        math.sqrt(p[i] * w)
        for i, (group, weights) in enumerate(zip(correspondence.assignment, correspondence.weights))
        for _, w in zip(group, weights)
        if p[i] > 0
    ]
    if physical and epsilon >= min(physical):
        raise ConfigError(
            f"rate floor {epsilon!r} would mask the smallest physical rate {min(physical)!r}"
        )
    grid = np.full((correspondence.outcomes, correspondence.readings), float(epsilon))
    for i, (group, weights) in enumerate(zip(correspondence.assignment, correspondence.weights)):
        for j, w in zip(group, weights):
            grid[i, j] = max(math.sqrt(p[i] * w), epsilon)
    return RateTable(grid, float(epsilon))


def zeeman_hamiltonian(alpha: float, energy_scale: float) -> np.ndarray:
    """Two-level Hamiltonian for a field tilted by ``2 * alpha`` in the x-z plane.

    Eigenvalues are +-energy_scale/2 and the +energy_scale/2 eigenvector is
    ``(cos alpha, sin alpha)``.
    """
    if not math.isfinite(energy_scale) or energy_scale <= 0:
        raise ValidationError(f"energy scale must be positive and finite, got {energy_scale!r}")
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
            value = getattr(self, name)
            if not math.isfinite(value) or value <= 0:
                raise ValidationError(f"{name} must be positive and finite, got {value!r}")
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
            n = self.dim
            if h.shape != (n, n):
                raise ValidationError(f"Hamiltonian shape {h.shape} does not match dimension {n}")
            asym = float(np.max(np.abs(h - h.conj().T)))
            if asym > HERMITICITY_TOL:
                raise ValidationError(f"Hamiltonian is not Hermitian: max asymmetry {asym:.3e}")
            object.__setattr__(self, "hamiltonian", _readonly(h))
        # rejects an epsilon large enough to mask a physical rate
        self.rate_table()

    @property
    def dim(self) -> int:
        return self.sys.dim * self.app.dim

    def probabilities(self) -> np.ndarray:
        return born_probabilities(self.sys)

    def rate_table(self) -> RateTable:
        return born_rate_table(self.probabilities(), self.correspondence, self.epsilon)

    def initial_dm(self) -> DensityMatrix:
        return product_state_dm(self.sys, self.app)

    def aligned_target(self) -> DensityMatrix:
        return aligned_dm(self.probabilities(), self.correspondence)


def spin_half_scenario(
    alpha_s: float,
    alpha_a: float,
    gamma: float,
    omega: float,
    epsilon: float = 1e-4,
) -> MeasurementModel:
    """Two-level system and two-level pointer, both prepared in eigenstates
    of fields tilted by ``2 * alpha``; one-to-one correspondence."""
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
        gamma=float(gamma),
        omega=float(omega),
        epsilon=float(epsilon),
        hamiltonian=hamiltonian,
    )
