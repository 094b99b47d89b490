"""State vectors, density matrices, and spectral utilities built on them.

Combined system+pointer matrices use the flat index convention
``(i, j) -> i * J + j`` (row-major, 0-based), where ``i`` labels the
observable outcome and ``j`` the pointer reading.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass

import numpy as np

from .errors import PositivityError, ValidationError

NORM_TOL = 1e-12
HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-10
POSITIVITY_TOL = 1e-10


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _as_matrix(obj) -> np.ndarray:
    """Accept a DensityMatrix or a bare array; return the complex matrix."""
    if isinstance(obj, DensityMatrix):
        return obj.entries
    return np.asarray(obj, dtype=complex)


def _checked_amplitudes(vec, name: str) -> np.ndarray:
    amps = vec.amplitudes if isinstance(vec, StateVector) else np.asarray(vec, dtype=complex).reshape(-1)
    norm_sq = float(np.sum(np.abs(amps) ** 2))
    if not abs(norm_sq - 1.0) <= NORM_TOL:
        raise ValidationError(
            f"{name} vector is not normalized: sum of |amplitude|^2 is {norm_sq!r}"
        )
    return amps


@dataclass(frozen=True, eq=False)
class StateVector:
    """Normalized complex amplitude vector for the system or the apparatus."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=complex).reshape(-1)
        if amps.size < 1:
            raise ValidationError("state vector needs at least one amplitude")
        _checked_amplitudes(amps, "state")
        object.__setattr__(self, "amplitudes", _readonly(amps))

    @property
    def dim(self) -> int:
        return self.amplitudes.size


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace, positive semi-definite complex matrix.

    ``positivity_tol`` loosens the eigenvalue floor for matrices produced by
    numerical integration, which carry round-off of order the step error.
    """

    entries: np.ndarray
    positivity_tol: InitVar[float] = POSITIVITY_TOL
    hermiticity_tol: InitVar[float] = HERMITICITY_TOL
    trace_tol: InitVar[float] = TRACE_TOL

    def __post_init__(self, positivity_tol: float, hermiticity_tol: float, trace_tol: float):
        m = np.array(self.entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise ValidationError(f"density matrix must be square, got shape {m.shape}")
        asym = float(np.max(np.abs(m - m.conj().T)))
        if asym > hermiticity_tol:
            raise ValidationError(f"density matrix is not Hermitian: max asymmetry {asym:.3e}")
        trace = complex(np.trace(m))
        if abs(trace - 1.0) > trace_tol:
            raise ValidationError(f"density matrix trace is {trace!r}, expected 1")
        smallest = float(np.linalg.eigvalsh(m)[0])
        if smallest < -positivity_tol:
            raise PositivityError(f"density matrix has eigenvalue {smallest:.3e} below 0")
        object.__setattr__(self, "entries", _readonly(m))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def product_state_dm(sys, app) -> DensityMatrix:
    """Density matrix of the combined pure product state.

    Entry ((i,j),(i',j')) equals ``s_i a_j conj(s_i') conj(a_j')`` for system
    amplitudes ``s`` and apparatus amplitudes ``a``; the result is pure.
    """
    sys_amps = _checked_amplitudes(sys, "sys")
    app_amps = _checked_amplitudes(app, "app")
    psi = np.kron(sys_amps, app_amps)
    return DensityMatrix(np.outer(psi, psi.conj()))


def aligned_dm(probs, correspondence) -> DensityMatrix:
    """Diagonal density matrix with outcome weight spread over its readings.

    Outcome ``i`` with probability ``p_i`` places ``p_i * w_ij`` at flat index
    ``(i, j)`` for each reading ``j`` assigned to it (``w_ij = 1/R`` for R
    uniform readings); every other entry is zero.
    """
    p = np.asarray(probs, dtype=float).reshape(-1)
    total = float(p.sum())
    if abs(total - 1.0) > NORM_TOL:
        raise ValidationError(f"probabilities sum to {total!r}, expected 1")
    if np.any(p < 0):
        raise ValidationError("probabilities must be non-negative")
    if p.size != correspondence.outcomes:
        raise ValidationError(
            f"got {p.size} probabilities for {correspondence.outcomes} outcomes"
        )
    n = correspondence.outcomes * correspondence.readings
    diag = np.zeros(n)
    for i, (readings, weights) in enumerate(zip(correspondence.assignment, correspondence.weights)):
        for j, w in zip(readings, weights):
            diag[i * correspondence.readings + j] = p[i] * w
    return DensityMatrix(np.diag(diag.astype(complex)))


def trace_distance(a, b) -> float:
    """Half the sum of |eigenvalues| of the difference of two states."""
    ma = _as_matrix(a)
    mb = _as_matrix(b)
    if ma.shape != mb.shape:
        raise ValidationError(f"dimension mismatch: {ma.shape} vs {mb.shape}")
    mu = np.linalg.eigvalsh(ma - mb)
    return 0.5 * float(np.sum(np.abs(mu)))


def von_neumann_entropy(dm, log_base: float | None = None, positivity_tol: float = POSITIVITY_TOL) -> float:
    """Spectral entropy -sum(P log P) over the eigenvalues of ``dm``.

    Natural logarithm by default; pass ``log_base`` (> 1) for another base.
    Eigenvalues in ``[-positivity_tol, 0]`` count as exact zeros; anything
    lower raises PositivityError.
    """
    evals = np.linalg.eigvalsh(_as_matrix(dm))
    smallest = float(evals[0])
    if smallest < -positivity_tol:
        raise PositivityError(f"eigenvalue {smallest:.3e} below the positivity tolerance")
    p = evals[evals > 0.0]
    s = float(-np.sum(p * np.log(p)))
    if log_base is not None:
        if log_base <= 1.0:
            raise ValidationError(f"log base must exceed 1, got {log_base!r}")
        s /= math.log(log_base)
    return max(s, 0.0)


def dm_eigenvalues(dm) -> np.ndarray:
    """Real eigenvalues of a Hermitian state, sorted in descending order."""
    evals = np.linalg.eigvalsh(_as_matrix(dm))
    return evals[::-1].copy()
