"""State vectors, density matrices, spectral utilities, and the input checks.

Combined system+pointer matrices use the flat index convention
``(i, j) -> i * J + j`` (row-major, 0-based), where ``i`` labels the
observable outcome and ``j`` the pointer reading. The layout has one home,
``CorrespondenceMap.flat_weights`` in :mod:`collapse_sim.model`, which places
the Born weights of the aligned state and of the rate table. Every positive scalar
the library takes goes through ``_positive``, every tilt angle through ``_angle``, and
every count and index through ``_integer``.
"""

from __future__ import annotations

import numbers
import operator
from dataclasses import InitVar, dataclass
from sys import float_info

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


def _real(value, name: str):
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValidationError(f"{name} must be a number, got {value!r}")
    return value


def _integer(value, name: str) -> int:
    """``value`` as an int, refused unless an integer (not a bool)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    return operator.index(value)


def _positive(value, name: str) -> float:
    """``value`` as a float, refused unless a real number (not a bool) in (0, largest
    float]; the comparison reads an int exactly, so a huge one does not overflow."""
    if not 0 < _real(value, name) <= float_info.max:
        raise ValidationError(f"{name} must be positive and finite, got {value!r}")
    return float(value)


def _angle(value, name: str) -> None:
    """Refuse ``value`` unless a real number (not a bool) whose double, the
    field's tilt, is a finite float; an int is read exactly, as in ``_positive``."""
    if not abs(_real(value, name)) <= float_info.max / 2:
        raise ValidationError(f"{name} must be an angle with 2 * {name} finite, got {value!r}")


def _check_hermitian(m: np.ndarray, n: int, name: str, tol: float) -> None:
    """Raise ValidationError unless ``m`` is n x n, finite and Hermitian within
    ``tol``; a NaN or infinite entry is named as such, before any asymmetry."""
    if m.shape != (n, n):
        raise ValidationError(f"{name} shape {m.shape} does not match dimension {n}")
    if not np.isfinite(m).all():
        raise ValidationError(f"{name} has non-finite entries")
    asym = float(np.abs(m - m.conj().T).max())
    if not asym <= tol:
        raise ValidationError(f"{name} is not Hermitian: max asymmetry {asym:.3e}")


def _checked_amplitudes(vec, name: str) -> np.ndarray:
    amps = vec.amplitudes if isinstance(vec, StateVector) else np.asarray(vec, dtype=complex).reshape(-1)
    with np.errstate(over="ignore"):  # a huge amplitude gives an infinite norm, refused below
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
        _check_hermitian(m, m.shape[0], "density matrix", hermiticity_tol)
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
    uniform readings); every other entry is zero. ``correspondence`` is a
    ``CorrespondenceMap``, whose ``flat_weights`` builds and checks the diagonal.
    """
    return DensityMatrix(np.diag(correspondence.flat_weights(probs).astype(complex)))


def _trace_distances(states: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Half the summed |eigenvalues| of each matrix in ``states`` minus ``target``."""
    if target.shape != states.shape[1:]:
        raise ValidationError(f"dimension mismatch: {states.shape[1:]} vs {target.shape}")
    return 0.5 * np.abs(np.linalg.eigvalsh(states - target)).sum(axis=1)


def trace_distance(a, b) -> float:
    """Half the sum of |eigenvalues| of the difference of two states."""
    return float(_trace_distances(_as_matrix(a)[None], _as_matrix(b))[0])


def von_neumann_entropy(dm, positivity_tol: float = POSITIVITY_TOL) -> float:
    """Spectral entropy -sum(P log P), natural logarithm, over the eigenvalues
    of ``dm``. Eigenvalues in ``[-positivity_tol, 0]`` count as exact zeros;
    anything lower raises PositivityError.
    """
    evals = np.linalg.eigvalsh(_as_matrix(dm))
    smallest = float(evals[0])
    if smallest < -positivity_tol:
        raise PositivityError(f"eigenvalue {smallest:.3e} below the positivity tolerance")
    return float(_spectral_entropy(evals))


def _spectral_entropy(evals: np.ndarray) -> np.ndarray:
    """Natural-log entropy -sum(P log P) over the positive eigenvalues along
    the last axis, with round-off below zero clipped to zero."""
    positive = np.where(evals > 0.0, evals, 1.0)
    s = -np.sum(positive * np.log(positive), axis=-1)
    return np.where(s < 0.0, 0.0, s)


def dm_eigenvalues(dm) -> np.ndarray:
    """Real eigenvalues of a Hermitian state, sorted in descending order."""
    evals = np.linalg.eigvalsh(_as_matrix(dm))
    return evals[::-1].copy()
