"""State vectors, density matrices, spectral utilities, and the input checks.

Combined system+pointer matrices use the flat index convention
``(i, j) -> i * J + j`` (row-major, 0-based), where ``i`` labels the
observable outcome and ``j`` the pointer reading. The layout has one home,
``CorrespondenceMap.flat_weights`` in :mod:`collapse_sim.model`, which places
the Born weights of the aligned state and of the rate table. Every positive scalar
the library takes goes through ``_positive``, every tilt angle through ``_angle``, every
count and index through ``_integer``, and every matrix input through ``_checked_hermitian``.
A ``DensityMatrix`` or ``StateVector`` is checked once, when built: ``_checked_hermitian`` and
``_checked_amplitudes`` give its read-only entries or amplitudes as they are. The pure
product of ``product_state_dm`` and the diagonal of ``aligned_dm`` are density matrices by
construction and skip the check; each docstring holds its proof.
"""

from __future__ import annotations

import numbers
import operator
from dataclasses import dataclass
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


def _checked_hermitian(obj, name: str, n: int | None = None, tol: float = HERMITICITY_TOL) -> np.ndarray:
    """The matrix of ``obj``, refused unless square (n x n when ``n`` is given), finite and
    Hermitian within ``tol``, as an eigenvalue call reads one triangle; a NaN or infinite entry
    is named as such, before any asymmetry. A DensityMatrix, checked when built, gives its
    entries as they are once its dimension matches; a bare array gives a complex matrix."""
    checked = isinstance(obj, DensityMatrix)
    m = obj.entries if checked else np.asarray(obj, dtype=complex)
    if n is not None and m.shape != (n, n):
        raise ValidationError(f"{name} shape {m.shape} does not match dimension {n}")
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise ValidationError(f"{name} must be square, got shape {m.shape}")
    if checked:
        return m
    if not np.isfinite(m).all():
        raise ValidationError(f"{name} has non-finite entries")
    asym = float(np.abs(m - m.conj().T).max())
    if not asym <= tol:
        raise ValidationError(f"{name} is not Hermitian: max asymmetry {asym:.3e}")
    return m


def _checked_amplitudes(vec, name: str) -> np.ndarray:
    """The amplitudes of ``vec``: a StateVector's as they are (checked when built, read-only),
    or a bare vector's, flattened, refused unless its squared norm is 1 within NORM_TOL."""
    if isinstance(vec, StateVector):
        return vec.amplitudes
    amps = np.asarray(vec, dtype=complex).reshape(-1)
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
    """Hermitian, unit-trace, positive semi-definite complex matrix, checked on
    construction; ``_proven`` copies one its caller has proven, unchecked."""

    entries: np.ndarray

    def __post_init__(self):
        m = _checked_hermitian(np.array(self.entries, dtype=complex), "density matrix")
        trace = complex(np.trace(m))
        if abs(trace - 1.0) > TRACE_TOL:
            raise ValidationError(f"density matrix trace is {trace!r}, expected 1")
        smallest = float(np.linalg.eigvalsh(m)[0])
        if smallest < -POSITIVITY_TOL:
            raise PositivityError(f"density matrix has eigenvalue {smallest:.3e} below 0")
        object.__setattr__(self, "entries", _readonly(m))

    @classmethod
    def _proven(cls, entries) -> DensityMatrix:
        dm = object.__new__(cls)
        object.__setattr__(dm, "entries", _readonly(np.array(entries, dtype=complex)))
        return dm

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def product_state_dm(sys, app) -> DensityMatrix:
    """Density matrix of the combined pure product state.

    Entry ((i,j),(i',j')) equals ``s_i a_j conj(s_i') conj(a_j')`` for system
    amplitudes ``s`` and apparatus amplitudes ``a``; the result is pure. Unchecked, as its
    trace is 1 within 3 NORM_TOL (normalised amplitudes), it is exactly Hermitian (mirrored
    products), and one rounding per entry of psi psi^H puts no eigenvalue below -3 eps |psi|^2.
    """
    sys_amps = _checked_amplitudes(sys, "sys")
    app_amps = _checked_amplitudes(app, "app")
    psi = np.kron(sys_amps, app_amps)
    return DensityMatrix._proven(np.outer(psi, psi.conj()))


def aligned_dm(probs, correspondence) -> DensityMatrix:
    """Diagonal density matrix with outcome weight spread over its readings.

    Outcome ``i`` with probability ``p_i`` places ``p_i * w_ij`` at flat index
    ``(i, j)`` for each reading ``j`` assigned to it (``w_ij = 1/R`` for R
    uniform readings); every other entry is zero. ``correspondence`` is a
    ``CorrespondenceMap``, whose ``flat_weights`` builds and checks the diagonal. Unchecked,
    as it is real with p_i >= 0 and w_ij > 0, and sum_i p_i and each sum_j w_ij are 1 within NORM_TOL.
    """
    return DensityMatrix._proven(np.diag(correspondence.flat_weights(probs).astype(complex)))


def _trace_distances(states: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Half the summed |eigenvalues| of each matrix in ``states`` minus ``target``."""
    if target.shape != states.shape[1:]:
        raise ValidationError(f"dimension mismatch: {states.shape[1:]} vs {target.shape}")
    return 0.5 * np.abs(np.linalg.eigvalsh(states - target)).sum(axis=1)


def _distance_bounds(states: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, ...]:
    """Bounds ``lower <= D <= upper`` on each distance D of :func:`_trace_distances`, and
    their round-off ``margin``: for the Hermitian X that ``eigvalsh`` reads of ``states -
    target`` (lower triangle, real diagonal), ``max(||X||_F, sum |X_ii|) <= ||X||_1 <=
    sum_j ||X e_j||_2``. The computed D lies within n p(n) eps ||X||_F / 2 + n eps D of
    ||X||_1 / 2 (Weyl, for LAPACK's backward error p(n) eps ||X||_2), each bound within
    about 2 n eps of its value: ``margin = 8 n eps (n ||X||_F + upper)`` covers both for
    p(n) up to 16 n."""
    x = states - target
    n, ones = x.shape[-1], np.ones(x.shape[-1])
    diag = np.diagonal(x, axis1=-2, axis2=-1).real
    sq = x.real * x.real
    sq += x.imag * x.imag
    sq *= np.tri(n, k=-1)  # |entries|^2 of the strict lower triangle
    cols = sq @ ones + ones @ sq + diag * diag  # squared column norms of X
    fro = np.sqrt(cols.sum(axis=-1))
    upper = 0.5 * np.sqrt(cols).sum(axis=-1)
    lower = 0.5 * np.maximum(fro, np.abs(diag).sum(axis=-1))
    return lower, upper, 8 * n * np.finfo(float).eps * (n * fro + upper)


def trace_distance(a, b) -> float:
    """Half the sum of |eigenvalues| of the difference of two states."""
    a, b = _checked_hermitian(a, "first state"), _checked_hermitian(b, "second state")
    return float(_trace_distances(a[None], b)[0])


def von_neumann_entropy(dm) -> float:
    """Spectral entropy -sum(P log P), natural logarithm, over the eigenvalues
    of ``dm``. Eigenvalues in ``[-POSITIVITY_TOL, 0]`` count as exact zeros;
    anything lower raises PositivityError.
    """
    evals = np.linalg.eigvalsh(_checked_hermitian(dm, "state"))
    smallest = float(evals[0])
    if smallest < -POSITIVITY_TOL:
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
    evals = np.linalg.eigvalsh(_checked_hermitian(dm, "state"))
    return evals[::-1].copy()
