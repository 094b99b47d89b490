"""Spectral analysis of the diagonal generator, speed-limit bounds, and
coupling-strength scaling studies."""

from __future__ import annotations

import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .dissipator import diag_generator_matrix  # noqa: F401  (public name of this module)
from .errors import ValidationError
from .evolution import IntegratorConfig, alignment_time, simulate_model
from .states import _as_matrix, trace_distance

ZERO_MODE_REL_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class GeneratorSpectrum:
    """Eigen-decomposition of the diagonal rate generator.

    ``zero_index`` marks the stationary mode; its eigenvector is rescaled to
    unit sum, all others to unit Euclidean norm.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    zero_index: int

    @property
    def stationary_distribution(self) -> np.ndarray:
        return self.eigenvectors[:, self.zero_index].real.copy()


@dataclass(frozen=True)
class QslReport:
    """Speed-limit bound: quantum distance over initial evolution speed."""

    numerator: float
    denominator: float
    bound: float
    measured_alignment_time: float | None = None

    @property
    def ratio(self) -> float | None:
        """Measured alignment time over the bound, when a time was supplied."""
        if self.measured_alignment_time is None:
            return None
        return self.measured_alignment_time / self.bound


@dataclass(frozen=True)
class SweepRow:
    gamma: float
    alignment_time: float
    gamma_times_tau: float


def generator_spectrum(m, rate_scale: float | None = None) -> GeneratorSpectrum:
    """Eigen-decomposition of the diagonal generator with the stationary mode
    identified.

    ``rate_scale`` (typically gamma * omega) sets the near-zero threshold
    ``1e-9 * rate_scale``; by default the largest eigenvalue magnitude is
    used. More than one near-zero eigenvalue triggers a degeneracy warning.
    """
    mat = np.asarray(m, dtype=float)
    evals, evecs = np.linalg.eig(mat)
    scale = float(rate_scale) if rate_scale is not None else max(float(np.abs(evals).max()), 1.0)
    near_zero = np.abs(evals) <= ZERO_MODE_REL_TOL * scale
    if near_zero.sum() > 1:
        warnings.warn(
            f"{int(near_zero.sum())} near-zero eigenvalues: stationary mode may be degenerate",
            RuntimeWarning,
            stacklevel=2,
        )
    zero_index = int(np.argmin(np.abs(evals)))
    vecs = evecs.copy()
    stationary = vecs[:, zero_index].real
    total = stationary.sum()
    if abs(total) < 1e-300:
        raise ValidationError("stationary eigenvector has zero sum; cannot normalize")
    vecs[:, zero_index] = stationary / total
    return GeneratorSpectrum(eigenvalues=evals, eigenvectors=vecs, zero_index=zero_index)


def qsl_lower_bound(rho0, rho_inf, initial_rhs, measured_alignment_time: float | None = None,
                    denominator_norm: str = "diag_rms") -> QslReport:
    """Lower bound on the alignment duration: distance over initial speed.

    The numerator is the trace distance between the asymptotic and initial
    states. The default denominator is the root-mean-square of the diagonal
    entries of the initial right-hand side; ``denominator_norm="frobenius"``
    uses the full-matrix Frobenius norm instead.
    """
    m0 = _as_matrix(rho0)
    rhs = np.asarray(initial_rhs, dtype=complex)
    if rhs.shape != m0.shape:
        raise ValidationError(f"rhs shape {rhs.shape} does not match state {m0.shape}")
    numerator = trace_distance(rho_inf, rho0)
    if denominator_norm == "diag_rms":
        denominator = float(np.sqrt(np.mean(np.diagonal(rhs).real ** 2)))
    elif denominator_norm == "frobenius":
        denominator = float(np.linalg.norm(rhs))
    else:
        raise ValidationError(f"unknown denominator norm {denominator_norm!r}")
    if denominator == 0.0:
        raise ValidationError("initial condition is static: zero evolution speed")
    return QslReport(
        numerator=numerator,
        denominator=denominator,
        bound=numerator / denominator,
        measured_alignment_time=measured_alignment_time,
    )


def _sweep_row(model, gamma_value: float, cfg: IntegratorConfig, mode: str, tol: float) -> SweepRow:
    # fixed dimensionless horizon gamma * omega * t_max across the sweep
    scaled = replace(cfg, t_max=cfg.t_max * model.gamma / gamma_value)
    swept = replace(model, gamma=gamma_value)
    traj = simulate_model(swept, scaled, mode=mode)
    tau = alignment_time(traj, swept.aligned_target(), tol=tol)
    return SweepRow(gamma=gamma_value, alignment_time=tau, gamma_times_tau=gamma_value * tau)


def gamma_sweep(model, gammas, cfg: IntegratorConfig, mode: str = "fast", tol: float = 0.01,
                max_workers: int | None = None) -> list[SweepRow]:
    """Alignment time per coupling strength, with the product gamma * tau.

    Rows are independent; ``max_workers`` > 1 evaluates them concurrently.
    Alignment failures propagate as NotAlignedError for the offending row.
    """
    values = [float(g) for g in gammas]
    if not values:
        raise ValidationError("gamma sweep needs at least one value")
    if any(g <= 0 for g in values):
        raise ValidationError("sweep gammas must be positive")
    if max_workers is not None and max_workers > 1:
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            return list(pool.map(lambda g: _sweep_row(model, g, cfg, mode, tol), values))
    return [_sweep_row(model, g, cfg, mode, tol) for g in values]
