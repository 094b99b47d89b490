"""Spectral analysis of the diagonal generator, speed-limit bounds, and
coupling-strength scaling studies."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import ValidationError
from .evolution import DEFAULT_ALIGNMENT_TOL, IntegratorConfig, alignment_time, simulate_model
from .states import _checked_hermitian, _positive, _trace_distances

ZERO_MODE_REL_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class GeneratorSpectrum:
    """Eigen-decomposition of the diagonal rate generator.

    ``zero_index`` marks the stationary mode; its eigenvector is rescaled to
    unit sum, all others to unit Euclidean norm. :func:`generator_spectrum`
    decomposes any matrix (complex eigenpairs in LAPACK's order). The
    ``spectrum`` command does not build one: it writes the real, ascending
    eigenvalues of ``dissipator._balanced_modes`` and the closed-form
    stationary column p / sum(p).
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
        """Measured alignment time over the bound, when a time was supplied and
        the bound is positive: a run that starts at its target has bound 0 and tau 0."""
        if self.measured_alignment_time is None or not self.bound > 0:
            return None
        return self.measured_alignment_time / self.bound


@dataclass(frozen=True)
class SweepRow:
    gamma: float
    alignment_time: float
    gamma_times_tau: float


def generator_spectrum(m, rate_scale: float) -> GeneratorSpectrum:
    """Eigen-decomposition of the diagonal generator with the stationary mode
    identified.

    ``rate_scale`` (typically gamma * omega) sets the near-zero threshold
    ``1e-9 * rate_scale``. More than one near-zero eigenvalue triggers a
    degeneracy warning.
    """
    mat = np.asarray(m, dtype=float)
    evals, evecs = np.linalg.eig(mat)
    near_zero = np.abs(evals) <= ZERO_MODE_REL_TOL * float(rate_scale)
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


def qsl_lower_bound(rho0, rho_inf, initial_rhs,
                    measured_alignment_time: float | None = None) -> QslReport:
    """Lower bound on the alignment duration: distance over initial speed.

    The numerator is the trace distance between the asymptotic and initial
    states, the denominator the root-mean-square of the diagonal entries of
    the initial right-hand side. ``rho0`` and ``rho_inf`` must be square,
    finite, Hermitian and of one shape; a refusal names the input.
    """
    m0, m_inf = _checked_hermitian(rho0, "rho0"), _checked_hermitian(rho_inf, "rho_inf")
    if m_inf.shape != m0.shape:
        raise ValidationError(f"rho_inf shape {m_inf.shape} does not match rho0 shape {m0.shape}")
    rhs = np.asarray(initial_rhs, dtype=complex)
    if rhs.shape != m0.shape:
        raise ValidationError(f"initial_rhs shape {rhs.shape} does not match rho0 shape {m0.shape}")
    if not np.isfinite(rhs).all():
        raise ValidationError("initial right-hand side has non-finite entries")
    numerator = float(_trace_distances(m_inf[None], m0)[0])
    denominator = float(np.sqrt(np.mean(np.diagonal(rhs).real ** 2)))
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
    t_max = cfg.t_max * model.gamma / gamma_value
    try:
        traj = simulate_model(model, replace(cfg, t_max=t_max), mode=mode, gamma=gamma_value)
    except ValidationError as exc:
        # the user set the config's t_max, not this row's: name the row's gamma
        raise type(exc)(f"sweep gamma {gamma_value!r}, run to t_max = {t_max:g} so that "
                        f"gamma * t_max stays {cfg.t_max * model.gamma:g}: {exc}") from exc
    tau = alignment_time(traj, model.aligned_target(), tol=tol)
    return SweepRow(gamma=gamma_value, alignment_time=tau, gamma_times_tau=gamma_value * tau)


def gamma_sweep(model, gammas, cfg: IntegratorConfig, mode: str = "fast",
                tol: float = DEFAULT_ALIGNMENT_TOL) -> list[SweepRow]:
    """Alignment time per coupling strength, with the product gamma * tau.

    Every row runs on ``model`` itself through ``simulate_model``'s
    ``gamma`` keyword, so all rows share the rate table, initial state and
    target that the model derives once, up to ``t_max * model.gamma /
    gamma``. Every gamma and ``tol`` is checked before the first row runs; a
    row's ValidationError names its gamma, a row's NotAlignedError propagates.
    """
    try:
        gammas = iter(gammas)
    except TypeError:
        raise ValidationError(f"sweep gammas must be a sequence of numbers, got {gammas!r}") from None
    values = [_positive(g, "sweep gammas") for g in gammas]
    if not values:
        raise ValidationError("gamma sweep needs at least one value")
    _positive(tol, "alignment tolerance")
    return [_sweep_row(model, g, cfg, mode, tol) for g in values]
