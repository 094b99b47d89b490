"""Time integration of the master equation and of its dissipator-dominated
reduction, producing trajectories of density-matrix snapshots with derived
observables.

Both modes read the jump family's rates off the diagonal generator M of
:func:`diag_generator_matrix`. Full mode assembles its Liouvillian on
row-major vec(rho) directly: M on the population block,
``(M[a, a] + M[b, b]) / 2`` on the rest of the diagonal, and
``-i (H x I - I x H^T)`` for the Hamiltonian.

The generator is linear and time independent, so a fixed-step classical
fourth-order Runge-Kutta update is precomputed once as the degree-4 Taylor
polynomial of the step map (for a linear autonomous system the two are the
same update) and applied per step; recording between snapshots uses matrix
powers of that single-step map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dissipator import DissipatorSpec, _coherence_generator, apply_dissipator, diag_generator_matrix
from .dissipator import lindblad_jump_family  # noqa: F401  (perfbench/tracer.py wraps this name)
from .errors import ConfigError, IntegrationError, NotAlignedError, ValidationError
from .states import DensityMatrix, _as_matrix, dm_eigenvalues, trace_distance, von_neumann_entropy

TRACE_DRIFT_TOL = 1e-9
SNAPSHOT_POSITIVITY_TOL = 1e-8
SNAPSHOT_HERMITICITY_TOL = 1e-10
POSITIVITY_FAILURE_TOL = 1e-6


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step integration settings.

    ``dt=None`` derives the step from the stiffest coupling weight as
    ``safety / w_max``. Snapshots are recorded at a fixed stride when
    ``record_every`` is given, otherwise on an automatic schedule of about
    ``record_points`` samples, geometrically spaced by default so that both
    the floor-induced fast transient and the slow alignment tail are
    resolved ("linear" spacing is available for evenly spaced samples).
    """

    t_max: float
    dt: float | None = None
    safety: float = 0.05
    record_every: int | None = None
    record_points: int = 240
    record_spacing: str = "log"

    def __post_init__(self):
        if not (math.isfinite(self.t_max) and self.t_max > 0):
            raise ValidationError(f"t_max must be positive and finite, got {self.t_max!r}")
        if not 0 < self.safety <= 0.5:
            raise ValidationError("safety factor must lie in (0, 0.5]")
        if self.dt is not None and not (math.isfinite(self.dt) and self.dt > 0):
            raise ValidationError(f"dt must be positive and finite, got {self.dt!r}")
        if self.record_every is not None and self.record_every < 1:
            raise ValidationError("record_every must be at least 1")
        if self.record_points < 2:
            raise ValidationError("record_points must be at least 2")
        if self.record_spacing not in ("log", "linear"):
            raise ValidationError(f"unknown record_spacing {self.record_spacing!r}")


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Recorded history of an integration run.

    ``snapshots`` holds the full density matrix at each recorded time;
    the remaining arrays are the derived per-time series. ``trace_dist``
    measures each snapshot against the run's target state (the final
    snapshot when no target was supplied).
    """

    times: np.ndarray
    snapshots: tuple[DensityMatrix, ...]
    diagonals: np.ndarray
    offdiag_pairs: tuple[tuple[int, int], ...]
    offdiag_re: np.ndarray
    offdiag_im: np.ndarray
    entropy: np.ndarray
    eigenvalues: np.ndarray
    trace_dist: np.ndarray
    dt: float
    n_steps: int

    @property
    def dim(self) -> int:
        return self.snapshots[0].dim

    def final(self) -> DensityMatrix:
        return self.snapshots[-1]


def master_rhs(hamiltonian, spec: DissipatorSpec, rho) -> np.ndarray:
    """Full right-hand side: -i[H, rho] plus the jump-family action (hbar = 1).

    ``hamiltonian`` may be None for purely dissipative evolution.
    """
    m = _as_matrix(rho)
    out = apply_dissipator(spec, m)
    if hamiltonian is not None:
        h = np.asarray(hamiltonian, dtype=complex)
        if h.shape != m.shape:
            raise ValidationError(f"Hamiltonian shape {h.shape} does not match state {m.shape}")
        out = out - 1j * (h @ m - m @ h)
    return out


def fast_offdiag_rate(r: int, s: int, p_all, gamma: float, omega: float) -> float:
    """Decay rate ``-(M[r, r] + M[s, s]) / 2`` of the coherence at flat indices
    (r, s), with M from :func:`diag_generator_matrix`: exactly the rate the jump
    family imposes, so the closed-form exponential reproduces the full
    equation at zero Hamiltonian."""
    return -float(_coherence_generator(diag_generator_matrix(p_all, gamma, omega))[r, s])


def fast_diag_rhs(p_all, diag, gamma: float, omega: float) -> np.ndarray:
    """Rate of change ``M @ diag`` of the diagonal entries under the jump
    family, with M from :func:`diag_generator_matrix`; it sums to zero."""
    m = diag_generator_matrix(p_all, gamma, omega)
    d = np.asarray(diag, dtype=float).reshape(-1)
    if d.size != m.shape[0]:
        raise ValidationError(f"diagonal size {d.size} does not match {m.shape[0]} states")
    return m @ d


def _rk4_step_matrix(generator: np.ndarray, dt: float) -> np.ndarray:
    """Single-step update matrix of classical RK4 for y' = G y."""
    n = generator.shape[0]
    eye = np.eye(n, dtype=generator.dtype)
    a = dt * generator
    return eye + a @ (eye + (a / 2.0) @ (eye + (a / 3.0) @ (eye + a / 4.0)))


def _resolve_step(cfg: IntegratorConfig, rate_bound: float) -> tuple[float, int]:
    dt = cfg.dt if cfg.dt is not None else cfg.safety / max(rate_bound, 1e-300)
    n_steps = max(1, math.ceil(cfg.t_max / dt - 1e-9))
    return cfg.t_max / n_steps, n_steps


def _record_steps(n_steps: int, cfg: IntegratorConfig) -> np.ndarray:
    if cfg.record_every is not None:
        ks = np.arange(0, n_steps + 1, cfg.record_every)
        if ks[-1] != n_steps:
            ks = np.append(ks, n_steps)
        return ks
    if n_steps + 1 <= cfg.record_points:
        return np.arange(n_steps + 1)
    if cfg.record_spacing == "linear":
        return np.unique(np.round(np.linspace(0, n_steps, cfg.record_points)).astype(int))
    interior = np.round(np.geomspace(1, n_steps, cfg.record_points - 1)).astype(int)
    return np.unique(np.concatenate(([0], interior)))


def _tracked_pairs(n: int) -> tuple[tuple[int, int], ...]:
    # all upper-triangle pairs while the matrix stays small
    if n <= 8:
        return tuple((r, s) for r in range(n) for s in range(r + 1, n))
    return ((0, n - 1),)


def _build_trajectory(times, mats, target, dt, n_steps) -> Trajectory:
    n = mats[0].shape[0]
    pairs = _tracked_pairs(n)
    snapshots = []
    for t, m in zip(times, mats):
        if not np.all(np.isfinite(m)):
            raise IntegrationError(f"non-finite state at t = {t:g}: integration diverged")
        smallest = float(np.linalg.eigvalsh(m)[0])
        if smallest < -POSITIVITY_FAILURE_TOL:
            raise IntegrationError(
                f"positivity violated at t = {t:g} (eigenvalue {smallest:.3e}); reduce dt"
            )
        drift = abs(complex(np.trace(m)) - 1.0)
        if drift > TRACE_DRIFT_TOL:
            raise IntegrationError(f"trace drifted by {drift:.3e} at t = {t:g}; reduce dt")
        snapshots.append(
            DensityMatrix(m, positivity_tol=SNAPSHOT_POSITIVITY_TOL,
                          hermiticity_tol=SNAPSHOT_HERMITICITY_TOL,
                          trace_tol=TRACE_DRIFT_TOL)
        )
    target_m = _as_matrix(target) if target is not None else snapshots[-1].entries
    diagonals = np.array([np.diagonal(s.entries).real for s in snapshots])
    offdiag = np.array([[s.entries[r, ss] for (r, ss) in pairs] for s in snapshots]) \
        if pairs else np.zeros((len(snapshots), 0), dtype=complex)
    entropy = np.array(
        [von_neumann_entropy(s, positivity_tol=SNAPSHOT_POSITIVITY_TOL) for s in snapshots]
    )
    eigenvalues = np.array([dm_eigenvalues(s) for s in snapshots])
    dist = np.array([trace_distance(s, target_m) for s in snapshots])
    return Trajectory(
        times=np.asarray(times, dtype=float),
        snapshots=tuple(snapshots),
        diagonals=diagonals,
        offdiag_pairs=pairs,
        offdiag_re=offdiag.real.copy(),
        offdiag_im=offdiag.imag.copy(),
        entropy=entropy,
        eigenvalues=eigenvalues,
        trace_dist=dist,
        dt=dt,
        n_steps=n_steps,
    )


def integrate(rho0, hamiltonian, p_all, gamma: float, omega: float, cfg: IntegratorConfig,
              target=None) -> Trajectory:
    """Integrate the full master equation from ``rho0`` up to ``cfg.t_max``.

    ``p_all`` holds the floored flat probabilities that parametrize the jump
    family, as for :func:`integrate_fast_limit`; ``hamiltonian`` may be None.
    The automatic step is ``safety / (max jump weight + spectral norm of H)``,
    which keeps the stiffest floor-induced rate well inside the stability
    region of the fourth-order update.
    """
    m0 = _as_matrix(rho0)
    diag_gen = diag_generator_matrix(p_all, gamma, omega)
    n = diag_gen.shape[0]
    if m0.shape != (n, n):
        raise ValidationError(f"initial state shape {m0.shape} does not match dimension {n}")
    generator = np.diag(_coherence_generator(diag_gen).reshape(-1).astype(complex))
    populations = np.arange(n) * (n + 1)
    generator[np.ix_(populations, populations)] = diag_gen
    h_norm = 0.0
    if hamiltonian is not None:
        h = np.asarray(hamiltonian, dtype=complex)
        if h.shape != (n, n):
            raise ValidationError(f"Hamiltonian shape {h.shape} does not match dimension {n}")
        h_norm = float(np.abs(np.linalg.eigvalsh(h)).max())
        generator -= 1j * (np.kron(h, np.eye(n)) - np.kron(np.eye(n), h.T))
    max_weight = float((diag_gen - np.diag(np.diagonal(diag_gen))).max())
    dt, n_steps = _resolve_step(cfg, max_weight + h_norm)
    step = _rk4_step_matrix(generator, dt)
    ks = _record_steps(n_steps, cfg)
    y = m0.reshape(-1).astype(complex)
    mats = [m0.copy()]
    times = [0.0]
    prev = 0
    for k in ks[1:]:
        y = np.linalg.matrix_power(step, int(k) - prev) @ y
        prev = int(k)
        mats.append(y.reshape(n, n).copy())
        times.append(prev * dt)
    return _build_trajectory(times, mats, target, dt, n_steps)


def integrate_fast_limit(rho0, p_all, gamma: float, omega: float, cfg: IntegratorConfig,
                         target=None) -> Trajectory:
    """Integrate the dissipator-dominated reduction of the master equation.

    Diagonals evolve under the linear rate equation (fourth-order fixed
    step); each off-diagonal decays analytically as
    ``rho_rs(0) * exp(-rate * t)``, which is unconditionally stable and keeps
    initially real elements real.
    """
    m0 = _as_matrix(rho0)
    diag_gen = diag_generator_matrix(p_all, gamma, omega)
    n = diag_gen.shape[0]
    if m0.shape != (n, n):
        raise ValidationError(f"initial state shape {m0.shape} does not match dimension {n}")
    dt, n_steps = _resolve_step(cfg, float(-np.diagonal(diag_gen).min()))
    step = _rk4_step_matrix(diag_gen, dt)

    rate = -_coherence_generator(diag_gen)
    coherences = m0.copy()
    np.fill_diagonal(coherences, 0.0)

    ks = _record_steps(n_steps, cfg)
    d = np.diagonal(m0).real.copy()
    mats = []
    times = []
    prev = 0
    for k in ks:
        k = int(k)
        if k > prev:
            d = np.linalg.matrix_power(step, k - prev) @ d
            prev = k
        t = k * dt
        m = coherences * np.exp(-rate * t) + np.diag(d.astype(complex))
        mats.append(m)
        times.append(t)
    return _build_trajectory(times, mats, target, dt, n_steps)


def alignment_time(traj: Trajectory, target, tol: float = 0.01) -> float:
    """Earliest recorded time from which the trace distance to ``target``
    stays at or below ``tol`` through the end of the trajectory."""
    dist = np.array([trace_distance(s, target) for s in traj.snapshots])
    above = np.nonzero(dist > tol)[0]
    first_ok = 0 if above.size == 0 else int(above[-1]) + 1
    if first_ok >= dist.size:
        raise NotAlignedError(
            f"trace distance never settled below {tol:g} "
            f"(final distance {dist[-1]:.3e} at t = {traj.times[-1]:g})",
            float(dist[-1]),
        )
    return float(traj.times[first_ok])


def simulate_model(model, cfg: IntegratorConfig, mode: str = "full", target=None) -> Trajectory:
    """Run a measurement scenario end to end and return its trajectory.

    ``mode="full"`` integrates the complete master equation and requires the
    model to carry a Hamiltonian; ``mode="fast"`` runs the
    dissipator-dominated reduction. The trace-distance series is measured
    against the scenario's aligned target unless ``target`` overrides it.
    """
    if target is None:
        target = model.aligned_target()
    p_all = model.rate_table().flat_probabilities()
    rho0 = model.initial_dm()
    if mode == "full":
        if model.hamiltonian is None:
            raise ConfigError("mode 'full' requires a Hamiltonian")
        return integrate(rho0, model.hamiltonian, p_all, model.gamma, model.omega, cfg,
                         target=target)
    if mode == "fast":
        return integrate_fast_limit(rho0, p_all, model.gamma, model.omega, cfg, target=target)
    raise ConfigError(f"unknown mode {mode!r}; expected 'full' or 'fast'")
