"""Time integration of the master equation and of its dissipator-dominated
reduction. A run returns a :class:`Trajectory`: the stack of density-matrix
snapshots at the recorded times, from which every observable is read.

Both modes read the jump family's rates off the diagonal generator M of
:func:`diag_generator_matrix`.

The master equation maps Hermitian matrices to Hermitian matrices, so full
mode propagates the n^2 real coordinates of a Hermitian rho instead of
vec(rho): ``Re rho[r, s]`` for r <= s on and above the diagonal of an n x n
real array and ``Im rho[r, s]`` for r < s at its mirror position (s, r)
below it (:func:`_pack`). Its generator is the closed-form right-hand side
``dissipator._closed_form_rhs``, the family's action plus ``-i [H, rho]``,
applied to the unpacked unit coordinates (:func:`_real_generator`): a real
n^2 x n^2 matrix, so the step map and every product of the propagation are
float64, 8 bytes per entry.
The recorded coordinates are unpacked once into the complex snapshot stack,
which is exactly Hermitian. The real basis holds only Hermitian matrices,
so :func:`integrate` rejects a non-Hermitian or non-finite initial state or
Hamiltonian before it assembles anything. :func:`integrate_fast_limit` runs
the same initial-state check first.

The full-mode generator is linear and time independent, so a fixed-step
classical fourth-order Runge-Kutta update is precomputed once as the degree-4
Taylor polynomial of the step map S (for a linear autonomous system the two
are the same update). Every record step k is reached from the initial state
through one squaring chain, :func:`_propagate`: S is squared once per bit of
the largest k, and each power S**(2**j) multiplies, in one batched product,
the records whose k has bit j set. Each squaring holds the current power and
its square at once while :func:`integrate` still holds S, so the chain's
peak is two step-map-sized matrices plus its T x n^2 output above the
caller's S, and the run also keeps the T x n x n complex snapshot stack
(16 bytes per entry). Fast mode has no step map: one symmetric
eigendecomposition gives its populations in closed form.
:data:`MAX_STACK_BYTES` caps the stack and the full-mode assembly, and
:data:`MAX_STEPS` the step count, before anything is allocated.

The stack is checked in one ordered pass, :func:`_check_snapshots`, once the
:class:`Trajectory` exists: finite entries, trace drift and Hermiticity
elementwise, computed once, and, when they pass, positivity by one batched
Cholesky factorisation of ``rho + SNAPSHOT_POSITIVITY_TOL * I``, which
exists, up to round-off, exactly when every eigenvalue lies above
``-SNAPSHOT_POSITIVITY_TOL``. Only a stack that fails one of these is
eigendecomposed, to name the first failing snapshot; should the spectra find
none (a round-off tie at the tolerance), the run goes on and the trajectory
keeps them. The spectra and the entropy are computed on first read of
:attr:`Trajectory.eigenvalues` or :attr:`Trajectory.entropy`, from one
batched eigenvalue call that both share.
The trace distances to the target are computed on first read of
:attr:`Trajectory.trace_dist`, and :func:`alignment_time` computes them only
for the tail it reads, in blocks from the last snapshot back. Every failed
check is an :class:`IntegrationError` that names the snapshot's time and
value.
"""

from __future__ import annotations

import contextlib
import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .dissipator import (DissipatorSpec, _closed_form_rhs, _coherence_generator, apply_dissipator,
                         diag_generator_matrix)
from .dissipator import lindblad_jump_family  # noqa: F401  (perfbench/tracer.py wraps this name)
from .errors import ConfigError, IntegrationError, NotAlignedError, ValidationError
from .states import (HERMITICITY_TOL, DensityMatrix, _as_matrix, _check_hermitian, _readonly,
                     _spectral_entropy, _trace_distances)

TRACE_DRIFT_TOL = 1e-9
SNAPSHOT_POSITIVITY_TOL = 1e-8
SNAPSHOT_HERMITICITY_TOL = 1e-10
POSITIVITY_FAILURE_TOL = 1e-6
# largest (T, n, n) complex snapshot stack a run may record, and the most the
# two complex n^2 x n^2 arrays that full-mode assembly keeps may take together;
# temporaries of the same size come on top (a few in the analysis, one in assembly)
MAX_STACK_BYTES = 2**28
# most steps a run may take: float64 t_max / dt counts steps exactly up to here
MAX_STEPS = 2**53
# snapshots per batched trace-distance call in alignment_time's backward search
_ALIGNMENT_BLOCK = 32


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
        for name in ("record_every", "record_points"):
            value = getattr(self, name)
            if value is not None:
                try:
                    object.__setattr__(self, name, operator.index(value))
                except TypeError:
                    raise ValidationError(f"{name} must be an integer, got {value!r}") from None
        if self.record_every is not None and self.record_every < 1:
            raise ValidationError("record_every must be at least 1")
        if self.record_points < 2:
            raise ValidationError("record_points must be at least 2")
        if self.record_spacing not in ("log", "linear"):
            raise ValidationError(f"unknown record_spacing {self.record_spacing!r}")


def _snapshot(entries) -> DensityMatrix:
    return DensityMatrix(entries, positivity_tol=SNAPSHOT_POSITIVITY_TOL,
                         hermiticity_tol=SNAPSHOT_HERMITICITY_TOL, trace_tol=TRACE_DRIFT_TOL)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Recorded history of an integration run: the snapshot stack and what
    the run computed to produce it.

    ``states`` is the read-only (T, n, n) stack of density matrices at the
    recorded ``times``; every per-time series is read from it. Populations
    are ``diagonals``, a view of its real diagonal, and the coherence of
    the flat pair (r, s) is ``states[:, r, s]``. ``target`` is the run's
    target state (the final snapshot when no target was supplied);
    ``trace_dist`` measures each snapshot against it. ``eigenvalues``,
    ``entropy`` and ``trace_dist`` are read-only arrays computed on first
    read and kept; the first two share one batched eigenvalue call.
    """

    times: np.ndarray
    states: np.ndarray
    target: np.ndarray
    dt: float
    n_steps: int

    @property
    def diagonals(self) -> np.ndarray:
        """Read-only (T, n) populations: a view of the real diagonal of ``states``."""
        return np.diagonal(self.states, axis1=1, axis2=2).real

    @functools.cached_property
    def trace_dist(self) -> np.ndarray:
        """Read-only trace distance of each snapshot to ``target``, computed
        for the whole stack on first read and kept."""
        return _readonly(_trace_distances(self.states, self.target))

    @functools.cached_property
    def _spectra(self) -> np.ndarray:
        # ascending eigenvalues of every snapshot, from one batched call
        return np.linalg.eigvalsh(self.states)

    @functools.cached_property
    def eigenvalues(self) -> np.ndarray:
        """Read-only (T, n) eigenvalues of each snapshot, in descending order."""
        return _readonly(self._spectra[:, ::-1].copy())

    @functools.cached_property
    def entropy(self) -> np.ndarray:
        """Read-only spectral entropy (natural log) of each snapshot."""
        return _readonly(_spectral_entropy(self._spectra))

    @property
    def snapshots(self) -> tuple[DensityMatrix, ...]:
        """The stack as validated density matrices, built anew on each access
        (each holds a copy of its entries); read ``states`` where an array
        will do."""
        return tuple(_snapshot(m) for m in self.states)

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    def final(self) -> DensityMatrix:
        return _snapshot(self.states[-1])


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


def _rk4_step_matrix(generator: np.ndarray, dt: float) -> np.ndarray:
    """Single-step update matrix of classical RK4 for y' = G y (full mode only)."""
    n = generator.shape[0]
    eye = np.eye(n, dtype=generator.dtype)
    a = dt * generator
    return eye + a @ (eye + (a / 2.0) @ (eye + (a / 3.0) @ (eye + a / 4.0)))


def _propagate(step: np.ndarray, y0: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """Rows ``step**k @ y0`` for every k in ``ks``, from one squaring chain (full mode only).

    Power ``step**(2**j)`` multiplies, in one batched product, the rows whose
    k has bit j set, and is then squared into the next power. The cost is one
    squaring per bit of ``max(ks)`` plus the row products. Each squaring
    holds the current power and its square at once, and the caller keeps
    ``step``: the peak is two step-sized matrices plus the output above it.
    """
    ks = np.asarray(ks, dtype=np.int64)
    out = np.empty((ks.size, y0.size), dtype=np.result_type(step, y0))
    out[:] = y0
    bits = (ks[:, None] >> np.arange(int(ks.max()).bit_length())) & 1  # (T, bits)
    power = step
    for j, column in enumerate(bits.T):
        if j:
            power = power @ power
        rows = column.nonzero()[0]
        out[rows] = out[rows] @ power.T
    return out


def _resolve_step(cfg: IntegratorConfig, rate_bound: float, n: int) -> tuple[float, int]:
    """The step and step count of a run at dimension ``n``; a ConfigError
    when it would take more than :data:`MAX_STEPS` steps or record a stack
    over :data:`MAX_STACK_BYTES`, before anything is allocated."""
    dt = cfg.dt if cfg.dt is not None else cfg.safety / max(rate_bound, 1e-300)
    steps = cfg.t_max / dt if dt > 0 else math.inf
    if not steps <= MAX_STEPS:  # also refuses NaN
        raise ConfigError(f"t_max = {cfg.t_max:g} at dt = {dt:.3g} needs {steps:.3g} steps, over the "
                          f"limit of {MAX_STEPS:.3g}; shorten t_max or lengthen dt")
    n_steps = max(1, math.ceil(steps - 1e-9))
    count = _record_count(n_steps, cfg)
    size = count * n * n * np.dtype(complex).itemsize
    if size > MAX_STACK_BYTES:
        raise ConfigError(
            f"{count} records of {n} x {n} snapshots need {size / 2**20:.0f} MiB, over the "
            f"{MAX_STACK_BYTES // 2**20} MiB limit; raise record_every or lower record_points"
        )
    return cfg.t_max / n_steps, n_steps


def _record_count(n_steps: int, cfg: IntegratorConfig) -> int:
    """Number of records :func:`_record_steps` yields, by arithmetic alone:
    exact for a fixed stride and for runs shorter than ``record_points``, an
    upper bound for the automatic schedules (rounding can merge samples)."""
    if cfg.record_every is not None:
        return n_steps // cfg.record_every + 1 + (n_steps % cfg.record_every != 0)
    return min(n_steps + 1, cfg.record_points)


def _distinct(ks: np.ndarray) -> np.ndarray:
    """The entries of a non-decreasing ``ks`` with repeats dropped."""
    keep = np.empty(ks.size, dtype=bool)
    keep[:1] = True
    np.not_equal(ks[1:], ks[:-1], out=keep[1:])
    return ks[keep]


def _record_steps(n_steps: int, cfg: IntegratorConfig) -> np.ndarray:
    if cfg.record_every is not None:
        ks = np.arange(0, n_steps + 1, min(cfg.record_every, n_steps))
        if ks[-1] != n_steps:
            ks = np.append(ks, n_steps)
        return ks
    if n_steps + 1 <= cfg.record_points:
        return np.arange(n_steps + 1)
    # both automatic schedules round an increasing grid, so they never decrease
    if cfg.record_spacing == "linear":
        return _distinct(np.round(np.linspace(0, n_steps, cfg.record_points)).astype(int))
    interior = np.round(np.geomspace(1, n_steps, cfg.record_points - 1)).astype(int)
    return _distinct(np.concatenate(([0], interior)))


def _check_snapshots(traj: Trajectory) -> None:
    """Check every snapshot of ``traj`` in one ordered pass.

    Finite entries, trace drift and Hermiticity are computed once for the
    finite prefix of the stack. When they pass, one batched Cholesky
    factorisation of the shifted stack settles positivity with no
    eigenvalue call. Otherwise the spectra (``traj._spectra``, or those of
    the finite prefix) name the first failing snapshot in time order; within
    one snapshot the checks run in a fixed order: finite entries, gross
    positivity, trace drift, Hermiticity, snapshot positivity. Spectra that
    find no failure (a round-off tie at the positivity tolerance) stay
    cached on ``traj``.
    """
    times, states = traj.times, traj.states
    finite = np.isfinite(states).all(axis=(1, 2))
    whole = bool(finite.all())
    count = len(states) if whole else int(finite.argmin())
    head = states[:count]
    drift = np.abs(np.trace(head, axis1=1, axis2=2) - 1.0)
    asym = np.abs(head - head.conj().transpose(0, 2, 1)).max(axis=(1, 2), initial=0.0)
    if whole and (drift <= TRACE_DRIFT_TOL).all() and (asym <= SNAPSHOT_HERMITICITY_TOL).all():
        with contextlib.suppress(np.linalg.LinAlgError):
            np.linalg.cholesky(states + SNAPSHOT_POSITIVITY_TOL * np.eye(states.shape[1]))
            return
    smallest = (traj._spectra if whole else np.linalg.eigvalsh(head))[:, 0]
    checks = (
        (smallest < -POSITIVITY_FAILURE_TOL, lambda k: IntegrationError(
            f"positivity violated at t = {times[k]:g} (eigenvalue {smallest[k]:.3e}); reduce dt")),
        (drift > TRACE_DRIFT_TOL, lambda k: IntegrationError(
            f"trace drifted by {drift[k]:.3e} at t = {times[k]:g}; reduce dt")),
        (asym > SNAPSHOT_HERMITICITY_TOL, lambda k: IntegrationError(
            f"snapshot at t = {times[k]:g} is not Hermitian: max asymmetry {asym[k]:.3e}")),
        (smallest < -SNAPSHOT_POSITIVITY_TOL, lambda k: IntegrationError(
            f"snapshot at t = {times[k]:g} has eigenvalue {smallest[k]:.3e} below 0")),
    )
    first = min((int(failed.argmax()) for failed, _ in checks if failed.any()), default=count)
    if first < count:
        raise next(error(first) for failed, error in checks if failed[first])
    if not whole:
        raise IntegrationError(f"non-finite state at t = {times[count]:g}: integration diverged")


def _build_trajectory(times, states, target, dt, n_steps) -> Trajectory:
    traj = Trajectory(
        times=times,
        states=_readonly(states),
        target=_readonly(np.array(target if target is not None else states[-1])),
        dt=dt,
        n_steps=n_steps,
    )
    _check_snapshots(traj)
    return traj


def _checked_target(target, n: int) -> np.ndarray:
    """``target`` as an n x n complex matrix; a ValidationError unless it is
    finite and Hermitian, before any eigenvalue call can read one triangle."""
    m = _as_matrix(target)
    _check_hermitian(m, n, "target", SNAPSHOT_HERMITICITY_TOL)
    return m


def _checked_inputs(rho0, p_all, gamma: float, omega: float, target):
    """The initial state as a checked n x n matrix, the diagonal generator M
    and the checked ``target`` (None stays None), in the order both solvers
    check them."""
    m0 = _as_matrix(rho0)
    diag_gen = diag_generator_matrix(p_all, gamma, omega)
    _check_hermitian(m0, diag_gen.shape[0], "initial state", SNAPSHOT_HERMITICITY_TOL)
    if target is not None:
        target = _checked_target(target, diag_gen.shape[0])
    return m0, diag_gen, target


def _strictly_lower(n: int) -> np.ndarray:
    return np.tri(n, k=-1, dtype=bool)


def _pack(m: np.ndarray) -> np.ndarray:
    """Real coordinates of the Hermitian matrices along the last two axes of
    ``m``: ``Re m`` on and above the diagonal, ``Im m[r, s]`` (r < s) at
    (s, r) below it."""
    return np.where(_strictly_lower(m.shape[-1]), np.swapaxes(m.imag, -1, -2), m.real)


def _unpack(x: np.ndarray) -> np.ndarray:
    """The exactly Hermitian complex matrices whose coordinates are the last
    two axes of ``x``; the inverse of :func:`_pack`."""
    n = x.shape[-1]
    lower = _strictly_lower(n)
    xt = np.swapaxes(x, -1, -2)
    out = np.empty(x.shape, dtype=complex)
    np.copyto(out.real, x, where=~lower)
    np.copyto(out.real, xt, where=lower)
    np.negative(x, out=out.imag, where=lower)
    np.copyto(out.imag, xt, where=lower.T)
    out.imag[..., range(n), range(n)] = 0.0
    return out


def _real_generator(diag_gen: np.ndarray, h: np.ndarray | None) -> np.ndarray:
    """The right-hand side as a real n^2 x n^2 matrix in the coordinates of
    :func:`_pack`: column k is the packed image, under
    :func:`_closed_form_rhs`, of the Hermitian matrix that unit coordinate k
    unpacks to."""
    n = diag_gen.shape[0]
    basis = _unpack(np.eye(n * n).reshape(n * n, n, n))
    return _pack(_closed_form_rhs(diag_gen, h, basis)).reshape(n * n, n * n).T


def integrate(rho0, hamiltonian, p_all, gamma: float, omega: float, cfg: IntegratorConfig,
              target=None) -> Trajectory:
    """Integrate the full master equation from ``rho0`` up to ``cfg.t_max``.

    ``p_all`` holds the floored flat probabilities that parametrize the jump
    family, as for :func:`integrate_fast_limit`; ``hamiltonian`` may be None.
    ``rho0`` and the Hamiltonian must be Hermitian, because the state is
    propagated in real Hermitian coordinates (see the module docstring).
    ``target``, when given, must be a finite Hermitian n x n matrix; it is
    checked before any work.
    The automatic step is ``safety / (max jump weight + spectral norm of H)``,
    which keeps the stiffest floor-induced rate well inside the stability
    region of the fourth-order update.
    """
    m0, diag_gen, target = _checked_inputs(rho0, p_all, gamma, omega, target)
    n = diag_gen.shape[0]
    h = None
    h_norm = 0.0
    if hamiltonian is not None:
        h = np.asarray(hamiltonian, dtype=complex)
        _check_hermitian(h, n, "Hamiltonian", HERMITICITY_TOL)
        h_norm = float(np.abs(np.linalg.eigvalsh(h)).max())
    max_weight = float((diag_gen - np.diag(np.diagonal(diag_gen))).max())
    dt, n_steps = _resolve_step(cfg, max_weight + h_norm, n)
    assembly = 2 * n**4 * np.dtype(complex).itemsize  # the unit-coordinate stack and its image
    if assembly > MAX_STACK_BYTES:
        raise ConfigError(f"full mode at dimension {n} needs {assembly / 2**20:.0f} MiB to assemble "
                          f"its generator, over the {MAX_STACK_BYTES // 2**20} MiB limit; use mode 'fast'")
    ks = _record_steps(n_steps, cfg)
    step = _rk4_step_matrix(_real_generator(diag_gen, h), dt)
    coords = _propagate(step, _pack(m0).reshape(-1), ks)
    return _build_trajectory(ks * dt, _unpack(coords.reshape(-1, n, n)), target, dt, n_steps)


def integrate_fast_limit(rho0, p_all, gamma: float, omega: float, cfg: IntegratorConfig,
                         target=None) -> Trajectory:
    """Solve the dissipator-dominated reduction of the master equation in
    closed form at the sample times.

    The diagonals obey d' = M d. The jump weights satisfy detailed balance
    with respect to p, so M = diag(q) K diag(1/q) with q = sqrt(p) and K real
    symmetric, negative semidefinite, with q as its exact, simple kernel: one
    ``eigh(K) = (lam, V)`` gives ``exp(M t) d0 = diag(q) V exp(lam t) V^T
    diag(1/q) d0`` at every t. The largest eigenvalue is set to exactly 0, as
    its round-off would grow into a trace drift at long times. Each
    off-diagonal decays as ``rho_rs(0) * exp(-rate * t)``, which keeps
    initially real elements real. ``dt`` and ``n_steps`` only set the sample
    grid. ``rho0`` and ``target`` are checked as in :func:`integrate` (shape,
    finite entries, Hermiticity) before any work.
    """
    m0, diag_gen, target = _checked_inputs(rho0, p_all, gamma, omega, target)
    n = diag_gen.shape[0]
    dt, n_steps = _resolve_step(cfg, float(-np.diagonal(diag_gen).min()), n)
    times = _record_steps(n_steps, cfg) * dt
    q = np.sqrt(np.ravel(p_all))
    lam, v = np.linalg.eigh(diag_gen * q[None, :] / q[:, None])  # one triangle: asymmetry is harmless
    lam[-1] = 0.0
    with np.errstate(under="ignore"):
        modes = np.exp(np.outer(times, lam)) * ((np.diagonal(m0).real / q) @ v)
        populations = modes @ (q[:, None] * v).T
    rate = -_coherence_generator(diag_gen)
    coherences = m0.copy()
    np.fill_diagonal(coherences, 0.0)
    states = coherences * np.exp(-rate * times[:, None, None])
    states += populations[:, :, None] * np.eye(n)
    return _build_trajectory(times, states, target, dt, n_steps)


def alignment_time(traj: Trajectory, target, tol: float = 0.01) -> float:
    """Earliest recorded time from which the trace distance to ``target``
    stays at or below ``tol`` through the end of the trajectory.

    The distances are computed in blocks of snapshots from the last one
    back, stopping at the first block that holds a sample above ``tol``, so
    only the tail after the last crossing is read. ``target`` must be a
    finite Hermitian matrix of the trajectory's dimension.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValidationError(f"alignment tolerance must be positive and finite, got {tol!r}")
    target_m = _checked_target(target, traj.dim)
    first_ok = 0
    for end in range(traj.times.size, 0, -_ALIGNMENT_BLOCK):
        start = max(0, end - _ALIGNMENT_BLOCK)
        dist = _trace_distances(traj.states[start:end], target_m)
        if end == traj.times.size:
            final = float(dist[-1])
        above = np.nonzero(dist > tol)[0]
        if above.size:
            first_ok = start + int(above[-1]) + 1
            break
    if first_ok == traj.times.size:
        raise NotAlignedError(
            f"trace distance never settled below {tol:g} "
            f"(final distance {final:.3e} at t = {traj.times[-1]:g})",
            final,
        )
    return float(traj.times[first_ok])


def simulate_model(model, cfg: IntegratorConfig, mode: str = "full", target=None,
                   gamma: float | None = None) -> Trajectory:
    """Run a measurement scenario end to end and return its trajectory.

    ``mode="full"`` integrates the complete master equation and requires the
    model to carry a Hamiltonian; ``mode="fast"`` runs the
    dissipator-dominated reduction. The trace-distance series is measured
    against the scenario's aligned target unless ``target`` overrides it.
    ``gamma``, when given, replaces ``model.gamma`` for this run and must be
    positive and finite. The run reads the model's rate table, initial state
    and target, which the model derives once and which do not depend on
    gamma, so a coupling sweep runs every value on the one model.
    """
    if gamma is None:
        gamma = model.gamma
    elif not (math.isfinite(gamma) and gamma > 0):
        raise ValidationError(f"gamma must be positive and finite, got {gamma!r}")
    if target is None:
        target = model.aligned_target()
    p_all = model.rate_table().flat_probabilities()
    rho0 = model.initial_dm()
    if mode == "full":
        if model.hamiltonian is None:
            raise ConfigError("mode 'full' requires a Hamiltonian")
        return integrate(rho0, model.hamiltonian, p_all, gamma, model.omega, cfg, target=target)
    if mode == "fast":
        return integrate_fast_limit(rho0, p_all, gamma, model.omega, cfg, target=target)
    raise ConfigError(f"unknown mode {mode!r}; expected 'full' or 'fast'")
