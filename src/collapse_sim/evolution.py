"""Time integration of the master equation and of its dissipator-dominated
reduction. A run returns a :class:`Trajectory`: the stack of density-matrix
snapshots at the recorded times, from which every observable is read.

A run reads the jump family's rates once, in O(n), off
``dissipator._rate_bounds``: :func:`simulate_model` itself, :func:`integrate`
and :func:`integrate_fast_limit` in :func:`_checked_inputs`. The one tuple
sizes the run in :func:`_resolve_step`, before any n x n array, and feeds the
one runner, :func:`_run`, of both modes: full mode builds M and its slow
block from it, fast mode its modes and coherence rates. :func:`simulate_model`
hands it the model's states, valid by construction (``states.product_state_dm``
and ``states.aligned_dm`` hold the proofs), the target as a ``DensityMatrix``. The
solvers' initial state, target and Hamiltonian, and the target of :class:`Trajectory` and
:func:`alignment_time`, go through the one check, ``states._checked_hermitian``, which
takes a ``DensityMatrix``, checked when built, as it is.

The master equation maps Hermitian matrices to Hermitian matrices, so full
mode propagates the n^2 real coordinates ``X = Re rho + Im rho`` of a
Hermitian rho instead of vec(rho) (``dissipator._pack``): the symmetric
part of X is ``Re rho``, the antisymmetric part ``Im rho``. The right-hand
side ``dissipator._closed_form_rhs`` acts on X directly, the family as on
rho and ``-i [H, rho]`` as ``[X^T, R] + [J, X]`` for H = R + iJ; its images
of the unit coordinates (``dissipator._generator_rows``) are the generator:
a real n^2 x n^2 matrix, so the step map and every product of the
propagation are float64, 8 bytes per entry.
The recorded coordinates are unpacked once into the complex snapshot stack,
``(X + X^T)/2 + i (X - X^T)/2``, which is exactly Hermitian.

The full-mode generator is linear and time independent, so a fixed-step
classical fourth-order Runge-Kutta update is precomputed once, from two
products, as the degree-4 Taylor polynomial of the step map S (the same
update for a linear autonomous system); :func:`_step_map` builds it,
transposed, as rows. Every record step k is reached through one squaring
chain, :func:`_propagate`: each power S**(2**j) multiplies, in one batched
product, the records whose k has bit j set, up to the top bit of the largest
k. On its low levels, where the records outnumber their distinct partial
states, the chain builds those states once, as a table of the rows y0 S**r
made by doubling, and each record starts from row k mod 2**m of it. Once the
floor transient has died, only the slow block of the aligned states still
moves, and the powers have collapsed onto it: from N =
:data:`_COLLAPSE_MIN_SIZE` on, :func:`_collapsed` tests the power at the
level that the floor rates predict (:func:`_slow_block`), once per run, on
its own rows at the block's coordinates; one that passes finishes every
record in the block, through the same chain run on the block's power, with
no further squaring: the chain's only early stop. A power that fails, or
holds a non-finite entry, goes on through the unchanged chain. Fast mode has
no step map: the one symmetric eigendecomposition of the family,
``dissipator._balanced_modes``, gives its populations in closed form.
The dense jump family is the tests' oracle in ``dissipator``; this module
imports its names only for the benchmark's tracer to wrap.
:data:`MAX_STACK_BYTES` caps the (T, n, n) complex snapshot stack (16 bytes
per entry), the full-mode arrays, whose budget its comment sets out, and,
through :func:`_size_spectrum`, the eigendecomposition of the ``spectrum``
command and of fast mode; :data:`MAX_STEPS` caps the step count.

Every pass over the stack reads it in the blocks of :func:`_stack_blocks`,
about :data:`_STACK_BLOCK_BYTES` (128 KiB) each: 512 snapshots at n = 4, 32
at n = 16 and 1 at n = 100; :func:`alignment_time` takes them from the last
one back. The stack is checked by :func:`_check_snapshots` once the
:class:`Trajectory` exists, and again by each read of
:attr:`Trajectory.snapshots`, which then builds its density matrices
unchecked; per block, in time order: finite entries, trace drift
and Hermiticity elementwise, and, when they pass, positivity by one batched
Cholesky factorisation of the block's ``rho + SNAPSHOT_POSITIVITY_TOL * I``,
which exists, up to round-off, exactly when every eigenvalue lies above
``-SNAPSHOT_POSITIVITY_TOL``. A block that fails is eigendecomposed alone, to
name its first failing snapshot; should its spectra find none (a round-off
tie at the tolerance), the pass goes on to the next block. The spectra and
the entropy are computed on first read of :attr:`Trajectory.eigenvalues` or
:attr:`Trajectory.entropy`, from one batched eigenvalue call that both share.
The trace distances to the target are computed on first read of
:attr:`Trajectory.trace_dist`; :func:`alignment_time` computes them only for
the samples of the tail that trace-norm bounds leave open. Every failed check
is an :class:`IntegrationError` that names the snapshot's time and value.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .dissipator import (_balanced_modes, _coherence_generator, _diag_generator, _generator_rows, _pack,
                         _rate_bounds, _unpack)
from .dissipator import apply_dissipator, lindblad_jump_family, master_rhs  # noqa: F401  (perfbench/tracer.py wraps this name)
from .errors import ConfigError, IntegrationError, NotAlignedError, ValidationError
from .states import (DensityMatrix, _as_matrix, _checked_hermitian, _distance_bounds, _integer, _positive,
                     _readonly, _spectral_entropy, _trace_distances)

TRACE_DRIFT_TOL = 1e-9
SNAPSHOT_POSITIVITY_TOL = 1e-8
SNAPSHOT_HERMITICITY_TOL = 1e-10
POSITIVITY_FAILURE_TOL = 1e-6
# largest (T, n, n) complex snapshot stack a run may record, and the most full mode may hold
# as four real n^2 x n^2 arrays: assembly holds one, G^T, in place (1.20 by tracemalloc at n =
# 16 with H), _step_map four (a, a^2, the tail, S), _propagate's chain S, the power, its square and
# up to 2 T x n^2 rows (its table of at most T rows, until the T output rows are gathered from
# it); from n^2 = 128 on a collapse test holds, beside S and the power, its s^2 x n^2 rows at the
# slow block (s^2 <= n^2/4), Q and C, n^2 x s^2 each, kept with two T x s^2 copies of the rows by
# the tail, and its N x N residual (N = n^2); S is freed before the rows are unpacked.
# The stack's own phases hold little beyond it: each pass reads it in the blocks of _stack_blocks (by
# tracemalloc at n = 16, T = 1152: _check_snapshots, passing or failing, 0.09 stacks, trace_dist and
# alignment_time 0.06, the CSV 0.57, mostly its text held twice); the spectra's batched eigenvalue call keeps only its (T, n) output
MAX_STACK_BYTES = 2**28
# most steps a run may take: float64 t_max / dt counts steps exactly up to here
MAX_STEPS = 2**53
# n x n float arrays the family's eigendecomposition (dissipator._balanced_modes, in the spectrum
# command and in fast mode) holds at its peak, inside eigh: K, balanced from M in place, LAPACK's
# copy of K, its 2 n^2 workspace and the eigenvectors (5.1 by max RSS at n = 2025)
SPECTRUM_ARRAYS = 5
# bytes per block of every pass over the stack (see _stack_blocks), small enough that a
# block's temporaries stay in cache
_STACK_BLOCK_BYTES = 2**17
# the trace distance at which a run counts as aligned, unless the caller or the config sets one
DEFAULT_ALIGNMENT_TOL = 0.01
# from this matrix size N on, _propagate tests a power for a collapse onto the slow block of
# _slow_block, with a residual of at most _COLLAPSE_TOL times the power's largest entry (4.5e-16
# to 2.3e-14 where the full_dense runs of seeds 0-2 accept, each on its first test). Below it, a
# test costs more than the squarings it saves: the N = 16 reference run's _propagate takes 0.17 ms
# untested and 0.21 ms with the test, which passes at level 10 of 19 (medians of 41, 2 cores)
_COLLAPSE_MIN_SIZE = 128
_COLLAPSE_TOL = 1e-13


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step integration settings.

    ``dt=None`` takes the automatic step of :func:`_resolve_step`. Snapshots
    are recorded at a fixed stride when ``record_every`` is given, otherwise on
    an automatic schedule of at most ``record_points``, the first at t = 0 and
    the last at t_max: geometric by default, which resolves both the floor's
    fast transient and the slow alignment tail, or even ("linear").
    """

    t_max: float
    dt: float | None = None
    safety: float = 0.05
    record_every: int | None = None
    record_points: int = 240
    record_spacing: str = "log"

    def __post_init__(self):
        # each field is stored as checked; only dt and record_every may be None
        for name, check in (("t_max", _positive), ("dt", _positive), ("safety", _positive),
                            ("record_every", _integer), ("record_points", _integer)):
            if getattr(self, name) is not None or name not in ("dt", "record_every"):
                object.__setattr__(self, name, check(getattr(self, name), name))
        if not self.safety <= 0.5:
            raise ValidationError("safety factor must lie in (0, 0.5]")
        if self.record_every is not None and self.record_every < 1:
            raise ValidationError("record_every must be at least 1")
        if self.record_points < 2:
            raise ValidationError("record_points must be at least 2")
        if self.record_spacing not in ("log", "linear"):
            raise ValidationError(f"unknown record_spacing {self.record_spacing!r}")


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Recorded history of an integration run: the snapshot stack and what
    the run computed to produce it.

    ``states`` is the (T, n, n) stack of density matrices at the T >= 0 recorded ``times``
    (1-D floats); every per-time series is read from it. Populations are ``diagonals``, a view
    of its real diagonal, and the coherence of the flat pair (r, s) is ``states[:, r, s]``.
    ``target`` is a copy of the run's n x n target state, or of the final snapshot for
    ``target=None``; ``trace_dist`` measures each snapshot against it. Other shapes, and a given
    target that is not finite and Hermitian within SNAPSHOT_HERMITICITY_TOL, raise
    ValidationError; ``times``, ``states`` (neither read nor copied) and ``target`` are frozen
    read-only, the caller's arrays too. ``eigenvalues``, ``entropy`` and ``trace_dist`` are
    read-only arrays computed on first read and kept; the first two share one eigenvalue call.
    """

    times: np.ndarray
    states: np.ndarray
    target: np.ndarray
    dt: float
    n_steps: int

    def __post_init__(self):
        times, states = np.asarray(self.times, dtype=float), np.asarray(self.states)
        final = states[-1] if self.target is None and states.ndim and len(states) else self.target
        target = np.array(_as_matrix(final))  # a copy: None with no snapshot is refused as shape ()
        n = states.shape[-1] if states.ndim else 0
        if not (times.ndim == 1 and states.shape == (times.size, n, n) and target.shape == (n, n)):
            raise ValidationError("a trajectory needs 1-D times of length T, a (T, n, n) stack and an n x n target; "
                                  f"got times {times.shape}, states {states.shape} and target {target.shape}")
        if self.target is not None:  # trace_dist reads one triangle of it
            _checked_hermitian(self.target, "target", n, SNAPSHOT_HERMITICITY_TOL)
        for name, value in (("times", times), ("states", states), ("target", target)):
            object.__setattr__(self, name, _readonly(value))

    @property
    def diagonals(self) -> np.ndarray:
        """Read-only (T, n) populations: a view of the real diagonal of ``states``."""
        return np.diagonal(self.states, axis1=1, axis2=2).real

    @functools.cached_property
    def trace_dist(self) -> np.ndarray:
        """Read-only trace distance of each snapshot to ``target``, computed
        for the whole stack on first read, block by block, and kept."""
        dist = np.empty(len(self.states))
        for block in _stack_blocks(self.states):
            dist[block] = _trace_distances(self.states[block], self.target)
        return _readonly(dist)

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
        """The stack as density matrices, each a copy, built unchecked on each access once
        :func:`_check_snapshots` has passed the stack; read ``states`` where an array will do."""
        _check_snapshots(self)
        return tuple(DensityMatrix._proven(m) for m in self.states)

    @property
    def dim(self) -> int:
        return self.states.shape[1]


def _step_map(diag_gen: np.ndarray, h: np.ndarray | None, dt: float) -> np.ndarray:
    """The transposed RK4 step map S^T = I + a + a^2 (I/2 + a/6 + a^2/24), a =
    dt G^T, real and C-contiguous, with G^T from ``dissipator._generator_rows``.
    a is scaled and the tail built in place, within the budget set out at
    :data:`MAX_STACK_BYTES`."""
    size = diag_gen.shape[0] ** 2
    a = _generator_rows(diag_gen, h)
    a *= dt
    a2 = a @ a
    tail = a2 / 24.0
    tail += a / 6.0
    tail.flat[::size + 1] += 0.5
    step = a2 @ tail
    step += a
    step.flat[::size + 1] += 1.0
    return step


def _collapsed(power: np.ndarray, coords: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Test whether the N x N ``power`` has collapsed onto the slow block:
    its own rows at the w support ``coords``, orthonormalised, are the
    columns of Q, and ``power`` is compared with ``C Q^H``, C = ``power @
    Q``, through one N x N residual whose moduli overwrite it. Returns
    ``(C, Q^H)`` when every modulus is at most :data:`_COLLAPSE_TOL` times
    the largest entry of ``power``, else None: for a residual with a NaN
    (say from an overflowing C) or, before any QR, for a power with a
    non-finite entry.
    """
    scale = np.abs(power).max()
    if not np.isfinite(scale):
        return None
    q = np.linalg.qr(power[coords].conj().T)[0]
    c, qh = power @ q, q.conj().T
    resid = c @ qh
    resid -= power
    resid = np.abs(resid, out=resid.real)  # a complex power's moduli land in the real parts
    return (c, qh) if resid.max() <= _COLLAPSE_TOL * scale else None


def _propagate(step_t: np.ndarray, y0: np.ndarray, ks: np.ndarray,
               coords: np.ndarray | None = None, level: int | None = None) -> np.ndarray:
    """Rows ``y0 @ step_t**k``, the states ``step**k @ y0`` for ``step_t =
    step^T``, for every k in ``ks``, from one squaring chain (full mode only);
    ``y0`` is one row shared by every record or, 2-D, one row per record.

    Power ``step_t**(2**j)`` multiplies, in one batched product, the rows
    whose k has bit j set, and is squared into the next power, up to the top
    bit of the largest k. Records whose k agree mod 2**m pass through the
    same rows on levels below m, so from a shared row those levels are one
    table of the rows ``y0 @ step_t**r``, r < 2**m, built by doubling (rows
    r + 2**j are rows r times ``step_t**(2**j)``); from level m on, each
    record carries its own row, starting from row k mod 2**m. The table
    doubles while it has fewer rows than the records its level would
    multiply and at most T after doubling, so repeated k can make it span
    every level; every row still takes the level-by-level products, in the
    same order.

    Given the slow block's ``coords`` and ``level`` from :func:`_slow_block`,
    :func:`_collapsed` tests the power P of that level once, below the top
    bit. One that passes, P = C Q^H, has collapsed onto the block: P**h = C
    (Q^H C)**(h - 1) Q^H, so each row with h = k >> level > 0 ends as
    ``_propagate(Q^H C, y C, h - 1) @ Q^H``, with no further squaring of P:
    the chain's only early stop. A power that fails, or holds a non-finite
    entry, goes on through the unchanged chain, so a run that never
    collapses keeps its bits. Its memory is counted at :data:`MAX_STACK_BYTES`.
    """
    ks = np.asarray(ks, dtype=np.int64)
    top = max(1, int(ks.max()).bit_length())
    counts = ((ks[:, None] >> np.arange(top)) & 1).sum(axis=0).tolist()  # records with bit j set
    shared, m = y0.ndim == 1, 0
    while shared and m < top and 2 ** m < counts[m] and 2 ** (m + 1) <= ks.size:
        m += 1
    table = np.empty((2 ** m if shared else ks.size, y0.shape[-1]), dtype=np.result_type(step_t, y0))
    table[:] = y0
    power = step_t
    for j in range(top):
        if j == m:
            out, table = (table[ks & (2 ** m - 1)] if shared else table), None
        if j:
            power = power @ power
            if j == level and (basis := _collapsed(power, coords)) is not None:
                c, qh = basis
                part, high = (out if j >= m else table[ks & (2 ** j - 1)]), ks >> j
                rows = high.nonzero()[0]
                part[rows] = _propagate(qh @ c, part[rows] @ c, high[rows] - 1) @ qh
                return part
        if j < m:
            # level 0 multiplies two copies of y0: numpy sends a one-row product to gemv, which
            # rounds unlike the batched gemm rows
            table[2 ** j:2 ** (j + 1)] = (table[:max(2, 2 ** j)] @ power)[:2 ** j]
        else:
            rows = ((ks >> j) & 1).nonzero()[0]
            out[rows] = out[rows] @ power
    return out if m < top else table[ks]


def _slow_block(rates, dt: float) -> tuple[np.ndarray, int] | tuple[()]:
    """The slow block's coordinates a n + b, a and b in the support, and the
    level at which :func:`_propagate` tests for a collapse onto it,
    read off q and the outflows of ``rates`` (``dissipator._rate_bounds``)
    in O(n); () when N = n^2 < :data:`_COLLAPSE_MIN_SIZE`, no q lies above
    the smallest (epsilon when a floor exists), the s^2 support coordinates
    pass N/4, or kappa dt is not a positive normal number. The support's
    coherences with the floor decay at kappa, half the sum of the smallest
    floor and support outflows: the level is the first j at which
    exp(-kappa 2**j dt) <= :data:`_COLLAPSE_TOL`."""
    q, _, _, outflow = rates
    n = q.size
    if n * n < _COLLAPSE_MIN_SIZE:
        return ()
    floor = q == q.min()
    support = (~floor).nonzero()[0]
    if not 0 < 4 * support.size ** 2 <= n * n:
        return ()
    kappa_dt = (float(outflow[floor].min()) + float(outflow[support].min())) / 2 * dt
    if not np.finfo(float).tiny <= kappa_dt < math.inf:
        return ()
    level = math.ceil(math.log2(-math.log(_COLLAPSE_TOL)) - math.log2(kappa_dt))
    return (support[:, None] * n + support).reshape(-1), max(1, level)


def _resolve_step(cfg: IntegratorConfig, rates, full: bool = False,
                  hamiltonian=None) -> tuple[float, int]:
    """The step and step count of a run on the checked ``rates`` of
    ``dissipator._rate_bounds``, in full mode, with the Hamiltonian
    ``hamiltonian`` (None without one), when ``full``; in O(n), before any n x n
    array. The automatic step is ``cfg.safety`` over the largest outflow in
    fast mode, where it only sets the sample grid, and over the largest jump
    weight plus the spectral norm of H in full mode: not over the largest
    outflow, up to Q / max(q) times that weight (Q = sum(q)), so at safety
    0.5 a 4 x 4 uniform scenario fails its positivity check. A ConfigError,
    from n alone and before H's O(n^3) norm, when full mode's four real n^2 x
    n^2 arrays or fast mode's eigendecomposition (:func:`_size_spectrum`)
    would pass :data:`MAX_STACK_BYTES`; then when the run needs over
    :data:`MAX_STEPS` steps or over :data:`MAX_STACK_BYTES` for its stack."""
    _, _, weight, outflow = rates
    n = outflow.size
    assembly = 4 * n**4 * np.dtype(float).itemsize  # four real n^2 x n^2 arrays, see MAX_STACK_BYTES
    if not full:
        _size_spectrum(n)
    elif assembly > MAX_STACK_BYTES:
        raise ConfigError(f"full mode at dimension {n} needs {assembly / 2**20:.0f} MiB to assemble "
                          f"its generator, over the {MAX_STACK_BYTES // 2**20} MiB limit; use mode 'fast'")
    h_norm = 0.0 if hamiltonian is None else float(np.abs(np.linalg.eigvalsh(hamiltonian)).max())
    rate = weight + h_norm if full else float(outflow.max())
    dt = cfg.dt if cfg.dt is not None else cfg.safety / max(rate, 1e-300)
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


def _size_spectrum(n: int) -> None:
    """A ConfigError, before any n x n array exists, when the
    :data:`SPECTRUM_ARRAYS` n x n float arrays of the family's
    eigendecomposition, in the ``spectrum`` command or a fast-mode run, would
    pass :data:`MAX_STACK_BYTES`."""
    size = SPECTRUM_ARRAYS * n * n * np.dtype(float).itemsize
    if size > MAX_STACK_BYTES:
        raise ConfigError(f"the family's spectrum at dimension {n} needs {size / 2**20:.0f} MiB for "
                          f"its eigendecomposition, over the {MAX_STACK_BYTES // 2**20} MiB limit")


def _record_count(n_steps: int, cfg: IntegratorConfig) -> int:
    """Number of records :func:`_record_steps` yields, by arithmetic alone:
    exact for a fixed stride and for runs shorter than ``record_points``, an
    upper bound for the automatic schedules (rounding can merge samples)."""
    if cfg.record_every is not None:
        return n_steps // cfg.record_every + 1 + (n_steps % cfg.record_every != 0)
    return min(n_steps + 1, cfg.record_points)


def _record_steps(n_steps: int, cfg: IntegratorConfig) -> np.ndarray:
    if cfg.record_every is not None:
        ks = np.arange(0, n_steps + 1, min(cfg.record_every, n_steps))
        if ks[-1] != n_steps:
            ks = np.append(ks, n_steps)
        return ks
    if n_steps + 1 <= cfg.record_points:
        return np.arange(n_steps + 1)
    if cfg.record_spacing == "linear":
        ks = np.round(np.linspace(0, n_steps, cfg.record_points)).astype(int)
    else:
        ks = np.round(np.geomspace(1, n_steps, cfg.record_points - 1)).astype(int)
        ks[-1] = n_steps  # a one-point geomspace returns only its start
        ks = np.concatenate(([0], ks))
    # both schedules round an increasing grid, so they never decrease: drop each repeat
    return ks[np.concatenate(([True], ks[1:] != ks[:-1]))]


def _stack_blocks(states: np.ndarray, backward: bool = False):
    """Consecutive slices of ``states`` of about :data:`_STACK_BLOCK_BYTES` each, and at least
    one snapshot, in time order or, ``backward``, from the last snapshot back; none for T = 0."""
    step = max(1, _STACK_BLOCK_BYTES // max(1, states.itemsize * math.prod(states.shape[1:])))
    if backward:
        return (slice(max(0, end - step), end) for end in range(len(states), 0, -step))
    return (slice(start, start + step) for start in range(0, len(states), step))


def _check_snapshots(traj: Trajectory, sampled: bool = False) -> None:
    """Check every snapshot of ``traj``, block by block of :func:`_stack_blocks`,
    in time order; no temporary is larger than a block.

    Trace drift and Hermiticity are computed for the block's finite head.
    When the whole block is finite and within both tolerances, one batched
    Cholesky factorisation of the shifted block checks its positivity, with
    no eigenvalue call. Otherwise, or when that fails, the head's spectra
    name the block's first failing snapshot; within one snapshot the checks
    run in a fixed order: finite entries, gross positivity, trace drift,
    Hermiticity, snapshot positivity. A block whose spectra find no failure
    (a round-off tie at the positivity tolerance) passes, and so does a
    block that factorises, even if a later block fails. The trace-drift and
    positivity messages name the run's step count and ``dt`` or, for a
    ``sampled`` closed form (fast mode), which takes no steps, its sample grid.
    """
    shift = SNAPSHOT_POSITIVITY_TOL * np.eye(traj.states.shape[1])
    steps = (f"the closed form was sampled at {traj.times.size} times up to t = {traj.times[-1]:g}"
             if sampled else f"the run took {traj.n_steps} steps of dt = {traj.dt:.3g}")
    for block in _stack_blocks(traj.states):
        times, states = traj.times[block], traj.states[block]
        finite = np.isfinite(states).all(axis=(1, 2))
        count = len(states) if finite.all() else int(finite.argmin())
        head = states[:count]
        drift = np.abs(np.trace(head, axis1=1, axis2=2) - 1.0)
        asym = np.abs(head - head.conj().transpose(0, 2, 1)).max(axis=(1, 2), initial=0.0)
        if (count == len(states) and (drift <= TRACE_DRIFT_TOL).all()
                and (asym <= SNAPSHOT_HERMITICITY_TOL).all()):
            try:
                np.linalg.cholesky(states + shift)
                continue
            except np.linalg.LinAlgError:
                pass
        smallest = np.linalg.eigvalsh(head)[:, 0]
        checks = (
            (smallest < -POSITIVITY_FAILURE_TOL, lambda k: IntegrationError(
                f"positivity violated at t = {times[k]:g} (eigenvalue {smallest[k]:.3e}); {steps}")),
            (drift > TRACE_DRIFT_TOL, lambda k: IntegrationError(
                f"trace drifted by {drift[k]:.3e} at t = {times[k]:g}; {steps}")),
            (asym > SNAPSHOT_HERMITICITY_TOL, lambda k: IntegrationError(
                f"snapshot at t = {times[k]:g} is not Hermitian: max asymmetry {asym[k]:.3e}")),
            (smallest < -SNAPSHOT_POSITIVITY_TOL, lambda k: IntegrationError(
                f"snapshot at t = {times[k]:g} has eigenvalue {smallest[k]:.3e} below 0")),
        )
        first = min((int(failed.argmax()) for failed, _ in checks if failed.any()), default=count)
        if first < count:
            raise next(error(first) for failed, error in checks if failed[first])
        if count < len(states):
            raise IntegrationError(f"non-finite state at t = {times[count]:g}: integration diverged")


def _checked_inputs(rho0, p_all, gamma: float, omega: float, target):
    """The initial state as a checked n x n matrix and the run's one read of
    ``dissipator._rate_bounds``, taken first, in the order both solvers check them, with
    ``target`` checked unless None; no n x n array here."""
    rates = _rate_bounds(p_all, gamma, omega)
    m0 = _checked_hermitian(rho0, "initial state", rates[0].size, SNAPSHOT_HERMITICITY_TOL)
    if target is not None:
        _checked_hermitian(target, "target", rates[0].size, SNAPSHOT_HERMITICITY_TOL)
    return m0, rates


def _run(m0, h, rates, cfg: IntegratorConfig, target, full: bool, dt: float, n_steps: int) -> Trajectory:
    """The checked trajectory of a run in full mode (``full``, with ``h`` or None) or fast
    mode, from the checked ``m0``, ``rates`` and ``target`` (or None), at the ``dt`` and
    ``n_steps`` of :func:`_resolve_step`; the step map is a temporary, freed before the checks."""
    n = m0.shape[0]
    ks = _record_steps(n_steps, cfg)
    times = ks * dt
    if full:
        with np.errstate(over="ignore", invalid="ignore"):  # _check_snapshots names a divergence
            states = _unpack(_propagate(_step_map(_diag_generator(rates), h, dt), _pack(m0).reshape(-1),
                                        ks, *_slow_block(rates, dt)).reshape(-1, n, n))
    else:
        q, _, _, outflow = rates
        lam, v = _balanced_modes(rates)
        with np.errstate(under="ignore"):
            modes = np.exp(np.outer(times, lam)) * ((np.diagonal(m0).real / q) @ v)
            populations = modes @ (q[:, None] * v).T
        coherences = m0.copy()
        np.fill_diagonal(coherences, 0.0)
        states = coherences * np.exp(_coherence_generator(-outflow) * times[:, None, None])
        states += populations[:, :, None] * np.eye(n)
    traj = Trajectory(times, states, target, dt, n_steps)
    _check_snapshots(traj, not full)
    return traj


def integrate(rho0, hamiltonian, p_all, gamma: float, omega: float, cfg: IntegratorConfig,
              target=None) -> Trajectory:
    """Integrate the full master equation from ``rho0`` up to ``cfg.t_max``.

    ``p_all`` holds the floored flat probabilities that parametrize the jump
    family, as for :func:`integrate_fast_limit`; ``hamiltonian`` may be None.
    ``rho0`` and the Hamiltonian must be Hermitian, because the state is
    propagated in real Hermitian coordinates (see the module docstring).
    ``target``, when given, must be a finite Hermitian n x n matrix; it is
    checked before any work. :func:`_resolve_step` sets the step and sizes
    the run before anything is assembled.
    """
    m0, rates = _checked_inputs(rho0, p_all, gamma, omega, target)
    h = None if hamiltonian is None else _checked_hermitian(hamiltonian, "Hamiltonian", m0.shape[0])
    return _run(m0, h, rates, cfg, target, True, *_resolve_step(cfg, rates, True, h))


def integrate_fast_limit(rho0, p_all, gamma: float, omega: float, cfg: IntegratorConfig,
                         target=None) -> Trajectory:
    """Solve the dissipator-dominated reduction of the master equation in
    closed form at the sample times.

    The diagonals obey d' = M d, and M = diag(q) K diag(1/q) with q =
    sqrt(p) and K real symmetric: the eigenpairs ``(lam, V)`` of K from
    ``dissipator._balanced_modes``, kernel eigenvalue exactly 0, give
    ``exp(M t) d0 = diag(q) V exp(lam t) V^T diag(1/q) d0`` at every t. Each
    off-diagonal decays as ``rho_rs(0) * exp(-rate * t)``, which keeps
    initially real elements real, at ``rate = (o_r + o_s) / 2`` for the
    outflows o of ``dissipator._rate_bounds``, from
    ``dissipator._coherence_generator``. ``dt`` and ``n_steps`` only
    set the sample grid. ``rho0`` and ``target`` are checked as in
    :func:`integrate` (shape, finite entries, Hermiticity) before any work.
    """
    m0, rates = _checked_inputs(rho0, p_all, gamma, omega, target)
    return _run(m0, None, rates, cfg, target, False, *_resolve_step(cfg, rates))


def alignment_time(traj: Trajectory, target, tol: float = DEFAULT_ALIGNMENT_TOL) -> float:
    """Earliest recorded time from which the trace distance to ``target``
    stays at or below ``tol`` through the end of the trajectory.

    The snapshots are read in the blocks of :func:`_stack_blocks` from the
    last one back, stopping at the first block that holds a sample above
    ``tol``, so only the tail after the last crossing is read; in it, only
    the samples that the bounds of ``states._distance_bounds`` leave open,
    and the last, are eigendecomposed, with the full scan's result.
    ``target`` must be a finite Hermitian matrix of the trajectory's
    dimension, and the trajectory must hold a sample.
    """
    _positive(tol, "alignment tolerance")
    target_m = _checked_hermitian(target, "target", traj.dim, SNAPSHOT_HERMITICITY_TOL)
    if not traj.times.size:
        raise ValidationError("the trajectory has no samples, so it has no alignment time")
    first_ok = 0
    for block in _stack_blocks(traj.states, backward=True):
        last, states = block.stop == traj.times.size, traj.states[block]
        lower, upper, margin = _distance_bounds(states, target_m)
        exceeds = lower > tol + margin
        open_ = ~exceeds & ~(upper <= tol - margin)  # a NaN bound leaves the sample open
        open_[-1] |= last  # the final distance is always computed
        if open_.any():
            rows = open_.nonzero()[0]
            dist = _trace_distances(states[rows], target_m)
            exceeds[rows] = dist > tol
            if last:
                final = float(dist[-1])
        above = np.nonzero(exceeds)[0]
        if above.size:
            first_ok = block.start + int(above[-1]) + 1
            break
    if first_ok == traj.times.size:
        raise NotAlignedError(
            f"trace distance never settled below {tol:g} "
            f"(final distance {final:.3e} at t = {traj.times[-1]:g})",
            final,
        )
    return float(traj.times[first_ok])


def simulate_model(model, cfg: IntegratorConfig, mode: str = "full",
                   gamma: float | None = None) -> Trajectory:
    """Run a measurement scenario end to end and return its trajectory.

    ``mode="full"`` integrates the complete master equation and requires the
    model to carry a Hamiltonian; ``mode="fast"`` runs the
    dissipator-dominated reduction. The trace-distance series is measured
    against the scenario's aligned target.
    ``gamma``, when given, replaces ``model.gamma`` for this run and must be
    positive and finite. The mode and the Hamiltonian are checked, the rates
    read and the run sized (:func:`_resolve_step`), once, before the model
    builds its initial state and target: like its rate table they do not
    depend on gamma, so a coupling sweep runs every value on the one model;
    the states, checked as density matrices, go to the run as they are.
    """
    if mode not in ("full", "fast"):
        raise ConfigError(f"unknown mode {mode!r}; expected 'full' or 'fast'")
    if mode == "full" and model.hamiltonian is None:
        raise ConfigError("mode 'full' requires a scenario with a Hamiltonian (tilt angles)")
    h = model.hamiltonian if mode == "full" else None
    rates = _rate_bounds(model.rate_table().flat_probabilities(), model.gamma if gamma is None else gamma,
                         model.omega)
    step = _resolve_step(cfg, rates, h is not None, h)  # sized before the states
    return _run(model.initial_dm().entries, h, rates, cfg, model.aligned_target(), h is not None, *step)
