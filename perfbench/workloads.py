"""Benchmark workloads: inputs built from a seed, the timed op, and the
check of each op's output.

Each workload is one client in a closed loop: the next op starts only after
the previous one has returned and been checked. The constructor builds the
inputs from the seed (the set-up that ``setup_s`` times), ``op`` is the unit
of work that is timed, and ``check`` verifies the op's output outside the
timed region. The program sees only the generated inputs, never the seed.

An op fails when it raises, when a CLI command exits non-zero, or when its
check fails; ``check`` signals the last by raising ``CheckFailed``.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil

import numpy as np
from numpy.linalg import eig, eigvalsh, solve

import collapse_sim
from collapse_sim import cli

ALIGNMENT_TOL = 0.01  # the library and CLI default


class CheckFailed(Exception):
    """An op returned, but its output is wrong."""


class OpFailed(Exception):
    """An op could not complete (a CLI command exited non-zero)."""


def _random_amplitudes(rng, k: int) -> np.ndarray:
    z = rng.normal(size=k) + 1j * rng.normal(size=k)
    return z / np.linalg.norm(z)


def _random_hamiltonian(rng, n: int, omega: float) -> np.ndarray:
    """Hermitian n x n matrix with spectral norm ``omega``."""
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h = 0.5 * (a + a.conj().T)
    return h * (omega / np.abs(eigvalsh(h)).max())


def _amplitude_model(rng, d: int, with_hamiltonian: bool):
    omega = 1.0
    h = _random_hamiltonian(rng, d * d, omega) if with_hamiltonian else None
    return collapse_sim.MeasurementModel(
        sys=collapse_sim.StateVector(_random_amplitudes(rng, d)),
        app=collapse_sim.StateVector(_random_amplitudes(rng, d)),
        correspondence=collapse_sim.CorrespondenceMap.one_to_one(d),
        gamma=5.0,
        omega=omega,
        epsilon=1e-4,
        hamiltonian=h,
    )


class CliReference:
    """The README reference config through the CLI, in-process.

    Why: this is what users run every day. One op is one round of
    ``simulate --plot``, ``spectrum``, ``qsl`` and ``sweep --gammas
    2.5,5,10,20`` with COLLAPSE_SIM_THREADS=2, the core count of the
    2-core machine the baseline was measured on.
    At n = 4, snapshot analysis (states), config handling and CSV/SVG
    writing dominate; Liouvillian assembly is a few percent. It is the only
    workload that writes files or starts threads.
    Should move: config, model, states, analysis, csvio, svgplot, cli.
    Should barely move: evolution.assemble and evolution.propagate.
    The config is fixed, so the seed changes nothing here: run-to-run spread
    on this workload is the machine's own.
    """

    CALIBRATION = "small_numpy"  # the calibrate.KERNELS entry closest to this op
    CONFIG = {
        "scenario": {
            "alpha_s": 1.1623892818282235,
            "alpha_a": 2.0420352248333655,
            "gamma": 5.0,
            "omega": 1.0,
            "epsilon": 1e-4,
        },
        "integrator": {"t_max": 1.0},
        "mode": "full",
        "outputs": {"dir": "out", "plot": True},
    }
    OUTPUTS = ("fig1.svg", "fig2.svg", "qsl.csv", "spectrum.csv", "sweep.csv", "trajectory.csv")

    def __init__(self, seed: int, workdir: str):
        os.environ["COLLAPSE_SIM_THREADS"] = "2"
        self.workdir = workdir
        self.config_path = os.path.join(workdir, "config.json")
        with open(self.config_path, "w") as fh:
            json.dump(self.CONFIG, fh)
        self.reference_digests = None

    def _out(self, i: int) -> str:
        return os.path.join(self.workdir, f"round{i}")

    def op(self, i: int):
        out = self._out(i)
        common = ["--config", self.config_path, "--out", out]
        for argv in (
            ["simulate", *common, "--plot"],
            ["spectrum", *common],
            ["qsl", *common],
            ["sweep", *common, "--gammas", "2.5,5,10,20"],
        ):
            code = cli.main(argv)
            if code != 0:
                raise OpFailed(f"{argv[0]} exited {code}")

    def check(self, i: int, result) -> None:
        """Every output exists and is byte-identical to the first round's."""
        out = self._out(i)
        try:
            names = tuple(sorted(os.listdir(out)))
            if names != self.OUTPUTS:
                raise CheckFailed(f"round {i} wrote {names}, expected {self.OUTPUTS}")
            digests = {}
            for name in names:
                with open(os.path.join(out, name), "rb") as fh:
                    digests[name] = hashlib.sha256(fh.read()).hexdigest()
        finally:
            shutil.rmtree(out, ignore_errors=True)
        if self.reference_digests is None:
            self.reference_digests = digests
        changed = [k for k in names if digests[k] != self.reference_digests[k]]
        if changed:
            raise CheckFailed(f"round {i} outputs differ from round 0: {changed}")


class FullDense:
    """Library ``simulate_model(mode="full")`` then ``alignment_time`` on
    seeded random 4 x 4 amplitude scenarios (n = 16), each with a seeded
    random Hermitian H of spectral norm omega. No files.

    Why: the dense full-mode path at the largest size that fits a run.
    Generator assembly (256 ``master_rhs`` probes over 240 dense jump terms)
    and propagation (about 205 ``matrix_power`` calls on a 256 x 256 step
    map) take nearly all the time; snapshot analysis is under 1 %.
    Should move: evolution.assemble, evolution.propagate, dissipator, and
    peak_rss_mb for anything that stores powers of the step map.
    Should not move: states, csvio, svgplot, cli. n = 25 is left out because
    one op there takes about 36 s.
    About one scenario in nine has a stationary state that H holds more than
    the alignment tolerance away from the aligned target. For those the
    right answer is NotAlignedError; the check confirms it from the
    reference, so it is a verified result, not a failed op.
    """

    CALIBRATION = "dense"
    POOL = 12
    # Largest |reference - snapshot| entry allowed. Measured RK4 error at
    # n = 16 is about 1e-7; round-off-level changes are far below this and
    # a wrong generator or step is far above it.
    SNAPSHOT_TOL = 1e-5

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng(seed)
        self.models = [_amplitude_model(rng, 4, with_hamiltonian=True) for _ in range(self.POOL)]
        self.cfg = collapse_sim.IntegratorConfig(t_max=1.0)

    def op(self, i: int):
        model = self.models[i % self.POOL]
        traj = collapse_sim.simulate_model(model, self.cfg, mode="full")
        try:
            tau = collapse_sim.alignment_time(traj, model.aligned_target(), tol=ALIGNMENT_TOL)
        except collapse_sim.NotAlignedError:
            tau = None
        return traj, tau

    @staticmethod
    def reference_generator(model) -> np.ndarray:
        """Liouvillian on row-major vec(rho), one column per matrix unit,
        from the closed-form dissipator plus the commutator."""
        n = model.dim
        rates = model.rate_table()
        h = np.asarray(model.hamiltonian)
        g = np.empty((n * n, n * n), dtype=complex)
        for k in range(n * n):
            unit = np.zeros((n, n), dtype=complex)
            unit.flat[k] = 1.0
            rhs = collapse_sim.apply_dissipator_closed_form(rates, model.gamma, model.omega, unit)
            g[:, k] = (rhs - 1j * (h @ unit - unit @ h)).reshape(-1)
        return g

    def check(self, i: int, result) -> None:
        """Snapshots match exp(G t) rho0 from an eigendecomposition of the
        reference generator, and tau is the first sample from which the
        reference stays within the alignment tolerance (or, without tau,
        that the reference ends above it)."""
        traj, tau = result
        model = self.models[i % self.POOL]
        w, v = eig(self.reference_generator(model))
        coeff = solve(v, np.asarray(model.initial_dm().entries).reshape(-1))
        reference = (np.exp(np.outer(traj.times, w)) * coeff) @ v.T
        snapshots = np.array([s.entries for s in traj.snapshots]).reshape(len(traj.times), -1)
        deviation = float(np.abs(reference - snapshots).max())
        if not deviation <= self.SNAPSHOT_TOL:
            raise CheckFailed(f"op {i}: snapshots deviate from the reference by {deviation:.3e}")
        n = model.dim
        target = np.asarray(model.aligned_target().entries)
        dist = 0.5 * np.abs(eigvalsh(reference.reshape(-1, n, n) - target)).sum(axis=1)
        margin = self.SNAPSHOT_TOL * n  # bounds the trace-distance error of the snapshots
        if tau is None:
            if dist[-1] < ALIGNMENT_TOL - margin:
                raise CheckFailed(f"op {i}: not aligned, but the reference ends at {dist[-1]:.3e}")
            return
        k = int(np.searchsorted(traj.times, tau))
        if k == len(traj.times) or traj.times[k] != tau:
            raise CheckFailed(f"op {i}: tau {tau!r} is not a sample time")
        if dist[k:].max() > ALIGNMENT_TOL + margin or (k > 0 and dist[k - 1] < ALIGNMENT_TOL - margin):
            raise CheckFailed(f"op {i}: tau {tau!r} disagrees with the reference distances")


class FastWide:
    """Library ``simulate_model(mode="fast")`` then ``alignment_time`` on
    seeded random 10 x 10 amplitude scenarios (n = 100), no H, no files.

    Why: the widest states the package handles. No Liouvillian is built;
    the time goes to eigendecomposing 100 x 100 snapshots (hundreds of
    ``eigvalsh`` calls per op).
    Should move: states, evolution.simulate self time, evolution.alignment.
    Should not move: evolution.assemble, dissipator, csvio, svgplot, cli.
    Known defect, kept visible: on about half the scenarios the program raises
    IntegrationError because the trace drifts by about 1.0e-9, just over its
    own TRACE_DRIFT_TOL of 1e-9. Those ops count as failed.
    """

    CALIBRATION = "wide"
    POOL = 40
    TRACE_TOL = 1e-8
    DIAGONAL_TOL = 1e-4

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng(seed)
        self.models = [_amplitude_model(rng, 10, with_hamiltonian=False) for _ in range(self.POOL)]
        self.cfg = collapse_sim.IntegratorConfig(t_max=1.0)

    def op(self, i: int):
        model = self.models[i % self.POOL]
        traj = collapse_sim.simulate_model(model, self.cfg, mode="fast")
        tau = collapse_sim.alignment_time(traj, model.aligned_target(), tol=ALIGNMENT_TOL)
        return traj, tau

    def check(self, i: int, result) -> None:
        """Unit trace on every snapshot, final state within the alignment
        tolerance of the target, final diagonals at the Born weights."""
        traj, _ = result
        model = self.models[i % self.POOL]
        stack = np.array([s.entries for s in traj.snapshots])
        drift = float(np.abs(np.trace(stack, axis1=1, axis2=2) - 1.0).max())
        if not drift <= self.TRACE_TOL:
            raise CheckFailed(f"op {i}: trace drifted by {drift:.3e}")
        target = np.asarray(model.aligned_target().entries)
        final = 0.5 * float(np.abs(eigvalsh(stack[-1] - target)).sum())
        if not final <= ALIGNMENT_TOL:
            raise CheckFailed(f"op {i}: final distance to the target is {final:.3e}")
        gap = float(np.abs(np.diagonal(stack[-1]).real - np.diagonal(target).real).max())
        if not gap <= self.DIAGONAL_TOL:
            raise CheckFailed(f"op {i}: final diagonals miss the Born weights by {gap:.3e}")


WORKLOADS = {"cli_reference": CliReference, "full_dense": FullDense, "fast_wide": FastWide}
