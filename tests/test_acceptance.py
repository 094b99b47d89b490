"""End-to-end acceptance checks, one test per criterion.

Run `pytest tests/test_acceptance.py -v -s` to get one PASS/FAIL line per
criterion with the measured numbers.
"""

import math
import time

import numpy as np
import pytest

from collapse_sim import (
    CorrespondenceMap,
    IntegratorConfig,
    MeasurementModel,
    StateVector,
    alignment_time,
    apply_dissipator_closed_form,
    diag_generator_matrix,
    gamma_sweep,
    generator_spectrum,
    integrate,
    qsl_lower_bound,
    simulate_model,
    spin_half_scenario,
)
from collapse_sim.dissipator import apply_dissipator, lindblad_jump_family, master_rhs
from collapse_sim.model import RateTable
from conftest import ALPHA_A, ALPHA_S, random_hermitian_unit_trace

GAMMA = 5.0
OMEGA = 1.0
EPSILON = 1e-4


def _verdict(number: int, name: str, ok: bool, detail: str) -> str:
    line = f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'} {name}: {detail}"
    print(line)
    return line


@pytest.fixture(scope="module")
def reference_model():
    return spin_half_scenario(ALPHA_S, ALPHA_A, GAMMA, OMEGA, EPSILON)


@pytest.fixture(scope="module")
def reference_run(reference_model):
    started = time.perf_counter()
    traj = simulate_model(reference_model, IntegratorConfig(t_max=1.0), mode="full")
    return traj, time.perf_counter() - started


@pytest.fixture(scope="module")
def multi_reading_model():
    return MeasurementModel(
        sys=StateVector([math.cos(ALPHA_S), math.sin(ALPHA_S)]),
        app=StateVector(np.ones(3) / math.sqrt(3.0)),
        correspondence=CorrespondenceMap.from_assignment(2, 3, [[0], [1, 2]]),
        gamma=GAMMA,
        omega=OMEGA,
        epsilon=EPSILON,
    )


def test_criterion_01_collapse_trajectory(reference_model, reference_run):
    traj, elapsed = reference_run
    p1 = math.cos(ALPHA_S) ** 2
    p4 = math.sin(ALPHA_S) ** 2
    diag_err = max(abs(traj.diagonals[-1][0] - p1), abs(traj.diagonals[-1][3] - p4))
    tau = alignment_time(traj, reference_model.aligned_target(), tol=0.01)
    converged = diag_err < 1e-3
    in_window = 0.05 <= tau <= 0.2
    fast_enough = elapsed < 5.0
    ok = converged and in_window and fast_enough
    detail = (
        f"final diagonal error {diag_err:.2e} (need < 1e-3), "
        f"alignment time {tau:.4f}/omega at trace-distance tol 0.01 (need within [0.05, 0.2]), "
        f"runtime {elapsed:.2f} s (need < 5 s)"
    )
    _verdict(1, "aligned-diagonal convergence and alignment time", ok, detail)
    assert converged, detail
    assert fast_enough, detail
    assert in_window, detail


def test_criterion_02_entropy_overshoot():
    # pointer prepared at a definite reading; the asymptote pins the system
    # angle while the overshoot requires the pointer populations to start
    # more mixed across the aligned pair than the Born weights
    model = spin_half_scenario(ALPHA_S, 0.0, GAMMA, OMEGA, EPSILON)
    traj = simulate_model(model, IntegratorConfig(t_max=1.0), mode="full")
    p = model.probabilities()
    s_inf = -(p[0] * math.log(p[0]) + p[1] * math.log(p[1]))
    k = int(np.argmax(traj.entropy))
    starts_pure = traj.entropy[0] < 1e-6
    interior_peak = (
        0 < k < traj.times.size - 1
        and traj.entropy[k] > traj.entropy[0]
        and traj.entropy[k] > traj.entropy[-1]
    )
    settles = abs(traj.entropy[-1] - s_inf) < 2e-3
    ok = starts_pure and interior_peak and settles
    detail = (
        f"S(0) = {traj.entropy[0]:.1e} (need < 1e-6), "
        f"max S = {traj.entropy[k]:.4f} at t = {traj.times[k]:.2e} "
        f"(interior = {0 < k < traj.times.size - 1}), "
        f"S(end) = {traj.entropy[-1]:.6f} vs asymptote {s_inf:.6f} (need within 2e-3)"
    )
    _verdict(2, "entropy rises, overshoots, settles on the mixture value", ok, detail)
    assert ok, detail


def test_criterion_03_generator_spectrum(reference_model):
    p = reference_model.probabilities()
    p_all = reference_model.rate_table().flat_probabilities()
    scale = GAMMA * OMEGA
    spectrum = generator_spectrum(diag_generator_matrix(p_all, GAMMA, OMEGA), rate_scale=scale)
    evals = spectrum.eigenvalues
    near_zero = np.abs(evals) <= 1e-9 * scale
    negatives = sum(1 for k, ev in enumerate(evals) if not near_zero[k] and ev.real < 0)
    v = spectrum.stationary_distribution
    anti_ok = max(v[1], v[2]) < 10 * EPSILON**2
    aligned_ok = abs(v[0] - p[0]) < 10 * EPSILON**2 and abs(v[3] - p[1]) < 10 * EPSILON**2
    ok = near_zero.sum() == 1 and negatives == 3 and anti_ok and aligned_ok
    detail = (
        f"{int(near_zero.sum())} eigenvalue(s) with |L| < 1e-9*gamma*omega, "
        f"{negatives} with negative real part, "
        f"anti-aligned stationary components <= {max(v[1], v[2]):.1e} (need < {10 * EPSILON**2:.0e})"
    )
    _verdict(3, "one stationary mode, three decaying modes, Born weights", ok, detail)
    assert ok, detail


def test_criterion_04_stationarity_of_squared_rates():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        gamma = float(rng.uniform(0.5, 8.0))
        omega = float(rng.uniform(0.5, 2.0))
        shape = (int(rng.integers(2, 4)), int(rng.integers(2, 4)))
        floor = float(rng.uniform(1e-4, 1e-2))
        table = RateTable(rng.uniform(floor, 1.0, size=shape), floor)
        spec = lindblad_jump_family(table, gamma, omega)
        fixed = np.diag(table.flat_probabilities().astype(complex))
        residual = np.max(np.abs(apply_dissipator(spec, fixed))) / (gamma * omega)
        worst = max(worst, residual)
    ok = worst < 1e-10
    detail = f"worst residual {worst:.2e} * gamma*omega over 100 random rate tables (need < 1e-10)"
    _verdict(4, "squared rates are stationary for any rate table", ok, detail)
    assert ok, detail


def test_criterion_05_closed_form_equals_jump_family(reference_model):
    rng = np.random.default_rng(102)
    table = reference_model.rate_table()
    spec = lindblad_jump_family(table, GAMMA, OMEGA)
    tol = 1e-12 * GAMMA * OMEGA / EPSILON
    worst = 0.0
    for _ in range(100):
        rho = random_hermitian_unit_trace(rng, 4)
        generic = apply_dissipator(spec, rho)
        closed = apply_dissipator_closed_form(table, GAMMA, OMEGA, rho)
        worst = max(worst, float(np.max(np.abs(generic - closed))))
    ok = worst <= tol
    detail = f"max elementwise deviation {worst:.2e} on 100 random states (need <= {tol:.1e})"
    _verdict(5, "closed-form action equals the explicit operator sum", ok, detail)
    assert ok, detail


def test_criterion_06_offdiagonal_exponential_decay(reference_model):
    table = reference_model.rate_table()
    p_all = table.flat_probabilities()
    rho0 = reference_model.initial_dm()
    fast = simulate_model(reference_model, IntegratorConfig(t_max=0.3), mode="fast")
    full = integrate(rho0, None, p_all, GAMMA, OMEGA, IntegratorConfig(t_max=0.3))
    m = diag_generator_matrix(p_all, GAMMA, OMEGA)
    worst_fast = 0.0
    worst_full = 0.0
    for traj, bucket in ((fast, "fast"), (full, "full")):
        for r, s in zip(*np.triu_indices(traj.dim, k=1)):
            rate = -(m[r, r] + m[s, s]) / 2
            with np.errstate(under="ignore"):
                expected = rho0.entries[r, s].real * np.exp(-rate * traj.times)
            dev = max(
                float(np.max(np.abs(traj.states[:, r, s].real - expected))),
                float(np.max(np.abs(traj.states[:, r, s].imag))),
            )
            if bucket == "fast":
                worst_fast = max(worst_fast, dev)
            else:
                worst_full = max(worst_full, dev)
    ok = worst_fast < 1e-14 and worst_full < 1e-6
    detail = (
        f"reduced-mode deviation {worst_fast:.1e} (closed form by construction), "
        f"zero-Hamiltonian full-equation deviation {worst_full:.2e} (need < 1e-6)"
    )
    _verdict(6, "off-diagonals decay as the predicted exponentials", ok, detail)
    assert ok, detail


def test_criterion_07_inverse_coupling_scaling(reference_model):
    rows = gamma_sweep(reference_model, [2.5, 5.0, 10.0, 20.0],
                       IntegratorConfig(t_max=2.0), mode="full")
    products = [row.gamma_times_tau for row in rows]
    spread = (max(products) - min(products)) / min(products)
    ok = spread <= 0.10
    detail = (
        f"gamma*tau products {[f'{x:.4f}' for x in products]}, "
        f"relative spread {spread:.2e} (need <= 0.10)"
    )
    _verdict(7, "alignment time scales inversely with coupling strength", ok, detail)
    assert ok, detail


def test_criterion_08_speed_limit_bound(reference_model, reference_run):
    traj, _ = reference_run
    rho0 = reference_model.initial_dm()
    target = reference_model.aligned_target()
    spec = lindblad_jump_family(reference_model.rate_table(), GAMMA, OMEGA)
    initial_rhs = master_rhs(reference_model.hamiltonian, spec, rho0)
    tau = alignment_time(traj, target, tol=0.01)
    report = qsl_lower_bound(rho0, target, initial_rhs, measured_alignment_time=tau)
    below = report.bound < tau
    ratio_in_window = 5.0 <= report.ratio <= 50.0
    ok = below and ratio_in_window
    detail = (
        f"bound {report.bound:.3e}/omega vs measured {tau:.4f}/omega "
        f"(inequality {'holds' if below else 'violated'}), "
        f"ratio {report.ratio:.0f} (need within [5, 50])"
    )
    _verdict(8, "speed bound sits below the measured alignment time", ok, detail)
    assert below, detail
    assert ratio_in_window, detail


def test_criterion_09_conservation_suite(reference_model, reference_run, multi_reading_model):
    runs = [
        reference_run[0],
        simulate_model(reference_model, IntegratorConfig(t_max=1.0), mode="fast"),
        simulate_model(multi_reading_model, IntegratorConfig(t_max=2.0), mode="fast"),
        simulate_model(spin_half_scenario(ALPHA_S, 0.0, GAMMA, OMEGA, EPSILON),
                       IntegratorConfig(t_max=1.0), mode="full"),
    ]
    worst_trace = worst_herm = worst_neg = 0.0
    for traj in runs:
        for snap in traj.snapshots:
            m = snap.entries
            worst_trace = max(worst_trace, abs(complex(np.trace(m)) - 1.0))
            worst_herm = max(worst_herm, float(np.max(np.abs(m - m.conj().T))))
            worst_neg = max(worst_neg, max(0.0, -float(np.linalg.eigvalsh(m)[0])))
    ok = worst_trace <= 1e-9 and worst_herm <= 1e-10 and worst_neg <= 1e-8
    detail = (
        f"max |trace - 1| {worst_trace:.1e} (need <= 1e-9), "
        f"max Hermiticity defect {worst_herm:.1e} (need <= 1e-10), "
        f"worst negative eigenvalue {worst_neg:.1e} (need <= 1e-8)"
    )
    _verdict(9, "trace, Hermiticity, positivity preserved on every snapshot", ok, detail)
    assert ok, detail


def test_criterion_10_multiple_readings(multi_reading_model):
    p = multi_reading_model.probabilities()
    traj = simulate_model(multi_reading_model, IntegratorConfig(t_max=2.0), mode="fast")
    final = traj.diagonals[-1]
    share = p[1] / 2.0
    err = max(abs(final[4] - share), abs(final[5] - share))
    p_all = multi_reading_model.rate_table().flat_probabilities()
    spectrum = generator_spectrum(diag_generator_matrix(p_all, GAMMA, OMEGA),
                                  rate_scale=GAMMA * OMEGA)
    v = spectrum.stationary_distribution
    spectral_err = max(abs(v[4] - share), abs(v[5] - share))
    ok = err < 1e-3 and spectral_err < 1e-3
    detail = (
        f"readings of the split outcome carry {final[4]:.6f} and {final[5]:.6f} "
        f"vs p/2 = {share:.6f} (integrated error {err:.1e}, spectral error {spectral_err:.1e}, "
        f"need < 1e-3)"
    )
    _verdict(10, "outcome weight divides uniformly across its readings", ok, detail)
    assert ok, detail
