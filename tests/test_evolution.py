import math

import numpy as np
import pytest

from collapse_sim import (
    ConfigError,
    CorrespondenceMap,
    IntegrationError,
    IntegratorConfig,
    MeasurementModel,
    NotAlignedError,
    StateVector,
    ValidationError,
    alignment_time,
    apply_dissipator,
    fast_diag_rhs,
    fast_offdiag_rate,
    integrate,
    integrate_fast_limit,
    lindblad_jump_family,
    master_rhs,
    simulate_model,
    spin_half_scenario,
)
from collapse_sim import evolution
from collapse_sim.dissipator import DissipatorSpec
from collapse_sim.model import RateTable
from conftest import ALPHA_A, ALPHA_S, random_hermitian_unit_trace


@pytest.fixture(scope="module")
def mild_setup():
    table = RateTable(np.array([[0.6, 0.3], [0.3, 0.8]]), 0.3)
    spec = lindblad_jump_family(table, 1.0, 1.0)
    model = spin_half_scenario(0.3 * math.pi, 0.4 * math.pi, 1.0, 1.0)
    return table, spec, model


class TestMasterRhs:
    def test_no_hamiltonian_equals_dissipator(self, mild_setup):
        table, spec, model = mild_setup
        rho = model.initial_dm()
        assert np.array_equal(master_rhs(None, spec, rho), apply_dissipator(spec, rho))

    def test_eigenprojector_of_h_is_static_without_jumps(self):
        model = spin_half_scenario(ALPHA_S, ALPHA_A, 1.0, 1.0)
        empty = DissipatorSpec(dim=4, terms=())
        rho = model.initial_dm()
        out = master_rhs(model.hamiltonian, empty, rho)
        assert np.max(np.abs(out)) < 1e-12

    def test_hermitian_and_traceless(self, mild_setup):
        _, spec, model = mild_setup
        rng = np.random.default_rng(4)
        for _ in range(50):
            rho = random_hermitian_unit_trace(rng, 4)
            out = master_rhs(model.hamiltonian, spec, rho)
            assert abs(np.trace(out)) < 1e-12 * 4
            assert np.max(np.abs(out - out.conj().T)) < 1e-12

    def test_initial_diagonal_rates_match_elementwise_formula(self, two_level_model):
        # independent evaluation of the diagonal rate at t=0: inflow from the
        # other states weighted by rate ratios minus the state's total outflow
        spec = lindblad_jump_family(
            two_level_model.rate_table(), two_level_model.gamma, two_level_model.omega
        )
        rho0 = two_level_model.initial_dm().entries
        rhs = master_rhs(two_level_model.hamiltonian, spec, rho0)
        q = two_level_model.rate_table().flat
        scale = two_level_model.gamma * two_level_model.omega
        d = np.diagonal(rho0).real
        for a in range(4):
            inflow = sum(q[a] / q[s] * d[s] for s in range(4) if s != a)
            outflow = sum(q[r] / q[a] for r in range(4) if r != a) * d[a]
            assert rhs[a, a].real == pytest.approx(scale * (inflow - outflow), rel=1e-10)
        rms = math.sqrt(np.mean(np.diagonal(rhs).real ** 2))
        assert rms == pytest.approx(10262.18, abs=0.01)

    def test_dim_mismatch(self, mild_setup):
        _, spec, _ = mild_setup
        with pytest.raises(ValidationError):
            master_rhs(np.eye(3), spec, np.eye(4) / 4.0)


class TestIntegrate:
    def test_converges_to_aligned_state(self):
        model = spin_half_scenario(ALPHA_S, ALPHA_A, 1.0, 1.0)
        traj = integrate(model.initial_dm(), model.hamiltonian,
                         model.rate_table().flat_probabilities(), 1.0, 1.0,
                         IntegratorConfig(t_max=10.0), target=model.aligned_target())
        assert np.max(np.abs(traj.final().entries - model.aligned_target().entries)) < 1e-3

    def test_auto_step_uses_weight_plus_hamiltonian_norm(self, two_level_model):
        spec = lindblad_jump_family(
            two_level_model.rate_table(), two_level_model.gamma, two_level_model.omega
        )
        traj = simulate_model(two_level_model, IntegratorConfig(t_max=0.01), mode="full")
        h_norm = float(np.abs(np.linalg.eigvalsh(two_level_model.hamiltonian)).max())
        dt_expected = 0.05 / (spec.max_weight + h_norm)
        n_expected = math.ceil(0.01 / dt_expected)
        assert traj.n_steps == n_expected
        assert traj.dt == pytest.approx(0.01 / n_expected)

    def test_records_cover_zero_and_t_max(self, two_level_trajectory):
        assert two_level_trajectory.times[0] == 0.0
        assert two_level_trajectory.times[-1] == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(two_level_trajectory.times) > 0)

    def test_fixed_stride_recording(self, mild_setup):
        table, _, model = mild_setup
        cfg = IntegratorConfig(t_max=0.1, dt=0.01, record_every=2)
        traj = integrate(model.initial_dm(), model.hamiltonian, table.flat_probabilities(),
                         1.0, 1.0, cfg)
        assert traj.n_steps == 10
        assert np.allclose(traj.times, [0.0, 0.02, 0.04, 0.06, 0.08, 0.1])

    def test_step_halving_shows_fourth_order(self, mild_setup):
        table, _, model = mild_setup
        p_all = table.flat_probabilities()
        rho0 = model.initial_dm()
        ref = integrate(rho0, model.hamiltonian, p_all, 1.0, 1.0,
                        IntegratorConfig(t_max=1.0, dt=1.0 / 4096, record_every=10**9))
        dts = [0.25, 0.125, 0.0625, 0.03125]
        errs = []
        for dt in dts:
            traj = integrate(rho0, model.hamiltonian, p_all, 1.0, 1.0,
                             IntegratorConfig(t_max=1.0, dt=dt, record_every=10**9))
            errs.append(np.max(np.abs(traj.diagonals[-1] - ref.diagonals[-1])))
        slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
        assert slope >= 3.5

    def test_aligned_diagonals_near_born_weights_by_tenth_period(self, two_level_model,
                                                                 two_level_trajectory):
        # the populations settle well before the aligned-pair coherence does
        p = two_level_model.probabilities()
        err = np.maximum(
            np.abs(two_level_trajectory.diagonals[:, 0] - p[0]),
            np.abs(two_level_trajectory.diagonals[:, 3] - p[1]),
        )
        above = np.nonzero(err > 0.01)[0]
        settled = two_level_trajectory.times[int(above[-1]) + 1]
        assert 0.05 <= settled <= 0.2

    def test_conservation_along_reference_run(self, two_level_trajectory):
        for snap in two_level_trajectory.snapshots:
            m = snap.entries
            assert abs(np.trace(m) - 1.0) <= 1e-9
            assert np.max(np.abs(m - m.conj().T)) <= 1e-10
            assert np.linalg.eigvalsh(m)[0] >= -1e-8

    def test_zero_hamiltonian_offdiagonals_decay_exponentially(self, two_level_model):
        p_all = two_level_model.rate_table().flat_probabilities()
        rho0 = two_level_model.initial_dm()
        traj = integrate(rho0, None, p_all, two_level_model.gamma, two_level_model.omega,
                         IntegratorConfig(t_max=0.3))
        for k, (r, s) in enumerate(traj.offdiag_pairs):
            rate = fast_offdiag_rate(r, s, p_all,
                                     two_level_model.gamma, two_level_model.omega)
            with np.errstate(under="ignore"):
                expected = rho0.entries[r, s].real * np.exp(-rate * traj.times)
            assert np.max(np.abs(traj.offdiag_re[:, k] - expected)) < 1e-6
            assert np.max(np.abs(traj.offdiag_im[:, k])) < 1e-12

    def test_hamiltonian_modulation_creates_imaginary_parts(self, two_level_trajectory):
        interior = slice(1, -1)
        assert np.max(np.abs(two_level_trajectory.offdiag_im[interior])) > 1e-6

    def test_unstable_step_raises(self, two_level_model):
        p_all = two_level_model.rate_table().flat_probabilities()
        cfg = IntegratorConfig(t_max=0.1, dt=0.01)
        with pytest.raises(IntegrationError):
            integrate(two_level_model.initial_dm(), two_level_model.hamiltonian, p_all,
                      two_level_model.gamma, two_level_model.omega, cfg)


class TestGeneratorOracle:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_assembled_generator_equals_probed_jump_family(self, d, monkeypatch):
        # the dense jump list is off the run path; this ties the Liouvillian
        # integrate steps with back to master_rhs on the explicit family
        rng = np.random.default_rng(40 + d)
        n = d * d
        table = RateTable(rng.uniform(0.05, 1.0, size=(d, d)), 0.05)
        h = random_hermitian_unit_trace(rng, n)
        spec = lindblad_jump_family(table, 5.0, 1.0)
        probed = np.empty((n * n, n * n), dtype=complex)
        for k in range(n * n):
            unit = np.zeros((n, n), dtype=complex)
            unit.flat[k] = 1.0
            probed[:, k] = master_rhs(h, spec, unit).reshape(-1)
        captured = []
        rk4 = evolution._rk4_step_matrix
        monkeypatch.setattr(evolution, "_rk4_step_matrix",
                            lambda g, dt: captured.append(g) or rk4(g, dt))
        integrate(np.eye(n) / n, h, table.flat_probabilities(), 5.0, 1.0,
                  IntegratorConfig(t_max=1e-3))
        (generator,) = captured
        assert np.max(np.abs(generator - probed)) <= 1e-12 * np.max(np.abs(probed))


class TestFastRates:
    def test_symmetric_pair_limit(self):
        eps = 1e-9
        p_all = [0.5, eps**2, eps**2, 0.5]
        rate = fast_offdiag_rate(0, 3, p_all, 1.0, 1.0)
        assert rate == pytest.approx(1.0, abs=1e-6)

    def test_positive_and_symmetric(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            p_all = rng.uniform(1e-6, 1.0, size=4)
            r, s = rng.integers(0, 4, size=2)
            a = fast_offdiag_rate(r, s, p_all, 2.0, 0.5)
            b = fast_offdiag_rate(s, r, p_all, 2.0, 0.5)
            assert a > 0.0
            assert a == pytest.approx(b, rel=1e-14)

    def test_diag_rhs_vanishes_at_stationary_point(self):
        rng = np.random.default_rng(14)
        p_all = rng.uniform(0.01, 1.0, size=6)
        out = fast_diag_rhs(p_all, p_all, 3.0, 1.0)
        assert np.max(np.abs(out)) < 1e-12

    def test_diag_rhs_is_trace_free(self):
        rng = np.random.default_rng(15)
        for _ in range(100):
            p_all = rng.uniform(0.01, 1.0, size=5)
            diag = rng.uniform(0.0, 1.0, size=5)
            diag /= diag.sum()
            assert abs(fast_diag_rhs(p_all, diag, 1.7, 0.9).sum()) < 1e-12

    def test_diag_rhs_matches_two_sum_formula(self):
        # hand evaluation of the inflow/outflow sums for a frozen fixture
        eps_sq = 1e-8
        p_all = np.array([0.5, eps_sq, eps_sq, 0.5])
        diag = np.array([1.0, 0.0, 0.0, 0.0])
        q = np.sqrt(p_all)
        expected = np.array(
            [
                q[r] * sum(diag[m] / q[m] for m in range(4))
                - diag[r] / q[r] * sum(q[m] for m in range(4))
                for r in range(4)
            ]
        )
        out = fast_diag_rhs(p_all, diag, 1.0, 1.0)
        assert out == pytest.approx(expected, rel=1e-12)
        assert abs(out.sum()) < 1e-12


class TestIntegrateFastLimit:
    def test_offdiagonals_follow_closed_form_exactly(self, two_level_model):
        table = two_level_model.rate_table()
        p_all = table.flat_probabilities()
        rho0 = two_level_model.initial_dm()
        traj = integrate_fast_limit(rho0, p_all, two_level_model.gamma,
                                    two_level_model.omega, IntegratorConfig(t_max=0.5))
        for k, (r, s) in enumerate(traj.offdiag_pairs):
            rate = fast_offdiag_rate(r, s, p_all,
                                     two_level_model.gamma, two_level_model.omega)
            with np.errstate(under="ignore"):
                expected = rho0.entries[r, s].real * np.exp(-rate * traj.times)
            assert np.max(np.abs(traj.offdiag_re[:, k] - expected)) < 1e-15
            assert np.max(np.abs(traj.offdiag_im[:, k])) == 0.0

    def test_offdiagonal_magnitudes_decay_monotonically(self, two_level_model):
        traj = simulate_model(two_level_model, IntegratorConfig(t_max=0.5), mode="fast")
        mags = np.hypot(traj.offdiag_re, traj.offdiag_im)
        assert np.all(np.diff(mags, axis=0) <= 1e-15)

    def test_diagonals_converge_to_flat_probabilities(self, two_level_model):
        p_all = two_level_model.rate_table().flat_probabilities()
        traj = simulate_model(two_level_model, IntegratorConfig(t_max=2.0), mode="fast")
        assert np.max(np.abs(traj.diagonals[-1] - p_all)) < 1e-3

    def test_full_and_fast_agree_and_improve_with_coupling(self):
        diffs = []
        for gamma in (5.0, 50.0):
            model = spin_half_scenario(ALPHA_S, ALPHA_A, gamma, 1.0)
            cfg = IntegratorConfig(t_max=5.0 / gamma)
            full = simulate_model(model, cfg, mode="full")
            fast = simulate_model(model, cfg, mode="fast")
            diffs.append(np.max(np.abs(full.diagonals[-1] - fast.diagonals[-1])))
        assert diffs[1] < 1e-2
        assert diffs[1] < diffs[0]

    def test_rejects_unfloored_probabilities(self, two_level_model):
        with pytest.raises(ValidationError, match="positive"):
            integrate_fast_limit(two_level_model.initial_dm(), [0.5, 0.0, 0.0, 0.5],
                                 1.0, 1.0, IntegratorConfig(t_max=0.1))


class TestEntropySeries:
    def test_pointer_at_rest_shows_interior_peak(self):
        # pointer starting at a definite reading: mixing overshoots the
        # asymptote before the populations settle onto the Born weights
        model = spin_half_scenario(ALPHA_S, 0.0, 5.0, 1.0)
        traj = simulate_model(model, IntegratorConfig(t_max=1.0), mode="full")
        p = model.probabilities()
        s_inf = -(p[0] * math.log(p[0]) + p[1] * math.log(p[1]))
        k = int(np.argmax(traj.entropy))
        assert traj.entropy[0] < 1e-6
        assert 0 < k < traj.times.size - 1
        assert traj.entropy[k] > traj.entropy[0]
        assert traj.entropy[k] > traj.entropy[-1]
        assert abs(traj.entropy[-1] - s_inf) < 2e-3

    def test_superposed_pointer_rises_monotonically(self, two_level_trajectory):
        # regression: with both preparations in tilted-field eigenstates the
        # entropy ends at its global maximum (small transient bump only)
        entropy = two_level_trajectory.entropy
        assert int(np.argmax(entropy)) == entropy.size - 1
        assert entropy[-1] == pytest.approx(0.4358805, abs=2e-3)


class TestAlignmentTime:
    def test_already_aligned(self, two_level_model):
        target = two_level_model.aligned_target()
        traj = integrate_fast_limit(target, two_level_model.rate_table().flat_probabilities(),
                                    5.0, 1.0, IntegratorConfig(t_max=0.05), target=target)
        assert alignment_time(traj, target) == 0.0

    def test_reference_value_regression(self, two_level_trajectory, two_level_model):
        tau = alignment_time(two_level_trajectory, two_level_model.aligned_target(), tol=0.01)
        assert 0.35 < tau < 0.45

    def test_halving_with_doubled_coupling(self, two_level_trajectory, two_level_model):
        tau5 = alignment_time(two_level_trajectory, two_level_model.aligned_target(), tol=0.01)
        model10 = spin_half_scenario(ALPHA_S, ALPHA_A, 10.0, 1.0)
        traj10 = simulate_model(model10, IntegratorConfig(t_max=0.5), mode="full")
        tau10 = alignment_time(traj10, model10.aligned_target(), tol=0.01)
        assert tau10 == pytest.approx(tau5 / 2.0, rel=0.1)

    def test_not_aligned_error_carries_distance(self, two_level_model):
        traj = simulate_model(two_level_model, IntegratorConfig(t_max=1e-3), mode="full")
        with pytest.raises(NotAlignedError) as err:
            alignment_time(traj, two_level_model.aligned_target(), tol=0.01)
        assert err.value.final_distance > 0.01


class TestSimulateModel:
    def test_full_mode_requires_hamiltonian(self):
        model = MeasurementModel(
            sys=StateVector([math.cos(ALPHA_S), math.sin(ALPHA_S)]),
            app=StateVector([1, 0]),
            correspondence=CorrespondenceMap.one_to_one(2),
            gamma=1.0,
            omega=1.0,
            epsilon=1e-4,
        )
        with pytest.raises(ConfigError, match="Hamiltonian"):
            simulate_model(model, IntegratorConfig(t_max=0.1), mode="full")

    def test_unknown_mode(self, two_level_model):
        with pytest.raises(ConfigError, match="mode"):
            simulate_model(two_level_model, IntegratorConfig(t_max=0.1), mode="exact")

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            IntegratorConfig(t_max=-1.0)
        for kwargs in ({"t_max": math.nan}, {"t_max": math.inf}, {"t_max": 1.0, "dt": math.inf},
                       {"t_max": 1.0, "safety": math.nan}):
            with pytest.raises(ValidationError):
                IntegratorConfig(**kwargs)
        with pytest.raises(ValidationError):
            IntegratorConfig(t_max=1.0, safety=0.9)
        with pytest.raises(ValidationError):
            IntegratorConfig(t_max=1.0, record_spacing="cubic")
