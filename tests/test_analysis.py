import json
import math

import numpy as np
import pytest

from collapse_sim import (
    DensityMatrix,
    IntegratorConfig,
    MeasurementModel,
    NotAlignedError,
    ValidationError,
    alignment_time,
    diag_generator_matrix,
    gamma_sweep,
    generator_spectrum,
    qsl_lower_bound,
    simulate_model,
    spin_half_scenario,
)
from collapse_sim.config import load_run_config
from collapse_sim.csvio import read_csv_columns
from collapse_sim.dissipator import _balanced_modes, _rate_bounds, apply_dissipator, lindblad_jump_family
from collapse_sim.dissipator import master_rhs
from collapse_sim.model import RateTable
from conftest import ALPHA_A, ALPHA_S, balanced_draws


class TestDiagGeneratorMatrix:
    def test_single_state_cannot_evolve(self):
        assert np.allclose(diag_generator_matrix([1.0], 2.0, 3.0), [[0.0]], atol=1e-15)

    def test_column_sums_vanish(self):
        rng = np.random.default_rng(8)
        p_all = rng.uniform(0.05, 1.0, size=5)
        m = diag_generator_matrix(p_all, 1.0, 1.0)
        assert np.max(np.abs(m.sum(axis=0))) < 1e-12

    def test_column_sums_vanish_on_stiff_table(self, two_level_model):
        p_all = two_level_model.rate_table().flat_probabilities()
        m = diag_generator_matrix(p_all, two_level_model.gamma, two_level_model.omega)
        scale = np.abs(m).max()
        assert np.max(np.abs(m.sum(axis=0))) < 1e-12 * scale

    def test_stationary_on_flat_probabilities(self, two_level_model):
        p_all = two_level_model.rate_table().flat_probabilities()
        m = diag_generator_matrix(p_all, two_level_model.gamma, two_level_model.omega)
        assert np.max(np.abs(m @ p_all)) < 1e-12

    def test_matches_rate_function(self):
        # M @ d is the diagonal of the dense jump family's action on diag(d)
        rng = np.random.default_rng(19)
        p_all = rng.uniform(0.02, 1.0, size=6)
        m = diag_generator_matrix(p_all, 1.4, 0.8)
        q = np.sqrt(p_all)
        spec = lindblad_jump_family(RateTable(q.reshape(2, 3), floor=q.min()), 1.4, 0.8)
        for _ in range(20):
            d = rng.uniform(0.0, 1.0, size=6)
            rates = np.diagonal(apply_dissipator(spec, np.diag(d))).real
            assert m @ d == pytest.approx(rates, rel=1e-12, abs=1e-12)

    def test_rejects_zero_probability(self):
        with pytest.raises(ValidationError):
            diag_generator_matrix([0.5, 0.0], 1.0, 1.0)



class TestSpectrumReadsBalancedModes:
    # what the spectrum command writes, the eigenvalues of _balanced_modes and
    # p / sum(p), against the general eig route of generator_spectrum
    def test_agrees_with_generator_spectrum(self):
        for p, gamma, omega in balanced_draws():
            lam, _ = _balanced_modes(_rate_bounds(p, gamma, omega))
            general = generator_spectrum(diag_generator_matrix(p, gamma, omega), rate_scale=gamma * omega)
            expected = np.sort(general.eigenvalues.real)
            scale = max(np.abs(expected).max(), gamma * omega)
            assert lam[-1] == 0.0
            assert np.abs(lam - expected).max() <= 1e-12 * scale
            assert np.abs(p / p.sum() - general.stationary_distribution).max() <= 1e-12

    def test_columns_are_generator_eigenvectors(self, two_level_model):
        # q * V holds the eigenvectors of M, the kernel's along p
        p_all = two_level_model.rate_table().flat_probabilities()
        for p, gamma, omega in [(p_all, 5.0, 1.0), *balanced_draws(40)]:
            gen = diag_generator_matrix(p, gamma, omega)
            rates = _rate_bounds(p, gamma, omega)
            q, (lam, v) = rates[0], _balanced_modes(rates)
            vecs = q[:, None] * v
            vecs /= np.linalg.norm(vecs, axis=0)
            residual = gen @ vecs - vecs * lam
            assert np.abs(residual).max() <= 1e-11 * max(np.abs(gen).max(), 1.0)
            assert np.abs(vecs[:, -1] / vecs[:, -1].sum() - p / p.sum()).max() <= 1e-12

    def test_written_columns_are_the_modes(self, tmp_path, monkeypatch):
        # spectrum.csv holds lam and p / sum(p) bit for bit, at n = 1 too
        from collapse_sim import cli, csvio

        written = []

        def recording(path, *columns):
            written.append(columns)
            csvio.write_spectrum_csv(path, *columns)

        monkeypatch.setattr(cli, "write_spectrum_csv", recording)
        for side in (1, 2, 5):
            amplitudes = [side**-0.5] * side
            path = str(tmp_path / f"uniform{side}.json")
            with open(path, "w") as fh:
                json.dump({"scenario": {"sys_amplitudes": amplitudes, "app_amplitudes": amplitudes,
                                        "gamma": 2.0, "omega": 1.5},
                           "integrator": {"t_max": 1.0}, "outputs": {"dir": str(tmp_path)}}, fh)
            assert cli.main(["spectrum", "--config", path]) == 0
            p = load_run_config(path).model.rate_table().flat_probabilities()
            eigenvalues, stationary = written.pop()
            assert np.array_equal(eigenvalues, _balanced_modes(_rate_bounds(p, 2.0, 1.5))[0])
            assert np.array_equal(stationary, p / p.sum())
            cols = read_csv_columns(str(tmp_path / "spectrum.csv"))
            assert np.array_equal(cols["eigenvalue_re"], eigenvalues)
            assert not cols["eigenvalue_im"].any()
            assert np.array_equal(cols["stationary_component"], stationary)


class TestGeneratorSpectrum:
    def test_reference_scenario_spectrum(self, two_level_model):
        scale = two_level_model.gamma * two_level_model.omega
        p_all = two_level_model.rate_table().flat_probabilities()
        spectrum = generator_spectrum(diag_generator_matrix(p_all, 5.0, 1.0), rate_scale=scale)
        evals = spectrum.eigenvalues
        near_zero = np.abs(evals) <= 1e-9 * scale
        assert near_zero.sum() == 1
        assert all(ev.real < 0 for k, ev in enumerate(evals) if not near_zero[k])

    def test_stationary_vector_matches_born_weights(self, two_level_model):
        p = two_level_model.probabilities()
        eps = two_level_model.epsilon
        p_all = two_level_model.rate_table().flat_probabilities()
        spectrum = generator_spectrum(diag_generator_matrix(p_all, 5.0, 1.0), rate_scale=5.0)
        v = spectrum.stationary_distribution
        assert abs(v.sum() - 1.0) < 1e-12
        assert abs(v[0] - p[0]) < 10 * eps**2
        assert abs(v[3] - p[1]) < 10 * eps**2
        assert v[1] < 10 * eps**2
        assert v[2] < 10 * eps**2

    def test_uniform_probabilities_give_flat_stationary_vector(self):
        m = diag_generator_matrix(np.full(5, 0.2), 2.0, 1.0)
        spectrum = generator_spectrum(m, rate_scale=2.0)
        assert spectrum.stationary_distribution == pytest.approx(np.full(5, 0.2), abs=1e-12)

    def test_stationary_vector_is_rate_equation_fixed_point(self, two_level_model):
        p_all = two_level_model.rate_table().flat_probabilities()
        spectrum = generator_spectrum(diag_generator_matrix(p_all, 5.0, 1.0), rate_scale=5.0)
        expected = p_all / p_all.sum()
        assert np.max(np.abs(spectrum.stationary_distribution - expected)) < 1e-9

    def test_degenerate_zero_modes_warn(self):
        with pytest.warns(RuntimeWarning, match="degenerate"):
            generator_spectrum(np.zeros((2, 2)), rate_scale=1.0)

    def test_zero_sum_stationary_mode_is_an_error(self):
        # the kernel of [[1, 1], [1, 1]] is (1, -1), which cannot be normalised to sum 1
        with pytest.raises(ValidationError, match="zero sum"):
            generator_spectrum(np.ones((2, 2)), 1.0)

    def test_spectral_expansion_reproduces_fast_diagonals(self, two_level_model):
        p_all = two_level_model.rate_table().flat_probabilities()
        traj = simulate_model(two_level_model, IntegratorConfig(t_max=1.0), mode="fast")
        m = diag_generator_matrix(p_all, two_level_model.gamma, two_level_model.omega)
        evals, evecs = np.linalg.eig(m)
        coeff = np.linalg.solve(evecs, traj.diagonals[0])
        with np.errstate(under="ignore"):
            modes = coeff[:, None] * np.exp(np.outer(evals, traj.times))
        reconstructed = (evecs @ modes).T.real
        assert np.max(np.abs(reconstructed - traj.diagonals)) < 1e-10


class TestQslLowerBound:
    def test_zero_distance_gives_zero_bound(self, two_level_model):
        rho0 = two_level_model.initial_dm()
        rhs = np.diag(np.array([1.0, -1.0, 0.5, -0.5], dtype=complex))
        report = qsl_lower_bound(rho0, rho0, rhs)
        assert report.bound == 0.0
        assert report.ratio is None
        # a state that starts aligned: tau is 0 and the bound is 0, so there is no ratio
        report = qsl_lower_bound(rho0, rho0, rhs, measured_alignment_time=0.0)
        assert report.bound == 0.0 and report.measured_alignment_time == 0.0
        assert report.ratio is None

    def test_static_initial_condition_is_an_error(self, two_level_model):
        rho0 = two_level_model.initial_dm()
        target = two_level_model.aligned_target()
        with pytest.raises(ValidationError, match="static"):
            qsl_lower_bound(rho0, target, np.zeros((4, 4)))

    def test_bound_below_measured_alignment_time(self, two_level_model, two_level_trajectory):
        rho0 = two_level_model.initial_dm()
        target = two_level_model.aligned_target()
        spec = lindblad_jump_family(two_level_model.rate_table(), 5.0, 1.0)
        rhs = master_rhs(two_level_model.hamiltonian, spec, rho0)
        tau = alignment_time(two_level_trajectory, target, tol=0.01)
        report = qsl_lower_bound(rho0, target, rhs, measured_alignment_time=tau)
        assert report.numerator == pytest.approx(0.60379105, abs=1e-8)
        assert report.denominator == pytest.approx(10262.183, abs=1e-2)
        assert report.bound < tau
        assert report.ratio == pytest.approx(tau / report.bound)

    def test_denominator_reads_only_the_diagonal_rates(self, two_level_model):
        rho0 = two_level_model.initial_dm()
        target = two_level_model.aligned_target()
        spec = lindblad_jump_family(two_level_model.rate_table(), 5.0, 1.0)
        rhs = master_rhs(two_level_model.hamiltonian, spec, rho0)
        report = qsl_lower_bound(rho0, target, rhs)
        assert report.denominator == float(np.sqrt(np.mean(np.diagonal(rhs).real ** 2)))
        diagonal_only = qsl_lower_bound(rho0, target, np.diag(np.diagonal(rhs)))
        assert diagonal_only.denominator == report.denominator

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_rhs(self, two_level_model, bad):
        rho0 = two_level_model.initial_dm()
        target = two_level_model.aligned_target()
        rhs = np.full((4, 4), bad, dtype=complex)
        with pytest.raises(ValidationError, match="non-finite"):
            qsl_lower_bound(rho0, target, rhs)

    def test_rejects_rhs_of_another_shape(self):
        with pytest.raises(ValidationError, match=r"^initial_rhs shape \(3, 3\) does not match rho0 shape \(2, 2\)$"):
            qsl_lower_bound(np.eye(2) / 2, np.eye(2) / 2, np.zeros((3, 3)))

    @pytest.mark.parametrize("rho0, rho_inf, message", [
        ([[0.5, 0.5], [0, 0.5]], np.eye(2) / 2, "rho0 is not Hermitian: max asymmetry 5.000e-01"),
        (np.eye(2) / 2, [[0.5, 0.5], [0, 0.5]], "rho_inf is not Hermitian: max asymmetry 5.000e-01"),
        ([[math.nan, 0], [0, 0.5]], np.eye(2) / 2, "rho0 has non-finite entries"),
        (np.eye(2) / 2, np.eye(3) / 3, "rho_inf shape (3, 3) does not match rho0 shape (2, 2)"),
    ], ids=["rho0-not-Hermitian", "rho_inf-not-Hermitian", "rho0-non-finite", "shape-mismatch"])
    def test_refusals_name_the_state(self, rho0, rho_inf, message):
        with pytest.raises(ValidationError) as err:
            qsl_lower_bound(rho0, rho_inf, np.ones((2, 2)))
        assert str(err.value) == message


class TestGammaSweep:
    def test_single_row_matches_standalone_run(self, two_level_model, two_level_trajectory):
        tau = alignment_time(two_level_trajectory, two_level_model.aligned_target(), tol=0.01)
        rows = gamma_sweep(two_level_model, [5.0], IntegratorConfig(t_max=1.0), mode="full")
        assert rows[0].alignment_time == tau
        assert rows[0].gamma_times_tau == 5.0 * tau

    @pytest.mark.parametrize("mode", ["full", "fast"])
    def test_rows_run_on_the_one_model(self, mode, monkeypatch):
        model = spin_half_scenario(ALPHA_S, ALPHA_A, 5.0, 1.0)
        built = []
        for cls in (MeasurementModel, RateTable, DensityMatrix):
            def counted(self, *args, _init=cls.__post_init__, _name=cls.__name__):
                built.append(_name)
                _init(self, *args)
            monkeypatch.setattr(cls, "__post_init__", counted)
        proven = DensityMatrix._proven.__func__

        def counted_proven(cls, entries):
            built.append(cls.__name__)
            return proven(cls, entries)

        monkeypatch.setattr(DensityMatrix, "_proven", classmethod(counted_proven))
        rows = gamma_sweep(model, [2.5, 5.0, 10.0, 20.0], IntegratorConfig(t_max=1.0), mode=mode)
        assert len(rows) == 4
        # no model and no rate table; the initial state and the target once each, by
        # either construction path
        assert sorted(built) == ["DensityMatrix", "DensityMatrix"]

    def test_products_stay_constant(self, two_level_model):
        rows = gamma_sweep(two_level_model, [2.5, 5.0, 10.0, 20.0],
                           IntegratorConfig(t_max=2.0), mode="full")
        products = [r.gamma_times_tau for r in rows]
        spread = (max(products) - min(products)) / min(products)
        assert spread <= 0.10

    def test_two_point_inverse_law(self, two_level_model):
        rows = gamma_sweep(two_level_model, [5.0, 10.0], IntegratorConfig(t_max=1.5), mode="fast")
        assert rows[1].alignment_time == pytest.approx(rows[0].alignment_time / 2.0, rel=0.1)

    def test_rejects_empty_or_nonpositive(self, two_level_model):
        cfg = IntegratorConfig(t_max=1.0)
        with pytest.raises(ValidationError):
            gamma_sweep(two_level_model, [], cfg)
        with pytest.raises(ValidationError):
            gamma_sweep(two_level_model, [1.0, -2.0], cfg)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValidationError, match="sweep gammas must be positive and finite"):
                gamma_sweep(two_level_model, [5.0, bad], cfg)

    def test_not_aligned_propagates(self, two_level_model):
        with pytest.raises(NotAlignedError):
            gamma_sweep(two_level_model, [5.0], IntegratorConfig(t_max=1e-3), mode="fast")
