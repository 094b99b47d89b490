import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest

from collapse_sim import (
    ConfigError,
    DensityMatrix,
    CorrespondenceMap,
    IntegrationError,
    IntegratorConfig,
    MeasurementModel,
    NotAlignedError,
    StateVector,
    Trajectory,
    ValidationError,
    alignment_time,
    diag_generator_matrix,
    dm_eigenvalues,
    integrate,
    integrate_fast_limit,
    simulate_model,
    spin_half_scenario,
    trace_distance,
    von_neumann_entropy,
)
from collapse_sim import dissipator, evolution
from collapse_sim.dissipator import DissipatorSpec, apply_dissipator, lindblad_jump_family, master_rhs
from collapse_sim.model import RateTable
from collapse_sim.states import _trace_distances
from conftest import (
    ALPHA_A,
    ALPHA_S,
    balanced_draws,
    closed_form_generator,
    exact_states,
    random_amplitude_model,
    random_density_matrix,
    random_hamiltonian,
    random_hermitian_unit_trace,
    random_state,
    random_unitary,
)


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
        assert np.max(np.abs(traj.states[-1] - model.aligned_target().entries)) < 1e-3

    def test_auto_step_uses_weight_plus_hamiltonian_norm(self, two_level_model):
        spec = lindblad_jump_family(
            two_level_model.rate_table(), two_level_model.gamma, two_level_model.omega
        )
        traj = simulate_model(two_level_model, IntegratorConfig(t_max=0.01), mode="full")
        h_norm = float(np.abs(np.linalg.eigvalsh(two_level_model.hamiltonian)).max())
        dt_expected = 0.05 / (max(w for w, _ in spec.terms) + h_norm)
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
        m = diag_generator_matrix(p_all, two_level_model.gamma, two_level_model.omega)
        for r, s in zip(*np.triu_indices(traj.dim, k=1)):
            rate = -(m[r, r] + m[s, s]) / 2
            with np.errstate(under="ignore"):
                expected = rho0.entries[r, s].real * np.exp(-rate * traj.times)
            assert np.max(np.abs(traj.states[:, r, s].real - expected)) < 1e-6
            assert np.max(np.abs(traj.states[:, r, s].imag)) < 1e-12

    def test_hamiltonian_modulation_creates_imaginary_parts(self, two_level_trajectory):
        interior = slice(1, -1)
        upper = np.triu_indices(two_level_trajectory.dim, k=1)
        coherences = two_level_trajectory.states[interior][:, upper[0], upper[1]]
        assert np.max(np.abs(coherences.imag)) > 1e-6

    def test_unstable_step_raises(self, two_level_model):
        p_all = two_level_model.rate_table().flat_probabilities()
        cfg = IntegratorConfig(t_max=0.1, dt=0.01)
        with pytest.raises(IntegrationError):
            integrate(two_level_model.initial_dm(), two_level_model.hamiltonian, p_all,
                      two_level_model.gamma, two_level_model.omega, cfg)

    def test_unstable_step_at_sixteen_skips_non_finite_powers(self, monkeypatch):
        # n = 16 at dt = 1e-3, far past RK4's stability limit: the powers overflow from level 6
        # on; with the predicted level moved to 5, the one test runs its QR on a finite power and
        # fails, moved to 6 it skips its power before any QR, and either way one IntegrationError
        # names the divergence, with no floating-point warning on the way
        qr, collapsed, slow_block = np.linalg.qr, evolution._collapsed, evolution._slow_block
        cfg = IntegratorConfig(t_max=100.0, dt=1e-3, record_every=10000)
        for level, finite in ((5, True), (6, False)):
            qr_finite, attempts = [], []

            def checked_qr(a, *args, **kwargs):
                qr_finite.append(np.isfinite(a).all())
                return qr(a, *args, **kwargs)

            def attempt(power, coords):
                attempts.append((np.isfinite(power).all(), collapsed(power, coords)))
                return attempts[-1][1]

            monkeypatch.setattr(np.linalg, "qr", checked_qr)
            monkeypatch.setattr(evolution, "_collapsed", attempt)
            monkeypatch.setattr(evolution, "_slow_block",
                                lambda *args, level=level: (slow_block(*args)[0], level))
            with pytest.raises(IntegrationError, match="^non-finite state at t = 10: integration"):
                simulate_model(_floor_model(16, 4), cfg, mode="full")
            assert attempts == [(finite, None)]
            assert qr_finite == ([True] if finite else [])


def _floor_model(seed, d):
    """A seeded random d x d amplitude scenario, one-to-one, gamma = 5, omega = 1, floor 1e-4,
    with a random Hermitian H of spectral norm omega: built like the full_dense benchmark's."""
    rng = np.random.default_rng(seed)
    h = random_hamiltonian(rng, d * d, 1.0)
    return MeasurementModel(
        sys=StateVector(random_state(rng, d)),
        app=StateVector(random_state(rng, d)),
        correspondence=CorrespondenceMap.one_to_one(d),
        gamma=5.0,
        omega=1.0,
        epsilon=1e-4,
        hamiltonian=h,
    )


class TestFullModeAtTwentyFive:
    def test_snapshots_match_eigendecomposition_reference(self):
        # n = 25: a seeded random 5 x 5 floor scenario against exp(G t) rho0
        n = 25
        model = _floor_model(25, 5)
        traj = simulate_model(model, IntegratorConfig(t_max=1.0), mode="full")
        assert traj.states.shape == (traj.times.size, n, n)
        assert np.abs(exact_states(model, traj.times) - traj.states).max() <= 1e-5


def _taylor_step(generator, dt):
    # the RK4 step map of y' = G y, exp(dt G) to fourth order, in nested form
    eye = np.eye(generator.shape[0])
    a = dt * generator
    return eye + a @ (eye + (a / 2.0) @ (eye + (a / 3.0) @ (eye + a / 4.0)))


def _unit_generator(diag_gen, h):
    # G^T in the coordinates of dissipator._pack: row k is the closed-form
    # right-hand side on unit coordinate k
    n = diag_gen.shape[0]
    units = np.eye(n * n).reshape(n * n, n, n)
    return dissipator._closed_form_rhs(diag_gen, h, units).reshape(n * n, n * n)


def _step_map_inputs(run):
    # the (diag_gen, h, dt) that run(), one full-mode run, passes to _step_map
    captured = []
    step_map = evolution._step_map
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(evolution, "_step_map",
                      lambda *args: captured.append(args) or step_map(*args))
        run()
    (args,) = captured
    return args


class TestPropagate:
    @staticmethod
    def _step(rng, n):
        # RK4 map of a random Markov generator plus a Hamiltonian part:
        # powers stay bounded, so relative errors are meaningful
        p_all = rng.uniform(0.05, 1.0, size=n)
        gen = evolution.diag_generator_matrix(p_all / p_all.sum(), 1.0, 1.0)
        h = random_hermitian_unit_trace(rng, n)
        return _taylor_step(gen - 1j * h, 0.02)

    @pytest.mark.parametrize("n_steps", [1, 17, 64])
    @pytest.mark.parametrize("schedule", [{"record_every": 1}, {"record_every": 3},
                                          {"record_every": 7}, {"record_points": 9}])
    def test_matches_stepwise_loop(self, n_steps, schedule):
        rng = np.random.default_rng(n_steps)
        step = self._step(rng, 5)
        y0 = rng.normal(size=5) + 1j * rng.normal(size=5)
        ks = evolution._record_steps(n_steps, IntegratorConfig(t_max=1.0, **schedule))
        y = y0.copy()
        expected = [y0]
        for k in range(1, n_steps + 1):
            y = step @ y
            if k in ks:
                expected.append(y)
        expected = np.array(expected)
        got = evolution._propagate(step.T, y0, ks)
        assert got.shape == expected.shape
        assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()

    @staticmethod
    def _run_inputs(model, t_max):
        # the transposed step map, initial coordinates and record steps that
        # one full-mode run passes to _propagate; a collapsed chain calls it once more, untested,
        # for its tail, on one row per record
        captured = []
        propagate = evolution._propagate
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(evolution, "_propagate",
                          lambda *args: captured.append(args) or propagate(*args))
            simulate_model(model, IntegratorConfig(t_max=t_max), mode="full")
        args, *tails = captured
        assert len(tails) <= 1 and all(len(tail) == 3 and tail[1].ndim == 2 for tail in tails)
        return args

    @classmethod
    def _model_step(cls, seed=64):
        # the transposed step map and initial coordinates of a full-mode run
        # at n = 8, N = 64: trace preserving, so every power stays bounded
        model = random_amplitude_model(np.random.default_rng(seed), 2, 4)
        step_t, y0, _ = cls._run_inputs(model, 1e-3)
        assert step_t.shape == (64, 64)
        return step_t, y0

    @classmethod
    def _floor_run(cls, t_max):
        # _propagate's inputs for a seeded 4 x 4 floor model at n = 16, N = 256, the slow block's
        # coordinates and predicted level last: from t = 8.6e-4 (level 9 of the chain) on, its
        # powers have rank 16, the aligned block's
        args = cls._run_inputs(_floor_model(16, 4), t_max)
        assert args[0].shape == (256, 256) and args[3].size == 16
        return args

    @staticmethod
    def _plain_schedule(step_t, y0, ks):
        # the chain's schedule, written out: every level up to the top bit of the largest k
        # multiplies the rows whose k has its bit set
        expected = np.empty((ks.size, y0.size), dtype=np.result_type(step_t, y0))
        expected[:] = y0
        power = step_t
        for j in range(max(1, int(ks.max()).bit_length())):
            if j:
                power = power @ power
            rows = (ks >> j) & 1 == 1
            expected[rows] = expected[rows] @ power
        return expected

    def test_matches_plain_schedule(self):
        # bit for bit, on sparse and dense schedules and on repeated k whose table of shared
        # rows covers every level
        rng = np.random.default_rng(5)
        cases = [(self._step(rng, 5).T, rng.normal(size=5) + 1j * rng.normal(size=5)),
                 self._model_step()]
        log_ks = evolution._record_steps(917775, IntegratorConfig(t_max=1.0))
        for step_t, y0 in cases:
            for ks in (np.array([0, 1]), log_ks, np.arange(0, 65, 3), np.array([0, 1, 3, 2**20 - 1]),
                       np.array([5, 2, 2**12 + 1, 7]), np.array([3, 3, 3, 3]), np.full(8, 7)):
                expected = self._plain_schedule(step_t, y0, ks)
                assert evolution._propagate(step_t, y0, ks).tobytes() == expected.tobytes()

    def test_low_levels_make_each_shared_row_once(self):
        # on the geometric grid of a 917775-step run at N = 64 (207 records), records that
        # share their low bits share those levels' rows: one table of them, 128 rows, takes
        # the place of 700 chain rows
        step_t, y0 = self._model_step()
        ks = evolution._record_steps(917775, IntegratorConfig(t_max=1.0))
        tally = {"rows": 0, "squarings": 0}

        class Power(np.ndarray):
            # a power of the step map: tallies the rows multiplied by it and its squarings
            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                plain = [x.view(np.ndarray) if isinstance(x, Power) else x for x in inputs]
                result = getattr(ufunc, method)(*plain, **kwargs)
                if ufunc is not np.matmul:
                    return result
                a = inputs[0]
                if isinstance(a, Power):
                    tally["squarings"] += 1
                    return result.view(Power)
                tally["rows"] += a.shape[0]
                return result

        got = evolution._propagate(step_t.view(Power), y0, ks)
        assert got.tobytes() == evolution._propagate(step_t, y0, ks).tobytes()
        assert tally["squarings"] == 19
        assert tally["rows"] <= 800  # 727 here, 1299 when every level multiplies its records

    @staticmethod
    def _squarings(step_t, y0, ks, *block):
        # _propagate's rows and the number of its products of two N x N powers (not the
        # collapse test's or any row products)
        tally = [0]

        class Power(np.ndarray):
            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                plain = [x.view(np.ndarray) if isinstance(x, Power) else x for x in inputs]
                result = getattr(ufunc, method)(*plain, **kwargs)
                if ufunc is np.matmul and all(isinstance(x, Power) and x.shape == step_t.shape
                                              for x in inputs):
                    tally[0] += 1
                    return result.view(Power)
                return result

        got = evolution._propagate(step_t.view(Power), y0, ks, *block)
        return got.view(np.ndarray), tally[0]

    def test_collapsed_power_finishes_in_the_slow_subspace(self):
        step_t, y0, ks, *block = self._floor_run(1.0)
        expected = self._plain_schedule(step_t, y0, ks)
        got, squarings = self._squarings(step_t, y0, ks, *block)
        assert np.abs(got - expected).max() <= 1e-11 * np.abs(expected).max()
        assert squarings <= 11  # 9 here: level 9 collapses

    def test_complex_power_collapses_on_the_conjugate_basis(self):
        # the complex vec(rho) step map of the same run: its powers are projected with Q Q^H
        model, cfg = _floor_model(16, 4), IntegratorConfig(t_max=1.0)
        traj = simulate_model(model, cfg, mode="full")
        step_t = _taylor_step(closed_form_generator(model), traj.dt).T
        y0 = model.initial_dm().entries.reshape(-1)
        ks = evolution._record_steps(traj.n_steps, cfg)
        rates = dissipator._rate_bounds(model.rate_table().flat_probabilities(), model.gamma,
                                        model.omega)
        block = evolution._slow_block(rates, traj.dt)
        expected = self._plain_schedule(step_t, y0, ks)
        got, squarings = self._squarings(step_t, y0, ks, *block)
        assert np.abs(got - expected).max() <= 1e-11 * np.abs(expected).max()
        assert squarings <= 11

    def test_collapse_inside_the_table_levels(self):
        # 2048 consecutive records: the table doubles up to level 9, where the power collapses, and
        # the chain calls itself once on the block's power for the records with k >> 9 > 0
        step_t, y0, _, *block = self._floor_run(1.0)
        ks = np.arange(2048)
        tails = []
        propagate = evolution._propagate
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(evolution, "_propagate", lambda *args: tails.append(args) or propagate(*args))
            got = propagate(step_t, y0, ks, *block)
        ((small, rows, steps),) = tails
        high = ks >> 9
        assert small.shape == (16, 16) and rows.shape == (np.count_nonzero(high), 16)
        assert np.array_equal(steps, high[high > 0] - 1)
        expected = self._plain_schedule(step_t, y0, ks)
        assert np.abs(got - expected).max() <= 1e-11 * np.abs(expected).max()

    def test_rows_per_record_match_matrix_power(self):
        # one start row per record takes no table: zero, repeated and distinct k, a single record
        # (a one-row product, which numpy sends to gemv) and complex rows or powers
        rng = np.random.default_rng(6)
        real_step, _ = self._model_step()
        complex_step = self._step(rng, 5).T

        def rows(count, size):
            return rng.normal(size=(count, size)) + 1j * rng.normal(size=(count, size))

        cases = [(real_step, rows(6, 64), [0, 3, 3, 17, 0, 64]),
                 (complex_step, rows(4, 5), [5, 0, 5, 2**12 + 1]),
                 (complex_step, rows(3, 5).real, [7, 7, 1]),
                 (real_step, rows(1, 64).real, [2**10 - 1]),
                 (complex_step, rows(1, 5), [0])]
        for step_t, y0, ks in cases:
            got = evolution._propagate(step_t, y0, np.array(ks))
            assert got.shape == y0.shape and got.dtype == np.result_type(step_t, y0)
            for row, y, k in zip(got, y0, ks):
                expected = y @ np.linalg.matrix_power(step_t, k)
                assert np.abs(row - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_level_short_of_the_prediction_is_tested_once(self, monkeypatch):
        # the floor run's power at level 8, one short of the predicted 9, has not collapsed: its one
        # test fails, no later power is tested, and the rows are the untested chain's
        step_t, y0, ks, coords, level = self._floor_run(1.0)
        assert level == 9
        results = []
        collapsed = evolution._collapsed
        monkeypatch.setattr(evolution, "_collapsed",
                            lambda *args: results.append(collapsed(*args)) or results[-1])
        got = evolution._propagate(step_t, y0, ks, coords, level - 1)
        assert results == [None]
        assert got.tobytes() == evolution._propagate(step_t, y0, ks).tobytes()

    def test_uncollapsed_run_keeps_its_bits(self, monkeypatch):
        # t_max = 1e-4 takes 72 steps, far short of the predicted level 9, past the chain's top bit:
        # no power is tested and the chain goes on unchanged
        step_t, y0, ks, coords, level = self._floor_run(1e-4)
        assert level == 9 and int(ks.max()).bit_length() == 7
        calls = []
        monkeypatch.setattr(evolution, "_collapsed", lambda *args: calls.append(args))
        got = evolution._propagate(step_t, y0, ks, coords, level)
        assert not calls
        assert got.tobytes() == self._plain_schedule(step_t, y0, ks).tobytes()

    @classmethod
    def _collapse_calls(cls, model):
        # _propagate's inputs in one full-mode run of ``model`` to t = 1, and whether each
        # _collapsed call of that run passed
        passed = []
        collapsed = evolution._collapsed

        def tally(*args):
            basis = collapsed(*args)
            passed.append(basis is not None)
            return basis

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(evolution, "_collapsed", tally)
            args = cls._run_inputs(model, 1.0)
        return args, passed

    def test_quarter_wide_slow_block_collapses_on_one_test(self):
        # the 2 x 8 amplitude model at n = 16: eight flat states above the floor, so its slow
        # block has 64 = N/4 coordinates
        args, passed = self._collapse_calls(random_amplitude_model(np.random.default_rng(7), 2, 8))
        assert args[3].size == 64
        assert passed == [True]
        expected = self._plain_schedule(*args[:3])
        got = evolution._propagate(*args)
        assert np.abs(got - expected).max() <= 1e-11 * np.abs(expected).max()

    @pytest.mark.parametrize("seed", [16, 17, 18])
    def test_floor_models_collapse_on_the_predicted_level(self, seed):
        args, passed = self._collapse_calls(_floor_model(seed, 4))
        assert args[3].size == 16
        assert passed == [True]

    def test_model_without_floor_is_never_tested(self):
        # one outcome read on 16 readings: every flat state carries a Born weight, so the support
        # above the smallest p has 15 states and its block, 225 coordinates, is too wide to test
        rng = np.random.default_rng(11)
        weights = rng.uniform(0.5, 1.5, size=16)
        model = MeasurementModel(
            sys=StateVector(np.ones(1)),
            app=StateVector(random_state(rng, 16)),
            correspondence=CorrespondenceMap.from_assignment(1, 16, [range(16)],
                                                             [weights / weights.sum()]),
            gamma=5.0,
            omega=1.0,
            epsilon=1e-4,
            hamiltonian=random_hamiltonian(rng, 16, 1.0),
        )
        args, passed = self._collapse_calls(model)
        assert len(args) == 3 and not passed
        assert evolution._propagate(*args).tobytes() == self._plain_schedule(*args).tobytes()
        # no test, so the chain squares up to the top bit of its largest k
        assert self._squarings(*args)[1] == int(args[2].max()).bit_length() - 1

    def test_uncollapsed_run_squares_to_its_top_bit(self, two_level_model):
        # the n = 4 reference run, N = 16: too small to test, so its 917775 steps take 19 squarings
        args, passed = self._collapse_calls(two_level_model)
        assert len(args) == 3 and not passed
        assert int(args[2].max()) == 917775
        assert self._squarings(*args)[1] == 19

    @pytest.mark.parametrize("gamma, dt", [(5e-324, 1.0), (5.0, 5e-324), (1e300, 1e300)])
    def test_slow_block_without_a_normal_kappa_dt_makes_no_test(self, gamma, dt):
        # a zero, subnormal or infinite kappa dt names no level, and no warning is raised
        p = _floor_model(16, 4).rate_table().flat_probabilities()
        assert evolution._slow_block(dissipator._rate_bounds(p, 5.0, 1.0), 1e-5)[1] >= 1
        assert evolution._slow_block(dissipator._rate_bounds(p, gamma, 1.0), dt) == ()

    def test_runs_are_deterministic(self):
        # reseeding and drawing from numpy's global generator between two runs changes no bit,
        # and a run leaves it untouched
        model, cfg = _floor_model(16, 4), IntegratorConfig(t_max=1.0)
        np.random.seed(1)
        first = simulate_model(model, cfg, mode="full").states
        drawn = np.random.random(3)
        np.random.seed(1)
        assert np.array_equal(np.random.random(3), drawn)
        second = simulate_model(model, cfg, mode="full").states
        assert np.array_equal(first, second)

    def test_collapse_keeps_the_chains_peak_memory(self):
        # tracemalloc peak beyond S, in N x N arrays: 2.808 for the chain without collapse tests
        # (a power and its square beside the 206 rows), 2.809 with them: a test holds the power's
        # 16 rows at the slow block, one residual block of that size and Q and C, N x 16 each
        step_t, y0, ks, *block = self._floor_run(1.0)
        peak = TestSizeGuard._peak_arrays(lambda: evolution._propagate(step_t, y0, ks, *block), 16)
        assert peak <= 2.95

    def test_early_stop_matches_matrix_power(self):
        # a sparse schedule: three records at the first levels and one at top bit 19
        step_t, y0 = self._model_step()
        ks = np.array([0, 1, 3, 2**20 - 1])
        got = evolution._propagate(step_t, y0, ks)
        for row, k in zip(got, ks):
            expected = y0 @ np.linalg.matrix_power(step_t, int(k))
            assert np.abs(row - expected).max() <= 1e-12 * np.abs(expected).max()

    @pytest.mark.parametrize("ks", [[0], [0, 0]])
    def test_zero_steps_return_the_initial_rows(self, ks):
        step_t, y0 = self._model_step()
        got = evolution._propagate(step_t, y0, np.array(ks))
        assert np.array_equal(got, np.tile(y0, (len(ks), 1)))

    def test_largest_step_count_on_many_rows(self):
        # 4096 rows at k = 2**53 - 1, the most steps a run may take: every row takes the same
        # path through all 53 levels of the chain
        angle = 0.3
        step_t = np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])
        got = evolution._propagate(step_t, np.array([1.0, 0.0]), np.full(4096, 2**53 - 1))
        assert np.isfinite(got).all()
        assert (got == got[0]).all()

    @pytest.mark.parametrize("k", [2**20 - 1, 897883])
    def test_matches_matrix_power(self, k, two_level_model, monkeypatch):
        # the step map and initial vector of the reference full-mode run
        captured = []
        propagate = evolution._propagate
        monkeypatch.setattr(evolution, "_propagate",
                            lambda step, y0, ks: captured.append((step, y0)) or propagate(step, y0, ks))
        simulate_model(two_level_model, IntegratorConfig(t_max=1e-3), mode="full")
        ((step, y0),) = captured
        expected = np.linalg.matrix_power(step.T, k) @ y0
        got = propagate(step, y0, np.array([0, k]))
        assert np.array_equal(got[0], y0)
        assert np.abs(got[1] - expected).max() <= 1e-12 * np.abs(expected).max()


class TestStepPolynomial:
    @pytest.mark.parametrize("d", [2, 4])
    def test_two_products_match_nested_taylor_form(self, d):
        # N = 16 and 256: the transposed step of a full-mode run against the
        # nested Taylor form of its generator, built here from the unit stack
        model = random_amplitude_model(np.random.default_rng(90 + d), d, d)
        diag_gen, h, dt = _step_map_inputs(
            lambda: simulate_model(model, IntegratorConfig(t_max=1e-3), mode="full"))
        nested = _taylor_step(_unit_generator(diag_gen, h), dt)
        step = evolution._step_map(diag_gen, h, dt)
        assert step.dtype == np.float64
        assert step.shape == (d**4, d**4) and step.flags.c_contiguous
        assert np.abs(step - nested).max() <= 4 * np.spacing(np.abs(nested).max())


def _bad_stack(kind):
    rng = np.random.default_rng(8)
    stack = np.array([random_density_matrix(rng, 3) for _ in range(10)])
    bad = stack[5]
    if kind == "non-finite":
        bad[0, 1] = np.nan
    elif kind == "negative":
        bad[:] = np.diag([1.0 + 1e-3, 0.0, -1e-3])
    elif kind == "slightly negative":
        bad[:] = np.diag([1.0 + 1e-7, 0.0, -1e-7])
    elif kind == "trace":
        bad *= 1.0 + 1e-6
    elif kind == "non-Hermitian":
        bad[0, 1] += 1e-6
    elif kind in ("just inside", "just outside"):
        # smallest eigenvalue 0.1 % inside or outside the -1e-8 tolerance, in a rotated basis
        smallest = -0.999e-8 if kind == "just inside" else -1.001e-8
        u = random_unitary(rng, 3)
        m = u @ np.diag([1.0 - smallest, 0.0, smallest]) @ u.conj().T
        bad[:] = 0.5 * (m + m.conj().T)
    elif kind == "pure":
        # every snapshot rank one, so the factorisation sees eigenvalues at round-off
        psi = np.array([random_state(rng, 3) for _ in range(10)])
        stack[:] = psi[:, :, None] * psi[:, None, :].conj()
    return stack


class TestSnapshotChecks:
    TIMES = np.arange(10) / 10.0

    @pytest.mark.parametrize("kind, error, fragment", [
        ("non-finite", IntegrationError, "non-finite state at t = 0.5"),
        ("negative", IntegrationError, "positivity violated at t = 0.5 (eigenvalue -1.000e-03)"),
        ("slightly negative", IntegrationError, "t = 0.5 has eigenvalue -1.000e-07"),
        ("just outside", IntegrationError, "t = 0.5 has eigenvalue -1.001e-08 below 0"),
        ("trace", IntegrationError, "trace drifted by 1.000e-06 at t = 0.5"),
        ("non-Hermitian", IntegrationError, "t = 0.5 is not Hermitian: max asymmetry 1.000e-06"),
    ])
    def test_bad_snapshot_is_named_by_time(self, kind, error, fragment):
        # every snapshot failure is a numerical failure of the run (CLI exit 2)
        with pytest.raises(error) as err:
            evolution._build_trajectory(self.TIMES, _bad_stack(kind), None, 0.1, 9)
        assert fragment in str(err.value)
        assert type(err.value) is error

    @pytest.mark.parametrize("kind", ["negative", "trace"])
    def test_drift_and_positivity_name_the_steps(self, kind):
        # a smaller dt cannot mend these failures: the message names the run's steps
        with pytest.raises(IntegrationError) as err:
            evolution._build_trajectory(self.TIMES, _bad_stack(kind), None, 0.1, 9)
        assert str(err.value).endswith("; the run took 9 steps of dt = 0.1")

    def test_earliest_failing_snapshot_wins(self):
        # a later non-finite snapshot and a later gross positivity failure do
        # not mask the trace drift at t = 0.5
        stack = _bad_stack("trace")
        stack[7, 0, 0] = np.inf
        stack[6] = _bad_stack("negative")[5]
        with pytest.raises(IntegrationError, match="trace drifted by .* at t = 0.5;"):
            evolution._build_trajectory(self.TIMES, stack, None, 0.1, 9)

    def test_order_within_one_snapshot(self):
        # gross positivity is checked before trace drift and Hermiticity
        stack = _bad_stack("negative")
        stack[5] *= 1.0 + 1e-6
        stack[5, 0, 1] += 1e-6
        with pytest.raises(IntegrationError, match="positivity violated at t = 0.5"):
            evolution._build_trajectory(self.TIMES, stack, None, 0.1, 9)

    def test_snapshots_are_validated_views_of_the_stack(self, two_level_trajectory):
        traj = two_level_trajectory
        assert isinstance(traj.snapshots, tuple)
        assert len(traj.snapshots) == traj.times.size
        for snap, m in zip(traj.snapshots, traj.states):
            assert isinstance(snap, DensityMatrix)
            assert np.array_equal(snap.entries, m)
        assert not traj.states.flags.writeable

    def test_series_match_per_snapshot_functions(self, two_level_trajectory, two_level_model):
        traj = two_level_trajectory
        target = two_level_model.aligned_target()
        for k, snap in enumerate(traj.snapshots):
            assert traj.entropy[k] == pytest.approx(
                von_neumann_entropy(snap, positivity_tol=1e-8), abs=1e-14)
            assert np.allclose(traj.eigenvalues[k], dm_eigenvalues(snap),
                               rtol=0, atol=1e-15)
            assert traj.trace_dist[k] == trace_distance(snap, target)

    def test_trace_dist_is_kept_and_read_only(self, two_level_trajectory):
        dist = two_level_trajectory.trace_dist
        assert two_level_trajectory.trace_dist is dist
        assert not dist.flags.writeable

    def test_record_is_the_stack_and_what_the_run_computed(self, two_level_trajectory):
        traj = two_level_trajectory
        assert [f.name for f in dataclasses.fields(Trajectory)] == [
            "times", "states", "target", "dt", "n_steps"]
        diag = traj.diagonals
        assert np.array_equal(diag, np.diagonal(traj.states, axis1=1, axis2=2).real)
        assert np.shares_memory(diag, traj.states)
        assert not diag.flags.writeable
        with pytest.raises(ValueError):
            diag[0, 0] = 0.5
        with pytest.raises(AttributeError):
            traj.diagonals = diag.copy()

    @pytest.mark.parametrize("kind, spectrum", [
        ("just inside", [1.0 + 0.999e-8, 0.0, -0.999e-8]),
        ("pure", [1.0, 0.0, 0.0]),
    ])
    def test_boundary_snapshots_pass(self, kind, spectrum):
        stack = _bad_stack(kind)
        traj = evolution._build_trajectory(self.TIMES, stack, None, 0.1, 9)
        assert "_spectra" not in traj.__dict__  # passed by the Cholesky factorisation
        assert traj.eigenvalues[5] == pytest.approx(spectrum, rel=0, abs=1e-14)
        assert np.array_equal(traj.eigenvalues, np.linalg.eigvalsh(stack)[:, ::-1])

    def test_round_off_tie_passes(self, monkeypatch):
        # a factorisation that fails where eigvalsh finds no eigenvalue below
        # the tolerance: the run passes, and its spectra are those of the stack
        def failing(a):
            raise np.linalg.LinAlgError("not positive definite")

        monkeypatch.setattr(np.linalg, "cholesky", failing)
        stack = _bad_stack("none")
        traj = evolution._build_trajectory(self.TIMES, stack, None, 0.1, 9)
        assert np.array_equal(traj.eigenvalues, np.linalg.eigvalsh(stack)[:, ::-1])
        assert traj.entropy.shape == (10,)

    @staticmethod
    def _blocked_stack(blocks):
        # random full-rank 16 x 16 density matrices filling ``blocks`` check blocks, and their times
        n = 16
        per_block = evolution._STACK_BLOCK_BYTES // (n * n * np.dtype(complex).itemsize)
        rng = np.random.default_rng(blocks)
        g = rng.normal(size=(blocks * per_block, n, n)) + 1j * rng.normal(size=(blocks * per_block, n, n))
        stack = g @ g.conj().transpose(0, 2, 1)
        stack /= np.trace(stack, axis1=1, axis2=2).real[:, None, None]
        return np.arange(len(stack)) / 100.0, stack, per_block

    def test_later_block_names_the_earliest_failure(self):
        # two passing blocks, then a trace drift masked neither by a later non-finite snapshot
        # in its block nor by a gross positivity failure in the block after
        times, stack, per_block = self._blocked_stack(4)
        first = 2 * per_block + 5
        stack[first] *= 1.0 + 1e-6
        stack[first + 2, 0, 0] = np.inf
        stack[3 * per_block + 1] = np.diag(np.r_[1.0 + 1e-3, np.zeros(14), -1e-3])
        with pytest.raises(IntegrationError,
                           match=rf"trace drifted by 1\.000e-06 at t = {times[first]:g};"):
            evolution._build_trajectory(times, stack, None, 0.1, 9)

    def test_non_finite_first_snapshot_of_a_later_block(self):
        # the block's finite head is empty: the NaN itself is named
        times, stack, per_block = self._blocked_stack(4)
        stack[2 * per_block, 3, 4] = np.nan
        with pytest.raises(IntegrationError,
                           match=rf"non-finite state at t = {times[2 * per_block]:g}:"):
            evolution._build_trajectory(times, stack, None, 0.1, 9)

    def test_cholesky_failure_in_a_later_block_is_checked_alone(self, monkeypatch):
        # the third block's factorisation fails and its spectra find no failure: only that
        # block is eigendecomposed, the fourth is still factorised, and no spectra are kept
        times, stack, per_block = self._blocked_stack(4)
        calls, shapes = [], []
        cholesky, eigvalsh = np.linalg.cholesky, np.linalg.eigvalsh

        def failing_third(a):
            calls.append(len(a))
            if len(calls) == 3:
                raise np.linalg.LinAlgError("not positive definite")
            return cholesky(a)

        def recording(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "cholesky", failing_third)
        monkeypatch.setattr(np.linalg, "eigvalsh", recording)
        traj = evolution._build_trajectory(times, stack, None, 0.1, 9)
        assert len(calls) == 4
        assert shapes == [(per_block, 16, 16)]
        assert "_spectra" not in traj.__dict__

    @staticmethod
    def _held_stacks(read, stack):
        # tracemalloc peak of read() beyond what was in use before it, in stacks
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            read()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return (peak - before) / stack.nbytes

    def test_passing_check_holds_the_stack_once(self):
        # 1152 snapshots at n = 16: the blocks' temporaries, not copies of the stack
        times, stack, _ = self._blocked_stack(36)
        assert len(stack) >= 1000
        traj = Trajectory(times=times, states=stack, target=stack[-1], dt=0.1, n_steps=9)
        assert self._held_stacks(lambda: evolution._check_snapshots(traj), stack) <= 0.5
        assert "_spectra" not in traj.__dict__

    def test_failing_check_holds_the_stack_once(self):
        # a trace drift in the last of 36 blocks is named from that block's temporaries alone
        times, stack, per_block = self._blocked_stack(36)
        bad = len(stack) - per_block + 7
        stack[bad] *= 1.0 + 1e-6
        traj = Trajectory(times=times, states=stack, target=stack[-1], dt=0.1, n_steps=9)

        def check():
            with pytest.raises(IntegrationError, match=rf"trace drifted by .* at t = {times[bad]:g};"):
                evolution._check_snapshots(traj)

        assert self._held_stacks(check, stack) <= 0.5

    def test_trace_dist_reads_the_stack_in_blocks(self):
        times, stack, _ = self._blocked_stack(36)
        traj = Trajectory(times=times, states=stack, target=stack[0], dt=0.1, n_steps=9)
        assert self._held_stacks(lambda: traj.trace_dist, stack) < 0.5
        assert np.array_equal(traj.trace_dist, _trace_distances(stack, stack[0]))

    @pytest.mark.parametrize("mode", ["full", "fast"])
    def test_no_stack_eigendecomposition_until_spectra_are_read(self, two_level_model,
                                                               monkeypatch, mode):
        shapes = []
        original = np.linalg.eigvalsh

        def recording(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", recording)
        traj = simulate_model(two_level_model, IntegratorConfig(t_max=1.0), mode=mode)
        alignment_time(traj, two_level_model.aligned_target(), tol=0.01)
        assert traj.states.shape == (traj.times.size, 4, 4)
        assert traj.times.size > evolution._ALIGNMENT_BLOCK
        assert traj.states.shape not in shapes
        entropy, eigenvalues = traj.entropy, traj.eigenvalues
        assert shapes.count(traj.states.shape) == 1
        assert traj.entropy is entropy and traj.eigenvalues is eigenvalues
        assert shapes.count(traj.states.shape) == 1
        for series in (entropy, eigenvalues):
            assert not series.flags.writeable
            with pytest.raises(ValueError):
                series[0] = 0.0
        with pytest.raises(AttributeError):
            traj.entropy = entropy


def _hermitian_basis_columns(n):
    """Column (c, d): vec of the Hermitian matrix that real coordinate (c, d)
    stands for, (E_cd + E_dc)/2 + i (E_cd - E_dc)/2 with E_cd the matrix unit,
    since X = Re rho + Im rho."""
    units = np.eye(n * n).reshape(n * n, n, n)
    basis = 0.5 * (units + units.swapaxes(1, 2)) + 0.5j * (units - units.swapaxes(1, 2))
    return basis.reshape(n * n, n * n).T


def _amplitude_run(n, seed):
    d = math.isqrt(n)
    model = random_amplitude_model(np.random.default_rng(seed), d, d)
    return model, simulate_model(model, IntegratorConfig(t_max=1.0), mode="full")


class TestGeneratorOracle:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_assembled_generator_equals_probed_jump_family(self, d):
        # the dense jump list is off the run path; this ties the real generator
        # of the inputs integrate passes to _step_map back to master_rhs on the
        # explicit family, mapped into the real Hermitian coordinates by an
        # explicit change of basis
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
        basis = _hermitian_basis_columns(n)
        expected = np.linalg.solve(basis, probed @ basis)
        scale = np.max(np.abs(probed))
        assert np.max(np.abs(expected.imag)) <= 1e-12 * scale
        diag_gen, h_run, _ = _step_map_inputs(lambda: integrate(
            np.eye(n) / n, h, table.flat_probabilities(), 5.0, 1.0, IntegratorConfig(t_max=1e-3)))
        generator = _unit_generator(diag_gen, h_run)
        assert generator.dtype == np.float64
        assert np.max(np.abs(generator.T - expected.real)) <= 1e-12 * scale


class TestRealBasis:
    def test_pack_unpack_round_trip(self):
        # X = Re rho + Im rho rounds once and its unpacking once more: the
        # diagonal and Hermiticity come back exactly, the rest within 2 ulps
        rng = np.random.default_rng(31)
        m = random_density_matrix(rng, 5)
        m = 0.5 * (m + m.conj().T)  # exactly Hermitian, as the round trip needs
        stack = np.array([random_density_matrix(rng, 5) for _ in range(3)])
        stack = 0.5 * (stack + stack.conj().transpose(0, 2, 1))
        for hermitian in (m, stack):
            x = dissipator._pack(hermitian)
            assert x.dtype == np.float64
            back = dissipator._unpack(x)
            diagonal = np.arange(5)
            assert np.array_equal(back[..., diagonal, diagonal], hermitian[..., diagonal, diagonal])
            assert np.array_equal(back, back.conj().swapaxes(-1, -2))
            assert (np.abs(back - hermitian) <= 2 * np.spacing(np.abs(hermitian))).all()
        assert np.array_equal(dissipator._pack(stack), [dissipator._pack(s) for s in stack])
        coords = _hermitian_basis_columns(5).T.reshape(25, 5, 5)
        for k, unit in enumerate(np.eye(25).reshape(25, 5, 5)):
            assert np.array_equal(dissipator._unpack(unit), coords[k])

    def test_unpack_allocates_only_its_output(self):
        # both parts go straight into the one complex stack: no real or
        # complex temporary of the stack's size (2.16 stacks when there were)
        x = np.random.default_rng(205).normal(size=(205, 16, 16))
        stack = x.size * np.dtype(complex).itemsize
        tracemalloc.start()
        try:
            dissipator._unpack(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / stack <= 1.1

    def test_almost_hermitian_input_keeps_its_trace(self):
        # integrate accepts an asymmetry up to 1e-10; an imaginary diagonal
        # must not reach the populations, where 25 entries of 4e-11 would
        # drift the trace by 1e-9 at t = 0
        rng = np.random.default_rng(25)
        model = random_amplitude_model(rng, 5, 5)
        rho0 = np.array(model.initial_dm().entries)
        shifted = rho0 + 4e-11j * np.eye(25)
        runs = [integrate(m, model.hamiltonian, model.rate_table().flat_probabilities(), model.gamma,
                          model.omega, IntegratorConfig(t_max=1e-3)) for m in (rho0, shifted)]
        assert np.array_equal(runs[1].states, runs[0].states)
        assert np.abs(np.trace(runs[1].states, axis1=1, axis2=2) - 1.0).max() <= 1e-12

    @pytest.mark.parametrize("n", [4, 9, 16])
    def test_matches_complex_step_map(self, n):
        # the complex vec(rho) step map, built here only, through the same chain
        model, traj = _amplitude_run(n, 50 + n)
        step = _taylor_step(closed_form_generator(model), traj.dt)
        ks = evolution._record_steps(traj.n_steps, IntegratorConfig(t_max=1.0))
        expected = evolution._propagate(step.T, model.initial_dm().entries.reshape(-1), ks)
        assert np.abs(traj.states - expected.reshape(-1, n, n)).max() <= 1e-9

    @pytest.mark.parametrize("n", [4, 9, 16])
    def test_snapshots_are_exactly_hermitian(self, n):
        _, traj = _amplitude_run(n, 60 + n)
        assert np.array_equal(traj.states, traj.states.conj().transpose(0, 2, 1))


class TestInputGuards:
    @staticmethod
    def _inputs():
        model = spin_half_scenario(ALPHA_S, ALPHA_A, 5.0, 1.0)
        rho0 = np.array(model.initial_dm().entries)
        h = np.array(model.hamiltonian)
        return model.rate_table().flat_probabilities(), rho0, h

    @pytest.mark.parametrize("which, fragment", [
        ("rho0", "initial state is not Hermitian: max asymmetry 1.000e-03"),
        ("hamiltonian", "Hamiltonian is not Hermitian: max asymmetry 1.000e-03"),
    ])
    def test_non_hermitian_input_is_rejected_before_assembly(self, which, fragment,
                                                             monkeypatch):
        self._check_rejected(which, 1e-3, fragment, monkeypatch)

    @pytest.mark.parametrize("which, fragment", [
        ("rho0", "initial state has non-finite entries"),
        ("hamiltonian", "Hamiltonian has non-finite entries"),
    ])
    def test_non_finite_input_is_rejected_before_assembly(self, which, fragment, monkeypatch):
        self._check_rejected(which, math.nan, fragment, monkeypatch)

    def _check_rejected(self, which, defect, fragment, monkeypatch):
        def forbidden(*args):
            raise AssertionError("the generator was assembled")

        monkeypatch.setattr(evolution, "_step_map", forbidden)
        p_all, rho0, h = self._inputs()
        bad = rho0 if which == "rho0" else h
        bad[0, 1] += defect
        with pytest.raises(ValidationError) as err:
            integrate(rho0, h, p_all, 5.0, 1.0, IntegratorConfig(t_max=0.1))
        assert fragment in str(err.value)

    @pytest.mark.parametrize("entry, defect, fragment", [
        ((0, 0), math.nan, "initial state has non-finite entries"),
        ((1, 2), math.inf, "initial state has non-finite entries"),
        ((0, 1), 0.1, "initial state is not Hermitian: max asymmetry 1.000e-01"),
    ])
    def test_fast_limit_rejects_bad_initial_state_before_propagation(self, entry, defect,
                                                                     fragment, monkeypatch):
        def forbidden(*args):
            raise AssertionError("the sampling grid was built")

        monkeypatch.setattr(evolution, "_record_steps", forbidden)
        p_all, rho0, _ = self._inputs()
        rho0[entry] += defect
        with pytest.raises(ValidationError) as err:
            integrate_fast_limit(rho0, p_all, 5.0, 1.0, IntegratorConfig(t_max=0.1))
        assert fragment in str(err.value)


class TestFastRates:
    # the rates of the jump family, read off its diagonal generator M: the
    # populations move as M @ d and coherence (r, s) decays at -(M[r, r] + M[s, s]) / 2
    def test_symmetric_pair_limit(self):
        eps = 1e-9
        p_all = [0.5, eps**2, eps**2, 0.5]
        m = diag_generator_matrix(p_all, 1.0, 1.0)
        rate = -(m[0, 0] + m[3, 3]) / 2
        assert rate == pytest.approx(1.0, abs=1e-6)

    def test_positive_and_symmetric(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            p_all = rng.uniform(1e-6, 1.0, size=4)
            r, s = rng.integers(0, 4, size=2)
            m = diag_generator_matrix(p_all, 2.0, 0.5)
            a = -(m[r, r] + m[s, s]) / 2
            b = -(m[s, s] + m[r, r]) / 2
            assert a > 0.0
            assert a == pytest.approx(b, rel=1e-14)

    def test_diag_rhs_vanishes_at_stationary_point(self):
        rng = np.random.default_rng(14)
        p_all = rng.uniform(0.01, 1.0, size=6)
        out = diag_generator_matrix(p_all, 3.0, 1.0) @ p_all
        assert np.max(np.abs(out)) < 1e-12

    def test_diag_rhs_is_trace_free(self):
        rng = np.random.default_rng(15)
        for _ in range(100):
            p_all = rng.uniform(0.01, 1.0, size=5)
            diag = rng.uniform(0.0, 1.0, size=5)
            diag /= diag.sum()
            assert abs((diag_generator_matrix(p_all, 1.7, 0.9) @ diag).sum()) < 1e-12

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
        out = diag_generator_matrix(p_all, 1.0, 1.0) @ diag
        assert out == pytest.approx(expected, rel=1e-12)
        assert abs(out.sum()) < 1e-12


class TestIntegrateFastLimit:
    def test_offdiagonals_follow_closed_form_exactly(self, two_level_model):
        table = two_level_model.rate_table()
        p_all = table.flat_probabilities()
        rho0 = two_level_model.initial_dm()
        traj = integrate_fast_limit(rho0, p_all, two_level_model.gamma,
                                    two_level_model.omega, IntegratorConfig(t_max=0.5))
        m = diag_generator_matrix(p_all, two_level_model.gamma, two_level_model.omega)
        for r, s in zip(*np.triu_indices(traj.dim, k=1)):
            rate = -(m[r, r] + m[s, s]) / 2
            with np.errstate(under="ignore"):
                expected = rho0.entries[r, s].real * np.exp(-rate * traj.times)
            assert np.max(np.abs(traj.states[:, r, s].real - expected)) < 1e-15
            assert np.max(np.abs(traj.states[:, r, s].imag)) == 0.0

    def test_offdiagonal_magnitudes_decay_monotonically(self, two_level_model):
        traj = simulate_model(two_level_model, IntegratorConfig(t_max=0.5), mode="fast")
        upper = np.triu_indices(traj.dim, k=1)
        mags = np.abs(traj.states[:, upper[0], upper[1]])
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

    @pytest.mark.parametrize("seed, t_max", [(1, 1.0), (2, 1.0), (3, 1.0), (1, 1e6)])
    def test_wide_scenarios_keep_unit_trace(self, seed, t_max):
        # random 10 x 10 amplitude scenarios without H, built like the fast_wide
        # benchmark's: a stepped population update drifted past TRACE_DRIFT_TOL on
        # these seeds, and the t_max = 1e6 row drifts unless the stationary
        # eigenvalue is exactly 0
        rng = np.random.default_rng(seed)
        model = MeasurementModel(
            sys=StateVector(random_state(rng, 10)),
            app=StateVector(random_state(rng, 10)),
            correspondence=CorrespondenceMap.one_to_one(10),
            gamma=5.0,
            omega=1.0,
            epsilon=1e-4,
        )
        traj = simulate_model(model, IntegratorConfig(t_max=t_max), mode="fast")
        assert np.abs(np.trace(traj.states, axis1=1, axis2=2) - 1.0).max() <= 1e-11

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

    def test_other_target_is_measured_on_the_stack(self, two_level_trajectory, two_level_model):
        # a target other than the run's own gets its own batched distances
        other = 0.9 * two_level_model.aligned_target().entries + 0.025 * np.eye(4)
        dist = np.array([trace_distance(s, other) for s in two_level_trajectory.snapshots])
        above = np.nonzero(dist > 0.1)[0]
        assert 0 < above[-1] < dist.size - 1
        expected = two_level_trajectory.times[int(above[-1]) + 1]
        assert alignment_time(two_level_trajectory, other, tol=0.1) == expected
        own = alignment_time(two_level_trajectory, two_level_model.aligned_target(), tol=0.01)
        copied = alignment_time(two_level_trajectory,
                                np.array(two_level_model.aligned_target().entries), tol=0.01)
        assert own == copied

    @pytest.mark.parametrize("tol", [math.nan, 0.0, -0.01, math.inf])
    def test_rejects_nan_or_nonpositive_tolerance(self, two_level_trajectory, two_level_model,
                                                   tol):
        with pytest.raises(ValidationError, match="alignment tolerance"):
            alignment_time(two_level_trajectory, two_level_model.aligned_target(), tol=tol)

    def test_not_aligned_error_carries_distance(self, two_level_model):
        traj = simulate_model(two_level_model, IntegratorConfig(t_max=1e-3), mode="full")
        with pytest.raises(NotAlignedError) as err:
            alignment_time(traj, two_level_model.aligned_target(), tol=0.01)
        assert err.value.final_distance > 0.01

    @pytest.mark.parametrize("run, target, tol", [
        ("reference", "aligned", 0.01),
        ("reference", "aligned", 0.5),  # last crossing seven blocks back
        ("reference", "aligned", 0.7),  # never above tol: tau is the first sample
        ("reference", "aligned", 1e-9),  # not aligned
        ("reference", "final", 0.01),
        ("linear", "aligned", 0.01),  # last crossing many blocks before the end
    ])
    def test_tail_search_matches_full_scan(self, two_level_model, two_level_trajectory,
                                           run, target, tol):
        if run == "reference":
            traj = two_level_trajectory
        else:
            cfg = IntegratorConfig(t_max=1.0, record_points=1000, record_spacing="linear")
            traj = simulate_model(two_level_model, cfg, mode="fast")
        target = traj.states[-1] if target == "final" else two_level_model.aligned_target()
        dist = np.array([trace_distance(s, target) for s in traj.states])
        above = np.nonzero(dist > tol)[0]
        first_ok = 0 if above.size == 0 else int(above[-1]) + 1
        if first_ok < dist.size:
            assert alignment_time(traj, target, tol=tol) == traj.times[first_ok]
            if run == "linear":
                assert dist.size - first_ok > 2 * evolution._ALIGNMENT_BLOCK
            if tol == 0.7:
                assert first_ok == 0
            return
        with pytest.raises(NotAlignedError) as err:
            alignment_time(traj, target, tol=tol)
        assert str(err.value) == (f"trace distance never settled below {tol:g} "
                                  f"(final distance {dist[-1]:.3e} at t = {traj.times[-1]:g})")
        assert err.value.final_distance == dist[-1]

    def test_distances_only_for_the_tail(self, two_level_model, monkeypatch):
        rows = []
        original = evolution._trace_distances

        def counting(states, target):
            rows.append(len(states))
            return original(states, target)

        monkeypatch.setattr(evolution, "_trace_distances", counting)
        traj = simulate_model(two_level_model, IntegratorConfig(t_max=1.0), mode="full")
        assert rows == []
        alignment_time(traj, two_level_model.aligned_target(), tol=0.01)
        assert rows == [evolution._ALIGNMENT_BLOCK] == [32]

    @pytest.mark.parametrize("call", ["alignment_time", "integrate", "integrate_fast_limit"])
    @pytest.mark.parametrize("defect, match", [
        ("inf", "non-finite"),
        ("nan", "non-finite"),
        ("non-Hermitian", "not Hermitian"),
        ("wrong shape", "does not match dimension 4"),
    ])
    def test_rejects_bad_target(self, two_level_model, two_level_trajectory, monkeypatch,
                                call, defect, match):
        target = np.array(two_level_model.aligned_target().entries)
        if defect == "inf":
            target[0, 0] = math.inf
        elif defect == "nan":
            target[1, 2] = target[2, 1] = math.nan
        elif defect == "non-Hermitian":
            target[0, 3] = 0.1
        else:
            target = np.eye(3) / 3

        def forbidden(*args):
            raise AssertionError("trace distances computed")

        monkeypatch.setattr(evolution, "_trace_distances", forbidden)
        p_all = two_level_model.rate_table().flat_probabilities()
        rho0 = two_level_model.initial_dm()
        cfg = IntegratorConfig(t_max=0.05)
        with pytest.raises(ValidationError, match=f"target.*{match}"):
            if call == "alignment_time":
                alignment_time(two_level_trajectory, target, tol=0.01)
            elif call == "integrate":
                integrate(rho0, two_level_model.hamiltonian, p_all, 5.0, 1.0, cfg, target=target)
            else:
                integrate_fast_limit(rho0, p_all, 5.0, 1.0, cfg, target=target)


class TestSizeGuard:
    @pytest.mark.parametrize("n_steps, schedule", [
        (10, {"record_every": 10**9}),
        (10, {"record_every": 3}),
        (12, {"record_every": 3}),
        (1, {"record_every": 1}),
        (5, {}),
        (239, {}),
        (10**6, {}),
        (10**6, {"record_spacing": "linear"}),
        (10**6, {"record_points": 7}),
        (10, {"record_every": 10**300}),
        (10**6, {"record_points": 2}),
    ])
    def test_count_matches_or_bounds_record_steps(self, n_steps, schedule):
        cfg = IntegratorConfig(t_max=1.0, **schedule)
        count = evolution._record_count(n_steps, cfg)
        steps = evolution._record_steps(n_steps, cfg)
        assert steps.dtype.kind == "i" and steps[0] == 0 and steps[-1] == n_steps
        actual = steps.size
        if "record_every" in schedule or n_steps < cfg.record_points:
            assert count == actual
        else:
            assert actual <= count == cfg.record_points

    @pytest.mark.parametrize("spacing", ["log", "linear"])
    @pytest.mark.parametrize("points", [2, 3, 240, 4000])
    def test_automatic_schedule_matches_unique(self, spacing, points):
        # the np.unique expressions the neighbour comparison replaced
        cfg = IntegratorConfig(t_max=1.0, record_points=points, record_spacing=spacing)
        for n_steps in (1, 2, 3, 238, 239, 240, 241, 917775, 2**40):
            if n_steps + 1 <= points:
                expected = np.arange(n_steps + 1)
            elif spacing == "linear":
                expected = np.unique(np.round(np.linspace(0, n_steps, points)).astype(int))
            elif points == 2:
                expected = np.array([0, n_steps])  # a one-point geomspace is only its start, 1
            else:
                interior = np.round(np.geomspace(1, n_steps, points - 1)).astype(int)
                expected = np.unique(np.concatenate(([0], interior)))
            got = evolution._record_steps(n_steps, cfg)
            assert got.dtype == expected.dtype
            assert np.array_equal(got, expected)

    def test_huge_stride_gives_two_records(self):
        cfg = IntegratorConfig(t_max=1.0, record_every=10**9)
        assert evolution._record_count(123, cfg) == 2

    def test_count_needs_no_allocation(self):
        cfg = IntegratorConfig(t_max=1.0, record_points=10**12)
        assert evolution._record_count(10**15, cfg) == 10**12
        cfg = IntegratorConfig(t_max=1.0, record_every=1)
        assert evolution._record_count(10**15, cfg) == 10**15 + 1

    @pytest.mark.parametrize("mode", ["full", "fast"])
    def test_oversized_run_is_rejected_before_recording(self, two_level_model, mode,
                                                        monkeypatch):
        def forbidden(*args):
            raise AssertionError("_record_steps ran")

        monkeypatch.setattr(evolution, "_record_steps", forbidden)
        cfg = IntegratorConfig(t_max=100.0, record_points=10**9)
        with pytest.raises(ConfigError, match="MiB limit"):
            simulate_model(two_level_model, cfg, mode=mode)

    @pytest.mark.parametrize("n, allowed", [(49, True), (64, False)])
    def test_oversized_generator_is_rejected_before_assembly(self, n, allowed, monkeypatch):
        class Assembled(Exception):
            pass

        def forbidden(*args):
            raise Assembled

        monkeypatch.setattr(evolution, "_step_map", forbidden)
        p_all = np.full(n, 1.0 / n)
        expected = Assembled if allowed else ConfigError
        with pytest.raises(expected, match=None if allowed else "assemble its generator"):
            integrate(np.eye(n) / n, None, p_all, 5.0, 1.0, IntegratorConfig(t_max=1e-3))


    @staticmethod
    def _uniform_model(side):
        amplitudes = StateVector(np.full(side, side**-0.5))
        return MeasurementModel(sys=amplitudes, app=amplitudes,
                                correspondence=CorrespondenceMap.one_to_one(side),
                                gamma=5.0, omega=1.0, epsilon=1e-4)

    @pytest.mark.parametrize("mode", ["full", "fast"])
    def test_bounds_are_the_generator_reads(self, mode):
        # the O(n) weight and outflow of _resolve_step, bit for bit against M,
        # and the step counts they give; n = 1 has no jump, so weight 0 and a
        # diagonal of +0.0
        cfg = IntegratorConfig(t_max=1e-3)
        uniform = self._uniform_model(3).rate_table().flat_probabilities()
        for p, gamma, omega in [*balanced_draws(), (uniform, 5.0, 1.0), (np.ones(1), 5.0, 1.0)]:
            m = diag_generator_matrix(p, gamma, omega)
            rates = dissipator._rate_bounds(p, gamma, omega)
            q, _, weight, outflow = rates
            # the builder a run hands its one read to is M bit for bit, and so are the modes
            assert dissipator._diag_generator(rates).tobytes() == m.tobytes()
            lam, v = np.linalg.eigh(m * q[None, :] / q[:, None])
            lam[-1] = 0.0
            modes = dissipator._balanced_modes(rates)
            assert modes[0].tobytes() == lam.tobytes() and modes[1].tobytes() == v.tobytes()
            assert weight == (m - np.diag(np.diagonal(m))).max()
            assert outflow.max() == -np.diagonal(m).min()
            assert np.array_equal(np.diagonal(m), 0.0 - outflow)
            if p.size == 1:
                assert not np.signbit(np.diagonal(m)).any()
            if mode == "full" and p.size > 53:
                continue  # refused: four n^2 x n^2 arrays pass MAX_STACK_BYTES
            rate = weight + 0.5 if mode == "full" else -np.diagonal(m).min()
            steps = max(1, math.ceil(cfg.t_max / (cfg.safety / max(rate, 1e-300)) - 1e-9))
            h = 0.5 * np.eye(p.size) if mode == "full" else None  # spectral norm 0.5
            assert evolution._resolve_step(cfg, rates, mode == "full", h)[1] == steps

    def test_reference_step_counts(self, two_level_model, two_level_trajectory):
        cfg = IntegratorConfig(t_max=1.0)
        p_all = two_level_model.rate_table().flat_probabilities()
        args = (cfg, dissipator._rate_bounds(p_all, two_level_model.gamma, two_level_model.omega))
        assert (evolution._resolve_step(*args, True, two_level_model.hamiltonian)[1]
                == two_level_trajectory.n_steps == 917775)
        assert evolution._resolve_step(*args)[1] == 1315003

    def test_oversized_run_builds_no_state(self, monkeypatch):
        # n = 2500 in fast mode: sized from q alone and refused before any n x n array
        class Built(Exception):
            pass

        def forbidden(*args, **kwargs):
            raise Built

        model = self._uniform_model(50)
        for module, name in ((np.linalg, "eigvalsh"), (np.linalg, "eigh"),
                             (dissipator, "diag_generator_matrix"), (dissipator, "_diag_generator"),
                             (evolution, "diag_generator_matrix"), (evolution, "_diag_generator")):
            monkeypatch.setattr(module, name, forbidden)
        with pytest.raises(ConfigError, match="22888 MiB"):
            simulate_model(model, IntegratorConfig(t_max=1.0), mode="fast")
        assert not {"_initial_dm", "_aligned_target"} & model.__dict__.keys()

    def test_oversized_fast_limit_builds_no_generator(self, monkeypatch):
        # n = 400, whose 240-record stack passes MAX_STACK_BYTES: a direct call
        # checks the rates and sizes the run from q alone, before M or its eigh
        class Built(Exception):
            pass

        def forbidden(*args, **kwargs):
            raise Built

        model = self._uniform_model(20)
        rho0, p_all = model.initial_dm(), model.rate_table().flat_probabilities()
        for module, name in ((np.linalg, "eigh"), (dissipator, "diag_generator_matrix"),
                             (dissipator, "_diag_generator"), (evolution, "diag_generator_matrix"),
                             (evolution, "_diag_generator")):
            monkeypatch.setattr(module, name, forbidden)
        with pytest.raises(ConfigError, match="586 MiB"):
            evolution.integrate_fast_limit(rho0, p_all, 5.0, 1.0, IntegratorConfig(t_max=1.0))

    def test_spectrum_guard_boundary(self):
        # SPECTRUM_ARRAYS = 5 arrays of n^2 doubles fit 256 MiB up to n = 2590
        evolution._size_spectrum(2590)
        with pytest.raises(ConfigError, match="256 MiB limit"):
            evolution._size_spectrum(2591)

    def test_oversized_full_run_is_refused_before_any_state(self, monkeypatch):
        # n = 64: refused from n alone, before H's O(n^3) norm, in simulate_model and integrate
        def forbidden(*args, **kwargs):
            raise AssertionError("eigvalsh ran")

        model = random_amplitude_model(np.random.default_rng(64), 8, 8)
        p_all, cfg = model.rate_table().flat_probabilities(), IntegratorConfig(t_max=1e-3)
        monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
        with pytest.raises(ConfigError, match="assemble its generator"):
            simulate_model(model, cfg, mode="full")
        assert not {"_initial_dm", "_aligned_target"} & model.__dict__.keys()
        with pytest.raises(ConfigError, match="assemble its generator"):
            integrate(np.eye(64) / 64, model.hamiltonian, p_all, model.gamma, model.omega, cfg)

    def test_step_map_is_released_before_the_checks(self, monkeypatch):
        # at n = 16 the snapshot checks start with the stack and no n^2 x n^2 array beyond it
        # and hold under a stack of their own (0.47 at T = 207, in blocks); the whole run peaks
        # in _step_map, at its four arrays
        n = 16
        array = n**4 * np.dtype(float).itemsize
        model = random_amplitude_model(np.random.default_rng(16), 4, 4)
        cfg = IntegratorConfig(t_max=1.0)
        simulate_model(model, cfg, mode="full")  # the model builds its states outside the trace
        held, before, checks = [], [], []
        check = evolution._check_snapshots

        def recording(traj):
            current, peak = tracemalloc.get_traced_memory()
            held.append(current - traj.states.nbytes)
            before.append(peak)
            tracemalloc.reset_peak()
            check(traj)
            checks.append((tracemalloc.get_traced_memory()[1] - current) / traj.states.nbytes)

        monkeypatch.setattr(evolution, "_check_snapshots", recording)
        after = self._peak_arrays(lambda: simulate_model(model, cfg, mode="full"), n)
        assert held[0] / array < 0.5
        assert checks[0] <= 0.75
        assert max(before[0] / array, after) <= 4.2

    @staticmethod
    def _peak_arrays(run, n):
        # tracemalloc peak of run(), in real n^2 x n^2 arrays
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / (n**4 * np.dtype(float).itemsize)

    def test_step_map_peak_is_within_the_guard(self):
        # the guard counts four real n^2 x n^2 arrays: a, a^2, the tail and S
        n = 16
        rng = np.random.default_rng(16)
        diag_gen = dissipator.diag_generator_matrix(rng.uniform(0.05, 1.0, size=n), 5.0, 1.0)
        h = random_hermitian_unit_trace(rng, n)
        assert self._peak_arrays(lambda: evolution._step_map(diag_gen, h, 1e-3), n) <= 4.1

    def test_full_run_peak_is_within_the_guard(self):
        # the whole run, assembly through snapshot checks, at n = 25
        model = random_amplitude_model(np.random.default_rng(25), 5, 5)
        cfg = IntegratorConfig(t_max=1.0)
        assert self._peak_arrays(lambda: simulate_model(model, cfg, mode="full"), 25) <= 4.1


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

    @pytest.mark.parametrize("mode", ["full", "fast"])
    @pytest.mark.parametrize("gamma", [2.5, 20.0])
    def test_gamma_keyword_matches_replaced_model(self, mode, gamma):
        cfg = IntegratorConfig(t_max=0.5)
        models = (spin_half_scenario(ALPHA_S, ALPHA_A, 5.0, 1.0),
                  random_amplitude_model(np.random.default_rng(3), 2, 3))
        for model in models:
            kept = simulate_model(model, cfg, mode, gamma=gamma)
            replaced = simulate_model(dataclasses.replace(model, gamma=gamma), cfg, mode)
            assert kept.states.tobytes() == replaced.states.tobytes()
            assert kept.times.tobytes() == replaced.times.tobytes()
            assert (kept.dt, kept.n_steps) == (replaced.dt, replaced.n_steps)

    @pytest.mark.parametrize("gamma", [math.nan, 0.0, -1.0, math.inf])
    def test_gamma_keyword_must_be_positive_and_finite(self, two_level_model, gamma, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the run started")

        monkeypatch.setattr(evolution, "_run", forbidden)
        with pytest.raises(ValidationError, match="gamma must be positive and finite"):
            simulate_model(two_level_model, IntegratorConfig(t_max=0.1), "full", gamma=gamma)

    @pytest.mark.parametrize("mode", ["full", "fast"])
    def test_run_is_checked_and_sized_once(self, two_level_model, mode, monkeypatch):
        # the model checked its states as density matrices and its H itself, so the run is
        # sized once, with H's norm taken once, and its inputs are not checked again; every
        # run, simulate_model's or a direct solver call's, reads the family's rates once, also
        # at n = 16, where full mode reads its slow block off them too
        resolve, eigvalsh, cfg = evolution._resolve_step, np.linalg.eigvalsh, IntegratorConfig(t_max=0.1)
        rate_bounds, checked_inputs = dissipator._rate_bounds, evolution._checked_inputs
        models, calls = (two_level_model, _floor_model(16, 4)), {}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        def counted_eigvalsh(a, *args, **kwargs):
            calls["eigvalsh on H"] += np.shape(a) == h.shape and np.array_equal(a, h)
            return eigvalsh(a, *args, **kwargs)

        def forbidden(*args, **kwargs):
            raise AssertionError("_checked_inputs ran")

        monkeypatch.setattr(evolution, "_resolve_step", counted("_resolve_step", resolve))
        monkeypatch.setattr(np.linalg, "eigvalsh", counted_eigvalsh)
        for module in (evolution, dissipator):
            monkeypatch.setattr(module, "_rate_bounds", counted("_rate_bounds", rate_bounds))
        for model in models:
            h = model.hamiltonian
            expected = {"_resolve_step": 1, "eigvalsh on H": int(mode == "full"), "_rate_bounds": 1}
            calls.update(dict.fromkeys(expected, 0))
            monkeypatch.setattr(evolution, "_checked_inputs", forbidden)
            simulate_model(model, cfg, mode)
            assert calls == expected
            calls.update(dict.fromkeys(expected, 0))
            monkeypatch.setattr(evolution, "_checked_inputs", checked_inputs)
            args = (model.rate_table().flat_probabilities(), model.gamma, model.omega, cfg,
                    model.aligned_target())
            if mode == "full":
                integrate(model.initial_dm(), h, *args)
            else:
                integrate_fast_limit(model.initial_dm(), *args)
            assert calls == expected

    @pytest.mark.parametrize("field, value", [
        ("record_every", math.nan),
        ("record_points", math.nan),
        ("record_points", 2.5),
        # a bool is an int to Python, but not a count
        ("record_every", True),
        ("record_points", True),
    ])
    def test_record_fields_must_be_integers(self, field, value):
        with pytest.raises(ValidationError, match=f"{field} must be an integer"):
            IntegratorConfig(t_max=1.0, **{field: value})

    @pytest.mark.parametrize("field, value", [
        ("t_max", "1"),
        ("t_max", True),
        ("dt", "0.1"),
        ("dt", True),
        ("safety", [0.05]),
        ("safety", False),
    ])
    def test_float_fields_must_be_numbers(self, field, value):
        with pytest.raises(ValidationError, match=re.escape(f"{field} must be a number, got {value!r}")):
            IntegratorConfig(**{"t_max": 1.0, field: value})
