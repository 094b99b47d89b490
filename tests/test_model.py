import math

import numpy as np
import pytest

from collapse_sim import (
    ConfigError,
    CorrespondenceMap,
    MeasurementModel,
    StateVector,
    ValidationError,
    born_probabilities,
    born_rate_table,
    spin_half_scenario,
    zeeman_hamiltonian,
)
from collapse_sim.model import RateTable
from conftest import ALPHA_A, ALPHA_S, random_state


class TestCorrespondenceMap:
    def test_one_to_one(self):
        corr = CorrespondenceMap.one_to_one(3)
        assert corr.aligned_flat_indices() == [0, 4, 8]

    def test_uniform_weights_by_default(self):
        corr = CorrespondenceMap.from_assignment(2, 3, [[0], [1, 2]])
        assert corr.weights == ((1.0,), (0.5, 0.5))

    def test_rejects_shared_reading(self):
        with pytest.raises(ValidationError, match="more than one outcome"):
            CorrespondenceMap.from_assignment(2, 2, [[0], [0]])

    def test_rejects_out_of_range_reading(self):
        with pytest.raises(ValidationError, match="outside"):
            CorrespondenceMap.from_assignment(2, 2, [[0], [5]])

    def test_rejects_empty_group(self):
        with pytest.raises(ValidationError, match="no readings"):
            CorrespondenceMap.from_assignment(2, 2, [[0, 1], []])

    def test_rejects_bad_weights(self):
        with pytest.raises(ValidationError, match="sum"):
            CorrespondenceMap.from_assignment(1, 2, [[0, 1]], [[0.5, 0.6]])
        with pytest.raises(ValidationError, match="positive"):
            CorrespondenceMap.from_assignment(2, 2, [[0], [1]], [[math.nan], [1.0]])

    def test_flat_weights_place_born_weights_at_flat_indices(self):
        corr = CorrespondenceMap.from_assignment(2, 3, [[0], [2, 1]], [[1.0], [0.25, 0.75]])
        weights = corr.flat_weights([0.36, 0.64])
        assert weights == pytest.approx([0.36, 0.0, 0.0, 0.0, 0.48, 0.16], abs=1e-15)
        assert corr.aligned_flat_indices() == [0, 4, 5]

    def test_flat_weights_rejects_wrong_outcome_count(self):
        with pytest.raises(ValidationError, match="1 probabilities for 2 outcomes"):
            CorrespondenceMap.one_to_one(2).flat_weights([1.0])

    @pytest.mark.parametrize("reading", [1.9, "2", True], ids=["float", "string", "bool"])
    def test_assignment_rejects_non_integer_reading(self, reading):
        with pytest.raises(ValidationError, match=r"reading index must be an integer, got"):
            CorrespondenceMap.from_assignment(2, 3, [[0], [reading, 2]])

    def test_direct_map_rejects_fractional_reading(self):
        with pytest.raises(ValidationError, match=r"reading index must be an integer, got 1\.5"):
            CorrespondenceMap(2, 2, ((0,), (1.5,)), ((1.0,), (1.0,)))

    def test_rejects_bool_count(self):
        with pytest.raises(ValidationError, match="outcomes must be an integer, got True"):
            CorrespondenceMap(True, 1, ((0,),), ((1.0,),))

    @pytest.mark.parametrize("outcomes, readings, assignment, weights, message", [
        (0, 1, (), (), "outcome and reading counts must be positive"),
        (2, 2, ((0,),), ((1.0,),), "assignment and weights must cover every outcome"),
    ], ids=["no outcomes", "uncovered outcome"])
    def test_direct_map_rejects_bad_shape(self, outcomes, readings, assignment, weights, message):
        with pytest.raises(ValidationError, match=message):
            CorrespondenceMap(outcomes, readings, assignment, weights)

    def test_one_to_one_rejects_float_size(self):
        with pytest.raises(ValidationError, match=r"n must be an integer, got 2\.0"):
            CorrespondenceMap.one_to_one(2.0)

    @pytest.mark.parametrize("weight, message", [("1", "a number, got '1'"), (10**400, "positive and finite")],
                             ids=["string", "huge_int"])
    def test_rejects_non_numeric_or_unbounded_weight(self, weight, message):
        with pytest.raises(ValidationError, match=f"reading weight must be {message}"):
            CorrespondenceMap.from_assignment(2, 2, [[0], [1]], [[weight], [1.0]])

    def test_integral_inputs_are_stored_as_int_and_float(self):
        corr = CorrespondenceMap.from_assignment(np.int64(2), 3, [[np.int64(0)], [1, 2]], [[1], [0.5, 0.5]])
        assert corr == CorrespondenceMap.from_assignment(2, 3, [[0], [1, 2]])
        assert type(corr.outcomes) is int and type(corr.assignment[0][0]) is int
        assert type(corr.weights[0][0]) is float


class TestBornProbabilities:
    def test_basis_state(self):
        assert born_probabilities(StateVector([1, 0])) == pytest.approx([1.0, 0.0])

    def test_phases_drop_out(self):
        vec = StateVector(np.array([1.0, 1.0j]) / math.sqrt(2.0))
        assert born_probabilities(vec) == pytest.approx([0.5, 0.5], abs=1e-15)

    def test_reference_angles(self):
        p = born_probabilities(StateVector([math.cos(ALPHA_S), math.sin(ALPHA_S)]))
        assert p[0] == pytest.approx(math.cos(ALPHA_S) ** 2, abs=1e-15)
        assert p[1] == pytest.approx(math.sin(ALPHA_S) ** 2, abs=1e-15)
        assert p == pytest.approx([0.1577, 0.8423], abs=1e-4)

    def test_sums_to_one_random(self):
        rng = np.random.default_rng(2)
        for _ in range(500):
            p = born_probabilities(StateVector(random_state(rng, int(rng.integers(2, 6)))))
            assert abs(p.sum() - 1.0) < 1e-12


class TestBornRateTable:
    def test_symmetric_two_level(self):
        table = born_rate_table([0.5, 0.5], CorrespondenceMap.one_to_one(2), 1e-4)
        root_half = math.sqrt(0.5)
        assert np.allclose(table.values, [[root_half, 1e-4], [1e-4, root_half]])

    def test_zero_probability_outcome_is_floored(self):
        table = born_rate_table([1.0, 0.0], CorrespondenceMap.one_to_one(2), 1e-4)
        assert np.allclose(table.values, [[1.0, 1e-4], [1e-4, 1e-4]])

    def test_two_readings_scale_the_root(self):
        corr = CorrespondenceMap.from_assignment(2, 3, [[0], [1, 2]])
        p = 0.3
        table = born_rate_table([1.0 - p, p], corr, 1e-4)
        assert table.values[1, 1] == pytest.approx(math.sqrt(p / 2.0))
        assert table.values[1, 2] == pytest.approx(math.sqrt(p / 2.0))

    def test_rejects_negative_probabilities(self):
        with pytest.raises(ValidationError, match="non-negative"):
            born_rate_table([1.5, -0.5], CorrespondenceMap.one_to_one(2), 1e-4)

    def test_rejects_nan_probabilities(self):
        with pytest.raises(ValidationError, match="sum"):
            born_rate_table([math.nan, math.nan], CorrespondenceMap.one_to_one(2), 1e-4)

    def test_floor_masking_is_an_error(self):
        with pytest.raises(ConfigError, match="mask"):
            born_rate_table([0.99, 0.01], CorrespondenceMap.one_to_one(2), 0.2)

    @pytest.mark.parametrize("root", [math.cos(math.pi / 2), np.finfo(float).eps])
    def test_roundoff_root_is_floored_like_zero(self, root):
        # cos(pi/2) = 6.1e-17 is round-off of an amplitude meant as 0, not a rate to mask
        table = born_rate_table([root**2, 1.0 - root**2], CorrespondenceMap.one_to_one(2), 1e-4)
        assert table.values.tolist() == [[1e-4, 1e-4], [1e-4, 1.0]]

    @pytest.mark.parametrize("epsilon", [1e-4, 1e-12, 1e-20])
    def test_roundoff_angle_table_is_the_amplitude_table(self, epsilon):
        # a round-off root floors to exactly epsilon even where epsilon lies below it: alpha_s =
        # pi/2 and the amplitudes [0, 1] give one table, bit for bit
        angle = spin_half_scenario(math.pi / 2, 0.3, 5.0, 1.0, epsilon).rate_table().values
        amplitudes = born_rate_table([0.0, 1.0], CorrespondenceMap.one_to_one(2), epsilon).values
        assert angle.tobytes() == amplitudes.tobytes()
        assert angle.tolist() == [[epsilon, epsilon], [epsilon, 1.0]]

    def test_root_above_roundoff_is_still_masked(self):
        root = 2 * float(np.finfo(float).eps)
        with pytest.raises(ConfigError, match=f"would mask the smallest physical rate {root!r}"):
            born_rate_table([root**2, 1.0 - root**2], CorrespondenceMap.one_to_one(2), 1e-4)

    @pytest.mark.parametrize("floor", [0.0, -1.0, math.nan, math.inf])
    def test_rate_table_rejects_bad_floor(self, floor):
        with pytest.raises(ValidationError, match="floor"):
            RateTable(np.full((2, 2), 0.5), floor)

    def test_rate_table_rejects_nan_entries(self):
        with pytest.raises(ValidationError, match="floor"):
            RateTable(np.array([[0.5, math.nan], [0.5, 0.5]]), 1e-4)

    def test_rate_table_rejects_one_dimensional_values(self):
        with pytest.raises(ValidationError, match=r"rate table must be 2-D, got shape \(4,\)"):
            RateTable(np.ones(4), 0.5)

    def test_squares_recover_probabilities(self):
        rng = np.random.default_rng(9)
        eps = 1e-4
        for _ in range(100):
            n = int(rng.integers(2, 5))
            p = born_probabilities(StateVector(random_state(rng, n)))
            if math.sqrt(p[p > 0].min()) <= eps:
                continue
            table = born_rate_table(p, CorrespondenceMap.one_to_one(n), eps)
            recovered = (table.values**2).sum(axis=1)
            assert np.all(np.abs(recovered - p) <= (n - 1) * eps**2 + 1e-15)

    def test_flat_follows_row_major_convention(self):
        corr = CorrespondenceMap.one_to_one(2)
        table = born_rate_table([0.25, 0.75], corr, 1e-4)
        assert table.flat == pytest.approx(
            [math.sqrt(0.25), 1e-4, 1e-4, math.sqrt(0.75)]
        )
        assert table.flat_probabilities() == pytest.approx([0.25, 1e-8, 1e-8, 0.75])


class TestZeemanHamiltonian:
    def test_field_along_z(self):
        h = zeeman_hamiltonian(0.0, 2.0)
        assert np.allclose(h, np.diag([1.0, -1.0]))

    def test_eigenvalues_any_angle(self):
        for alpha in (0.1, 0.37 * math.pi, 1.2, 2.9):
            evals = np.linalg.eigvalsh(zeeman_hamiltonian(alpha, 3.0))
            assert evals == pytest.approx([-1.5, 1.5], abs=1e-12)

    def test_prepared_state_is_plus_eigenvector(self):
        h = zeeman_hamiltonian(ALPHA_S, 1.0)
        v = np.array([math.cos(ALPHA_S), math.sin(ALPHA_S)])
        assert np.linalg.norm(h @ v - 0.5 * v) < 1e-12

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValidationError):
            zeeman_hamiltonian(0.3, 0.0)
        with pytest.raises(ValidationError):
            zeeman_hamiltonian(0.3, math.inf)


class TestSpinHalfScenario:
    def test_zero_angle_gives_basis_state(self):
        model = spin_half_scenario(0.0, 0.3, 1.0, 1.0)
        assert model.sys.amplitudes == pytest.approx([1.0, 0.0])

    def test_quarter_pi_gives_equal_superposition(self):
        model = spin_half_scenario(math.pi / 4.0, 0.3, 1.0, 1.0)
        assert model.sys.amplitudes == pytest.approx([math.sqrt(0.5), math.sqrt(0.5)])

    def test_reference_scenario(self, two_level_model):
        assert two_level_model.gamma == 5.0
        assert two_level_model.dim == 4
        assert two_level_model.correspondence == CorrespondenceMap.one_to_one(2)
        p = two_level_model.probabilities()
        assert p[0] == pytest.approx(math.cos(ALPHA_S) ** 2)

    def test_combined_hamiltonian_is_noninteracting_sum(self, two_level_model):
        h_sys = zeeman_hamiltonian(ALPHA_S, 1.0)
        h_app = zeeman_hamiltonian(ALPHA_A, 1.0)
        expected = np.kron(h_sys, np.eye(2)) + np.kron(np.eye(2), h_app)
        assert np.allclose(two_level_model.hamiltonian, expected, atol=1e-15)

    def test_prepared_state_residual(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            alpha_s = float(rng.uniform(0, math.pi))
            alpha_a = float(rng.uniform(0, math.pi))
            model = spin_half_scenario(alpha_s, alpha_a, 2.0, 1.5)
            h_sys = zeeman_hamiltonian(alpha_s, 1.5)
            v = model.sys.amplitudes.real
            assert np.linalg.norm(h_sys @ v - 0.75 * v) < 1e-12


class TestMeasurementModel:
    def test_rejects_nonpositive_parameters(self):
        for kwargs in ({"gamma": 0.0}, {"omega": -1.0}, {"epsilon": 0.0},
                       {"gamma": math.nan}, {"omega": math.inf}, {"epsilon": math.nan}):
            base = dict(gamma=1.0, omega=1.0, epsilon=1e-4)
            base.update(kwargs)
            with pytest.raises(ValidationError):
                MeasurementModel(
                    sys=StateVector([1, 0]),
                    app=StateVector([1, 0]),
                    correspondence=CorrespondenceMap.one_to_one(2),
                    **base,
                )

    def test_rejects_epsilon_masking_a_rate(self):
        with pytest.raises(ConfigError, match="mask"):
            spin_half_scenario(ALPHA_S, ALPHA_A, 1.0, 1.0, epsilon=0.5)

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValidationError, match="outcomes"):
            MeasurementModel(
                sys=StateVector([1, 0, 0]),
                app=StateVector([1, 0]),
                correspondence=CorrespondenceMap.one_to_one(2),
                gamma=1.0,
                omega=1.0,
                epsilon=1e-4,
            )

    def test_rejects_apparatus_dimension_mismatch(self):
        with pytest.raises(ValidationError, match="apparatus dimension 3 does not match 2 readings"):
            MeasurementModel(
                sys=StateVector([1, 0]),
                app=StateVector([1, 0, 0]),
                correspondence=CorrespondenceMap.one_to_one(2),
                gamma=1.0,
                omega=1.0,
                epsilon=1e-4,
            )

    def test_rejects_non_hermitian_hamiltonian(self):
        asymmetric = np.zeros((4, 4))
        asymmetric[0, 1] = 1.0
        not_finite = np.eye(4)
        not_finite[2, 2] = np.nan
        for h, match in ((asymmetric, "not Hermitian"), (not_finite, "non-finite entries")):
            with pytest.raises(ValidationError, match=match):
                MeasurementModel(
                    sys=StateVector([1, 0]),
                    app=StateVector([1, 0]),
                    correspondence=CorrespondenceMap.one_to_one(2),
                    gamma=1.0,
                    omega=1.0,
                    epsilon=1e-4,
                    hamiltonian=h,
                )

    def test_derived_objects_are_built_once(self):
        model = spin_half_scenario(ALPHA_S, ALPHA_A, 5.0, 1.0)
        table, rho0, target = model.rate_table(), model.initial_dm(), model.aligned_target()
        assert model.rate_table() is table
        assert model.initial_dm() is rho0
        assert model.aligned_target() is target
        assert not table.values.flags.writeable
        assert not rho0.entries.flags.writeable and not target.entries.flags.writeable

    def test_builders(self, two_level_model):
        rho0 = two_level_model.initial_dm()
        assert abs(np.trace(rho0.entries @ rho0.entries).real - 1.0) < 1e-10
        target = two_level_model.aligned_target()
        diag = np.diagonal(target.entries).real
        p = two_level_model.probabilities()
        assert diag == pytest.approx([p[0], 0.0, 0.0, p[1]], abs=1e-15)
