import math

import numpy as np
import pytest

from collapse_sim import (
    CorrespondenceMap,
    DensityMatrix,
    PositivityError,
    StateVector,
    ValidationError,
    aligned_dm,
    dm_eigenvalues,
    product_state_dm,
    trace_distance,
    von_neumann_entropy,
)
from conftest import (
    ALPHA_A,
    ALPHA_S,
    random_density_matrix,
    random_state,
    random_unitary,
)


class TestStateVector:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValidationError, match="not normalized"):
            StateVector(np.array([1.0, 1.0]))
        with pytest.raises(ValidationError, match="not normalized"):
            StateVector(np.array([np.nan, 1.0]))

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            StateVector(np.array([]))

    def test_dim(self):
        assert StateVector(np.array([0, 1, 0])).dim == 3

    def test_immutable(self):
        vec = StateVector(np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            vec.amplitudes[0] = 0.5


class TestDensityMatrix:
    def test_rejects_non_hermitian(self):
        m = np.array([[1.0, 0.5], [0.0, 0.0]])
        with pytest.raises(ValidationError, match="Hermitian"):
            DensityMatrix(m)

    def test_rejects_bad_trace(self):
        with pytest.raises(ValidationError, match="trace"):
            DensityMatrix(np.eye(2))

    def test_rejects_negative_eigenvalue(self):
        m = np.diag([1.5, -0.5])
        with pytest.raises(PositivityError):
            DensityMatrix(m.astype(complex))

    def test_tolerance_overrides(self):
        m = np.diag([1.0 + 5e-10, -5e-10]).astype(complex)
        with pytest.raises(PositivityError):
            DensityMatrix(m)
        loose = DensityMatrix(m, positivity_tol=1e-8, trace_tol=1e-9)
        assert loose.dim == 2


class TestProductStateDm:
    def test_basis_product_state(self):
        dm = product_state_dm(StateVector([1, 0]), StateVector([1, 0]))
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        assert np.allclose(dm.entries, expected, atol=1e-15)

    def test_purity_and_invariants_random(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            dims = rng.integers(2, 4, size=2)
            dm = product_state_dm(random_state(rng, dims[0]), random_state(rng, dims[1]))
            purity = np.trace(dm.entries @ dm.entries).real
            assert abs(purity - 1.0) < 1e-10

    def test_matches_four_index_oracle(self):
        sys_amps = np.array([math.cos(ALPHA_S), math.sin(ALPHA_S)], dtype=complex)
        app_amps = np.array([math.cos(ALPHA_A), math.sin(ALPHA_A)], dtype=complex)
        dm = product_state_dm(StateVector(sys_amps), StateVector(app_amps))
        for i in range(2):
            for j in range(2):
                for ip in range(2):
                    for jp in range(2):
                        expected = (
                            sys_amps[i] * app_amps[j]
                            * np.conj(app_amps[jp]) * np.conj(sys_amps[ip])
                        )
                        assert dm.entries[i * 2 + j, ip * 2 + jp] == pytest.approx(expected, abs=1e-15)

    def test_complex_amplitudes_oracle(self):
        rng = np.random.default_rng(3)
        sys_amps = random_state(rng, 2)
        app_amps = random_state(rng, 3)
        dm = product_state_dm(StateVector(sys_amps), StateVector(app_amps))
        for i in range(2):
            for j in range(3):
                for ip in range(2):
                    for jp in range(3):
                        expected = (
                            sys_amps[i] * app_amps[j]
                            * np.conj(app_amps[jp]) * np.conj(sys_amps[ip])
                        )
                        assert dm.entries[i * 3 + j, ip * 3 + jp] == pytest.approx(expected, abs=1e-14)

    def test_rejects_unnormalized_naming_vector(self):
        good = StateVector([1, 0])
        with pytest.raises(ValidationError, match=r"app.*not normalized.*2"):
            product_state_dm(good, np.array([1.0, 1.0]))


class TestAlignedDm:
    def test_deterministic_outcome(self):
        dm = aligned_dm([1.0, 0.0], CorrespondenceMap.one_to_one(2))
        assert np.allclose(dm.entries, np.diag([1, 0, 0, 0]), atol=1e-15)

    def test_equal_superposition(self):
        dm = aligned_dm([0.5, 0.5], CorrespondenceMap.one_to_one(2))
        assert np.allclose(dm.entries, np.diag([0.5, 0, 0, 0.5]), atol=1e-15)

    def test_two_readings_split_the_outcome_weight(self):
        corr = CorrespondenceMap.from_assignment(2, 3, [[0], [1, 2]])
        p = 0.3
        dm = aligned_dm([p, 1.0 - p], corr)
        diag = np.diagonal(dm.entries).real
        assert diag[0] == pytest.approx(p)
        assert diag[4] == pytest.approx((1.0 - p) / 2)
        assert diag[5] == pytest.approx((1.0 - p) / 2)
        assert diag[[1, 2, 3]] == pytest.approx([0, 0, 0])

    def test_rejects_bad_probabilities(self):
        with pytest.raises(ValidationError, match="sum"):
            aligned_dm([0.5, 0.4], CorrespondenceMap.one_to_one(2))


class TestTraceDistance:
    def test_identical_states(self):
        dm = aligned_dm([0.5, 0.5], CorrespondenceMap.one_to_one(2))
        assert trace_distance(dm, dm) == 0.0

    def test_orthogonal_pure_states(self):
        a = np.diag([1.0, 0.0]).astype(complex)
        b = np.diag([0.0, 1.0]).astype(complex)
        assert trace_distance(a, b) == pytest.approx(1.0)

    def test_dim_mismatch(self):
        with pytest.raises(ValidationError, match="mismatch"):
            trace_distance(np.eye(2), np.eye(3))

    def test_reference_scenario_distance(self, two_level_model):
        # singular-value oracle for the distance between the initial product
        # state and the aligned target; this number feeds the speed bound
        rho0 = two_level_model.initial_dm()
        target = two_level_model.aligned_target()
        sv = np.linalg.svd(rho0.entries - target.entries, compute_uv=False)
        expected = 0.5 * sv.sum()
        value = trace_distance(rho0, target)
        assert value == pytest.approx(expected, abs=1e-12)
        assert value == pytest.approx(0.6037910511936739, abs=1e-12)

    def test_metric_axioms_random(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            a = random_density_matrix(rng, 4)
            b = random_density_matrix(rng, 4)
            c = random_density_matrix(rng, 4)
            dab = trace_distance(a, b)
            assert dab >= 0.0
            assert dab <= 1.0 + 1e-12
            assert abs(dab - trace_distance(b, a)) < 1e-12
            assert dab <= trace_distance(a, c) + trace_distance(c, b) + 1e-10


class TestVonNeumannEntropy:
    def test_pure_state(self, two_level_model):
        assert von_neumann_entropy(two_level_model.initial_dm()) < 1e-9

    def test_maximally_mixed(self):
        dm = DensityMatrix(np.eye(4, dtype=complex) / 4.0)
        assert von_neumann_entropy(dm) == pytest.approx(math.log(4.0), abs=1e-12)

    def test_aligned_asymptote(self):
        p1 = math.cos(ALPHA_S) ** 2
        p4 = math.sin(ALPHA_S) ** 2
        dm = aligned_dm([p1, p4], CorrespondenceMap.one_to_one(2))
        expected = -(p1 * math.log(p1) + p4 * math.log(p4))
        assert von_neumann_entropy(dm) == pytest.approx(expected, abs=1e-12)

    def test_log_base_two(self):
        dm = DensityMatrix(np.eye(2, dtype=complex) / 2.0)
        assert von_neumann_entropy(dm, log_base=2.0) == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(ValidationError):
            von_neumann_entropy(dm, log_base=1.0)

    def test_clamps_tiny_negative_eigenvalues(self):
        m = np.diag([1.0 + 5e-11, -5e-11]).astype(complex)
        assert von_neumann_entropy(m) == pytest.approx(0.0, abs=1e-9)

    def test_rejects_real_negative_eigenvalues(self):
        m = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(PositivityError):
            von_neumann_entropy(m)

    def test_unitary_invariance(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            rho = random_density_matrix(rng, 4)
            u = random_unitary(rng, 4)
            s1 = von_neumann_entropy(rho)
            s2 = von_neumann_entropy(u @ rho @ u.conj().T, positivity_tol=1e-9)
            assert abs(s1 - s2) < 1e-9


class TestDmEigenvalues:
    def test_already_diagonal(self):
        evals = dm_eigenvalues(np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex))
        assert evals == pytest.approx([0.5, 0.5, 0.0, 0.0], abs=1e-15)

    def test_pure_state_rank_one(self, two_level_model):
        evals = dm_eigenvalues(two_level_model.initial_dm())
        assert evals == pytest.approx([1.0, 0.0, 0.0, 0.0], abs=1e-10)

    def test_descending_sum_and_floor_random(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            evals = dm_eigenvalues(random_density_matrix(rng, 5))
            assert np.all(np.diff(evals) <= 1e-15)
            assert abs(evals.sum() - 1.0) < 1e-10
            assert evals.min() >= -1e-10
