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
from collapse_sim.states import _distance_bounds, _trace_distances
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
        # |1e308|^2 overflows to inf: refused as unnormalized, without an overflow warning
        with pytest.raises(ValidationError, match="not normalized"):
            StateVector(np.array([1e308, 0.0]))

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

    @pytest.mark.parametrize("entries", [
        np.full((2, 2), np.nan),
        np.diag([np.nan, 1.0]),
        np.diag([np.inf, 0.0]),
    ])
    def test_rejects_non_finite(self, entries):
        with pytest.raises(ValidationError, match="non-finite"):
            DensityMatrix(entries)

    def test_rejects_bad_trace(self):
        with pytest.raises(ValidationError, match="trace"):
            DensityMatrix(np.eye(2))

    def test_rejects_negative_eigenvalue(self):
        m = np.diag([1.5, -0.5])
        with pytest.raises(PositivityError):
            DensityMatrix(m.astype(complex))

    @pytest.mark.parametrize("entries", [np.eye(2, 3) / 2, np.array([1.0]), np.zeros((0, 0))],
                             ids=["2x3", "vector", "empty"])
    def test_rejects_non_square(self, entries):
        with pytest.raises(ValidationError, match="must be square"):
            DensityMatrix(entries)

    def test_checks_at_the_module_tolerances_only(self):
        m = np.diag([1.0 + 5e-10, -5e-10]).astype(complex)
        with pytest.raises(PositivityError):
            DensityMatrix(m)
        with pytest.raises(TypeError):
            DensityMatrix(m, positivity_tol=1e-8)

    def test_dim_is_the_side_of_the_matrix(self):
        assert DensityMatrix(np.eye(3) / 3).dim == 3


class TestProvenStates:
    """The states the package builds are density matrices by construction, so
    they skip the public check; these tests hold the proofs to it."""

    def test_builders_make_no_eigenvalue_call(self, monkeypatch, two_level_trajectory):
        def forbidden(*args, **kwargs):
            raise AssertionError("eigvalsh was called")

        monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
        rng = np.random.default_rng(5)
        product_state_dm(random_state(rng, 3), random_state(rng, 4))
        aligned_dm([0.25, 0.75], CorrespondenceMap.from_assignment(2, 3, [[0], [1, 2]]))
        snapshots = two_level_trajectory.snapshots
        assert len(snapshots) == len(two_level_trajectory.states)

    def test_product_states_pass_the_public_check(self):
        rng = np.random.default_rng(11)
        shapes = [(1, 1), (2, 3), (30, 30)] + [tuple(rng.integers(1, 31, size=2)) for _ in range(12)]
        for outcomes, readings in shapes:
            dm = product_state_dm(random_state(rng, outcomes), random_state(rng, readings))
            checked = DensityMatrix(dm.entries)
            assert np.array_equal(checked.entries, dm.entries)
            assert not dm.entries.flags.writeable

    def test_aligned_states_pass_the_public_check(self):
        rng = np.random.default_rng(12)
        for outcomes in (1, 2, 7, 30):
            readings = outcomes + int(rng.integers(0, 31 - outcomes))
            owner = np.concatenate([np.arange(outcomes), rng.integers(0, outcomes, readings - outcomes)])
            rng.shuffle(owner)
            groups = [np.flatnonzero(owner == i).tolist() for i in range(outcomes)]
            weights = [(w / w.sum()).tolist() for w in (rng.uniform(0.5, 1.5, len(g)) for g in groups)]
            probs = np.abs(random_state(rng, outcomes)) ** 2
            for corr in (CorrespondenceMap.one_to_one(outcomes),
                         CorrespondenceMap.from_assignment(outcomes, readings, groups, weights)):
                dm = aligned_dm(probs, corr)
                checked = DensityMatrix(dm.entries)
                assert np.array_equal(checked.entries, dm.entries)
                assert not dm.entries.flags.writeable


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
        with pytest.raises(ValidationError, match="sum"):
            aligned_dm([math.nan, math.nan], CorrespondenceMap.one_to_one(2))
        with pytest.raises(ValidationError, match="non-negative"):
            aligned_dm([1.5, -0.5], CorrespondenceMap.one_to_one(2))


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

    @pytest.mark.parametrize("n", [1, 2, 4, 16, 100])
    @pytest.mark.parametrize("kind", ["dense", "diagonal", "rank one", "upper noise"])
    def test_distance_bounds_hold_the_computed_distance(self, n, kind):
        # the bounds, widened by their margin, hold the eigvalsh distance, also where they
        # are tight (a diagonal difference) and where the upper triangle is not read
        rng = np.random.default_rng(n)
        a = rng.normal(size=(64, n, n)) + 1j * rng.normal(size=(64, n, n))
        states = a + a.conj().transpose(0, 2, 1)
        if kind == "diagonal":
            states = np.diagonal(states, axis1=1, axis2=2)[:, :, None] * np.eye(n)
        elif kind == "rank one":
            states = np.einsum("ti,tj->tij", a[:, 0], a[:, 0].conj())
        elif kind == "upper noise":
            states = states + np.triu(rng.normal(size=states.shape), 1)
        target = np.diag(rng.uniform(size=n)).astype(complex)
        lower, upper, margin = _distance_bounds(states, target)
        dist = _trace_distances(states, target)
        assert (lower - margin <= dist).all() and (dist <= upper + margin).all()
        assert (margin <= 1e-11 * upper).all()
        if kind == "diagonal":
            assert np.abs(lower - dist).max() <= 2 * margin.max()
            assert np.abs(upper - dist).max() <= 2 * margin.max()


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

    def test_clamps_tiny_negative_eigenvalues(self):
        m = np.diag([1.0 + 5e-11, -5e-11]).astype(complex)
        assert von_neumann_entropy(m) == pytest.approx(0.0, abs=1e-9)

    def test_rejects_real_negative_eigenvalues(self):
        m = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(PositivityError):
            von_neumann_entropy(m)

    def test_checks_at_the_module_tolerance_only(self):
        m = np.diag([1.0 + 5e-10, -5e-10]).astype(complex)
        with pytest.raises(PositivityError):
            von_neumann_entropy(m)
        with pytest.raises(TypeError):
            von_neumann_entropy(m, positivity_tol=1e-8)

    def test_unitary_invariance(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            rho = random_density_matrix(rng, 4)
            u = random_unitary(rng, 4)
            s1 = von_neumann_entropy(rho)
            s2 = von_neumann_entropy(u @ rho @ u.conj().T)
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


@pytest.mark.parametrize("call", [
    lambda m: trace_distance(m, np.eye(2) / 2),
    lambda m: trace_distance(np.eye(2) / 2, m),
    von_neumann_entropy,
    dm_eigenvalues,
], ids=["trace distance first", "trace distance second", "entropy", "eigenvalues"])
@pytest.mark.parametrize("matrix, message", [
    # an eigenvalue call reads one triangle: I/2 in one of these two, a pure state in the other
    (np.array([[0.5, 0.5], [0.0, 0.5]]), "is not Hermitian"),
    (np.array([[0.5, 0.0], [0.5, 0.5]]), "is not Hermitian"),
    (np.array([[0.5, math.nan], [0.0, 0.5]]), "has non-finite entries"),
    (np.ones((2, 3)) / 2, "must be square"),
], ids=["upper", "lower", "NaN", "non-square"])
def test_bare_array_must_be_a_finite_hermitian_matrix(call, matrix, message):
    with pytest.raises(ValidationError, match=message):
        call(matrix)
