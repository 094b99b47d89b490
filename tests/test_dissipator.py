import math
import types

import numpy as np
import pytest

import collapse_sim
from collapse_sim import (
    CorrespondenceMap,
    ValidationError,
    aligned_dm,
    apply_dissipator_closed_form,
    born_rate_table,
)
from collapse_sim import cli, dissipator, evolution
from collapse_sim.dissipator import apply_dissipator, lindblad_jump_family
from collapse_sim.model import RateTable
from conftest import balanced_draws, random_hermitian_unit_trace


def mild_random_table(rng, n_rows, n_cols, floor=0.05):
    values = rng.uniform(floor, 1.0, size=(n_rows, n_cols))
    return RateTable(values, floor)


class TestJumpFamily:
    def test_term_count(self):
        table = born_rate_table([0.5, 0.5], CorrespondenceMap.one_to_one(2), 1e-4)
        spec = lindblad_jump_family(table, 1.0, 1.0)
        assert spec.dim == 4
        assert len(spec.terms) == 12

    def test_uniform_rates_cancel(self):
        table = RateTable(np.full((2, 2), 0.3), 0.3)
        spec = lindblad_jump_family(table, 2.0, 1.5)
        assert all(w == pytest.approx(3.0) for w, _ in spec.terms)

    def test_floor_induced_stiff_weight(self):
        # anti-aligned flat state (0,1) draining into aligned (0,0)
        table = born_rate_table([0.5, 0.5], CorrespondenceMap.one_to_one(2), 1e-4)
        spec = lindblad_jump_family(table, 1.0, 1.0)
        weight = next(w for w, jump in spec.terms if jump[0, 1] == 1.0)
        assert weight == pytest.approx(math.sqrt(0.5) / 1e-4, rel=1e-12)
        assert weight == pytest.approx(7071.1, abs=0.1)
        assert max(w for w, _ in spec.terms) == pytest.approx(math.sqrt(0.5) / 1e-4)

    def test_jump_operators_are_matrix_units(self):
        table = mild_random_table(np.random.default_rng(0), 2, 2)
        spec = lindblad_jump_family(table, 1.0, 1.0)
        for _, jump in spec.terms:
            nz = np.nonzero(jump)
            assert len(nz[0]) == 1
            assert jump[nz][0] == 1.0
            assert nz[0][0] != nz[1][0]

    def test_rejects_nonpositive_rates(self):
        bad = types.SimpleNamespace(flat=np.array([1.0, -0.5, 0.2, 0.3]))
        with pytest.raises(ValidationError, match="positive"):
            lindblad_jump_family(bad, 1.0, 1.0)


class TestRateLaw:
    @pytest.mark.parametrize("readings", [2, 8, 32, 128])
    @pytest.mark.parametrize("split", ["halves", "one-reading"])
    def test_support_outflows_follow_the_pointer_law(self, readings, split):
        # outcome i with J_i uniformly shared readings has q = sqrt(p_i / J_i) at each of them,
        # and the F = J unassigned entries q = epsilon, so every support outflow gamma omega (Q / q - 1)
        # is gamma omega (sqrt(J_i / p_i) (sum_k sqrt(p_k J_k) + F epsilon) - 1): it grows as J
        # (largest relative gap 1.5 machine eps measured)
        p = np.array([math.cos(0.37 * math.pi) ** 2, math.sin(0.37 * math.pi) ** 2])
        first = readings // 2 if split == "halves" else 1
        groups = [list(range(first)), list(range(first, readings))]
        epsilon, gamma, omega = 1e-4 / readings, 5.0, 1.0
        table = born_rate_table(p, CorrespondenceMap.from_assignment(2, readings, groups), epsilon)
        outflow = dissipator._rate_bounds(table.flat_probabilities(), gamma, omega)[3]
        counts = np.array([len(g) for g in groups])
        total = np.sqrt(p * counts).sum() + readings * epsilon
        for i, group in enumerate(groups):
            law = gamma * omega * (math.sqrt(counts[i] / p[i]) * total - 1)
            gap = np.abs(outflow[i * readings + np.array(group)] / law - 1)
            assert gap.max() <= 8 * np.finfo(float).eps


class TestApplyDissipator:
    def test_trace_free_random(self):
        rng = np.random.default_rng(21)
        table = mild_random_table(rng, 2, 2)
        spec = lindblad_jump_family(table, 1.0, 1.0)
        for _ in range(1000):
            rho = random_hermitian_unit_trace(rng, 4)
            out = apply_dissipator(spec, rho)
            assert abs(np.trace(out)) < 1e-12 * 4

    def test_hermiticity_preserved_random(self):
        rng = np.random.default_rng(22)
        table = mild_random_table(rng, 2, 2)
        spec = lindblad_jump_family(table, 1.3, 0.7)
        for _ in range(200):
            rho = random_hermitian_unit_trace(rng, 4)
            out = apply_dissipator(spec, rho)
            assert np.max(np.abs(out - out.conj().T)) < 1e-12

    def test_dim_mismatch(self):
        table = mild_random_table(np.random.default_rng(1), 2, 2)
        spec = lindblad_jump_family(table, 1.0, 1.0)
        with pytest.raises(ValidationError, match="match"):
            apply_dissipator(spec, np.eye(3))

    def test_stationary_for_squared_rates_any_table(self):
        rng = np.random.default_rng(40)
        for _ in range(100):
            gamma = float(rng.uniform(0.5, 10.0))
            omega = float(rng.uniform(0.5, 2.0))
            table = mild_random_table(rng, 2, 2, floor=1e-3)
            spec = lindblad_jump_family(table, gamma, omega)
            fixed = np.diag(table.flat_probabilities().astype(complex))
            residual = np.max(np.abs(apply_dissipator(spec, fixed)))
            assert residual <= 1e-10 * gamma * omega

    def test_stationary_with_born_rates_and_floor(self, two_level_model):
        table = two_level_model.rate_table()
        gamma, omega = two_level_model.gamma, two_level_model.omega
        spec = lindblad_jump_family(table, gamma, omega)
        # aligned state extended with the floored squares on the anti diagonal
        probs = two_level_model.probabilities()
        extended = aligned_dm(probs, two_level_model.correspondence).entries.copy()
        eps_sq = two_level_model.epsilon**2
        extended[1, 1] += eps_sq
        extended[2, 2] += eps_sq
        residual = np.max(np.abs(apply_dissipator(spec, extended)))
        assert residual <= 1e-10 * gamma * omega


class TestClosedForm:
    def test_matches_generic_family_random(self):
        rng = np.random.default_rng(33)
        for _ in range(100):
            gamma = float(rng.uniform(0.5, 5.0))
            omega = float(rng.uniform(0.5, 2.0))
            table = mild_random_table(rng, 2, 2, floor=0.02)
            spec = lindblad_jump_family(table, gamma, omega)
            rho = random_hermitian_unit_trace(rng, 4)
            generic = apply_dissipator(spec, rho)
            closed = apply_dissipator_closed_form(table, gamma, omega, rho)
            tol = 1e-12 * gamma * omega / table.flat.min()
            assert np.max(np.abs(generic - closed)) <= tol

    def test_matches_generic_on_stiff_born_table(self, two_level_model):
        rng = np.random.default_rng(34)
        table = two_level_model.rate_table()
        gamma, omega = two_level_model.gamma, two_level_model.omega
        spec = lindblad_jump_family(table, gamma, omega)
        for _ in range(20):
            rho = random_hermitian_unit_trace(rng, 4)
            generic = apply_dissipator(spec, rho)
            closed = apply_dissipator_closed_form(table, gamma, omega, rho)
            tol = 1e-12 * gamma * omega / table.floor
            assert np.max(np.abs(generic - closed)) <= tol

    def test_squared_rates_substitution_vanishes(self):
        rng = np.random.default_rng(35)
        table = mild_random_table(rng, 3, 3, floor=0.01)
        fixed = np.diag(table.flat_probabilities().astype(complex))
        out = apply_dissipator_closed_form(table, 2.0, 1.0, fixed)
        assert np.max(np.abs(out)) <= 1e-12

    def test_real_elements_stay_real(self):
        rng = np.random.default_rng(36)
        table = mild_random_table(rng, 2, 2)
        rho = random_hermitian_unit_trace(rng, 4).real.astype(complex)
        out = apply_dissipator_closed_form(table, 1.0, 1.0, rho)
        assert np.max(np.abs(out.imag)) <= 1e-14
        spec = lindblad_jump_family(table, 1.0, 1.0)
        assert np.max(np.abs(apply_dissipator(spec, rho).imag)) <= 1e-14

    def test_trace_free(self):
        rng = np.random.default_rng(37)
        table = mild_random_table(rng, 2, 3)
        rho = random_hermitian_unit_trace(rng, 6)
        out = apply_dissipator_closed_form(table, 1.0, 1.0, rho)
        assert abs(np.trace(out)) < 1e-12 * 6

    def test_dim_mismatch(self):
        table = mild_random_table(np.random.default_rng(2), 2, 2)
        with pytest.raises(ValidationError, match="match"):
            apply_dissipator_closed_form(table, 1.0, 1.0, np.eye(3))

    def test_non_hermitian_input_without_hamiltonian(self):
        # the action alone takes any matrix: elementwise rates off the
        # diagonal, M @ diag(rho) on it
        rng = np.random.default_rng(38)
        table = mild_random_table(rng, 2, 3)
        gen = dissipator.diag_generator_matrix(table.flat_probabilities(), 1.5, 0.5)
        rho = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        expected = dissipator._coherence_generator(np.diagonal(gen)) * rho
        expected[range(6), range(6)] = gen @ np.diagonal(rho)
        out = apply_dissipator_closed_form(table, 1.5, 0.5, rho)
        assert np.abs(out - expected).max() <= 1e-15 * np.abs(expected).max()
        assert np.abs(out - out.conj().T).max() > 1e-3


class TestCommutator:
    # in the real coordinates X = Re rho + Im rho, -i [H, rho] = [X^T, R] + [J, X]
    # for H = R + iJ, against the two-product complex form -i (H rho) + i (rho H);
    # the comparison also holds the rounding of _pack and _unpack, about two ulps
    # of the largest entry (at most 3.9e-16 relative over 100 seeds, n <= 25)
    RELATIVE = 4e-16

    @staticmethod
    def _two_product_rhs(gen, h, rho):
        out = dissipator._closed_form_rhs(gen, None, rho)
        out -= 1j * (h @ rho)
        out += 1j * (rho @ h)
        return out

    @staticmethod
    def _setup(rng, n):
        gen = dissipator.diag_generator_matrix(rng.uniform(0.05, 1.0, size=n), 5.0, 1.0)
        return gen, random_hermitian_unit_trace(rng, n)

    def _check_against_two_product(self, gen, h, rho):
        out = dissipator._unpack(dissipator._closed_form_rhs(gen, h, dissipator._pack(rho)))
        expected = self._two_product_rhs(gen, h, rho)
        assert np.abs(out - expected).max() <= self.RELATIVE * np.abs(expected).max()
        assert np.array_equal(out, out.conj().swapaxes(-1, -2))

    @pytest.mark.parametrize("n", [1, 2, 4, 9, 16])
    def test_bit_equal_on_hermitian_unit_stack(self, n):
        # the family's action on the unit coordinates is bit-equal to its
        # action on the Hermitian matrices they unpack to, either way round
        gen, h = self._setup(np.random.default_rng(70 + n), n)
        units = np.eye(n * n).reshape(n * n, n, n)
        basis = dissipator._unpack(units)
        action = dissipator._closed_form_rhs(gen, None, units)
        assert np.array_equal(action, dissipator._pack(dissipator._closed_form_rhs(gen, None, basis)))
        assert np.array_equal(dissipator._unpack(action), dissipator._closed_form_rhs(gen, None, basis))
        self._check_against_two_product(gen, h, basis)

    @pytest.mark.parametrize("n", [2, 4, 9, 16])
    def test_random_hermitian_stacks(self, n):
        rng = np.random.default_rng(80 + n)
        gen, h = self._setup(rng, n)
        stack = np.array([random_hermitian_unit_trace(rng, n) for _ in range(7)])
        self._check_against_two_product(gen, h, stack)
        action = dissipator._closed_form_rhs(gen, None, dissipator._pack(stack))
        expected = dissipator._pack(dissipator._closed_form_rhs(gen, None, stack))
        assert np.abs(action - expected).max() <= self.RELATIVE * np.abs(expected).max()


class TestBalancedModes:
    def test_decomposes_diagonal_plus_rank_one(self, monkeypatch):
        # the matrix handed to eigh is M balanced bit for bit as M * q[None, :] / q[:, None],
        # K = gamma omega (1 1^T - diag(Q/q)) up to round-off
        seen = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda k: seen.append(k.copy()) or eigh(k))
        for p, gamma, omega in balanced_draws(60):
            rates = dissipator._rate_bounds(p, gamma, omega)
            q = rates[0]
            dissipator._balanced_modes(rates)
            assert np.array_equal(q, np.sqrt(p))
            k = seen.pop()
            balanced = dissipator.diag_generator_matrix(p, gamma, omega) * q[None, :] / q[:, None]
            assert np.array_equal(k, balanced)
            expected = gamma * omega * (1.0 - np.diag(q.sum() / q))
            assert np.abs(k - expected).max() <= 1e-15 * np.abs(expected).max()
        assert not seen

    def test_kernel_exactly_zero_and_ascending(self):
        for p, gamma, omega in balanced_draws(60):
            lam, v = dissipator._balanced_modes(dissipator._rate_bounds(p, gamma, omega))
            assert lam[-1] == 0.0
            assert np.all(np.diff(lam) >= 0.0)
            assert v.shape == (p.size, p.size)

    def test_rates_interlace_scaled_outflows(self):
        # the k-th smallest nonzero rate lies in [d_k, d_{k+1}], d = sort(gamma omega Q/q)
        checks = 0
        for p, gamma, omega in balanced_draws():
            lam, _ = dissipator._balanced_modes(dissipator._rate_bounds(p, gamma, omega))
            q = np.sqrt(p)
            d = np.sort(gamma * omega * q.sum() / q)
            rates = -lam[-2::-1]
            tol = 1e-13 * d[-1]
            assert np.all(rates >= d[:-1] - tol) and np.all(rates <= d[1:] + tol)
            checks += 2 * rates.size
        assert checks > 10000


class TestPublicNames:
    DENSE = ("DissipatorSpec", "apply_dissipator", "lindblad_jump_family", "master_rhs")

    def test_exported_names_resolve_once_in_order(self):
        names = collapse_sim.__all__
        assert all(hasattr(collapse_sim, name) for name in names)
        assert names == sorted(names)
        assert len(set(names)) == len(names)

    def test_dense_family_is_not_exported(self):
        for name in self.DENSE:
            assert name not in collapse_sim.__all__
            assert not hasattr(collapse_sim, name), name

    def test_dense_family_lives_in_one_module(self):
        for name in self.DENSE:
            assert getattr(dissipator, name).__module__ == "collapse_sim.dissipator"
        assert cli.master_rhs is evolution.master_rhs is dissipator.master_rhs
