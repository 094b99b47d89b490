"""The weighted jump-operator family that drives pointer alignment, and its
action through the diagonal generator.

Each jump operator is an off-diagonal matrix unit ``|r><s|`` on the combined
flat basis, weighted by ``gamma * omega * q_r / q_s`` with ``q`` the flat
rate-table entries. The term moves population from ``s`` into ``r``; the
stationary state of the family is the diagonal of the squared rates.

The family's whole action is fixed by the diagonal generator M of
:func:`diag_generator_matrix`, the one place its rates are computed.
:func:`_closed_form_rhs` applies that action, plus ``-i [H, rho]`` when
there is an H, to any stack of matrices; it is the one right-hand side that
full-mode assembly, the ``qsl`` command and
:func:`apply_dissipator_closed_form` use. The dense family
(:class:`DissipatorSpec`) takes O(n^4) memory; it is kept as the independent
reference that tests check M-based code against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .model import RateTable
from .states import _as_matrix, _readonly


@dataclass(frozen=True, eq=False)
class DissipatorSpec:
    """Weighted jump-operator family: ``terms`` holds (weight, jump) pairs."""

    dim: int
    terms: tuple[tuple[float, np.ndarray], ...]

    @property
    def max_weight(self) -> float:
        """Largest coupling weight; bounds the time step of explicit steppers."""
        return max(w for w, _ in self.terms) if self.terms else 0.0


def lindblad_jump_family(rates: RateTable, gamma: float, omega: float) -> DissipatorSpec:
    """Build the full family of ``n^2 - n`` off-diagonal jump terms.

    For every ordered flat pair (r, s) with r != s the term has weight
    ``gamma * omega * q_r / q_s`` and jump operator ``|r><s|``.
    """
    q = rates.flat
    if np.any(q <= 0):
        raise ValidationError("rate table entries must be strictly positive")
    n = q.size
    scale = float(gamma) * float(omega)
    terms = []
    for r in range(n):
        for s in range(n):
            if r == s:
                continue
            jump = np.zeros((n, n), dtype=complex)
            jump[r, s] = 1.0
            terms.append((scale * q[r] / q[s], _readonly(jump)))
    return DissipatorSpec(dim=n, terms=tuple(terms))


def apply_dissipator(spec: DissipatorSpec, rho) -> np.ndarray:
    """Generic jump-family action: sum of w * (L rho L+ - (L+L rho + rho L+L)/2).

    The output is a rate, not a state: Hermitian and traceless for Hermitian
    input, zero trace regardless of the input trace's value being 1.
    """
    m = _as_matrix(rho)
    if m.shape != (spec.dim, spec.dim):
        raise ValidationError(f"matrix shape {m.shape} does not match dimension {spec.dim}")
    out = np.zeros_like(m)
    for w, jump in spec.terms:
        jd = jump.conj().T
        jdj = jd @ jump
        out += w * (jump @ m @ jd - 0.5 * (jdj @ m + m @ jdj))
    return out


def diag_generator_matrix(p_all, gamma: float, omega: float) -> np.ndarray:
    """Linear generator M of the diagonal rate equation, d' = M d.

    ``M[r, m] = gamma * omega * (q_r/q_m - delta_rm * Q/q_r)`` with
    ``q = sqrt(p)`` and ``Q = sum_k q_k``. Off-diagonal entries are the jump
    weights, ``-M[a, a]`` is the outflow rate of state a. Columns sum to zero
    and ``M @ p_all = 0``. Rates that overflow raise ValidationError.
    """
    p = np.asarray(p_all, dtype=float).reshape(-1)
    if np.any(p <= 0):
        raise ValidationError("flat probabilities must be strictly positive (floored)")
    q = np.sqrt(p)
    scale = float(gamma) * float(omega)
    with np.errstate(over="ignore"):
        m = scale * (np.outer(q, 1.0 / q) - np.diag(q.sum() / q))
    if not np.isfinite(m).all():
        raise ValidationError(f"jump rates are not finite at gamma * omega = {scale:g}")
    return m


def _coherence_generator(m: np.ndarray) -> np.ndarray:
    """Rates ``(M[a, a] + M[b, b]) / 2`` at which entry (a, b) moves under the family."""
    d = np.diagonal(m)
    return 0.5 * (d[:, None] + d[None, :])


def apply_dissipator_closed_form(rates: RateTable, gamma: float, omega: float, rho) -> np.ndarray:
    """Matrix-element form of the jump-family action, without building terms.

    The diagonal evolves as ``M @ diag(rho)`` with M from
    :func:`diag_generator_matrix`, and every off-diagonal entry (a, b) decays
    at half the summed outflow rates of a and b. The result is algebraically
    identical to :func:`apply_dissipator` on the full jump family.
    """
    m = _as_matrix(rho)
    gen = diag_generator_matrix(rates.flat_probabilities(), gamma, omega)
    n = gen.shape[0]
    if m.shape != (n, n):
        raise ValidationError(f"matrix shape {m.shape} does not match dimension {n}")
    return _closed_form_rhs(gen, None, m)


def _closed_form_rhs(gen: np.ndarray, h: np.ndarray | None, rho: np.ndarray) -> np.ndarray:
    """The closed-form right-hand side on every complex n x n matrix along
    the last two axes of ``rho``: the family's action with diagonal
    generator ``gen`` (``gen`` on the diagonal, the coherence rates of
    :func:`_coherence_generator` on every other entry), plus
    ``-i [h, rho]`` when there is an ``h``."""
    out = _coherence_generator(gen) * rho
    diagonal = np.arange(gen.shape[0])
    out[..., diagonal, diagonal] = np.diagonal(rho, axis1=-2, axis2=-1) @ gen.T
    if h is not None:
        out -= 1j * (h @ rho)
        out += 1j * (rho @ h)
    return out
