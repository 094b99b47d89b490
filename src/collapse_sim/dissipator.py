"""The weighted jump-operator family that drives pointer alignment, and its
action through the diagonal generator.

Each jump operator is an off-diagonal matrix unit ``|r><s|`` on the combined
flat basis, weighted by ``gamma * omega * q_r / q_s`` with ``q`` the flat
rate-table entries. The term moves population from ``s`` into ``r``; the
stationary state of the family is the diagonal of the squared rates.

Every rate of the family has one home, :func:`_rate_bounds`, read once per
run in O(n); the diagonal generator M is built in place from its tuple by
:func:`_diag_generator` (wrapped by the public :func:`diag_generator_matrix`).
:func:`_closed_form_rhs` applies the family's action, plus ``-i [H, rho]``
when there is an H, to any stack of matrices; the ``qsl`` command and
:func:`apply_dissipator_closed_form` use it, and :func:`_generator_rows`
writes its images of the unit coordinates, full mode's G^T, bit for bit.
With an H it acts on the real coordinates ``X = Re rho + Im rho`` of a
Hermitian rho (:func:`_pack`), on which ``-i [H, rho]``, for H = R + iJ, is
``[X^T, R] + [J, X]``. :func:`_balanced_modes` balances M of the same tuple in place into
the symmetric form that detailed balance gives it, and decomposes that; fast
mode and the ``spectrum`` command read it. The dense family
(:class:`DissipatorSpec`, :func:`lindblad_jump_family`, :func:`apply_dissipator`,
:func:`master_rhs`) takes O(n^4) memory and is on no run path: it is the tests'
oracle, the reference they check M-based code against, and is not exported.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .model import RateTable
from .states import _as_matrix, _positive, _readonly


@dataclass(frozen=True, eq=False)
class DissipatorSpec:
    """Weighted jump-operator family: ``terms`` holds (weight, jump) pairs."""

    dim: int
    terms: tuple[tuple[float, np.ndarray], ...]


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


def master_rhs(hamiltonian, spec: DissipatorSpec, rho) -> np.ndarray:
    """Full right-hand side: -i[H, rho] plus the jump-family action (hbar = 1).

    ``hamiltonian`` may be None for purely dissipative evolution.
    """
    m = _as_matrix(rho)
    out = apply_dissipator(spec, m)
    if hamiltonian is not None:
        h = np.asarray(hamiltonian, dtype=complex)
        if h.shape != m.shape:
            raise ValidationError(f"Hamiltonian shape {h.shape} does not match state {m.shape}")
        out = out - 1j * (h @ m - m @ h)
    return out


def diag_generator_matrix(p_all, gamma: float, omega: float) -> np.ndarray:
    """Linear generator M of the diagonal rate equation, d' = M d.

    ``M[r, m] = gamma * omega * (q_r/q_m - delta_rm * Q/q_r)`` with
    ``q = sqrt(p)`` and ``Q = sum_k q_k``. Off-diagonal entries are the jump
    weights, ``-M[a, a]`` the outflow of state a from :func:`_rate_bounds`.
    Columns sum to zero and ``M @ p_all = 0``. Rates that overflow raise
    ValidationError.
    """
    return _diag_generator(_rate_bounds(p_all, gamma, omega))


def _diag_generator(rates) -> np.ndarray:
    """M of :func:`diag_generator_matrix`, built in place from the ``rates`` of :func:`_rate_bounds`."""
    q, scale, _, outflow = rates
    gen = np.outer(q, 1.0 / q)
    gen *= scale
    np.fill_diagonal(gen, 0.0 - outflow)  # 0.0 - x: a zero outflow gives +0.0, not -0.0
    return gen


def _rate_bounds(p_all, gamma: float, omega: float) -> tuple[np.ndarray, float, float, np.ndarray]:
    """``q = sqrt(p)``, ``gamma * omega``, the largest jump weight (0 for one
    state) and the outflow rates ``-diag(M)``, in O(n): the one home of the
    family's rates, read once per run and handed on as this tuple. A
    ValidationError unless gamma and omega are positive and finite (named as
    the config names them), every p is positive and every rate of M is finite."""
    scale = _positive(gamma, "gamma") * _positive(omega, "omega")
    p = np.asarray(p_all, dtype=float).reshape(-1)
    if np.any(p <= 0):
        raise ValidationError("flat probabilities must be strictly positive (floored)")
    q = np.sqrt(p)
    with np.errstate(over="ignore", invalid="ignore"):
        weight = float(scale * (q.max() * (1.0 / q.min()))) if q.size > 1 else 0.0
        outflow = scale * (q.sum() / q - q * (1.0 / q))
    if not (np.isfinite(weight) and np.isfinite(outflow).all()):
        raise ValidationError(f"jump rates are not finite at gamma * omega = {scale:g}")
    return q, scale, weight, outflow


def _balanced_modes(rates) -> tuple[np.ndarray, np.ndarray]:
    """The ascending eigenpairs ``(lam, V)`` of the balanced generator ``K =
    diag(1/q) M diag(q)``, formed in place from M of :func:`_diag_generator`
    on the tuple ``rates`` of :func:`_rate_bounds`, whose q its callers hold.

    The jump weights satisfy detailed balance with respect to p, so K =
    gamma * omega * (1 1^T - diag(Q/q)) with Q = sum(q) is real symmetric
    and M = diag(q) K diag(1/q): ``q * V`` holds the eigenvectors of M. K is
    negative semidefinite with q as its simple kernel (every off-diagonal
    entry is gamma * omega > 0), and, K being diagonal plus rank one, its
    nonzero rates ``-lam`` interlace ``gamma * omega * Q/q``: the k-th
    smallest lies between the k-th and (k+1)-th smallest of those.
    ``lam[-1]``, the kernel's, is set to exactly 0: its round-off would
    otherwise grow into a trace drift at long times.
    """
    q = rates[0]
    balanced = _diag_generator(rates)
    balanced *= q[None, :]
    balanced /= q[:, None]
    lam, v = np.linalg.eigh(balanced)  # one triangle: asymmetry is harmless
    lam[-1] = 0.0
    return lam, v


def _coherence_generator(d: np.ndarray) -> np.ndarray:
    """Rates ``(d[a] + d[b]) / 2`` at which entry (a, b) moves under the family, for the
    diagonal ``d`` of M: the one home of the coherence rates."""
    return 0.5 * (d[:, None] + d[None, :])


def apply_dissipator_closed_form(rates: RateTable, gamma: float, omega: float, rho) -> np.ndarray:
    """Matrix-element form of the jump-family action, without building terms.

    The diagonal evolves as ``M @ diag(rho)`` with M from
    :func:`diag_generator_matrix`, and every off-diagonal entry (a, b) decays
    at half the summed outflow rates of a and b. The result is algebraically
    identical to :func:`apply_dissipator` on the full jump family. ``rho``
    need not be Hermitian: there is no commutator term here.
    """
    m = _as_matrix(rho)
    gen = diag_generator_matrix(rates.flat_probabilities(), gamma, omega)
    n = gen.shape[0]
    if m.shape != (n, n):
        raise ValidationError(f"matrix shape {m.shape} does not match dimension {n}")
    return _closed_form_rhs(gen, None, m)


def _pack(m: np.ndarray) -> np.ndarray:
    """The real coordinates ``X = Re A + Im A`` of the Hermitian parts A of
    the matrices along the last two axes of ``m``, with ``Im A = (Im m -
    Im m^T) / 2``: the diagonal of X is ``Re diag m`` alone, so an almost
    Hermitian m keeps its trace. Exact for an exactly Hermitian m."""
    return m.real + 0.5 * (m.imag - np.swapaxes(m.imag, -1, -2))


def _unpack(x: np.ndarray) -> np.ndarray:
    """The exactly Hermitian matrices ``(x + x^T)/2 + i (x - x^T)/2`` whose
    real coordinates are the last two axes of ``x``; the inverse of
    :func:`_pack` up to round-off. Both parts are written straight into the
    one complex output, so the output is the only stack-sized allocation."""
    xt = np.swapaxes(x, -1, -2)
    out = np.empty(x.shape, dtype=complex)
    np.add(x, xt, out=out.real)
    np.subtract(x, xt, out=out.imag)
    out.real *= 0.5
    out.imag *= 0.5
    return out


def _closed_form_rhs(gen: np.ndarray, h: np.ndarray | None, x: np.ndarray) -> np.ndarray:
    """The closed-form right-hand side on every n x n matrix along the last
    two axes of ``x``: the family's action with diagonal generator ``gen``
    (``gen`` on the diagonal, the coherence rates of
    :func:`_coherence_generator` on every other entry), plus the term of
    ``-i [h, rho]`` when there is an ``h``.

    Without an ``h``, any matrices will do, real or complex. With one, ``h``
    must be Hermitian and ``x`` the real coordinates of :func:`_pack`; the
    output is then the coordinates of the rate, with the commutator term
    ``[x^T, R] + [J, x]`` for ``h = R + iJ``, added one product at a time."""
    n = gen.shape[0]
    out = _coherence_generator(np.diagonal(gen)) * x
    diagonal = np.arange(n)
    out[..., diagonal, diagonal] = np.diagonal(x, axis1=-2, axis2=-1) @ gen.T
    if h is not None:
        r, j = h.real.copy(), h.imag.copy()  # contiguous, so the products run in BLAS
        xt = np.swapaxes(x, -1, -2)
        out += xt @ r
        out -= r @ xt
        out += j @ x
        out -= x @ j
    return out


def _generator_rows(gen: np.ndarray, h: np.ndarray | None) -> np.ndarray:
    """G^T: row k = p n + q is the image under :func:`_closed_form_rhs` of unit
    coordinate k, written from index patterns in its order, zero signs included,
    so bit for bit: coh[p, q] at (p, q), or column p of ``gen`` on the diagonal
    when p = q, then, for h = R + iJ, the four terms of the commutator."""
    n = gen.shape[0]
    coh = _coherence_generator(np.diagonal(gen))
    zeros = coh * 0.0 if h is None else np.zeros((n, n))  # signed as coh * x, until H adds +0.0
    np.fill_diagonal(zeros, 0.0)  # as diag(x) @ gen.T leaves it
    rows = np.empty((n, n, n, n))  # rows[p, q] is the image of unit (p, q)
    rows[...] = zeros
    flat = rows.reshape(n * n, n * n)
    flat.flat[::n * n + 1] = coh.reshape(-1)
    flat[::n + 1, ::n + 1] = gen.T
    if h is not None:
        row_q, col_p = np.einsum("pqqc->pqc", rows), np.einsum("pqap->pqa", rows)
        col_q, row_p = np.einsum("pqaq->pqa", rows), np.einsum("pqpc->pqc", rows)
        row_q += h.real[:, None, :]  # +R[p, :] on row q
        col_p -= h.real.T  # -R[:, q] on column p
        col_q += h.imag.T[:, None, :]  # +J[:, p] on column q
        row_p -= h.imag  # -J[q, :] on row p
    return flat
