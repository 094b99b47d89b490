#!/usr/bin/env python3
"""Eigenvalue view of the population dynamics.

The diagonal entries evolve under a linear generator with one zero mode
(the stationary Born-weight distribution) and otherwise strictly decaying
modes. Expanding the initial populations in the eigenbasis reproduces the
fast-mode trajectory, whose populations are the closed-form solution of the
same rate equation.
"""

import math

import numpy as np

from collapse_sim import (
    IntegratorConfig,
    diag_generator_matrix,
    generator_spectrum,
    simulate_model,
    spin_half_scenario,
)

model = spin_half_scenario(0.37 * math.pi, 0.65 * math.pi, gamma=5.0, omega=1.0, epsilon=1e-4)
p_all = model.rate_table().flat_probabilities()

generator = diag_generator_matrix(p_all, model.gamma, model.omega)
spectrum = generator_spectrum(generator, rate_scale=model.gamma * model.omega)

print("eigenvalues of the diagonal generator:")
for k, ev in enumerate(spectrum.eigenvalues):
    marker = "  <- stationary mode" if k == spectrum.zero_index else ""
    print(f"  {ev.real:+.6e}{marker}")
print("stationary distribution:", np.round(spectrum.stationary_distribution, 8))
print("flat Born weights:      ", np.round(p_all / p_all.sum(), 8))

traj = simulate_model(model, IntegratorConfig(t_max=1.0), mode="fast")
evals, evecs = np.linalg.eig(generator)
coeff = np.linalg.solve(evecs, traj.diagonals[0])
with np.errstate(under="ignore"):
    reconstructed = (evecs @ (coeff[:, None] * np.exp(np.outer(evals, traj.times)))).T.real
print(
    "max |spectral expansion - fast-mode diagonals| =",
    f"{np.max(np.abs(reconstructed - traj.diagonals)):.2e}",
)
