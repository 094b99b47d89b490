#!/usr/bin/env python3
"""Alignment time against coupling strength, plus the speed-limit bound.

Doubling the environment coupling halves the time to alignment, so the
product gamma * tau is constant across the sweep. The lower bound built
from the initial evolution speed sits far below every measured time.
"""

import math

from collapse_sim import (
    IntegratorConfig,
    alignment_time,
    apply_dissipator_closed_form,
    gamma_sweep,
    qsl_lower_bound,
    simulate_model,
    spin_half_scenario,
)

model = spin_half_scenario(0.37 * math.pi, 0.65 * math.pi, gamma=5.0, omega=1.0, epsilon=1e-4)

rows = gamma_sweep(model, [2.5, 5.0, 10.0, 20.0], IntegratorConfig(t_max=2.0), mode="full")
print("gamma    tau [1/omega]   gamma * tau")
for row in rows:
    print(f"{row.gamma:5.1f}    {row.alignment_time:.6f}       {row.gamma_times_tau:.6f}")

traj = simulate_model(model, IntegratorConfig(t_max=1.0), mode="full")
tau = alignment_time(traj, model.aligned_target(), tol=0.01)
rho0, h = model.initial_dm().entries, model.hamiltonian
initial_rhs = (apply_dissipator_closed_form(model.rate_table(), model.gamma, model.omega, rho0)
               - 1j * (h @ rho0 - rho0 @ h))
report = qsl_lower_bound(rho0, model.aligned_target(), initial_rhs, measured_alignment_time=tau)
print(f"\nstate distance to cover:     {report.numerator:.4f}")
print(f"initial diagonal speed (rms): {report.denominator:.1f}/omega")
print(f"duration bound:              {report.bound:.3e}/omega")
print(f"measured alignment time:     {tau:.4f}/omega  (ratio {report.ratio:.0f})")
