#!/usr/bin/env python3
"""Watch a system+pointer state relax onto the aligned diagonal form.

Both the system and the pointer start in tilted-field eigenstates; the
jump family then drives the combined density matrix to a diagonal state
whose weights are the outcome probabilities of the prepared system.
"""

import math
import os

import numpy as np

from collapse_sim import IntegratorConfig, alignment_time, simulate_model, spin_half_scenario
from collapse_sim.svgplot import write_line_plot

model = spin_half_scenario(
    alpha_s=0.37 * math.pi, alpha_a=0.65 * math.pi, gamma=5.0, omega=1.0, epsilon=1e-4
)
p1, p4 = model.probabilities()
print(f"outcome probabilities: p1 = {p1:.6f}, p4 = {p4:.6f}")

traj = simulate_model(model, IntegratorConfig(t_max=1.0), mode="full")
print(f"{traj.n_steps} steps at dt = {traj.dt:.3e}, {traj.times.size} recorded samples")

coh03 = traj.states[:, 0, 3]  # the coherence between the two aligned states
print("\n    t        diag_0    diag_3    |offdiag_03|   entropy   dist_to_target")
for k in np.linspace(0, traj.times.size - 1, 12).astype(int):
    c = math.hypot(coh03[k].real, coh03[k].imag)
    print(
        f"  {traj.times[k]:9.3e}  {traj.diagonals[k, 0]:.5f}   {traj.diagonals[k, 3]:.5f}"
        f"   {c:.5f}        {traj.entropy[k]:.5f}    {traj.trace_dist[k]:.5f}"
    )

tau = alignment_time(traj, model.aligned_target(), tol=0.01)
print(f"\ntrace distance stays below 0.01 from t = {tau:.4f}/omega on")

os.makedirs("output", exist_ok=True)
write_line_plot(
    "output/alignment.svg",
    [
        ("diag_0 / p1", traj.times, traj.diagonals[:, 0] / p1),
        ("diag_3 / p4", traj.times, traj.diagonals[:, 3] / p4),
        ("re_0_3", traj.times, coh03.real),
    ],
    title="Normalized aligned diagonals and a decaying coherence",
    xlabel="t [1/omega]",
    ylabel="value",
)
print("wrote output/alignment.svg")
