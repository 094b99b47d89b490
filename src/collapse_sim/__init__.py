"""Numerical simulator of continuous pointer-observable alignment.

Evolves the combined system+pointer density matrix under a jump-operator
family whose rate parameters are the Born amplitudes of the prepared state,
so that the dynamics relaxes onto the diagonal aligned state with the Born
probabilities as weights. Includes the dissipator-dominated reduction,
spectral analysis of the diagonal generator, speed-limit bounds, and
coupling-strength scaling studies.
"""

from .analysis import (
    GeneratorSpectrum,
    QslReport,
    SweepRow,
    gamma_sweep,
    generator_spectrum,
    qsl_lower_bound,
)
from .dissipator import apply_dissipator_closed_form, diag_generator_matrix
from .errors import (
    ConfigError,
    IntegrationError,
    NotAlignedError,
    PositivityError,
    ValidationError,
)
from .evolution import (
    IntegratorConfig,
    Trajectory,
    alignment_time,
    integrate,
    integrate_fast_limit,
    simulate_model,
)
from .model import (
    CorrespondenceMap,
    MeasurementModel,
    RateTable,
    born_probabilities,
    born_rate_table,
    spin_half_scenario,
    zeeman_hamiltonian,
)
from .states import (
    DensityMatrix,
    StateVector,
    aligned_dm,
    dm_eigenvalues,
    product_state_dm,
    trace_distance,
    von_neumann_entropy,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "CorrespondenceMap",
    "DensityMatrix",
    "GeneratorSpectrum",
    "IntegrationError",
    "IntegratorConfig",
    "MeasurementModel",
    "NotAlignedError",
    "PositivityError",
    "QslReport",
    "RateTable",
    "StateVector",
    "SweepRow",
    "Trajectory",
    "ValidationError",
    "aligned_dm",
    "alignment_time",
    "apply_dissipator_closed_form",
    "born_probabilities",
    "born_rate_table",
    "diag_generator_matrix",
    "dm_eigenvalues",
    "gamma_sweep",
    "generator_spectrum",
    "integrate",
    "integrate_fast_limit",
    "product_state_dm",
    "qsl_lower_bound",
    "simulate_model",
    "spin_half_scenario",
    "trace_distance",
    "von_neumann_entropy",
    "zeeman_hamiltonian",
]
