"""Single-qubit open-system simulator.

Cross-validates the two faces of qubit decoherence -- quadratic-exponent
decay from low-frequency (quasi-static) noise and exponential decay from
short-correlation noise -- and the repeated-projective-measurement protocols
that exploit the difference.  Stochastic trajectory ensembles and the
deterministic master equation are independent routes to the same answers and
are tested against each other.
"""

from .lindblad import (DecoherenceParams, IntegrationResult, PositivityLossError,
                       closed_form_rho, closed_form_rho_rotating, integrate,
                       master_rhs, pure_dephasing_coherence)
from .noise import (EnsembleResult, NoiseKind, NoiseModel, ensemble_average,
                    stream_generator)
from .qubit import (IDENTITY, SIGMA_MINUS, SIGMA_PLUS, SIGMA_X, SIGMA_Y, SIGMA_Z,
                    DensityMatrix, PureState, QubitOperator, SystemHamiltonian,
                    bloch_vector, corotating_projector, dynamical_fidelity,
                    plus_state, rotation_y)
from .tables import Table, write_csv
from .zeno import (EngineKind, NoiseReset, ProtocolConfig, ProtocolKind,
                   ProtocolResult, coherence_ratio, figure2_sweep,
                   figure3_surface, nonselective_coherence, nonselective_rho,
                   nonselective_run_mc, pn_analytic, pn_approx, selective_run_mc,
                   selective_step_probability)

__version__ = "0.1.0"

__all__ = [
    "DecoherenceParams", "IntegrationResult", "PositivityLossError",
    "closed_form_rho", "closed_form_rho_rotating", "integrate", "master_rhs",
    "pure_dephasing_coherence",
    "EnsembleResult", "NoiseKind", "NoiseModel", "ensemble_average", "stream_generator",
    "IDENTITY", "SIGMA_MINUS", "SIGMA_PLUS", "SIGMA_X", "SIGMA_Y", "SIGMA_Z",
    "DensityMatrix", "PureState", "QubitOperator", "SystemHamiltonian",
    "bloch_vector", "corotating_projector", "dynamical_fidelity", "plus_state",
    "rotation_y",
    "Table", "write_csv",
    "EngineKind", "NoiseReset", "ProtocolConfig", "ProtocolKind", "ProtocolResult",
    "coherence_ratio", "figure2_sweep", "figure3_surface", "nonselective_coherence",
    "nonselective_rho", "nonselective_run_mc", "pn_analytic", "pn_approx",
    "selective_run_mc", "selective_step_probability",
]
