"""Independent references the tests check the package against.

``master_rhs`` is the Lindblad generator written out with 2x2 matrices, so a
plain RK4 on it is a second route to ``zenosim.lindblad.integrate``'s
scalar factors.  ``dynamical_fidelity`` takes a state's overlap with the
unitary evolution of a pure state through the propagator matrix, a second
route to decay_curve's fidelity column.
"""

import numpy as np

from zenosim.lindblad import DecoherenceParams
from zenosim.qubit import SIGMA_Z as _SZ
from zenosim.qubit import DensityMatrix, PureState, SystemHamiltonian, _require

_SIGMA_PLUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)   # |1><0|
_SIGMA_MINUS = _SIGMA_PLUS.T                                      # |0><1|
_EXCITED_PROJ = _SIGMA_PLUS @ _SIGMA_MINUS                        # |1><1|


def master_rhs(rho, t: float, params: DecoherenceParams) -> np.ndarray:
    """Interaction-picture time derivative of the state at absolute time t.

    The dephasing coefficient grows linearly in the time since preparation.
    """
    _require("t", t, 0.0)
    m = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
    out = np.zeros((2, 2), dtype=complex)
    if params.gamma1 > 0.0:
        anticomm = _EXCITED_PROJ @ m + m @ _EXCITED_PROJ
        out -= 0.5 * params.gamma1 * (anticomm - 2.0 * (_SIGMA_MINUS @ m @ _SIGMA_PLUS))
    if params.gamma2 > 0.0 and t > 0.0:
        inner = _SZ @ m - m @ _SZ
        out -= 0.5 * params.gamma2 ** 2 * t * (_SZ @ inner - inner @ _SZ)
    return out


def dynamical_fidelity(rho: DensityMatrix, psi: PureState,
                       hs: SystemHamiltonian, time: float) -> float:
    """Overlap <psi| exp(iHt) rho exp(-iHt) |psi>.

    Measures how close ``rho`` is to the purely unitary evolution of ``psi``;
    equals 1 when the state tracked the free evolution perfectly.
    """
    u = hs.evolution(time)
    value = psi.amplitudes.conj() @ (u.conj().T @ rho.matrix @ u) @ psi.amplitudes
    if abs(value.imag) >= 1e-10:
        raise ValueError(f"fidelity has non-negligible imaginary part {float(value.imag)!r}")
    return float(value.real)
