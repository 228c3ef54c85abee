"""Independent references the tests check the package against.

``master_rhs`` is the Lindblad generator written out with 2x2 matrices, so a
plain RK4 on it is a second route to ``zenosim.lindblad.integrate``'s
scalar factors.  ``dynamical_fidelity`` takes a state's overlap with the
unitary evolution of a pure state through the propagator matrix, a second
route to decay_curve's fidelity column.

The closed forms of the |+> initial state under that generator:
``closed_form_rho_rotating`` is the interaction-picture state, the reference
of the integrator and of the non-selective coherence at N = 1;
``closed_form_rho`` turns it into the lab frame of a given Hamiltonian with
propagator matrices, a second route to decay_curve's Bloch-vector turn; and
``pure_dephasing_coherence`` is the normalised coherence envelope
exp(-(gamma2 t)^2) without relaxation.  They keep the library's argument
rule, so a negative or nan time raises a ValueError that names it.
"""

import math

import numpy as np

from zenosim.lindblad import DecoherenceParams
from zenosim.qubit import SIGMA_Z as _SZ
from zenosim.qubit import DensityMatrix, PureState, SystemHamiltonian, _require
from zenosim.zeno import _square

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


def closed_form_rho_rotating(params: DecoherenceParams, t: float) -> DensityMatrix:
    """Closed-form state at t of |+>, in the interaction picture.

    The excited population relaxes as exp(-gamma1 t) / 2 and the coherence
    decays as exp(-gamma1 t / 2 - (gamma2 t)^2) / 2.
    """
    t = _require("t", t, 0.0)
    g1, g2 = params.gamma1, params.gamma2
    excited = 0.5 * math.exp(-g1 * t)
    off = 0.5 * math.exp(-0.5 * g1 * t - _square(g2 * t))
    return DensityMatrix(np.array([[1.0 - excited, off], [off, excited]], dtype=complex))


def closed_form_rho(params: DecoherenceParams, hs: SystemHamiltonian, t: float) -> DensityMatrix:
    """``closed_form_rho_rotating`` conjugated by the free evolution under hs: the lab frame."""
    t = _require("t", t, 0.0)
    u = hs.evolution(t)
    return DensityMatrix(u @ closed_form_rho_rotating(params, t).matrix @ u.conj().T)


def pure_dephasing_coherence(gamma2: float, t: float) -> float:
    """Normalised |+> coherence envelope exp(-(gamma2 t)^2) under pure dephasing.

    Equals the quasi-static noise-ensemble average with coupling
    gamma2/sqrt(2): E[exp(-2i lambda f0 t)] = exp(-2 lambda^2 t^2).
    Without dephasing or time it is 1, also for an infinite t or gamma2.
    """
    gamma2 = _require("gamma2", gamma2, 0.0, allow_inf=True)
    t = _require("t", t, 0.0, allow_inf=True)
    if gamma2 == 0.0 or t == 0.0:
        return 1.0
    return math.exp(-_square(gamma2 * t))
