"""Relaxation + low-frequency dephasing master equation for one qubit.

The interaction-picture generator combines a Lindblad relaxation term with a
dephasing term whose rate grows linearly in time -- the deterministic
counterpart of averaging quasi-static sigma_z noise:

    d rho / dt = -(gamma1/2) (s+ s- rho + rho s+ s- - 2 s- rho s+)
                 - (gamma2^2 t / 2) [sigma_z, [sigma_z, rho]]

For the |+> initial state this has a closed-form solution whose off-diagonal
element decays as exp(-gamma1 t / 2 - (gamma2 t)^2) while the excited
population relaxes as exp(-gamma1 t) / 2; the fixed-step Runge-Kutta
integrator below is cross-checked against that solution in the tests.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .qubit import (SIGMA_MINUS, SIGMA_PLUS, SIGMA_Z, DensityMatrix,
                    SystemHamiltonian, first_unphysical)

_EXCITED_PROJ = SIGMA_PLUS.matrix @ SIGMA_MINUS.matrix   # |1><1|
_SZ = SIGMA_Z.matrix


class PositivityLossError(RuntimeError):
    """The integrator produced a state with a significantly negative eigenvalue."""


def dephasing_model_holds(epsilon: float, delta: float) -> bool:
    """Whether sigma_z dephasing describes H = (epsilon/2) sigma_z + (delta/2) sigma_x.

    The dephasing term assumes sigma_z noise commutes with the retained
    Hamiltonian; a sigma_x part beyond 10% of the sigma_z part breaks that.
    """
    epsilon, delta = abs(epsilon), abs(delta)
    return delta == 0.0 or (epsilon > 0.0 and delta / epsilon <= 0.1)


def rk4_steps(t_end: float, dt: float, t1: float, t2: float) -> int:
    """Number of RK4 steps ``integrate`` takes over [0, t_end] at steps of at most dt.

    Raises ValueError when dt exceeds min(t1, t2)/100 or t_end/dt overflows.
    Steps count to 1e-12, so a ratio that rounds just above a whole number
    takes no extra step; the step then shrinks to land on t_end.
    """
    limit = min(t1, t2) / 100.0
    if dt > limit:
        raise ValueError(f"dt = {dt!r} too large; need dt <= min(t1, t2)/100 = {limit!r} "
                         f"(t1 = {t1!r}, t2 = {t2!r})")
    ratio = t_end / dt
    if math.isinf(ratio):
        raise ValueError(f"t_end/dt = {t_end!r}/{dt!r} overflows the RK4 step count: "
                         "lower t_end or raise dt")
    return max(1, math.ceil(ratio - 1e-12)) if t_end > 0.0 else 0


@dataclass(frozen=True)
class DecoherenceParams:
    """Relaxation rate gamma1, dephasing rate gamma2 (1/ns) and the qubit Hamiltonian.

    gamma2 is the inverse of the usual dephasing time: the |+> coherence decays
    as exp(-(gamma2 t)^2) when relaxation is off.  A rate of zero means the
    corresponding channel is absent (infinite T1/T2).
    """

    gamma1: float
    gamma2: float
    hs: SystemHamiltonian = SystemHamiltonian(0.0, 0.0)

    def __post_init__(self):
        for name in ("gamma1", "gamma2"):
            v = getattr(self, name)
            if not (v >= 0.0 and math.isfinite(v)):
                raise ValueError(f"{name} must be finite and >= 0, got {v!r}")
        if not dephasing_model_holds(self.hs.epsilon, self.hs.delta):
            warnings.warn(
                "sigma_x part of the Hamiltonian exceeds 10% of the sigma_z part; "
                "the sigma_z-dephasing structure is only approximate here",
                stacklevel=2)

    @classmethod
    def from_times(cls, t1: float, t2: float,
                   hs: SystemHamiltonian = SystemHamiltonian(0.0, 0.0)) -> "DecoherenceParams":
        """Build from T1/T2 in ns; pass ``math.inf`` to switch a channel off."""
        for name, v in (("t1", t1), ("t2", t2)):
            if not v > 0.0:
                raise ValueError(f"{name} must be > 0, got {v!r}")
        return cls(0.0 if math.isinf(t1) else 1.0 / t1,
                   0.0 if math.isinf(t2) else 1.0 / t2, hs)

    @property
    def t1(self) -> float:
        return math.inf if self.gamma1 == 0.0 else 1.0 / self.gamma1

    @property
    def t2(self) -> float:
        return math.inf if self.gamma2 == 0.0 else 1.0 / self.gamma2


def master_rhs(rho, t: float, params: DecoherenceParams) -> np.ndarray:
    """Interaction-picture time derivative of the state at absolute time t.

    The dephasing coefficient grows linearly in the time since preparation;
    protocol layers that reset the dephasing clock after a projection must
    pass the time since the last reset.
    """
    if t < 0.0:
        raise ValueError(f"t must be >= 0, got {t!r}")
    m = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
    out = np.zeros((2, 2), dtype=complex)
    if params.gamma1 > 0.0:
        anticomm = _EXCITED_PROJ @ m + m @ _EXCITED_PROJ
        out -= 0.5 * params.gamma1 * (anticomm - 2.0 * (SIGMA_MINUS.matrix @ m @ SIGMA_PLUS.matrix))
    if params.gamma2 > 0.0 and t > 0.0:
        inner = _SZ @ m - m @ _SZ
        out -= 0.5 * params.gamma2 ** 2 * t * (_SZ @ inner - inner @ _SZ)
    return out


@dataclass(frozen=True)
class IntegrationResult:
    """Interaction-picture states on a uniform grid."""

    times: np.ndarray
    states: np.ndarray   # (len(times), 2, 2) complex

    def rho(self, index: int) -> DensityMatrix:
        return DensityMatrix(self.states[index])

    @property
    def final(self) -> DensityMatrix:
        return DensityMatrix(self.states[-1])


def integrate(rho0: DensityMatrix, params: DecoherenceParams,
              t_end: float, dt: float) -> IntegrationResult:
    """Classic fixed-step 4th-order Runge-Kutta solution on [0, t_end].

    ``rk4_steps`` counts the steps; the step shrinks so the grid lands on t_end.  The
    generator is diagonal: p11' = -gamma1 p11 and rho01' = a(t) rho01 with
    a(t) = -(gamma1/2 + 2 gamma2^2 t), while p00 follows from the trace and
    rho10 is conj(rho01).  An RK4 step therefore multiplies p11 and rho01 by
    scalar factors that depend only on the step; they are taken for every step
    at once and applied with one cumulative product.  Every grid state is
    validated: trace within 1e-10, Hermitian, eigenvalues above -1e-8
    (violations raise ``PositivityLossError`` with the first offending time).
    A fixed step keeps results reproducible; the equation is small and smooth
    enough that adaptivity buys nothing.
    """
    if not (t_end >= 0.0 and math.isfinite(t_end)):
        raise ValueError(f"t_end must be finite and >= 0, got {t_end!r}")
    if not (dt > 0.0 and math.isfinite(dt)):
        raise ValueError(f"dt must be finite and > 0, got {dt!r}")
    steps = rk4_steps(t_end, dt, params.t1, params.t2)
    h = t_end / steps if steps else 0.0

    times = np.linspace(0.0, t_end, steps + 1)
    factors = np.ones((steps + 1, 2))
    factors[1:] = _rk4_factors(params, times[:-1], h)
    np.cumprod(factors, axis=0, out=factors)
    m = rho0.matrix
    states = np.empty((steps + 1, 2, 2), dtype=complex)
    states[:, 1, 1] = m[1, 1] * factors[:, 0]
    states[:, 0, 0] = (m[0, 0] + m[1, 1]) - states[:, 1, 1]
    states[:, 0, 1] = m[0, 1] * factors[:, 1]
    states[:, 1, 0] = states[:, 0, 1].conj()
    bad = first_unphysical(states, trace_tol=1e-10, herm_tol=1e-10, positivity_tol=1e-8)
    if bad is not None:
        step, reason = bad
        raise PositivityLossError(
            f"non-physical state at t = {float(times[step])!r} (step {step}): {reason}")
    return IntegrationResult(times, states)


def _rk4_factors(params: DecoherenceParams, t: np.ndarray, h: float) -> np.ndarray:
    """RK4 growth factors of (p11, rho01) over the steps starting at times t."""
    g1, g2 = params.gamma1, params.gamma2

    def rate(s):        # (p11, rho01) rates a(s) of y' = a(s) y, shape (len(t), 2)
        return np.stack([np.full_like(s, -g1), -(0.5 * g1 + 2.0 * g2 * g2 * s)], axis=1)

    a0, am, a1 = rate(t), rate(t + 0.5 * h), rate(t + h)
    k1 = a0
    k2 = am * (1.0 + 0.5 * h * k1)
    k3 = am * (1.0 + 0.5 * h * k2)
    k4 = a1 * (1.0 + h * k3)
    return 1.0 + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _plus_bracket(params: DecoherenceParams, t: float) -> np.ndarray:
    g1, g2 = params.gamma1, params.gamma2
    excited = 0.5 * math.exp(-g1 * t)
    off = 0.5 * math.exp(-0.5 * g1 * t - (g2 * t) ** 2)
    return np.array([[1.0 - excited, off], [off, excited]], dtype=complex)


def closed_form_rho_rotating(params: DecoherenceParams, t: float) -> DensityMatrix:
    """Closed-form solution for the |+> initial state, frame rotation factored out."""
    if t < 0.0:
        raise ValueError(f"t must be >= 0, got {t!r}")
    return DensityMatrix(_plus_bracket(params, t))


def closed_form_rho(params: DecoherenceParams, t: float) -> DensityMatrix:
    """Closed-form solution for the |+> initial state, including the free rotation."""
    if t < 0.0:
        raise ValueError(f"t must be >= 0, got {t!r}")
    u = params.hs.evolution(t).matrix
    return DensityMatrix(u @ _plus_bracket(params, t) @ u.conj().T)


def pure_dephasing_coherence(gamma2: float, t: float) -> float:
    """Normalised |+> coherence envelope exp(-(gamma2 t)^2) under pure dephasing.

    Equals the quasi-static noise-ensemble average with coupling
    gamma2/sqrt(2): E[exp(-2i lambda f0 t)] = exp(-2 lambda^2 t^2).
    """
    return math.exp(-((gamma2 * t) ** 2))
