"""Relaxation + low-frequency dephasing master equation for one qubit.

The interaction-picture generator combines a Lindblad relaxation term with a
dephasing term whose rate grows linearly in time -- the deterministic
counterpart of averaging quasi-static sigma_z noise:

    d rho / dt = -(gamma1/2) (s+ s- rho + rho s+ s- - 2 s- rho s+)
                 - (gamma2^2 t / 2) [sigma_z, [sigma_z, rho]]

For the |+> initial state this has a closed-form solution whose off-diagonal
element decays as exp(-gamma1 t / 2 - (gamma2 t)^2) while the excited
population relaxes as exp(-gamma1 t) / 2; the tests hold the fixed-step
Runge-Kutta integrator below to that solution.
"""

import math
from dataclasses import dataclass

import numpy as np

from .qubit import DensityMatrix, _require, first_unphysical

_SHORTEST_TIME = math.nextafter(1.0 / np.finfo(float).max, 1.0)   # the least t with a finite 1/t


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
    """Relaxation rate gamma1 and dephasing rate gamma2, in 1/ns.

    gamma2 is the inverse of the usual dephasing time: the |+> coherence decays
    as exp(-(gamma2 t)^2) when relaxation is off.  A rate of zero means the
    corresponding channel is absent (infinite T1/T2).
    """

    gamma1: float
    gamma2: float

    def __post_init__(self):
        for name in ("gamma1", "gamma2"):
            object.__setattr__(self, name, _require(name, getattr(self, name), 0.0))

    @classmethod
    def from_times(cls, t1: float, t2: float) -> "DecoherenceParams":
        """Build from T1/T2 in ns; pass ``math.inf`` to switch a channel off."""
        return cls(1.0 / _require("t1", t1, _SHORTEST_TIME, allow_inf=True),
                   1.0 / _require("t2", t2, _SHORTEST_TIME, allow_inf=True))

    @property
    def t1(self) -> float:
        return math.inf if self.gamma1 == 0.0 else 1.0 / self.gamma1

    @property
    def t2(self) -> float:
        return math.inf if self.gamma2 == 0.0 else 1.0 / self.gamma2


@dataclass(frozen=True, eq=False)
class IntegrationResult:
    """Interaction-picture states on a uniform grid, as (len(times),) entry columns.

    ``p00`` and ``p11`` are the real populations and ``rho01`` the complex
    off-diagonal element; rho10 is conj(rho01) by construction.
    """

    times: np.ndarray
    p00: np.ndarray
    p11: np.ndarray
    rho01: np.ndarray


def integrate(rho0: DensityMatrix, params: DecoherenceParams,
              t_end: float, dt: float) -> IntegrationResult:
    """Classic fixed-step 4th-order Runge-Kutta solution on [0, t_end].

    ``rk4_steps`` counts the steps; the step shrinks so the grid lands on t_end.  The
    generator is diagonal: p11' = -gamma1 p11 and rho01' = a(t) rho01 with
    a(t) = -(gamma1/2 + 2 gamma2^2 t), while p00 follows from the trace and
    rho10 is conj(rho01).  An RK4 step therefore multiplies p11 and rho01 by
    factors that depend only on the step: ``_rk4_factor`` takes p11's as one
    float and rho01's as one column, and their running products are the result's
    columns p11 and rho01.  ``qubit.first_unphysical`` checks every grid state
    on the columns p00, p11 and rho01: trace within 1e-12, Hermitian within 1e-12,
    eigenvalues above -1e-10 (violations raise ``PositivityLossError`` with
    the first offending time).
    A fixed step keeps results reproducible; the equation is small and smooth
    enough that adaptivity buys nothing.
    """
    t_end = _require("t_end", t_end, 0.0)
    steps = rk4_steps(t_end, _require("dt", dt, 0.0, above=True), params.t1, params.t2)
    h = t_end / steps if steps else 0.0

    times = np.linspace(0.0, t_end, steps + 1)
    t = times[:-1]
    g1, c = params.gamma1, 2.0 * params.gamma2 * params.gamma2
    m = rho0.matrix
    p11 = m[1, 1].real * np.cumprod(np.r_[1.0, np.full(steps, _rk4_factor(-g1, -g1, -g1, h))])
    p00 = (m[0, 0].real + m[1, 1].real) - p11
    rates = (-(0.5 * g1 + c * s) for s in (t, t + 0.5 * h, t + h))     # rho01' = a(s) rho01
    rho01 = m[0, 1] * np.cumprod(np.r_[1.0, _rk4_factor(*rates, h)])
    bad = first_unphysical(p00, p11, rho01, rho01.conj())
    if bad is not None:
        step, reason = bad
        raise PositivityLossError(
            f"non-physical state at t = {float(times[step])!r} (step {step}): {reason}")
    return IntegrationResult(times, p00, p11, rho01)


def _rk4_factor(a0, am, a1, h: float):
    """RK4 growth factor of y' = a(s) y over a step h, from a(s) at its start, middle and end.

    The rates are floats or columns, one entry per step.
    """
    k1 = a0
    k2 = am * (1.0 + 0.5 * h * k1)
    k3 = am * (1.0 + 0.5 * h * k2)
    k4 = a1 * (1.0 + h * k3)
    return 1.0 + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
