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

from .qubit import DensityMatrix, _require

_SHORTEST_TIME = math.nextafter(1.0 / np.finfo(float).max, 1.0)   # the least t with a finite 1/t


def dephasing_model_holds(epsilon: float, delta: float) -> bool:
    """Whether sigma_z dephasing describes H = (epsilon/2) sigma_z + (delta/2) sigma_x.

    The dephasing term assumes sigma_z noise commutes with the retained
    Hamiltonian; a sigma_x part beyond 10% of the sigma_z part breaks that.
    """
    epsilon, delta = abs(epsilon), abs(delta)
    return delta == 0.0 or (epsilon > 0.0 and delta / epsilon <= 0.1)


def rk4_steps(t_end: float, dt: float, params: "DecoherenceParams") -> int:
    """Number of RK4 steps ``integrate`` takes over [0, t_end] at steps of at most dt.

    Raises ValueError when dt exceeds min(t1, t2)/100 or t_end/dt overflows.
    T1 and T2 are read back from the rates that ``integrate`` steps with, so a
    plan made with the same params accepts exactly the steps that run.
    Steps count to 1e-12, so a ratio that rounds just above a whole number
    takes no extra step; the step then shrinks to land on t_end.
    """
    t1, t2 = params.t1, params.t2
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

    ``rk4_steps`` counts the steps; the step h shrinks so the grid lands on t_end.
    The generator is diagonal: p11' = -gamma1 p11 and rho01' = a(s) rho01 with
    a(s) = -(gamma1/2 + 2 gamma2^2 s), while p00 follows from the trace and
    rho10 is conj(rho01).  An RK4 step therefore multiplies p11 and rho01 by
    factors that depend only on the step: ``_rk4_factor`` takes p11's as one
    float and rho01's as one column, and their running products are the result's
    columns p11 and rho01.  The factors are polynomials in z = h a(s), formed
    from the products gamma1 h and (gamma2 h)(gamma2 s): the step rule
    h <= min(T1, T2)/100 bounds gamma h by 0.01, so no intermediate value
    overflows, even where gamma2^2 alone would.

    Every grid state is physical when rho0 is, so no state is checked.  With
    R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24 and x = gamma1 h in [0, 0.01]:

    * the populations are real, rho10 = conj(rho01) and p00 = tr rho0 - p11, so
      the state stays Hermitian and its trace moves by one rounding at most;
    * p11's factor R(-x) lies in [0.99, 1], so p11 decays and stays in [0, tr rho0];
    * rho01's factors lie in [0.2704, R(-x/2)] while z > -2, and first exceed 1
      at z = -2.785: about 139 T2 at h = T2/100, later for smaller h.  Long
      before that the running product is exactly 0, and stays 0: it falls as
      exp(-(gamma2 t)^2) to the least subnormal by about 27.3 T2, and the first
      factor below 1/2, at z = -0.69 (about 35 T2 at h = T2/100, later for
      smaller h), rounds that to 0;
    * so |rho01|^2 shrinks by R(-x/2)^2 <= R(-x) per step, no slower than p11,
      and the margin p00 p11 - |rho01|^2 stays at least
      P (M0 + b^4 (1 - P)) >= 0, where P is p11's running product, b^2 rho0's
      excited population and M0 >= 0 its margin (0 for a pure state): the
      smaller eigenvalue moves below 0 by roundings at most.

    ``tests/test_lindblad.py`` holds this argument as a property over pure and
    mixed rho0, every T1 and T2 the library accepts, steps from the bound down
    to a thousandth of it, and runs up to the row bound.
    A fixed step keeps results reproducible; the equation is small and smooth
    enough that adaptivity buys nothing.
    """
    t_end = _require("t_end", t_end, 0.0)
    steps = rk4_steps(t_end, _require("dt", dt, 0.0, above=True), params)
    h = t_end / steps if steps else 0.0

    times = np.linspace(0.0, t_end, steps + 1)
    t = times[:-1]
    g1h, g2h = params.gamma1 * h, params.gamma2 * h
    m = rho0.matrix
    p11 = m[1, 1].real * np.cumprod(np.r_[1.0, np.full(steps, _rk4_factor(-g1h, -g1h, -g1h))])
    p00 = (m[0, 0].real + m[1, 1].real) - p11
    zs = (-(0.5 * g1h + 2.0 * g2h * (params.gamma2 * s)) for s in (t, t + 0.5 * h, t + h))
    rho01 = m[0, 1] * np.cumprod(np.r_[1.0, _rk4_factor(*zs)])     # z = h a(s)
    return IntegrationResult(times, p00, p11, rho01)


def _rk4_factor(z0, zm, z1):
    """RK4 growth factor of y' = a(s) y over a step h, from z = h a(s) at its start, middle and end.

    The z are floats or columns, one entry per step.
    """
    k1 = z0
    k2 = zm * (1.0 + 0.5 * k1)
    k3 = zm * (1.0 + 0.5 * k2)
    k4 = z1 * (1.0 + k3)
    return 1.0 + (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
