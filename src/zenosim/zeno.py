"""Repeated-projective-measurement protocols for a decohering qubit.

Two schemes, each with an analytic engine and a Monte Carlo engine:

* selective: the qubit is repeatedly projected onto the co-rotating |+>;
  a negative outcome ends the run (switching-detector style readout destroys
  the state), so the figure of merit is the probability that all N outcomes
  are positive.  Per measurement interval tau = t/N the success factor is
  1/2 + 1/2 exp(-tau/(2 T1) - tau^2/T2^2), and with noise redrawn each
  interval the run probability is that factor to the N-th power; with one
  noise value held for the whole run it is the mean of the N-th power of
  the per-interval factor over that value (``pn_persistent``).
* non-selective: the projection keeps both outcomes (latching-amplifier
  style readout), which equalises the populations and leaves the coherence
  exp(-t/(2 T1) - t^2/(N T2^2)) / 2.  Dividing out the relaxation envelope
  exp(-t/(2 T1))/2 isolates the measurement-suppressed part
  exp(-t^2 / (N T2^2)), independent of T1.

Frequent measurement suppresses the quadratic (low-frequency-noise) part of
the decay -- the exponent gains the 1/N -- while purely exponential decay is
insensitive to N.  The Monte Carlo engines unravel the same physics as
per-interval sampling: a fresh (or persistent) noise realisation sets the
dephasing phase, relaxation is a quantum jump whose no-jump branch damps the
excited amplitude by exp(-gamma1 tau / 2), and the measurement outcome is
drawn from the Born rule.  Draws follow the block-stream contract of
``zenosim.noise``, so equal seeds give bit-identical results.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .lindblad import DecoherenceParams
from .noise import (NoiseKind, NoiseModel, _ou_interval_coefficients, _ou_phase_law,
                    _ou_phases, _reduce_blocks)
from .qubit import DensityMatrix
from .tables import Table


class ProtocolKind(str, Enum):
    SELECTIVE = "selective"
    NON_SELECTIVE = "non-selective"


class EngineKind(str, Enum):
    ANALYTIC = "analytic"
    MONTE_CARLO = "monte-carlo"


class NoiseReset(str, Enum):
    RESAMPLE_PER_INTERVAL = "resample"
    PERSISTENT = "persistent"


@dataclass(frozen=True)
class ProtocolConfig:
    """One protocol run: total time t (ns), N measurements at spacing t/N."""

    total_time: float
    measurements: int
    kind: ProtocolKind = ProtocolKind.SELECTIVE
    engine: EngineKind = EngineKind.ANALYTIC
    trajectories: int | None = None
    base_seed: int | None = None
    noise_reset: NoiseReset = NoiseReset.RESAMPLE_PER_INTERVAL

    def __post_init__(self):
        if not (self.total_time >= 0.0 and math.isfinite(self.total_time)):
            raise ValueError(f"total_time must be finite and >= 0, got {self.total_time!r}")
        if self.measurements < 1:
            raise ValueError(f"measurements must be >= 1, got {self.measurements}")
        if self.engine is EngineKind.MONTE_CARLO:
            if self.trajectories is None or self.trajectories < 1000:
                raise ValueError("Monte Carlo runs need at least 1000 trajectories "
                                 "for a meaningful binomial error")
            if self.base_seed is None:
                raise ValueError("Monte Carlo runs need a base_seed")

    @property
    def tau(self) -> float:
        return self.total_time / self.measurements


@dataclass(frozen=True)
class ProtocolResult:
    kind: ProtocolKind
    success_probability: float | None = None
    success_stderr: float | None = None
    survivors_per_step: tuple[int, ...] | None = None
    final_rho: DensityMatrix | None = None
    coherence: float | None = None
    coherence_stderr: float | None = None
    trajectories: int | None = None

    def __post_init__(self):
        if self.success_probability is not None and not (
                -1e-12 <= self.success_probability <= 1.0 + 1e-12):
            raise ValueError(f"success probability {self.success_probability!r} outside [0, 1]")
        if self.coherence is not None and not (
                -1e-12 <= self.coherence <= 0.5 + 1e-12):
            raise ValueError(f"coherence magnitude {self.coherence!r} outside [0, 1/2]")


def selective_step_probability(params: DecoherenceParams, tau: float) -> float:
    """Probability that one projection onto the co-rotating |+> succeeds.

    Obtained by projecting the closed-form evolved |+> state back onto |+>:
    1/2 + 1/2 exp(-gamma1 tau / 2 - (gamma2 tau)^2).
    """
    if not tau > 0.0:
        raise ValueError(f"tau must be > 0, got {tau!r}")
    return 0.5 + 0.5 * math.exp(-0.5 * params.gamma1 * tau - (params.gamma2 * tau) ** 2)


def _check_protocol_args(t: float, n: int) -> None:
    if not (t >= 0.0 and math.isfinite(t)):
        raise ValueError(f"t must be finite and >= 0, got {t!r}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")


def pn_analytic(params: DecoherenceParams, t: float, n: int) -> float:
    """Probability that all N co-rotating |+> projections succeed during t."""
    _check_protocol_args(t, n)
    if t == 0.0:
        return 1.0
    return selective_step_probability(params, t / n) ** n


def pn_persistent(params: DecoherenceParams, t: float, n: int) -> float:
    """P_N when one quasi-static noise value f0 ~ N(0, 1) holds for the whole run.

    Given f0 the N intervals are independent, each kept with probability
    q(f0) = 1/2 + (eps/2) cos(w f0), eps = exp(-gamma1 tau/2), w = sqrt(2)
    gamma2 tau, so P_N = E[q(f0)^N] >= pn_analytic.  q^N is a cosine series
    sum_k c_k cos(k w f0) of degree N with c_k >= 0, and E[cos(k w f0)] =
    exp(-(k gamma2 tau)^2), so P_N = sum_k c_k exp(-(k gamma2 tau)^2), the c_k
    read off an FFT of q^N at 2N + 1 equispaced angles.  No term cancels, so
    this holds to rounding at every t, where a fixed 120-node Gauss-Hermite
    rule for the same mean fails once sqrt(2) gamma2 t passes about 15 (off
    by 0.33 at t = 15 T2).
    """
    _check_protocol_args(t, n)
    if t == 0.0:
        return 1.0
    tau = t / n
    eps = math.exp(-0.5 * params.gamma1 * tau)
    angles = np.arange(2 * n + 1) * (2.0 * math.pi / (2 * n + 1))
    c = np.fft.rfft((0.5 + 0.5 * eps * np.cos(angles)) ** n).real / (2 * n + 1)
    c[1:] *= 2.0
    return float(c @ np.exp(-(np.arange(n + 1) * (params.gamma2 * tau)) ** 2))


def pn_approx(params: DecoherenceParams, t: float, n: int) -> float:
    """Small-decay approximation (1 - gamma1 t / 4) exp(-(gamma2 t)^2 / (2N)).

    Accurate to ~2% of the exact product while t stays below about
    0.3 T2 and 0.05 T1.
    """
    _check_protocol_args(t, n)
    return (1.0 - 0.25 * params.gamma1 * t) * math.exp(-(params.gamma2 * t) ** 2 / (2.0 * n))


def nonselective_coherence(params: DecoherenceParams, t: float, n: int) -> float:
    """|<0|rho|1>| after N non-selective projections, frame factored out."""
    _check_protocol_args(t, n)
    return 0.5 * math.exp(-0.5 * params.gamma1 * t - (params.gamma2 * t) ** 2 / n)


def nonselective_rho(params: DecoherenceParams, t: float, n: int) -> DensityMatrix:
    """State after N non-selective co-rotating projections during t.

    Populations are exactly 1/2 each (the measurement is in the equatorial
    plane), the coherence carries the relaxation envelope and the
    measurement-suppressed dephasing exponent t^2/(N T2^2).
    """
    off = nonselective_coherence(params, t, n)
    bracket = np.array([[0.5, off], [off, 0.5]], dtype=complex)
    u = params.hs.evolution(t).matrix
    return DensityMatrix(u @ bracket @ u.conj().T)


def coherence_ratio(params: DecoherenceParams, t: float, n: int) -> float:
    """Measured coherence normalised by the pure-relaxation envelope.

    |<0|rho(N,t)|1>| / (exp(-t/(2 T1)) / 2) = exp(-t^2 / (N T2^2)): the
    relaxation contribution cancels algebraically, leaving only the part the
    measurements suppress.  Where the envelope underflows to 0 the closed
    form is used instead.
    """
    _check_protocol_args(t, n)
    envelope = 0.5 * math.exp(-0.5 * params.gamma1 * t)
    if envelope == 0.0:
        return math.exp(-(params.gamma2 * t) ** 2 / n)
    return nonselective_coherence(params, t, n) / envelope


# ---------------------------------------------------------------------------
# Monte Carlo engines
# ---------------------------------------------------------------------------
#
# Per-block draw layout (fixed; see the noise module for the block contract):
#   1. noise draws
#        quasi-static, resample:   standard_normal((rows, N))
#        quasi-static, persistent: standard_normal((rows, 1))
#        OU, resample:             standard_normal((rows, N))
#        OU, persistent:           standard_normal((rows, N))
#      Ornstein-Uhlenbeck intervals are drawn from their exact law
#      (``zenosim.noise._ou_phase_law``): a resampled interval's phase is one
#      Gaussian; a persistent path takes interval k's phase from column k
#      through the law's innovations form, so at N = 1 both resets agree
#   2. jump uniforms:        random((rows, N))
#   3. measurement uniforms: random((rows, N))


def _interval_phases(model: NoiseModel, tau: float, n: int, persistent: bool):
    """Block sampler: ``phases(gen, rows)`` draws each interval's dephasing phase, shape (rows, n).

    The noise law is worked out here, once per run, not once per block.
    """
    if model.kind is NoiseKind.QUASI_STATIC:
        scale = model.coupling * tau
        if persistent:
            return lambda gen, rows: scale * np.broadcast_to(gen.standard_normal((rows, 1)),
                                                             (rows, n))
        return lambda gen, rows: scale * gen.standard_normal((rows, n))
    if not persistent:
        scale = model.coupling * _ou_interval_coefficients(tau, model.tau_c)[0]
        return lambda gen, rows: scale * gen.standard_normal((rows, n))
    # one stationary path across the whole run; the phase accumulator resets
    # at each projection, the path does not
    law = _ou_phase_law(np.full(n, tau), model.tau_c)
    law[:2] *= model.coupling                    # sigma and carry
    return lambda gen, rows: _ou_phases(gen.standard_normal((rows, n)).T, law)[0].T


def _default_noise(params: DecoherenceParams) -> NoiseModel:
    # quasi-static coupling that reproduces the exp(-(gamma2 t)^2) envelope
    return NoiseModel.quasi_static(params.gamma2 / math.sqrt(2.0))


def _kept_outcomes(params: DecoherenceParams, config: ProtocolConfig, noise: NoiseModel):
    """Block draws: kept(gen, rows)[r, k] says projection k returned trajectory r's state."""
    n, tau = config.measurements, config.tau
    persistent = config.noise_reset is NoiseReset.PERSISTENT
    eps_sq = math.exp(-params.gamma1 * tau)          # no-jump weight of |1>
    p_jump = 0.5 * (1.0 - eps_sq)                    # from a fresh |+->-type state
    interval_phases = _interval_phases(noise, tau, n, persistent)

    def kept(gen: "np.random.Generator", rows: int) -> np.ndarray:
        phases = interval_phases(gen, rows)
        jumped = gen.random((rows, n)) < p_jump
        stay = _stay_probability(params, tau, phases, jumped)
        return gen.random((rows, n)) < stay

    return kept


def _stay_probability(params: DecoherenceParams, tau: float,
                      phases: np.ndarray, jumped: np.ndarray) -> np.ndarray:
    """Born probability that the projection returns the pre-interval state.

    No-jump branch: the excited amplitude is damped by eps = exp(-gamma1
    tau/2) and the eigenstate phases differ by 2 phi, giving
    (1 + eps^2 + 2 eps cos 2 phi) / (2 (1 + eps^2)); after a jump the state
    is |0>, which projects onto either equatorial state with probability 1/2.
    Computed in place: ``phases`` is overwritten and returned.
    """
    eps = math.exp(-0.5 * params.gamma1 * tau)
    eps_sq = eps * eps
    stay = phases
    stay *= 2.0
    np.cos(stay, out=stay)
    stay *= 2.0 * eps
    stay += 1.0 + eps_sq
    stay /= 2.0 * (1.0 + eps_sq)
    np.copyto(stay, 0.5, where=jumped)
    return stay


def _check_mc_config(config: ProtocolConfig, kind: ProtocolKind) -> None:
    if config.engine is not EngineKind.MONTE_CARLO:
        raise ValueError("config.engine must be monte-carlo")
    if config.kind is not kind:
        raise ValueError(f"config.kind must be {kind.value}")


def selective_run_mc(params: DecoherenceParams, config: ProtocolConfig,
                     noise: NoiseModel | None = None,
                     context: tuple[int, ...] = ()) -> ProtocolResult:
    """Estimate the all-outcomes-positive probability by trajectory sampling.

    ``noise`` defaults to the quasi-static model matching params.gamma2;
    an Ornstein-Uhlenbeck model may be substituted.
    A failed projection terminates its trajectory.  The estimate is the
    surviving fraction with binomial standard error.
    """
    _check_mc_config(config, ProtocolKind.SELECTIVE)
    if noise is None:
        noise = _default_noise(params)
    m, n = config.trajectories, config.measurements
    if config.total_time == 0.0:
        return ProtocolResult(config.kind, success_probability=1.0, success_stderr=0.0,
                              survivors_per_step=(m,) * n, trajectories=m)
    kept = _kept_outcomes(params, config, noise)

    def block_survivors(gen, rows):
        return np.logical_and.accumulate(kept(gen, rows), axis=1).sum(axis=0)

    survivors = np.zeros(n, dtype=np.int64)
    for block in _reduce_blocks(block_survivors, m, config.base_seed, context):
        survivors += block
    p = survivors[-1] / m
    stderr = math.sqrt(p * (1.0 - p) / m)
    return ProtocolResult(config.kind, success_probability=float(p),
                          success_stderr=stderr, survivors_per_step=tuple(int(v) for v in survivors),
                          trajectories=m)


def nonselective_run_mc(params: DecoherenceParams, config: ProtocolConfig,
                        noise: NoiseModel | None = None,
                        context: tuple[int, ...] = ()) -> ProtocolResult:
    """Estimate the post-measurement state by trajectory sampling.

    After every projection a trajectory is in one of the two equatorial
    eigenstates; tracking the sign of that state is enough, and the ensemble
    mean of the signs is twice the coherence of the averaged state.
    """
    _check_mc_config(config, ProtocolKind.NON_SELECTIVE)
    if noise is None:
        noise = _default_noise(params)
    m, n, t = config.trajectories, config.measurements, config.total_time
    if t == 0.0:
        sign_sum = m
    else:
        kept = _kept_outcomes(params, config, noise)

        def block_sign_sum(gen, rows):
            # a trajectory's sign flips at every projection that lands on
            # the other eigenstate, so its final sign is the flip-count parity
            odd = np.count_nonzero((n - np.count_nonzero(kept(gen, rows), axis=1)) % 2)
            return rows - 2 * int(odd)

        sign_sum = sum(_reduce_blocks(block_sign_sum, m, config.base_seed, context))
    mean_sign = sign_sum / m
    coherence = 0.5 * mean_sign
    stderr = 0.5 * math.sqrt(max(1.0 - mean_sign ** 2, 0.0) / m)
    bracket = np.array([[0.5, coherence], [coherence, 0.5]], dtype=complex)
    u = params.hs.evolution(t).matrix
    rho = DensityMatrix(u @ bracket @ u.conj().T)
    return ProtocolResult(config.kind, final_rho=rho, coherence=abs(coherence),
                          coherence_stderr=stderr, trajectories=m)


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


def figure2_sweep(params: DecoherenceParams, times=(20.0, 25.0, 30.0, 35.0),
                  n_max: int = 20, trajectories: int | None = None,
                  base_seed: int | None = None,
                  noise_reset: NoiseReset = NoiseReset.RESAMPLE_PER_INTERVAL) -> Table:
    """Success probability P(N) for each total time; optional MC columns.

    Each (t, N) Monte Carlo point runs on its own stream context, so the
    estimates are statistically independent.
    """
    grid = [(t, n) for t in times for n in range(1, n_max + 1)]
    analytic = [pn_analytic(params, t, n) for t, n in grid]
    p_mc, stderr = [None] * len(grid), [None] * len(grid)
    if trajectories is not None:
        for point, (t, n) in enumerate(grid):
            config = ProtocolConfig(t, n, ProtocolKind.SELECTIVE, EngineKind.MONTE_CARLO,
                                    trajectories, base_seed, noise_reset)
            result = selective_run_mc(params, config, context=(point,))
            p_mc[point], stderr[point] = result.success_probability, result.success_stderr
    return Table({"t": [float(t) for t, _ in grid], "N": [n for _, n in grid],
                  "P_analytic": analytic, "P_mc": p_mc, "P_mc_stderr": stderr})


def figure3_surface(params: DecoherenceParams, t_values, n_values) -> Table:
    """Measured coherence and its relaxation-normalised ratio over (t, N)."""
    grid = [(t, n) for t in t_values for n in n_values]
    return Table({"t": [float(t) for t, _ in grid], "N": [int(n) for _, n in grid],
                  "abs01": [nonselective_coherence(params, t, n) for t, n in grid],
                  "ratio": [coherence_ratio(params, t, n) for t, n in grid]})
