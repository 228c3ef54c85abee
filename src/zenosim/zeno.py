"""Repeated-projective-measurement protocols for a decohering qubit.

Two schemes, each with an analytic engine and a Monte Carlo engine:

* selective: the qubit is repeatedly projected onto the co-rotating |+>;
  a negative outcome ends the run (switching-detector style readout destroys
  the state), so the figure of merit is the probability that all N outcomes
  are positive.  Per measurement interval tau = t/N the success factor is
  1/2 + 1/2 exp(-tau/(2 T1) - tau^2/T2^2), and with noise redrawn each
  interval the run probability is that factor to the N-th power.
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
from .noise import CHUNK_VALUES, NoiseKind, NoiseModel, _reduce_blocks
from .qubit import SIGMA_Z, DensityMatrix
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
    engine: EngineKind
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
    measurements suppress.
    """
    envelope = 0.5 * math.exp(-0.5 * params.gamma1 * t)
    return nonselective_coherence(params, t, n) / envelope


# ---------------------------------------------------------------------------
# Monte Carlo engines
# ---------------------------------------------------------------------------
#
# Per-block draw layout (fixed; see the noise module for the block contract):
#   1. noise draws
#        quasi-static, resample:   standard_normal((rows, N))
#        quasi-static, persistent: standard_normal((rows, 1))
#        OU, resample:             standard_normal((rows, N, S + 1))
#        OU, persistent:           standard_normal((rows, N * S + 1))
#      with S = ceil(10 tau / tau_c) sub-steps per interval (step <= tau_c/10);
#      OU noise is drawn in consecutive row chunks of about CHUNK_VALUES
#      values, which consume the stream in the same order as one fill
#   2. jump uniforms:        random((rows, N))
#   3. measurement uniforms: random((rows, N))


def _interval_phases(model: NoiseModel, tau: float, n: int, persistent: bool,
                     gen: np.random.Generator, rows: int) -> np.ndarray:
    """Dephasing phase accumulated in each interval, shape (rows, n)."""
    if model.kind is NoiseKind.QUASI_STATIC:
        if persistent:
            f0 = gen.standard_normal((rows, 1))
            return model.coupling * tau * np.broadcast_to(f0, (rows, n)).copy()
        return model.coupling * tau * gen.standard_normal((rows, n))

    if model.kind is not NoiseKind.ORNSTEIN_UHLENBECK:
        raise ValueError(f"{model.kind.value} noise has no sampled trajectories")
    s = max(1, math.ceil(10.0 * tau / model.tau_c - 1e-12))
    h = tau / s
    decay = math.exp(-h / model.tau_c)
    kick = math.sqrt(1.0 - decay * decay)
    phases = np.empty((rows, n))
    chunk = max(1, CHUNK_VALUES // (n * (s + 1)))
    for r0 in range(0, rows, chunk):
        part = phases[r0:r0 + chunk]
        if persistent:
            # one stationary path across the whole run; the phase accumulator
            # resets at each projection, the path does not
            z = gen.standard_normal((len(part), n * s + 1))
            f = z[:, 0].copy()
            for k in range(n):
                acc = np.zeros(len(part))
                for j in range(1, s + 1):
                    f_next = decay * f + kick * z[:, k * s + j]
                    acc += 0.5 * h * (f + f_next)
                    f = f_next
                part[:, k] = acc
            continue
        # fresh stationary path per interval; all rows * n paths evolve in lockstep
        z = gen.standard_normal((len(part), n, s + 1)).reshape(part.size, s + 1)
        f = z[:, 0].copy()
        acc = np.zeros(part.size)
        for j in range(1, s + 1):
            f_next = decay * f + kick * z[:, j]
            acc += 0.5 * h * (f + f_next)
            f = f_next
        part[:] = acc.reshape(part.shape)
    return model.coupling * phases


def _default_noise(params: DecoherenceParams) -> NoiseModel:
    # quasi-static coupling that reproduces the exp(-(gamma2 t)^2) envelope
    return NoiseModel.quasi_static(params.gamma2 / math.sqrt(2.0))


def _kept_outcomes(params: DecoherenceParams, config: ProtocolConfig, noise: NoiseModel):
    """Block draws: kept(gen, rows)[r, k] says projection k returned trajectory r's state."""
    n, tau = config.measurements, config.tau
    persistent = config.noise_reset is NoiseReset.PERSISTENT
    eps_sq = math.exp(-params.gamma1 * tau)          # no-jump weight of |1>
    p_jump = 0.5 * (1.0 - eps_sq)                    # from a fresh |+->-type state

    def kept(gen: np.random.Generator, rows: int) -> np.ndarray:
        phases = _interval_phases(noise, tau, n, persistent, gen, rows)
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


def _check_mc_config(config: ProtocolConfig, kind: ProtocolKind,
                     noise: NoiseModel | None) -> None:
    if config.engine is not EngineKind.MONTE_CARLO:
        raise ValueError("config.engine must be monte-carlo")
    if config.kind is not kind:
        raise ValueError(f"config.kind must be {kind.value}")
    if noise is not None and np.max(np.abs(noise.operator.matrix - SIGMA_Z.matrix)) > 1e-12:
        raise ValueError("only sigma_z noise coupling is supported in this release")


def selective_run_mc(params: DecoherenceParams, config: ProtocolConfig,
                     noise: NoiseModel | None = None,
                     context: tuple[int, ...] = ()) -> ProtocolResult:
    """Estimate the all-outcomes-positive probability by trajectory sampling.

    ``noise`` defaults to the quasi-static model matching params.gamma2;
    any sigma_z-coupled model (e.g. Ornstein-Uhlenbeck) may be substituted.
    A failed projection terminates its trajectory.  The estimate is the
    surviving fraction with binomial standard error.
    """
    _check_mc_config(config, ProtocolKind.SELECTIVE, noise)
    if noise is None:
        noise = _default_noise(params)
    m, n = config.trajectories, config.measurements
    if config.total_time == 0.0:
        return ProtocolResult(config.kind, config.engine, success_probability=1.0,
                              success_stderr=0.0, survivors_per_step=(m,) * n,
                              trajectories=m)
    kept = _kept_outcomes(params, config, noise)

    def block_survivors(gen, rows):
        return np.logical_and.accumulate(kept(gen, rows), axis=1).sum(axis=0)

    survivors = np.zeros(n, dtype=np.int64)
    for block in _reduce_blocks(block_survivors, m, config.base_seed, context):
        survivors += block
    p = survivors[-1] / m
    stderr = math.sqrt(p * (1.0 - p) / m)
    return ProtocolResult(config.kind, config.engine, success_probability=float(p),
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
    _check_mc_config(config, ProtocolKind.NON_SELECTIVE, noise)
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
    return ProtocolResult(config.kind, config.engine, final_rho=rho,
                          coherence=abs(coherence), coherence_stderr=stderr,
                          trajectories=m)


def run_protocol(params: DecoherenceParams, config: ProtocolConfig,
                 noise: NoiseModel | None = None,
                 context: tuple[int, ...] = ()) -> ProtocolResult:
    """Dispatch a protocol run to the configured engine."""
    if config.engine is EngineKind.ANALYTIC:
        if config.kind is ProtocolKind.SELECTIVE:
            return ProtocolResult(config.kind, config.engine,
                                  success_probability=pn_analytic(
                                      params, config.total_time, config.measurements))
        rho = nonselective_rho(params, config.total_time, config.measurements)
        return ProtocolResult(config.kind, config.engine, final_rho=rho,
                              coherence=nonselective_coherence(
                                  params, config.total_time, config.measurements))
    if config.kind is ProtocolKind.SELECTIVE:
        return selective_run_mc(params, config, noise, context)
    return nonselective_run_mc(params, config, noise, context)


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
    columns = ("t", "N", "P_analytic", "P_mc", "P_mc_stderr")
    rows = []
    point = 0
    for t in times:
        for n in range(1, n_max + 1):
            analytic = pn_analytic(params, t, n)
            p_mc = stderr = None
            if trajectories is not None:
                config = ProtocolConfig(t, n, ProtocolKind.SELECTIVE,
                                        EngineKind.MONTE_CARLO, trajectories,
                                        base_seed, noise_reset)
                result = selective_run_mc(params, config, context=(point,))
                p_mc, stderr = result.success_probability, result.success_stderr
            rows.append((float(t), n, analytic, p_mc, stderr))
            point += 1
    return Table(columns, rows)


def figure3_surface(params: DecoherenceParams, t_values, n_values) -> Table:
    """Measured coherence and its relaxation-normalised ratio over (t, N)."""
    rows = []
    for t in t_values:
        for n in n_values:
            rows.append((float(t), int(n),
                         nonselective_coherence(params, t, n),
                         coherence_ratio(params, t, n)))
    return Table(("t", "N", "abs01", "ratio"), rows)
