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
  exp(-t/(2 T1) - t^2/(N T2^2)) / 2.  States are given in the frame that
  co-rotates with the projections, so they depend on the two decay rates
  alone.  Dividing out the relaxation envelope exp(-t/(2 T1))/2 isolates
  the measurement-suppressed part exp(-t^2 / (N T2^2)), independent of T1.

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
from .noise import (TRAJECTORY_BLOCK, NoiseModel, _check_phase, _ou_interval_coefficients,
                    _ou_phase_law, _ou_phases, _reduce_blocks)
from .qubit import DensityMatrix, _require
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
        object.__setattr__(self, "total_time", _require("total_time", self.total_time, 0.0))
        _require("measurements", self.measurements, 1)
        if self.engine is EngineKind.MONTE_CARLO:    # 1000 for a meaningful binomial error
            _require("trajectories", self.trajectories, 1000)
            _require("base_seed", self.base_seed, 0)

    @property
    def tau(self) -> float:
        return self.total_time / self.measurements


@dataclass(frozen=True)
class ProtocolResult:
    success_probability: float | None = None
    success_stderr: float | None = None
    survivors_per_step: tuple[int, ...] | None = None
    final_rho: DensityMatrix | None = None
    coherence: float | None = None
    coherence_stderr: float | None = None
    trajectories: int | None = None


def _square(x: float) -> float:
    """x ** 2, or inf from x = 1e154 on, where ** overflows and exp(-x ** 2) is 0.0 anyway.
    It keeps **: x * x differs from x ** 2 in the last bit for about 1 float in 1,200."""
    return x ** 2 if x < 1e154 else math.inf


def selective_step_probability(params: DecoherenceParams, tau: float) -> float:
    """Probability that one projection onto the co-rotating |+> succeeds.

    Obtained by projecting the closed-form evolved |+> state back onto |+>:
    1/2 + 1/2 exp(-gamma1 tau / 2 - (gamma2 tau)^2).
    """
    tau = _require("tau", tau, 0.0, above=True)
    return 0.5 + 0.5 * math.exp(-0.5 * params.gamma1 * tau - _square(params.gamma2 * tau))


def pn_analytic(params: DecoherenceParams, t: float, n: int) -> float:
    """Probability that all N co-rotating |+> projections succeed during t."""
    t, n = _require("t", t, 0.0), _require("n", n, 1)
    tau = t / n
    if tau == 0.0:          # t = 0, or t/n below the smallest float
        return 1.0
    return selective_step_probability(params, tau) ** n


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
    t, n = _require("t", t, 0.0), _require("n", n, 1)
    if t == 0.0:
        return 1.0
    tau = t / n
    eps = math.exp(-0.5 * params.gamma1 * tau)
    angles = np.arange(2 * n + 1) * (2.0 * math.pi / (2 * n + 1))
    c = np.fft.rfft((0.5 + 0.5 * eps * np.cos(angles)) ** n).real / (2 * n + 1)
    c[1:] *= 2.0
    with np.errstate(over="ignore"):        # a square past the float range decays to 0.0
        return float(c @ np.exp(-(np.arange(n + 1) * (params.gamma2 * tau)) ** 2))


def pn_approx(params: DecoherenceParams, t: float, n: int) -> float:
    """Small-decay approximation (1 - gamma1 t / 4) exp(-(gamma2 t)^2 / (2N)).

    Accurate to ~2% of the exact product while t stays below about
    0.3 T2 and 0.05 T1.
    """
    t, n = _require("t", t, 0.0), _require("n", n, 1)
    return (1.0 - 0.25 * params.gamma1 * t) * math.exp(-_square(params.gamma2 * t) / (2.0 * n))


def nonselective_coherence(params: DecoherenceParams, t: float, n: int) -> float:
    """<0|rho|1> after N non-selective projections, in the co-rotating frame."""
    return _coherence_and_ratio(params, t, n)[0]


def nonselective_rho(params: DecoherenceParams, t: float, n: int) -> DensityMatrix:
    """State after N non-selective co-rotating projections during t, in their frame.

    Populations are exactly 1/2 each (the measurement is in the equatorial
    plane), the coherence carries the relaxation envelope and the
    measurement-suppressed dephasing exponent t^2/(N T2^2).
    """
    return _equatorial_rho(nonselective_coherence(params, t, n))


def _equatorial_rho(coherence: float) -> DensityMatrix:
    """[[1/2, c], [c, 1/2]]: an equatorial state of real coherence c, in the co-rotating frame."""
    return DensityMatrix(np.array([[0.5, coherence], [coherence, 0.5]], dtype=complex))


def coherence_ratio(params: DecoherenceParams, t: float, n: int) -> float:
    """Measured coherence normalised by the pure-relaxation envelope.

    |<0|rho(N,t)|1>| / (exp(-t/(2 T1)) / 2) = exp(-t^2 / (N T2^2)): the
    relaxation contribution cancels algebraically, leaving only the part the
    measurements suppress.  Where the envelope underflows to 0 the closed
    form is used instead.
    """
    return _coherence_and_ratio(params, t, n)[1]


def _coherence_and_ratio(params: DecoherenceParams, t: float, n: int) -> tuple[float, float]:
    """``nonselective_coherence`` and ``coherence_ratio`` of one (t, N), the coherence
    computed once."""
    t, n = _require("t", t, 0.0), _require("n", n, 1)
    suppressed = _square(params.gamma2 * t) / n
    coherence = 0.5 * math.exp(-0.5 * params.gamma1 * t - suppressed)
    envelope = 0.5 * math.exp(-0.5 * params.gamma1 * t)
    if envelope == 0.0:
        return coherence, math.exp(-suppressed)
    return coherence, coherence / envelope


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
#
# A task of consecutive blocks allocates its buffers once, for all its rows,
# and each block draws into its own rows of them, from its own stream: the
# phases 2 phi, which become the Born probabilities ``stay`` in place; one
# float buffer for the block's spent noise draws and then both its uniform
# draws; and a bool array for ``jumped``.  The Born step runs once per task
# and writes ``kept`` over ``jumped``, column-major, so the survivor and
# parity counts read each column contiguously.  A task holds at most TASK_VALUES outcomes, the
# size of one block at the default N = 20.

TASK_VALUES = 40_960


def _interval_phases(model: NoiseModel, tau: float, n: int, persistent: bool):
    """Block sampler: ``fill(gen, phases, spare)`` draws each interval's phase 2 phi.

    ``phases`` and ``spare`` are a block's (rows, n) rows of the task's
    buffers; ``fill`` writes the phases into the first and may spend the
    second.  The noise law is worked out here, once per run, not once per
    block, with the 2 of 2 phi folded into its scale (exact in binary).
    """
    if not persistent:
        scale = 2.0 * model.coupling * (tau if model.tau_c == math.inf
                                        else _ou_interval_coefficients(tau, model.tau_c)[0])

        def resampled(gen, phases, spare):
            np.multiply(gen.standard_normal(out=phases), scale, out=phases)

        return resampled
    if model.tau_c == math.inf:
        scale = 2.0 * model.coupling * tau

        def constant(gen, phases, spare):       # one normal per row, drawn into spare
            f0 = gen.standard_normal(out=spare.reshape(-1)[:len(spare)])
            np.multiply(f0[:, np.newaxis], scale, out=phases)

        return constant
    # one stationary path across the whole run; the phase accumulator resets
    # at each projection, the path does not
    law = _ou_phase_law(np.full(n, tau), model.tau_c)
    law[:2] *= 2.0 * model.coupling              # sigma and carry

    def path(gen, phases, spare):
        _ou_phases(gen.standard_normal(out=spare).T, law, out=phases.T)

    return path


def _default_noise(params: DecoherenceParams) -> NoiseModel:
    # quasi-static coupling that reproduces the exp(-(gamma2 t)^2) envelope
    return NoiseModel.quasi_static(params.gamma2 / math.sqrt(2.0))


def _kept_outcomes(params: DecoherenceParams, config: ProtocolConfig, noise: NoiseModel):
    """Task kernel: kept(task)[r, k] says projection k returned the state of the task's row r.

    The Born probability that a projection returns the pre-interval state:
    in the no-jump branch the excited amplitude is damped by eps =
    exp(-gamma1 tau/2) and the eigenstate phases differ by 2 phi, giving
    (1 + eps^2 + 2 eps cos 2 phi) / (2 (1 + eps^2)); after a jump the state
    is |0>, which projects onto either equatorial state with probability 1/2.
    """
    n, tau = config.measurements, config.tau
    _check_phase(noise.coupling, config.total_time, n)
    persistent = config.noise_reset is NoiseReset.PERSISTENT
    p_jump = 0.5 * (1.0 - math.exp(-params.gamma1 * tau))   # from a fresh |+->-type state
    eps = math.exp(-0.5 * params.gamma1 * tau)
    eps_sq = eps * eps
    fill_phases = _interval_phases(noise, tau, n, persistent)

    def kept(task) -> np.ndarray:
        rows = sum(block_rows for _, block_rows in task)
        stay, uniforms = np.empty((rows, n)), np.empty((rows, n))
        jumped = np.empty((rows, n), dtype=bool)
        start = 0
        for gen, block_rows in task:
            block = slice(start, start + block_rows)
            start = block.stop
            fill_phases(gen, stay[block], uniforms[block])
            np.less(gen.random(out=uniforms[block]), p_jump, out=jumped[block])
            gen.random(out=uniforms[block])
        np.cos(stay, out=stay)
        stay *= 2.0 * eps
        stay += 1.0 + eps_sq
        stay /= 2.0 * (1.0 + eps_sq)
        np.copyto(stay, 0.5, where=jumped)
        # kept, column-major, in the bytes that held jumped
        return np.less(uniforms, stay, out=jumped.reshape(n, rows).T)

    return kept


def _survivors_per_step(kept: np.ndarray) -> np.ndarray:
    """Rows of ``kept`` whose projections 0..k all returned their state, for each k.

    Counted column by column, the same counts as
    ``np.logical_and.accumulate(kept, axis=1).sum(axis=0)``.
    """
    survivors = np.empty(kept.shape[1], dtype=np.int64)
    alive = kept[:, 0].copy()
    survivors[0] = np.count_nonzero(alive)
    for k in range(1, kept.shape[1]):
        alive &= kept[:, k]
        survivors[k] = np.count_nonzero(alive)
    return survivors


def _kept_parity(kept: np.ndarray) -> np.ndarray:
    """Whether each row of ``kept`` returned its state an odd number of times.

    Computed column by column, the same as ``np.count_nonzero(kept, axis=1) % 2 == 1``.
    """
    odd = kept[:, 0].copy()
    for k in range(1, kept.shape[1]):
        odd ^= kept[:, k]
    return odd


def _reduce_tasks(params: DecoherenceParams, config: ProtocolConfig, noise: NoiseModel,
                  context: tuple[int, ...], reduce):
    """``reduce(kept)`` of every task of the run, in task order (see ``_kept_outcomes``)."""
    kept = _kept_outcomes(params, config, noise)
    per_task = max(1, TASK_VALUES // (TRAJECTORY_BLOCK * config.measurements))
    return _reduce_blocks(lambda task: reduce(kept(task)), config.trajectories,
                          config.base_seed, context, per_task)


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
    m = config.trajectories
    survivors = sum(_reduce_tasks(params, config, noise, context, _survivors_per_step))
    p = survivors[-1] / m
    stderr = math.sqrt(p * (1.0 - p) / m)
    return ProtocolResult(success_probability=float(p), success_stderr=stderr,
                          survivors_per_step=tuple(int(v) for v in survivors), trajectories=m)


def nonselective_run_mc(params: DecoherenceParams, config: ProtocolConfig,
                        noise: NoiseModel | None = None,
                        context: tuple[int, ...] = ()) -> ProtocolResult:
    """Estimate the post-measurement state by trajectory sampling.

    After every projection a trajectory is in one of the two equatorial
    eigenstates; tracking the sign of that state is enough, and the ensemble
    mean of the signs is twice the coherence of the averaged state.  Like
    ``nonselective_rho``, ``final_rho`` is that state in the co-rotating frame.
    """
    _check_mc_config(config, ProtocolKind.NON_SELECTIVE)
    if noise is None:
        noise = _default_noise(params)
    m, n = config.trajectories, config.measurements

    def sign_sum(kept):
        # a trajectory's sign flips at every projection that lands on the
        # other eigenstate, so its final sign is the parity of its n - kept flips
        parity = _kept_parity(kept)
        odd = int(np.count_nonzero(parity))
        return len(parity) - 2 * (len(parity) - odd if n % 2 else odd)

    mean_sign = sum(_reduce_tasks(params, config, noise, context, sign_sum)) / m
    coherence = 0.5 * mean_sign
    stderr = 0.5 * math.sqrt(max(1.0 - mean_sign ** 2, 0.0) / m)
    return ProtocolResult(final_rho=_equatorial_rho(coherence),
                          coherence=abs(coherence), coherence_stderr=stderr, trajectories=m)


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
    grid = [(t, n) for t in times for n in range(1, _require("n_max", n_max, 1) + 1)]
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
    points = [_coherence_and_ratio(params, t, n) for t, n in grid]
    return Table({"t": [float(t) for t, _ in grid], "N": [int(n) for _, n in grid],
                  "abs01": [c for c, _ in points], "ratio": [r for _, r in points]})
