"""Classical Gaussian dephasing noise and trajectory ensemble averaging.

The noise f(t) is zero-mean, unit-variance Gaussian with one of two
correlation structures:

* quasi-static: one standard-normal constant per realisation (the
  infinite-correlation-time limit of low-frequency noise),
* Ornstein-Uhlenbeck: stationary with autocorrelation exp(-|dt|/tau_c).

White-spectrum decay is not sampled: the master-equation module handles it
through the relaxation rate.

A qubit coupled through H = coupling * f(t) * sigma_z accumulates the phase
phi(t) = coupling * integral_0^t f(s) ds between its sigma_z eigenstates, so a
single trajectory multiplies the |0><1| element by exp(-2i phi) and leaves the
populations untouched.  Ensemble averaging those pure states is what produces
the quadratic-exponent (quasi-static) and exponential (short-correlation)
coherence decay laws.  No engine samples f itself: Ornstein-Uhlenbeck phases
come from one exact law of its integral over steps of any length.

Reproducibility contract
------------------------
Trajectories are grouped into fixed blocks of ``TRAJECTORY_BLOCK``.  Block b
of an ensemble draws from its own counter-based Philox stream keyed by
(base_seed, *context, b), consumed in a fixed documented order: quasi-static
noise is one normal per trajectory, Ornstein-Uhlenbeck noise one
(grid points, rows) array of normals, grid point after grid point, normal k
driving the law's step from grid[k-1] to grid[k] (from t = 0 for k = 0).
Trajectory i = b * TRAJECTORY_BLOCK + r reads entry r of every grid point.

One engine runs the blocks of every Monte Carlo path (``ensemble_average``
here, the protocol engines in ``zenosim.zeno``).  It derives the block
streams on the calling thread, runs the blocks on one worker thread per CPU
available to the process (there is no setting), and hands their partial
results back in block order, where they are combined exactly as a serial loop
would combine them.  Results are therefore bit-identical for a given
(model, grid, M, base_seed) whatever the worker count and whatever order the
blocks finish in.  Each block in flight draws and works through its grid in
chunks of about ``CHUNK_VALUES`` float64, so its scratch memory does not grow
with the grid, and the chunk size changes no bit of the result.  A chunk is a
tile of 2^15 values (256 KiB): a block allocates two tiles once, draws every
chunk's normals into one and writes its phases into the other, so both stay
in one core's L2 cache.
"""

import math
import os
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .qubit import PureState

TRAJECTORY_BLOCK = 2048

# float64 values per grid chunk of a block in ensemble_average; a block in
# flight holds two tiles of this size, whatever the length of the grid.  At
# 256 KiB each they fit in one core's L2 cache, which a 2 MiB tile fills alone
CHUNK_VALUES = 1 << 15


class NoiseKind(str, Enum):
    QUASI_STATIC = "quasi-static"
    ORNSTEIN_UHLENBECK = "ornstein-uhlenbeck"


@dataclass(frozen=True)
class NoiseModel:
    """Zero-mean, unit-variance Gaussian noise coupled through sigma_z."""

    kind: NoiseKind
    coupling: float          # rad/ns
    tau_c: float             # ns; inf for quasi-static

    def __post_init__(self):
        if not (self.coupling >= 0.0 and math.isfinite(self.coupling)):
            raise ValueError(f"coupling must be finite and >= 0, got {self.coupling!r}")
        if self.kind is NoiseKind.QUASI_STATIC and not math.isinf(self.tau_c):
            raise ValueError("quasi-static noise requires tau_c = inf")
        if self.kind is NoiseKind.ORNSTEIN_UHLENBECK and not (
                0.0 < self.tau_c < math.inf):
            raise ValueError(f"Ornstein-Uhlenbeck noise requires finite tau_c > 0, got {self.tau_c!r}")

    @classmethod
    def quasi_static(cls, coupling: float) -> "NoiseModel":
        return cls(NoiseKind.QUASI_STATIC, coupling, math.inf)

    @classmethod
    def ornstein_uhlenbeck(cls, coupling: float, tau_c: float) -> "NoiseModel":
        return cls(NoiseKind.ORNSTEIN_UHLENBECK, coupling, tau_c)


def stream_generator(base_seed: int, *key: int) -> np.random.Generator:
    """Counter-based Philox stream for (base_seed, key...); O(1) to derive."""
    seq = np.random.SeedSequence(entropy=int(base_seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(seq))


def ou_decay_exponent(coupling: float, tau_c: float, t):
    """G(t) = 4 coupling^2 tau_c^2 (x - 1 + e^-x), x = t/tau_c: |+> keeps coherence exp(-G)/2.

    x + expm1(-x) loses about 2 ulp / x at small x.  As with Python floats, G
    past the float range is inf (nan for inf times a zero bracket), unwarned.
    """
    scale = 2.0 * coupling * tau_c
    with np.errstate(over="ignore", invalid="ignore"):
        x = np.divide(t, tau_c)
        return scale * scale * (x + np.expm1(-x))


def _ou_interval_coefficients(tau: float, tau_c: float):
    """Exact one-interval law of a stationary unit OU path f and its integral I.

    With x = tau/tau_c and a = exp(-x), returns (spread, decay, kick, carry,
    mix, fresh):

    * I alone is Gaussian with standard deviation
      spread = tau_c sqrt(2 (x - 1 + a));
    * given the start f, the end is decay f + kick z1 with decay = a and
      kick = sqrt(1 - a^2), and I = carry f + mix z1 + fresh z2 with
      carry = tau_c (1 - a), mix = carry sqrt(tanh(x/2)) and
      fresh = tau_c sqrt(2 (x - 2 tanh(x/2))), for independent standard
      normals z1, z2 (D. T. Gillespie, Phys. Rev. E 54, 2084 (1996)).

    Both differences cancel at small x (x - 2 tanh(x/2) ~ x^3/12), so they
    come from their Taylor series there.
    """
    x = tau / tau_c
    if x < 0.05:
        # (x - 1 + a) / x^2 and (x - 2 tanh(x/2)) / x^3, scaled back below so
        # that a tiny x does not underflow on the way
        drift = 1/2 - x * (1/6 - x * (1/24 - x * (1/120 - x * (
            1/720 - x * (1/5040 - x * (1/40320 - x / 362880))))))
        lag = 1/12 - x * x * (1/120 - x * x * (17/20160 - x * x * 31/362880))
        spread = tau_c * x * math.sqrt(2.0 * drift)
        fresh = tau_c * x * math.sqrt(2.0 * x * lag)
    else:
        spread = tau_c * math.sqrt(2.0 * (x + math.expm1(-x)))
        fresh = tau_c * math.sqrt(2.0 * (x - 2.0 * math.tanh(0.5 * x)))
    carry = -tau_c * math.expm1(-x)
    return (spread, math.exp(-x), math.sqrt(-math.expm1(-2.0 * x)), carry,
            carry * math.sqrt(math.tanh(0.5 * x)), fresh)


def _ou_phase_law(steps, tau_c: float) -> np.ndarray:
    """Exact joint law of a unit OU path's integrals I_k over steps of lengths steps[k] >= 0.

    Returns rows (sigma, carry, decay, gain), one column per step, for
    I_k = carry_k m_{k-1} + sigma_k z_k and m_k = decay_k m_{k-1} + gain_k z_k,
    m_0 = 0, one standard normal z_k per step.  This is the innovations form:
    m_k is the mean of the path's value after step k given I_1..I_k, and its
    variance P starts at 1 and follows S = carry^2 P + mix^2 + fresh^2,
    sigma = sqrt(S), gain = (decay carry P + kick mix) / sigma and
    P <- (P (mix^2 + decay^2 fresh^2) + kick^2 fresh^2) / S in the coefficients
    of ``_ou_interval_coefficients``; no term cancels.  While P = 1, S is the
    unconditional spread^2.  A zero step adds no phase and moves neither m nor P.
    """
    law = np.zeros((4, len(steps)))
    law[2] = 1.0
    p = 1.0
    for k, step in enumerate(steps):
        if step == 0.0:
            continue
        spread, decay, kick, carry, mix, fresh = _ou_interval_coefficients(step, tau_c)
        s = spread * spread if p == 1.0 else carry * carry * p + mix * mix + fresh * fresh
        sigma = math.sqrt(s)
        law[:, k] = sigma, carry, decay, (decay * carry * p + kick * mix) / sigma
        p = (p * (mix * mix + decay * decay * fresh * fresh) + kick * kick * fresh * fresh) / s
    return law


def _ou_phases(z: np.ndarray, law: np.ndarray, m=0.0, out=None):
    """Phases I_k of ``law``'s steps (a slice of them) driven by the normals z[k].

    ``z`` (steps, rows) is overwritten with m.  Returns the (steps, rows)
    phases, written into ``out`` if given, and m after the last step; ``m``
    is the law's m before the first.
    """
    sigma, carry, decay, gain = law
    phases = np.multiply(z, sigma[:, np.newaxis], out=out)
    phases[0] += carry[0] * m
    for k, row in enumerate(z):
        row *= gain[k]
        row += decay[k] * m
        m = row
    m = m.copy()
    z[:-1] *= carry[1:, np.newaxis]
    phases[1:] += z[:-1]
    return phases, m


@dataclass(frozen=True)
class EnsembleResult:
    """Ensemble-mean state on a time grid with statistical errors.

    ``mean_rho`` holds the averaged density matrix per grid point, ``stderr``
    the per-element standard error sqrt((Var[Re] + Var[Im]) / M) of that mean,
    with unbiased variances.  Each trajectory's factor exp(-2i phi) has
    modulus 1, so Var[Re] + Var[Im] = (1 - |mean factor|^2) M / (M - 1).
    """

    time_grid: np.ndarray
    mean_rho: np.ndarray       # (G, 2, 2) complex
    stderr: np.ndarray         # (G, 2, 2) real
    trajectory_count: int

    def coherence(self) -> np.ndarray:
        """|<0|rho|1>| per grid point."""
        return np.abs(self.mean_rho[:, 0, 1])

    def coherence_stderr(self) -> np.ndarray:
        return self.stderr[:, 0, 1].copy()


def _block_row_counts(trajectories: int):
    for block in range(math.ceil(trajectories / TRAJECTORY_BLOCK)):
        yield block, min(TRAJECTORY_BLOCK, trajectories - block * TRAJECTORY_BLOCK)


def ensemble_average(psi0: PureState, model: NoiseModel, grid, trajectories: int,
                     base_seed: int, context: tuple[int, ...] = ()) -> EnsembleResult:
    """Average M = ``trajectories`` dephasing realisations of ``psi0`` on ``grid``.

    Every per-trajectory state is exactly pure; only the mean is mixed.
    Results are bit-reproducible for fixed (model, grid, M, base_seed): see
    the module docstring for the block contract.
    """
    if trajectories < 100:
        raise ValueError(f"need at least 100 trajectories, got {trajectories}")
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0 or not (grid[0] >= 0.0 and np.all(np.diff(grid) > 0.0)):
        raise ValueError("time grid must be 1-d, non-negative and strictly increasing")

    rho0 = np.outer(psi0.amplitudes, psi0.amplitudes.conj())
    g = grid.size
    sum_phase = np.zeros(g, dtype=complex)        # sum of exp(-2i phi)
    for block_sum in _reduce_blocks(_ensemble_kernel(model, grid), trajectories,
                                    base_seed, context):
        sum_phase += block_sum

    m = float(trajectories)
    mean_factor = sum_phase / m
    factor_stderr = np.sqrt(np.maximum(1.0 - np.abs(mean_factor) ** 2, 0.0) / (m - 1.0))

    mean = np.empty((g, 2, 2), dtype=complex)
    mean[:] = rho0
    mean[:, 0, 1] = rho0[0, 1] * mean_factor
    mean[:, 1, 0] = np.conj(mean[:, 0, 1])
    stderr = np.zeros((g, 2, 2), dtype=float)
    stderr[:, 0, 1] = abs(rho0[0, 1]) * factor_stderr
    stderr[:, 1, 0] = stderr[:, 0, 1]
    return EnsembleResult(grid, mean, stderr, trajectories)


def _grid_chunks(size: int, rows: int) -> list[tuple[int, int]]:
    """Grid ranges [c0, c1) of at most CHUNK_VALUES / rows points, at least one."""
    width = max(1, CHUNK_VALUES // rows)
    return [(c0, min(c0 + width, size)) for c0 in range(0, size, width)]


def _ensemble_kernel(model: NoiseModel, grid: np.ndarray):
    """Block kernel of ``ensemble_average``.

    ``kernel(gen, rows)`` draws the block one grid chunk at a time in stream
    order and returns its sum of exp(-2i phi) over the rows at each grid
    point.  A chunk is a (points, rows) tile of the phases 2 phi, so each
    grid point sums contiguous values and the chunk size changes no bit; the
    OU law's m and the running phase carry over from one chunk to the next.
    The block allocates its two tiles once: ``chunk_phases`` writes each
    chunk's phases into ``tile`` (drawing OU normals into ``spare`` first),
    and the sines go into ``spare``.
    """
    if model.kind is NoiseKind.QUASI_STATIC:
        scale = 2.0 * model.coupling * grid

        def chunk_phases(gen, chunks, tile, spare):
            f0 = gen.standard_normal(tile.shape[1])
            for c0, c1 in chunks:
                yield np.multiply.outer(scale[c0:c1], f0, out=tile[:c1 - c0])
    else:
        law = _ou_phase_law(np.diff(grid, prepend=0.0), model.tau_c)
        law[:2] *= 2.0 * model.coupling          # sigma and carry, so phases are 2 phi

        def chunk_phases(gen, chunks, tile, spare):
            m = phase = 0.0              # the law's m and the phase before the chunk
            for c0, c1 in chunks:
                z = gen.standard_normal(out=spare[:c1 - c0])
                phases, m = _ou_phases(z, law[:, c0:c1], m, out=tile[:c1 - c0])
                for row in phases:              # the running sum: a cumsum over axis 0
                    row += phase                # takes several times as long
                    phase = row
                phase = phase.copy()
                yield phases

    def kernel(gen: np.random.Generator, rows: int):
        chunks = _grid_chunks(grid.size, rows)
        tile, spare = np.empty((2, chunks[0][1], rows))      # the first chunk is the widest
        sums = np.empty(grid.size, dtype=complex)
        for (c0, c1), phases in zip(chunks, chunk_phases(gen, chunks, tile, spare)):
            sums.imag[c0:c1] = -np.sin(phases, out=spare[:c1 - c0]).sum(axis=1)
            np.cos(phases, out=phases)
            sums.real[c0:c1] = phases.sum(axis=1)
        return sums

    return kernel


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:                  # platforms without affinity masks
        return os.cpu_count() or 1


def _reduce_blocks(kernel, trajectories: int, base_seed: int,
                   context: tuple[int, ...] = (), workers: int | None = None):
    """Yield ``kernel(gen, rows)`` for every trajectory block, in block order.

    The block streams are derived here, on the calling thread and in block
    order, all of them before the first kernel starts, so whatever wraps
    ``stream_generator`` runs on the caller's thread only.  The kernels run
    on ``workers`` threads (default: every CPU this process may use, at most
    one per block; one block runs inline).  A kernel must draw only from the
    ``gen`` it is given, so its result does not depend on which thread runs
    it or when.
    """
    blocks = list(_block_row_counts(trajectories))
    workers = min(workers or _available_cpus(), len(blocks))
    if workers <= 1:
        for block, rows in blocks:
            yield kernel(stream_generator(base_seed, *context, block), rows)
        return
    # imported here: it costs a run that needs no threads about 15 ms
    from concurrent.futures import ThreadPoolExecutor

    gens = [stream_generator(base_seed, *context, block) for block, _ in blocks]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(kernel, gens, [rows for _, rows in blocks])
