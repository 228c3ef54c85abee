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
coherence decay laws.

Reproducibility contract
------------------------
Trajectories are grouped into fixed blocks of ``TRAJECTORY_BLOCK``.  Block b
of an ensemble draws from its own counter-based Philox stream keyed by
(base_seed, *context, b), consumed in a fixed documented order: quasi-static
noise is one normal per trajectory, Ornstein-Uhlenbeck noise one
(grid points, rows) array of normals, grid point after grid point.
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
with the grid, and the chunk size changes no bit of the result.
"""

import math
import os
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .qubit import PureState

TRAJECTORY_BLOCK = 2048

# float64 values per grid chunk of a block in ensemble_average; a block in
# flight holds a few arrays of this size, whatever the length of the grid
CHUNK_VALUES = 1 << 18

# maximum grid step, in units of tau_c, for Ornstein-Uhlenbeck sampling
MAX_OU_STEP_FRACTION = 0.1


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


def _check_ou_grid(grid: np.ndarray, tau_c: float) -> np.ndarray:
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise ValueError("time grid must be a 1-d array with at least two points")
    if grid[0] != 0.0:
        raise ValueError("time grid must start at t = 0")
    steps = np.diff(grid)
    if not np.all(steps > 0.0):
        raise ValueError("time grid must be strictly increasing")
    max_step = float(np.max(steps))
    if max_step > tau_c * MAX_OU_STEP_FRACTION * (1.0 + 1e-12):
        raise ValueError(
            f"grid step {max_step!r} exceeds tau_c/10 = {tau_c * MAX_OU_STEP_FRACTION!r}; "
            "the noise correlation would be misrepresented")
    return grid


def _ou_paths(normals: np.ndarray, steps: np.ndarray, tau_c: float,
              start: float | np.ndarray) -> np.ndarray:
    """Exact discrete Ornstein-Uhlenbeck paths, built in place in ``normals``.

    Row k of ``normals`` (shape (points, rows)) is the innovation of a step of
    length steps[k] from the path value before it, ``start`` before row 0; an
    infinite step starts from the stationary distribution.
    """
    decay = np.exp(-steps / tau_c)
    kick = np.sqrt(1.0 - decay * decay)
    previous = start
    for k, row in enumerate(normals):
        row *= kick[k]
        row += decay[k] * previous
        previous = row
    return normals


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


def block_noise_values(model: NoiseModel, grid, base_seed: int, block: int,
                       rows: int, context: tuple[int, ...] = ()) -> np.ndarray:
    """Noise samples f(t) for one trajectory block, shape (rows, len(grid)).

    Row r is the realisation seen by ensemble trajectory
    block * TRAJECTORY_BLOCK + r; quasi-static realisations are broadcast
    across the grid.  This is the exact draw layout ``ensemble_average`` uses.
    """
    grid = np.asarray(grid, dtype=float)
    gen = stream_generator(base_seed, *context, block)
    if model.kind is NoiseKind.QUASI_STATIC:
        f0 = gen.standard_normal((rows, 1))
        return np.broadcast_to(f0, (rows, grid.size)).copy()
    steps = np.diff(grid, prepend=-np.inf)
    return _ou_paths(gen.standard_normal((grid.size, rows)), steps, model.tau_c, 0.0).T


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
    if model.kind is NoiseKind.ORNSTEIN_UHLENBECK:
        grid = _check_ou_grid(grid, model.tau_c)
    else:
        if grid.ndim != 1 or grid.size == 0 or (grid.size > 1 and not np.all(np.diff(grid) > 0)):
            raise ValueError("time grid must be 1-d and strictly increasing")
        if grid[0] < 0.0:
            raise ValueError("time grid must be non-negative")

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

    ``kernel(gen, rows)`` draws the block as ``block_noise_values`` does, one
    grid chunk at a time in stream order, and returns its sum of exp(-2i phi)
    over the rows at each grid point.  A chunk is a (points, rows) array, so
    each grid point sums contiguous values and the chunk size changes no bit;
    the OU path value and its running trapezoid integral carry over from one
    chunk to the next.
    """
    if model.kind is NoiseKind.QUASI_STATIC:
        def chunk_integrals(gen, rows):
            f0 = gen.standard_normal(rows)
            for c0, c1 in _grid_chunks(grid.size, rows):
                yield c0, c1, np.multiply.outer(grid[c0:c1], f0)
    else:
        steps = np.diff(grid, prepend=-np.inf)
        half_steps = 0.5 * np.diff(grid, prepend=0.0)[:, np.newaxis]

        def chunk_integrals(gen, rows):
            f = integral = 0.0           # path value and integral before the chunk
            for c0, c1 in _grid_chunks(grid.size, rows):
                path = _ou_paths(gen.standard_normal((c1 - c0, rows)), steps[c0:c1],
                                 model.tau_c, f)
                integrals = np.empty_like(path)
                integrals[0] = path[0] + f
                np.add(path[1:], path[:-1], out=integrals[1:])
                integrals *= half_steps[c0:c1]
                integrals[0] += integral
                np.cumsum(integrals, axis=0, out=integrals)
                f, integral = path[-1].copy(), integrals[-1].copy()
                del path
                yield c0, c1, integrals

    def kernel(gen: np.random.Generator, rows: int):
        sums = np.empty(grid.size, dtype=complex)
        for c0, c1, integrals in chunk_integrals(gen, rows):
            factors = np.multiply(-2j * model.coupling, integrals)
            np.exp(factors, out=factors)
            sums[c0:c1] = factors.sum(axis=1)
            del factors
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
