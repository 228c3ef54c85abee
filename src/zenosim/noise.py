"""Classical Gaussian dephasing noise and trajectory ensemble averaging.

The noise f(t) is zero-mean, unit-variance Gaussian with one of three
correlation structures:

* quasi-static: one standard-normal constant per realisation (the
  infinite-correlation-time limit of low-frequency noise),
* Ornstein-Uhlenbeck: stationary with autocorrelation exp(-|dt|/tau_c),
* white: a bookkeeping tag only; white-spectrum decay is handled by the
  relaxation rate in the master-equation module, never by sampled paths.

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
(base_seed, *context, b), consumed in a fixed documented order; trajectory
i = b * TRAJECTORY_BLOCK + r reads row r of every block draw.

One engine runs the blocks of every Monte Carlo path (``ensemble_average``
here, the protocol engines in ``zenosim.zeno``).  It derives the block
streams on the calling thread, runs the blocks on one worker thread per CPU
available to the process (there is no setting), and hands their partial
results back in block order, where they are combined exactly as a serial loop
would combine them.  Results are therefore bit-identical for a given
(model, grid, M, base_seed) whatever the worker count and whatever order the
blocks finish in.  Each block in flight works through its grid (or, for the
protocol noise, its rows) in chunks of about ``CHUNK_VALUES`` float64, which
bounds its scratch memory and changes no bit of the result.
"""

import math
import os
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .qubit import SIGMA_Z, DensityMatrix, PureState, QubitOperator, validate_density

TRAJECTORY_BLOCK = 2048

# float64 values per chunk of a block's grid (ensemble_average) or of its
# rows (Ornstein-Uhlenbeck protocol draws); bounds each block's scratch memory
CHUNK_VALUES = 1 << 20

# maximum grid step, in units of tau_c, for Ornstein-Uhlenbeck sampling
MAX_OU_STEP_FRACTION = 0.1


class NoiseKind(str, Enum):
    QUASI_STATIC = "quasi-static"
    ORNSTEIN_UHLENBECK = "ornstein-uhlenbeck"
    WHITE = "white"


@dataclass(frozen=True)
class NoiseModel:
    """Zero-mean, unit-variance Gaussian noise coupled through ``operator``."""

    kind: NoiseKind
    coupling: float          # rad/ns
    tau_c: float             # ns; inf for quasi-static, 0 for white
    operator: QubitOperator = SIGMA_Z

    def __post_init__(self):
        if not (self.coupling >= 0.0 and math.isfinite(self.coupling)):
            raise ValueError(f"coupling must be finite and >= 0, got {self.coupling!r}")
        if self.kind is NoiseKind.QUASI_STATIC and not math.isinf(self.tau_c):
            raise ValueError("quasi-static noise requires tau_c = inf")
        if self.kind is NoiseKind.ORNSTEIN_UHLENBECK and not (
                0.0 < self.tau_c < math.inf):
            raise ValueError(f"Ornstein-Uhlenbeck noise requires finite tau_c > 0, got {self.tau_c!r}")
        if self.kind is NoiseKind.WHITE and self.tau_c != 0.0:
            raise ValueError("white noise requires tau_c = 0")
        if not self.operator.is_hermitian():
            raise ValueError("noise operator must be Hermitian")

    @classmethod
    def quasi_static(cls, coupling: float, operator: QubitOperator = SIGMA_Z) -> "NoiseModel":
        return cls(NoiseKind.QUASI_STATIC, coupling, math.inf, operator)

    @classmethod
    def ornstein_uhlenbeck(cls, coupling: float, tau_c: float,
                           operator: QubitOperator = SIGMA_Z) -> "NoiseModel":
        return cls(NoiseKind.ORNSTEIN_UHLENBECK, coupling, tau_c, operator)

    @classmethod
    def white(cls, coupling: float, operator: QubitOperator = SIGMA_Z) -> "NoiseModel":
        return cls(NoiseKind.WHITE, coupling, 0.0, operator)


@dataclass(frozen=True)
class Trajectory:
    """One sampled noise realisation f(t_i) on an increasing time grid.

    A single-sample trajectory represents a quasi-static realisation that is
    constant for all t >= 0.
    """

    sample_times: np.ndarray
    values: np.ndarray
    rng_stream_id: int

    def __post_init__(self):
        times = np.asarray(self.sample_times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if times.ndim != 1 or times.shape != values.shape or times.size == 0:
            raise ValueError("sample_times and values must be equal-length 1-d arrays")
        if times.size > 1 and not np.all(np.diff(times) > 0.0):
            raise ValueError("sample_times must be strictly increasing")
        if not (np.all(np.isfinite(times)) and np.all(np.isfinite(values))):
            raise ValueError("trajectory contains non-finite entries")
        times.flags.writeable = False
        values.flags.writeable = False
        object.__setattr__(self, "sample_times", times)
        object.__setattr__(self, "values", values)


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


def _ou_paths(grid: np.ndarray, tau_c: float, normals: np.ndarray) -> np.ndarray:
    """Exact discrete Ornstein-Uhlenbeck paths from iid standard normals.

    ``normals`` has shape (rows, len(grid)); column 0 seeds the stationary
    distribution, column k the innovation for the step onto grid[k].
    """
    steps = np.diff(grid)
    decay = np.exp(-steps / tau_c)
    kick = np.sqrt(1.0 - decay * decay)
    paths = np.empty_like(normals)
    paths[:, 0] = normals[:, 0]
    for k in range(steps.size):
        paths[:, k + 1] = decay[k] * paths[:, k] + kick[k] * normals[:, k + 1]
    return paths


def sample_quasi_static(model: NoiseModel, seed: int) -> Trajectory:
    """One quasi-static realisation: f(t) = f0 with f0 ~ N(0, 1)."""
    if model.kind is not NoiseKind.QUASI_STATIC:
        raise ValueError(f"expected quasi-static model, got {model.kind.value}")
    f0 = stream_generator(seed).standard_normal()
    return Trajectory(np.array([0.0]), np.array([f0]), int(seed))


def sample_ou(model: NoiseModel, grid, seed: int) -> Trajectory:
    """One stationary Ornstein-Uhlenbeck realisation on ``grid``.

    The update is the exact discrete recursion
    f_{k+1} = exp(-dt/tau_c) f_k + sqrt(1 - exp(-2 dt/tau_c)) z_{k+1},
    seeded from the stationary distribution, so the sampled autocorrelation is
    exp(-|t - t'|/tau_c) at every lag without discretisation error.
    """
    if model.kind is not NoiseKind.ORNSTEIN_UHLENBECK:
        raise ValueError(f"expected Ornstein-Uhlenbeck model, got {model.kind.value}")
    grid = _check_ou_grid(grid, model.tau_c)
    normals = stream_generator(seed).standard_normal((1, grid.size))
    values = _ou_paths(grid, model.tau_c, normals)[0]
    return Trajectory(grid, values, int(seed))


def dephasing_phase(traj: Trajectory, coupling: float, t: float) -> float:
    """Accumulated phase coupling * integral f(s) ds from the grid start to t.

    Trapezoidal on the trajectory grid (exact for quasi-static realisations);
    ``t`` may fall between samples, in which case the final partial segment
    uses the linear interpolant of f.
    """
    if not (t >= 0.0 and math.isfinite(t)):
        raise ValueError(f"t must be finite and >= 0, got {t!r}")
    times, values = traj.sample_times, traj.values
    if times.size == 1:
        return coupling * values[0] * t
    if t < times[0] or t > times[-1] * (1.0 + 1e-12) + 1e-300:
        raise ValueError(f"t = {t!r} lies outside the trajectory grid "
                         f"[{times[0]!r}, {times[-1]!r}]")
    t = min(t, float(times[-1]))
    idx = int(np.searchsorted(times, t, side="right")) - 1
    phase = float(np.sum(0.5 * np.diff(times[: idx + 1]) * (values[1: idx + 1] + values[:idx])))
    if t > times[idx]:
        dt = t - times[idx]
        f_t = values[idx] + (values[idx + 1] - values[idx]) * dt / (times[idx + 1] - times[idx])
        phase += 0.5 * dt * (values[idx] + f_t)
    return coupling * phase


def trajectory_rho(psi0: PureState, traj: Trajectory, coupling: float, t: float,
                   operator: QubitOperator = SIGMA_Z) -> DensityMatrix:
    """State of one noise realisation at time t (interaction picture).

    Only sigma_z coupling is supported in this release; the relative phase
    between the sigma_z eigenstates is 2 phi(t), so the off-diagonal element
    picks up exp(-2i phi) while the populations stay fixed.
    """
    if np.max(np.abs(operator.matrix - SIGMA_Z.matrix)) > 1e-12:
        raise ValueError("only sigma_z noise coupling is supported in this release")
    phi = dephasing_phase(traj, coupling, t)
    rho = np.outer(psi0.amplitudes, psi0.amplitudes.conj())
    rho[0, 1] *= np.exp(-2j * phi)
    rho[1, 0] = np.conj(rho[0, 1])
    return DensityMatrix(rho)


@dataclass(frozen=True)
class EnsembleResult:
    """Trajectory-averaged state on a time grid with statistical errors.

    ``mean_rho`` holds the averaged density matrix per grid point, ``stderr``
    the per-element standard error sqrt((Var[Re] + Var[Im]) / M) of that mean.
    """

    time_grid: np.ndarray
    mean_rho: np.ndarray       # (G, 2, 2) complex
    stderr: np.ndarray         # (G, 2, 2) real
    trajectory_count: int

    def rho(self, index: int) -> DensityMatrix:
        return DensityMatrix(self.mean_rho[index])

    def coherence(self) -> np.ndarray:
        """|<0|rho|1>| per grid point."""
        return np.abs(self.mean_rho[:, 0, 1])

    def coherence_stderr(self) -> np.ndarray:
        return self.stderr[:, 0, 1].copy()

    def validate(self, tol: float = 1e-9) -> None:
        for point in self.mean_rho:
            validate_density(point, trace_tol=tol, herm_tol=tol, positivity_tol=tol)


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
    if model.kind is NoiseKind.ORNSTEIN_UHLENBECK:
        normals = gen.standard_normal((rows, grid.size))
        return _ou_paths(grid, model.tau_c, normals)
    raise ValueError(f"{model.kind.value} noise has no sampled trajectories; "
                     "white-spectrum decay is handled by the relaxation rate")


def ensemble_average(psi0: PureState, model: NoiseModel, grid, trajectories: int,
                     base_seed: int, context: tuple[int, ...] = ()) -> EnsembleResult:
    """Average M = ``trajectories`` dephasing realisations of ``psi0`` on ``grid``.

    Every per-trajectory state is exactly pure; only the mean loses purity.
    Results are bit-reproducible for fixed (model, grid, M, base_seed): see
    the module docstring for the block contract.
    """
    if trajectories < 100:
        raise ValueError(f"need at least 100 trajectories, got {trajectories}")
    if np.max(np.abs(model.operator.matrix - SIGMA_Z.matrix)) > 1e-12:
        raise ValueError("only sigma_z noise coupling is supported in this release")
    grid = np.asarray(grid, dtype=float)
    if model.kind is NoiseKind.ORNSTEIN_UHLENBECK:
        grid = _check_ou_grid(grid, model.tau_c)
    elif model.kind is NoiseKind.QUASI_STATIC:
        if grid.ndim != 1 or grid.size == 0 or (grid.size > 1 and not np.all(np.diff(grid) > 0)):
            raise ValueError("time grid must be 1-d and strictly increasing")
        if grid[0] < 0.0:
            raise ValueError("time grid must be non-negative")
    else:
        raise ValueError(f"{model.kind.value} noise has no sampled trajectories; "
                         "white-spectrum decay is handled by the relaxation rate")

    rho0 = np.outer(psi0.amplitudes, psi0.amplitudes.conj())
    g = grid.size
    sum_phase = np.zeros(g, dtype=complex)        # sum of exp(-2i phi)
    sum_re2 = np.zeros(g, dtype=float)
    sum_im2 = np.zeros(g, dtype=float)
    kernel = _ensemble_kernel(model, grid)
    for block_phase, block_re2, block_im2 in _reduce_blocks(kernel, trajectories,
                                                            base_seed, context):
        sum_phase += block_phase
        sum_re2 += block_re2
        sum_im2 += block_im2

    m = float(trajectories)
    mean_factor = sum_phase / m
    # unbiased per-element variance of the off-diagonal factor
    var_re = np.maximum(sum_re2 / m - mean_factor.real ** 2, 0.0) * m / max(m - 1.0, 1.0)
    var_im = np.maximum(sum_im2 / m - mean_factor.imag ** 2, 0.0) * m / max(m - 1.0, 1.0)
    factor_stderr = np.sqrt((var_re + var_im) / m)

    mean = np.empty((g, 2, 2), dtype=complex)
    mean[:] = rho0
    mean[:, 0, 1] = rho0[0, 1] * mean_factor
    mean[:, 1, 0] = np.conj(mean[:, 0, 1])
    stderr = np.zeros((g, 2, 2), dtype=float)
    stderr[:, 0, 1] = abs(rho0[0, 1]) * factor_stderr
    stderr[:, 1, 0] = stderr[:, 0, 1]
    return EnsembleResult(grid, mean, stderr, trajectories)


def _grid_chunks(size: int, rows: int) -> list[tuple[int, int]]:
    """Column ranges [c0, c1) of at most CHUNK_VALUES / rows columns.

    numpy sums a one-column array along axis 0 pairwise but a wider one row
    by row, as it sums the whole grid; a lone last column therefore joins
    the chunk before it.
    """
    width = max(2, CHUNK_VALUES // rows)
    bounds = list(range(0, size, width)) + [size]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        del bounds[-2]
    return list(zip(bounds[:-1], bounds[1:]))


def _ensemble_kernel(model: NoiseModel, grid: np.ndarray):
    """Block kernel of ``ensemble_average``.

    ``kernel(gen, rows)`` draws the block exactly as ``block_noise_values``
    does and returns its sums of exp(-2i phi), Re^2 and Im^2 per grid point.
    Paths, phases and factors exist one grid chunk at a time; the OU path
    value and the running trapezoid carry over from chunk to chunk, so every
    number is the one the whole-grid computation gives.
    """
    ou = model.kind is NoiseKind.ORNSTEIN_UHLENBECK
    if ou:
        steps = np.diff(grid)
        decay = np.exp(-steps / model.tau_c)
        kick = np.sqrt(1.0 - decay * decay)
        half_steps = 0.5 * steps

    def ou_phases(normals, c0, c1, carry):
        # Phases on grid columns [c0, c1) and the carry (path value, running
        # integral) at column c1 - 1.  The buffer has one row per grid column
        # c0 - lead .. c1 - 1, so the recursion runs over contiguous rows;
        # column c0 - 1 ends the previous chunk.  It holds the normals, then
        # the path, then the running integral.
        lead = 1 if c0 else 0
        path = np.empty((c1 - c0 + lead, normals.shape[0]))
        path[0] = carry[0] if lead else normals[:, 0]
        path[1:] = normals[:, c0 + 1 - lead:c1].T
        for j in range(1, path.shape[0]):
            k = c0 - lead + j - 1                 # the step onto grid[k + 1]
            path[j] *= kick[k]
            path[j] += decay[k] * path[j - 1]
        f = path[-1].copy()
        for j in range(path.shape[0] - 1, 0, -1):            # trapezoid segments
            path[j] += path[j - 1]
        path[1:] *= half_steps[c0 - lead:c1 - 1, np.newaxis]
        path[0] = carry[1] if lead else 0.0
        for j in range(2 - lead, path.shape[0]):             # cumsum, row by row
            path[j] += path[j - 1]
        carry = f, path[-1].copy()
        phases = path[lead:]
        phases *= model.coupling
        return phases.T, carry

    def kernel(gen: np.random.Generator, rows: int):
        sums = (np.empty(grid.size, dtype=complex), np.empty(grid.size), np.empty(grid.size))
        if ou:
            normals = gen.standard_normal((rows, grid.size))
            carry = None
        else:
            scale = model.coupling * gen.standard_normal((rows, 1))
        for c0, c1 in _grid_chunks(grid.size, rows):
            if ou:
                phases, carry = ou_phases(normals, c0, c1, carry)
            else:
                phases = scale * grid[c0:c1]
            # row-major like the whole-grid array, so each column sums row by row
            factors = np.empty((rows, c1 - c0), dtype=complex)
            np.multiply(-2j, phases, out=factors)
            del phases
            np.exp(factors, out=factors)
            sums[0][c0:c1] = factors.sum(axis=0)
            sums[1][c0:c1] = np.sum(factors.real ** 2, axis=0)
            sums[2][c0:c1] = np.sum(factors.imag ** 2, axis=0)
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


def dump_trajectory_csv(traj: Trajectory, path) -> None:
    """Debug dump: one `t,f` row per sample."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t,f\n")
        for t, f in zip(traj.sample_times, traj.values):
            fh.write(f"{t:.17g},{f:.17g}\n")
