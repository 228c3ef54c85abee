"""Exact 2x2 algebra for a single qubit.

States, Pauli matrices, the system Hamiltonian with its propagator and the
Bloch-vector turn it makes, y rotations, co-rotating projectors and Bloch
vectors.  Pauli matrices, propagators, rotations and projectors are read-only
complex (2, 2) numpy arrays.  One check, ``validate_density``, reads the
entries of one state at the one set of tolerances below.  Conventions are
fixed here once and for all:

* basis: ``|0>`` is the ground state, ``|1>`` the excited state, ``sigma_z |0> = +|0>``,
* time in nanoseconds, angular frequencies in rad/ns.

All types and arrays are immutable values and all operations are pure, so
they can be shared freely across concurrent workers.
"""

import cmath
import math
from dataclasses import dataclass, fields

import numpy as np

TRACE_TOL = 1e-12
HERMITICITY_TOL = 1e-12
POSITIVITY_TOL = 1e-10
NORM_TOL = 1e-12


def _require(name: str, value, minimum, above: bool = False, allow_inf: bool = False):
    """The one argument rule: ``value`` if >= ``minimum`` (> if ``above``) and finite (or inf if
    ``allow_inf``), else a ValueError naming it.  An int ``minimum`` asks for an integer; a float
    ``minimum`` returns a Python float, whose arithmetic overflows to inf without a warning (a
    numpy scalar's warns); None fails."""
    if (value is not None and (minimum < value if above else minimum <= value)
            and (allow_inf or value < math.inf)
            and (type(minimum) is not int or isinstance(value, (int, np.integer)))):
        return value if type(minimum) is int else float(value)
    bound = f"{'>' if above else '>='} {minimum:g}"
    rule = (f"an integer {bound}" if type(minimum) is int else "finite" if minimum == -math.inf
            else bound if allow_inf else f"finite and {bound}")
    raise ValueError(f"{name} must be {rule}, got {value!r}")


def _frozen_array(values, shape) -> np.ndarray:
    arr = np.array(values, dtype=complex)
    if arr.shape != shape:
        raise ValueError(f"expected array of shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr.view(float))):
        raise ValueError("array contains non-finite entries")
    arr.flags.writeable = False
    return arr


_IDENTITY = _frozen_array(np.eye(2), (2, 2))
SIGMA_X = _frozen_array([[0.0, 1.0], [1.0, 0.0]], (2, 2))
SIGMA_Y = _frozen_array([[0.0, -1.0j], [1.0j, 0.0]], (2, 2))
SIGMA_Z = _frozen_array([[1.0, 0.0], [0.0, -1.0]], (2, 2))


class _ArrayValue:
    """``==`` by np.array_equal on a record's one array; the hash agrees (-0.0 hashes as 0.0)."""

    def _array(self) -> np.ndarray:
        return getattr(self, fields(self)[0].name)

    def __eq__(self, other):
        return (np.array_equal(self._array(), other._array()) if type(other) is type(self)
                else NotImplemented)

    def __hash__(self):
        return hash(tuple(self._array().ravel().tolist()))


@dataclass(frozen=True, eq=False)
class PureState(_ArrayValue):
    """Normalised two-component state vector."""

    amplitudes: np.ndarray

    def __post_init__(self):
        arr = _frozen_array(self.amplitudes, (2,))
        norm = math.sqrt(float(np.sum(np.abs(arr) ** 2)))
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"state norm {norm!r} deviates from 1 by more than {NORM_TOL}")
        object.__setattr__(self, "amplitudes", arr)

    def density(self) -> "DensityMatrix":
        return DensityMatrix(np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass(frozen=True, eq=False)
class DensityMatrix(_ArrayValue):
    """2x2 Hermitian, unit-trace, positive-semidefinite state."""

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _frozen_array(self.matrix, (2, 2)))
        validate_density(self.matrix)


def validate_density(arr: np.ndarray) -> None:
    """Raise ValueError, with the reason, unless ``arr`` is a physical 2x2 state.

    Its entries must be finite, its trace 1 within ``TRACE_TOL``, rho - rho^dagger,
    whose largest entry is max(2|Im p00|, 2|Im p11|, |rho01 - conj rho10|), 0 within
    ``HERMITICITY_TOL``, and its smaller eigenvalue, taken in closed form, above
    -``POSITIVITY_TOL``.
    """
    (p00, rho01), (rho10, p11) = np.asarray(arr, dtype=complex).tolist()
    if not all(map(cmath.isfinite, (p00, p11, rho01, rho10))):
        raise ValueError("matrix contains non-finite entries")
    trace = p00 + p11
    if abs(trace - 1.0) > TRACE_TOL:
        raise ValueError(f"trace {trace!r} deviates from 1 beyond {TRACE_TOL}")
    if max(2.0 * abs(p00.imag), 2.0 * abs(p11.imag),
           abs(rho01 - rho10.conjugate())) > HERMITICITY_TOL:
        raise ValueError("matrix is not Hermitian within tolerance")
    lowest = 0.5 * (p00.real + p11.real) - math.hypot(0.5 * (p00.real - p11.real), abs(rho10))
    if lowest < -POSITIVITY_TOL:
        raise ValueError(f"negative eigenvalue {lowest!r} below -{POSITIVITY_TOL}")


@dataclass(frozen=True)
class SystemHamiltonian:
    """H = (epsilon/2) sigma_z + (delta/2) sigma_x, frequencies in rad/ns."""

    epsilon: float
    delta: float = 0.0

    def __post_init__(self):
        for name in ("epsilon", "delta"):
            value = _require(name, getattr(self, name), -math.inf, above=True)
            object.__setattr__(self, name, value)

    def evolution(self, time: float) -> np.ndarray:
        """Propagator exp(-i H t), evaluated in closed form.

        For H = (omega/2) n.sigma the propagator is
        cos(omega t / 2) I - i sin(omega t / 2) n.sigma.
        """
        time = _require("time", time, -math.inf, above=True)
        omega = math.hypot(self.epsilon, self.delta)
        if omega == 0.0:
            return _IDENTITY
        half = 0.5 * omega * time
        # the axis components first: 1/omega overflows for a subnormal omega
        n_sigma = (self.epsilon / omega) * SIGMA_Z + (self.delta / omega) * SIGMA_X
        return _frozen_array(math.cos(half) * np.eye(2) - 1j * math.sin(half) * n_sigma, (2, 2))

    def rotate_bloch(self, times, x, y, z) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Bloch-vector columns (x, y, z) of states conjugated by ``evolution`` at each time.

        exp(-i H t) rho exp(i H t) turns the Bloch vector r of rho by the angle
        omega t about n = (delta, 0, epsilon)/omega.  Rodrigues' formula,
        r cos + (n x r) sin + n (n . r)(1 - cos), makes the turn column by column.
        """
        times = np.asarray(times, dtype=float)
        if not np.all(np.isfinite(times)):
            raise ValueError("times must be finite")
        x, y, z = (np.asarray(c, dtype=float) for c in (x, y, z))
        omega = math.hypot(self.epsilon, self.delta)
        if omega == 0.0:
            return x.copy(), y.copy(), z.copy()
        nx, nz = self.delta / omega, self.epsilon / omega
        cos, sin = np.cos(omega * times), np.sin(omega * times)
        along = (1.0 - cos) * (nx * x + nz * z)
        return (cos * x - sin * (nz * y) + along * nx,
                cos * y + sin * (nz * x - nx * z),
                cos * z + sin * (nx * y) + along * nz)


def plus_state() -> PureState:
    """The sigma_x eigenstate (|0> + |1>)/sqrt(2)."""
    s = 1.0 / math.sqrt(2.0)
    return PureState(np.array([s, s], dtype=complex))


def rotation_y(angle: float) -> np.ndarray:
    """exp(-i angle sigma_y / 2): rotation of the Bloch vector about y."""
    angle = _require("angle", angle, -math.inf, above=True)
    c, s = math.cos(0.5 * angle), math.sin(0.5 * angle)
    return _frozen_array([[c, -s], [s, c]], (2, 2))


def corotating_projector(psi: PureState, hs: SystemHamiltonian, time: float) -> np.ndarray:
    """Rank-1 projector onto exp(-i H t)|psi>, tracking the free evolution."""
    rotated = hs.evolution(time) @ psi.amplitudes
    return _frozen_array(np.outer(rotated, rotated.conj()), (2, 2))


def bloch_vector(rho: DensityMatrix) -> tuple[float, float, float]:
    """(x, y, z) = (tr rho sigma_x, tr rho sigma_y, tr rho sigma_z)."""
    return tuple(float(np.trace(rho.matrix @ s).real) for s in (SIGMA_X, SIGMA_Y, SIGMA_Z))
