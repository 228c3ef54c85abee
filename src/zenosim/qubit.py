"""Exact 2x2 algebra for a single qubit.

States, Pauli operators, the system Hamiltonian with its propagator and the
Bloch-vector turn it makes, y rotations, co-rotating projectors and Bloch
vectors.  One check, ``first_unphysical``, reads the entries of one state or
the entry columns of many, at the one set of tolerances below.
Conventions are fixed here once and for all:

* basis: ``|0>`` is the ground state, ``|1>`` the excited state,
* ``sigma_z |0> = +|0>``, ``sigma_plus |0> = |1>``,
* time in nanoseconds, angular frequencies in rad/ns.

All types are immutable values and all operations are pure, so they can be
shared freely across concurrent workers.
"""

import math
from dataclasses import dataclass, field

import numpy as np

TRACE_TOL = 1e-12
HERMITICITY_TOL = 1e-12
POSITIVITY_TOL = 1e-10
NORM_TOL = 1e-12


def _require(name: str, value, minimum, above: bool = False, allow_inf: bool = False):
    """The one argument rule: ``value`` if >= ``minimum`` (> if ``above``) and finite (or inf if
    ``allow_inf``), else a ValueError naming it.  An int ``minimum`` asks for an integer; None
    fails."""
    if (value is not None and (minimum < value if above else minimum <= value)
            and (allow_inf or value < math.inf)
            and (type(minimum) is not int or isinstance(value, (int, np.integer)))):
        return value
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


@dataclass(frozen=True)
class QubitOperator:
    """A 2x2 complex operator (Pauli matrix or propagator)."""

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _frozen_array(self.matrix, (2, 2)))


IDENTITY = QubitOperator(np.eye(2))
SIGMA_X = QubitOperator([[0.0, 1.0], [1.0, 0.0]])
SIGMA_Y = QubitOperator([[0.0, -1.0j], [1.0j, 0.0]])
SIGMA_Z = QubitOperator([[1.0, 0.0], [0.0, -1.0]])
SIGMA_PLUS = QubitOperator([[0.0, 0.0], [1.0, 0.0]])   # |1><0|
SIGMA_MINUS = QubitOperator([[0.0, 1.0], [0.0, 0.0]])  # |0><1|


@dataclass(frozen=True)
class PureState:
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


@dataclass(frozen=True)
class DensityMatrix:
    """2x2 Hermitian, unit-trace, positive-semidefinite state."""

    matrix: np.ndarray

    def __post_init__(self):
        arr = _frozen_array(self.matrix, (2, 2))
        object.__setattr__(self, "matrix", arr)
        validate_density(arr)

    @property
    def populations(self) -> tuple[float, float]:
        """(ground, excited) occupations."""
        return float(self.matrix[0, 0].real), float(self.matrix[1, 1].real)

    @property
    def coherence(self) -> float:
        """Magnitude of the off-diagonal element |<0|rho|1>|."""
        return float(abs(self.matrix[0, 1]))


def validate_density(arr: np.ndarray) -> None:
    """Raise ValueError unless ``arr`` is a physical 2x2 state within the module tolerances."""
    arr = np.asarray(arr)
    bad = first_unphysical(arr[0, 0], arr[1, 1], arr[0, 1], arr[1, 0])
    if bad is not None:
        raise ValueError(bad[1])


def first_unphysical(p00, p11, rho01, rho10) -> tuple[int, str] | None:
    """Index and reason of the first non-physical state, else None.

    State k has the entries p00[k], p11[k], rho01[k] and rho10[k]; scalars are
    one state.  Its entries must be finite, its trace 1 within ``TRACE_TOL``,
    rho - rho^dagger, whose largest entry is max(2|Im p00|, 2|Im p11|,
    |rho01 - conj rho10|), 0 within ``HERMITICITY_TOL``, and its smaller
    eigenvalue, taken in closed form, above -``POSITIVITY_TOL``.
    """
    p00, p11, rho01, rho10 = np.atleast_1d(p00, p11, rho01, rho10)
    finite = np.isfinite(p00) & np.isfinite(p11) & np.isfinite(rho01) & np.isfinite(rho10)
    trace = p00 + p11
    asymmetry = np.maximum(2.0 * np.maximum(np.abs(p00.imag), np.abs(p11.imag)),
                           np.abs(rho01 - rho10.conj()))
    lowest = 0.5 * (p00.real + p11.real) - np.hypot(0.5 * (p00.real - p11.real), np.abs(rho10))
    bad = (~finite | (np.abs(trace - 1.0) > TRACE_TOL) | (asymmetry > HERMITICITY_TOL)
           | (lowest < -POSITIVITY_TOL))
    if not bad.any():
        return None
    i = int(np.argmax(bad))
    if not finite[i]:
        return i, "matrix contains non-finite entries"
    if abs(trace[i] - 1.0) > TRACE_TOL:
        return i, f"trace {complex(trace[i])!r} deviates from 1 beyond {TRACE_TOL}"
    if asymmetry[i] > HERMITICITY_TOL:
        return i, "matrix is not Hermitian within tolerance"
    return i, f"negative eigenvalue {float(lowest[i])!r} below -{POSITIVITY_TOL}"


@dataclass(frozen=True)
class SystemHamiltonian:
    """H = (epsilon/2) sigma_z + (delta/2) sigma_x, frequencies in rad/ns."""

    epsilon: float
    delta: float = 0.0
    matrix: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _require("epsilon", self.epsilon, -math.inf, above=True)
        _require("delta", self.delta, -math.inf, above=True)
        m = 0.5 * self.epsilon * SIGMA_Z.matrix + 0.5 * self.delta * SIGMA_X.matrix
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    def evolution(self, time: float) -> QubitOperator:
        """Propagator exp(-i H t), evaluated in closed form.

        For H = (omega/2) n.sigma the propagator is
        cos(omega t / 2) I - i sin(omega t / 2) n.sigma.
        """
        _require("time", time, -math.inf, above=True)
        omega = math.hypot(self.epsilon, self.delta)
        if omega == 0.0:
            return IDENTITY
        half = 0.5 * omega * time
        # the axis components first: 1/omega overflows for a subnormal omega
        n_sigma = (self.epsilon / omega) * SIGMA_Z.matrix + (self.delta / omega) * SIGMA_X.matrix
        return QubitOperator(math.cos(half) * np.eye(2) - 1j * math.sin(half) * n_sigma)

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


def rotation_y(angle: float) -> QubitOperator:
    """exp(-i angle sigma_y / 2): rotation of the Bloch vector about y."""
    _require("angle", angle, -math.inf, above=True)
    c, s = math.cos(0.5 * angle), math.sin(0.5 * angle)
    return QubitOperator([[c, -s], [s, c]])


def corotating_projector(psi: PureState, hs: SystemHamiltonian, time: float) -> QubitOperator:
    """Rank-1 projector onto exp(-i H t)|psi>, tracking the free evolution."""
    rotated = hs.evolution(time).matrix @ psi.amplitudes
    return QubitOperator(np.outer(rotated, rotated.conj()))


def bloch_vector(rho: DensityMatrix) -> tuple[float, float, float]:
    """(x, y, z) = (tr rho sigma_x, tr rho sigma_y, tr rho sigma_z)."""
    return tuple(float(np.trace(rho.matrix @ s.matrix).real) for s in (SIGMA_X, SIGMA_Y, SIGMA_Z))
