"""Exact 2x2 algebra for a single qubit.

States, Pauli operators, the system Hamiltonian with its propagator, y rotations,
co-rotating projectors, Bloch vectors and the dynamical fidelity.  Conventions
are fixed here once and for all:

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


def validate_density(arr: np.ndarray,
                     trace_tol: float = TRACE_TOL,
                     herm_tol: float = HERMITICITY_TOL,
                     positivity_tol: float = POSITIVITY_TOL) -> None:
    """Raise ValueError unless ``arr`` is a physical 2x2 state within tolerances."""
    trace = complex(arr[0, 0] + arr[1, 1])
    if abs(trace - 1.0) > trace_tol:
        raise ValueError(f"trace {trace!r} deviates from 1 beyond {trace_tol}")
    if np.max(np.abs(arr - arr.conj().T)) > herm_tol:
        raise ValueError("matrix is not Hermitian within tolerance")
    eigenvalues = np.linalg.eigvalsh(arr)
    if eigenvalues[0] < -positivity_tol:
        raise ValueError(f"negative eigenvalue {eigenvalues[0]!r} below -{positivity_tol}")


@dataclass(frozen=True)
class SystemHamiltonian:
    """H = (epsilon/2) sigma_z + (delta/2) sigma_x, frequencies in rad/ns."""

    epsilon: float
    delta: float = 0.0
    matrix: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("epsilon", "delta"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v!r}")
        m = 0.5 * self.epsilon * SIGMA_Z.matrix + 0.5 * self.delta * SIGMA_X.matrix
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    def evolution(self, time: float) -> QubitOperator:
        """Propagator exp(-i H t), evaluated in closed form.

        For H = (omega/2) n.sigma the propagator is
        cos(omega t / 2) I - i sin(omega t / 2) n.sigma.
        """
        if not math.isfinite(time):
            raise ValueError(f"time must be finite, got {time!r}")
        omega = math.hypot(self.epsilon, self.delta)
        if omega == 0.0:
            return IDENTITY
        half = 0.5 * omega * time
        n_sigma = (self.epsilon * SIGMA_Z.matrix + self.delta * SIGMA_X.matrix) / omega
        return QubitOperator(math.cos(half) * np.eye(2) - 1j * math.sin(half) * n_sigma)


def plus_state() -> PureState:
    """The sigma_x eigenstate (|0> + |1>)/sqrt(2)."""
    s = 1.0 / math.sqrt(2.0)
    return PureState(np.array([s, s], dtype=complex))


def rotation_y(angle: float) -> QubitOperator:
    """exp(-i angle sigma_y / 2): rotation of the Bloch vector about y."""
    if not math.isfinite(angle):
        raise ValueError(f"angle must be finite, got {angle!r}")
    c, s = math.cos(0.5 * angle), math.sin(0.5 * angle)
    return QubitOperator([[c, -s], [s, c]])


def corotating_projector(psi: PureState, hs: SystemHamiltonian, time: float) -> QubitOperator:
    """Rank-1 projector onto exp(-i H t)|psi>, tracking the free evolution."""
    rotated = hs.evolution(time).matrix @ psi.amplitudes
    return QubitOperator(np.outer(rotated, rotated.conj()))


def bloch_vector(rho: DensityMatrix) -> tuple[float, float, float]:
    """(x, y, z) = (tr rho sigma_x, tr rho sigma_y, tr rho sigma_z)."""
    return tuple(float(np.trace(rho.matrix @ s.matrix).real) for s in (SIGMA_X, SIGMA_Y, SIGMA_Z))


def dynamical_fidelity(rho: DensityMatrix, psi: PureState,
                       hs: SystemHamiltonian, time: float) -> float:
    """Overlap <psi| exp(iHt) rho exp(-iHt) |psi>.

    Measures how close ``rho`` is to the purely unitary evolution of ``psi``;
    equals 1 when the state tracked the free evolution perfectly.
    """
    u = hs.evolution(time).matrix
    rotated = u.conj().T @ rho.matrix @ u
    value = complex(psi.amplitudes.conj() @ rotated @ psi.amplitudes)
    if abs(value.imag) >= 1e-10:
        raise ValueError(f"fidelity has non-negligible imaginary part {value.imag!r}")
    return float(value.real)
