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
    bad = first_unphysical(np.asarray(arr)[None], trace_tol, herm_tol, positivity_tol)
    if bad is not None:
        raise ValueError(bad[1])


def first_unphysical(stack: np.ndarray,
                     trace_tol: float = TRACE_TOL,
                     herm_tol: float = HERMITICITY_TOL,
                     positivity_tol: float = POSITIVITY_TOL) -> tuple[int, str] | None:
    """Index and reason of the first non-physical state in a (G, 2, 2) stack, else None.

    The checks are those of ``validate_density``, one vectorised pass each;
    the smaller eigenvalue of a Hermitian 2x2 matrix is taken in closed form.
    """
    stack = np.asarray(stack, dtype=complex)
    finite = np.all(np.isfinite(stack.view(float)), axis=(1, 2))
    trace = stack[:, 0, 0] + stack[:, 1, 1]
    asymmetry = np.max(np.abs(stack - stack.conj().swapaxes(1, 2)), axis=(1, 2))
    p00, p11 = stack[:, 0, 0].real, stack[:, 1, 1].real
    lowest = 0.5 * (p00 + p11) - np.hypot(0.5 * (p00 - p11), np.abs(stack[:, 1, 0]))
    bad = (~finite | (np.abs(trace - 1.0) > trace_tol) | (asymmetry > herm_tol)
           | (lowest < -positivity_tol))
    if not bad.any():
        return None
    i = int(np.argmax(bad))
    if not finite[i]:
        return i, "matrix contains non-finite entries"
    if abs(trace[i] - 1.0) > trace_tol:
        return i, f"trace {complex(trace[i])!r} deviates from 1 beyond {trace_tol}"
    if asymmetry[i] > herm_tol:
        return i, "matrix is not Hermitian within tolerance"
    return i, f"negative eigenvalue {float(lowest[i])!r} below -{positivity_tol}"


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
        return QubitOperator(self._propagator(omega, math.cos(half), math.sin(half)))

    def propagators(self, times) -> np.ndarray:
        """``evolution`` at every time of a 1-D array, as a (G, 2, 2) stack."""
        times = np.asarray(times, dtype=float)
        if not np.all(np.isfinite(times)):
            raise ValueError("times must be finite")
        omega = math.hypot(self.epsilon, self.delta)
        if omega == 0.0:
            return np.broadcast_to(IDENTITY.matrix, (times.size, 2, 2)).copy()
        half = (0.5 * omega * times)[:, None, None]
        return self._propagator(omega, np.cos(half), np.sin(half))

    def _propagator(self, omega: float, cos_half, sin_half) -> np.ndarray:
        # the axis components first: 1/omega overflows for a subnormal omega
        n_sigma = (self.epsilon / omega) * SIGMA_Z.matrix + (self.delta / omega) * SIGMA_X.matrix
        return cos_half * np.eye(2) - 1j * sin_half * n_sigma


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
    return float(dynamical_fidelities(rho.matrix[None], psi,
                                      hs.evolution(time).matrix[None])[0])


def dynamical_fidelities(states: np.ndarray, psi: PureState,
                         propagators: np.ndarray) -> np.ndarray:
    """``dynamical_fidelity`` over (G, 2, 2) stacks of states and of their exp(-iHt)."""
    rotated = propagators.conj().swapaxes(1, 2) @ states @ propagators
    values = (psi.amplitudes.conj() @ rotated) @ psi.amplitudes
    leak = np.abs(values.imag) >= 1e-10
    if leak.any():
        raise ValueError("fidelity has non-negligible imaginary part "
                         f"{float(values.imag[np.argmax(leak)])!r}")
    return values.real
