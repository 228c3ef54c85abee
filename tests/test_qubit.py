import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zenosim.qubit import (SIGMA_X, SIGMA_Z, DensityMatrix, PureState,
                           SystemHamiltonian, bloch_vector, corotating_projector,
                           dynamical_fidelities, dynamical_fidelity, first_unphysical,
                           plus_state, rotation_y)

KET0 = PureState(np.array([1.0, 0.0], dtype=complex))
KET1 = PureState(np.array([0.0, 1.0], dtype=complex))
MIXED = DensityMatrix(0.5 * np.eye(2))


def random_state(seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    return PureState(v / np.linalg.norm(v))


class TestPlusState:
    def test_amplitudes(self):
        amps = plus_state().amplitudes
        assert np.allclose(amps, 1.0 / math.sqrt(2.0), atol=1e-12)

    def test_sigma_x_eigenstate(self):
        psi = plus_state().amplitudes
        assert np.allclose(SIGMA_X.matrix @ psi, psi, atol=1e-12)

    def test_density_entries(self):
        rho = plus_state().density().matrix
        assert np.allclose(rho, 0.5 * np.ones((2, 2)), atol=1e-12)


class TestRotationY:
    def test_zero_angle_is_identity(self):
        assert np.allclose(rotation_y(0.0).matrix, np.eye(2), atol=1e-15)

    def test_half_pi_maps_ground_to_plus(self):
        rotated = rotation_y(math.pi / 2).matrix @ KET0.amplitudes
        rho = np.outer(rotated, rotated.conj())
        assert np.allclose(rho, plus_state().density().matrix, atol=1e-12)

    def test_inverse(self):
        u = rotation_y(math.pi / 2).matrix @ rotation_y(-math.pi / 2).matrix
        assert np.max(np.abs(u - np.eye(2))) <= 1e-12

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            rotation_y(math.nan)

    @given(st.floats(-10.0, 10.0))
    @settings(max_examples=50, deadline=None)
    def test_always_unitary(self, angle):
        u = rotation_y(angle).matrix
        assert np.max(np.abs(u @ u.conj().T - np.eye(2))) <= 1e-12


class TestCorotatingProjector:
    def test_time_zero_plus(self):
        proj = corotating_projector(plus_state(), SystemHamiltonian(1.0), 0.0)
        assert np.allclose(proj.matrix, 0.5 * np.ones((2, 2)), atol=1e-12)

    def test_idempotent(self):
        proj = corotating_projector(plus_state(), SystemHamiltonian(1.0), 7.3)
        assert np.max(np.abs(proj.matrix @ proj.matrix - proj.matrix)) <= 1e-12

    @pytest.mark.parametrize("seed,time", [(1, 0.4), (2, 3.7), (3, 12.0)])
    def test_unit_trace(self, seed, time):
        proj = corotating_projector(random_state(seed), SystemHamiltonian(0.8, 0.05), time)
        assert abs(np.trace(proj.matrix) - 1.0) <= 1e-12

    @pytest.mark.parametrize("k", [0, 1, 2, 5])
    def test_projects_corotating_state_onto_itself(self, k):
        # the projector at time k*tau leaves the freely evolved state alone
        hs = SystemHamiltonian(1.3, 0.0)
        tau = 2.1
        psi = plus_state()
        u = hs.evolution(k * tau).matrix
        evolved = u @ psi.density().matrix @ u.conj().T
        proj = corotating_projector(psi, hs, k * tau).matrix
        assert np.max(np.abs(proj @ evolved @ proj - evolved)) <= 1e-12


class TestDynamicalFidelity:
    def test_perfect_tracking(self):
        hs = SystemHamiltonian(0.9, 0.0)
        psi = plus_state()
        u = hs.evolution(5.0).matrix
        rho = DensityMatrix(u @ psi.density().matrix @ u.conj().T)
        assert dynamical_fidelity(rho, psi, hs, 5.0) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed(self):
        assert dynamical_fidelity(MIXED, plus_state(), SystemHamiltonian(1.0), 3.0) \
            == pytest.approx(0.5, abs=1e-12)

    def test_orthogonal_state(self):
        assert dynamical_fidelity(KET1.density(), KET0, SystemHamiltonian(1.0), 0.0) \
            == pytest.approx(0.0, abs=1e-12)

    @given(st.floats(-20.0, 20.0), st.floats(-20.0, 20.0), st.integers(0, 1000))
    @settings(max_examples=50, deadline=None)
    def test_frame_shift_invariance(self, t, s, seed):
        # conjugating the state by exp(-iHs s) and advancing the frame clock
        # by s is a no-op
        hs = SystemHamiltonian(1.1, 0.2)
        psi = random_state(seed)
        rho = random_state(seed + 1).density()
        u = hs.evolution(s).matrix
        shifted = DensityMatrix(u @ rho.matrix @ u.conj().T)
        f0 = dynamical_fidelity(rho, psi, hs, t)
        f1 = dynamical_fidelity(shifted, psi, hs, t + s)
        assert f1 == pytest.approx(f0, abs=1e-12)


    def test_stack_matches_one_state_at_a_time(self):
        hs = SystemHamiltonian(1.1, 0.2)
        psi = random_state(7)
        times = np.linspace(-3.0, 9.0, 13)
        states = np.array([random_state(seed).density().matrix for seed in range(13)])
        stacked = dynamical_fidelities(states, psi, hs.propagators(times))
        for i, t in enumerate(times):
            single = dynamical_fidelity(DensityMatrix(states[i]), psi, hs, float(t))
            assert abs(stacked[i] - single) <= 1e-15

    def test_stack_rejects_imaginary_part(self):
        # a non-Hermitian "state" gives the overlap an imaginary part of 0.05
        states = np.array([np.eye(2) / 2, [[0.5, 0.1j], [0.0, 0.5]]], dtype=complex)
        propagators = SystemHamiltonian(0.0).propagators([0.0, 0.0])
        with pytest.raises(ValueError, match="imaginary part"):
            dynamical_fidelities(states, plus_state(), propagators)


class TestBlochVector:
    def test_plus(self):
        assert bloch_vector(plus_state().density()) == pytest.approx((1.0, 0.0, 0.0), abs=1e-12)

    def test_mixed(self):
        assert bloch_vector(MIXED) == pytest.approx((0.0, 0.0, 0.0), abs=1e-15)

    def test_excited_points_down(self):
        # convention: sigma_z |0> = +|0>, so |1><1| sits at the south pole
        assert bloch_vector(KET1.density()) == pytest.approx((0.0, 0.0, -1.0), abs=1e-15)

    @pytest.mark.parametrize("seed", range(5))
    def test_norm_bounded(self, seed):
        x, y, z = bloch_vector(random_state(seed).density())
        assert math.sqrt(x * x + y * y + z * z) <= 1.0 + 1e-10


class TestInvariantEnforcement:
    def test_density_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.diag([0.6, 0.6]))

    def test_density_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(np.array([[0.5, 0.3], [0.1, 0.5]]))

    def test_density_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="eigenvalue"):
            DensityMatrix(np.array([[0.2, 0.45], [0.45, 0.8]]))

    def test_stack_names_first_bad_state(self):
        good = random_state(3).density().matrix
        negative = np.array([[0.2, 0.45], [0.45, 0.8]])
        stack = np.array([good, good, negative, np.diag([0.6, 0.6]), negative])
        index, reason = first_unphysical(stack)
        assert index == 2 and reason.startswith("negative eigenvalue ")
        # the closed-form smaller eigenvalue agrees with LAPACK's
        assert float(reason.split()[2]) == pytest.approx(np.linalg.eigvalsh(negative)[0],
                                                         abs=1e-15)
        assert first_unphysical(stack[:2]) is None

    @pytest.mark.parametrize("bad,reason", [
        ([[0.6, 0.0], [0.0, 0.6]], "trace"),
        ([[0.5, 0.3], [0.1, 0.5]], "Hermitian"),
        ([[0.5, np.nan], [np.nan, 0.5]], "non-finite"),
    ])
    def test_stack_reasons(self, bad, reason):
        stack = np.array([MIXED.matrix, bad], dtype=complex)
        index, text = first_unphysical(stack)
        assert index == 1 and reason in text

    def test_stack_tolerances(self):
        # eigenvalue -1e-9: outside the default 1e-10, inside a looser 1e-8
        stack = np.array([[[0.5, 0.5 + 1e-9], [0.5 + 1e-9, 0.5]]], dtype=complex)
        assert first_unphysical(stack)[0] == 0
        assert first_unphysical(stack, positivity_tol=1e-8) is None

    def test_pure_state_rejects_unnormalised(self):
        with pytest.raises(ValueError, match="norm"):
            PureState(np.array([1.0, 1.0]))

    def test_density_arrays_are_immutable(self):
        rho = plus_state().density()
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 2.0


class TestSystemHamiltonian:
    def test_matrix_form(self):
        hs = SystemHamiltonian(2.0, 0.6)
        expected = 0.5 * 2.0 * SIGMA_Z.matrix + 0.5 * 0.6 * SIGMA_X.matrix
        assert np.allclose(hs.matrix, expected, atol=1e-15)

    @pytest.mark.parametrize("eps,delta,t", [(1.0, 0.0, 4.0), (0.7, 0.3, 11.0), (0.0, 0.0, 5.0)])
    def test_evolution_unitary(self, eps, delta, t):
        u = SystemHamiltonian(eps, delta).evolution(t).matrix
        assert np.max(np.abs(u @ u.conj().T - np.eye(2))) <= 1e-12

    def test_evolution_matches_eigen_expansion(self):
        hs = SystemHamiltonian(0.9, 0.4)
        w, v = np.linalg.eigh(hs.matrix)
        expected = v @ np.diag(np.exp(-1j * w * 3.3)) @ v.conj().T
        assert np.allclose(hs.evolution(3.3).matrix, expected, atol=1e-12)

    @pytest.mark.parametrize("eps,delta", [(1.0, 0.0), (0.7, 0.3), (0.0, 1.0), (0.0, 0.0)])
    def test_propagators_match_evolution(self, eps, delta):
        hs = SystemHamiltonian(eps, delta)
        times = np.linspace(0.0, 40.0, 17)
        stack = hs.propagators(times)
        assert stack.shape == (17, 2, 2)
        for t, u in zip(times, stack):
            assert np.max(np.abs(u - hs.evolution(float(t)).matrix)) <= 1e-15

    def test_propagators_reject_non_finite_times(self):
        with pytest.raises(ValueError, match="finite"):
            SystemHamiltonian(1.0).propagators([0.0, math.inf])

    def test_sigma_y_in_evolution(self):
        # pure sigma_x Hamiltonian rotates the Bloch vector about +x, taking
        # the north pole to -y after a quarter turn
        hs = SystemHamiltonian(0.0, 1.0)
        u = hs.evolution(math.pi / 2).matrix
        rho = u @ KET0.density().matrix @ u.conj().T
        # U|0> = (|0> - i|1>)/sqrt(2): rho01 = i/2, so y = -2 Im rho01 = -1, x = z = 0
        assert np.allclose(rho, [[0.5, 0.5j], [-0.5j, 0.5]], atol=1e-12)
