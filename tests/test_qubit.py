import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zenosim import qubit
from zenosim.lindblad import DecoherenceParams, integrate
from zenosim.noise import NoiseModel, ensemble_average
from zenosim.qubit import (SIGMA_X, SIGMA_Y, SIGMA_Z, DensityMatrix, PureState,
                           SystemHamiltonian, bloch_vector, corotating_projector, plus_state,
                           rotation_y, validate_density)

from oracles import dynamical_fidelity

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
        assert np.allclose(SIGMA_X @ psi, psi, atol=1e-12)

    def test_density_entries(self):
        rho = plus_state().density().matrix
        assert np.allclose(rho, 0.5 * np.ones((2, 2)), atol=1e-12)


class TestRotationY:
    def test_zero_angle_is_identity(self):
        assert np.allclose(rotation_y(0.0), np.eye(2), atol=1e-15)

    def test_half_pi_maps_ground_to_plus(self):
        rotated = rotation_y(math.pi / 2) @ KET0.amplitudes
        rho = np.outer(rotated, rotated.conj())
        assert np.allclose(rho, plus_state().density().matrix, atol=1e-12)

    def test_inverse(self):
        u = rotation_y(math.pi / 2) @ rotation_y(-math.pi / 2)
        assert np.max(np.abs(u - np.eye(2))) <= 1e-12

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            rotation_y(math.nan)

    @given(st.floats(-10.0, 10.0))
    @settings(max_examples=50, deadline=None)
    def test_always_unitary(self, angle):
        u = rotation_y(angle)
        assert np.max(np.abs(u @ u.conj().T - np.eye(2))) <= 1e-12


class TestCorotatingProjector:
    def test_time_zero_plus(self):
        proj = corotating_projector(plus_state(), SystemHamiltonian(1.0), 0.0)
        assert np.allclose(proj, 0.5 * np.ones((2, 2)), atol=1e-12)

    def test_idempotent(self):
        proj = corotating_projector(plus_state(), SystemHamiltonian(1.0), 7.3)
        assert np.max(np.abs(proj @ proj - proj)) <= 1e-12

    @pytest.mark.parametrize("seed,time", [(1, 0.4), (2, 3.7), (3, 12.0)])
    def test_unit_trace(self, seed, time):
        proj = corotating_projector(random_state(seed), SystemHamiltonian(0.8, 0.05), time)
        assert abs(np.trace(proj) - 1.0) <= 1e-12

    @pytest.mark.parametrize("k", [0, 1, 2, 5])
    def test_projects_corotating_state_onto_itself(self, k):
        # the projector at time k*tau leaves the freely evolved state alone
        hs = SystemHamiltonian(1.3, 0.0)
        tau = 2.1
        psi = plus_state()
        u = hs.evolution(k * tau)
        evolved = u @ psi.density().matrix @ u.conj().T
        proj = corotating_projector(psi, hs, k * tau)
        assert np.max(np.abs(proj @ evolved @ proj - evolved)) <= 1e-12


class TestDynamicalFidelity:
    def test_perfect_tracking(self):
        hs = SystemHamiltonian(0.9, 0.0)
        psi = plus_state()
        u = hs.evolution(5.0)
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
        u = hs.evolution(s)
        shifted = DensityMatrix(u @ rho.matrix @ u.conj().T)
        f0 = dynamical_fidelity(rho, psi, hs, t)
        f1 = dynamical_fidelity(shifted, psi, hs, t + s)
        assert f1 == pytest.approx(f0, abs=1e-12)


    def test_stack_matches_one_state_at_a_time(self):
        # over a stack of states and times, each fidelity is tr(rho P) for the
        # co-rotating projector P onto exp(-iHt)|psi>
        hs = SystemHamiltonian(1.1, 0.2)
        psi = random_state(7)
        times = np.linspace(-3.0, 9.0, 13)
        for seed, t in enumerate(times):
            rho = random_state(seed).density()
            projector = corotating_projector(psi, hs, float(t))
            expected = np.trace(rho.matrix @ projector).real
            assert abs(dynamical_fidelity(rho, psi, hs, float(t)) - expected) <= 1e-15

    def test_stack_rejects_imaginary_part(self, monkeypatch):
        # a non-Hermitian "state", let past the density check, gives the overlap
        # an imaginary part of 0.05
        monkeypatch.setattr(qubit, "validate_density", lambda arr: None)
        rho = DensityMatrix([[0.5, 0.1j], [0.0, 0.5]])
        with pytest.raises(ValueError, match=r"imaginary part 0\.0499"):
            dynamical_fidelity(rho, plus_state(), SystemHamiltonian(0.0), 0.0)


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

    # rho - rho^dagger has entries 2i Im p00, 2i Im p11 and rho01 - conj(rho10),
    # so Hermiticity fails through either; Im p00 = -Im p11 keeps the trace at 1
    @pytest.mark.parametrize("bad,reason", [
        ([[0.6, 0.0], [0.0, 0.6]], "trace"),
        ([[0.5, 0.3], [0.1, 0.5]], "Hermitian"),
        ([[0.5, np.nan], [np.nan, 0.5]], "non-finite"),
        pytest.param([[0.5, 0.5 + 2e-12j], [0.5 + 2e-12j, 0.5]], "Hermitian",
                     id="rho10-not-conj-rho01"),
        pytest.param([[0.5 + 6e-13j, 0.0], [0.0, 0.5 - 6e-13j]], "Hermitian",
                     id="imaginary-p00-p11"),
        pytest.param([[0.5, 0.0], [0.0, 0.5 + 6e-13j]], "Hermitian", id="imaginary-p11"),
    ])
    def test_validate_density_reasons(self, bad, reason):
        with pytest.raises(ValueError, match=reason):
            validate_density(np.array(bad, dtype=complex))

    def test_eigenvalue_reason_matches_lapack(self):
        # the closed-form smaller eigenvalue the message names agrees with LAPACK's
        negative = np.array([[0.2, 0.45], [0.45, 0.8]])
        with pytest.raises(ValueError, match="^negative eigenvalue ") as info:
            validate_density(negative)
        assert float(str(info.value).split()[2]) == pytest.approx(np.linalg.eigvalsh(negative)[0],
                                                                  abs=1e-15)

    def test_single_row_columns(self):
        # a decay_curve at t_end = 0 has one grid state: columns of length 1
        result = integrate(plus_state().density(), DecoherenceParams(1e-3, 0.05), 0.0, 0.1)
        columns = (result.p00, result.p11, result.rho01)
        assert [len(column) for column in columns] == [1, 1, 1]
        p00, p11, rho01 = (complex(column[0]) for column in columns)
        validate_density(np.array([[p00, rho01], [rho01.conjugate(), p11]]))

    def test_validate_density_tolerances(self):
        # eigenvalue -1e-9: outside POSITIVITY_TOL = 1e-10
        with pytest.raises(ValueError, match="eigenvalue"):
            validate_density(np.array([[0.5, 0.5 + 1e-9], [0.5 + 1e-9, 0.5]]))
        # |2i Im p00| = 8e-13: inside HERMITICITY_TOL = 1e-12
        validate_density(np.array([[0.5 + 4e-13j, 0.0], [0.0, 0.5 - 4e-13j]]))

    def test_pure_state_rejects_unnormalised(self):
        with pytest.raises(ValueError, match="norm"):
            PureState(np.array([1.0, 1.0]))

    @pytest.mark.parametrize("amplitudes,message", [
        ([1.0, 0.0, 0.0], "expected array of shape (2,), got (3,)"),
        ([math.nan, 1.0], "array contains non-finite entries"),
    ], ids=["shape", "nan"])
    def test_pure_state_rejects_bad_arrays(self, amplitudes, message):
        with pytest.raises(ValueError) as exc:
            PureState(np.array(amplitudes))
        assert str(exc.value) == message

    def test_density_arrays_are_immutable(self):
        rho = plus_state().density()
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 2.0


class TestOperatorArrays:
    def test_operators_are_read_only_complex_arrays(self):
        hs = SystemHamiltonian(1.0, 0.05)
        operators = [SIGMA_X, SIGMA_Y, SIGMA_Z, hs.evolution(2.0),
                     SystemHamiltonian(0.0).evolution(2.0),       # the omega = 0 identity
                     rotation_y(0.3), corotating_projector(plus_state(), hs, 2.0)]
        for op in operators:
            assert op.shape == (2, 2) and op.dtype == complex
            with pytest.raises(ValueError, match="read-only"):
                op[0, 0] = 2.0


class TestValueEquality:
    def test_states_compare_by_value(self):
        assert (plus_state().density() == plus_state().density()) is True
        assert hash(plus_state().density()) == hash(plus_state().density())
        assert (plus_state() == plus_state()) is True
        assert hash(plus_state()) == hash(plus_state())
        assert KET0 != KET1 and KET0.density() != KET1.density()
        assert KET0 != KET0.density()

    def test_signed_zeros_compare_and_hash_equal(self):
        a = DensityMatrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
        b = DensityMatrix(np.array([[1.0, -0.0], [-0.0, -0.0]]))
        assert a.matrix.tobytes() != b.matrix.tobytes()
        assert a == b and hash(a) == hash(b)
        assert len({a, b, KET0.density()}) == 1

    @pytest.mark.parametrize("make", [
        plus_state,
        lambda: plus_state().density(),
        lambda: integrate(plus_state().density(), DecoherenceParams(1e-3, 0.05), 1.0, 0.1),
        lambda: ensemble_average(plus_state(), NoiseModel.quasi_static(0.1), [0.0, 1.0], 200, 1),
    ], ids=["PureState", "DensityMatrix", "IntegrationResult", "EnsembleResult"])
    def test_eq_returns_a_bool(self, make):
        a, b = make(), make()
        assert type(a == b) is bool and type(a != b) is bool and (a == a) is True


class TestSystemHamiltonian:
    def test_matrix_form(self):
        # i dU/dt at t = 0, a central difference, is H = (epsilon/2) sigma_z + (delta/2) sigma_x
        hs, h = SystemHamiltonian(2.0, 0.6), 1e-6
        expected = 0.5 * 2.0 * SIGMA_Z + 0.5 * 0.6 * SIGMA_X
        assert np.allclose(0.5j * (hs.evolution(h) - hs.evolution(-h)) / h, expected,
                           rtol=0.0, atol=1e-9)

    @pytest.mark.parametrize("eps,delta,t", [(1.0, 0.0, 4.0), (0.7, 0.3, 11.0), (0.0, 0.0, 5.0)])
    def test_evolution_unitary(self, eps, delta, t):
        u = SystemHamiltonian(eps, delta).evolution(t)
        assert np.max(np.abs(u @ u.conj().T - np.eye(2))) <= 1e-12

    def test_evolution_matches_eigen_expansion(self):
        hs = SystemHamiltonian(0.9, 0.4)
        w, v = np.linalg.eigh(0.5 * 0.9 * SIGMA_Z + 0.5 * 0.4 * SIGMA_X)
        expected = v @ np.diag(np.exp(-1j * w * 3.3)) @ v.conj().T
        assert np.allclose(hs.evolution(3.3), expected, atol=1e-12)

    @pytest.mark.parametrize("eps,delta,t_end", [
        (1.0, 0.0, 40.0), (0.7, 0.3, 40.0), (0.0, 1.0, 40.0), (0.0, 0.0, 40.0),
        (4e5, -4e4, 100.0),         # 4e7 rad of turn at t_end
        (-1.0, 0.3, 40.0),          # n = (delta, 0, epsilon)/omega with nz < 0
    ], ids=["1.0-0.0", "0.7-0.3", "0.0-1.0", "0.0-0.0", "4e5--4e4", "-1.0-0.3"])
    def test_rotate_bloch_matches_evolution(self, eps, delta, t_end):
        # each turned vector is the Bloch vector of exp(-iHt) rho exp(iHt)
        hs = SystemHamiltonian(eps, delta)
        times = np.linspace(0.0, t_end, 17)
        states = [random_state(seed).density() for seed in range(16)] + [MIXED]
        x, y, z = zip(*(bloch_vector(rho) for rho in states))
        turned = hs.rotate_bloch(times, np.array(x), np.array(y), np.array(z))
        assert [c.shape for c in turned] == [(17,)] * 3
        for t, rho, r in zip(times, states, np.column_stack(turned)):
            u = hs.evolution(float(t))
            lab = DensityMatrix(u @ rho.matrix @ u.conj().T)
            assert np.max(np.abs(r - bloch_vector(lab))) <= 1e-14

    def test_rotate_bloch_rejects_non_finite_times(self):
        with pytest.raises(ValueError, match="finite"):
            SystemHamiltonian(1.0).rotate_bloch([0.0, math.inf], *np.zeros((3, 2)))

    def test_sigma_y_in_evolution(self):
        # pure sigma_x Hamiltonian rotates the Bloch vector about +x, taking
        # the north pole to -y after a quarter turn
        hs = SystemHamiltonian(0.0, 1.0)
        u = hs.evolution(math.pi / 2)
        rho = u @ KET0.density().matrix @ u.conj().T
        # U|0> = (|0> - i|1>)/sqrt(2): rho01 = i/2, so y = -2 Im rho01 = -1, x = z = 0
        assert np.allclose(rho, [[0.5, 0.5j], [-0.5j, 0.5]], atol=1e-12)
