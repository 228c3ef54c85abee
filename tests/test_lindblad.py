import cmath
import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zenosim import lindblad
from zenosim.config import MAX_TABLE_ROWS
from zenosim.lindblad import DecoherenceParams, integrate
from zenosim.noise import NoiseModel, ensemble_average
from zenosim.qubit import (DensityMatrix, PureState, SystemHamiltonian, plus_state,
                           validate_density)

from oracles import (closed_form_rho, closed_form_rho_rotating, dynamical_fidelity, master_rhs,
                     pure_dephasing_coherence)

KET0 = PureState(np.array([1.0, 0.0], dtype=complex))
KET1 = PureState(np.array([0.0, 1.0], dtype=complex))
FIG2 = DecoherenceParams.from_times(1000.0, 20.0)
FIG3 = DecoherenceParams.from_times(1000.0, 400.0)
PAIRS = [(1000.0, 20.0), (1000.0, 400.0), (math.inf, 50.0), (200.0, math.inf)]
# excited population 0.3 and a complex coherence: p00, p11 and rho10 all move
MIXED_RHO0 = DensityMatrix(np.array([[0.7, 0.2 - 0.35j], [0.2 + 0.35j, 0.3]]))


# T1 or T2: off, the least the library accepts, or log-uniform up to 1e300
_DECAY_TIMES = st.one_of(st.sampled_from([math.inf, lindblad._SHORTEST_TIME, 1e-160, 1e300]),
                         st.floats(-308.0, 300.0).map(lambda e: 10.0 ** e))


def _bloch_state(r, theta, phi):
    """(I + r n.sigma)/2, n at polar angle theta and azimuth phi: pure at r = 1, mixed below."""
    z, rho10 = r * math.cos(theta), cmath.rect(r * math.sin(theta), phi)
    return DensityMatrix(0.5 * np.array([[1.0 + z, rho10.conjugate()], [rho10, 1.0 - z]]))


_RHO0 = st.builds(_bloch_state, st.one_of(st.just(1.0), st.floats(0.0, 1.0)),
                  st.floats(0.0, math.pi), st.floats(0.0, 2.0 * math.pi))


def stepwise_rk4(rho0, params, t_end, dt):
    """Reference: classic RK4 on the full 2x2 master equation, one step at a time."""
    steps = max(1, math.ceil(t_end / dt - 1e-12))
    h = t_end / steps
    times = np.linspace(0.0, t_end, steps + 1)
    states = [rho0.matrix.copy()]
    for t in times[:-1]:
        y = states[-1]
        k1 = master_rhs(y, t, params)
        k2 = master_rhs(y + 0.5 * h * k1, t + 0.5 * h, params)
        k3 = master_rhs(y + 0.5 * h * k2, t + 0.5 * h, params)
        k4 = master_rhs(y + h * k3, t + h, params)
        states.append(y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
    return times, np.array(states)


def entries(result):
    """(G, 4) entries p00, p11, rho01, rho10 of an integration result's states."""
    return np.stack([result.p00, result.p11, result.rho01, result.rho01.conj()], axis=1)


def matrix_entries(matrices):
    """The same four entries of a 2x2 matrix, or of each in a stack of them."""
    return np.asarray(matrices)[..., [0, 1, 0, 1], [0, 1, 1, 0]]


# exact scalar evaluations of the closed-form solution at T1=1000, T2=20, t=20:
# excited population exp(-0.02)/2, coherence exp(-0.01 - 1)/2
EXCITED_AT_20 = 0.4900993366533776
GROUND_AT_20 = 0.5099006633466223
COHERENCE_AT_20 = 0.18210948978576166


class TestDecoherenceParams:
    def test_rejects_negative_rates(self):
        with pytest.raises(ValueError):
            DecoherenceParams(-0.1, 0.0)
        with pytest.raises(ValueError):
            DecoherenceParams(0.0, -0.1)

    def test_from_times_handles_infinity(self):
        p = DecoherenceParams.from_times(math.inf, 20.0)
        assert p.gamma1 == 0.0 and p.t1 == math.inf
        assert p.gamma2 == pytest.approx(0.05)
        assert p.t2 == pytest.approx(20.0)


class TestMasterRhs:
    def test_ground_state_is_stationary(self):
        rhs = master_rhs(KET0.density(), 5.0, FIG2)
        assert np.max(np.abs(rhs)) <= 1e-15

    def test_excited_state_pure_relaxation(self):
        rhs = master_rhs(KET1.density(), 5.0, FIG2)
        expected = FIG2.gamma1 * np.diag([1.0, -1.0])
        assert np.allclose(rhs, expected, atol=1e-15)

    def test_dephasing_term_vanishes_at_time_zero(self):
        pure_dephasing = DecoherenceParams(0.0, 0.05)
        assert np.max(np.abs(master_rhs(plus_state().density(), 0.0, pure_dephasing))) == 0.0
        assert np.max(np.abs(master_rhs(plus_state().density(), 1.0, pure_dephasing))) > 0.0

    @pytest.mark.parametrize("t", [0.0, 0.5, 7.0])
    def test_traceless(self, t):
        rng = np.random.default_rng(int(t * 10))
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        rho = PureState(v / np.linalg.norm(v)).density()
        assert abs(np.trace(master_rhs(rho, t, FIG2))) <= 1e-14

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError, match=">= 0"):
            master_rhs(KET0.density(), -1.0, FIG2)

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_rejects_non_finite_time(self, t):
        # nan used to return the pure-relaxation derivative, inf a RuntimeWarning
        with pytest.raises(ValueError, match=r"^t must be finite and >= 0"):
            master_rhs(plus_state().density(), t, FIG2)


class TestIntegrate:
    def test_no_decay_is_identity(self):
        free = DecoherenceParams(0.0, 0.0)
        result = integrate(plus_state().density(), free, 50.0, 0.5)
        assert np.max(np.abs(entries(result)
                             - matrix_entries(plus_state().density().matrix))) <= 1e-12

    def test_rejects_large_step(self):
        with pytest.raises(ValueError, match="dt"):
            integrate(plus_state().density(), FIG2, 10.0, 0.5)  # dt > T2/100

    @pytest.mark.parametrize("t_end,dt,steps", [
        (0.0, 0.1, 0), (0.05, 0.1, 1), (1.0, 0.1, 10), (1.05, 0.1, 11),
        (12.0, 0.03, 400),      # 12/0.03 = 400.00000000000006 rounds up by one ulp only
    ])
    def test_step_count_lays_the_grid(self, t_end, dt, steps):
        assert lindblad.rk4_steps(t_end, dt, FIG2) == steps
        result = integrate(plus_state().density(), FIG2, t_end, dt)
        assert len(result.times) == steps + 1

    @pytest.mark.parametrize("t_end,dt,match", [
        (1.0, 0.2 * (1.0 + 1e-15), r"dt = .* min\(t1, t2\)/100 = 0\.2 \(t1 = 1000\.0, t2 = 20\.0\)"),
        (1e10, 1e-300, "overflows"),
    ])
    def test_step_count_rejects(self, t_end, dt, match):
        with pytest.raises(ValueError, match=match):
            lindblad.rk4_steps(t_end, dt, FIG2)

    @pytest.mark.parametrize("epsilon,delta,holds", [
        (1.0, 0.0, True), (0.0, 0.0, True), (1.0, 0.1, True), (-2.0, 0.2, True),
        (1.0, 0.1 * (1.0 + 1e-15), False), (0.0, 1e-300, False), (1.0, -0.5, False),
    ])
    def test_dephasing_model_holds_up_to_a_tenth(self, epsilon, delta, holds):
        assert lindblad.dephasing_model_holds(epsilon, delta) is holds

    def test_fourth_order_convergence(self):
        # halving the step shrinks the closed-form error by roughly 2^4
        t_end = 20.0
        coarse = entries(integrate(plus_state().density(), FIG2, t_end, 0.2))[-1]
        fine = entries(integrate(plus_state().density(), FIG2, t_end, 0.1))[-1]
        exact = matrix_entries(closed_form_rho_rotating(FIG2, t_end).matrix)
        ratio = np.max(np.abs(coarse - exact)) / np.max(np.abs(fine - exact))
        assert 10.0 <= ratio <= 22.0

    @pytest.mark.parametrize("t1,t2", PAIRS)
    def test_matches_closed_form(self, t1, t2):
        params = DecoherenceParams.from_times(t1, t2)
        t_end = 5.0 * (t2 if math.isfinite(t2) else t1)
        dt = min(t1, t2) / 200.0
        result = integrate(plus_state().density(), params, t_end, dt)
        exact = [closed_form_rho_rotating(params, float(t)).matrix for t in result.times]
        worst = np.max(np.abs(entries(result) - matrix_entries(exact)))
        assert worst <= 1e-8

    @pytest.mark.parametrize("rho0", [plus_state().density(), MIXED_RHO0], ids=["plus", "mixed"])
    @pytest.mark.parametrize("t1,t2", PAIRS)
    def test_matches_stepwise_rk4(self, t1, t2, rho0):
        params = DecoherenceParams.from_times(t1, t2)
        t_end = 5.0 * (t2 if math.isfinite(t2) else t1)
        dt = min(t1, t2) / 200.0
        times, expected = stepwise_rk4(rho0, params, t_end, dt)
        result = integrate(rho0, params, t_end, dt)
        assert np.array_equal(result.times, times)
        assert np.max(np.abs(entries(result) - matrix_entries(expected))) <= 1e-14

    def test_bound_sized_run_is_fast_and_accurate(self):
        # MAX_TABLE_ROWS steps took 15-30 s one step at a time
        dt = 0.1
        start = time.perf_counter()
        result = integrate(plus_state().density(), FIG2, MAX_TABLE_ROWS * dt, dt)
        elapsed = time.perf_counter() - start
        assert len(result.times) == MAX_TABLE_ROWS + 1
        assert elapsed < 1.0
        states = entries(result)
        for i in range(0, MAX_TABLE_ROWS + 1, 100):
            exact = closed_form_rho_rotating(FIG2, float(result.times[i])).matrix
            assert np.max(np.abs(states[i] - matrix_entries(exact))) <= 1e-8

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(rho0=_RHO0, t1=_DECAY_TIMES, t2=_DECAY_TIMES, shrink=st.floats(0.0, 3.0),
           steps=st.one_of(st.integers(0, 200), st.integers(0, MAX_TABLE_ROWS - 1)))
    @example(rho0=plus_state().density(), t1=1000.0, t2=20.0, shrink=0.0,
             steps=MAX_TABLE_ROWS - 1)
    @example(rho0=plus_state().density(), t1=math.inf, t2=5.6e-309, shrink=0.0,
             steps=MAX_TABLE_ROWS - 1)
    @example(rho0=MIXED_RHO0, t1=1e-300, t2=1e-300, shrink=0.0, steps=MAX_TABLE_ROWS - 1)
    @example(rho0=plus_state().density(), t1=1.0, t2=1e-160, shrink=0.0,
             steps=MAX_TABLE_ROWS - 1)
    @example(rho0=plus_state().density(), t1=math.inf, t2=1.0, shrink=0.0,
             steps=MAX_TABLE_ROWS - 1)
    @example(rho0=MIXED_RHO0, t1=1000.0, t2=20.0, shrink=0.0, steps=0)    # t_end = 0: one row
    def test_states_stay_physical(self, rho0, t1, t2, shrink, steps):
        # integrate checks no state: the argument in its docstring, held here for
        # every T1 and T2 the library accepts, dt from the step bound down to a
        # thousandth of it and runs up to the row bound (past 139 T2 at the bound,
        # where a coherence factor first exceeds 1)
        params = DecoherenceParams.from_times(t1, t2)
        bound = min(params.t1, params.t2) / 100.0
        dt = (bound if math.isfinite(bound) else 1.0) * 10.0 ** -shrink
        result = integrate(rho0, params, steps * dt, dt)
        for state in entries(result)[:, [[0, 2], [3, 1]]]:     # [[p00, rho01], [rho10, p11]]
            validate_density(state)

    def test_grid_lands_on_t_end(self):
        result = integrate(plus_state().density(), FIG2, 10.0, 0.15)
        assert result.times[-1] == 10.0


class TestClosedForm:
    def test_initial_state(self):
        rho = closed_form_rho(FIG2, SystemHamiltonian(0.8, 0.05), 0.0)
        assert np.allclose(rho.matrix, plus_state().density().matrix, atol=1e-15)

    def test_spot_values_at_20ns(self):
        rho = closed_form_rho_rotating(FIG2, 20.0)
        ground, excited = rho.matrix.diagonal().real
        assert excited == pytest.approx(EXCITED_AT_20, abs=1e-12)
        assert ground == pytest.approx(GROUND_AT_20, abs=1e-12)
        assert abs(rho.matrix[0, 1]) == pytest.approx(COHERENCE_AT_20, abs=1e-12)

    def test_long_time_limit_is_ground_state(self):
        rho = closed_form_rho_rotating(FIG2, 1e5)
        assert np.allclose(rho.matrix, KET0.density().matrix, atol=1e-12)

    def test_lab_frame_is_rotated_bracket(self):
        hs, t = SystemHamiltonian(0.8, 0.0), 13.0
        u = hs.evolution(t)
        rotated = u @ closed_form_rho_rotating(FIG2, t).matrix @ u.conj().T
        assert np.allclose(closed_form_rho(FIG2, hs, t).matrix, rotated, atol=1e-14)

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            closed_form_rho(FIG2, SystemHamiltonian(0.8, 0.05), -1.0)

    def test_fidelity_from_coherence_envelope(self):
        # with relaxation off the dynamical fidelity is 1/2 + envelope/2
        params, hs = DecoherenceParams.from_times(math.inf, 50.0), SystemHamiltonian(1.0)
        for t in (0.0, 10.0, 60.0):
            fid = dynamical_fidelity(closed_form_rho(params, hs, t), plus_state(), hs, t)
            assert fid == pytest.approx(0.5 + 0.5 * pure_dephasing_coherence(params.gamma2, t),
                                        abs=1e-12)


class TestPureDephasingCoherence:
    def test_starts_at_one(self):
        assert pure_dephasing_coherence(0.05, 0.0) == 1.0

    def test_one_dephasing_time(self):
        assert pure_dephasing_coherence(0.05, 20.0) == pytest.approx(math.exp(-1.0), abs=1e-15)

    @pytest.mark.parametrize("gamma2,t,name", [
        (math.nan, 1.0, "gamma2"), (-0.05, 1.0, "gamma2"), (-math.inf, 1.0, "gamma2"),
        (0.05, math.nan, "t"), (0.05, -1.0, "t"), (0.05, -math.inf, "t"),
    ])
    def test_rejects_nan_or_negative_arguments_by_name(self, gamma2, t, name):
        # t = -1 used to return exp(-0.0025) = 0.9975
        with pytest.raises(ValueError, match=rf"^{name} must be >= 0"):
            pure_dephasing_coherence(gamma2, t)

    @pytest.mark.parametrize("gamma2,t,value", [
        (0.05, 1e308, 0.0), (1e200, 1e200, 0.0), (0.05, math.inf, 0.0), (math.inf, 1.0, 0.0),
        (0.0, math.inf, 1.0), (math.inf, 0.0, 1.0), (0.0, 1e308, 1.0),
    ])
    def test_extreme_arguments(self, gamma2, t, value):
        # (gamma2 t)^2 used to raise OverflowError, and inf * 0 to give nan
        assert pure_dephasing_coherence(gamma2, t) == value

    def test_finite_values_are_the_closed_form_bit_for_bit(self):
        rng = np.random.default_rng(21)
        specials = [0.0, 5e-324, 1e-300, 1.0, 27.3, 1e10]
        pairs = list(itertools.product(specials, specials)) + list(
            zip(*(10.0 ** rng.uniform(-10.0, 10.0, (2, 400))).tolist()))
        for g, s in pairs:
            assert pure_dephasing_coherence(g, s).hex() == math.exp(-((g * s) ** 2)).hex(), (g, s)

    def test_matches_quasi_static_ensemble(self):
        # Monte Carlo oracle: quasi-static noise with coupling gamma2/sqrt(2)
        gamma2 = 0.05
        model = NoiseModel.quasi_static(gamma2 / math.sqrt(2.0))
        grid = np.linspace(0.0, 40.0, 9)
        result = ensemble_average(plus_state(), model, grid, 100_000, 31)
        envelope = 2.0 * np.abs(result.rho01)
        stderr = 2.0 * result.stderr
        for i in range(1, grid.size):
            expected = pure_dephasing_coherence(gamma2, float(grid[i]))
            assert abs(envelope[i] - expected) <= 3.0 * stderr[i]

    def test_short_time_quadratic_deficit(self):
        # fitted quadratic coefficient of 1 - envelope within 1% of gamma2^2
        gamma2 = 0.05
        t2 = 1.0 / gamma2
        ts = np.linspace(t2 / 100.0, t2 / 10.0, 10)
        deficits = 1.0 - np.array([pure_dephasing_coherence(gamma2, t) for t in ts])
        coefficient = float(np.polyfit(ts ** 2, deficits, 1)[0])
        assert coefficient == pytest.approx(gamma2 ** 2, rel=0.01)
