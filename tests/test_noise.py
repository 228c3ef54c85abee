import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from zenosim.noise import (NoiseKind, NoiseModel, _block_row_counts, _ou_phase_law,
                           ensemble_average, ou_decay_exponent, stream_generator)
from zenosim.qubit import PureState, first_unphysical, plus_state

QS = NoiseModel.quasi_static(0.1)
OU = NoiseModel.ornstein_uhlenbeck(0.1, 1.0)


def block_phases(model, grid, base_seed, block, rows):
    """2 phi per trajectory (row) and grid point for one block of ensemble_average.

    A plain loop, one trajectory at a time, over the draws of the block's
    stream: 2 coupling t f0 for quasi-static noise, and for OU noise the
    exact phase law I_k = carry_k m_{k-1} + sigma_k z_k,
    m_k = decay_k m_{k-1} + gain_k z_k, summed into phi.
    """
    grid = np.asarray(grid, dtype=float)
    gen = stream_generator(base_seed, block)
    two_c = 2.0 * model.coupling
    if model.kind is NoiseKind.QUASI_STATIC:
        return np.multiply.outer(gen.standard_normal(rows), two_c * grid)
    law = _ou_phase_law(np.diff(grid, prepend=0.0), model.tau_c)
    law[:2] *= two_c
    sigma, carry, decay, gain = law.tolist()
    z = gen.standard_normal((grid.size, rows))
    phases = np.empty((rows, grid.size))
    for r in range(rows):
        m = phase = 0.0
        for k, zk in enumerate(z[:, r].tolist()):
            phase = phase + (sigma[k] * zk + carry[k] * m)
            m = gain[k] * zk + decay[k] * m
            phases[r, k] = phase
    return phases


def all_block_phases(model, grid, base_seed, trajectories):
    return np.vstack([block_phases(model, grid, base_seed, b, rows)
                      for b, rows in _block_row_counts(trajectories)])


def integrated_ou_covariance(s, t, tau_c):
    """Cov(int_0^s f, int_0^t f) of a stationary unit OU path, 60 digits.

    For s <= t it is tau_c^2 (2 s/tau_c - 1 + e^-s/tau_c + e^-t/tau_c - e^-(t-s)/tau_c).
    """
    with localcontext() as ctx:
        ctx.prec = 60
        s, t = sorted((Decimal(s), Decimal(t)))
        tau_c = Decimal(tau_c)
        x, y = s / tau_c, t / tau_c
        return tau_c * tau_c * (2 * x - 1 + (-x).exp() + (-y).exp() - (x - y).exp())


class TestNoiseModel:
    def test_quasi_static_requires_infinite_tau(self):
        with pytest.raises(ValueError, match="tau_c"):
            NoiseModel(NoiseKind.QUASI_STATIC, 0.1, 5.0)

    def test_ou_requires_finite_positive_tau(self):
        for bad in (0.0, -1.0, math.inf):
            with pytest.raises(ValueError):
                NoiseModel(NoiseKind.ORNSTEIN_UHLENBECK, 0.1, bad)

    def test_rejects_negative_coupling(self):
        with pytest.raises(ValueError, match="coupling"):
            NoiseModel.quasi_static(-0.1)


class TestQuasiStaticSampling:
    def test_same_seed_same_value(self):
        grid = np.array([0.25, 0.5, 1.0])
        a = block_phases(QS, grid, 1234, 0, 10)
        b = block_phases(QS, grid, 1234, 0, 10)
        assert np.array_equal(a, b)
        # one constant per realisation: the phase grows linearly in t
        assert np.array_equal(a / grid, np.broadcast_to(a[:, -1:], a.shape))

    def test_different_seeds_differ(self):
        grid = np.array([1.0])
        assert block_phases(QS, grid, 1, 0, 1)[0, 0] != block_phases(QS, grid, 2, 0, 1)[0, 0]

    def test_standard_normal_statistics(self):
        # mean -> 0 +- 0.01 and variance -> 1 +- 0.02 over 1e5 realisations
        values = all_block_phases(QS, np.array([1.0]), 7, 100_000)[:, 0] / (2.0 * QS.coupling)
        assert abs(values.mean()) <= 0.01
        assert abs(values.var() - 1.0) <= 0.02

    def test_gaussian_moment_structure(self):
        # odd moments vanish, fourth moment is 3: Gaussianity of the ensemble
        values = all_block_phases(QS, np.array([1.0]), 99, 100_000)[:, 0] / (2.0 * QS.coupling)
        m = values.size
        third, fourth = values ** 3, values ** 4
        assert abs(third.mean()) <= 3.0 * third.std(ddof=1) / math.sqrt(m)
        assert abs(fourth.mean() - 3.0) <= 4.0 * fourth.std(ddof=1) / math.sqrt(m)


class TestOrnsteinUhlenbeckSampling:
    @pytest.mark.parametrize("grid", [
        np.geomspace(5e-5, 1e4, 40),                     # every scale of x = t/tau_c
        5e-5 * np.arange(1, 31),                         # many steps far below tau_c
        np.concatenate([0.01 * np.arange(1, 11), 0.1 + 0.1 * np.arange(1, 30)]),
        np.array([1e-3, 1e4, 1e4 + 5e-5, 2e4]),          # a huge step between tiny ones
    ], ids=["geometric", "fine", "crossover", "mixed"])
    def test_law_covariance_is_exact(self, grid):
        # phi = L z for the law's coefficients; L L^T must be the integrated-OU
        # covariance, evaluated in 60-digit decimals so that nothing cancels
        tau_c = 1.0
        sigma, carry, decay, gain = _ou_phase_law(np.diff(grid, prepend=0.0), tau_c)
        n = grid.size
        increments, m = np.zeros((n, n)), np.zeros(n)
        for k in range(n):
            increments[k] = carry[k] * m
            increments[k, k] += sigma[k]
            m = decay[k] * m
            m[k] += gain[k]
        lower = np.cumsum(increments, axis=0)
        covariance = lower @ lower.T
        for i in range(n):
            for j in range(i + 1):
                exact = integrated_ou_covariance(grid[j], grid[i], tau_c)
                assert abs(covariance[i, j] - float(exact)) <= 1e-12 * float(exact), (i, j)

    def test_same_seed_same_path(self):
        grid = np.linspace(0.0, 2.0, 21)
        a = block_phases(OU, grid, 7, 0, 10)
        b = block_phases(OU, grid, 7, 0, 10)
        assert np.array_equal(a, b)
        assert np.all(a[:, 0] == 0.0)            # the zero first step adds no phase

    def test_lag_autocorrelation(self):
        # sampled phase covariance between t_1 and t_1+lag matches the closed
        # form within 3 stderr
        grid = np.arange(1, 22) * 0.1
        phi = all_block_phases(OU, grid, 5, 20_000) / (2.0 * OU.coupling)
        for lag in (1, 5, 10, 20):
            products = phi[:, 0] * phi[:, lag]
            estimate = products.mean()
            stderr = products.std(ddof=1) / math.sqrt(products.shape[0])
            exact = float(integrated_ou_covariance(grid[0], grid[lag], OU.tau_c))
            assert abs(estimate - exact) <= 3.0 * stderr

    def test_long_tau_c_is_nearly_quasi_static(self):
        # tau_c >> t: the phase grows linearly, at the rate of a frozen value
        model = NoiseModel.ornstein_uhlenbeck(0.1, 1e6)
        grid = np.linspace(1.0, 10.0, 10)
        rates = block_phases(model, grid, 0, 0, 5) / (2.0 * model.coupling * grid)
        assert np.max(np.abs(rates - rates[:, :1])) < 0.05


class TestEnsembleAverage:
    def test_rejects_small_ensembles(self):
        with pytest.raises(ValueError, match="100"):
            ensemble_average(plus_state(), QS, np.linspace(0, 1, 5), 99, 0)

    def test_zero_coupling_keeps_full_coherence(self):
        model = NoiseModel.quasi_static(0.0)
        initial = plus_state().density().coherence
        result = ensemble_average(plus_state(), model, np.linspace(0, 50, 6), 200, 1)
        assert np.all(result.coherence() == initial)

    def test_zero_phase_returns_input(self):
        result = ensemble_average(plus_state(), OU, np.linspace(0.0, 1.0, 11), 200, 4)
        assert np.array_equal(result.mean_rho[0], plus_state().density().matrix)

    def test_populations_untouched(self):
        rng = np.random.default_rng(3)
        amps = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        psi = PureState(amps / np.linalg.norm(amps))
        result = ensemble_average(psi, OU, np.linspace(0.0, 2.0, 21), 500, 9)
        expected = np.abs(psi.amplitudes) ** 2
        populations = np.stack([result.mean_rho[:, 0, 0].real, result.mean_rho[:, 1, 1].real], 1)
        assert np.allclose(populations, expected, rtol=0.0, atol=1e-12)

    def test_quasi_static_gaussian_decay(self):
        # ensemble coherence matches the Gaussian-integral value
        # 0.5 exp(-2 lambda^2 t^2) within 3 stderr at t = 1/lambda
        lam = 0.05
        model = NoiseModel.quasi_static(lam)
        grid = np.array([0.0, 1.0 / lam])
        result = ensemble_average(plus_state(), model, grid, 100_000, 21)
        expected = 0.5 * math.exp(-2.0)
        dev = abs(result.coherence()[1] - expected)
        assert dev <= 3.0 * result.coherence_stderr()[1]

    def test_matches_explicit_trajectory_average(self):
        # the vectorised ensemble equals a plain mean of per-trajectory states:
        # each trajectory's phase phi multiplies rho01 by exp(-2i phi)
        grid = np.linspace(0.0, 1.0, 11)
        m = 300
        result = ensemble_average(plus_state(), OU, grid, m, 17)
        phases = all_block_phases(OU, grid, 17, m)
        rho0 = plus_state().density().matrix
        for t_index in (0, 4, 10):
            states = []
            for row in range(m):
                rho = rho0.copy()
                rho[0, 1] *= np.exp(-1j * phases[row, t_index])
                rho[1, 0] = np.conj(rho[0, 1])
                states.append(rho)
            assert np.allclose(np.mean(states, axis=0), result.mean_rho[t_index], atol=1e-12)

    def test_bit_reproducible_and_block_order_free(self):
        grid = np.linspace(0.0, 1.0, 11)
        a = ensemble_average(plus_state(), OU, grid, 5000, 3)
        b = ensemble_average(plus_state(), OU, grid, 5000, 3)
        assert np.array_equal(a.mean_rho, b.mean_rho) and np.array_equal(a.stderr, b.stderr)
        # processing blocks in any order and reducing in index order gives the
        # same bits as the serial run; each grid point sums its block's
        # trajectories as one contiguous row of cos 2 phi and of sin 2 phi
        partials = {}
        for b_idx, rows in sorted(_block_row_counts(5000), reverse=True):
            phases = np.ascontiguousarray(block_phases(OU, grid, 3, b_idx, rows).T)
            partials[b_idx] = np.empty(grid.size, dtype=complex)
            partials[b_idx].imag = -np.sin(phases).sum(axis=1)
            partials[b_idx].real = np.cos(phases).sum(axis=1)
        factor_sum = np.zeros(grid.size, dtype=complex)
        for b_idx in sorted(partials):
            factor_sum += partials[b_idx]
        rho01 = plus_state().density().matrix[0, 1]
        assert np.array_equal(rho01 * (factor_sum / 5000), a.mean_rho[:, 0, 1])

    @pytest.mark.parametrize("model", [QS, OU], ids=["quasi-static", "ornstein-uhlenbeck"])
    def test_stderr_is_the_spread_of_the_trajectory_factors(self, model):
        # stderr of rho01 = |rho01| sqrt((Var[Re] + Var[Im]) / M) over the
        # per-trajectory factors, two blocks of them
        grid = np.linspace(0.0, 2.0, 21)
        m = 3000
        result = ensemble_average(plus_state(), model, grid, m, 12)
        factors = np.exp(-1j * all_block_phases(model, grid, 12, m))
        variance = factors.real.var(axis=0, ddof=1) + factors.imag.var(axis=0, ddof=1)
        expected = 0.5 * np.sqrt(variance / m)
        assert np.allclose(result.coherence_stderr(), expected, rtol=1e-9, atol=0.0)

    def test_coarse_grid_matches_closed_form(self):
        # grid steps of tau_c: the exact law has no step limit, and the
        # coherence lands on exp(-G(t))/2 within 4 stderr at every t > 0
        model = NoiseModel.ornstein_uhlenbeck(0.3, 1.0)
        grid = np.arange(11.0)
        result = ensemble_average(plus_state(), model, grid, 20_000, 31)
        closed = 0.5 * np.exp(-ou_decay_exponent(model.coupling, model.tau_c, grid[1:]))
        z = np.abs(result.coherence()[1:] - closed) / result.coherence_stderr()[1:]
        assert np.max(z) <= 4.0

    def test_mean_states_are_physical(self):
        grid = np.linspace(0.0, 2.0, 21)
        result = ensemble_average(plus_state(), OU, grid, 2000, 8)
        assert first_unphysical(result.mean_rho, trace_tol=1e-9, herm_tol=1e-9,
                                positivity_tol=1e-9) is None
        assert np.abs(result.mean_rho[10, 0, 1]) <= 0.5

    def test_stderr_scales_with_ensemble_size(self):
        grid = np.array([0.0, 10.0])
        small = ensemble_average(plus_state(), QS, grid, 1000, 5)
        large = ensemble_average(plus_state(), QS, grid, 16_000, 5)
        ratio = small.coherence_stderr()[1] / large.coherence_stderr()[1]
        assert ratio == pytest.approx(4.0, rel=0.2)
