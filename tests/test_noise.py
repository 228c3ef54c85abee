import math

import numpy as np
import pytest

from zenosim.noise import (NoiseKind, NoiseModel, _block_row_counts,
                           block_noise_values, ensemble_average)
from zenosim.qubit import PureState, first_unphysical, plus_state

QS = NoiseModel.quasi_static(0.1)
OU = NoiseModel.ornstein_uhlenbeck(0.1, 1.0)


def all_block_values(model, grid, base_seed, trajectories):
    blocks = [block_noise_values(model, grid, base_seed, b, rows)
              for b, rows in _block_row_counts(trajectories)]
    return np.vstack(blocks)


def trapezoid_factors(model, grid, values):
    """exp(-2i phi) per trajectory (row) and grid point, phi the trapezoid phase."""
    segments = 0.5 * np.diff(grid) * (values[:, 1:] + values[:, :-1])
    integrals = np.zeros(values.shape)
    np.cumsum(segments, axis=-1, out=integrals[:, 1:])
    return np.exp(-2j * model.coupling * integrals)


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
        grid = np.linspace(0.0, 1.0, 5)
        a = block_noise_values(QS, grid, 1234, 0, 10)
        b = block_noise_values(QS, grid, 1234, 0, 10)
        assert np.array_equal(a, b)
        # one constant per realisation
        assert np.all(a == a[:, :1])

    def test_different_seeds_differ(self):
        grid = np.array([0.0])
        assert block_noise_values(QS, grid, 1, 0, 1)[0, 0] != \
            block_noise_values(QS, grid, 2, 0, 1)[0, 0]

    def test_standard_normal_statistics(self):
        # mean -> 0 +- 0.01 and variance -> 1 +- 0.02 over 1e5 realisations
        values = all_block_values(QS, np.array([0.0]), 7, 100_000)[:, 0]
        assert abs(values.mean()) <= 0.01
        assert abs(values.var() - 1.0) <= 0.02

    def test_gaussian_moment_structure(self):
        # odd moments vanish, fourth moment is 3: Gaussianity of the ensemble
        values = all_block_values(QS, np.array([0.0]), 99, 100_000)[:, 0]
        m = values.size
        third, fourth = values ** 3, values ** 4
        assert abs(third.mean()) <= 3.0 * third.std(ddof=1) / math.sqrt(m)
        assert abs(fourth.mean() - 3.0) <= 4.0 * fourth.std(ddof=1) / math.sqrt(m)


class TestOrnsteinUhlenbeckSampling:
    def test_same_seed_same_path(self):
        grid = np.linspace(0.0, 2.0, 21)
        a = block_noise_values(OU, grid, 7, 0, 10)
        b = block_noise_values(OU, grid, 7, 0, 10)
        assert np.array_equal(a, b)

    def test_rejects_coarse_grid(self):
        with pytest.raises(ValueError, match="grid step"):
            # step 0.2 > tau_c/10
            ensemble_average(plus_state(), OU, np.linspace(0.0, 2.0, 11), 200, 0)

    def test_lag_autocorrelation(self):
        # sampled lag-k correlation matches exp(-k dt / tau_c) within 3 stderr
        grid = np.arange(0.0, 2.0001, 0.1)
        values = all_block_values(OU, grid, 5, 100_000)
        for lag in (1, 5, 10, 20):
            products = values[:, 0] * values[:, lag]
            estimate = products.mean()
            stderr = products.std(ddof=1) / math.sqrt(products.shape[0])
            assert abs(estimate - math.exp(-grid[lag] / OU.tau_c)) <= 3.0 * stderr

    def test_stationary_unit_variance(self):
        grid = np.arange(0.0, 1.0001, 0.1)
        values = all_block_values(OU, grid, 6, 50_000)
        for column in (0, 5, 10):
            var = values[:, column].var(ddof=1)
            assert abs(var - 1.0) <= 0.03

    def test_long_tau_c_is_nearly_quasi_static(self):
        model = NoiseModel.ornstein_uhlenbeck(0.1, 1e6)
        grid = np.linspace(0.0, 10.0, 11)
        values = block_noise_values(model, grid, 0, 0, 5)
        assert np.max(np.abs(values - values[:, :1])) < 0.05


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
        # each trajectory's trapezoid phase phi multiplies rho01 by exp(-2i phi)
        grid = np.linspace(0.0, 1.0, 11)
        m = 300
        result = ensemble_average(plus_state(), OU, grid, m, 17)
        values = all_block_values(OU, grid, 17, m)
        rho0 = plus_state().density().matrix
        for t_index in (0, 4, 10):
            states = []
            for row in range(m):
                f, t = values[row, :t_index + 1], grid[:t_index + 1]
                phi = OU.coupling * float(np.sum(0.5 * np.diff(t) * (f[1:] + f[:-1])))
                rho = rho0.copy()
                rho[0, 1] *= np.exp(-2j * phi)
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
        # trajectories as one contiguous row
        partials = {b_idx: block_noise_values(OU, grid, 3, b_idx, rows)
                    for b_idx, rows in _block_row_counts(5000)}
        factor_sum = np.zeros(grid.size, dtype=complex)
        for b_idx in sorted(partials, reverse=True):
            factors = trapezoid_factors(OU, grid, partials[b_idx])
            partials[b_idx] = np.ascontiguousarray(factors.T).sum(axis=1)
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
        factors = trapezoid_factors(model, grid, all_block_values(model, grid, 12, m))
        variance = factors.real.var(axis=0, ddof=1) + factors.imag.var(axis=0, ddof=1)
        expected = 0.5 * np.sqrt(variance / m)
        assert np.allclose(result.coherence_stderr(), expected, rtol=1e-9, atol=0.0)

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
