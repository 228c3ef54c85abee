import itertools
import math
import time
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from zenosim.lindblad import DecoherenceParams
from zenosim.noise import NoiseModel, _ou_interval_coefficients, stream_generator
from zenosim.qubit import DensityMatrix
from zenosim.zeno import (EngineKind, NoiseReset, ProtocolConfig, ProtocolKind,
                          ProtocolResult, coherence_ratio, figure2_sweep,
                          figure3_surface, nonselective_coherence,
                          nonselective_rho, nonselective_run_mc, pn_analytic,
                          pn_approx, pn_persistent, selective_run_mc,
                          selective_step_probability)
from zenosim.zeno import _interval_phases, _kept_outcomes, _kept_parity, _survivors_per_step

from oracles import closed_form_rho_rotating

FIG2 = DecoherenceParams.from_times(1000.0, 20.0)
FIG3 = DecoherenceParams.from_times(1000.0, 400.0)

# exact scalar evaluations of the success-probability product at T1=1000,
# T2=20, t=20 ns (exponent per interval: -tau/2000 - tau^2/400)
P1_AT_20 = 0.6821094897857617
P4_AT_20 = 0.8799520410662889
P10_AT_20 = 0.9466283139369741
STEP_TAU5 = 0.9685337316887017
STEP_TAU2 = 0.9945301393876844
# 0.5 exp(-0.2 - 1) and 0.5 exp(-0.2 - 1/16) at T1=1000, T2=400, t=400 ns
ABS01_N1 = 0.15059710595610107
ABS01_N16 = 0.38456318218428526
# (1 - 0.00125) exp(-0.00625) at T1=1000, T2=20, t=5, N=5
APPROX_T5_N5 = 0.9925272787601155


def mc_config(t, n, m=20_000, seed=11, kind=ProtocolKind.SELECTIVE,
              reset=NoiseReset.RESAMPLE_PER_INTERVAL):
    return ProtocolConfig(t, n, kind, EngineKind.MONTE_CARLO, m, seed, reset)


class TestProtocolConfig:
    def test_rejects_zero_measurements(self):
        with pytest.raises(ValueError, match="measurements"):
            ProtocolConfig(10.0, 0)

    def test_mc_needs_enough_trajectories(self):
        with pytest.raises(ValueError, match="1000"):
            ProtocolConfig(10.0, 2, engine=EngineKind.MONTE_CARLO,
                           trajectories=500, base_seed=1)

    def test_mc_needs_seed(self):
        with pytest.raises(ValueError, match="base_seed"):
            ProtocolConfig(10.0, 2, engine=EngineKind.MONTE_CARLO, trajectories=2000)

    @pytest.mark.parametrize("trajectories,seed,text", [
        (2000.5, 1, "trajectories must be an integer >= 1000, got 2000.5"),
        (None, 1, "trajectories must be an integer >= 1000, got None"),
        (2000, -1, "base_seed must be an integer >= 0, got -1"),
        (2000, 1.0, "base_seed must be an integer >= 0, got 1.0"),
    ])
    def test_mc_counts_are_integers(self, trajectories, seed, text):
        # a fractional count used to pass here and fail in numpy with a TypeError
        with pytest.raises(ValueError) as info:
            ProtocolConfig(40.0, 4, ProtocolKind.SELECTIVE, EngineKind.MONTE_CARLO,
                           trajectories, seed)
        assert str(info.value) == text

    def test_tau(self):
        assert ProtocolConfig(20.0, 4).tau == 5.0


class TestSelectiveStepProbability:
    def test_spot_value(self):
        assert selective_step_probability(FIG2, 20.0) == pytest.approx(P1_AT_20, abs=1e-12)

    def test_short_interval_limit(self):
        assert selective_step_probability(FIG2, 1e-9) == pytest.approx(1.0, abs=1e-9)

    def test_no_decay_is_certain(self):
        assert selective_step_probability(DecoherenceParams(0.0, 0.0), 5.0) == 1.0

    def test_rejects_nonpositive_tau(self):
        with pytest.raises(ValueError):
            selective_step_probability(FIG2, 0.0)


class TestPnAnalytic:
    @pytest.mark.parametrize("n,expected", [(1, P1_AT_20), (4, P4_AT_20), (10, P10_AT_20)])
    def test_spot_values(self, n, expected):
        assert pn_analytic(FIG2, 20.0, n) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("n,step", [(4, STEP_TAU5), (10, STEP_TAU2)])
    def test_per_step_factors(self, n, step):
        assert selective_step_probability(FIG2, 20.0 / n) == pytest.approx(step, abs=1e-12)

    def test_zero_time(self):
        assert pn_analytic(FIG2, 0.0, 5) == 1.0

    def test_interval_below_the_smallest_float(self):
        # t/n rounds to 0: no interval, no decay, as in pn_persistent and pn_approx
        assert pn_analytic(FIG2, 5e-324, 2) == 1.0
        assert pn_persistent(FIG2, 5e-324, 2) == pn_approx(FIG2, 5e-324, 2) == 1.0

    def test_rejects_negative_time(self):
        for op in (pn_analytic, pn_approx, nonselective_coherence):
            with pytest.raises(ValueError, match=">= 0"):
                op(FIG2, -5.0, 3)

    def test_zeno_limit_without_relaxation(self):
        params = DecoherenceParams.from_times(math.inf, 20.0)
        assert pn_analytic(params, 20.0, 10 ** 6) > 1.0 - 1e-6

    @given(st.floats(5.0, 500.0), st.floats(10.0, 200.0), st.floats(0.01, 1.75),
           st.integers(1, 29))
    @settings(max_examples=80, deadline=None)
    def test_monotone_in_n_for_sweep_regime(self, t2, t1_factor, t_factor, n):
        # quadratic-decay suppression: more measurements never hurt while the
        # run is shorter than ~T2 and relaxation is comparatively slow
        params = DecoherenceParams.from_times(t2 * t1_factor, t2)
        t = t2 * t_factor
        assert pn_analytic(params, t, n + 1) >= pn_analytic(params, t, n) - 1e-15


def hermite_persistent(params, t, n, rule):
    """E[q(f0)^N] by an independent route: the Gauss-Hermite ``rule`` (nodes, weights)."""
    x, w = rule
    tau = t / n
    q = 0.5 + 0.5 * math.exp(-0.5 * params.gamma1 * tau) * np.cos(
        math.sqrt(2.0) * params.gamma2 * tau * x)
    return float(w @ q ** n / w.sum())


def binomial_persistent(params, t, n):
    """E[q(f0)^N] expanded in powers of cos: a double sum of positive terms, exact at any t."""
    tau = t / n
    eps, g = math.exp(-0.5 * params.gamma1 * tau), (params.gamma2 * tau) ** 2
    return sum(math.comb(n, k) * 0.5 ** (n - k) * (0.25 * eps) ** k
               * sum(math.comb(k, j) * math.exp(-(k - 2 * j) ** 2 * g) for j in range(k + 1))
               for k in range(n + 1))


class TestPnPersistent:
    def test_single_interval_is_the_resample_product(self):
        for t in np.linspace(0.5, 400.0, 41):
            assert abs(pn_persistent(FIG2, t, 1) - pn_analytic(FIG2, t, 1)) <= 1e-15

    def test_matches_gauss_hermite_quadrature(self):
        # sqrt(2) t / T2 <= 13, where 120- and 240-node rules agree
        coarse, fine = (np.polynomial.hermite_e.hermegauss(nodes) for nodes in (120, 240))
        for t in (1.0, 20.0, 25.0, 30.0, 35.0, 100.0, 180.0):
            for n in range(1, 41):
                reference = hermite_persistent(FIG2, t, n, fine)
                assert abs(hermite_persistent(FIG2, t, n, coarse) - reference) <= 1e-14
                assert abs(pn_persistent(FIG2, t, n) - reference) <= 1e-14

    def test_matches_binomial_sum_beyond_the_quadrature(self):
        for t in (20.0, 300.0, 1000.0, 5000.0):
            for n in range(1, 31):
                assert abs(pn_persistent(FIG2, t, n) - binomial_persistent(FIG2, t, n)) <= 1e-14

    def test_zero_time_and_jensen_bound(self):
        assert pn_persistent(FIG2, 0.0, 5) == 1.0
        for n in range(1, 21):
            assert pn_persistent(FIG2, 30.0, n) >= pn_analytic(FIG2, 30.0, n) - 1e-15


class TestPnApprox:
    def test_spot_value(self):
        assert pn_approx(FIG2, 5.0, 5) == pytest.approx(APPROX_T5_N5, abs=1e-12)

    def test_limit_is_unity(self):
        params = DecoherenceParams.from_times(math.inf, 20.0)
        assert pn_approx(params, 5.0, 10 ** 9) == pytest.approx(1.0, abs=1e-8)

    def test_close_to_exact_product(self):
        for n in range(1, 11):
            assert abs(pn_approx(FIG2, 5.0, n) - pn_analytic(FIG2, 5.0, n)) <= 0.02


class TestNonselective:
    def test_populations_equalised(self):
        rho = nonselective_rho(FIG3, 400.0, 4)
        assert rho.matrix.diagonal().real.tolist() == pytest.approx([0.5, 0.5], abs=1e-12)

    @pytest.mark.parametrize("n,expected", [(1, ABS01_N1), (16, ABS01_N16)])
    def test_spot_values(self, n, expected):
        assert nonselective_coherence(FIG3, 400.0, n) == pytest.approx(expected, abs=1e-12)

    def test_state_carries_the_coherence(self):
        rho = nonselective_rho(FIG3, 400.0, 16)
        assert abs(rho.matrix[0, 1]) == pytest.approx(ABS01_N16, abs=1e-12)

    def test_many_measurements_leave_relaxation_floor(self):
        # only the quadratic (low-frequency) part is suppressed
        floor = 0.5 * math.exp(-400.0 / 2000.0)
        assert nonselective_coherence(FIG3, 400.0, 10 ** 9) == pytest.approx(floor, abs=1e-9)

    def test_single_measurement_equals_closed_form(self):
        # N=1 reduces to the free closed-form coherence, bit for bit
        for t in (25.0, 400.0, 913.0):
            closed = closed_form_rho_rotating(FIG3, t).matrix[0, 1].real
            assert nonselective_coherence(FIG3, t, 1) == closed

    @given(t1=st.one_of(st.floats(1e-300, 1e300), st.just(math.inf)),
           t2=st.one_of(st.floats(1e-300, 1e300), st.just(math.inf)),
           t=st.floats(0.0, 1e300), n=st.integers(1, 10 ** 9))
    @example(t1=1000.0, t2=400.0, t=400.0, n=4)
    @example(t1=math.inf, t2=math.inf, t=0.0, n=1)
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    def test_state_is_the_corotating_bracket(self, t1, t2, t, n):
        # the projections' frame: equal populations and the real coherence, bit for bit
        params = DecoherenceParams.from_times(t1, t2)
        c = nonselective_coherence(params, t, n)
        bracket = np.array([[0.5, c], [c, 0.5]], dtype=complex)
        assert nonselective_rho(params, t, n).matrix.tobytes() == bracket.tobytes()


class TestCoherenceRatio:
    def test_spot_value(self):
        assert coherence_ratio(FIG3, 400.0, 1) == pytest.approx(0.36787944117144233, abs=1e-12)

    def test_unity_at_zero_time(self):
        assert coherence_ratio(FIG3, 0.0, 7) == 1.0

    def test_t1_independent(self):
        values = []
        for t1 in (200.0, 1000.0, math.inf):
            params = DecoherenceParams.from_times(t1, 400.0)
            values.append(coherence_ratio(params, 400.0, 4))
        assert max(values) - min(values) <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 4, 16])
    def test_matches_suppressed_exponent(self, n):
        expected = math.exp(-((400.0 / 400.0) ** 2) / n)
        assert coherence_ratio(FIG3, 400.0, n) == pytest.approx(expected, abs=1e-12)


class TestTaskOutcomes:
    """The task kernel: one Born step over the rows of consecutive blocks."""

    @staticmethod
    def outcomes(params, config, noise, block_rows, seed=3):
        task = [(stream_generator(seed, block), rows) for block, rows in enumerate(block_rows)]
        return _kept_outcomes(params, config, noise)(task)

    @given(n=st.integers(1, 6), block_rows=st.lists(st.integers(1, 40), min_size=1, max_size=4),
           gamma1=st.sampled_from([0.0, 0.01, 1.0]), reset=st.sampled_from(list(NoiseReset)),
           tau_c=st.sampled_from([math.inf, 0.5]))
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    def test_grouping_does_not_change_outcomes(self, n, block_rows, gamma1, reset, tau_c):
        params = DecoherenceParams(gamma1, 0.05)
        noise = NoiseModel.ornstein_uhlenbeck(0.3, tau_c)
        config = mc_config(10.0, n, reset=reset)
        task = self.outcomes(params, config, noise, block_rows)
        kernel = _kept_outcomes(params, config, noise)
        alone = [kernel([(stream_generator(3, block), rows)])      # one-block tasks
                 for block, rows in enumerate(block_rows)]
        assert task.shape == (sum(block_rows), n)
        assert np.array_equal(task, np.concatenate(alone))

    @pytest.mark.parametrize("reset", list(NoiseReset))
    def test_outcomes_follow_the_draw_layout(self, reset):
        # each block draws its noise, then its jump uniforms, then its
        # measurement uniforms; a jump leaves stay = 1/2, else the Born rule
        params, n, t, coupling = DecoherenceParams(0.02, 0.0), 4, 10.0, 0.3
        eps = math.exp(-0.5 * params.gamma1 * t / n)
        block_rows = [7, 5]
        kept = self.outcomes(params, mc_config(t, n, reset=reset),
                             NoiseModel.quasi_static(coupling), block_rows)
        expected = []
        for block, rows in enumerate(block_rows):
            gen = stream_generator(3, block)
            width = 1 if reset is NoiseReset.PERSISTENT else n
            phases = 2.0 * coupling * (t / n) * gen.standard_normal((rows, width))
            jumped = gen.random((rows, n)) < 0.5 * (1.0 - eps * eps)
            stay = (1.0 + eps * eps + 2.0 * eps * np.cos(phases)) / (2.0 * (1.0 + eps * eps))
            expected.append(gen.random((rows, n)) < np.where(jumped, 0.5, stay))
        assert np.array_equal(kept, np.concatenate(expected))


def kept_examples(test):
    """N = 1, and all-kept and all-failed rows, besides the drawn (rows, N) outcomes."""
    for kept in ([[True] * 5, [False] + [True] * 4, [True] * 4 + [False], [False] * 5],
                 [[True]], [[False]], [[True], [False], [True]]):
        test = example(np.array(kept))(test)
    return given(arrays(np.bool_, array_shapes(min_dims=2, max_dims=2, max_side=40)))(test)


class TestColumnCounts:
    # the task kernel hands over kept column-major; both layouts count alike
    @kept_examples
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    def test_survivors_are_the_running_and(self, kept):
        expected = np.logical_and.accumulate(kept, axis=1).sum(axis=0)
        for layout in (kept, np.asfortranarray(kept)):
            assert np.array_equal(_survivors_per_step(layout), expected)
            assert np.array_equal(layout, kept)

    @kept_examples
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    def test_parity_is_the_kept_count_mod_2(self, kept):
        expected = np.count_nonzero(kept, axis=1) % 2 == 1
        for layout in (kept, np.asfortranarray(kept)):
            assert np.array_equal(_kept_parity(layout), expected)
            assert np.array_equal(layout, kept)


class TestSelectiveMonteCarlo:
    def test_no_decoherence_always_succeeds(self):
        result = selective_run_mc(DecoherenceParams(0.0, 0.0), mc_config(20.0, 5, m=2000))
        assert result.success_probability == 1.0
        assert result.survivors_per_step == (2000,) * 5

    def test_requires_mc_engine(self):
        with pytest.raises(ValueError, match="monte-carlo"):
            selective_run_mc(FIG2, ProtocolConfig(20.0, 4))

    def test_requires_selective_kind(self):
        with pytest.raises(ValueError, match="selective"):
            selective_run_mc(FIG2, mc_config(20.0, 4, kind=ProtocolKind.NON_SELECTIVE))

    def test_matches_analytic_product(self):
        result = selective_run_mc(FIG2, mc_config(20.0, 4, m=100_000))
        dev = abs(result.success_probability - pn_analytic(FIG2, 20.0, 4))
        assert dev <= 3.0 * result.success_stderr

    def test_single_measurement_reduces_to_step_probability(self):
        result = selective_run_mc(FIG2, mc_config(20.0, 1, m=100_000, seed=5))
        dev = abs(result.success_probability - selective_step_probability(FIG2, 20.0))
        assert dev <= 3.0 * result.success_stderr

    def test_deterministic(self):
        a = selective_run_mc(FIG2, mc_config(20.0, 4))
        b = selective_run_mc(FIG2, mc_config(20.0, 4))
        assert a.success_probability == b.success_probability
        assert a.survivors_per_step == b.survivors_per_step

    def test_survivors_monotone(self):
        result = selective_run_mc(FIG2, mc_config(30.0, 10, m=50_000))
        counts = result.survivors_per_step
        assert all(counts[i + 1] <= counts[i] for i in range(len(counts) - 1))

    def test_persistent_noise_never_below_resampled(self):
        # with one frozen noise value per run the all-success probability is
        # E[q(f0)^N] >= (E[q(f0)])^N; deviations from the per-interval product
        # are reported, not asserted
        resampled = selective_run_mc(FIG2, mc_config(20.0, 5, m=100_000, seed=8))
        persistent = selective_run_mc(
            FIG2, mc_config(20.0, 5, m=100_000, seed=8, reset=NoiseReset.PERSISTENT))
        slack = 3.0 * (resampled.success_stderr + persistent.success_stderr)
        assert persistent.success_probability >= resampled.success_probability - slack

    def test_ou_noise_matches_gaussian_phase_variance(self):
        # independent oracle: the phase after time t is Gaussian with variance
        # 2 lambda^2 (tau_c t - tau_c^2 (1 - exp(-t/tau_c))), so a single
        # projection succeeds with probability 1/2 + exp(-2 Var)/2
        lam, tau_c, t = 0.25, 0.5, 2.5
        noise = NoiseModel.ornstein_uhlenbeck(lam, tau_c)
        free = DecoherenceParams(0.0, 0.0)
        result = selective_run_mc(free, mc_config(t, 1, m=50_000, seed=13), noise)
        variance = 2.0 * lam ** 2 * (tau_c * t - tau_c ** 2 * (1.0 - math.exp(-t / tau_c)))
        expected = 0.5 + 0.5 * math.exp(-2.0 * variance)
        assert abs(result.success_probability - expected) <= 3.0 * result.success_stderr

    def test_ou_persistent_path_also_matches_for_single_interval(self):
        lam, tau_c, t = 0.25, 0.5, 2.5
        noise = NoiseModel.ornstein_uhlenbeck(lam, tau_c)
        free = DecoherenceParams(0.0, 0.0)
        result = selective_run_mc(free, mc_config(t, 1, m=50_000, seed=14,
                                                  reset=NoiseReset.PERSISTENT), noise)
        variance = 2.0 * lam ** 2 * (tau_c * t - tau_c ** 2 * (1.0 - math.exp(-t / tau_c)))
        expected = 0.5 + 0.5 * math.exp(-2.0 * variance)
        assert abs(result.success_probability - expected) <= 3.0 * result.success_stderr


class TestNonselectiveMonteCarlo:
    def test_matches_analytic_coherence(self):
        result = nonselective_run_mc(
            FIG3, mc_config(400.0, 4, m=100_000, kind=ProtocolKind.NON_SELECTIVE))
        dev = abs(result.coherence - nonselective_coherence(FIG3, 400.0, 4))
        assert dev <= 3.0 * result.coherence_stderr

    def test_final_state_has_equal_populations(self):
        result = nonselective_run_mc(
            FIG3, mc_config(400.0, 2, m=2000, kind=ProtocolKind.NON_SELECTIVE))
        assert result.final_rho.matrix.diagonal().real.tolist() == pytest.approx([0.5, 0.5],
                                                                                 abs=1e-12)

    def test_deterministic(self):
        a = nonselective_run_mc(FIG3, mc_config(400.0, 4, kind=ProtocolKind.NON_SELECTIVE))
        b = nonselective_run_mc(FIG3, mc_config(400.0, 4, kind=ProtocolKind.NON_SELECTIVE))
        assert a.coherence == b.coherence

    def test_results_compare_by_value(self):
        # a result carries its final state, whose == compares entries
        a, b, other = (nonselective_run_mc(FIG3, mc_config(400.0, 4, seed=seed,
                                                           kind=ProtocolKind.NON_SELECTIVE))
                       for seed in (11, 11, 12))
        assert a.final_rho is not b.final_rho
        assert (a == b) is True and (a == other) is False

    @pytest.mark.parametrize("seed", [3, 5, 7, 11])
    @pytest.mark.parametrize("t,n", [(400.0, 4), (10_000.0, 2)])
    def test_final_state_is_the_corotating_bracket(self, t, n, seed):
        # at t = 25 T2 the coherence is near 0, and each seed here samples a negative <0|rho|1>
        result = nonselective_run_mc(FIG3, mc_config(t, n, m=2000, seed=seed,
                                                     kind=ProtocolKind.NON_SELECTIVE))
        c = result.final_rho.matrix[0, 1].real
        assert c == (result.coherence if t == 400.0 else -result.coherence)
        bracket = np.array([[0.5, c], [c, 0.5]], dtype=complex)     # imaginary parts +0.0
        assert result.final_rho.matrix.tobytes() == bracket.tobytes()


def ou_phase_covariance(coupling, tau_c, tau, n, persistent):
    """Covariance of the n interval phases under stationary OU noise.

    Each phase has variance coupling^2 2 tau_c^2 (x - 1 + a), x = tau/tau_c,
    a = exp(-x); on one persistent path intervals j != k share
    coupling^2 tau_c^2 (1 - a)^2 a^(|j - k| - 1), on resampled paths nothing.
    """
    x = tau / tau_c
    a = math.exp(-x)
    cov = np.zeros((n, n))
    if persistent:
        lag = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
        cov = coupling ** 2 * tau_c ** 2 * (1.0 - a) ** 2 * a ** (lag - 1.0)
    np.fill_diagonal(cov, coupling ** 2 * 2.0 * tau_c ** 2 * (x - 1.0 + a))
    return cov


def sign_pattern_average(cov, values, weight):
    """2^-n sum over s in values^n of weight^(nonzero entries of s) exp(-2 s^T C s).

    E[exp(2i s.phi)] = exp(-2 s^T C s) for Gaussian phases, so expanding each
    cos 2 phi_k into exponentials turns a protocol average into this sum.
    """
    n = len(cov)
    s = np.array(list(itertools.product(values, repeat=n)), dtype=float)
    weights = weight ** np.count_nonzero(s, axis=1)
    quad = np.einsum("pi,ij,pj->p", s, cov, s)
    return float(np.sum(weights * np.exp(-2.0 * quad))) / 2.0 ** n


class TestZeroTime:
    """At t = 0 the phases are 0, no trajectory jumps and the Born probability to
    stay is exactly 1.0, so the sampled path keeps every trajectory."""

    PARAMS = DecoherenceParams.from_times(1000.0, 20.0)
    NOISE = [None, NoiseModel.ornstein_uhlenbeck(0.3, 2.0),
             NoiseModel.ornstein_uhlenbeck(0.0, 2.0)]

    @pytest.mark.parametrize("reset", list(NoiseReset))
    @pytest.mark.parametrize("noise", NOISE, ids=["quasi-static", "ou", "ou-zero-coupling"])
    @pytest.mark.parametrize("n", [1, 3])
    def test_selective(self, reset, noise, n):
        result = selective_run_mc(self.PARAMS, mc_config(0.0, n, m=2000, reset=reset), noise)
        assert result == ProtocolResult(success_probability=1.0, success_stderr=0.0,
                                        survivors_per_step=(2000,) * n, trajectories=2000)

    @pytest.mark.parametrize("reset", list(NoiseReset))
    @pytest.mark.parametrize("noise", NOISE, ids=["quasi-static", "ou", "ou-zero-coupling"])
    @pytest.mark.parametrize("n", [1, 3])
    def test_nonselective(self, reset, noise, n):
        config = mc_config(0.0, n, m=2000, kind=ProtocolKind.NON_SELECTIVE, reset=reset)
        result = nonselective_run_mc(self.PARAMS, config, noise)
        assert result == ProtocolResult(final_rho=DensityMatrix(np.full((2, 2), 0.5)),
                                        coherence=0.5, coherence_stderr=0.0, trajectories=2000)


class TestOrnsteinUhlenbeckProtocols:
    """OU protocol engines against the exact Gaussian law of the interval phases."""

    @pytest.mark.parametrize("x", [1e-8, 1e-4, 1.0, 1e4])
    def test_interval_coefficients_are_exact(self, x):
        # reference: the closed forms evaluated in 60-digit decimals, so the
        # cancellation in x - 1 + a and x - 2 tanh(x/2) costs nothing
        with localcontext() as ctx:
            ctx.prec = 60
            tau_c = Decimal("0.5")
            big_x = Decimal(x)
            a = (-big_x).exp()
            th = (1 - a) / (1 + a)
            reference = (tau_c * (2 * (big_x - 1 + a)).sqrt(), a, (1 - a * a).sqrt(),
                         tau_c * (1 - a), tau_c * (1 - a) * th.sqrt(),
                         tau_c * (2 * (big_x - 2 * th)).sqrt())
        values = _ou_interval_coefficients(0.5 * x, 0.5)
        assert all(v >= 0.0 for v in values)
        for value, exact in zip(values, reference):
            assert value == pytest.approx(float(exact), rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("n", [4, 6])
    @pytest.mark.parametrize("reset", list(NoiseReset))
    @pytest.mark.parametrize("kind", list(ProtocolKind))
    def test_mc_matches_exact_phase_law(self, kind, reset, n):
        coupling, tau_c, t = 0.6, 1.0, 4.0
        params = DecoherenceParams.from_times(20.0, math.inf)
        eps = math.exp(-0.5 * params.gamma1 * t / n)
        cov = ou_phase_covariance(coupling, tau_c, t / n, n, reset is NoiseReset.PERSISTENT)
        noise = NoiseModel.ornstein_uhlenbeck(coupling, tau_c)
        config = mc_config(t, n, m=20_000, seed=17, kind=kind, reset=reset)
        if kind is ProtocolKind.SELECTIVE:
            # P_N = E[prod_k (1/2 + (eps/2) cos 2 phi_k)]
            expected = sign_pattern_average(cov, (-1, 0, 1), eps / 2)
            result = selective_run_mc(params, config, noise)
            value, stderr = result.success_probability, result.success_stderr
        else:
            # coherence = (eps^N / 2) E[prod_k cos 2 phi_k]
            expected = 0.5 * eps ** n * sign_pattern_average(cov, (-1, 1), 1.0)
            result = nonselective_run_mc(params, config, noise)
            value, stderr = result.coherence, result.coherence_stderr
        assert abs(value - expected) <= 4.0 * stderr

    def test_persistent_equals_resample_for_single_interval(self):
        # one interval has no path to persist: both resets draw the same normal
        # per trajectory and give the same bits, also at tau = tau_c/4, where
        # carry^2 + mix^2 + fresh^2 and spread^2 differ in the last bit
        noise = NoiseModel.ornstein_uhlenbeck(0.6, 1.0)

        def phases(reset):
            fill = _interval_phases(noise, 0.25, 1, reset is NoiseReset.PERSISTENT)
            out, spare = np.empty((2, 1000, 1))
            fill(np.random.Generator(np.random.Philox(5)), out, spare)
            return out

        resample, persistent = (phases(reset) for reset in NoiseReset)
        assert np.array_equal(resample, persistent)
        params = DecoherenceParams.from_times(20.0, math.inf)
        for kind, run in ((ProtocolKind.SELECTIVE, selective_run_mc),
                          (ProtocolKind.NON_SELECTIVE, nonselective_run_mc)):
            resample, persistent = (
                run(params, mc_config(4.0, 1, m=5000, seed=23, kind=kind, reset=reset), noise)
                for reset in NoiseReset)
            assert persistent.success_probability == resample.success_probability
            assert persistent.coherence == resample.coherence

    @pytest.mark.parametrize("reset", list(NoiseReset))
    def test_ou_at_infinite_tau_c_is_the_default_quasi_static_noise(self, reset):
        # the default noise is quasi-static at coupling gamma2/sqrt(2); the OU
        # constructor at tau_c = inf is that model, and the engines draw its bits
        noise = NoiseModel.ornstein_uhlenbeck(FIG2.gamma2 / math.sqrt(2.0), math.inf)
        for kind, run in ((ProtocolKind.SELECTIVE, selective_run_mc),
                          (ProtocolKind.NON_SELECTIVE, nonselective_run_mc)):
            config = mc_config(20.0, 5, m=3000, seed=29, kind=kind, reset=reset)
            limit, default = run(FIG2, config, noise), run(FIG2, config)
            assert limit.survivors_per_step == default.survivors_per_step
            assert limit.coherence == default.coherence

    def test_interval_far_longer_than_correlation_time(self):
        # tau/tau_c = 1e6: one draw per interval whatever the ratio
        coupling, tau_c, t = 0.4, 1e-3, 1e3
        noise = NoiseModel.ornstein_uhlenbeck(coupling, tau_c)
        start = time.perf_counter()
        result = selective_run_mc(DecoherenceParams(0.0, 0.0), mc_config(t, 1, m=1000, seed=19),
                                  noise)
        elapsed = time.perf_counter() - start
        x = t / tau_c
        variance = coupling ** 2 * 2.0 * tau_c ** 2 * (x - 1.0 + math.exp(-x))
        expected = 0.5 + 0.5 * math.exp(-2.0 * variance)
        assert abs(result.success_probability - expected) <= 4.0 * result.success_stderr
        assert elapsed < 1.0


class TestFigure2Sweep:
    def test_analytic_columns(self):
        table = figure2_sweep(FIG2)
        assert tuple(table.columns) == ("t", "N", "P_analytic", "P_mc", "P_mc_stderr")
        assert len(table) == 4 * 20
        assert table["P_mc"] == table["P_mc_stderr"] == [None] * 80

    def test_curves_ordered_by_total_time(self):
        table = figure2_sweep(FIG2)
        by_time = {t: [r[2] for r in table.rows if r[0] == t] for t in (20.0, 25.0, 30.0, 35.0)}
        for n_index in range(20):
            assert by_time[20.0][n_index] > by_time[25.0][n_index] \
                > by_time[30.0][n_index] > by_time[35.0][n_index]

    def test_each_curve_monotone(self):
        table = figure2_sweep(FIG2)
        for t in (20.0, 25.0, 30.0, 35.0):
            curve = [r[2] for r in table.rows if r[0] == t]
            assert all(curve[i + 1] >= curve[i] for i in range(len(curve) - 1))

    def test_first_point_is_step_probability(self):
        table = figure2_sweep(FIG2)
        for t in (20.0, 25.0, 30.0, 35.0):
            first = [r for r in table.rows if r[0] == t and r[1] == 1][0]
            assert first[2] == pytest.approx(selective_step_probability(FIG2, t), abs=1e-15)

    def test_mc_columns_filled(self):
        table = figure2_sweep(FIG2, times=(20.0,), n_max=2, trajectories=2000, base_seed=3)
        assert None not in table["P_mc"] + table["P_mc_stderr"]


class TestFigure3Surface:
    def test_monotone_in_measurements_at_fixed_time(self):
        table = figure3_surface(FIG3, np.linspace(50.0, 800.0, 16), range(1, 17))
        for t in set(r[0] for r in table.rows):
            curve = [r[2] for r in table.rows if r[0] == t]
            assert all(curve[i + 1] >= curve[i] for i in range(len(curve) - 1))

    def test_nonincreasing_in_time_at_fixed_n(self):
        table = figure3_surface(FIG3, np.linspace(50.0, 800.0, 16), range(1, 17))
        for n in range(1, 17):
            curve = [r[2] for r in table.rows if r[1] == n]
            assert all(curve[i + 1] <= curve[i] for i in range(len(curve) - 1))

    def test_spot_values(self):
        table = figure3_surface(FIG3, [400.0], [1, 16])
        assert table["abs01"] == pytest.approx([ABS01_N1, ABS01_N16], abs=1e-12)

    @pytest.mark.parametrize("t1", [1000.0, 0.001, math.inf],
                             ids=["envelope", "envelope_underflows", "no_relaxation"])
    def test_columns_are_the_pointwise_functions_bit_for_bit(self, t1):
        # T1 = 1 ps: exp(-t/(2 T1)) underflows to 0 from t = 1.5 ns on, where
        # coherence_ratio falls back to exp(-t^2/(N T2^2))
        params = DecoherenceParams.from_times(t1, 400.0)
        t_values, n_values = [0.0, 1.0, 50.0, 400.0, 800.0], range(1, 6)
        table = figure3_surface(params, t_values, n_values)
        grid = list(itertools.product(t_values, n_values))
        assert len(table) == len(grid)
        assert ([x.hex() for x in table["abs01"]]
                == [nonselective_coherence(params, t, n).hex() for t, n in grid])
        assert ([x.hex() for x in table["ratio"]]
                == [coherence_ratio(params, t, n).hex() for t, n in grid])
        if t1 == 0.001:
            assert [r for (t, _), r in zip(grid, table["ratio"]) if t >= 50.0] == [
                math.exp(-(params.gamma2 * t) ** 2 / n) for t, n in grid if t >= 50.0]
