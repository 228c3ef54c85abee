"""Acceptance suite: one test per release criterion.

Every test prints a single pass/fail line (visible with ``pytest -s`` or on
failure) and asserts the criterion at its stated tolerance, including the
runtime budget where one applies.  Monte Carlo criteria run at fixed seeds,
so the whole suite is deterministic.
"""

import math
import time

import numpy as np
import pytest

from zenosim.cli import run_experiment
from zenosim.config import parse_config
from zenosim.lindblad import DecoherenceParams, integrate
from zenosim.noise import NoiseModel, ensemble_average
from zenosim.qubit import plus_state
from zenosim.zeno import (EngineKind, NoiseReset, ProtocolConfig, ProtocolKind,
                          coherence_ratio, figure2_sweep, figure3_surface,
                          pn_analytic, selective_run_mc)

from oracles import closed_form_rho_rotating

FIG2 = DecoherenceParams.from_times(1000.0, 20.0)
FIG3 = DecoherenceParams.from_times(1000.0, 400.0)

# exact scalar evaluations of the analytic formulas (frozen oracle values)
P_SPOTS_T20 = {1: 0.6821094897857617, 4: 0.8799520410662889, 10: 0.9466283139369741}
ABS01_SPOTS_T400 = {1: 0.15059710595610107, 16: 0.38456318218428526}

SEED = 20260809


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def ou_ensemble():
    """One shared Ornstein-Uhlenbeck ensemble for the decay-law criteria.

    Fine sampling (tau_c/100) below tau_c/10 resolves the quadratic regime;
    tau_c/10 spacing covers the exponential regime out to 40 tau_c.
    """
    coupling, tau_c = 0.1, 1.0
    fine_step, fine_end, coarse_step = tau_c / 100.0, tau_c / 10.0, tau_c / 10.0
    t_end = 40.0 * tau_c
    grid = np.concatenate([
        fine_step * np.arange(0, int(round(fine_end / fine_step)) + 1),
        fine_end + coarse_step * np.arange(1, int(round((t_end - fine_end) / coarse_step)) + 1),
    ])
    model = NoiseModel.ornstein_uhlenbeck(coupling, tau_c)
    start = time.perf_counter()
    result = ensemble_average(plus_state(), model, grid, 100_000, SEED)
    elapsed = time.perf_counter() - start
    return {"coupling": coupling, "tau_c": tau_c, "grid": grid,
            "normalised": 2.0 * np.abs(result.rho01), "elapsed": elapsed}


def test_criterion_1_integrator_matches_closed_form():
    start = time.perf_counter()
    worst = 0.0
    for params in (FIG2, FIG3):
        t_end = 5.0 * params.t2
        dt = min(params.t1, params.t2) / 200.0
        result = integrate(plus_state().density(), params, t_end, dt)
        for i, t in enumerate(result.times):
            reference = closed_form_rho_rotating(params, float(t)).matrix
            state = (result.p00[i], result.p11[i], result.rho01[i], np.conj(result.rho01[i]))
            entries = (reference[0, 0], reference[1, 1], reference[0, 1], reference[1, 0])
            worst = max(worst, max(abs(a - b) for a, b in zip(state, entries)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 5.0
    _report(1, ok, f"integrator vs closed form, max |diff| = {worst:.3e} "
                   f"(tol 1e-8), runtime {elapsed:.2f}s (< 5s)")


def test_criterion_2_quasi_static_gaussian_decay():
    gamma2 = FIG2.gamma2
    model = NoiseModel.quasi_static(gamma2 / math.sqrt(2.0))
    grid = np.linspace(2.0, 40.0, 20)
    start = time.perf_counter()
    result = ensemble_average(plus_state(), model, grid, 100_000, SEED)
    elapsed = time.perf_counter() - start
    coherence = np.abs(result.rho01)
    stderr = result.stderr
    expected = 0.5 * np.exp(-((gamma2 * grid) ** 2))
    sigmas = np.abs(coherence - expected) / stderr
    worst = float(np.max(sigmas))
    ok = worst <= 3.0 and elapsed < 30.0
    _report(2, ok, f"quasi-static ensemble vs 0.5 exp(-(gamma2 t)^2) at 20 points, "
                   f"max deviation {worst:.2f} stderr (<= 3), runtime {elapsed:.2f}s (< 30s)")


def test_criterion_3_exponential_decay_slope(ou_ensemble):
    coupling, tau_c = ou_ensemble["coupling"], ou_ensemble["tau_c"]
    grid, normalised = ou_ensemble["grid"], ou_ensemble["normalised"]
    mask = grid >= 20.0 * tau_c
    slope = float(np.polyfit(grid[mask], np.log(normalised[mask]), 1)[0])
    expected = -4.0 * coupling ** 2 * tau_c
    rel_err = abs(slope / expected - 1.0)
    elapsed = ou_ensemble["elapsed"]
    ok = rel_err <= 0.05 and elapsed < 60.0
    _report(3, ok, f"log-coherence slope {slope:.5f} vs {expected:.5f} per ns "
                   f"({rel_err * 100:.2f}% error, tol 5%), ensemble runtime "
                   f"{elapsed:.2f}s (< 60s)")


def test_criterion_4_crossover_exponents(ou_ensemble):
    tau_c = ou_ensemble["tau_c"]
    grid, normalised = ou_ensemble["grid"], ou_ensemble["normalised"]

    def local_exponent(mask):
        deficit = -np.log(normalised[mask])
        return float(np.polyfit(np.log(grid[mask]), np.log(deficit), 1)[0])

    short = local_exponent((grid > 0.0) & (grid <= tau_c / 10.0))
    long_ = local_exponent(grid >= 20.0 * tau_c)
    ok = abs(short - 2.0) <= 0.1 and abs(long_ - 1.0) <= 0.1
    _report(4, ok, f"local decay exponents: {short:.3f} for t <= tau_c/10 "
                   f"(2.0 +- 0.1) and {long_:.3f} for t >= 20 tau_c (1.0 +- 0.1)")


def test_criterion_5_success_probability_sweep():
    start = time.perf_counter()
    table = figure2_sweep(FIG2)
    elapsed = time.perf_counter() - start
    times = (20.0, 25.0, 30.0, 35.0)
    curves = {t: [row[2] for row in table.rows if row[0] == t] for t in times}
    monotone = all(all(c[i + 1] >= c[i] for i in range(len(c) - 1))
                   for c in curves.values())
    ordered = all(curves[20.0][i] > curves[25.0][i] > curves[30.0][i] > curves[35.0][i]
                  for i in range(20))
    spot_err = max(abs(pn_analytic(FIG2, 20.0, n) - expected)
                   for n, expected in P_SPOTS_T20.items())
    ok = monotone and ordered and spot_err <= 1e-5 and elapsed < 1.0
    _report(5, ok, f"sweep monotone in N: {monotone}, curves ordered by t: {ordered}, "
                   f"spot-value error {spot_err:.2e} (tol 1e-5), runtime "
                   f"{elapsed:.2f}s (< 1s)")


def test_criterion_6_selective_mc_matches_analytic():
    start = time.perf_counter()
    table = figure2_sweep(FIG2, trajectories=100_000, base_seed=SEED,
                          noise_reset=NoiseReset.RESAMPLE_PER_INTERVAL)
    elapsed = time.perf_counter() - start
    worst = max(abs(row[3] - row[2]) / row[4] for row in table.rows)
    ok = worst <= 3.0 and elapsed < 300.0
    _report(6, ok, f"selective MC vs analytic over {len(table.rows)} grid points "
                   f"(M=1e5): max deviation {worst:.2f} stderr (<= 3), runtime "
                   f"{elapsed:.1f}s (< 300s)")


def test_criterion_7_nonselective_surface():
    start = time.perf_counter()
    t_grid = np.linspace(50.0, 800.0, 16)
    table = figure3_surface(FIG3, t_grid, range(1, 17))
    elapsed = time.perf_counter() - start
    spot_err = max(abs(row[2] - ABS01_SPOTS_T400[row[1]])
                   for row in table.rows if row[0] == 400.0 and row[1] in ABS01_SPOTS_T400)
    monotone = True
    for t in t_grid:
        curve = [row[2] for row in table.rows if row[0] == float(t)]
        monotone &= all(curve[i + 1] >= curve[i] for i in range(len(curve) - 1))
    ok = spot_err <= 1e-5 and monotone and elapsed < 1.0
    _report(7, ok, f"coherence surface: spot-value error {spot_err:.2e} (tol 1e-5), "
                   f"monotone in N at every t: {monotone}, runtime {elapsed:.2f}s (< 1s)")


def test_criterion_8_ratio_t1_independent():
    t, t2 = 400.0, 400.0
    worst_spread = 0.0
    worst_formula = 0.0
    for n in (1, 2, 4, 8, 16):
        values = [coherence_ratio(DecoherenceParams.from_times(t1, t2), t, n)
                  for t1 in (200.0, 1000.0, math.inf)]
        worst_spread = max(worst_spread, max(values) - min(values))
        expected = math.exp(-(t ** 2) / (n * t2 ** 2))
        worst_formula = max(worst_formula, max(abs(v - expected) for v in values))
    ok = worst_spread <= 1e-12 and worst_formula <= 1e-12
    _report(8, ok, f"coherence ratio: T1 spread {worst_spread:.2e} across "
                   f"{{200, 1000, inf}} ns and formula error {worst_formula:.2e} "
                   f"(both <= 1e-12)")


def test_criterion_9_exponential_dephasing_is_measurement_insensitive():
    # short-correlation (exponential-decay) dephasing: splitting the run into
    # more intervals leaves the all-success probability unchanged
    tau_c, t = 0.2, 40.0
    coupling = math.sqrt(0.12 / (4.0 * tau_c * t))  # total decay exponent 0.12
    noise = NoiseModel.ornstein_uhlenbeck(coupling, tau_c)
    free = DecoherenceParams(0.0, 0.0)
    start = time.perf_counter()
    estimates = []
    for n in range(1, 21):
        config = ProtocolConfig(t, n, ProtocolKind.SELECTIVE, EngineKind.MONTE_CARLO,
                                50_000, SEED)
        estimates.append(selective_run_mc(free, config, noise,
                                          context=(n,)).success_probability)
    elapsed = time.perf_counter() - start
    spread = (max(estimates) - min(estimates)) / float(np.mean(estimates))
    ok = spread < 0.02
    _report(9, ok, f"P(N) over N in 1..20 at tau_c << tau: relative spread "
                   f"{spread * 100:.2f}% (< 2%), runtime {elapsed:.1f}s")


def test_criterion_10_deterministic_artifacts(tmp_path):
    text = ("experiment=figure2\nengine=mc\ntimes=20,30\nn_max=5\n"
            "trajectories=5000\nbase_seed=2718\n")
    first = run_experiment(parse_config(text), out_dir=tmp_path / "first")
    second = run_experiment(parse_config(text), out_dir=tmp_path / "second")
    identical = (first["csv"].read_bytes() == second["csv"].read_bytes()
                 and first["summary"].read_bytes() == second["summary"].read_bytes())
    _report(10, identical, "repeated Monte Carlo run with equal base_seed produced "
                           "byte-identical CSV and summary")
