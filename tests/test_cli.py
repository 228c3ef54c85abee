import math
import os
import re
import subprocess
import sys
import tempfile
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import zenosim
from zenosim import cli, config as config_module
from zenosim.cli import main, run_experiment
from zenosim.config import DEFAULT_BASE_SEED, ConfigError, parse_config
from zenosim.lindblad import DecoherenceParams, IntegrationResult, integrate
from zenosim.qubit import DensityMatrix, SystemHamiltonian, dynamical_fidelity, plus_state

from csv_reader import read_csv


class TestParseConfig:
    def test_figure2_defaults(self):
        config = parse_config("experiment=figure2\n")
        assert config.experiment == "figure2"
        assert config.settings["t1"] == 1000.0
        assert config.settings["t2"] == 20.0
        assert config.settings["times"] == (20.0, 25.0, 30.0, 35.0)
        assert config.settings["n_max"] == 20
        assert config.settings["engine"] == "analytic"
        assert config.settings["base_seed"] == DEFAULT_BASE_SEED

    def test_negative_time_names_key(self):
        with pytest.raises(ConfigError, match="t_end"):
            parse_config("experiment=decay_curve\nt_end=-5\n")

    def test_error_carries_line_number(self):
        with pytest.raises(ConfigError, match="line 3"):
            parse_config("experiment=decay_curve\n# comment\nt_end=-5\n")

    def test_unknown_key_rejected_by_name(self):
        with pytest.raises(ConfigError, match="t_foo"):
            parse_config("experiment=decay_curve\nt_foo=3\n")

    def test_malformed_line(self):
        with pytest.raises(ConfigError, match="key=value"):
            parse_config("experiment=decay_curve\njust words\n")

    def test_type_mismatch_reports_line(self):
        with pytest.raises(ConfigError, match="line 2.*t1"):
            parse_config("experiment=decay_curve\nt1=abc\n")

    def test_unknown_experiment(self):
        with pytest.raises(ConfigError, match="unknown experiment"):
            parse_config("experiment=fourier\n")

    def test_missing_experiment(self):
        with pytest.raises(ConfigError, match="experiment"):
            parse_config("t1=100\n")

    def test_duplicate_key_last_wins_with_warning(self):
        with pytest.warns(UserWarning, match="duplicate"):
            config = parse_config("experiment=figure2\nn_max=5\nn_max=7\n")
        assert config.settings["n_max"] == 7

    def test_comments_and_blank_lines_ignored(self):
        config = parse_config("# full line\n\nexperiment=figure2  # trailing\n")
        assert config.experiment == "figure2"

    def test_infinite_times_accepted(self):
        config = parse_config("experiment=decay_curve\nt1=inf\nt2=inf\n")
        assert math.isinf(config.settings["t1"]) and math.isinf(config.settings["t2"])

    def test_times_list_parsed(self):
        config = parse_config("experiment=figure2\ntimes=10,15\n")
        assert config.settings["times"] == (10.0, 15.0)

    def test_figure3_reversed_time_range_names_both_keys(self):
        with pytest.raises(ConfigError, match="t_min.*t_max"):
            parse_config("experiment=figure3\nt_min=800\nt_max=50\n")
        assert parse_config("experiment=figure3\nt_min=50\nt_max=50\n").settings["t_min"] == 50.0

    def test_crossover_derived_defaults(self):
        # coupling = 0.05 keeps the coherence at t_end = 80 above the noise floor
        config = parse_config("experiment=crossover_scan\ntau_c=2.0\ncoupling=0.05\n")
        assert config.settings["t_end"] == 80.0
        assert config.settings["dt"] == pytest.approx(0.02)


class TestRunExperiment:
    def test_decay_curve_without_decay_keeps_fidelity_one(self, tmp_path):
        config = parse_config("experiment=decay_curve\nt1=inf\nt2=inf\nt_end=50\n")
        paths = run_experiment(config, out_dir=tmp_path)
        table = read_csv(paths["csv"])
        assert tuple(table.columns) == ("t", "p00", "p11", "re01", "im01", "abs01", "fidelity")
        fidelity = np.array(table["fidelity"])
        assert np.max(np.abs(fidelity - 1.0)) <= 1e-12

    def test_decay_curve_matches_closed_form(self, tmp_path):
        config = parse_config("experiment=decay_curve\nt1=1000\nt2=20\nt_end=40\nepsilon=0\n")
        table = read_csv(run_experiment(config, out_dir=tmp_path)["csv"])
        ts = np.array(table["t"])
        abs01 = np.array(table["abs01"])
        expected = 0.5 * np.exp(-0.5 * ts / 1000.0 - (ts / 20.0) ** 2)
        assert np.max(np.abs(abs01 - expected)) <= 1e-8

    def test_decay_curve_rows_match_per_row_states(self, tmp_path):
        # delta = 0.05 is nonzero but under the 10% sigma_x warning
        config = parse_config("experiment=decay_curve\nepsilon=1\ndelta=0.05\n")
        table = read_csv(run_experiment(config, out_dir=tmp_path)["csv"])
        hs = SystemHamiltonian(1.0, 0.05)
        params = DecoherenceParams.from_times(1000.0, 20.0, hs)
        result = integrate(plus_state().density(), params, config.settings["t_end"],
                           config.settings["dt"])
        assert len(table) == len(result.times)
        for row, t, state in zip(table.rows, result.times, result.states):
            u = hs.evolution(float(t)).matrix
            lab = DensityMatrix(u @ state @ u.conj().T)
            m = lab.matrix
            expected = (float(t), m[0, 0].real, m[1, 1].real, m[0, 1].real, m[0, 1].imag,
                        abs(m[0, 1]), dynamical_fidelity(lab, plus_state(), hs, float(t)))
            assert max(abs(a - b) for a, b in zip(row, expected)) <= 1e-14

    def test_decay_curve_rejects_unphysical_lab_state(self, tmp_path, monkeypatch):
        def broken(rho0, params, t_end, dt):
            states = np.array([rho0.matrix, [[0.5, 0.75], [0.75, 0.5]]], dtype=complex)
            return IntegrationResult(np.array([0.0, 0.5]), states)

        monkeypatch.setattr(cli, "integrate", broken)
        with pytest.raises(ValueError, match=r"lab-frame state at t = 0\.5: negative eigenvalue"):
            run_experiment(parse_config("experiment=decay_curve\n"), out_dir=tmp_path)

    def test_figure2_curves_monotone(self, tmp_path):
        config = parse_config("experiment=figure2\n")
        table = read_csv(run_experiment(config, out_dir=tmp_path)["csv"])
        for t in (20.0, 25.0, 30.0, 35.0):
            curve = [row[2] for row in table.rows if row[0] == t]
            assert len(curve) == 20
            assert all(curve[i + 1] >= curve[i] for i in range(len(curve) - 1))

    def test_figure2_analytic_leaves_mc_columns_empty(self, tmp_path):
        config = parse_config("experiment=figure2\nn_max=3\n")
        table = read_csv(run_experiment(config, out_dir=tmp_path)["csv"])
        assert all(row[3] is None and row[4] is None for row in table.rows)

    def test_mc_validate_within_three_sigma(self, tmp_path):
        text = ("experiment=mc_validate\ntimes=20,35\nn_max=4\n"
                "trajectories=20000\nbase_seed=99\n")
        paths = run_experiment(parse_config(text), out_dir=tmp_path)
        summary = paths["summary"].read_text()
        assert "all within 3 stderr: yes" in summary
        table = read_csv(paths["csv"])
        for _, _, analytic, p_mc, stderr in table.rows:
            assert abs(p_mc - analytic) <= 3.0 * stderr

    def test_ratio_plot_t1_invariance(self, tmp_path):
        ratios = {}
        for t1 in ("200", "1000", "inf"):
            config = parse_config(f"experiment=ratio_plot\nt1={t1}\nt2=400\nt=400\nn_max=8\n")
            table = read_csv(run_experiment(config, out_dir=tmp_path / t1)["csv"])
            ratios[t1] = table["ratio"]
        for a, b in zip(ratios["200"], ratios["inf"]):
            assert abs(a - b) <= 1e-12

    def test_seed_override_changes_mc_output(self, tmp_path):
        text = "experiment=mc_validate\ntimes=20\nn_max=2\ntrajectories=2000\n"
        first = read_csv(run_experiment(parse_config(text), out_dir=tmp_path / "a",
                                        seed=1)["csv"])
        second = read_csv(run_experiment(parse_config(text), out_dir=tmp_path / "b",
                                         seed=2)["csv"])
        assert first["P_mc"] != second["P_mc"]

    def test_repeat_runs_are_byte_identical(self, tmp_path):
        text = ("experiment=mc_validate\ntimes=25\nn_max=3\n"
                "trajectories=5000\nbase_seed=42\n")
        first = run_experiment(parse_config(text), out_dir=tmp_path / "a")
        second = run_experiment(parse_config(text), out_dir=tmp_path / "b")
        assert first["csv"].read_bytes() == second["csv"].read_bytes()
        assert first["summary"].read_bytes() == second["summary"].read_bytes()

    def test_crossover_scan_writes_summary(self, tmp_path):
        text = "experiment=crossover_scan\ntrajectories=2000\nt_end=10\n"
        paths = run_experiment(parse_config(text), out_dir=tmp_path)
        summary = paths["summary"].read_text()
        assert "long-time log-coherence slope" in summary
        table = read_csv(paths["csv"])
        assert tuple(table.columns) == ("t", "abs01", "stderr")

    @pytest.mark.parametrize("text,t_end", [
        ("tau_c=0.3\n", 12.0),     # (12 - 0.03)/0.03 = 399.00000000000006 took a 400th step
        ("tau_c=0.7\n", 28.0),
        ("t_end=0.05\n", 0.05),    # t_end < tau_c/10: the fine grid ran on to 0.1
        ("dt=0.06\n", 40.0),       # dt does not divide tau_c/10: the grid keeps 0.1
        ("t_end=0.15\ndt=0.06\n", 0.15),    # t_end is not a whole coarse step past 0.1
    ], ids=["tau_c_0.3", "tau_c_0.7", "t_end_0.05", "dt_0.06", "t_end_0.15_dt_0.06"])
    def test_crossover_grid_stops_at_t_end(self, tmp_path, text, t_end):
        config = parse_config("experiment=crossover_scan\ntrajectories=100\n" + text)
        t = read_csv(run_experiment(config, out_dir=tmp_path)["csv"])["t"]
        assert t[-1] == pytest.approx(t_end, rel=1e-12)
        assert max(t) <= t_end * (1.0 + 1e-12)
        assert all(b > a for a, b in zip(t, t[1:]))
        tau_c = config.settings["tau_c"]
        assert max(b - a for a, b in zip(t, t[1:])) <= 0.1 * tau_c * (1.0 + 1e-12)

    def test_crossover_long_fit_keeps_two_points(self, tmp_path):
        # t_end/2 = 0.010000000000000002 rounds above the grid point 0.01, which left
        # the t >= t_end/2 fit one point and polyfit a RankWarning
        config = parse_config("experiment=crossover_scan\ntrajectories=100\n"
                              "t_end=0.020000000000000004\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            summary = run_experiment(config, out_dir=tmp_path)["summary"].read_text()
        assert "long-time log-coherence slope for t >= t_end/2 = 0.01 ns: " in summary


class TestSharedRunners:
    """ratio_plot and mc_validate are figure3 and figure2 with their own summaries."""

    def test_every_experiment_has_a_runner(self):
        assert set(cli._RUNNERS) == set(config_module.SCHEMAS)

    @pytest.mark.parametrize("t,keys", [(400.0, ""), (123.456, "t1=inf\nn_max=7\n"),
                                        (400.0, "t1=0.001\n")],
                             ids=["defaults", "custom", "vanishing_envelope"])
    def test_ratio_plot_is_figure3_at_one_t(self, tmp_path, t, keys):
        ratio = parse_config(f"experiment=ratio_plot\nt={t!r}\n" + keys)
        surface = parse_config(f"experiment=figure3\nt_min={t!r}\nt_max={t!r}\nt_points=1\n"
                               + keys)
        a = run_experiment(ratio, out_dir=tmp_path / "ratio")["csv"].read_bytes()
        b = run_experiment(surface, out_dir=tmp_path / "surface")["csv"].read_bytes()
        assert a == b

    @pytest.mark.parametrize("reset", ["resample", "persistent"])
    def test_mc_validate_is_figure2_mc(self, tmp_path, reset):
        keys = (f"times=20,35\nn_max=4\ntrajectories=2000\nbase_seed=7\n"
                f"noise_reset={reset}\n")
        validate = parse_config("experiment=mc_validate\n" + keys)
        sweep = parse_config("experiment=figure2\nengine=mc\n" + keys)
        a = run_experiment(validate, out_dir=tmp_path / "validate")["csv"].read_bytes()
        b = run_experiment(sweep, out_dir=tmp_path / "sweep")["csv"].read_bytes()
        assert a == b


class TestMainEntry:
    def test_validate_ok(self, tmp_path, capsys):
        path = tmp_path / "config.txt"
        path.write_text("experiment=figure2\n")
        assert main(["validate", str(path)]) == 0
        assert "ok: figure2" in capsys.readouterr().out

    def test_bad_config_exit_code(self, tmp_path, capsys):
        path = tmp_path / "config.txt"
        path.write_text("experiment=figure2\nbogus=1\n")
        assert main(["validate", str(path)]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["run", "/nonexistent/config.txt"]) == 1

    def test_negative_seed_rejected(self, tmp_path, capsys):
        path = tmp_path / "config.txt"
        path.write_text("experiment=figure3\nn_max=2\nt_points=2\n")
        assert main(["run", str(path), "--seed", "-3",
                     "--out", str(tmp_path / "out")]) == 1
        assert "seed" in capsys.readouterr().err

    def test_run_writes_artifacts(self, tmp_path, capsys):
        path = tmp_path / "config.txt"
        path.write_text("experiment=figure3\nn_max=4\nt_points=4\n")
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 0
        assert (out / "figure3.csv").exists()
        assert (out / "summary.txt").exists()

    @pytest.mark.parametrize("experiment", ["figure2\nengine=mc", "mc_validate"],
                             ids=["figure2_mc", "mc_validate"])
    def test_mc_without_decay_channels_exits_zero(self, tmp_path, capsys, experiment):
        # every MC point is exact, so no stderr is nonzero
        path = tmp_path / "config.txt"
        path.write_text(f"experiment={experiment}\nt1=inf\nt2=inf\ntimes=20,30\n"
                        "n_max=3\ntrajectories=1000\n")
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
        summary = (tmp_path / "out" / "summary.txt").read_text()
        assert "max |MC - analytic| in stderr units: n/a (every MC stderr is 0)" in summary
        if experiment == "mc_validate":
            assert "all within 3 stderr: yes" in summary

    def test_validate_rejects_reversed_figure3_range(self, tmp_path, capsys):
        path = tmp_path / "config.txt"
        path.write_text("experiment=figure3\nt_min=800\nt_max=50\n")
        assert main(["validate", str(path)]) == 2
        assert "t_min" in capsys.readouterr().err

    @pytest.mark.parametrize("experiment", ["decay_curve", "crossover_scan", "figure2",
                                            "figure3", "ratio_plot", "mc_validate"])
    def test_validate_accepts_defaults(self, tmp_path, experiment):
        path = tmp_path / "config.txt"
        path.write_text(f"experiment={experiment}\n")
        assert main(["validate", str(path)]) == 0

    @pytest.mark.parametrize("experiment", ["figure2", "figure3", "ratio_plot", "mc_validate"])
    @pytest.mark.parametrize("key", ["epsilon", "delta"])
    def test_validate_takes_hamiltonian_keys_for_decay_curve_only(self, tmp_path, capsys,
                                                                  experiment, key):
        # no output of the protocol experiments depends on the qubit Hamiltonian
        path = tmp_path / "config.txt"
        path.write_text(f"experiment={experiment}\n{key}=0.01\n")
        assert main(["validate", str(path)]) == 2
        assert f"unknown key {key!r}" in capsys.readouterr().err
        path.write_text(f"experiment=decay_curve\n{key}=0.01\n")
        assert main(["validate", str(path)]) == 0

    @pytest.mark.parametrize("text,keys", [
        ("coupling=1e-200\n", ("coupling", "tau_c", "dt")),
        ("tau_c=1e-300\n", ("coupling", "tau_c", "dt")),
        ("coupling=1e152\n", ("coupling", "tau_c", "t_end", "trajectories")),
        ("tau_c=1e150\n", ("coupling", "tau_c", "t_end", "trajectories")),
        ("t_end=200\n", ("coupling", "tau_c", "t_end", "trajectories")),
        ("tau_c=2.0\n", ("coupling", "tau_c", "t_end", "trajectories")),
    ], ids=["coupling_1e-200", "tau_c_1e-300", "coupling_1e152", "tau_c_1e150", "t_end_200",
            "tau_c_2"])
    def test_validate_rejects_unresolvable_crossover_decay(self, tmp_path, capsys, text, keys):
        # -ln coherence under 1e-12 at t = dt drowns in rounding (coupling=1e-200 raised
        # ZeroDivisionError, tau_c=1e-300 failed in the fit); a coherence under
        # 2/sqrt(trajectories) at t_end drowns in Monte Carlo noise (slope off by 20%+)
        path = tmp_path / "config.txt"
        path.write_text("experiment=crossover_scan\n" + text)
        assert main(["validate", str(path)]) == 2
        err = capsys.readouterr().err
        for key in keys:
            assert key in err

    @pytest.mark.parametrize("text", ["trajectories=5000\nt_end=80\n", "coupling=1e-4\n",
                                      "tau_c=0.3\ntrajectories=100\n"],
                             ids=["crossover_scan_long", "weak_coupling", "few_trajectories"])
    def test_validate_accepts_resolvable_crossover_decay(self, tmp_path, text):
        path = tmp_path / "config.txt"
        path.write_text("experiment=crossover_scan\n" + text)
        assert main(["validate", str(path)]) == 0

    def test_mc_sweep_bound_counts_trajectory_intervals(self, monkeypatch):
        # the MC defaults validate under the real bound; a trajectory of the
        # default sweep runs 4 times x n_max(n_max+1)/2 = 4 x 210 intervals
        parse_config("experiment=figure2\nengine=mc\n")
        monkeypatch.setattr(config_module, "MAX_MC_INTERVALS", 1000 * 4 * 210)
        parse_config("experiment=mc_validate\ntrajectories=1000\n")
        with pytest.raises(ConfigError, match="trajectories"):
            parse_config("experiment=mc_validate\ntrajectories=1001\n")
        parse_config("experiment=figure2\ntrajectories=1001\n")      # analytic: no MC work

    def test_validate_rejects_zero_crossover_coupling(self, tmp_path, capsys):
        # the summary's relative slope error divides by 4 coupling^2 tau_c
        path = tmp_path / "config.txt"
        path.write_text("experiment=crossover_scan\ncoupling=0\n")
        assert main(["validate", str(path)]) == 2
        assert "coupling" in capsys.readouterr().err

    def test_validate_rejects_crossover_scan_shorter_than_two_steps(self, tmp_path, capsys):
        # t_end = 0.015 < 2 dt would leave a decay fit a single grid point
        path = tmp_path / "config.txt"
        path.write_text("experiment=crossover_scan\nt_end=0.015\n")
        assert main(["validate", str(path)]) == 2
        err = capsys.readouterr().err
        assert "t_end" in err and "2 dt" in err
        path.write_text("experiment=crossover_scan\nt_end=0.02\n")
        assert main(["validate", str(path)]) == 0

    @pytest.mark.parametrize("dt,accepted", [
        (0.1, False), (0.1 * (1.0 - 1e-12), False), (0.06, True), (None, True),
    ], ids=["tau_c_over_10", "just_below", "two_points", "default"])
    def test_validate_needs_two_short_time_fit_points(self, tmp_path, capsys, dt, accepted):
        # the fit over t <= tau_c/10 = 0.1 needs two grid points; the grid
        # counts dt steps to 1e-9, so a dt within 1e-9 of 0.1 leaves one
        path = tmp_path / "config.txt"
        value = "" if dt is None else f"dt={dt!r}\n"
        path.write_text("experiment=crossover_scan\n" + value)
        assert main(["validate", str(path)]) == (0 if accepted else 2)
        if not accepted:
            err = capsys.readouterr().err
            assert "dt" in err and "tau_c" in err

    def test_table_row_bound_counts_rows(self, monkeypatch):
        # 101 rows for t_end/dt = 100 steps; 4 times x n_max = 20 for figure2
        monkeypatch.setattr(config_module, "MAX_TABLE_ROWS", 101)
        parse_config("experiment=decay_curve\nt_end=10\ndt=0.1\n")
        parse_config("experiment=figure3\nt_points=5\nn_max=20\n")
        monkeypatch.setattr(config_module, "MAX_TABLE_ROWS", 100)
        with pytest.raises(ConfigError, match="t_end/dt"):
            parse_config("experiment=decay_curve\nt_end=10\ndt=0.1\n")
        monkeypatch.setattr(config_module, "MAX_TABLE_ROWS", 80)
        parse_config("experiment=figure2\n")
        parse_config("experiment=ratio_plot\nn_max=80\n")
        with pytest.raises(ConfigError, match="times x n_max"):
            parse_config("experiment=figure2\nn_max=21\n")
        with pytest.raises(ConfigError, match="n_max"):
            parse_config("experiment=ratio_plot\nn_max=81\n")

    @pytest.mark.parametrize("t2,reported", [
        (1.0, "n/a (the N=1 coherence is 0 at every t)"),
        (20.0, "at t=500 ns (over the 10 t values where the N=1 coherence is nonzero)"),
    ])
    def test_figure3_with_vanishing_single_measurement_coherence(self, tmp_path, capsys,
                                                                 t2, reported):
        # exp(-(t/T2)^2) underflows to 0 from t = 27 T2 on: at every t >= 50 ns
        # for T2 = 1 ns, at the 6 largest of 16 t values for T2 = 20 ns
        path = tmp_path / "config.txt"
        path.write_text(f"experiment=figure3\nt2={t2}\n")
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
        summary = (tmp_path / "out" / "summary.txt").read_text()
        assert "max coherence uplift from N=1 to N=16: " in summary
        assert reported in summary

    def test_figure3_counts_equal_t_values_once(self, tmp_path, capsys):
        path = tmp_path / "config.txt"
        path.write_text("experiment=figure3\nt_min=100\nt_max=100\nt_points=3\n")
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
        summary = (tmp_path / "out" / "summary.txt").read_text()
        assert "max coherence uplift from N=1 to N=16: " in summary
        assert summary.endswith(" at t=100 ns\n")

    def test_short_crossover_scan_names_its_fit_window(self, tmp_path, capsys):
        # t_end = 0.05 < 40 tau_c: both tail fits start at t_end/2
        path = tmp_path / "config.txt"
        path.write_text("experiment=crossover_scan\nt_end=0.05\ntrajectories=1000\n")
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
        lines = (tmp_path / "out" / "summary.txt").read_text().splitlines()
        assert lines[-3].startswith("long-time log-coherence slope for t >= t_end/2 = 0.025 ns: ")
        assert lines[-1].startswith("local decay exponent for t >= t_end/2 = 0.025 ns: ")
        assert "20 tau_c" not in "\n".join(lines)

    @pytest.mark.parametrize("experiment", ["figure3", "ratio_plot"])
    def test_vanishing_relaxation_envelope(self, tmp_path, capsys, experiment):
        # with T1 = 1 ps the envelope exp(-t/(2 T1)) underflows to 0; the
        # ratio is still exp(-t^2/(N T2^2))
        path = tmp_path / "config.txt"
        path.write_text(f"experiment={experiment}\nt1=0.001\n")
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
        table = read_csv(tmp_path / "out" / f"{experiment}.csv")
        for t, n, _, ratio in table.rows:
            assert ratio == pytest.approx(math.exp(-(t / 400.0) ** 2 / n), rel=1e-12)

    @pytest.mark.parametrize("text,keys", [
        ("experiment=decay_curve\nt1=0.001\n", ("t_end", "dt", "t1", "t2")),
        ("experiment=decay_curve\ndt=0.0001\n", ("t_end", "dt")),
        ("experiment=crossover_scan\nt_end=400\n", ("t_end", "dt")),
        ("experiment=figure2\nengine=mc\nn_max=3000\ntrajectories=1000\n",
         ("trajectories", "n_max", "times")),
        ("experiment=mc_validate\ntrajectories=1000000000000\n",
         ("trajectories", "n_max", "times")),
        ("experiment=crossover_scan\ntrajectories=1000000000000\n",
         ("trajectories", "t_end", "dt")),
        ("experiment=figure2\nn_max=100000000\n", ("times", "n_max")),
        ("experiment=figure3\nt_points=100000000\n", ("t_points", "n_max")),
        ("experiment=decay_curve\ndt=1.2\n", ("dt", "t1", "t2")),
        ("experiment=crossover_scan\nt_end=1e308\n", ("t_end", "dt")),
        # the lab frame turns by 5e301 rad, which float64 rounds by ~1e286 rad
        ("experiment=decay_curve\nepsilon=1e300\n", ("epsilon", "delta", "t_end")),
    ], ids=["decay_curve_derived_dt", "decay_curve", "crossover_scan", "figure2_mc",
            "mc_validate", "crossover_scan_trajectories", "figure2", "figure3",
            "decay_curve_dt_above_rk4_limit", "crossover_scan_uncountable_grid",
            "decay_curve_lab_phase"])
    def test_validate_rejects_oversized_runs(self, tmp_path, capsys, text, keys):
        path = tmp_path / "config.txt"
        path.write_text(text)
        assert main(["validate", str(path)]) == 2
        err = capsys.readouterr().err
        for key in keys:
            assert key in err

    @pytest.mark.parametrize("text,key", [
        ("experiment=ratio_plot\nt=1e300\n", "t"),
        ("experiment=figure2\ntimes=1e300\n", "times"),
        ("experiment=crossover_scan\ncoupling=1e200\n", "coupling"),
        ("experiment=crossover_scan\ntau_c=1e300\n", "tau_c"),
    ], ids=["ratio_plot_t", "figure2_times", "crossover_scan_coupling", "crossover_scan_tau_c"])
    def test_run_rejects_overflowing_exponents(self, tmp_path, capsys, text, key):
        # (t/t2)^2 and coupling^2 used to raise OverflowError past the CLI; the
        # default t_end = 40 tau_c overflowed the crossover_scan fit
        path = tmp_path / "config.txt"
        path.write_text(text)
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {key} = ")
        assert not (tmp_path / "out").exists()

    def test_golden_figure2(self, tmp_path):
        # regression pin of the analytic sweep artifact
        path = tmp_path / "config.txt"
        path.write_text("experiment=figure2\n")
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
        from pathlib import Path
        golden = Path(__file__).parent / "golden" / "figure2.csv"
        assert (tmp_path / "out" / "figure2.csv").read_bytes() == golden.read_bytes()

    def test_golden_figure3(self, tmp_path):
        path = tmp_path / "config.txt"
        path.write_text("experiment=figure3\n")
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
        from pathlib import Path
        golden = Path(__file__).parent / "golden" / "figure3.csv"
        assert (tmp_path / "out" / "figure3.csv").read_bytes() == golden.read_bytes()


class TestDecayCurveRules:
    @pytest.mark.parametrize("text", ["delta=2\n", "epsilon=0\ndelta=0.01\n",
                                      "epsilon=1\ndelta=-0.2\n"],
                             ids=["delta_2", "epsilon_0", "negative_delta"])
    def test_validate_rejects_sigma_x_beyond_the_dephasing_model(self, tmp_path, capsys, text):
        # the run used to warn "sigma_x part of the Hamiltonian exceeds 10%" and go on
        path = tmp_path / "config.txt"
        path.write_text("experiment=decay_curve\n" + text)
        assert main(["validate", str(path)]) == 2
        err = capsys.readouterr().err
        assert "epsilon" in err and "delta" in err

    def test_delta_at_a_tenth_of_epsilon_runs(self, tmp_path):
        config = parse_config("experiment=decay_curve\nepsilon=2\ndelta=-0.2\nt_end=1\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run_experiment(config, out_dir=tmp_path)

    @pytest.mark.parametrize("dt,accepted", [(0.2, True), (0.2 * (1.0 + 1e-15), False)])
    def test_dt_limit_is_the_integrators(self, dt, accepted):
        # min(t1, t2)/100 = 0.2 at the defaults; validate and integrate share the rule
        text = f"experiment=decay_curve\nt_end=1\ndt={dt!r}\n"
        if accepted:
            config = parse_config(text)
            params = DecoherenceParams.from_times(config.settings["t1"], config.settings["t2"])
            result = integrate(plus_state().density(), params, config.settings["t_end"],
                               config.settings["dt"])
            assert config.plan.rows == len(result.times) == 6
        else:
            with pytest.raises(ConfigError, match=r"dt = .* min\(t1, t2\)/100"):
                parse_config(text)

    def test_row_bound_run_peaks_near_the_default_run(self, tmp_path):
        """A decay_curve at the row bound stays within 50 MiB of the default run's peak RSS.

        The 99,991-row run once peaked 69 MiB above the default run: its seven
        columns became 7e5 Python floats in 1e5 row tuples before the CSV was
        written.  The CSV is now written from the columns a block at a time.
        What is left of the gap, about 38 MiB, is the (G, 2, 2) complex stacks
        of ``lindblad.integrate``, ``propagators`` and ``dynamical_fidelities``.

        Linux carries a process's peak RSS over fork and exec into the child's
        ``ru_maxrss``, so a child of this test process would read at least the
        test process's own peak.  A small launcher starts both runs instead.
        """
        pytest.importorskip("resource")
        (tmp_path / "default.txt").write_text("experiment=decay_curve\n")
        (tmp_path / "bound.txt").write_text("experiment=decay_curve\nt_end=99.99\ndt=0.001\n")
        (tmp_path / "run.py").write_text(textwrap.dedent("""
            import resource, sys
            from zenosim import cli
            assert cli.main(["run", sys.argv[1] + ".txt", "--out", sys.argv[1]]) == 0
            print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
            """))
        launcher = ("import subprocess, sys\n"
                    "for name in ('default', 'bound'):\n"
                    "    subprocess.run([sys.executable, 'run.py', name], check=True)\n")
        proc = subprocess.run([sys.executable, "-c", launcher], cwd=tmp_path,
                              capture_output=True, text=True, timeout=300,
                              env=dict(os.environ,
                                       PYTHONPATH=str(Path(zenosim.__file__).parents[1])))
        assert proc.returncode == 0, proc.stderr
        peaks = dict(zip(("default", "bound"),
                         (int(line) for line in proc.stdout.splitlines() if line.isdigit())))
        # ru_maxrss counts bytes on macOS and KiB elsewhere
        mib = 2 ** 20 if sys.platform == "darwin" else 2 ** 10
        assert (peaks["bound"] - peaks["default"]) / mib <= 50.0, peaks


def _float_text(low, high):
    return st.floats(low, high, allow_nan=False).map(repr)


# small sizes keep every drawn run short: at most a few thousand decay_curve rows,
# 500 crossover grid points of 300 trajectories, and 2 x 4 sweep points
_VALUES = {
    "base_seed": st.integers(0, 2 ** 32).map(str),
    "t1": st.one_of(st.just("inf"), _float_text(0.5, 2000.0)),
    "t2": st.one_of(st.just("inf"), _float_text(0.5, 800.0)),
    "epsilon": st.one_of(st.just("0"), _float_text(-2.0, 2.0)),
    "delta": st.one_of(st.just("0"), _float_text(-0.5, 0.5)),
    "coupling": _float_text(0.01, 0.3),
    "tau_c": _float_text(0.1, 2.0),
    "trajectories": st.integers(1000, 1200).map(str),
    "times": st.lists(_float_text(0.5, 50.0), min_size=1, max_size=2).map(",".join),
    "n_max": st.integers(1, 4).map(str),
    "noise_reset": st.sampled_from(["resample", "persistent"]),
    "engine": st.sampled_from(["analytic", "mc"]),
    "t_min": _float_text(1.0, 800.0),
    "t_max": _float_text(1.0, 800.0),
    "t_points": st.integers(1, 5).map(str),
    "t": _float_text(1.0, 800.0),
}
_EXPERIMENT_VALUES = {
    "decay_curve": {"t_end": _float_text(0.0, 20.0), "dt": _float_text(0.005, 2.0)},
    "crossover_scan": {"t_end": _float_text(0.02, 4.0), "dt": _float_text(0.002, 0.05),
                       "trajectories": st.integers(100, 300).map(str)},
}


# the keys that size a run are always drawn, so no run falls back to a full-size default
_SIZE_KEYS = {"decay_curve": ["t_end"], "crossover_scan": ["trajectories"],
              "figure2": ["times", "n_max", "trajectories"],
              "mc_validate": ["times", "n_max", "trajectories"]}


@st.composite
def _settings(draw, experiment):
    sized = _SIZE_KEYS.get(experiment, [])
    keys = sorted(k for k in config_module.SCHEMAS[experiment] if k not in sized + ["out"])
    strategies = {**_VALUES, **_EXPERIMENT_VALUES.get(experiment, {})}
    chosen = sized + draw(st.lists(st.sampled_from(keys), unique=True))
    return {k: draw(strategies[k]) for k in chosen}


class TestConfigFuzz:
    """Every config either is rejected by a key it sets, or runs as planned."""

    @pytest.mark.parametrize("experiment", sorted(config_module.SCHEMAS))
    @settings(max_examples=150, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_rejected_by_key_or_runs_as_planned(self, experiment, data):
        values = data.draw(_settings(experiment))
        text = f"experiment={experiment}\n" + "".join(f"{k}={v}\n" for k, v in values.items())
        with warnings.catch_warnings(), tempfile.TemporaryDirectory() as out:
            warnings.simplefilter("error")
            try:
                config = parse_config(text)
            except ConfigError as exc:
                assert any(re.search(rf"\b{key}\b", str(exc)) for key in values), (text, exc)
                return
            table = read_csv(run_experiment(config, out_dir=out)["csv"])
        assert all(c is None or math.isfinite(c) for row in table.rows for c in row), text
        assert len(table) == config.plan.rows, text
        if experiment == "crossover_scan":
            assert table["t"] == config.plan.t.tolist(), text
