import math

import numpy as np
import pytest

from zenosim.cli import main, run_experiment
from zenosim.config import DEFAULT_BASE_SEED, ConfigError, parse_config
from zenosim.tables import read_csv


class TestParseConfig:
    def test_figure2_defaults(self):
        config = parse_config("experiment=figure2\n")
        assert config.experiment == "figure2"
        assert config["t1"] == 1000.0
        assert config["t2"] == 20.0
        assert config["times"] == (20.0, 25.0, 30.0, 35.0)
        assert config["n_max"] == 20
        assert config["engine"] == "analytic"
        assert config["base_seed"] == DEFAULT_BASE_SEED

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
        assert config["n_max"] == 7

    def test_comments_and_blank_lines_ignored(self):
        config = parse_config("# full line\n\nexperiment=figure2  # trailing\n")
        assert config.experiment == "figure2"

    def test_infinite_times_accepted(self):
        config = parse_config("experiment=decay_curve\nt1=inf\nt2=inf\n")
        assert math.isinf(config["t1"]) and math.isinf(config["t2"])

    def test_times_list_parsed(self):
        config = parse_config("experiment=figure2\ntimes=10,15\n")
        assert config["times"] == (10.0, 15.0)

    def test_figure3_reversed_time_range_names_both_keys(self):
        with pytest.raises(ConfigError, match="t_min.*t_max"):
            parse_config("experiment=figure3\nt_min=800\nt_max=50\n")
        assert parse_config("experiment=figure3\nt_min=50\nt_max=50\n")["t_min"] == 50.0

    def test_crossover_derived_defaults(self):
        config = parse_config("experiment=crossover_scan\ntau_c=2.0\n")
        assert config["t_end"] == 80.0
        assert config["dt"] == pytest.approx(0.02)


class TestRunExperiment:
    def test_decay_curve_without_decay_keeps_fidelity_one(self, tmp_path):
        config = parse_config("experiment=decay_curve\nt1=inf\nt2=inf\nt_end=50\n")
        paths = run_experiment(config, out_dir=tmp_path)
        table = read_csv(paths["csv"])
        assert table.columns == ("t", "p00", "p11", "re01", "im01", "abs01", "fidelity")
        fidelity = np.array(table.column("fidelity"))
        assert np.max(np.abs(fidelity - 1.0)) <= 1e-12

    def test_decay_curve_matches_closed_form(self, tmp_path):
        config = parse_config("experiment=decay_curve\nt1=1000\nt2=20\nt_end=40\nepsilon=0\n")
        table = read_csv(run_experiment(config, out_dir=tmp_path)["csv"])
        ts = np.array(table.column("t"))
        abs01 = np.array(table.column("abs01"))
        expected = 0.5 * np.exp(-0.5 * ts / 1000.0 - (ts / 20.0) ** 2)
        assert np.max(np.abs(abs01 - expected)) <= 1e-8

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
            ratios[t1] = table.column("ratio")
        for a, b in zip(ratios["200"], ratios["inf"]):
            assert abs(a - b) <= 1e-12

    def test_seed_override_changes_mc_output(self, tmp_path):
        text = "experiment=mc_validate\ntimes=20\nn_max=2\ntrajectories=2000\n"
        first = read_csv(run_experiment(parse_config(text), out_dir=tmp_path / "a",
                                        seed=1)["csv"])
        second = read_csv(run_experiment(parse_config(text), out_dir=tmp_path / "b",
                                         seed=2)["csv"])
        assert first.column("P_mc") != second.column("P_mc")

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
        assert table.columns == ("t", "abs01", "stderr")


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
