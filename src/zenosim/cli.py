"""Batch front-end: parse a config, run an experiment, emit CSV + summary.

Usage:
    zenosim run <config-path> [--seed S] [--out DIR]
    zenosim validate <config-path>

Each experiment writes one CSV artifact plus ``summary.txt`` with its
headline numbers.  Identical configs (and seed) produce byte-identical
artifacts; see the config module for the accepted keys.
"""

import argparse
import functools
import sys
from pathlib import Path

import numpy as np

from .config import ConfigError, ExperimentConfig, Plan, parse_config
from .lindblad import integrate
from .noise import NoiseModel, ensemble_average, ou_decay_exponent
from .qubit import SystemHamiltonian, _require, plus_state
from .tables import Table, _cell, write_csv
from .zeno import NoiseReset, figure2_sweep, figure3_surface, pn_persistent


def _run_decay_curve(settings, plan: Plan) -> tuple[Table, list[str]]:
    hs = SystemHamiltonian(settings["epsilon"], settings["delta"])
    result = integrate(plus_state().density(), plan.params, settings["t_end"], settings["dt"])
    times, p00, p11, coh = result.times, result.p00, result.p11, result.rho01
    # interaction-picture trace, Bloch vector and |+> fidelity; exp(-iHt) turns the
    # Bloch vector into the lab frame, and the fidelity undoes that turn
    trace = p00 + p11
    fid = 0.5 * trace + coh.real
    x, y, z = hs.rotate_bloch(times, 2.0 * coh.real, -2.0 * coh.imag, p00 - p11)
    table = Table({"t": times, "p00": 0.5 * (trace + z), "p11": 0.5 * (trace - z),
                   "re01": 0.5 * x, "im01": -0.5 * y, "abs01": 0.5 * np.hypot(x, y),
                   "fidelity": fid})
    summary = [f"final fidelity at t={_cell(settings['t_end'])} ns: {_cell(fid[-1])}"]
    return table, summary


def _max_z(estimate, reference, stderr) -> str:
    """Summary text of max |estimate - reference| / stderr over the points with stderr > 0."""
    estimate, reference, stderr = map(np.asarray, (estimate, reference, stderr))
    keep = stderr > 0.0
    if not keep.any():
        return "n/a (every MC stderr is 0)"
    return _cell(float((np.abs(estimate[keep] - reference[keep]) / stderr[keep]).max()))


def _local_exponent(times: np.ndarray, coherence: np.ndarray, mask: np.ndarray) -> float:
    """Slope of log(-log c) vs log t: the local power of the decay exponent."""
    t = times[mask]
    deficit = -np.log(coherence[mask])
    keep = deficit > 0.0
    return float(np.polyfit(np.log(t[keep]), np.log(deficit[keep]), 1)[0])


def _run_crossover_scan(settings, plan: Plan) -> tuple[Table, list[str]]:
    coupling, tau_c, t_end = settings["coupling"], settings["tau_c"], settings["t_end"]
    grid = plan.t
    model = NoiseModel.ornstein_uhlenbeck(coupling, tau_c)
    ensemble = ensemble_average(plus_state(), model, grid, settings["trajectories"],
                                settings["base_seed"])
    coherence, stderr = np.abs(ensemble.rho01), ensemble.stderr
    table = Table({"t": grid, "abs01": coherence, "stderr": stderr})

    normalised = 2.0 * coherence
    # exponential-regime window; falls back to the tail when the scan is short, and
    # holds the last two grid points also where t_end/2 rounds above the second-last
    long_start = min(20.0 * tau_c, 0.5 * t_end, float(grid[-2]))
    long_mask = grid >= long_start
    slope = float(np.polyfit(grid[long_mask], np.log(normalised[long_mask]), 1)[0])
    expected = -4.0 * coupling ** 2 * tau_c
    short_exp = _local_exponent(grid, normalised, (grid > 0) & (grid <= tau_c / 10.0))
    long_exp = _local_exponent(grid, normalised, long_mask)
    # a scan shorter than 40 tau_c names the tail window it fitted instead
    slope_window, long_window = "", " for t >= 20 tau_c"
    if long_start < 20.0 * tau_c:
        slope_window = long_window = f" for t >= t_end/2 = {long_start:.6g} ns"
    # the MC against its closed form exp(-G(t))/2, point by point
    later = grid > 0.0
    closed = 0.5 * np.exp(-ou_decay_exponent(coupling, tau_c, grid[later]))
    z_max = _max_z(coherence[later], closed, stderr[later])
    summary = [
        f"max |MC - exp(-G(t))/2| over t > 0 in stderr units: {z_max} "
        "(G(t) = 4 coupling^2 tau_c^2 (t/tau_c - 1 + exp(-t/tau_c)))",
        f"long-time log-coherence slope{slope_window}: {_cell(slope)} per ns "
        f"(theory {_cell(expected)}, relative error {_cell(abs(slope / expected - 1.0))})",
        f"local decay exponent for t <= tau_c/10: {_cell(short_exp)} (quadratic regime -> 2)",
        f"local decay exponent{long_window}: {_cell(long_exp)} (exponential regime -> 1)",
    ]
    return table, summary


def _mc_z(settings, plan: Plan, table: Table) -> str:
    """``_max_z`` of P_mc against the analytic P_N of each MC row.

    Resampled noise: the row's P_analytic.  Persistent noise: E[q(f0)^N] of
    ``zeno.pn_persistent``, which the CSV does not carry.
    """
    if settings["noise_reset"] == "resample":
        references = table["P_analytic"]
    else:
        references = [pn_persistent(plan.params, t, n) for t, n in zip(table["t"], table["N"])]
    return _max_z(table["P_mc"], references, table["P_mc_stderr"])


def _run_figure2(settings, plan: Plan) -> tuple[Table, list[str]]:
    mc, n_max = plan.mc_work > 0, settings["n_max"]
    table = figure2_sweep(plan.params, plan.t, n_max,
                          trajectories=settings["trajectories"] if mc else None,
                          base_seed=settings["base_seed"] if mc else None,
                          noise_reset=NoiseReset(settings["noise_reset"]))
    # rows run over N = 1..n_max within each t, t in grid order
    summary = [f"P(N={n_max}) at t={_cell(float(t))} ns: {_cell(p)}"
               for t, p in zip(plan.t, table["P_analytic"][n_max - 1::n_max])]
    if mc:
        status = ("consistency check" if settings["noise_reset"] == "resample"
                  else "consistency check against E[q(f0)^N] for persistent noise; "
                  "P_analytic is the resample closed form")
        z_max = _mc_z(settings, plan, table)
        summary.append(f"max |MC - analytic| in stderr units: {z_max} ({status})")
    return table, summary


def _figure3_table(settings, plan: Plan) -> Table:
    return figure3_surface(plan.params, plan.t, range(1, settings["n_max"] + 1))


def _run_figure3(settings, plan: Plan) -> tuple[Table, list[str]]:
    table = _figure3_table(settings, plan)
    # rows run over N within each t, t in grid order; an N=1 coherence that
    # underflowed has no uplift
    t_grid, abs01, n = plan.t, table["abs01"], settings["n_max"]
    uplifts = {t: last / first for t, first, last
               in zip(t_grid.tolist(), abs01[::n], abs01[n - 1::n]) if first > 0.0}
    if uplifts:
        best_t = max(uplifts, key=uplifts.get)
        uplift = f"{_cell(uplifts[best_t])} at t={_cell(best_t)} ns"
        if len(uplifts) < len(set(t_grid.tolist())):        # equal t values share a key
            uplift += f" (over the {len(uplifts)} t values where the N=1 coherence is nonzero)"
    else:
        uplift = "n/a (the N=1 coherence is 0 at every t)"
    summary = [f"max coherence uplift from N=1 to N={settings['n_max']}: {uplift}"]
    return table, summary


def _run_ratio_plot(settings, plan: Plan) -> tuple[Table, list[str]]:
    t = settings["t"]
    table = _figure3_table(settings, plan)
    summary = [f"ratio at N={settings['n_max']}, t={_cell(t)} ns: {_cell(table['ratio'][-1])} "
               f"(measurement-suppressed dephasing only; relaxation cancels)"]
    return table, summary


_RUNNERS = {
    "decay_curve": _run_decay_curve,
    "crossover_scan": _run_crossover_scan,
    "figure2": _run_figure2,
    "figure3": _run_figure3,
    "ratio_plot": _run_ratio_plot,
}


def run_experiment(config: ExperimentConfig, out_dir=None, seed: int | None = None) -> dict:
    """Run one experiment; returns {'csv': path, 'summary': path}."""
    settings = dict(config.settings)
    if seed is not None:
        settings["base_seed"] = int(_require("seed", seed, 0))
    out = Path(out_dir if out_dir is not None else settings.get("out", "out"))
    out.mkdir(parents=True, exist_ok=True)

    table, summary_lines = _RUNNERS[config.experiment](settings, config.plan)

    csv_path = out / f"{config.experiment}.csv"
    write_csv(table, csv_path)
    summary_path = out / "summary.txt"
    with open(summary_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"experiment: {config.experiment}\n")
        for key in sorted(settings):
            if key != "out":
                fh.write(f"  {key} = {settings[key]}\n")
        for line in summary_lines:
            fh.write(line + "\n")
    return {"csv": csv_path, "summary": summary_path}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first ``main`` call and kept for the process."""
    parser = argparse.ArgumentParser(prog="zenosim", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run an experiment config")
    run_p.add_argument("config", type=Path)
    run_p.add_argument("--seed", type=int, default=None, help="override base_seed")
    run_p.add_argument("--out", type=Path, default=None, help="override output directory")
    val_p = sub.add_parser("validate", help="parse and validate a config, run nothing")
    val_p.add_argument("config", type=Path)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        text = args.config.read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot read {args.config}: {exc}", file=sys.stderr)
        return 1
    try:
        config = parse_config(text)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    if args.command == "validate":
        print(f"ok: {config.experiment}")
        return 0
    try:
        paths = run_experiment(config, out_dir=args.out, seed=args.seed)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {paths['csv']} and {paths['summary']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
