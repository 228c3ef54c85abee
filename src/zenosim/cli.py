"""Batch front-end: parse a config, run an experiment, emit CSV + summary.

Usage:
    zenosim run <config-path> [--seed S] [--out DIR]
    zenosim validate <config-path>

Each experiment writes one CSV artifact plus ``summary.txt`` with its
headline numbers.  Identical configs (and seed) produce byte-identical
artifacts; see the config module for the accepted keys.
"""

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from .config import ConfigError, ExperimentConfig, parse_config
from .lindblad import DecoherenceParams, integrate
from .noise import NoiseModel, ensemble_average
from .qubit import SystemHamiltonian, dynamical_fidelities, first_unphysical, plus_state
from .tables import Table, _cell, write_csv
from .zeno import NoiseReset, figure2_sweep, figure3_surface


def _run_decay_curve(settings) -> tuple[Table, list[str]]:
    hs = SystemHamiltonian(settings["epsilon"], settings["delta"])
    params = DecoherenceParams.from_times(settings["t1"], settings["t2"], hs)
    psi0 = plus_state()
    result = integrate(psi0.density(), params, settings["t_end"], settings["dt"])
    u = params.hs.propagators(result.times)
    lab = u @ result.states @ u.conj().swapaxes(1, 2)
    bad = first_unphysical(lab)
    if bad is not None:
        raise ValueError(f"lab-frame state at t = {float(result.times[bad[0]])!r}: {bad[1]}")
    fid = dynamical_fidelities(lab, psi0, u)
    coh = lab[:, 0, 1]
    columns = (result.times, lab[:, 0, 0].real, lab[:, 1, 1].real, coh.real, coh.imag,
               np.abs(coh), fid)
    rows = list(zip(*(c.tolist() for c in columns)))
    table = Table(("t", "p00", "p11", "re01", "im01", "abs01", "fidelity"), rows)
    summary = [f"final fidelity at t={_cell(settings['t_end'])} ns: {_cell(rows[-1][6])}"]
    return table, summary


def _local_exponent(times: np.ndarray, coherence: np.ndarray, mask: np.ndarray) -> float:
    """Slope of log(-log c) vs log t: the local power of the decay exponent."""
    t = times[mask]
    deficit = -np.log(coherence[mask])
    keep = deficit > 0.0
    return float(np.polyfit(np.log(t[keep]), np.log(deficit[keep]), 1)[0])


def _run_crossover_scan(settings) -> tuple[Table, list[str]]:
    coupling, tau_c = settings["coupling"], settings["tau_c"]
    t_end, dt = settings["t_end"], settings["dt"]
    coarse = tau_c / 10.0
    fine_end = min(coarse, t_end)
    # fine_end ends the dt-spaced span and t_end the tau_c/10-spaced one, also where
    # the step does not divide the span; steps count to 1e-9 (398.99999999999994 -> 399)
    fine = np.append(dt * np.arange(0, math.ceil(fine_end / dt - 1e-9)), fine_end)
    steps = (t_end - fine_end) / coarse
    whole = math.floor(steps + 1e-9)
    tail = [t_end] if steps - whole > 1e-9 else []
    grid = np.concatenate([fine, fine_end + coarse * np.arange(1, whole + 1), tail])
    model = NoiseModel.ornstein_uhlenbeck(coupling, tau_c)
    ensemble = ensemble_average(plus_state(), model, grid, settings["trajectories"],
                                settings["base_seed"])
    coherence = ensemble.coherence()
    stderr = ensemble.coherence_stderr()
    rows = [(float(t), float(c), float(s)) for t, c, s in zip(grid, coherence, stderr)]
    table = Table(("t", "abs01", "stderr"), rows)

    normalised = 2.0 * coherence
    # exponential-regime window; falls back to the tail when the scan is short
    long_start = min(20.0 * tau_c, 0.5 * t_end)
    long_mask = grid >= long_start
    slope = float(np.polyfit(grid[long_mask], np.log(normalised[long_mask]), 1)[0])
    expected = -4.0 * coupling ** 2 * tau_c
    short_exp = _local_exponent(grid, normalised, (grid > 0) & (grid <= coarse))
    long_exp = _local_exponent(grid, normalised, long_mask)
    # a scan shorter than 40 tau_c names the tail window it fitted instead
    slope_window, long_window = "", " for t >= 20 tau_c"
    if long_start < 20.0 * tau_c:
        slope_window = long_window = f" for t >= t_end/2 = {long_start:.6g} ns"
    summary = [
        f"long-time log-coherence slope{slope_window}: {_cell(slope)} per ns "
        f"(theory {_cell(expected)}, relative error {_cell(abs(slope / expected - 1.0))})",
        f"local decay exponent for t <= tau_c/10: {_cell(short_exp)} (quadratic regime -> 2)",
        f"local decay exponent{long_window}: {_cell(long_exp)} (exponential regime -> 1)",
    ]
    return table, summary


def _deviations(table: Table) -> list[float]:
    """|P_mc - P_analytic| / stderr at every MC point with a nonzero stderr."""
    return [abs(r[3] - r[2]) / r[4] for r in table.rows if r[4] and r[4] > 0.0]


def _max_deviation(table: Table) -> str:
    devs = _deviations(table)
    return _cell(max(devs)) if devs else "n/a (every MC stderr is 0)"


def _run_figure2(settings) -> tuple[Table, list[str]]:
    params = DecoherenceParams.from_times(settings["t1"], settings["t2"])
    mc = settings["engine"] == "mc"
    table = figure2_sweep(
        params, settings["times"], settings["n_max"],
        trajectories=settings["trajectories"] if mc else None,
        base_seed=settings["base_seed"] if mc else None,
        noise_reset=NoiseReset(settings["noise_reset"]))
    n_max = settings["n_max"]
    top = {}
    for r in table.rows:
        if r[1] == n_max:
            top.setdefault(r[0], r)
    summary = [f"P(N={n_max}) at t={_cell(float(t))} ns: {_cell(top[t][2])}"
               for t in settings["times"]]
    if mc:
        status = ("consistency check" if settings["noise_reset"] == "resample"
                  else "persistent noise: deviations are expected, reported only")
        summary.append(f"max |MC - analytic| in stderr units: {_max_deviation(table)} "
                       f"({status})")
    return table, summary


def _run_figure3(settings) -> tuple[Table, list[str]]:
    params = DecoherenceParams.from_times(settings["t1"], settings["t2"])
    t_grid = np.linspace(settings["t_min"], settings["t_max"], settings["t_points"])
    n_grid = range(1, settings["n_max"] + 1)
    table = figure3_surface(params, t_grid, n_grid)
    first, last = {}, {}             # rows run over N within each t, t in grid order
    for r in table.rows:
        first.setdefault(r[0], r)
        last[r[0]] = r
    # an N=1 coherence that underflowed has no uplift
    uplifts = {t: last[t][2] / r[2] for t, r in first.items() if r[2] > 0.0}
    if uplifts:
        best_t = max(uplifts, key=uplifts.get)
        uplift = f"{_cell(uplifts[best_t])} at t={_cell(best_t)} ns"
        if len(uplifts) < len(set(t_grid.tolist())):        # equal t values share a key
            uplift += f" (over the {len(uplifts)} t values where the N=1 coherence is nonzero)"
    else:
        uplift = "n/a (the N=1 coherence is 0 at every t)"
    summary = [f"max coherence uplift from N=1 to N={settings['n_max']}: {uplift}"]
    return table, summary


def _run_ratio_plot(settings) -> tuple[Table, list[str]]:
    t = settings["t"]
    table, _ = _run_figure3({**settings, "t_min": t, "t_max": t, "t_points": 1})
    summary = [f"ratio at N={settings['n_max']}, t={_cell(t)} ns: {_cell(table.rows[-1][3])} "
               f"(measurement-suppressed dephasing only; relaxation cancels)"]
    return table, summary


def _run_mc_validate(settings) -> tuple[Table, list[str]]:
    table, _ = _run_figure2({**settings, "engine": "mc"})
    devs = _deviations(table)
    # with every stderr 0, within 3 stderr means equal to the analytic value
    within = max(devs) <= 3.0 if devs else all(r[3] == r[2] for r in table.rows)
    summary = [
        f"grid points checked: {len(table.rows)} with "
        f"{settings['trajectories']} trajectories each",
        f"max |MC - analytic| in stderr units: {_max_deviation(table)}",
        f"all within 3 stderr: {'yes' if within else 'NO'}",
    ]
    return table, summary


_RUNNERS = {
    "decay_curve": _run_decay_curve,
    "crossover_scan": _run_crossover_scan,
    "figure2": _run_figure2,
    "figure3": _run_figure3,
    "ratio_plot": _run_ratio_plot,
    "mc_validate": _run_mc_validate,
}


def run_experiment(config: ExperimentConfig, out_dir=None, seed: int | None = None) -> dict:
    """Run one experiment; returns {'csv': path, 'summary': path}."""
    settings = dict(config.settings)
    if seed is not None:
        if seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed}")
        settings["base_seed"] = int(seed)
    out = Path(out_dir if out_dir is not None else settings.get("out", "out"))
    out.mkdir(parents=True, exist_ok=True)

    table, summary_lines = _RUNNERS[config.experiment](settings)

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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="zenosim", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run an experiment config")
    run_p.add_argument("config", type=Path)
    run_p.add_argument("--seed", type=int, default=None, help="override base_seed")
    run_p.add_argument("--out", type=Path, default=None, help="override output directory")
    val_p = sub.add_parser("validate", help="parse and validate a config, run nothing")
    val_p.add_argument("config", type=Path)

    args = parser.parse_args(argv)
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
