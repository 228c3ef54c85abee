"""Batch front-end: parse a config, run an experiment, emit CSV + summary.

Usage:
    zenosim run <config-path> [--seed S] [--out DIR]
    zenosim validate <config-path>

Each experiment writes one CSV artifact plus ``summary.txt`` with its
headline numbers.  Identical configs (and seed) produce byte-identical
artifacts; see the config module for the accepted keys.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from .config import ConfigError, ExperimentConfig, Plan, parse_config
from .lindblad import DecoherenceParams, integrate
from .noise import NoiseModel, ensemble_average, ou_decay_exponent
from .qubit import SystemHamiltonian, dynamical_fidelities, first_unphysical, plus_state
from .tables import Table, _cell, write_csv
from .zeno import NoiseReset, figure2_sweep, figure3_surface, pn_persistent


def _run_decay_curve(settings, plan: Plan) -> tuple[Table, list[str]]:
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
    table = Table({"t": result.times, "p00": lab[:, 0, 0].real, "p11": lab[:, 1, 1].real,
                   "re01": coh.real, "im01": coh.imag, "abs01": np.abs(coh), "fidelity": fid})
    summary = [f"final fidelity at t={_cell(settings['t_end'])} ns: {_cell(fid[-1])}"]
    return table, summary


def _max_z(estimate, reference, stderr) -> tuple[str, bool]:
    """Max |estimate - reference| / stderr over the points with stderr > 0.

    Returns its summary text and whether every point is within 3 stderr;
    with every stderr 0, within 3 stderr means equal to the reference.
    """
    estimate, reference, stderr = map(np.asarray, (estimate, reference, stderr))
    keep = stderr > 0.0
    if not keep.any():
        return "n/a (every MC stderr is 0)", bool(np.all(estimate == reference))
    z = float((np.abs(estimate[keep] - reference[keep]) / stderr[keep]).max())
    return _cell(z), z <= 3.0


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
    coherence = ensemble.coherence()
    stderr = ensemble.coherence_stderr()
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
    z_max, _ = _max_z(coherence[later], closed, stderr[later])
    summary = [
        f"max |MC - exp(-G(t))/2| over t > 0 in stderr units: {z_max} "
        "(G(t) = 4 coupling^2 tau_c^2 (t/tau_c - 1 + exp(-t/tau_c)))",
        f"long-time log-coherence slope{slope_window}: {_cell(slope)} per ns "
        f"(theory {_cell(expected)}, relative error {_cell(abs(slope / expected - 1.0))})",
        f"local decay exponent for t <= tau_c/10: {_cell(short_exp)} (quadratic regime -> 2)",
        f"local decay exponent{long_window}: {_cell(long_exp)} (exponential regime -> 1)",
    ]
    return table, summary


def _mc_z(settings, table: Table) -> tuple[str, bool]:
    """``_max_z`` of P_mc against the analytic P_N of each MC row.

    Resampled noise: the row's P_analytic.  Persistent noise: E[q(f0)^N] of
    ``zeno.pn_persistent``, which the CSV does not carry.
    """
    if settings["noise_reset"] == "resample":
        references = table["P_analytic"]
    else:
        params = DecoherenceParams.from_times(settings["t1"], settings["t2"])
        references = [pn_persistent(params, t, n) for t, n in zip(table["t"], table["N"])]
    return _max_z(table["P_mc"], references, table["P_mc_stderr"])


def _run_figure2(settings, plan: Plan) -> tuple[Table, list[str]]:
    params = DecoherenceParams.from_times(settings["t1"], settings["t2"])
    mc = plan.mc_work > 0
    table = figure2_sweep(
        params, plan.t, settings["n_max"],
        trajectories=settings["trajectories"] if mc else None,
        base_seed=settings["base_seed"] if mc else None,
        noise_reset=NoiseReset(settings["noise_reset"]))
    n_max = settings["n_max"]
    # rows run over N = 1..n_max within each t, t in grid order
    summary = [f"P(N={n_max}) at t={_cell(float(t))} ns: {_cell(p)}"
               for t, p in zip(plan.t, table["P_analytic"][n_max - 1::n_max])]
    if mc:
        z_max, _ = _mc_z(settings, table)
        status = ("consistency check" if settings["noise_reset"] == "resample"
                  else "consistency check against E[q(f0)^N] for persistent noise; "
                  "P_analytic is the resample closed form")
        summary.append(f"max |MC - analytic| in stderr units: {z_max} ({status})")
    return table, summary


def _run_figure3(settings, plan: Plan) -> tuple[Table, list[str]]:
    params = DecoherenceParams.from_times(settings["t1"], settings["t2"])
    t_grid = plan.t
    n_grid = range(1, settings["n_max"] + 1)
    table = figure3_surface(params, t_grid, n_grid)
    # rows run over N within each t, t in grid order; an N=1 coherence that
    # underflowed has no uplift
    abs01, n = table["abs01"], len(n_grid)
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
    table, _ = _run_figure3(settings, plan)
    summary = [f"ratio at N={settings['n_max']}, t={_cell(t)} ns: {_cell(table['ratio'][-1])} "
               f"(measurement-suppressed dephasing only; relaxation cancels)"]
    return table, summary


def _run_mc_validate(settings, plan: Plan) -> tuple[Table, list[str]]:
    table, _ = _run_figure2(settings, plan)
    z_max, within = _mc_z(settings, table)
    summary = [
        f"grid points checked: {len(table)} with {settings['trajectories']} trajectories each",
        f"max |MC - analytic| in stderr units: {z_max}",
        f"all within 3 stderr: {'yes' if within else 'NO'}",
    ]
    if settings["noise_reset"] == "persistent":
        summary.append("analytic reference: E[q(f0)^N] for persistent noise "
                       "(P_analytic is the resample closed form)")
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
