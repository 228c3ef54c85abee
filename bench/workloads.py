"""The four benchmark workloads and the checks behind ``failed``.

A workload is a list of operations.  An operation is one ``zenosim run``
executed in process through ``zenosim.cli.main``, or one public library call.
``Op.run`` is the timed part; ``Op.inspect`` runs afterwards and returns the
operation's output digest, the work it did (trajectories, or CSV rows for the
analytic experiments) and an error message when its output fails a check.

The seed reaches the program only as ``--seed`` (CLI) or ``base_seed``
(library).  Statistical checks sit at 5 standard errors per point, so a
correct program fails one of them with probability far below 1e-3 even over
80 points.  The crossover fit uses the tolerances of acceptance criteria 3 and
4; over 60 seeds the slope error had a standard deviation of 1.3% at 1e5
trajectories, so a correct program misses the 5% slope bound on roughly 5e-4
of seeds.  Closed forms are written out here rather than taken from the
package, so the checks stay independent of the code they check.
"""

import contextlib
import csv
import hashlib
import io
import math
from pathlib import Path

import numpy as np

Z_LIMIT = 5.0

# criterion-9 physics: tau_c << t/N, total decay exponent 4 coupling^2 tau_c t = 0.12
OU_TAU_C = 0.2
OU_TOTAL_TIME = 40.0
OU_COUPLING = math.sqrt(0.12 / (4.0 * OU_TAU_C * OU_TOTAL_TIME))
OU_MEASUREMENTS = (1, 5, 20)


def sha256(*chunks):
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def read_rows(path):
    """Data rows of a CSV, numeric cells as floats and empty cells as None."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    return [[float(c) if c else None for c in row] for row in rows]


class CliOp:
    """One ``zenosim run <config> --seed S --out DIR`` call."""

    def __init__(self, zenosim, label, text, seed, workdir, check):
        self.zenosim = zenosim
        self.label = label
        self.check = check
        cfg = workdir / f"{label}.txt"
        cfg.write_text(text, encoding="utf-8")
        # parsed once at set-up: rejects a bad config before any timing and
        # gives the checks the defaults-filled settings
        parsed = zenosim.config.parse_config(text)
        self.settings = parsed.settings
        self.out = workdir / label
        self.csv = self.out / f"{parsed.experiment}.csv"
        self.argv = ["run", str(cfg), "--seed", str(seed), "--out", str(self.out)]

    def run(self):
        # looked up on each call so a traced pass goes through the wrapper
        with contextlib.redirect_stdout(io.StringIO()):
            return self.zenosim.cli.main(self.argv)

    def inspect(self, rc):
        if rc != 0:
            return None, 0, f"exit code {rc}"
        csv_bytes = self.csv.read_bytes()
        summary = (self.out / "summary.txt").read_bytes()
        digest = f"csv:{sha256(csv_bytes)} summary:{sha256(summary)}"
        work, error = self.check(self.settings, read_rows(self.csv), csv_bytes)
        return digest, work, error


class LibraryOp:
    """One ``selective_run_mc`` / ``nonselective_run_mc`` call under OU noise."""

    def __init__(self, zenosim, function, reset, n, trajectories, seed):
        zeno = zenosim.zeno
        self.zenosim = zenosim
        self.function = function
        self.label = f"{function}-{reset}-N{n}"
        kind = (zeno.ProtocolKind.SELECTIVE if function == "selective_run_mc"
                else zeno.ProtocolKind.NON_SELECTIVE)
        self.reset = reset
        self.n = n
        self.params = zenosim.lindblad.DecoherenceParams(0.0, 0.0)
        self.noise = zenosim.noise.NoiseModel.ornstein_uhlenbeck(OU_COUPLING, OU_TAU_C)
        self.config = zeno.ProtocolConfig(OU_TOTAL_TIME, n, kind, zeno.EngineKind.MONTE_CARLO,
                                          trajectories, seed, zeno.NoiseReset(reset))

    def run(self):
        call = getattr(self.zenosim.zeno, self.function)
        return call(self.params, self.config, self.noise, context=(self.n,))

    def inspect(self, result):
        fields = (result.success_probability, result.success_stderr,
                  result.survivors_per_step, result.coherence, result.coherence_stderr,
                  result.trajectories)
        rho = result.final_rho.matrix.tobytes() if result.final_rho is not None else b""
        digest = sha256(repr(fields).encode(), rho)
        return digest, result.trajectories, self._check(result)

    def _check(self, r):
        selective = self.function == "selective_run_mc"
        value, stderr = ((r.success_probability, r.success_stderr) if selective
                         else (r.coherence, r.coherence_stderr))
        top = 1.0 if selective else 0.5
        if not (math.isfinite(value) and math.isfinite(stderr) and 0.0 <= value <= top
                and stderr >= 0.0):
            return f"estimate {value!r} +- {stderr!r} outside [0, {top}] or not finite"
        if r.trajectories != self.config.trajectories:
            return f"{r.trajectories} trajectories reported, {self.config.trajectories} asked"
        if self.reset == "persistent":
            return None
        # each interval's phase is Gaussian with variance
        # coupling^2 * 2 tau_c^2 (x - 1 + e^-x), x = tau / tau_c
        x = OU_TOTAL_TIME / self.n / OU_TAU_C
        var = OU_COUPLING ** 2 * 2.0 * OU_TAU_C ** 2 * (x - 1.0 + math.exp(-x))
        decay = math.exp(-2.0 * var)                  # E[cos 2 phi]
        expected = (0.5 * (1.0 + decay)) ** self.n if selective else 0.5 * decay ** self.n
        if stderr == 0.0 or abs(value - expected) > Z_LIMIT * stderr:
            return (f"{value!r} vs closed form {expected!r}: "
                    f"{abs(value - expected) / stderr if stderr else math.inf:.2f} stderr")
        return None


# -- CSV checks: (settings, rows, csv bytes) -> (work, error) ---------------


def _check_figure2_mc(settings, rows, _):
    times, n_max = settings["times"], settings["n_max"]
    m, t1, t2 = settings["trajectories"], settings["t1"], settings["t2"]
    if len(rows) != len(times) * n_max:
        return 0, f"{len(rows)} rows, expected {len(times) * n_max}"
    for t, n, p_an, p_mc, stderr in rows:
        tau, n = t / n, int(n)
        step = 0.5 + 0.5 * math.exp(-tau / (2.0 * t1) - (tau / t2) ** 2)
        if abs(p_an - step ** n) > 1e-12:
            return 0, f"P_analytic {p_an!r} at t={t}, N={n} differs from closed form {step ** n!r}"
        if not (stderr and stderr > 0.0 and 0.0 <= p_mc <= 1.0):
            return 0, f"MC point at t={t}, N={n} has P_mc={p_mc!r}, stderr={stderr!r}"
        z = abs(p_mc - p_an) / stderr
        if z > Z_LIMIT:
            return 0, f"MC point at t={t}, N={n} is {z:.2f} stderr from analytic"
    return len(rows) * m, None


def _local_exponent(t, normalised):
    """Slope of log(-log c) vs log t, as in acceptance criterion 4."""
    return float(np.polyfit(np.log(t), np.log(-np.log(normalised)), 1)[0])


def _check_crossover(settings, rows, _):
    data = np.array([row[:3] for row in rows], dtype=float)
    t, coherence = data[:, 0], data[:, 1]
    if not (np.all(np.isfinite(data)) and np.all((coherence > 0.0) & (coherence <= 0.5))):
        return 0, "coherence not finite or outside (0, 1/2]"
    coupling, tau_c = settings["coupling"], settings["tau_c"]
    normalised = 2.0 * coherence
    long_mask = t >= 20.0 * tau_c
    short_mask = (t > 0.0) & (t <= tau_c / 10.0)
    slope = float(np.polyfit(t[long_mask], np.log(normalised[long_mask]), 1)[0])
    expected = -4.0 * coupling ** 2 * tau_c
    if abs(slope / expected - 1.0) > 0.05:                       # criterion 3
        return 0, f"long-time slope {slope!r} is >5% from {expected!r}"
    short = _local_exponent(t[short_mask], normalised[short_mask])
    long_ = _local_exponent(t[long_mask], normalised[long_mask])
    if abs(short - 2.0) > 0.1 or abs(long_ - 1.0) > 0.1:         # criterion 4
        return 0, f"local exponents {short!r} (want 2 +- 0.1), {long_!r} (want 1 +- 0.1)"
    return settings["trajectories"], None


def _check_decay_curve(settings, rows, _):
    t1, t2 = settings["t1"], settings["t2"]
    for t, p00, p11, _re, _im, abs01, fidelity in rows:
        expected = 0.5 * math.exp(-t / (2.0 * t1) - (t / t2) ** 2)
        if abs(abs01 - expected) > 1e-8:                         # criterion 1
            return 0, f"|rho01| {abs01!r} at t={t} differs from closed form {expected!r}"
        if abs(p00 + p11 - 1.0) > 1e-10 or not -1e-12 <= fidelity <= 1.0 + 1e-12:
            return 0, f"non-physical row at t={t}"
    return len(rows), None


def _golden_check(name):
    def check(settings, rows, csv_bytes):
        if csv_bytes != Path("tests", "golden", name).read_bytes():
            return 0, f"{name} differs from tests/golden/{name}"
        return len(rows), None
    return check


def _check_ratio_plot(settings, rows, _):
    t1, t2 = settings["t1"], settings["t2"]
    for t, n, abs01, ratio in rows:
        suppressed = math.exp(-t * t / (n * t2 * t2))
        if abs(ratio - suppressed) > 1e-12 or abs(abs01 - 0.5 * math.exp(-t / (2.0 * t1))
                                                  * suppressed) > 1e-12:
            return 0, f"ratio row at t={t}, N={n} differs from closed form"
    return len(rows), None


# -- workloads -----------------------------------------------------------------


def fig2_mc(zenosim, seed, workdir, tiny):
    text = "experiment=figure2\nengine=mc\n"
    if tiny:
        text += "times=20,30\nn_max=4\ntrajectories=2000\n"
    return [CliOp(zenosim, "figure2_mc", text, seed, workdir, _check_figure2_mc)]


def crossover_scan(zenosim, seed, workdir, tiny):
    text = "experiment=crossover_scan\n" + ("trajectories=2000\n" if tiny else "")
    return [CliOp(zenosim, "crossover_scan", text, seed, workdir, _check_crossover)]


def ou_protocols(zenosim, seed, workdir, tiny):
    trajectories = 1000 if tiny else 10_000
    return [LibraryOp(zenosim, function, reset, n, trajectories, seed)
            for reset in ("resample", "persistent")
            for function in ("selective_run_mc", "nonselective_run_mc")
            for n in OU_MEASUREMENTS]


def analytic_cli(zenosim, seed, workdir, tiny):
    return [
        CliOp(zenosim, "decay_curve", "experiment=decay_curve\n", seed, workdir,
              _check_decay_curve),
        CliOp(zenosim, "figure2", "experiment=figure2\n", seed, workdir,
              _golden_check("figure2.csv")),
        CliOp(zenosim, "figure3", "experiment=figure3\n", seed, workdir,
              _golden_check("figure3.csv")),
        CliOp(zenosim, "ratio_plot", "experiment=ratio_plot\n", seed, workdir,
              _check_ratio_plot),
    ]


WORKLOADS = {
    "fig2_mc": fig2_mc,
    "crossover_scan": crossover_scan,
    "ou_protocols": ou_protocols,
    "analytic_cli": analytic_cli,
}
