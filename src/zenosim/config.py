"""Flat key=value experiment configuration.

Grammar: one ``key=value`` per line, ``#`` starts a comment, blank lines are
ignored.  Unknown keys are rejected by name, and a duplicated key keeps the
last value while emitting a warning.  A malformed line, a value that does not
parse and a value past its key's bound are reported with their line number;
the bounds are the library's one argument rule (``qubit._require``), so a
number out of range reads ``line N: <key> must be ...``.

Every experiment fills unspecified keys from documented defaults; times are
in ns, ``inf`` is accepted where a decay channel can be switched off.
``ratio_plot`` runs on the ``figure3`` runner, so the two build their schemas
from one shared block.  Parsing also plans the run (``Plan``): its t values,
CSV rows and Monte Carlo work, counted exactly before anything is built and
bounded below, and ``Plan.params``, the one ``DecoherenceParams`` built from
t1 and t2.  The planner checks its rules on those rates and the runners run
on them, so a config that validates runs.
"""

import math
import warnings
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .lindblad import DecoherenceParams, dephasing_model_holds, rk4_steps
from .noise import _check_phase, ou_decay_exponent
from .qubit import _require
from .zeno import _default_noise

DEFAULT_BASE_SEED = 123456789

# bounds on a plan's exact counts that keep every accepted run short: an analytic table
# costs 0.5-0.55 us per CSV cell of '%.17g' text, so a row costs 4.5-6.5 us and 0.16 kB
# in decay_curve (its 7 cells, RK4 step and Bloch-vector turn) and 2-5 us in analytic
# figure2/figure3, at most 0.65 s at the bound (2 vCPUs, Python 3.11); a run's fixed
# cost does not grow with it (a console run: 0.1-0.2 s of interpreter start and imports,
# 1.7-2.7 ms of argument parser, 1-2 ms of config, CSV header and summary); a
# crossover_scan grid point costs about 4 ms on 2 CPUs at 1e5 trajectories, and MC work
# 21-24 s at the bound (figure2 engine=mc times=20 n_max=1): 1.9-2.3 s per 8.4e7
# trajectory-intervals of an MC sweep (figure2 engine=mc defaults), 0.9-1.0 s per 4.1e7
# noise values of crossover_scan (its defaults)
MAX_TABLE_ROWS = 100_000
MAX_SCAN_POINTS = 2048
MAX_MC_INTERVALS = 500_000_000


class ConfigError(ValueError):
    """Configuration text could not be parsed or validated."""


@dataclass(frozen=True)
class Field:
    """A key's parser, its default and the library's bound on it (``qubit._require``), if any."""

    parse: Callable[[str], Any]
    default: Any = None
    minimum: Any = None         # an int minimum asks for an integer
    above: bool = False


def _parse_times(text: str) -> tuple[float, ...]:
    parts = [part for part in text.split(",") if part.strip()]
    if not parts:
        raise ValueError("empty list")
    return tuple(_require(f"entry {entry}", float(part), 0.0, above=True)
                 for entry, part in enumerate(parts, start=1))


def _choice(*options: str) -> Callable[[str], str]:
    def parse(text: str) -> str:
        value = text.strip().lower()
        if value not in options:
            raise ValueError(f"must be one of {', '.join(options)}")
        return value
    return parse


_COMMON = {
    "out": Field(str.strip, "out"),
    "base_seed": Field(int, DEFAULT_BASE_SEED, 0),
}

# t1 and t2 follow the library's rule (DecoherenceParams.from_times), built once in parse_config
_RATE_BLOCK = {"t1": Field(float, 1000.0), "t2": Field(float, 20.0)}

# figure3 and ratio_plot probe the long-T2 regime by default
_SURFACE_BLOCK = {**_COMMON, **_RATE_BLOCK, "t2": Field(float, 400.0), "n_max": Field(int, 16, 1)}

SCHEMAS: dict[str, dict[str, Field]] = {
    "decay_curve": {
        **_COMMON, **_RATE_BLOCK,
        # the qubit Hamiltonian sets the lab frame of the decay_curve states
        "epsilon": Field(float, 1.0, -math.inf, above=True),
        "delta": Field(float, 0.0, -math.inf, above=True),
        "t_end": Field(float, 100.0, 0.0),
        "dt": Field(float, None, 0.0, above=True),          # min(t1, t2)/200
    },
    "crossover_scan": {
        **_COMMON,
        "coupling": Field(float, 0.1, 0.0, above=True),
        "tau_c": Field(float, 1.0, 0.0, above=True),
        "t_end": Field(float, None, 0.0, above=True),       # 40 tau_c
        "dt": Field(float, None, 0.0, above=True),          # tau_c/100
        "trajectories": Field(int, 100_000, 100),
    },
    "figure2": {
        **_COMMON, **_RATE_BLOCK,
        "times": Field(_parse_times, (20.0, 25.0, 30.0, 35.0)),
        "n_max": Field(int, 20, 1),
        "noise_reset": Field(_choice("resample", "persistent"), "resample"),
        "engine": Field(_choice("analytic", "mc"), "analytic"),
        "trajectories": Field(int, 100_000, 1000),
    },
    "figure3": {
        **_SURFACE_BLOCK,
        "t_min": Field(float, 50.0, 0.0, above=True),
        "t_max": Field(float, 800.0, 0.0, above=True),
        "t_points": Field(int, 16, 1),
    },
    "ratio_plot": {**_SURFACE_BLOCK, "t": Field(float, 400.0, 0.0, above=True)},
}

EXPERIMENTS = tuple(SCHEMAS)


@dataclass(frozen=True)
class Plan:
    t: Any          # the t values the runner walks; None for decay_curve, laid by rk4_steps
    rows: int       # CSV rows
    mc_work: int    # MC trajectory-intervals or noise values; 0 for an analytic run
    params: DecoherenceParams | None    # the rates of t1 and t2; None for crossover_scan


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    settings: dict[str, Any]
    plan: Plan


def parse_config(text: str) -> ExperimentConfig:
    """Parse config text into a validated, defaults-filled ExperimentConfig."""
    raw: dict[str, tuple[int, str]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key=value, got {stripped!r}")
        key, _, value = stripped.partition("=")
        key, value = key.strip().lower(), value.strip()
        if key in raw:
            warnings.warn(f"duplicate key {key!r} on line {lineno}; last value wins", stacklevel=2)
        raw[key] = (lineno, value)

    if "experiment" not in raw:
        raise ConfigError("missing required key 'experiment'")
    lineno, experiment = raw.pop("experiment")
    experiment = experiment.strip().lower()
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"line {lineno}: unknown experiment {experiment!r}; "
                          f"expected one of {', '.join(EXPERIMENTS)}")

    schema = SCHEMAS[experiment]
    settings = {key: field.default for key, field in schema.items()}
    for key, (lineno, value) in raw.items():
        if key not in schema:
            raise ConfigError(f"line {lineno}: unknown key {key!r} for experiment {experiment!r}")
        field = schema[key]
        try:
            value = field.parse(value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
        try:        # the library's rule, whose message names the key
            settings[key] = (value if field.minimum is None
                             else _require(key, value, field.minimum, field.above))
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from None

    params = None
    if "t1" in settings:        # the library's rule on T1 and T2, whose rates must be finite
        try:
            params = DecoherenceParams.from_times(settings["t1"], settings["t2"])
        except ValueError as exc:
            key = str(exc).split(" ", 1)[0]         # the rule names t1 or t2 first
            raise ConfigError(f"line {raw[key][0]}: {exc}") from None
    return ExperimentConfig(experiment, settings, _PLANNERS[experiment](settings, params))


def _bound(count, limit, asks: str, unit: str, fix: str):
    if count > limit:       # an exact count of work past its bound
        raise ConfigError(f"{asks} {_count_text(count)} {unit}, more than {limit:g}: {fix}")
    return count


def _count_text(count) -> str:
    """A count exactly below 1e15, else to 3 significant digits, also past the float range."""
    if count < 1e15:
        return str(count)
    from decimal import Decimal     # only on the way to a ConfigError
    return f"{Decimal(count):.3g}"


def _decay_plan(settings: dict[str, Any], params: DecoherenceParams) -> Plan:
    t1, t2, t_end, epsilon, delta = (settings[k] for k in ("t1", "t2", "t_end", "epsilon", "delta"))
    if not dephasing_model_holds(epsilon, delta):
        raise ConfigError(f"delta = {delta!r} with epsilon = {epsilon!r} breaks the sigma_z "
                          "dephasing model, which needs |delta| <= |epsilon|/10: lower delta")
    phase = math.hypot(epsilon, delta) * t_end / 2.0      # the lab frame's last half-angle
    if phase * 2.0 ** -52 > 1e-8:           # its rounding, against the integrator's 1e-8
        raise ConfigError(f"epsilon = {epsilon!r} and delta = {delta!r} with t_end = {t_end!r} "
                          f"turn the lab frame by {phase:.3g} rad, which float64 rounds by more "
                          "than 1e-8 rad: lower epsilon, delta or t_end")
    scale = min(t1, t2) if min(t1, t2) < math.inf else max(t_end, 1.0)   # t_end if no decay
    dt = settings["dt"] = settings["dt"] or scale / 200.0
    try:        # integrate's rule, on the rates it steps with
        steps = rk4_steps(t_end, dt, params)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return Plan(None, _bound(steps + 1, MAX_TABLE_ROWS, f"t_end/dt = {t_end!r}/{dt!r} asks for",
                             "table rows (RK4 steps + 1)",
                             "lower t_end or raise dt (by default min(t1, t2)/200)"), 0, params)


def _crossover_plan(settings: dict[str, Any], params: None) -> Plan:
    """Reject a decay the fits cannot resolve, then lay the grid: dt-spaced to min(tau_c/10,
    t_end), then tau_c/10-spaced to t_end; steps count to 1e-9 (398.99999999999994 -> 399)."""
    coupling, tau_c, trajectories = (settings[k] for k in ("coupling", "tau_c", "trajectories"))
    t_end = settings["t_end"] = settings["t_end"] or 40.0 * tau_c
    if t_end == math.inf:       # a t_end the config sets is finite
        raise ConfigError(f"tau_c = {tau_c!r} overflows the default t_end = 40 tau_c: "
                          "lower tau_c or set t_end")
    dt = settings["dt"] = settings["dt"] or tau_c / 100.0
    if t_end < 2.0 * dt:     # the decay fits need the points dt and 2 dt
        raise ConfigError(f"t_end ({t_end!r}) must be at least 2 dt ({dt!r})")
    # -ln of the normalised coherence; the grid bound keeps dt/tau_c >= 1/(10 MAX_SCAN_POINTS)
    try:
        first = ou_decay_exponent(coupling, tau_c, dt)
    except ValueError:      # G(dt) past the float range passes; the bounds below name the keys
        first = math.inf
    if first < 1e-12:       # rounding next to 1 swamps the short-time fit
        raise ConfigError(f"coupling = {coupling!r} with tau_c = {tau_c!r} and dt = {dt!r} gives "
                          f"-ln(coherence) = {first:.3g} at t = dt, below the 1e-12 the "
                          "short-time fit resolves: raise coupling, tau_c or dt")
    coarse = tau_c / 10.0
    fine_end = min(coarse, t_end)
    fine_steps = fine_end / dt - 1e-9
    if fine_steps <= 1.0:       # ceil(fine_steps) points lie in the short fit's (0, tau_c/10]
        raise ConfigError(f"dt ({dt!r}) leaves the short-time fit over t <= tau_c/10 "
                          f"({coarse!r}) fewer than two grid points: lower dt or raise tau_c")
    coarse_steps = (t_end - fine_end) / coarse      # coarse >= fine_end > dt > 0 here
    fine, whole = ((math.ceil(fine_steps), math.floor(coarse_steps + 1e-9))
                   if math.isfinite(fine_steps + coarse_steps) else (math.inf, math.inf))
    tail = int(coarse_steps - whole > 1e-9)
    points = _bound(fine + 1 + whole + tail, MAX_SCAN_POINTS, "t_end and dt ask for",
                    "grid points", "lower t_end or raise dt")
    work = _bound(trajectories * points, MAX_MC_INTERVALS, f"trajectories x grid points = "
                  f"{trajectories} x {points} asks for", "noise values",
                  "lower trajectories or t_end, or raise dt")
    # an infinite rate 4 coupling^2 tau_c fails here too; the slope fit sums t^2
    if not math.isfinite(4.0 * coupling * coupling * tau_c * t_end + points * t_end * t_end):
        raise ConfigError(f"tau_c = {tau_c!r} with coupling = {coupling!r} and t_end = {t_end!r} "
                          "overflows the decay exponent 4 coupling^2 tau_c t_end or the fit's "
                          "sum of t^2: lower tau_c, coupling or t_end")
    try:        # 4 coupling^2 tau_c t_end is finite, so only (2 coupling tau_c)^2 can overflow here
        last = ou_decay_exponent(coupling, tau_c, t_end)
    except ValueError:
        raise ConfigError(f"coupling = {coupling!r} with tau_c = {tau_c!r} overflows (2 coupling "
                          "tau_c)^2 in the decay exponent: lower coupling or tau_c") from None
    floor = 2.0 / math.sqrt(trajectories)
    if math.exp(-last) < floor:
        raise ConfigError(f"coupling = {coupling!r} with tau_c = {tau_c!r} leaves a coherence "
                          f"of {math.exp(-last):.3g} at t_end = {t_end!r}, under the Monte Carlo "
                          f"noise floor 2/sqrt(trajectories) = {floor:.3g} (trajectories = "
                          f"{trajectories}): lower coupling, tau_c or t_end, or raise trajectories")
    grid = np.concatenate([dt * np.arange(fine), [fine_end],
                           fine_end + coarse * np.arange(1, whole + 1), [t_end] * tail])
    return Plan(grid, points, work, None)


def _sweep_plan(settings: dict[str, Any], params: DecoherenceParams) -> Plan:
    times, n_max = settings["times"], settings["n_max"]
    # a row per (t, N), and an MC run per (t, N) with engine=mc
    trajectories = settings["trajectories"] if settings["engine"] == "mc" else 0
    rows = _bound(len(times) * n_max, MAX_TABLE_ROWS, "times x n_max asks for", "table rows",
                  "lower times or n_max")
    if trajectories:        # the library's bound on the phases of the default noise
        noise = _default_noise(params)
        try:
            _check_phase(noise.coupling, max(times), n_max)
        except ValueError:
            raise ConfigError(f"times up to {max(times)!r} with t2 = {settings['t2']!r} and n_max "
                              f"= {n_max} can overflow the Monte Carlo dephasing phase: lower "
                              "times or n_max, or raise t2") from None
    work = _bound(trajectories * len(times) * n_max * (n_max + 1) // 2, MAX_MC_INTERVALS,
                  f"trajectories x len(times) x n_max(n_max+1)/2 = {trajectories} x {len(times)} "
                  f"x {n_max}({n_max}+1)/2 asks for", "trajectory-intervals",
                  "lower trajectories, n_max or times")
    return Plan(times, rows, work, params)


def _surface_plan(settings: dict[str, Any], params: DecoherenceParams, t_min, t_max,
                  points: int, keys) -> Plan:
    if t_min > t_max:
        raise ConfigError(f"t_min ({t_min!r}) must not exceed t_max ({t_max!r})")
    rows = _bound(points * settings["n_max"], MAX_TABLE_ROWS, f"{' x '.join(keys)} asks for",
                  "table rows", f"lower {' or '.join(keys)}")
    return Plan(np.linspace(t_min, t_max, points), rows, 0, params)


_PLANNERS: dict[str, Callable[[dict[str, Any], DecoherenceParams | None], Plan]] = {
    "decay_curve": _decay_plan,
    "crossover_scan": _crossover_plan,
    "figure2": _sweep_plan,
    "figure3": lambda s, p: _surface_plan(s, p, s["t_min"], s["t_max"], s["t_points"],
                                          ("t_points", "n_max")),
    "ratio_plot": lambda s, p: _surface_plan(s, p, s["t"], s["t"], 1, ("n_max",)),
}
