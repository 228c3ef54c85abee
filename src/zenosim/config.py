"""Flat key=value experiment configuration.

Grammar: one ``key=value`` per line, ``#`` starts a comment, blank lines are
ignored.  Unknown keys are rejected by name, malformed lines and type or
constraint violations are reported with their line number, and a duplicated
key keeps the last value while emitting a warning.

Every experiment fills unspecified keys from documented defaults; times are
in ns, ``inf`` is accepted where a decay channel can be switched off.
``mc_validate`` and ``ratio_plot`` run on the ``figure2`` and ``figure3``
runners, so each pair builds its schema from one shared block.  Parsing also
plans the run (``Plan``): its t values, CSV rows and Monte Carlo work, counted
exactly before anything is built and bounded below.
"""

import math
import warnings
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .lindblad import dephasing_model_holds, rk4_steps
from .noise import ou_decay_exponent

DEFAULT_BASE_SEED = 123456789

# bounds on a plan's exact counts that keep every accepted run short: a table row
# costs about 10 us and 0.4 kB in decay_curve (its RK4 step, lab-frame state and CSV
# line) and at most 5 us in analytic figure2/figure3, so about 1 s at the bound; on
# 2 CPUs a crossover_scan grid point costs about 4 ms at 1e5 trajectories, and MC work
# about 20 s at the bound: 3 s per 8.4e7 trajectory-intervals of an MC sweep (figure2
# engine=mc defaults), 1.5 s per 4.1e7 noise values of crossover_scan (its defaults)
MAX_TABLE_ROWS = 100_000
MAX_SCAN_POINTS = 2048
MAX_MC_INTERVALS = 500_000_000


class ConfigError(ValueError):
    """Configuration text could not be parsed or validated."""


@dataclass(frozen=True)
class Field:
    parse: Callable[[str], Any]
    default: Any = None
    check: Callable[[Any], str | None] = lambda v: None


def _parse_float_list(text: str) -> tuple[float, ...]:
    values = tuple(float(part) for part in text.split(",") if part.strip() != "")
    if not values:
        raise ValueError("empty list")
    if any(not math.isfinite(v) for v in values):
        raise ValueError("list entries must be finite")
    return values


def _float_field(default=None, allow_inf=False, positive=False, allow_negative=False) -> Field:
    def parse(text: str) -> float:
        value = float(text)
        if math.isnan(value):
            raise ValueError("nan is not a valid value")
        if math.isinf(value) and not allow_inf:
            raise ValueError("value must be finite")
        return value

    def check(value: float) -> str | None:
        if not allow_negative and value < 0.0:
            return "must be >= 0"
        if positive and value == 0.0:
            return "must be nonzero"
        return None

    return Field(parse=parse, default=default, check=check)


def _int_field(default=None, minimum=1) -> Field:
    return Field(parse=lambda text: int(text, 10), default=default,
                 check=lambda v: None if v >= minimum else f"must be >= {minimum}")


def _choice_field(options: tuple[str, ...], default: str) -> Field:
    return Field(parse=lambda text: text.strip().lower(), default=default,
                 check=lambda v: None if v in options else f"must be one of {', '.join(options)}")


_COMMON = {
    "out": Field(parse=str.strip, default="out"),
    "base_seed": _int_field(default=DEFAULT_BASE_SEED, minimum=0),
}

_RATE_BLOCK = {
    "t1": _float_field(default=1000.0, allow_inf=True, positive=True),
    "t2": _float_field(default=20.0, allow_inf=True, positive=True),
}

# figure2 and mc_validate sweep P(N) over the same grid
_SWEEP_BLOCK = {
    **_COMMON, **_RATE_BLOCK,
    "times": Field(parse=_parse_float_list, default=(20.0, 25.0, 30.0, 35.0),
                   check=lambda v: None if all(x > 0 for x in v) else "times must be > 0"),
    "n_max": _int_field(default=20),
    "noise_reset": _choice_field(("resample", "persistent"), "resample"),
}

# figure3 and ratio_plot probe the long-T2 regime by default
_SURFACE_BLOCK = {
    **_COMMON, **_RATE_BLOCK,
    "t2": _float_field(default=400.0, allow_inf=True, positive=True),
    "n_max": _int_field(default=16),
}

SCHEMAS: dict[str, dict[str, Field]] = {
    "decay_curve": {
        **_COMMON, **_RATE_BLOCK,
        # the qubit Hamiltonian sets the lab frame of the decay_curve states
        "epsilon": _float_field(default=1.0, allow_negative=True),
        "delta": _float_field(default=0.0, allow_negative=True),
        "t_end": _float_field(default=100.0),
        "dt": _float_field(default=None, positive=True),        # min(t1, t2)/200
    },
    "crossover_scan": {
        **_COMMON,
        "coupling": _float_field(default=0.1, positive=True),
        "tau_c": _float_field(default=1.0, positive=True),
        "t_end": _float_field(default=None, positive=True),     # 40 tau_c
        "dt": _float_field(default=None, positive=True),        # tau_c/100
        "trajectories": _int_field(default=100_000, minimum=100),
    },
    "figure2": {
        **_SWEEP_BLOCK,
        "engine": _choice_field(("analytic", "mc"), "analytic"),
        "trajectories": _int_field(default=100_000, minimum=1000),
    },
    "figure3": {
        **_SURFACE_BLOCK,
        "t_min": _float_field(default=50.0, positive=True),
        "t_max": _float_field(default=800.0, positive=True),
        "t_points": _int_field(default=16, minimum=1),
    },
    "ratio_plot": {**_SURFACE_BLOCK, "t": _float_field(default=400.0, positive=True)},
    "mc_validate": {**_SWEEP_BLOCK, "trajectories": _int_field(default=10_000, minimum=1000)},
}

EXPERIMENTS = tuple(SCHEMAS)


@dataclass(frozen=True)
class Plan:
    t: Any          # the t values the runner walks; None for decay_curve, laid by rk4_steps
    rows: int       # CSV rows
    mc_work: int    # MC trajectory-intervals or noise values; 0 for an analytic run


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
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
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
        try:
            settings[key] = parsed = schema[key].parse(value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
        problem = schema[key].check(parsed)
        if problem:
            raise ConfigError(f"line {lineno}: {key} {problem} (got {parsed!r})")

    plan = _PLANNERS[experiment](settings)
    if "t1" in settings:
        _check_exponents(settings)
    return ExperimentConfig(experiment, settings, plan)


def _check_exponents(settings: dict[str, Any]) -> None:
    """Reject a time that overflows the decay exponent t/T1 or (t/T2)^2."""
    t1, t2 = settings["t1"], settings["t2"]
    gamma1, gamma2 = (0.0 if math.isinf(x) else 1.0 / x for x in (t1, t2))
    for key in ("t", "t_end", "t_min", "t_max", "times"):
        values = settings.get(key, ())
        for t in values if isinstance(values, tuple) else (values,):
            if not math.isfinite(gamma1 * t + (gamma2 * t) * (gamma2 * t)):
                raise ConfigError(f"{key} = {t!r} overflows the decay exponent t/t1 or (t/t2)^2 "
                                  f"(t1 = {t1!r}, t2 = {t2!r}): lower {key} or raise t1 and t2")


def _bound(count, limit, asks: str, unit: str, fix: str):
    if count > limit:       # an exact count of work past its bound
        raise ConfigError(f"{asks} {count} {unit}, more than {limit:g}: {fix}")
    return count


def _decay_plan(settings: dict[str, Any]) -> Plan:
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
    try:
        steps = rk4_steps(t_end, dt, t1, t2)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return Plan(None, _bound(steps + 1, MAX_TABLE_ROWS, f"t_end/dt = {t_end!r}/{dt!r} asks for",
                             "table rows (RK4 steps + 1)",
                             "lower t_end or raise dt (by default min(t1, t2)/200)"), 0)


def _crossover_plan(settings: dict[str, Any]) -> Plan:
    """Reject a decay the fits cannot resolve, then lay the grid: dt-spaced to min(tau_c/10,
    t_end), then tau_c/10-spaced to t_end; steps count to 1e-9 (398.99999999999994 -> 399)."""
    coupling, tau_c, trajectories = (settings[k] for k in ("coupling", "tau_c", "trajectories"))
    t_end = settings["t_end"] = settings["t_end"] or 40.0 * tau_c
    dt = settings["dt"] = settings["dt"] or tau_c / 100.0
    if t_end < 2.0 * dt:     # the decay fits need the points dt and 2 dt
        raise ConfigError(f"t_end ({t_end!r}) must be at least 2 dt ({dt!r})")
    rate = 4.0 * coupling * coupling * tau_c
    if not math.isfinite(rate):
        raise ConfigError(f"coupling = {coupling!r} with tau_c = {tau_c!r} overflows the decay "
                          "rate 4 coupling^2 tau_c: lower coupling or tau_c")
    # -ln of the normalised coherence; the grid bound keeps dt/tau_c >= 1/(10 MAX_SCAN_POINTS)
    first, last = (ou_decay_exponent(coupling, tau_c, t) for t in (dt, t_end))
    if first < 1e-12:       # rounding next to 1 swamps the short-time fit
        raise ConfigError(f"coupling = {coupling!r} with tau_c = {tau_c!r} and dt = {dt!r} gives "
                          f"-ln(coherence) = {first:.3g} at t = dt, below the 1e-12 the "
                          "short-time fit resolves: raise coupling, tau_c or dt")
    coarse = tau_c / 10.0
    fine_end = min(coarse, t_end)
    fine_steps, coarse_steps = fine_end / dt - 1e-9, (t_end - fine_end) / coarse
    if fine_steps <= 1.0:       # ceil(fine_steps) points lie in the short fit's (0, tau_c/10]
        raise ConfigError(f"dt ({dt!r}) leaves the short-time fit over t <= tau_c/10 "
                          f"({coarse!r}) fewer than two grid points: lower dt or raise tau_c")
    fine, whole = ((math.ceil(fine_steps), math.floor(coarse_steps + 1e-9))
                   if math.isfinite(fine_steps + coarse_steps) else (math.inf, math.inf))
    tail = int(coarse_steps - whole > 1e-9)
    points = _bound(fine + 1 + whole + tail, MAX_SCAN_POINTS, "t_end and dt ask for",
                    "grid points", "lower t_end or raise dt")
    work = _bound(trajectories * points, MAX_MC_INTERVALS, f"trajectories x grid points = "
                  f"{trajectories} x {points} asks for", "noise values",
                  "lower trajectories or t_end, or raise dt")
    if not math.isfinite(rate * t_end + points * t_end * t_end):  # the slope fit sums t^2
        raise ConfigError(f"tau_c = {tau_c!r} with coupling = {coupling!r} and t_end = {t_end!r} "
                          "overflows the decay exponent 4 coupling^2 tau_c t_end or the fit's "
                          "sum of t^2: lower tau_c, coupling or t_end")
    floor = 2.0 / math.sqrt(trajectories)
    if math.exp(-last) < floor:
        raise ConfigError(f"coupling = {coupling!r} with tau_c = {tau_c!r} leaves a coherence "
                          f"of {math.exp(-last):.3g} at t_end = {t_end!r}, under the Monte Carlo "
                          f"noise floor 2/sqrt(trajectories) = {floor:.3g} (trajectories = "
                          f"{trajectories}): lower coupling, tau_c or t_end, or raise trajectories")
    grid = np.concatenate([dt * np.arange(fine), [fine_end],
                           fine_end + coarse * np.arange(1, whole + 1), [t_end] * tail])
    return Plan(grid, points, work)


def _sweep_plan(settings: dict[str, Any], mc: bool) -> Plan:
    times, n_max = settings["times"], settings["n_max"]
    trajectories = settings["trajectories"] if mc else 0    # a row and an MC run per (t, N)
    rows = _bound(len(times) * n_max, MAX_TABLE_ROWS, "times x n_max asks for", "table rows",
                  "lower times or n_max")
    work = _bound(trajectories * len(times) * n_max * (n_max + 1) // 2, MAX_MC_INTERVALS,
                  f"trajectories x len(times) x n_max(n_max+1)/2 = {trajectories} x {len(times)} "
                  f"x {n_max}({n_max}+1)/2 asks for", "trajectory-intervals",
                  "lower trajectories, n_max or times")
    return Plan(times, rows, work)


def _surface_plan(settings: dict[str, Any], t_min, t_max, points: int, keys) -> Plan:
    if t_min > t_max:
        raise ConfigError(f"t_min ({t_min!r}) must not exceed t_max ({t_max!r})")
    rows = _bound(points * settings["n_max"], MAX_TABLE_ROWS, f"{' x '.join(keys)} asks for",
                  "table rows", f"lower {' or '.join(keys)}")
    return Plan(np.linspace(t_min, t_max, points), rows, 0)


_PLANNERS: dict[str, Callable[[dict[str, Any]], Plan]] = {
    "decay_curve": _decay_plan,
    "crossover_scan": _crossover_plan,
    "figure2": lambda s: _sweep_plan(s, s["engine"] == "mc"),
    "mc_validate": lambda s: _sweep_plan(s, True),
    "figure3": lambda s: _surface_plan(s, s["t_min"], s["t_max"], s["t_points"],
                                       ("t_points", "n_max")),
    "ratio_plot": lambda s: _surface_plan(s, s["t"], s["t"], 1, ("n_max",)),
}
