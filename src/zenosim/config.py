"""Flat key=value experiment configuration.

Grammar: one ``key=value`` per line, ``#`` starts a comment, blank lines are
ignored.  Unknown keys are rejected by name, malformed lines and type or
constraint violations are reported with their line number, and a duplicated
key keeps the last value while emitting a warning.

Every experiment fills unspecified keys from documented defaults; times are
in ns, ``inf`` is accepted where a decay channel can be switched off.
``mc_validate`` and ``ratio_plot`` run on the ``figure2`` and ``figure3``
runners, so each pair builds its schema from one shared block.  Parsing also
bounds each run's work: table rows, scan points and MC trajectory-intervals.
"""

import math
import warnings
from dataclasses import dataclass
from typing import Any, Callable

DEFAULT_BASE_SEED = 123456789

# bounds that keep every accepted run short: a table row costs about 13 us
# and 0.7 kB in decay_curve (its RK4 step, lab-frame state and CSV line) and
# at most 10 us in analytic figure2/figure3, so about 1.3 s at the row bound;
# crossover_scan costs about 4 ms per grid point at 1e5 trajectories on 2 CPUs
# (its memory does not grow with the grid), and an MC sweep about 3 s per
# 8.4e7 trajectory-intervals (the figure2 engine=mc defaults) on 2 CPUs, so
# about 20 s at the bound; crossover_scan's trajectories x grid points cost
# about the same per value (1.5 s per 4.1e7 at its defaults) and share it
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


def _float_field(default=None, allow_inf=False, positive=False,
                 allow_negative=False) -> Field:
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


def _str_field(default=None) -> Field:
    return Field(parse=lambda s: s.strip(), default=default)


_COMMON = {
    "out": _str_field(default="out"),
    "base_seed": _int_field(default=DEFAULT_BASE_SEED, minimum=0),
}

_RATE_BLOCK = {
    "t1": _float_field(default=1000.0, allow_inf=True, positive=True),
    "t2": _float_field(default=20.0, allow_inf=True, positive=True),
    "epsilon": _float_field(default=1.0, allow_negative=True),
    "delta": _float_field(default=0.0, allow_negative=True),
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
        "t_end": _float_field(default=100.0),
        # dt <= min(T1, T2)/200 when left unset
        "dt": _float_field(default=None, positive=True),
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
class ExperimentConfig:
    experiment: str
    settings: dict[str, Any]

    def __getitem__(self, key: str) -> Any:
        return self.settings[key]


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
            warnings.warn(f"duplicate key {key!r} on line {lineno}; last value wins",
                          stacklevel=2)
        raw[key] = (lineno, value)

    if "experiment" not in raw:
        raise ConfigError("missing required key 'experiment'")
    lineno, experiment = raw.pop("experiment")
    experiment = experiment.strip().lower()
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"line {lineno}: unknown experiment {experiment!r}; "
                          f"expected one of {', '.join(EXPERIMENTS)}")

    schema = SCHEMAS[experiment]
    settings: dict[str, Any] = {}
    for key, (lineno, value) in raw.items():
        if key not in schema:
            raise ConfigError(f"line {lineno}: unknown key {key!r} for experiment "
                              f"{experiment!r}")
        field = schema[key]
        try:
            parsed = field.parse(value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
        problem = field.check(parsed)
        if problem:
            raise ConfigError(f"line {lineno}: {key} {problem} (got {parsed!r})")
        settings[key] = parsed

    for key, field in schema.items():
        settings.setdefault(key, field.default)

    _resolve_derived_defaults(experiment, settings)
    _check_exponents(settings)
    return ExperimentConfig(experiment, settings)


def _check_exponents(settings: dict[str, Any]) -> None:
    """Reject values that overflow a decay exponent or the crossover_scan fit.

    The exponents are t/T1, (t/T2)^2, 4 coupling^2 tau_c and 4 coupling^2
    tau_c t_end; the fit sums t^2 over the grid.
    """
    if "t1" in settings:
        t1, t2 = settings["t1"], settings["t2"]
        gamma1 = 0.0 if math.isinf(t1) else 1.0 / t1
        gamma2 = 0.0 if math.isinf(t2) else 1.0 / t2
        for key in ("t", "t_end", "t_min", "t_max", "times"):
            values = settings.get(key, ())
            for t in values if isinstance(values, tuple) else (values,):
                if not (math.isfinite(gamma1 * t)
                        and math.isfinite((gamma2 * t) * (gamma2 * t))):
                    raise ConfigError(
                        f"{key} = {t!r} overflows the decay exponent t/t1 or (t/t2)^2 "
                        f"(t1 = {t1!r}, t2 = {t2!r}): "
                        f"lower {key} or raise t1 and t2")
    if "coupling" in settings:
        coupling, tau_c, t_end = settings["coupling"], settings["tau_c"], settings["t_end"]
        rate = 4.0 * coupling * coupling * tau_c
        if not math.isfinite(rate):
            raise ConfigError(f"coupling = {coupling!r} with tau_c = {tau_c!r} overflows the "
                              "decay rate 4 coupling^2 tau_c: lower coupling or tau_c")
        # the slope fit sums t^2 over up to MAX_SCAN_POINTS grid points
        if not (math.isfinite(rate * t_end) and math.isfinite(MAX_SCAN_POINTS * t_end * t_end)):
            raise ConfigError(f"tau_c = {tau_c!r} with coupling = {coupling!r} and t_end = "
                              f"{t_end!r} overflows the decay exponent 4 coupling^2 tau_c t_end "
                              "or the fit's sum of t^2: lower tau_c, coupling or t_end")


def _resolve_derived_defaults(experiment: str, settings: dict[str, Any]) -> None:
    if experiment == "decay_curve":
        derived = settings["dt"] is None
        if derived:
            scale = min(settings["t1"], settings["t2"])
            if math.isinf(scale):
                scale = max(settings["t_end"], 1.0)
            settings["dt"] = scale / 200.0
        # integrate takes ceil(t_end/dt - 1e-12) steps, one table row each plus
        # the row at t = 0; ceil(x) + 1 > n exactly when x > n - 1
        steps = settings["t_end"] / settings["dt"]
        if steps - 1e-12 > MAX_TABLE_ROWS - 1:
            source = f" (dt = min(t1, t2)/200 = {settings['dt']:.3g})" if derived else ""
            raise ConfigError(f"t_end/dt{source} asks for {steps + 1:.6g} table rows (RK4 steps "
                              f"+ 1), more than {MAX_TABLE_ROWS}: lower t_end or raise dt")
    if "n_max" in settings:
        # a row per (t, N): figure2 and mc_validate over times, figure3 over
        # t_points, ratio_plot at its one t
        if "times" in settings:
            points, keys = len(settings["times"]), ("times", "n_max")
        elif "t_points" in settings:
            points, keys = settings["t_points"], ("t_points", "n_max")
        else:
            points, keys = 1, ("n_max",)
        if points * settings["n_max"] > MAX_TABLE_ROWS:
            raise ConfigError(f"{' x '.join(keys)} asks for {points * settings['n_max']} table "
                              f"rows, more than {MAX_TABLE_ROWS}: lower {' or '.join(keys)}")
    if "times" in settings and settings.get("engine", "mc") == "mc":
        trajectories, n_max = settings["trajectories"], settings["n_max"]
        points = len(settings["times"])
        if trajectories * points * n_max * (n_max + 1) // 2 > MAX_MC_INTERVALS:
            raise ConfigError(f"trajectories x len(times) x n_max(n_max+1)/2 = {trajectories} x "
                              f"{points} x {n_max}({n_max}+1)/2 trajectory-intervals is more than "
                              f"{MAX_MC_INTERVALS:.3g}: lower trajectories, n_max or times")
    if experiment == "figure3" and settings["t_min"] > settings["t_max"]:
        raise ConfigError(f"t_min ({settings['t_min']!r}) must not exceed "
                          f"t_max ({settings['t_max']!r})")
    if experiment == "crossover_scan":
        if settings["t_end"] is None:
            settings["t_end"] = 40.0 * settings["tau_c"]
        if settings["dt"] is None:
            settings["dt"] = settings["tau_c"] / 100.0
        tau_c, dt, t_end = settings["tau_c"], settings["dt"], settings["t_end"]
        if t_end < 2.0 * dt:     # the decay fits need the points dt and 2 dt
            raise ConfigError(f"t_end ({t_end!r}) must be at least 2 dt ({dt!r})")
        # the short-time fit needs two grid points in (0, tau_c/10], where the grid
        # has ceil(min(tau_c/10, t_end)/dt - 1e-9) of them; ceil(x) < 2 exactly when x <= 1
        if min(tau_c / 10.0, t_end) / dt - 1e-9 <= 1.0:
            raise ConfigError(f"dt ({dt!r}) leaves the short-time fit over t <= tau_c/10 "
                              f"({tau_c / 10.0!r}) fewer than two grid points: lower dt or "
                              "raise tau_c")
        # dt-spaced up to tau_c/10, then tau_c/10-spaced up to t_end
        points = tau_c / 10.0 / dt + 10.0 * t_end / tau_c
        if points > MAX_SCAN_POINTS:
            raise ConfigError(f"t_end and dt ask for about {points:.3g} grid points, more than "
                              f"{MAX_SCAN_POINTS}: lower t_end or raise dt")
        # a noise value per trajectory and grid point costs about what an MC
        # sweep's trajectory-interval does
        if settings["trajectories"] * points > MAX_MC_INTERVALS:
            raise ConfigError(f"trajectories x grid points = {settings['trajectories']} x "
                              f"{points:.3g} is more than {MAX_MC_INTERVALS:.3g}: lower "
                              "trajectories or t_end, or raise dt")
