"""Flat key=value experiment configuration.

Grammar: one ``key=value`` per line, ``#`` starts a comment, blank lines are
ignored.  Unknown keys are rejected by name, malformed lines and type or
constraint violations are reported with their line number, and a duplicated
key keeps the last value while emitting a warning.

Every experiment fills unspecified keys from documented defaults; times are
in ns, ``inf`` is accepted where a decay channel can be switched off.
"""

import math
import warnings
from dataclasses import dataclass
from typing import Any, Callable

EXPERIMENTS = ("decay_curve", "crossover_scan", "figure2", "figure3",
               "ratio_plot", "mc_validate")

DEFAULT_BASE_SEED = 123456789


class ConfigError(ValueError):
    """Configuration text could not be parsed or validated."""


@dataclass(frozen=True)
class Field:
    parse: Callable[[str], Any]
    default: Any = None
    required: bool = False
    check: Callable[[Any], str | None] = lambda v: None
    choices: tuple[str, ...] | None = None


def _parse_float(allow_inf=False, allow_zero=True, allow_negative=False):
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
        if not allow_zero and value == 0.0:
            return "must be nonzero"
        return None

    return parse, check


def _parse_int(minimum: int):
    def parse(text: str) -> int:
        return int(text, 10)

    def check(value: int) -> str | None:
        return None if value >= minimum else f"must be >= {minimum}"

    return parse, check


def _parse_float_list(text: str) -> tuple[float, ...]:
    values = tuple(float(part) for part in text.split(",") if part.strip() != "")
    if not values:
        raise ValueError("empty list")
    if any(not math.isfinite(v) for v in values):
        raise ValueError("list entries must be finite")
    return values


def _float_field(default=None, required=False, allow_inf=False, positive=False,
                 allow_negative=False) -> Field:
    parse, check = _parse_float(allow_inf=allow_inf, allow_zero=not positive,
                                allow_negative=allow_negative)
    return Field(parse=parse, default=default, required=required, check=check)


def _int_field(default=None, required=False, minimum=1) -> Field:
    parse, check = _parse_int(minimum)
    return Field(parse=parse, default=default, required=required, check=check)


def _choice_field(choices: tuple[str, ...], default: str) -> Field:
    def parse(text: str) -> str:
        return text.strip().lower()

    def check(value: str) -> str | None:
        return None if value in choices else f"must be one of {', '.join(choices)}"

    return Field(parse=parse, default=default, check=check, choices=choices)


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

SCHEMAS: dict[str, dict[str, Field]] = {
    "decay_curve": {
        **_COMMON, **_RATE_BLOCK,
        "t_end": _float_field(default=100.0),
        # dt <= min(T1, T2)/200 when left unset
        "dt": _float_field(default=None, positive=True),
    },
    "crossover_scan": {
        **_COMMON,
        "coupling": _float_field(default=0.1),
        "tau_c": _float_field(default=1.0, positive=True),
        "t_end": _float_field(default=None, positive=True),     # 40 tau_c
        "dt": _float_field(default=None, positive=True),        # tau_c/100
        "trajectories": _int_field(default=100_000, minimum=100),
    },
    "figure2": {
        **_COMMON, **_RATE_BLOCK,
        "times": Field(parse=_parse_float_list, default=(20.0, 25.0, 30.0, 35.0),
                       check=lambda v: None if all(x > 0 for x in v) else "times must be > 0"),
        "n_max": _int_field(default=20),
        "engine": _choice_field(("analytic", "mc"), "analytic"),
        "trajectories": _int_field(default=100_000, minimum=1000),
        "noise_reset": _choice_field(("resample", "persistent"), "resample"),
    },
    "figure3": {
        **_COMMON, **_RATE_BLOCK,
        "t_min": _float_field(default=50.0, positive=True),
        "t_max": _float_field(default=800.0, positive=True),
        "t_points": _int_field(default=16, minimum=1),
        "n_max": _int_field(default=16),
    },
    "ratio_plot": {
        **_COMMON, **_RATE_BLOCK,
        "t": _float_field(default=400.0, positive=True),
        "n_max": _int_field(default=16),
    },
    "mc_validate": {
        **_COMMON, **_RATE_BLOCK,
        "times": Field(parse=_parse_float_list, default=(20.0, 25.0, 30.0, 35.0),
                       check=lambda v: None if all(x > 0 for x in v) else "times must be > 0"),
        "n_max": _int_field(default=20),
        "trajectories": _int_field(default=10_000, minimum=1000),
        "noise_reset": _choice_field(("resample", "persistent"), "resample"),
    },
}

# figure3/ratio_plot probe the long-T2 regime by default
SCHEMAS["figure3"]["t2"] = _float_field(default=400.0, allow_inf=True, positive=True)
SCHEMAS["ratio_plot"]["t2"] = _float_field(default=400.0, allow_inf=True, positive=True)


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
        if key in settings:
            continue
        if field.required:
            raise ConfigError(f"missing required key {key!r} for experiment {experiment!r}")
        settings[key] = field.default

    _resolve_derived_defaults(experiment, settings)
    return ExperimentConfig(experiment, settings)


def _resolve_derived_defaults(experiment: str, settings: dict[str, Any]) -> None:
    if experiment == "decay_curve" and settings["dt"] is None:
        scale = min(settings["t1"], settings["t2"])
        if math.isinf(scale):
            scale = max(settings["t_end"], 1.0)
        settings["dt"] = scale / 200.0
    if experiment == "figure3" and settings["t_min"] > settings["t_max"]:
        raise ConfigError(f"t_min ({settings['t_min']!r}) must not exceed "
                          f"t_max ({settings['t_max']!r})")
    if experiment == "crossover_scan":
        if settings["t_end"] is None:
            settings["t_end"] = 40.0 * settings["tau_c"]
        if settings["dt"] is None:
            settings["dt"] = settings["tau_c"] / 100.0
        if settings["dt"] > settings["tau_c"] / 10.0:
            raise ConfigError("dt must not exceed tau_c/10")
