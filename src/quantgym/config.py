"""Run configuration: INI-style file, published schema, flag overrides.

A run config is a sectioned key-value file validated against the schema
below before any work starts: unknown sections or keys are rejected, and
so is any value outside its key's domain. Every key can be overridden on
the command line with ``--set section.key=value``. ``QUANTGYM_OUT``
overrides [run] output_dir.
"""
from __future__ import annotations

import configparser
import hashlib
import io
import math
import os
from dataclasses import dataclass, field

from .errors import ConfigError, FeatureError

# data.frequency -> seconds per bar
FREQUENCY_SECONDS = {
    "1min": 60,
    "5min": 300,
    "15min": 900,
    "30min": 1800,
    "1h": 3600,
    "1day": 86400,
    "1d": 86400,
}

# indicator kind -> its default periods
INDICATOR_DEFAULTS = {
    "MACD": (12, 26, 9),
    "RSI": (14,),
    "CCI": (20,),
    "ADX": (14,),
    "SMA": (20,),
    "EMA": (20,),
}

# section -> key -> (type tag, default, domain). Types: str, int, float,
# bool. A domain is a tuple of the allowed values, an interval written
# like "(0, 1]", or None for any value of the type; ``check_domain``
# reads it for the config and for the dataclasses built from it.
SCHEMA: dict[str, dict[str, tuple]] = {
    "data": {
        # a path, or "synthetic" for the shipped csv
        "source": ("str", "synthetic", None),
        "format": ("str", "csv", ("csv", "dir")),
        "frequency": ("str", "1day", tuple(FREQUENCY_SECONDS)),
        "calendar_rule": ("str", "intersection", ("intersection", "union")),
        "fill_rule": ("str", "fill", ("fill", "drop-ticker")),
        "min_coverage": ("float", "0.0", "[0, 1]"),
        "events_file": ("str", "", None),
        "events_kind": ("str", "sentiment", ("sentiment", "fundamental")),
    },
    "features": {
        "indicators": ("str", "macd,rsi,cci,adx", None),  # see parse_indicators
        "turbulence_window": ("int", "252", None),
    },
    "env": {
        "kind": ("str", "trading", ("trading", "portfolio")),
        "initial_capital": ("float", "1000000.0", "(0, inf)"),
        "cost_rate": ("float", "0.001", "[0, 0.1]"),
        "h_max": ("int", "100", "[1, inf)"),
        "allow_short": ("bool", "false", None),
        "allow_margin": ("bool", "false", None),
        "risk_indicator": ("str", "none", ("none", "turbulence", "vix")),
        "risk_threshold": ("float", "100.0", None),
        "reward_scale": ("float", "1.0", "(0, inf)"),
        "turnover_cost_rate": ("float", "0.0", "[0, 0.1]"),
        "vix_ticker": ("str", "VIX", None),
    },
    "agent": {
        "type": ("str", "a2c", ("a2c", "cem", "passive", "equal",
                                "mean_variance", "zero")),
        "steps": ("int", "512", "[1, inf)"),
        "learning_rate": ("float", "0.003", "(0, inf)"),
        "gamma": ("float", "0.99", "(0, 1]"),
        "rollout_steps": ("int", "16", "[1, inf)"),
        "hidden": ("int", "32", "[1, inf)"),
        "entropy_coef": ("float", "0.001", None),
        "population": ("int", "24", "[2, inf)"),
        "elite_frac": ("float", "0.25", "(0, 1]"),
        "iterations": ("int", "20", "[1, inf)"),
        "rebalance_every": ("int", "1", "[1, inf)"),
        "risk_aversion": ("float", "1.0", "[0, inf)"),
        # e.g. "learning_rate=0.01,0.001;hidden=16,32"
        "grid": ("str", "", None),
        "policy_file": ("str", "", None),
    },
    "pipeline": {
        "n_train": ("int", "20", "[1, inf)"),
        "n_test": ("int", "5", "[0, inf)"),
        "n_trade": ("int", "5", "[1, inf)"),
        "annualization_basis": ("int", "365", (252, 365)),
    },
    "sentiment": {
        "financial": ("str", "", None),  # empty -> shipped fixtures
        "general": ("str", "", None),
        "master": ("str", "", None),
        "synonyms": ("str", "", None),
        "subjectivity": ("str", "", None),
        "overrides": ("str", "", None),
        "resolutions": ("str", "", None),
        "dictionary": ("str", "", None),
        "shifters": ("str", "", None),
        "corpus": ("str", "", None),
        "input": ("str", "", None),
    },
    "run": {
        "output_dir": ("str", "runs/latest", None),
        "seed": ("int", "0", "[0, inf)"),
    },
}

# the [agent] keys a TrainConfig takes; a grid may vary these and type
TRAINING_KEYS = ("steps", "learning_rate", "gamma", "rollout_steps", "hidden",
                 "entropy_coef", "population", "elite_frac", "iterations")


def check_domain(section: str, key: str, value, error=ConfigError):
    """``value`` if it lies in the domain of [section] key, else
    ``error`` naming the key and the domain."""
    domain = SCHEMA[section][key][2]
    if domain is None:
        return value
    if isinstance(domain, tuple):
        if value in domain:
            return value
        raise error(f"[{section}] {key} = {value!r} is not one of "
                    f"{', '.join(map(str, domain))}")
    lo, hi = map(float, domain[1:-1].split(","))
    if ((lo < value or lo == value and domain[0] == "[")
            and (value < hi or value == hi and domain[-1] == "]")):
        return value
    raise error(f"[{section}] {key} = {value!r} is outside {domain}")


@dataclass(frozen=True)
class IndicatorSpec:
    kind: str
    params: tuple[int, ...] = ()

    def __post_init__(self):
        kind = self.kind.upper()
        if kind not in INDICATOR_DEFAULTS:
            raise FeatureError(f"unknown indicator kind {self.kind!r}")
        object.__setattr__(self, "kind", kind)
        params = tuple(int(p) for p in self.params) or INDICATOR_DEFAULTS[kind]
        if len(params) != len(INDICATOR_DEFAULTS[kind]):
            raise FeatureError(
                f"{kind} takes {len(INDICATOR_DEFAULTS[kind])} period(s), "
                f"got {params}")
        if any(p < 1 for p in params):
            raise FeatureError(f"{kind} periods must be >= 1, got {params}")
        object.__setattr__(self, "params", params)

    @property
    def name(self) -> str:
        return "_".join([self.kind.lower()] + [str(p) for p in self.params])


def parse_indicators(spec_text: str) -> list[IndicatorSpec]:
    """"macd,rsi:7" -> [IndicatorSpec("MACD"), IndicatorSpec("RSI", (7,))];
    ConfigError naming [features] indicators unless every chunk is a
    known kind with integer periods of at least 1."""
    specs = []
    for chunk in spec_text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        kind, *periods = chunk.split(":")
        try:
            specs.append(IndicatorSpec(kind, tuple(int(p) for p in periods)))
        except ValueError:
            raise ConfigError(f"[features] indicators: {chunk!r} has a "
                              f"non-integer period") from None
        except FeatureError as exc:
            raise ConfigError(f"[features] indicators: {exc}") from None
    if not specs:
        raise ConfigError("[features] indicators selects no indicators")
    return specs


_BOOL_TRUE = {"1", "true", "yes", "on"}
_BOOL_FALSE = {"0", "false", "no", "off"}


def _coerce(section: str, key: str, raw: str):
    kind = SCHEMA[section][key][0]
    raw = raw.strip()
    try:
        if kind == "int":
            value = int(raw)
        elif kind == "float":
            value = float(raw)
            if not math.isfinite(value):
                raise ConfigError(
                    f"[{section}] {key} = {raw!r} is not a finite float")
        elif kind == "bool":
            low = raw.lower()
            if low not in _BOOL_TRUE and low not in _BOOL_FALSE:
                raise ValueError(raw)
            value = low in _BOOL_TRUE
        else:
            value = raw
    except ValueError:
        raise ConfigError(
            f"[{section}] {key} = {raw!r} is not a valid {kind}") from None
    return check_domain(section, key, value)


@dataclass(frozen=True)
class RunConfig:
    sections: dict = field(default_factory=dict)

    def __getitem__(self, section: str) -> dict:
        return self.sections[section]

    def get(self, section: str, key: str):
        return self.sections[section][key]

    def canonical(self) -> str:
        out = io.StringIO()
        for section in sorted(self.sections):
            out.write(f"[{section}]\n")
            for key in sorted(self.sections[section]):
                out.write(f"{key} = {self.sections[section][key]}\n")
        return out.getvalue()

    def digest(self) -> str:
        return hashlib.sha256(self.canonical().encode()).hexdigest()

    def hyper_grid(self) -> list[dict]:
        """Expand [agent] grid into a list of TrainConfig overrides.

        Format: semicolon-separated "field=v1,v2" groups, each field one
        of ``TRAINING_KEYS`` or type; the grid is their cartesian
        product, empty string meaning a single default point.
        """
        spec = self.get("agent", "grid").strip()
        if not spec:
            return [{}]
        axes: list[tuple[str, list]] = []
        for group in spec.split(";"):
            group = group.strip()
            if not group:
                continue
            if "=" not in group:
                raise ConfigError(f"bad grid group {group!r}")
            name, values = group.split("=", 1)
            name = name.strip()
            if name not in SCHEMA["agent"]:
                raise ConfigError(f"grid refers to unknown agent key {name!r}")
            if name not in TRAINING_KEYS and name != "type":
                raise ConfigError(f"grid key {name!r} is not a training field")
            parsed = [_coerce("agent", name, v) for v in values.split(",") if v]
            if not parsed:
                raise ConfigError(f"grid group {group!r} has no values")
            axes.append((name, parsed))
        grid = [{}]
        for name, values in axes:
            grid = [dict(point, **{name: v}) for point in grid for v in values]
        return grid


def default_config() -> RunConfig:
    sections = {
        section: {key: _coerce(section, key, default)
                  for key, (_, default, _) in keys.items()}
        for section, keys in SCHEMA.items()
    }
    return RunConfig(sections)


def load_config(path: str | None = None,
                overrides: list[str] | None = None) -> RunConfig:
    """Parse, validate, and apply --set overrides.

    Raises ConfigError (CLI exit code 2), before any input file the
    config names is read, for an unreadable config file, an unknown
    section or key, a value its type cannot parse, a value outside its
    key's SCHEMA domain (file values, --set values and agent.grid values
    alike), a features.indicators that ``parse_indicators`` refuses, or
    an agent.grid over anything but ``TRAINING_KEYS`` and type.
    """
    config = default_config()
    sections = {s: dict(kv) for s, kv in config.sections.items()}
    if path is not None:
        parser = configparser.ConfigParser(interpolation=None)
        try:
            with open(path, encoding="utf-8") as fh:
                parser.read_file(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from None
        except configparser.Error as exc:
            raise ConfigError(f"cannot parse config {path}: {exc}") from None
        for section in parser.sections():
            if section not in SCHEMA:
                raise ConfigError(f"unknown config section [{section}]")
            for key, raw in parser.items(section):
                if key not in SCHEMA[section]:
                    raise ConfigError(f"unknown key {key!r} in [{section}]")
                sections[section][key] = _coerce(section, key, raw)
    for item in overrides or []:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(
                f"override {item!r} must look like section.key=value")
        dotted, raw = item.split("=", 1)
        section, key = dotted.split(".", 1)
        if section not in SCHEMA or key not in SCHEMA[section]:
            raise ConfigError(f"unknown config key {section}.{key}")
        sections[section][key] = _coerce(section, key, raw)
    parse_indicators(sections["features"]["indicators"])
    env_out = os.environ.get("QUANTGYM_OUT")
    if env_out:
        sections["run"]["output_dir"] = env_out
    config = RunConfig(sections)
    config.hyper_grid()
    return config
