"""Run configuration: INI-style file, published schema, flag overrides.

A run config is a sectioned key-value file validated against the schema
below before any work starts; unknown sections or keys are rejected.
Every key can be overridden on the command line with
``--set section.key=value``. ``QUANTGYM_OUT`` overrides [run]
output_dir.
"""
from __future__ import annotations

import configparser
import hashlib
import io
import math
import os
from dataclasses import dataclass, field

from .errors import ConfigError

# section -> key -> (type tag, default). Types: str, int, float, bool.
SCHEMA: dict[str, dict[str, tuple[str, str]]] = {
    "data": {
        "source": ("str", "synthetic"),  # path, or "synthetic" for shipped csv
        "format": ("str", "csv"),  # csv | dir
        "frequency": ("str", "1day"),
        "calendar_rule": ("str", "intersection"),
        "fill_rule": ("str", "fill"),
        "min_coverage": ("float", "0.0"),
        "events_file": ("str", ""),
        "events_kind": ("str", "sentiment"),
    },
    "features": {
        "indicators": ("str", "macd,rsi,cci,adx"),
        "turbulence_window": ("int", "252"),
    },
    "env": {
        "kind": ("str", "trading"),  # trading | portfolio
        "initial_capital": ("float", "1000000.0"),
        "cost_rate": ("float", "0.001"),
        "h_max": ("int", "100"),
        "allow_short": ("bool", "false"),
        "allow_margin": ("bool", "false"),
        "risk_indicator": ("str", "none"),  # none | turbulence | vix
        "risk_threshold": ("float", "100.0"),
        "reward_scale": ("float", "1.0"),
        "turnover_cost_rate": ("float", "0.0"),
        "vix_ticker": ("str", "VIX"),
    },
    "agent": {
        "type": ("str", "a2c"),  # a2c | cem | passive | equal | mean_variance | zero
        "steps": ("int", "512"),
        "learning_rate": ("float", "0.003"),
        "gamma": ("float", "0.99"),
        "rollout_steps": ("int", "16"),
        "hidden": ("int", "32"),
        "entropy_coef": ("float", "0.001"),
        "population": ("int", "24"),
        "elite_frac": ("float", "0.25"),
        "iterations": ("int", "20"),
        "rebalance_every": ("int", "1"),
        "risk_aversion": ("float", "1.0"),
        "grid": ("str", ""),  # e.g. "learning_rate=0.01,0.001;hidden=16,32"
        "policy_file": ("str", ""),
    },
    "pipeline": {
        "n_train": ("int", "20"),
        "n_test": ("int", "5"),
        "n_trade": ("int", "5"),
        "annualization_basis": ("int", "365"),
    },
    "sentiment": {
        "financial": ("str", ""),  # empty -> shipped fixtures
        "general": ("str", ""),
        "master": ("str", ""),
        "synonyms": ("str", ""),
        "subjectivity": ("str", ""),
        "overrides": ("str", ""),
        "resolutions": ("str", ""),
        "dictionary": ("str", ""),
        "shifters": ("str", ""),
        "corpus": ("str", ""),
        "input": ("str", ""),
    },
    "run": {
        "output_dir": ("str", "runs/latest"),
        "seed": ("int", "0"),
    },
}

_BOOL_TRUE = {"1", "true", "yes", "on"}
_BOOL_FALSE = {"0", "false", "no", "off"}


def _coerce(section: str, key: str, raw: str):
    kind, _default = SCHEMA[section][key]
    raw = raw.strip()
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            value = float(raw)
            if not math.isfinite(value):
                raise ConfigError(
                    f"[{section}] {key} = {raw!r} is not a finite float")
            return value
        if kind == "bool":
            low = raw.lower()
            if low in _BOOL_TRUE:
                return True
            if low in _BOOL_FALSE:
                return False
            raise ValueError(raw)
        return raw
    except ValueError:
        raise ConfigError(
            f"[{section}] {key} = {raw!r} is not a valid {kind}") from None


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

        Format: semicolon-separated "field=v1,v2" groups; the grid is
        their cartesian product, empty string meaning a single default
        point.
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
            kind = SCHEMA["agent"][name][0]
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
                  for key, (_, default) in keys.items()}
        for section, keys in SCHEMA.items()
    }
    return RunConfig(sections)


def load_config(path: str | None = None,
                overrides: list[str] | None = None) -> RunConfig:
    """Parse, validate, and apply --set overrides.

    Raises ConfigError for unreadable files, unknown sections/keys, or
    type errors; this maps to CLI exit code 2.
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
    if sections["run"]["seed"] < 0:
        raise ConfigError("run.seed must be >= 0")
    pipeline = sections["pipeline"]
    if pipeline["n_train"] < 1 or pipeline["n_test"] < 0 or pipeline["n_trade"] < 1:
        raise ConfigError("need pipeline.n_train >= 1, pipeline.n_test >= 0 "
                          "and pipeline.n_trade >= 1")
    env_out = os.environ.get("QUANTGYM_OUT")
    if env_out:
        sections["run"]["output_dir"] = env_out
    return RunConfig(sections)

