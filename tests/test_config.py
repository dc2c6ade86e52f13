"""Config parsing, schema validation, overrides, and grid expansion."""
import numpy as np
import pytest

from quantgym.agents import TrainConfig
from quantgym.config import default_config, load_config
from quantgym.envs import EnvConfig
from quantgym.errors import (ConfigError, DataError, EnvError, FeatureError,
                             TrainingError)
from quantgym.features import EventSeries
from quantgym.market_data import BarTable, CleaningPolicy, ingest_csv


def test_defaults_load_without_file():
    config = load_config(None)
    assert config.get("env", "cost_rate") == 0.001
    assert config.get("pipeline", "n_train") == 20
    assert config.get("run", "seed") == 0


def test_file_values_override_defaults(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("[env]\ncost_rate = 0.002\nallow_short = true\n")
    config = load_config(str(path))
    assert config.get("env", "cost_rate") == 0.002
    assert config.get("env", "allow_short") is True


def test_unknown_section_rejected(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("[mystery]\nx = 1\n")
    with pytest.raises(ConfigError, match="unknown config section"):
        load_config(str(path))


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("[env]\nslippage = 0.1\n")
    with pytest.raises(ConfigError, match="unknown key"):
        load_config(str(path))


def test_type_errors_rejected(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("[env]\nh_max = lots\n")
    with pytest.raises(ConfigError, match="not a valid int"):
        load_config(str(path))


@pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "Infinity", "-NaN"])
def test_non_finite_float_rejected(tmp_path, raw):
    with pytest.raises(ConfigError, match="not a finite float"):
        load_config(None, [f"agent.learning_rate={raw}"])
    path = tmp_path / "run.cfg"
    path.write_text(f"[env]\nrisk_threshold = {raw}\n")
    with pytest.raises(ConfigError, match=r"\[env\] risk_threshold"):
        load_config(str(path))
    with pytest.raises(ConfigError, match="not a finite float"):
        load_config(None, [f"agent.grid=learning_rate=0.1,{raw}"]).hyper_grid()


def test_set_overrides():
    config = load_config(None, ["env.h_max=250", "agent.type=cem"])
    assert config.get("env", "h_max") == 250
    assert config.get("agent", "type") == "cem"


def test_bad_override_shape():
    with pytest.raises(ConfigError, match="section.key=value"):
        load_config(None, ["h_max=250"])


def test_unknown_override_key():
    with pytest.raises(ConfigError, match="unknown config key"):
        load_config(None, ["env.slippage=1"])


def test_env_var_overrides_output_dir(monkeypatch):
    monkeypatch.setenv("QUANTGYM_OUT", "/tmp/elsewhere")
    config = load_config(None)
    assert config.get("run", "output_dir") == "/tmp/elsewhere"


def test_digest_stable_and_sensitive():
    a = load_config(None)
    b = load_config(None)
    assert a.digest() == b.digest()
    c = load_config(None, ["env.h_max=7"])
    assert c.digest() != a.digest()


def test_hyper_grid_expansion():
    config = load_config(None, [
        "agent.grid=learning_rate=0.01,0.001;hidden=8,16"])
    grid = config.hyper_grid()
    assert len(grid) == 4
    assert {"learning_rate": 0.01, "hidden": 8} in grid
    assert {"learning_rate": 0.001, "hidden": 16} in grid


def test_empty_grid_is_single_point():
    assert load_config(None).hyper_grid() == [{}]


def test_grid_unknown_field_rejected():
    with pytest.raises(ConfigError, match="unknown agent key"):
        load_config(None, ["agent.grid=warp=1,2"])


@pytest.mark.parametrize("build,error,override", [
    (lambda: EnvConfig(cost_rate=0.5), EnvError, "env.cost_rate=0.5"),
    (lambda: TrainConfig(gamma=0.0), TrainingError, "agent.gamma=0"),
    (lambda: CleaningPolicy(min_coverage=2.0), DataError,
     "data.min_coverage=2"),
    (lambda: EventSeries(np.array([], "datetime64[s]"), np.array([], object),
                         np.array([]), "news"), FeatureError,
     "data.events_kind=news"),
    (lambda: BarTable("2week", (), np.array([], "datetime64[s]"),
                      *[np.empty((0, 0))] * 5, *[np.empty((0, 0), bool)] * 2),
     DataError, "data.frequency=2week"),
    (lambda: ingest_csv("never-read.csv", "3day"), DataError,
     "data.frequency=3day"),
])
def test_library_callers_keep_their_error_type(build, error, override):
    # the dataclasses read the config's domains: load_config's message,
    # under the error type each raised before
    with pytest.raises(ConfigError) as loaded:
        load_config(None, [override])
    with pytest.raises(error) as built:
        build()
    assert not isinstance(built.value, ConfigError)
    assert str(built.value) == str(loaded.value)


def test_canonical_serialization_sorted():
    canonical = default_config().canonical()
    assert canonical.index("[agent]") < canonical.index("[env]")
