"""The benchmark tracer's hook targets still exist in the package.

``perfbench/tracing.py`` wraps package functions by name, and a target
that no longer resolves turns its per-layer metrics absent. A change that
removes a hooked name must list it here, which states that its metric
goes absent. The module is read and executed, never imported from disk,
so nothing is written under ``perfbench/``. The curate commands must call
the hooked functions where, and as often as, the traced metrics count
them, and a traced harness run must end in a result line that reports
every declared per-layer metric as a finite number.
"""
import json
import math
import os
import subprocess
import sys
import types
from collections import Counter

import pytest

import quantgym.sentiment
from quantgym import cli

# hook targets that no longer resolve, each one's metric reported absent
EXPECTED_ABSENT: set[str] = set()


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_tracing(monkeypatch):
    path = os.path.join(ROOT, "perfbench", "tracing.py")
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    module = types.ModuleType("perfbench_tracing")
    module.__file__ = path
    # dataclasses look their module up while the class is built
    monkeypatch.setitem(sys.modules, module.__name__, module)
    exec(compile(source, path, "exec"), module.__dict__)
    return module


def test_every_hook_target_resolves_except_the_listed_ones(monkeypatch):
    tracing = load_tracing(monkeypatch)
    targets = {hook.target for hook in tracing.HOOKS}
    absent = set()
    for target in targets:
        try:
            tracing.resolve(target)
        except (ImportError, AttributeError):
            absent.add(target)
    assert absent == EXPECTED_ABSENT
    assert EXPECTED_ABSENT <= targets  # a listed name is still hooked


def run_curate(out, headlines, events):
    settings = ["--set", f"run.output_dir={out}",
                "--set", f"sentiment.input={headlines}",
                "--set", f"data.events_file={events}",
                "--set", "features.turbulence_window=20"]
    assert cli.main(["sentiment", "score"] + settings) == 0
    assert cli.main(["features"] + settings) == 0
    return {os.path.relpath(os.path.join(d, name), out):
            open(os.path.join(d, name), "rb").read()
            for d, _, names in os.walk(out) for name in names
            if name != "manifest.json"}


def test_curate_commands_call_each_hooked_function_as_counted(
        tmp_path, monkeypatch, capsys):
    """Ingest, event load and alignment run once per features run.
    ``sentiment score`` scores text through ``TextScorer`` and calls
    neither preprocess nor score_document, so the sentiment.* metrics
    read 0 on the curate path. Wrapping the hooked functions with
    counting pass-throughs, as the tracer does, changes no artifact."""
    headlines = tmp_path / "headlines.txt"
    headlines.write_text("Shares rally on record profit\n\n"
                         "Profit warning hits the stock. Losses widen\n")
    events = tmp_path / "events.csv"
    events.write_text("enter_time,ticker,value\n"
                      "2022-01-05T12:00:00+00:00,SYN0,0.5\n"
                      "2022-02-01T09:30:00+00:00,SYN2,-0.25\n")
    plain = run_curate(tmp_path / "plain", headlines, events)
    calls = Counter()
    for owner, name in ((quantgym.sentiment, "preprocess"),
                        (quantgym.sentiment, "score_document"),
                        (cli, "ingest_csv"), (cli, "load_events_csv"),
                        (cli, "align_events")):
        def counted(*args, _fn=getattr(owner, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    wrapped = run_curate(tmp_path / "wrapped", headlines, events)
    assert calls == {"ingest_csv": 1, "load_events_csv": 1, "align_events": 1}
    assert sorted(wrapped) == sorted(plain) == [
        os.path.join("features", "features.npz"),
        os.path.join("features", "turbulence.csv"),
        os.path.join("sentiment", "scores.csv")]
    assert wrapped == plain


def reject_constant(name):
    raise ValueError(f"non-finite number {name} in the result line")


@pytest.mark.parametrize("workload", ["curate-panel", "rolling-cem-trading",
                                      "rolling-a2c-portfolio"])
def test_traced_run_ends_in_a_strict_json_result(workload):
    # a traced op must print nothing to stdout and report only finite
    # metrics, or the last line stops being the result; the run writes
    # under the ignored .perfbench_work/ and no bytecode under perfbench/
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    *_, record, last = done.stdout.splitlines()
    assert json.loads(record, parse_constant=reject_constant)[
        "absent_metrics"] == []
    result = json.loads(last, parse_constant=reject_constant)
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer"]}
    assert set(result["metrics"]) == declared
    for name, metric in result["metrics"].items():
        value = metric["value"]
        assert type(value) in (int, float) and math.isfinite(value), name
