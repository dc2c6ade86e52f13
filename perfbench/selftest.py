"""Check the benchmark itself: its checks reject corrupted artifacts.

Usage, from the repository root: ``python3 perfbench/selftest.py``

For each workload this runs one op, confirms the output checks pass,
then corrupts one artifact at a time and confirms the checks (or the
repeat digest) reject it. It also confirms that the metric names in
BENCHMARK.json match what run.py and tracing.py report, and that the
tracer puts back every attribute it wraps. Exits 1 on any miss.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import quantgym.cli  # noqa: E402
from tracing import (HOOKS, LAYER_METRICS, TRACE_METRICS, Hook,  # noqa: E402
                     Tracer, layer_metrics, resolve)
from workloads import NP_FLOAT64, WORKLOADS  # noqa: E402


def _edit_text(path: str, edit) -> None:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(edit(text))


def _drop_last_line(text: str) -> str:
    return "".join(text.splitlines(keepends=True)[:-1])


def _nudge_turbulence(text: str) -> str:
    """Scale every defined turbulence value by 1 + 1e-6."""
    lines = text.splitlines(keepends=True)
    for k, line in enumerate(lines[1:], start=1):
        ts, value = line.rstrip("\n").split(",")
        match = NP_FLOAT64.fullmatch(value)
        number = float(match.group(1) if match else value)
        if number == number:
            lines[k] = f"{ts},{number * (1 + 1e-6)!r}\n"
    return "".join(lines)


def _edit_features(path: str, edit) -> None:
    with np.load(path) as data:
        arrays = {key: data[key] for key in data.files}
    arrays["values"] = arrays["values"].copy()
    edit(arrays["values"])
    np.savez(path, **arrays)


def _nan_feature(values: np.ndarray) -> None:
    values[-1, 0, 0] = np.nan


def _nudge_sentiment(values: np.ndarray) -> None:
    t, j = np.argwhere(values[:, :, -1] != 0.0)[0]
    values[t, j, -1] += 1e-6


def _json_edit(path: str, edit) -> None:
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    edit(payload)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)


def _skip_window(windows: list) -> None:
    windows[0]["skipped"] = True


def _shift_return(metrics: dict) -> None:
    metrics["cumulative_return"] += 1e-6


def corruptions(workload):
    """(description, relative path, corrupt(path), caught by) per workload.

    "check" corruptions must fail the output checks; "digest" ones keep
    the outputs valid and must change the repeat digest.
    """
    if workload.name == "curate-panel":
        return [
            ("turbulence off by 1e-6", "features/turbulence.csv",
             lambda p: _edit_text(p, _nudge_turbulence), "check"),
            ("headline score missing", "sentiment/scores.csv",
             lambda p: _edit_text(p, _drop_last_line), "check"),
            ("feature NaN past warmup", "features/features.npz",
             lambda p: _edit_features(p, _nan_feature), "check"),
            ("sentiment feature off by 1e-6", "features/features.npz",
             lambda p: _edit_features(p, _nudge_sentiment), "check"),
        ]
    return [
        ("cumulative_return off by 1e-6", "trade-sim/metrics.json",
         lambda p: _json_edit(p, _shift_return), "check"),
        ("trade row missing", "trade-sim/trades.csv",
         lambda p: _edit_text(p, _drop_last_line), "check"),
        ("window marked skipped", "trade-sim/windows.json",
         lambda p: _json_edit(p, _skip_window), "check"),
        ("values.csv header renamed", "trade-sim/values.csv",
         lambda p: _edit_text(p, lambda t: t.replace("timestamp", "time")),
         "digest"),
    ]


def check_workload(name: str) -> list[str]:
    misses = []
    workdir = os.path.join(ROOT, ".perfbench_work", f"selftest-{name}")
    os.makedirs(workdir, exist_ok=True)
    workload = WORKLOADS[name](7, workdir)
    with contextlib.redirect_stdout(io.StringIO()):
        codes = workload.run_op(quantgym.cli.main)
    clean = workload.check()
    if codes != [0] * len(codes) or clean:
        return [f"{name}: clean op failed: {codes} {clean}"]
    digest = workload.digest()
    for what, rel, corrupt, caught_by in corruptions(workload):
        path = os.path.join(workload.out, rel)
        with open(path, "rb") as fh:
            original = fh.read()
        corrupt(path)
        if caught_by == "check":
            try:
                rejected = bool(workload.check())
            except Exception:  # run.py counts a check that raises as failed
                rejected = True
        else:
            rejected = workload.digest() != digest
        with open(path, "wb") as fh:
            fh.write(original)
        print(f"{name}: {what}: {'rejected' if rejected else 'MISSED'} "
              f"by the {caught_by}")
        if not rejected:
            misses.append(f"{name}: {what} was not rejected")
    return misses


def check_names() -> list[str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    misses = []
    layer = [m[0] for m in LAYER_METRICS] + [m[0] for m in TRACE_METRICS]
    if [m["name"] for m in spec["per_layer"]] != layer:
        misses.append("BENCHMARK.json per_layer names differ from tracing.py")
    units = {m[0]: m[1] for m in LAYER_METRICS + TRACE_METRICS}
    if any(units[m["name"]] != m["unit"] for m in spec["per_layer"]
           if m["name"] in units):
        misses.append("BENCHMARK.json per_layer units differ from tracing.py")
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        misses.append("BENCHMARK.json workloads differ from workloads.py")
    if [m["name"] for m in spec["end_to_end"]] != [
            "work_per_s", "setup_s", "peak_rss_mb"]:
        misses.append("BENCHMARK.json end_to_end names differ from run.py")
    return misses


def check_restore() -> list[str]:
    before = [getattr(*resolve(h.target)) for h in HOOKS]
    tracer = Tracer(HOOKS)
    tracer.install()
    tracer.restore()
    after = [getattr(*resolve(h.target)) for h in HOOKS]
    if tracer.absent:
        return [f"hooks without a target: {sorted(tracer.absent)}"]
    if any(a is not b for a, b in zip(before, after)):
        return ["tracer did not restore every wrapped attribute"]
    return []


def check_absent() -> list[str]:
    """A hook whose target is gone marks its metrics absent, no crash."""
    tracer = Tracer([Hook("quantgym.cli:no_such_function", "cli.main")])
    tracer.begin_op()
    tracer.install()
    tracer.restore()
    _metrics, absent = layer_metrics(tracer, [1.0], [1.0], [1.0])
    if absent != ["cli.self_s"]:
        return [f"a missing hook reported {absent} absent, not cli.self_s"]
    return []


def main() -> int:
    misses = check_names() + check_restore() + check_absent()
    for name in WORKLOADS:
        misses += check_workload(name)
    for miss in misses:
        print(f"MISS {miss}", file=sys.stderr)
    print("selftest", "failed" if misses else "passed")
    return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main())
