"""Span tracer for the benchmark's traced runs.

The tracer wraps the package's public functions at the attribute where
the program looks each one up (``quantgym.cli.turbulence``,
``quantgym.envs.execute_trades_kernel``, ``TradingEnv.step``, ...), so
the program itself is unchanged. Each call records one span: name,
start, end, parent span and op id. Spans stay in memory and are written
out when the run ends; ``restore`` puts every wrapped attribute back, so
untraced ops run the original functions. A hook whose target no longer
exists is reported as absent, and so is every metric that depends on it.
"""
from __future__ import annotations

import csv
import functools
import importlib
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Hook:
    target: str  # "module:attr" or "module:Class.attr"
    span: str | Callable  # span name, or (args) -> span name
    count: Callable | None = None  # (tracer, args, result) -> None
    wrap_args: Callable | None = None  # (tracer, args) -> args


def resolve(target: str):
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    getattr(owner, attr)  # AttributeError when the target is gone
    return owner, attr


class Tracer:
    def __init__(self, hooks: list[Hook]):
        self.hooks = hooks
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, op]
        self.counters: list[dict] = []  # one dict per traced op
        self.absent: set[str] = set()  # targets and spans not found
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def begin_op(self) -> None:
        self.op += 1
        self.counters.append(defaultdict(float))

    def count(self, name: str, value: float = 1.0) -> None:
        self.counters[self.op][name] += value

    def install(self) -> None:
        for hook in self.hooks:
            try:
                owner, attr = resolve(hook.target)
            except (ImportError, AttributeError):
                self.absent.add(hook.target)
                if isinstance(hook.span, str):
                    self.absent.add(hook.span)
                continue
            own = attr in vars(owner)  # False for an inherited method
            original = vars(owner)[attr] if own else getattr(owner, attr)
            self._saved.append((owner, attr, original, own))
            setattr(owner, attr, self._wrap(original, hook))

    def restore(self) -> None:
        for owner, attr, original, own in reversed(self._saved):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._saved.clear()

    def _wrap(self, fn, hook: Hook):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hook.wrap_args is not None:
                args = hook.wrap_args(self, args)
            name = hook.span if isinstance(hook.span, str) else hook.span(args)
            record = [name, clock(), 0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if hook.count is not None:
                hook.count(self, args, result)
            return result

        return traced

    def summarize(self) -> list["OpSummary"]:
        """Per traced op: self time, inclusive time and calls per span name."""
        ops = [OpSummary(self.counters[k]) for k in range(self.op + 1)]
        child = [0] * len(self.spans)
        for name, start, end, parent, _op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for k, (name, start, end, parent, op) in enumerate(self.spans):
            summary = ops[op]
            duration = end - start
            summary.self_ns[name] += duration - child[k]
            summary.incl_ns[name] += duration
            summary.calls[name] += 1
            if parent < 0:
                summary.top_ns += duration
        return ops

    def write_spans(self, path: str) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["name", "start_ns", "end_ns", "parent", "op"])
            writer.writerows(self.spans)


class OpSummary:
    def __init__(self, counters: dict):
        self.counters = counters
        self.self_ns: dict = defaultdict(int)
        self.incl_ns: dict = defaultdict(int)
        self.calls: dict = defaultdict(int)
        self.top_ns = 0

    def self_s(self, *names: str) -> float:
        return sum(self.self_ns[n] for n in names) / 1e9

    def incl_s(self, *names: str) -> float:
        return sum(self.incl_ns[n] for n in names) / 1e9

    def ctr(self, name: str) -> float:
        return self.counters.get(name, 0.0)


# ---------------------------------------------------------------------------
# hooks: where each layer is entered, and the counters read at that boundary


def _ingested(tracer, args, table):
    tracer.count("market_data.rows", int(table.present.sum()))


def _cleaned(tracer, args, table):
    tracer.count("market_data.filled_cells", table.meta.get("filled_cells", 0))


def _turbulence_work(tracer, args, _result):
    """Work of the reference loop, computed from the argument shapes.

    Per evaluated row t (rows window+1 .. T-1): the window mean and the
    centering read the (W, n) window twice and write the centered copy;
    the (n, W) @ (W, n) product reads it twice more; the covariance is
    written once and read by the LU solve (2/3 n^3 + 2 n^2 flops).
    """
    returns, window = args[0], int(args[1])
    T, n = returns.shape
    rows = max(0, T - window - 1)
    flops = 2 * window * n * n + 2 * window * n + (2 * n ** 3) // 3 \
        + 3 * n * n + 6 * n
    tracer.count("kernels.turbulence_flops", rows * flops)
    tracer.count("kernels.turbulence_bytes",
                 rows * 8 * (5 * window * n + 2 * n * n + 3 * n))


def _filled(tracer, args, result):
    tracer.count("envs.requested_shares", float(abs(args[3]).sum()))
    tracer.count("envs.executed_shares", float(abs(result[2]).sum()))


def _stepped(tracer, args, transition):
    tracer.count("envs.risk_triggers", bool(transition.info["risk_triggered"]))
    tracer.count("envs.fees", transition.info["cost"])


def _cem_done(tracer, args, result):
    tracer.count("agents.cem.generations", len(result[1]))


def _rolled(tracer, args, result):
    reports = result[1].window_reports
    tracer.count("pipeline.windows", len(reports))
    tracer.count("pipeline.windows_skipped", sum(r.skipped for r in reports))


def _count_fits(tracer, args):
    """Count agent fits by wrapping the agent factory run_rolling is given."""
    factory = args[2]

    def counted(*a, **kw):
        tracer.count("pipeline.fits")
        return factory(*a, **kw)

    return args[:2] + (counted,) + args[3:]


HOOKS = [
    Hook("quantgym.cli:main", "cli.main"),
    Hook("quantgym.cli:build_rolling_data", "cli.build_rolling_data"),
    Hook("quantgym.cli:write_manifest", "cli.write_manifest"),
    Hook("quantgym.cli:ingest_csv", "market_data.ingest", _ingested),
    Hook("quantgym.cli:clean", "market_data.clean", _cleaned),
    Hook("quantgym.features:compute_indicator",
         lambda args: "features." + args[1].kind.lower()),
    Hook("quantgym.cli:compute_feature_matrix", "features.stack"),
    Hook("quantgym.cli:load_events_csv", "features.load_events"),
    Hook("quantgym.cli:align_events", "features.align_events"),
    Hook("quantgym.cli:turbulence", "features.turbulence"),
    Hook("quantgym.kernels:turbulence_kernel", "kernels.turbulence",
         _turbulence_work),
    Hook("quantgym.kernels:cci_kernel", "kernels.cci"),
    Hook("quantgym.envs:execute_trades_kernel", "kernels.execute_trades",
         _filled),
    Hook("quantgym.sentiment:preprocess", "sentiment.preprocess"),
    Hook("quantgym.sentiment:score_document", "sentiment.score"),
    Hook("quantgym.envs:TradingEnv.step", "envs.trading.step", _stepped),
    Hook("quantgym.envs:PortfolioEnv.step", "envs.portfolio.step", _stepped),
    Hook("quantgym.envs:TradingEnv.reset", "envs.reset"),
    Hook("quantgym.envs:PortfolioEnv.reset", "envs.reset"),
    Hook("quantgym.agents.policy:GaussianPolicy.forward", "agents.forward"),
    Hook("quantgym.agents.a2c:a2c_loss_and_grad", "agents.a2c.update"),
    Hook("quantgym.agents.a2c:Adam.step", "agents.a2c.adam"),
    Hook("quantgym.agents.cem:cem_optimize", "agents.cem.generation",
         _cem_done),
    Hook("quantgym.cli:train_a2c", "agents.train"),
    Hook("quantgym.cli:train_cem", "agents.train"),
    Hook("quantgym.cli:run_rolling", "pipeline.rolling", _rolled, _count_fits),
    Hook("quantgym.pipeline:backtest", "pipeline.backtest"),
    Hook("quantgym.cli:write_backtest_result", "pipeline.write_result"),
]


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


# (metric, unit, spans it needs, value from one op's summary). Names
# ending in _s are self time summed over the op; plain names are counts.
LAYER_METRICS = [
    ("cli.self_s", "s", ["cli.main"], lambda o: o.self_s("cli.main")),
    ("cli.build_rolling_data_s", "s", ["cli.build_rolling_data"],
     lambda o: o.self_s("cli.build_rolling_data")),
    ("cli.write_manifest_s", "s", ["cli.write_manifest"],
     lambda o: o.self_s("cli.write_manifest")),
    ("market_data.ingest_s", "s", ["market_data.ingest"],
     lambda o: o.self_s("market_data.ingest")),
    ("market_data.clean_s", "s", ["market_data.clean"],
     lambda o: o.self_s("market_data.clean")),
    ("market_data.rows", "count", ["market_data.ingest"],
     lambda o: o.ctr("market_data.rows")),
    ("market_data.filled_cells", "count", ["market_data.clean"],
     lambda o: o.ctr("market_data.filled_cells")),
    ("features.macd_s", "s", ["quantgym.features:compute_indicator"],
     lambda o: o.self_s("features.macd")),
    ("features.rsi_s", "s", ["quantgym.features:compute_indicator"],
     lambda o: o.self_s("features.rsi")),
    ("features.cci_s", "s", ["quantgym.features:compute_indicator"],
     lambda o: o.self_s("features.cci")),
    ("features.adx_s", "s", ["quantgym.features:compute_indicator"],
     lambda o: o.self_s("features.adx")),
    ("features.stack_s", "s", ["features.stack"],
     lambda o: o.self_s("features.stack")),
    ("features.load_events_s", "s", ["features.load_events"],
     lambda o: o.self_s("features.load_events")),
    ("features.align_events_s", "s", ["features.align_events"],
     lambda o: o.self_s("features.align_events")),
    ("features.turbulence_s", "s", ["features.turbulence"],
     lambda o: o.self_s("features.turbulence")),
    ("kernels.turbulence_s", "s", ["kernels.turbulence"],
     lambda o: o.self_s("kernels.turbulence")),
    ("kernels.turbulence_flops", "computed_flop", ["kernels.turbulence"],
     lambda o: o.ctr("kernels.turbulence_flops")),
    ("kernels.turbulence_bytes", "computed_byte", ["kernels.turbulence"],
     lambda o: o.ctr("kernels.turbulence_bytes")),
    ("kernels.cci_s", "s", ["kernels.cci"], lambda o: o.self_s("kernels.cci")),
    ("kernels.execute_trades_calls", "count", ["kernels.execute_trades"],
     lambda o: o.calls["kernels.execute_trades"]),
    ("kernels.execute_trades_s", "s", ["kernels.execute_trades"],
     lambda o: o.self_s("kernels.execute_trades")),
    ("sentiment.docs", "count", ["sentiment.score"],
     lambda o: o.calls["sentiment.score"]),
    ("sentiment.preprocess_s", "s", ["sentiment.preprocess"],
     lambda o: o.self_s("sentiment.preprocess")),
    ("sentiment.score_s", "s", ["sentiment.score"],
     lambda o: o.self_s("sentiment.score")),
    ("sentiment.docs_per_s", "1/s", ["sentiment.preprocess", "sentiment.score"],
     lambda o: _ratio(o.calls["sentiment.score"],
                      o.incl_s("sentiment.preprocess", "sentiment.score"))),
    ("envs.trading.steps", "count", ["envs.trading.step"],
     lambda o: o.calls["envs.trading.step"]),
    ("envs.trading.step_s", "s", ["envs.trading.step"],
     lambda o: o.self_s("envs.trading.step")),
    ("envs.portfolio.steps", "count", ["envs.portfolio.step"],
     lambda o: o.calls["envs.portfolio.step"]),
    ("envs.portfolio.step_s", "s", ["envs.portfolio.step"],
     lambda o: o.self_s("envs.portfolio.step")),
    ("envs.resets", "count", ["envs.reset"], lambda o: o.calls["envs.reset"]),
    ("envs.steps_per_s", "1/s", ["envs.trading.step", "envs.portfolio.step"],
     lambda o: _ratio(
         o.calls["envs.trading.step"] + o.calls["envs.portfolio.step"],
         o.incl_s("envs.trading.step", "envs.portfolio.step"))),
    ("envs.risk_triggers", "count", ["envs.trading.step", "envs.portfolio.step"],
     lambda o: o.ctr("envs.risk_triggers")),
    # executed / requested shares in the fill kernel; 0 when none requested
    ("envs.fill_ratio", "frac", ["kernels.execute_trades"],
     lambda o: _ratio(o.ctr("envs.executed_shares"),
                      o.ctr("envs.requested_shares"))),
    ("envs.fees", "cash", ["envs.trading.step", "envs.portfolio.step"],
     lambda o: o.ctr("envs.fees")),
    ("agents.forward_calls", "count", ["agents.forward"],
     lambda o: o.calls["agents.forward"]),
    ("agents.forward_s", "s", ["agents.forward"],
     lambda o: o.self_s("agents.forward")),
    ("agents.a2c.updates", "count", ["agents.a2c.update"],
     lambda o: o.calls["agents.a2c.update"]),
    ("agents.a2c.update_s", "s", ["agents.a2c.update", "agents.a2c.adam"],
     lambda o: o.self_s("agents.a2c.update", "agents.a2c.adam")),
    ("agents.cem.generations", "count", ["agents.cem.generation"],
     lambda o: o.ctr("agents.cem.generations")),
    ("agents.cem.generation_s", "s", ["agents.cem.generation"],
     lambda o: o.self_s("agents.cem.generation")),
    ("agents.train_s", "s", ["agents.train"],
     lambda o: o.self_s("agents.train")),
    ("pipeline.windows", "count", ["pipeline.rolling"],
     lambda o: o.ctr("pipeline.windows")),
    ("pipeline.window_s", "s", ["pipeline.rolling"],
     lambda o: o.self_s("pipeline.rolling")),
    # agent fits made to rank grid candidates: all fits but one per window
    ("pipeline.candidates", "count", ["pipeline.rolling"],
     lambda o: o.ctr("pipeline.fits") - o.ctr("pipeline.windows")),
    ("pipeline.backtests", "count", ["pipeline.backtest"],
     lambda o: o.calls["pipeline.backtest"]),
    ("pipeline.backtest_s", "s", ["pipeline.backtest"],
     lambda o: o.self_s("pipeline.backtest")),
    ("pipeline.windows_skipped", "count", ["pipeline.rolling"],
     lambda o: o.ctr("pipeline.windows_skipped")),
    ("pipeline.write_result_s", "s", ["pipeline.write_result"],
     lambda o: o.self_s("pipeline.write_result")),
]
TRACE_METRICS = [("trace.overhead_frac", "frac"), ("trace.coverage", "frac")]


def layer_metrics(tracer: Tracer, traced_wall: list[float],
                  traced: list[float], untraced: list[float]
                  ) -> tuple[dict, list[str]]:
    """Median over the traced ops of each layer metric, plus trace quality.

    ``traced_wall`` holds the traced ops' wall times in op order;
    ``traced`` and ``untraced`` the two kinds of ops' times at reference
    speed. Returns the metrics and the names reported absent because a
    hook is missing.
    """
    ops = tracer.summarize()
    metrics, absent = {}, []
    for name, unit, needs, value in LAYER_METRICS:
        if tracer.absent.intersection(needs):
            absent.append(name)
            continue
        metrics[name] = {"value": statistics.median(value(o) for o in ops),
                         "unit": unit}
    metrics["trace.overhead_frac"] = {
        "value": statistics.median(traced) / statistics.median(untraced) - 1.0,
        "unit": "frac"}
    metrics["trace.coverage"] = {
        "value": statistics.median(
            o.top_ns / 1e9 / wall for o, wall in zip(ops, traced_wall)),
        "unit": "frac"}
    return metrics, absent
