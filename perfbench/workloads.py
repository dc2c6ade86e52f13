"""The benchmark's workloads: seeded inputs, one op each, and output checks.

An op is what a user runs: one or two ``quantgym`` commands through
``quantgym.cli.main``. The program sees only the files written by
``gen`` and ``--set`` overrides. Every check is computed here from the
generated inputs, never from the package's own helpers.
"""
from __future__ import annotations

import csv
import hashlib
import json
import os
import re

import numpy as np

import gen


def _sha256(*paths: str) -> str:
    digest = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


# cmd_features writes each turbulence value as repr(np.float64), which
# numpy 2 spells "np.float64(0.25)". The digits inside are still exact, so
# the value is checked, and the format is reported as a defect of the run.
NP_FLOAT64 = re.compile(r"np\.float64\((.*)\)")


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def filled_close(panel: gen.Panel) -> np.ndarray:
    """Closes with gaps forward-filled, leading gaps filled backward."""
    close = np.where(panel.present, panel.close, np.nan)
    for j in range(close.shape[1]):
        col = close[:, j]
        last = np.maximum.accumulate(
            np.where(np.isfinite(col), np.arange(len(col)), -1))
        first = int(np.argmax(np.isfinite(col)))
        close[:, j] = col[np.maximum(last, first)]
    return close


def turbulence_oracle(close: np.ndarray, window: int, t: int) -> float:
    """Calibrated turbulence at row t from (T, n) closes, in plain numpy."""
    n = close.shape[1]
    returns = close[1:] / close[:-1] - 1.0  # returns[t - 1] is row t
    hist = returns[t - 1 - window:t - 1]
    mean = hist.mean(axis=0)
    centered = hist - mean
    cov = centered.T @ centered / (window - 1)
    cov[np.diag_indices(n)] += 1e-8 * np.trace(cov) / n
    dev = returns[t - 1] - mean
    quad = max(0.0, float(dev @ np.linalg.solve(cov, dev)))
    W = window
    return quad * W * (W - n - 2) / ((W + 1.0) * (W - 1.0))


class Workload:
    name: str
    unit: str  # what one unit of work is: "bar" or "trade_day"
    throughput: str  # the throughput's name in the run record

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.out = os.path.join(workdir, "out")
        self.rng = np.random.default_rng(seed)
        self.defects: set[str] = set()  # program faults seen but not failed

    def overrides(self) -> list[str]:
        """The --set overrides every op of this workload passes."""
        raise NotImplementedError

    def run_op(self, main) -> list[int]:
        """Run one op through ``main``; returns each command's exit code."""
        raise NotImplementedError

    def check(self) -> list[str]:
        """Failures found in the last op's outputs (empty when correct)."""
        raise NotImplementedError

    def digest(self) -> str:
        """Digest of the artifacts that must repeat byte for byte."""
        raise NotImplementedError

    @staticmethod
    def argv(command: list[str], overrides: list[str]) -> list[str]:
        return command + [a for o in overrides for a in ("--set", o)]


class CuratePanel(Workload):
    name = "curate-panel"
    unit = "bar"
    throughput = "bars_per_s"
    TICKERS, DAYS, MISSING, HEADLINES, WINDOW = 30, 1000, 0.01, 10_000, 252
    SAMPLED_ROWS = 24

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.panel_csv = os.path.join(workdir, "panel.csv")
        self.headlines = os.path.join(workdir, "headlines.txt")
        self.events = os.path.join(workdir, "events.csv")
        self.panel = gen.write_panel(self.panel_csv, self.rng, self.TICKERS,
                                     self.DAYS, self.MISSING)
        self.tags = gen.write_headlines(self.headlines, self.rng, self.panel,
                                        self.HEADLINES)
        self.work = self.panel.n_bars

    def overrides(self) -> list[str]:
        return [f"data.source={self.panel_csv}", "data.calendar_rule=union",
                f"data.events_file={self.events}",
                f"features.turbulence_window={self.WINDOW}",
                f"sentiment.input={self.headlines}",
                f"run.output_dir={self.out}", f"run.seed={self.seed}"]

    def run_op(self, main) -> list[int]:
        codes = [main(self.argv(["sentiment", "score"], self.overrides()))]
        if codes[0] != 0:
            return codes
        scores = os.path.join(self.out, "sentiment", "scores.csv")
        with open(scores, encoding="utf-8") as src, \
                open(self.events, "w", encoding="utf-8") as dst:
            next(src)
            dst.write("enter_time,ticker,value\n")
            for (epoch, ticker), line in zip(self.tags, src):
                dst.write(f"{gen.iso(epoch)},{ticker},{line.split(',')[1]}\n")
        codes.append(main(self.argv(["features"], self.overrides())))
        return codes

    def _paths(self):
        return (os.path.join(self.out, "sentiment", "scores.csv"),
                os.path.join(self.out, "features", "features.npz"),
                os.path.join(self.out, "features", "turbulence.csv"))

    def check(self) -> list[str]:
        scores_csv, npz, turb_csv = self._paths()
        failures = []
        with open(scores_csv, encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        lines = [int(r[0]) for r in rows]
        compound = np.array([float(r[1]) for r in rows])
        if lines != list(range(1, self.HEADLINES + 1)):
            failures.append(f"scores.csv has {len(rows)} rows, not one per "
                            f"headline in order")
        elif not (np.isfinite(compound).all()
                  and (np.abs(compound) <= 1.0).all()):
            failures.append("a compound score is outside [-1, 1]")

        with np.load(npz) as data:
            values, warmup = data["values"], int(data["warmup"])
            names = tuple(data["feature_names"].tolist())
            tickers = tuple(data["tickers"].tolist())
        T, n = self.panel.close.shape
        expected = ("macd_12_26_9", "rsi_14", "cci_20", "adx_14", "sentiment")
        if values.shape != (T, n, len(expected)) or names != expected \
                or sorted(tickers) != sorted(self.panel.tickers):
            failures.append(f"features {names} {values.shape} are not "
                            f"{expected} over {(T, n)}")
            return failures
        # ADX(14) is the slowest default indicator: first defined at row 27
        if warmup != 27 or not np.isfinite(values[warmup:]).all():
            failures.append(f"features not finite past warmup {warmup}")
        if not failures:
            failures += self._check_sentiment(values[:, :, -1], tickers,
                                              compound)

        with open(turb_csv, encoding="utf-8") as fh:
            cells = [r[1] for r in list(csv.reader(fh))[1:]]
        wrapped = [NP_FLOAT64.fullmatch(c) for c in cells]
        if any(wrapped):
            self.defects.add("turbulence.csv spells values np.float64(...)")
        turb = np.array([float(m.group(1) if m else c)
                         for m, c in zip(wrapped, cells)])
        first = self.WINDOW + 1
        if turb.shape != (T,) or not np.isnan(turb[:first]).all() \
                or not np.isfinite(turb[first:]).all():
            failures.append("turbulence.csv is not NaN exactly over its warmup")
            return failures
        close = filled_close(self.panel)
        rows = self.rng.choice(np.arange(first, T), self.SAMPLED_ROWS,
                               replace=False)
        for t in sorted(int(t) for t in rows):
            want = turbulence_oracle(close, self.WINDOW, t)
            if not _close(turb[t], want, 1e-9):
                failures.append(f"turbulence row {t}: {turb[t]!r} != "
                                f"oracle {want!r}")
                break
        return failures

    def _check_sentiment(self, column: np.ndarray, tickers: tuple,
                         compound) -> list[str]:
        """Mean score of the headlines entering in (day t-1, day t]."""
        T, n = column.shape
        index = {tk: j for j, tk in enumerate(tickers)}
        total = np.zeros((T, n))
        count = np.zeros((T, n))
        for (epoch, ticker), score in zip(self.tags, compound):
            t = -(-(epoch - int(self.panel.calendar[0])) // gen.DAY)
            if t < T:
                total[t, index[ticker]] += score
                count[t, index[ticker]] += 1
        want = np.divide(total, count, out=np.zeros((T, n)), where=count > 0)
        if not np.allclose(column, want, rtol=0.0, atol=1e-12):
            bad = np.argwhere(~np.isclose(column, want, rtol=0.0, atol=1e-12))
            return [f"sentiment feature differs from the headline means at "
                    f"(t, ticker) {tuple(bad[0])}"]
        return []

    def digest(self) -> str:
        scores_csv, npz, turb_csv = self._paths()
        digest = hashlib.sha256(_sha256(scores_csv, turb_csv).encode())
        with np.load(npz) as data:
            for key in sorted(data.files):
                digest.update(data[key].tobytes())
        return digest.hexdigest()


class Rolling(Workload):
    """``trade-sim`` over a small panel: the rolling train-test-trade loop."""

    unit = "trade_day"
    throughput = "trade_days_per_s"
    TICKERS, DAYS = 10, 160
    trade_days: int
    settings: list[str]

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.panel_csv = os.path.join(workdir, "panel.csv")
        self.panel = gen.write_panel(self.panel_csv, self.rng, self.TICKERS,
                                     self.DAYS)
        self.work = self.trade_days

    def overrides(self) -> list[str]:
        return [f"data.source={self.panel_csv}",
                f"pipeline.n_trade={self.trade_days}", *self.settings,
                f"run.output_dir={self.out}", f"run.seed={self.seed}"]

    def run_op(self, main) -> list[int]:
        return [main(self.argv(["trade-sim"], self.overrides()))]

    def _paths(self):
        return tuple(os.path.join(self.out, "trade-sim", name) for name in (
            "metrics.json", "values.csv", "trades.csv", "windows.json"))

    def check(self) -> list[str]:
        metrics_json, values_csv, trades_csv, windows_json = self._paths()
        failures = []
        with open(metrics_json, encoding="utf-8") as fh:
            reported = json.load(fh)
        with open(values_csv, encoding="utf-8") as fh:
            values = np.array([float(r[1]) for r in list(csv.reader(fh))[1:]])
        if values.shape != (self.trade_days + 1,) or not (values > 0).all():
            failures.append(f"values.csv has {values.shape} values, expected "
                            f"{self.trade_days + 1} positive ones")
            return failures
        cumulative = values[-1] / values[0] - 1.0
        peak = np.maximum.accumulate(values)
        drawdown = float(((peak - values) / peak).max())
        if not _close(reported["cumulative_return"], cumulative, 1e-12):
            failures.append(f"cumulative_return {reported['cumulative_return']!r}"
                            f" != {cumulative!r} from values.csv")
        if not _close(reported["max_drawdown"], drawdown, 1e-12):
            failures.append(f"max_drawdown {reported['max_drawdown']!r} != "
                            f"{drawdown!r} from values.csv")
        with open(trades_csv, encoding="utf-8") as fh:
            days = [r[0][:10] for r in list(csv.reader(fh))[1:]]
        if len(days) != self.trade_days or len(set(days)) != self.trade_days:
            failures.append(f"trades.csv has {len(days)} rows over "
                            f"{len(set(days))} days, expected one per trade day")
        with open(windows_json, encoding="utf-8") as fh:
            windows = json.load(fh)
        skipped = sum(w["skipped"] for w in windows)
        if len(windows) != self.trade_days or skipped:
            failures.append(f"{len(windows)} windows, {skipped} skipped")
        return failures

    def digest(self) -> str:
        return _sha256(*self._paths())


class RollingCemTrading(Rolling):
    name = "rolling-cem-trading"
    trade_days = 3
    settings = ["agent.type=cem", "env.kind=trading"]


class RollingA2cPortfolio(Rolling):
    name = "rolling-a2c-portfolio"
    trade_days = 12
    settings = ["env.kind=portfolio", "env.turnover_cost_rate=0.001",
                "env.risk_indicator=turbulence", "env.risk_threshold=23",
                "features.turbulence_window=30", "agent.type=a2c",
                "agent.grid=learning_rate=0.01,0.003;hidden=16,32"]


WORKLOADS = {w.name: w for w in (CuratePanel, RollingCemTrading,
                                 RollingA2cPortfolio)}
