"""How fast the host runs right now, from a fixed reference computation.

The benchmark host is shared. Its speed drifts by a third or more over
minutes (curate-panel ops took 2.9 s in one minute and 3.9 s a few
minutes later), and repeating ops inside a run cannot average that out.
``reference_seconds`` times a fixed computation that mixes the kinds of
work the package does: CSV parsing, regex tokenizing with dict lookups,
a Python-level recursion over floats, small numpy calls and small dense
solves. It imports nothing from the package, so the ratio of an op's
time to it moves with the program, not with the moment.
"""
from __future__ import annotations

import csv
import gc
import io
import re
import time

import numpy as np

_TOKEN = re.compile(r"[A-Za-z_][A-Za-z_'\-]*|\S")
_WORDS = ("shares", "plunge", "not", "very", "profit", "growth", "beats",
          "eps", "weak", "risk", "rally", "company", "the", "a", "of")


def _inputs():
    rng = np.random.default_rng(12345)
    rows = rng.uniform(10.0, 200.0, (2000, 5))
    text = "".join(f"2020-01-01T00:00:00+00:00,T{i % 30},"
                   + ",".join(repr(float(v)) for v in row) + "\n"
                   for i, row in enumerate(rows))
    words = rng.integers(0, len(_WORDS), (400, 12))
    sentences = [" ".join(_WORDS[w] for w in line) + "." for line in words]
    return text, sentences, rng.normal(size=4000), rng.normal(size=(160, 30))


_TEXT, _SENTENCES, _SERIES, _WINDOW = _inputs()
_LEXICON = {w: float(len(w)) for w in _WORDS}


def reference_work(rounds: int = 6) -> float:
    total = 0.0
    for _ in range(rounds):
        for fields in csv.reader(io.StringIO(_TEXT)):
            total += sum(float(v) for v in fields[2:])
        for sentence in _SENTENCES:
            for token in _TOKEN.findall(sentence.lower()):
                total += _LEXICON.get(token, 0.0)
        ema = _SERIES[0]
        for x in _SERIES:
            ema += 0.1 * (x - ema)
        total += ema
        small = _WINDOW[0, :10]
        for _ in range(2000):
            total += float(np.clip(small, -1.0, 1.0) @ small)
        for k in range(0, 160, 6):
            cov = _WINDOW.T @ _WINDOW + np.eye(30)
            total += float(np.linalg.solve(cov, _WINDOW[k]).sum())
    return total


def reference_seconds() -> float:
    """Wall time of one reference_work() call, after a garbage collection."""
    gc.collect()
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start
