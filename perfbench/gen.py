"""Seeded benchmark inputs: an OHLCV panel CSV and ticker-tagged headlines.

Everything here is self-contained on purpose: the inputs a benchmark run
measures must not change when the package's own data helpers change, so
nothing is imported from ``quantgym``. The headline vocabulary is fixed
below, drawn from the words the shipped lexicon, valence shifters and
abbreviation table know at the time the benchmark was written.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

DAY = 86400
START_EPOCH = 1420070400  # 2015-01-01T00:00:00Z

# (ticker, company name); two names carry lexicon words ("growth", "bull")
COMPANIES = (
    ("ACME", "Acme Corp"), ("GLBX", "Globex"), ("INIT", "Initech"),
    ("UMBR", "Umbrella Group"), ("HOOL", "Hooli"), ("STRK", "Stark Industries"),
    ("WAYN", "Wayne Enterprises"), ("WONK", "Wonka Foods"),
    ("CYBD", "Cyberdyne Systems"), ("SOYL", "Soylent Corp"),
    ("TYRL", "Tyrell Corp"), ("VAND", "Vandelay Industries"),
    ("PIED", "Pied Piper"), ("MASS", "Massive Dynamic"), ("OSCP", "Oscorp"),
    ("NAKA", "Nakatomi Trading"), ("GRNG", "Gringotts Bank"),
    ("DUFF", "Duff Brewing"), ("KRUS", "Krusty Holdings"),
    ("BLTH", "Bluth Company"), ("DUND", "Dunder Mifflin"),
    ("PRES", "Prestige Worldwide"), ("STER", "Sterling Cooper"),
    ("VEID", "Veidt Enterprises"), ("AVTR", "Aviato"), ("MOMC", "MomCorp"),
    ("PLNX", "Planet Express"), ("ROXX", "Roxxon Energy"),
    ("GRTH", "Growth Partners"), ("BULL", "Bull Capital"),
)

# (base, third person, past) of lexicon verbs
POSITIVE_VERBS = (
    ("soar", "soars", "soared"), ("surge", "surges", "surged"),
    ("rally", "rallies", "rallied"), ("rise", "rises", "rose"),
    ("gain", "gains", "gained"), ("rebound", "rebounds", "rebounded"),
    ("recover", "recovers", "recovered"), ("beat", "beats", "beat"),
    ("exceed", "exceeds", "exceeded"), ("outperform", "outperforms",
                                        "outperformed"),
    ("win", "wins", "won"), ("boom", "booms", "boomed"),
)
NEGATIVE_VERBS = (
    ("plunge", "plunges", "plunged"), ("slump", "slumps", "slumped"),
    ("fall", "falls", "fell"), ("decline", "declines", "declined"),
    ("crash", "crashes", "crashed"), ("lose", "loses", "lost"),
    ("miss", "misses", "missed"), ("underperform", "underperforms",
                                   "underperformed"),
    ("warn", "warns", "warned"), ("bust", "busts", "busted"),
)
NEUTRAL_VERBS = (
    ("report", "reports", "reported"), ("announce", "announces", "announced"),
    ("post", "posts", "posted"), ("expect", "expects", "expected"),
)
OBJECTS = (
    "EPS estimates", "Q3 estimates", "FY guidance", "YoY revenue",
    "its IPO price", "analyst expectations", "the consensus",
    "an ATH", "an ATL", "record profit", "strong growth", "a dividend",
    "weak demand", "debt risk", "a loss", "a shortage", "the surplus",
)
NOUN_PHRASES = (
    "profit", "growth", "dividend", "loss", "debt", "risk", "shortage",
    "rally", "slump", "record", "upgrade", "downgrade", "default",
)
ADJECTIVES = (
    "strong", "weak", "volatile", "good", "bad", "great", "terrible",
    "excellent", "awful", "positive", "negative", "happy", "sad",
)
INTENSIFIERS = (
    "very", "sharply", "slightly", "significantly", "barely", "hardly",
    "extremely", "greatly", "highly", "marginally", "modestly", "somewhat",
    "strongly", "substantially",
)
SUBJECTS = ("{name}", "{name} shares", "{name}'s stock", "{ticker}",
            "Shares of {name}", "{name} CEO", "The {name} IPO")
MARKET_CLAUSES = (
    "analysts fear {adj} demand", "investors hope for a rebound",
    "the outlook is {adj}", "results are {adj}", "traders see {noun}",
    "the CEO expects {noun}", "YoY numbers look {adj}",
    "markets are {int} {adj}", "there is no {noun} in sight",
    "guidance was never {adj}",
)


@dataclass(frozen=True)
class Panel:
    """What the generator wrote, kept for the output checks."""

    tickers: tuple[str, ...]
    names: tuple[str, ...]
    calendar: np.ndarray  # (T,) int64 epoch seconds, one bar per day
    close: np.ndarray  # (T, n) true closes, also where the bar is missing
    present: np.ndarray  # (T, n) bool, False where the CSV has no row

    @property
    def n_bars(self) -> int:
        return self.close.size


def iso(epoch: int) -> str:
    return datetime.fromtimestamp(int(epoch), tz=timezone.utc).isoformat()


def write_panel(path: str, rng: np.random.Generator, n_tickers: int,
                n_days: int, missing_frac: float = 0.0) -> Panel:
    """Daily OHLCV bars from a one-factor random walk with volatility bursts.

    Each day is a burst day with probability 2%, tripling every return's
    scale, so a turbulence index on the panel has a heavy upper tail. Rows
    are dropped at random with probability ``missing_frac``; ticker 0 is
    never dropped, so every calendar day keeps at least one bar.
    """
    if not 1 <= n_tickers <= len(COMPANIES):
        raise ValueError(f"n_tickers must lie in [1, {len(COMPANIES)}]")
    tickers = tuple(c[0] for c in COMPANIES[:n_tickers])
    names = tuple(c[1] for c in COMPANIES[:n_tickers])
    calendar = START_EPOCH + DAY * np.arange(n_days, dtype=np.int64)
    burst = np.where(rng.random(n_days) < 0.02, 3.0, 1.0)[:, None]
    beta = rng.uniform(0.5, 1.5, n_tickers)
    factor = rng.normal(0.0002, 0.008, (n_days, 1))
    idio = rng.normal(0.0, 0.012, (n_days, n_tickers))
    log_ret = burst * (factor * beta + idio)
    base = rng.uniform(20.0, 200.0, n_tickers)
    close = base * np.exp(np.cumsum(log_ret, axis=0))
    open_ = np.vstack([base, close[:-1]]) * np.exp(
        rng.normal(0.0, 0.002, (n_days, n_tickers)))
    spread = np.abs(rng.normal(0.0, 0.004, (n_days, n_tickers))) + 1e-4
    high = np.maximum(open_, close) * (1.0 + spread)
    low = np.minimum(open_, close) * (1.0 - spread)
    volume = np.round(rng.uniform(1e4, 5e5, (n_days, n_tickers)))
    present = rng.random((n_days, n_tickers)) >= missing_frac
    present[:, 0] = True
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("timestamp,ticker,open,high,low,close,volume\n")
        for t in range(n_days):
            stamp = iso(calendar[t])
            for j in range(n_tickers):
                if present[t, j]:
                    fh.write(f"{stamp},{tickers[j]},{float(open_[t, j])!r},"
                             f"{float(high[t, j])!r},{float(low[t, j])!r},"
                             f"{float(close[t, j])!r},{float(volume[t, j])!r}\n")
    return Panel(tickers, names, calendar, close, present)


def _verb_phrase(rng: random.Random) -> str:
    pool = rng.choices((POSITIVE_VERBS, NEGATIVE_VERBS, NEUTRAL_VERBS),
                       (0.4, 0.4, 0.2))[0]
    base, third, past = rng.choice(pool)
    form = rng.randrange(6)
    if form == 0:
        words = ["does", "not", base]
    elif form == 1:
        words = ["never", past]
    elif form == 2:
        words = [rng.choice(INTENSIFIERS), third]
    elif form == 3:
        words = [past]
    else:
        words = [third]
    if pool is NEUTRAL_VERBS or rng.random() < 0.5:
        words.append(rng.choice(OBJECTS))
    if rng.random() < 0.2:
        words += ["without", rng.choice(NOUN_PHRASES)]
    return " ".join(words)


def headline(rng: random.Random, ticker: str, name: str) -> str:
    subject = rng.choice(SUBJECTS).format(name=name, ticker=ticker)
    text = f"{subject} {_verb_phrase(rng)}"
    for _ in range(rng.randrange(3)):
        clause = rng.choice(MARKET_CLAUSES).format(
            adj=rng.choice(ADJECTIVES), noun=rng.choice(NOUN_PHRASES),
            int=rng.choice(INTENSIFIERS))
        joiner = rng.choice(("; ", ", ", " as ", ". "))
        text += joiner + (clause[0].upper() + clause[1:]
                          if joiner == ". " else clause)
    if rng.random() < 0.3:
        text += f" ({rng.randrange(1, 40)}.{rng.randrange(10)}%)"
    return text


def write_headlines(path: str, rng: np.random.Generator, panel: Panel,
                    n_docs: int) -> list[tuple[int, str]]:
    """One headline per line, in time order; returns (epoch, ticker) per line."""
    words = random.Random(int(rng.integers(2**63)))
    n_days = len(panel.calendar)
    day = rng.integers(0, n_days, n_docs)
    second = rng.integers(1, DAY, n_docs)
    who = rng.integers(0, len(panel.tickers), n_docs)
    order = np.lexsort((who, second, day))
    tags = []
    with open(path, "w", encoding="utf-8") as fh:
        for k in order:
            j = int(who[k])
            fh.write(headline(words, panel.tickers[j], panel.names[j]) + "\n")
            tags.append((int(panel.calendar[day[k]] + second[k]),
                         panel.tickers[j]))
    return tags
