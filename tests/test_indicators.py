"""Indicator values against from-definition brute-force oracles."""
import numpy as np
import pytest

from quantgym.errors import FeatureError
from quantgym.features import IndicatorSpec, compute_feature_matrix, compute_indicator

from conftest import make_table, random_walk_table


# --- independent oracles: direct recursions, windows recomputed in full ----

def oracle_sma(x, k):
    out = np.full(len(x), np.nan)
    for t in range(k - 1, len(x)):
        out[t] = sum(x[t - k + 1:t + 1]) / k
    return out


def oracle_ema(x, k):
    out = np.full(len(x), np.nan)
    if k > len(x):
        return out
    out[k - 1] = sum(x[:k]) / k
    a = 2.0 / (k + 1)
    for t in range(k, len(x)):
        out[t] = a * x[t] + (1 - a) * out[t - 1]
    return out


def oracle_macd(close, fast=12, slow=26):
    return oracle_ema(close, fast) - oracle_ema(close, slow)


def oracle_rsi(close, k=14):
    out = np.full(len(close), np.nan)
    diffs = np.diff(close)
    gains = np.where(diffs > 0, diffs, 0.0)
    losses = np.where(diffs < 0, -diffs, 0.0)
    if len(diffs) < k:
        return out
    avg_g, avg_l = gains[:k].mean(), losses[:k].mean()
    for t in range(k, len(close)):
        if t > k:
            avg_g = (avg_g * (k - 1) + gains[t - 1]) / k
            avg_l = (avg_l * (k - 1) + losses[t - 1]) / k
        if avg_g == 0 and avg_l == 0:
            out[t] = 50.0
        elif avg_l == 0:
            out[t] = 100.0
        else:
            out[t] = 100.0 - 100.0 / (1.0 + avg_g / avg_l)
    return out


def oracle_cci(high, low, close, k=20):
    tp = (high + low + close) / 3.0
    out = np.full(len(close), np.nan)
    for t in range(k - 1, len(close)):
        window = tp[t - k + 1:t + 1]
        m = window.mean()
        mad = np.abs(window - m).mean()
        out[t] = 0.0 if mad == 0 else (tp[t] - m) / (0.015 * mad)
    return out


def oracle_adx(high, low, close, k=14):
    T = len(close)
    out = np.full(T, np.nan)
    pdm = np.zeros(T)
    mdm = np.zeros(T)
    tr = np.zeros(T)
    for t in range(1, T):
        up = high[t] - high[t - 1]
        dn = low[t - 1] - low[t]
        pdm[t] = up if (up > dn and up > 0) else 0.0
        mdm[t] = dn if (dn > up and dn > 0) else 0.0
        tr[t] = max(high[t] - low[t], abs(high[t] - close[t - 1]),
                    abs(low[t] - close[t - 1]))
    dx = np.full(T, np.nan)
    s_tr, s_p, s_m = tr[1:k + 1].sum(), pdm[1:k + 1].sum(), mdm[1:k + 1].sum()

    def dx_of(sp, sm, st):
        if st == 0:
            return 0.0
        pdi, mdi = 100 * sp / st, 100 * sm / st
        return 0.0 if pdi + mdi == 0 else 100 * abs(pdi - mdi) / (pdi + mdi)

    dx[k] = dx_of(s_p, s_m, s_tr)
    for t in range(k + 1, T):
        s_tr = s_tr - s_tr / k + tr[t]
        s_p = s_p - s_p / k + pdm[t]
        s_m = s_m - s_m / k + mdm[t]
        dx[t] = dx_of(s_p, s_m, s_tr)
    adx = dx[k:2 * k].mean()
    out[2 * k - 1] = adx
    for t in range(2 * k, T):
        adx = (adx * (k - 1) + dx[t]) / k
        out[t] = adx
    return out


def ohlc_from_walk(seed, T=300):
    rng = np.random.default_rng(seed)
    close = 100 * np.exp(np.cumsum(rng.normal(0, 0.02, T)))
    high = np.maximum(close * (1 + np.abs(rng.normal(0, 0.005, T))), close)
    low = np.minimum(close * (1 - np.abs(rng.normal(0, 0.005, T))), close)
    return high, low, close


def assert_matches(actual, expected, tol=1e-8):
    assert actual.shape == expected.shape
    nan_a, nan_e = np.isnan(actual), np.isnan(expected)
    assert np.array_equal(nan_a, nan_e)
    mask = ~nan_a
    np.testing.assert_allclose(actual[mask], expected[mask], rtol=tol, atol=tol)


@pytest.mark.parametrize("seed", range(10))
def test_indicators_match_oracles(seed):
    # three tickers from different walks: a kernel that mixes columns
    # cannot match each column's own oracle
    walks = [ohlc_from_walk(seed + 10 * j) for j in range(3)]
    high, low, close = (np.stack(grid, axis=1) for grid in zip(*walks))
    table = make_table(close, high=high, low=low)
    oracles = {
        IndicatorSpec("SMA", (5,)): lambda h, l, c: oracle_sma(c, 5),
        IndicatorSpec("EMA", (10,)): lambda h, l, c: oracle_ema(c, 10),
        IndicatorSpec("MACD"): lambda h, l, c: oracle_macd(c),
        IndicatorSpec("RSI"): lambda h, l, c: oracle_rsi(c),
        IndicatorSpec("CCI"): oracle_cci,
        IndicatorSpec("ADX"): oracle_adx,
    }
    for spec, oracle in oracles.items():
        values = compute_indicator(table, spec)
        for j, walk in enumerate(walks):
            assert_matches(values[:, j], oracle(*walk))


def constant_table(value=50.0, T=80):
    flat = np.full((T, 1), value)
    return make_table(flat, high=flat.copy(), low=flat.copy())


@pytest.mark.parametrize("kind,expected", [
    ("MACD", 0.0), ("RSI", 50.0), ("CCI", 0.0), ("ADX", 0.0),
])
def test_constant_series_conventions_exact(kind, expected):
    values = compute_indicator(constant_table(), IndicatorSpec(kind))[:, 0]
    defined = values[np.isfinite(values)]
    assert len(defined) > 0
    assert (defined == expected).all()


def test_sma_ema_of_constant_equal_constant():
    table = constant_table(value=7.25)
    for kind in ("SMA", "EMA"):
        values = compute_indicator(table, IndicatorSpec(kind, (9,)))[:, 0]
        defined = values[np.isfinite(values)]
        assert (defined == 7.25).all()


def test_sma_window_mean_example():
    closes = np.arange(1.0, 41.0)
    table = make_table(closes)
    values = compute_indicator(table, IndicatorSpec("SMA", (5,)))[:, 0]
    assert values[10] == np.mean([7, 8, 9, 10, 11])  # == 9


def test_unknown_kind_rejected():
    with pytest.raises(FeatureError, match="unknown indicator"):
        IndicatorSpec("VWAP")


def test_period_exceeding_length():
    table = make_table(np.arange(1.0, 11.0))
    with pytest.raises(FeatureError, match="needs"):
        compute_indicator(table, IndicatorSpec("SMA", (11,)))


def test_period_must_be_positive():
    with pytest.raises(FeatureError, match=">= 1"):
        IndicatorSpec("SMA", (0,))


class TestFeatureMatrix:
    def test_names_in_declaration_order(self):
        table = random_walk_table(80, 2, seed=1)
        fm = compute_feature_matrix(
            table, [IndicatorSpec("MACD"), IndicatorSpec("RSI")],
            {"sentiment": np.zeros((80, 2))})
        assert fm.feature_names == ("macd_12_26_9", "rsi_14", "sentiment")
        assert fm.values.shape == (80, 2, 3)

    def test_empty_selection_is_error(self):
        table = random_walk_table(40, 1)
        with pytest.raises(FeatureError, match="at least one feature"):
            compute_feature_matrix(table, [], {})

    def test_warmup_is_max_of_components(self):
        table = random_walk_table(80, 1, seed=2)
        fm_macd = compute_feature_matrix(table, [IndicatorSpec("MACD")])
        fm_rsi = compute_feature_matrix(table, [IndicatorSpec("RSI")])
        fm_both = compute_feature_matrix(
            table, [IndicatorSpec("MACD"), IndicatorSpec("RSI")])
        assert fm_macd.warmup == 25  # slow EMA(26) defined from index 25
        assert fm_rsi.warmup == 14
        assert fm_both.warmup == max(fm_macd.warmup, fm_rsi.warmup)

    def test_duplicate_name_rejected(self):
        table = random_walk_table(40, 1)
        with pytest.raises(FeatureError, match="duplicate feature name"):
            compute_feature_matrix(table, [IndicatorSpec("SMA", (5,))],
                                   {"sma_5": np.zeros((40, 1))})

    def test_calendar_mismatch_rejected(self):
        table = random_walk_table(40, 1)
        with pytest.raises(FeatureError, match="calendar mismatch"):
            compute_feature_matrix(table, [IndicatorSpec("SMA", (5,))],
                                   {"x": np.zeros((39, 1))})

    def test_no_nan_past_warmup(self):
        table = random_walk_table(90, 3, seed=3)
        fm = compute_feature_matrix(
            table, [IndicatorSpec("MACD"), IndicatorSpec("ADX")])
        assert np.isfinite(fm.values[fm.warmup:]).all()


@pytest.mark.parametrize("kind,params", [
    ("SMA", (5,)), ("EMA", (8,)), ("MACD", ()), ("RSI", ()), ("CCI", ()),
    ("ADX", ()),
])
def test_causality_future_perturbation(kind, params, rng):
    """Perturbing bars strictly after t never changes the value at t."""
    high, low, close = ohlc_from_walk(99, T=120)
    table = make_table(close, high=high[:, None], low=low[:, None])
    spec = IndicatorSpec(kind, params)
    base = compute_indicator(table, spec)[:, 0]
    cut = 80
    bump = np.ones_like(close)
    bump[cut + 1:] = rng.uniform(0.5, 2.0, len(close) - cut - 1)
    table2 = make_table(close * bump, high=(high * bump)[:, None],
                        low=(low * bump)[:, None])
    perturbed = compute_indicator(table2, spec)[:, 0]
    np.testing.assert_array_equal(base[:cut + 1], perturbed[:cut + 1])
