"""Hot numeric kernels: indicator recursions, rolling Mahalanobis, trade fills.

The indicator kernels take (T, n) grids, one column per ticker, and work
on all columns at once: windowed ones add whole rows per window offset,
recursive ones step through t on (n,) vectors. Every sum is added in the
order of the plain per-element loop (window rows oldest first), so each
column is bit-identical to that loop on the column alone. All take
float64 arrays and return float64; undefined warmup prefixes are NaN.
"""
from __future__ import annotations

import numpy as np


def _window_sums(x, period):
    """Row k: 0.0 + x[k] + ... + x[k + period - 1], added oldest first.

    One whole-grid add per window offset, so no (T, period, n) copy.
    """
    acc = np.zeros((x.shape[0] - period + 1,) + x.shape[1:])
    for k in range(period):
        acc += x[k:k + len(acc)]
    return acc


def _added_in_order(values):
    """0.0 plus each value, left to right (``sum`` compensates from 3.12 on)."""
    total = 0.0
    for v in values.tolist():
        total += v
    return total


def _wilder(x, period, seed=None):
    """Wilder's average down the rows of x.

    Row 0 is the mean of the `seed` rows (default: the first `period`
    rows of x); row k is (row k-1 * (period - 1) + x[period + k - 1]) /
    period.
    """
    seed = x[:period] if seed is None else seed
    avg = np.empty((len(x) - period + 1,) + x.shape[1:])
    avg[0] = _window_sums(seed, period)[0] / period
    for k in range(1, len(avg)):
        avg[k] = (avg[k - 1] * (period - 1) + x[period + k - 1]) / period
    return avg


def sma_kernel(x, period):
    """Simple moving average over a trailing window of `period` rows.

    Window sums are recomputed in full (no running sum) so constant
    inputs give bit-exact constant output.
    """
    out = np.full(x.shape, np.nan)
    if period <= len(x):
        out[period - 1:] = _window_sums(x, period) / period
    return out


def ema_kernel(x, period):
    """Exponential moving average, seeded with the mean of the first window.

    The update prev + alpha*(x - prev) keeps constant inputs bit-exact.
    """
    out = np.full(x.shape, np.nan)
    if period > len(x):
        return out
    prev = _window_sums(x[:period], period)[0] / period
    out[period - 1] = prev
    alpha = 2.0 / (period + 1.0)
    for t in range(period, len(x)):
        prev = prev + alpha * (x[t] - prev)
        out[t] = prev
    return out


def rsi_kernel(close, period):
    """Relative strength index with Wilder smoothing.

    Flat market convention: 50 when average gain and loss are both zero.
    """
    T = len(close)
    out = np.full(close.shape, np.nan)
    if T < period + 1:
        return out
    diff = close[1:] - close[:-1]  # row t - 1: the move into step t
    gain = np.where(diff > 0.0, diff, 0.0)
    loss = np.where(diff < 0.0, -diff, 0.0)
    first = diff[:period]
    avg_gain = _wilder(gain, period)
    # the seed counts every move that is not a gain as a loss (NaN too)
    avg_loss = _wilder(loss, period, np.where(first > 0.0, 0.0, -first))
    with np.errstate(divide="ignore", invalid="ignore"):
        rsi = 100.0 - 100.0 / (1.0 + avg_gain / avg_loss)
    out[period:] = np.where(avg_loss == 0.0,
                            np.where(avg_gain == 0.0, 50.0, 100.0), rsi)
    return out


def cci_kernel(high, low, close, period):
    """Commodity channel index; 0 when the window has zero mean deviation."""
    out = np.full(close.shape, np.nan)
    if period > len(close):
        return out
    tp = (high + low + close) / 3.0
    m = _window_sums(tp, period) / period
    mad = np.zeros_like(m)
    for k in range(period):
        mad += np.abs(tp[k:k + len(m)] - m)
    mad /= period
    with np.errstate(divide="ignore", invalid="ignore"):
        cci = (tp[period - 1:] - m) / (0.015 * mad)
    out[period - 1:] = np.where(mad == 0.0, 0.0, cci)
    return out


def adx_kernel(high, low, close, period):
    """Average directional index with Wilder smoothing; 0 when true range is 0."""
    T = len(close)
    out = np.full(close.shape, np.nan)
    if T < 2 * period:
        return out
    # row t - 1 of each move grid belongs to step t
    up = high[1:] - high[:-1]
    dn = low[:-1] - low[1:]
    pdm = np.where((up > dn) & (up > 0.0), up, 0.0)
    mdm = np.where((dn > up) & (dn > 0.0), dn, 0.0)
    r1 = high[1:] - low[1:]
    r2 = np.abs(high[1:] - close[:-1])
    r3 = np.abs(low[1:] - close[:-1])
    r12 = np.where(r2 > r1, r2, r1)  # max(r1, r2, r3), NaN rules included
    tr = np.where(r3 > r12, r3, r12)
    # Wilder sums for steps period .. T-1, row t - period
    smoothed = []
    for move in (tr, pdm, mdm):
        s = np.empty((T - period,) + close.shape[1:])
        s[0] = _window_sums(move[:period], period)[0]
        for k in range(1, T - period):
            s[k] = s[k - 1] - s[k - 1] / period + move[period + k - 1]
        smoothed.append(s)
    s_tr, s_pdm, s_mdm = smoothed
    with np.errstate(divide="ignore", invalid="ignore"):
        pdi = 100.0 * s_pdm / s_tr
        mdi = 100.0 * s_mdm / s_tr
        denom = pdi + mdi
        dx = np.where(denom == 0.0, 0.0, 100.0 * np.abs(pdi - mdi) / denom)
    dx = np.where(s_tr == 0.0, 0.0, dx)
    out[2 * period - 1:] = _wilder(dx, period)
    return out


def turbulence_kernel(returns, window, eps_scale, calibration):
    """Mahalanobis distance of each return row from its trailing window.

    Mean and covariance come from the `window` rows strictly before t
    (row 0 is a placeholder and never used); the covariance gets a
    ridge of eps_scale * trace/n before the solve. `calibration`
    rescales the raw quadratic form (pass 1.0 for the uncalibrated
    index).
    """
    T, n = returns.shape
    out = np.full(T, np.nan)
    if T <= window + 1:
        return out
    sums = _window_sums(returns[:-1], window)  # row t - window: rows before t
    diagonal = np.diag_indices(n)
    for t in range(window + 1, T):
        mu = sums[t - window] / window
        centered = returns[t - window:t] - mu
        cov = np.ascontiguousarray(centered.T) @ centered / (window - 1.0)
        eps = eps_scale * _added_in_order(np.diagonal(cov)) / n
        if eps <= 0.0:
            eps = 1e-12
        cov[diagonal] += eps
        dev = returns[t] - mu
        z = np.linalg.solve(cov, dev)
        d = _added_in_order(dev * z)
        if d < 0.0:  # roundoff dust near zero deviation
            d = 0.0
        out[t] = calibration * d
    return out


def execute_trades_kernel(prices, holdings, balance, deltas,
                          cost_rate, allow_short, allow_margin):
    """Fill share deltas against a cash balance: all sells, then buys in order.

    Sells clip to current holdings unless shorting is allowed; each buy
    clips to what the remaining balance affords (price plus fee) unless
    margin is allowed. Returns (new_holdings, new_balance,
    executed_deltas, total_fee).
    """
    n = prices.shape[0]
    executed = np.zeros(n)
    new_h = holdings.copy()
    cost = 0.0
    b = balance
    for i in range(n):
        if deltas[i] < 0.0:
            qty = -deltas[i]
            if not allow_short:
                avail = new_h[i] if new_h[i] > 0.0 else 0.0
                if qty > avail:
                    qty = avail
            if qty > 0.0:
                proceeds = qty * prices[i]
                fee = cost_rate * proceeds
                b += proceeds - fee
                cost += fee
                new_h[i] -= qty
                executed[i] = -qty
    for i in range(n):
        if deltas[i] > 0.0:
            qty = deltas[i]
            if not allow_margin:
                unit = prices[i] * (1.0 + cost_rate)
                afford = np.floor(b / unit) if unit > 0.0 else 0.0
                if qty > afford:
                    qty = afford
            if qty > 0.0:
                notional = qty * prices[i]
                fee = cost_rate * notional
                b -= notional + fee
                cost += fee
                new_h[i] += qty
                executed[i] = qty
    if not allow_margin and b < 0.0:
        b = 0.0
    return new_h, b, executed, cost


def execute_trades_population(prices, holdings, balance, deltas,
                              cost_rate, allow_short, allow_margin):
    """``execute_trades_kernel`` for P accounts, without the fee total.

    holdings and deltas are (P, n), balance is (P,), and prices is (P, n)
    or one (n,) vector for every row. Returns (new_holdings, new_balance,
    executed_deltas); row p of each equals the scalar kernel on row p,
    bit for bit. Only the buys read the balance, each one the balance
    the buys before it left, so only they loop over the tickers (with
    vector operations over P). Everything else runs on the whole (P, n)
    grid, and the sell proceeds are added to the balance in ticker order,
    as the scalar kernel adds them.

    ``fmin(q, cap)`` stands for the scalar ``cap if q > cap else q``
    (also when cap is NaN). The two can differ only in the sign of a
    zero, and a quantity that is not positive does not fill.
    """
    sell = np.fmax(-deltas, 0.0)
    if not allow_short:
        sell = np.fmin(sell, np.fmax(holdings, 0.0))
    sold = sell > 0.0
    proceeds = sell * prices
    b = _sum_in_order(balance, sold, proceeds - cost_rate * proceeds)
    buy = np.fmax(deltas, 0.0)
    unit = prices * (1.0 + cost_rate)
    if not allow_margin and not unit.min() > 0.0:
        # a unit cost <= 0 affords no share: those buys become 0 here, and
        # a unit of 1 keeps their unused cap free of a division by zero
        payable = unit > 0.0
        buy = np.where(payable, buy, 0.0)
        unit = np.where(payable, unit, 1.0)
    for i, (price, u) in enumerate(zip(prices.T, unit.T)):
        qty = buy[:, i]
        if not allow_margin:
            qty = np.fmin(qty, np.floor(b / u))
        notional = qty * price
        np.subtract(b, notional + cost_rate * notional, out=b, where=qty > 0.0)
        buy[:, i] = qty
    bought = buy > 0.0
    executed = np.where(sold, -sell, np.where(bought, buy, 0.0))
    new_h = np.where(sold | bought, holdings + executed, holdings)
    if not allow_margin:
        b = np.where(b < 0.0, 0.0, b)
    return new_h, b, executed


def _sum_in_order(start, mask, terms):
    """start plus each masked-in column of terms, added left to right.

    Masked-out columns add -0.0, the exact identity, so each row's sum
    is the scalar loop's ``if mask: total += term``.
    """
    columns = np.concatenate((start[:, None], np.where(mask, terms, -0.0)),
                             axis=1)
    return np.add.accumulate(columns, axis=1)[:, -1].copy()
