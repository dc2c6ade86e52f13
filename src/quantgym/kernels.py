"""Hot numeric kernels: indicator recursions, rolling Mahalanobis, trade fills.

Every kernel is a single njit-compatible numpy function; with numba
installed (and ``QUANTGYM_NUMBA`` unset or truthy) they are compiled,
otherwise the same body runs as plain Python/numpy. All take float64
arrays and return float64; undefined warmup prefixes are NaN.
"""
from __future__ import annotations

import numpy as np

from .accel import maybe_njit


@maybe_njit(cache=True)
def sma_kernel(x, period):
    """Simple moving average over a trailing window of `period` samples.

    Window sums are recomputed in full (no running sum) so constant
    inputs give bit-exact constant output.
    """
    T = x.shape[0]
    out = np.full(T, np.nan)
    if period > T:
        return out
    for t in range(period - 1, T):
        acc = 0.0
        for i in range(t - period + 1, t + 1):
            acc += x[i]
        out[t] = acc / period
    return out


@maybe_njit(cache=True)
def ema_kernel(x, period):
    """Exponential moving average, seeded with the mean of the first window.

    The update prev + alpha*(x - prev) keeps constant inputs bit-exact.
    """
    T = x.shape[0]
    out = np.full(T, np.nan)
    if period > T:
        return out
    seed = 0.0
    for t in range(period):
        seed += x[t]
    prev = seed / period
    out[period - 1] = prev
    alpha = 2.0 / (period + 1.0)
    for t in range(period, T):
        prev = prev + alpha * (x[t] - prev)
        out[t] = prev
    return out


@maybe_njit(cache=True)
def rsi_kernel(close, period):
    """Relative strength index with Wilder smoothing.

    Flat market convention: 50 when average gain and loss are both zero.
    """
    T = close.shape[0]
    out = np.full(T, np.nan)
    if T < period + 1:
        return out
    avg_gain = 0.0
    avg_loss = 0.0
    for t in range(1, period + 1):
        diff = close[t] - close[t - 1]
        if diff > 0.0:
            avg_gain += diff
        else:
            avg_loss -= diff
    avg_gain /= period
    avg_loss /= period
    for t in range(period, T):
        if t > period:
            diff = close[t] - close[t - 1]
            gain = diff if diff > 0.0 else 0.0
            loss = -diff if diff < 0.0 else 0.0
            avg_gain = (avg_gain * (period - 1) + gain) / period
            avg_loss = (avg_loss * (period - 1) + loss) / period
        if avg_loss == 0.0 and avg_gain == 0.0:
            out[t] = 50.0
        elif avg_loss == 0.0:
            out[t] = 100.0
        else:
            rs = avg_gain / avg_loss
            out[t] = 100.0 - 100.0 / (1.0 + rs)
    return out


@maybe_njit(cache=True)
def cci_kernel(high, low, close, period):
    """Commodity channel index; 0 when the window has zero mean deviation."""
    T = high.shape[0]
    out = np.full(T, np.nan)
    if period > T:
        return out
    tp = (high + low + close) / 3.0
    for t in range(period - 1, T):
        m = 0.0
        for i in range(t - period + 1, t + 1):
            m += tp[i]
        m /= period
        mad = 0.0
        for i in range(t - period + 1, t + 1):
            mad += abs(tp[i] - m)
        mad /= period
        if mad == 0.0:
            out[t] = 0.0
        else:
            out[t] = (tp[t] - m) / (0.015 * mad)
    return out


@maybe_njit(cache=True)
def adx_kernel(high, low, close, period):
    """Average directional index with Wilder smoothing; 0 when true range is 0."""
    T = high.shape[0]
    out = np.full(T, np.nan)
    if T < 2 * period:
        return out
    dx = np.full(T, np.nan)
    s_tr = 0.0
    s_pdm = 0.0
    s_mdm = 0.0
    for t in range(1, T):
        up = high[t] - high[t - 1]
        dn = low[t - 1] - low[t]
        pdm = up if (up > dn and up > 0.0) else 0.0
        mdm = dn if (dn > up and dn > 0.0) else 0.0
        r1 = high[t] - low[t]
        r2 = abs(high[t] - close[t - 1])
        r3 = abs(low[t] - close[t - 1])
        tr = max(r1, r2, r3)
        if t <= period:
            s_tr += tr
            s_pdm += pdm
            s_mdm += mdm
            if t < period:
                continue
        else:
            s_tr = s_tr - s_tr / period + tr
            s_pdm = s_pdm - s_pdm / period + pdm
            s_mdm = s_mdm - s_mdm / period + mdm
        if s_tr == 0.0:
            dx[t] = 0.0
        else:
            pdi = 100.0 * s_pdm / s_tr
            mdi = 100.0 * s_mdm / s_tr
            denom = pdi + mdi
            dx[t] = 0.0 if denom == 0.0 else 100.0 * abs(pdi - mdi) / denom
    acc = 0.0
    for t in range(period, 2 * period):
        acc += dx[t]
    adx = acc / period
    out[2 * period - 1] = adx
    for t in range(2 * period, T):
        adx = (adx * (period - 1) + dx[t]) / period
        out[t] = adx
    return out


@maybe_njit(cache=True)
def turbulence_kernel(returns, window, eps_scale, calibration):
    """Mahalanobis distance of each return row from its trailing window.

    Mean and covariance come from the `window` rows strictly before t
    (rows 0 is a placeholder and never used); the covariance gets a
    ridge of eps_scale * trace/n before the solve. `calibration`
    rescales the raw quadratic form (pass 1.0 for the uncalibrated
    index).
    """
    T, n = returns.shape
    out = np.full(T, np.nan)
    for t in range(window + 1, T):
        hist = returns[t - window:t]
        mu = np.zeros(n)
        for j in range(n):
            s = 0.0
            for i in range(window):
                s += hist[i, j]
            mu[j] = s / window
        centered = hist - mu
        cov = np.ascontiguousarray(centered.T) @ centered / (window - 1.0)
        tr = 0.0
        for j in range(n):
            tr += cov[j, j]
        eps = eps_scale * tr / n
        if eps <= 0.0:
            eps = 1e-12
        for j in range(n):
            cov[j, j] += eps
        dev = returns[t] - mu
        z = np.linalg.solve(cov, dev)
        d = 0.0
        for j in range(n):
            d += dev[j] * z[j]
        if d < 0.0:  # roundoff dust near zero deviation
            d = 0.0
        out[t] = calibration * d
    return out


@maybe_njit(cache=True)
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
    """``execute_trades_kernel`` for P accounts at one price vector.

    holdings and deltas are (P, n), balance is (P,); row p of each result
    equals the scalar kernel on row p, bit for bit. Only the buys read
    the balance, each one the balance the buys before it left, so only
    they loop over the tickers (with vector operations over P).
    Everything else runs on the whole (P, n) grid, and the balance and
    fee totals are summed in the scalar kernel's order: all sells, then
    buys, in ticker order.

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
    for i, (price, u) in enumerate(zip(prices.tolist(), unit.tolist())):
        qty = buy[:, i]
        if not allow_margin:
            qty = np.fmin(qty, np.floor(b / u) if u > 0.0 else 0.0)
        notional = qty * price
        np.subtract(b, notional + cost_rate * notional, out=b, where=qty > 0.0)
        buy[:, i] = qty
    bought = buy > 0.0
    executed = np.where(sold, -sell, np.where(bought, buy, 0.0))
    new_h = np.where(sold | bought, holdings + executed, holdings)
    fees = cost_rate * (np.abs(executed) * prices)
    cost = _sum_in_order(np.zeros(len(balance)),
                         np.concatenate((sold, bought), axis=1),
                         np.concatenate((fees, fees), axis=1))
    if not allow_margin:
        b = np.where(b < 0.0, 0.0, b)
    return new_h, b, executed, cost


def _sum_in_order(start, mask, terms):
    """start plus each masked-in column of terms, added left to right.

    Masked-out columns add -0.0, the exact identity, so each row's sum
    is the scalar loop's ``if mask: total += term``.
    """
    columns = np.concatenate((start[:, None], np.where(mask, terms, -0.0)),
                             axis=1)
    return np.add.accumulate(columns, axis=1)[:, -1].copy()
