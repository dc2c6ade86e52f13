"""Hot numeric kernels: indicator recursions, rolling Mahalanobis, trade fills.

The indicator kernels take (T, n) grids, one column per ticker, and work
on all columns at once: windowed ones add whole rows per window offset,
recursive ones step through t on (n,) vectors, or on (k, n) stacks of
the k series that share one recursion. Every sum is added in the order
of the plain per-element loop (window rows oldest first), so each column
is bit-identical to that loop on the column alone. All take
float64 arrays and return float64; undefined warmup prefixes are NaN,
and every NaN an indicator or turbulence kernel returns is ``np.nan``.
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


def _canonical_nan(out):
    """out, with ``np.nan`` written over each NaN of either sign."""
    np.copyto(out, np.nan, where=np.isnan(out))
    return out


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
        np.divide(_window_sums(x, period), period, out=out[period - 1:])
    return _canonical_nan(out)


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
    return _canonical_nan(out)


def rsi_kernel(close, period):
    """Relative strength index with Wilder smoothing.

    Flat market convention: 50 when average gain and loss are both zero.
    """
    T = len(close)
    out = np.full(close.shape, np.nan)
    if T < period + 1:
        return out
    diff = close[1:] - close[:-1]  # row t - 1: the move into step t
    # gain and loss side by side, for one Wilder pass over both
    moves = np.zeros((T - 1, 2) + close.shape[1:])
    np.copyto(moves[:, 0], diff, where=diff > 0.0)
    np.negative(diff, out=moves[:, 1], where=diff < 0.0)
    # the loss seed counts every move that is not a gain as a loss (NaN too)
    seed = moves[:period].copy()
    first = diff[:period]
    np.negative(first, out=seed[:, 1], where=~(first > 0.0))
    del diff
    avg = _wilder(moves, period, seed)
    del moves
    avg_gain, avg_loss = avg[:, 0], avg[:, 1]
    rsi = out[period:]
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(avg_gain, avg_loss, out=rsi)
        np.add(1.0, rsi, out=rsi)
        np.divide(100.0, rsi, out=rsi)
        np.subtract(100.0, rsi, out=rsi)
    np.copyto(rsi, np.where(avg_gain == 0.0, 50.0, 100.0),
              where=avg_loss == 0.0)
    return _canonical_nan(out)


def cci_kernel(high, low, close, period):
    """Commodity channel index; 0 when the window has zero mean deviation."""
    out = np.full(close.shape, np.nan)
    if period > len(close):
        return out
    tp = high + low
    tp += close
    tp /= 3.0
    m = _window_sums(tp, period)
    m /= period
    mad = np.zeros_like(m)
    scratch = np.empty_like(m)
    for k in range(period):
        np.subtract(tp[k:k + len(m)], m, out=scratch)
        mad += np.abs(scratch, out=scratch)
    mad /= period
    cci = out[period - 1:]
    np.subtract(tp[period - 1:], m, out=cci)
    with np.errstate(divide="ignore", invalid="ignore"):
        cci /= np.multiply(0.015, mad, out=scratch)
    np.copyto(cci, 0.0, where=mad == 0.0)
    return _canonical_nan(out)


def adx_kernel(high, low, close, period):
    """Average directional index with Wilder smoothing; 0 when true range is 0."""
    T = len(close)
    out = np.full(close.shape, np.nan)
    if T < 2 * period:
        return out
    # row t - 1 of the true range and the two directional moves, side by
    # side, belongs to step t
    moves = np.zeros((T - 1, 3) + close.shape[1:])
    tr = moves[:, 0]
    up = high[1:] - high[:-1]
    dn = low[:-1] - low[1:]
    np.copyto(moves[:, 1], up, where=(up > dn) & (up > 0.0))
    np.copyto(moves[:, 2], dn, where=(dn > up) & (dn > 0.0))
    del up, dn
    np.subtract(high[1:], low[1:], out=tr)
    r = np.abs(high[1:] - close[:-1])
    np.copyto(tr, r, where=r > tr)  # max(r1, r2, r3), NaN rules included
    np.subtract(low[1:], close[:-1], out=r)
    np.abs(r, out=r)
    np.copyto(tr, r, where=r > tr)
    del r
    # Wilder sums for steps period .. T-1, written over the moves: the sum
    # of step period + k sits at row period - 1 + k, and each step reads
    # the move it overwrites
    moves[period - 1] = _window_sums(moves[:period], period)[0]
    for row in range(period, T - 1):
        moves[row] = moves[row - 1] - moves[row - 1] / period + moves[row]
    s = moves[period - 1:]
    s_tr = s[:, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        pdi = 100.0 * s[:, 1] / s_tr
        mdi = 100.0 * s[:, 2] / s_tr
        denom = pdi + mdi
        dx = np.subtract(pdi, mdi, out=pdi)
        del mdi
        np.abs(dx, out=dx)
        np.multiply(100.0, dx, out=dx)
        dx /= denom
    np.copyto(dx, 0.0, where=denom == 0.0)
    del denom
    np.copyto(dx, 0.0, where=s_tr == 0.0)
    del s, s_tr, moves
    out[2 * period - 1:] = _wilder(dx, period)
    return _canonical_nan(out)


# the most steps whose (n, n) covariances turbulence_kernel holds at once
TURBULENCE_CHUNK = 64


def turbulence_kernel(returns, window, eps_scale, calibration):
    """Mahalanobis distance of each return row from its trailing window.

    Mean and covariance come from the `window` rows strictly before t
    (row 0 is a placeholder and never used); the covariance gets a
    ridge of eps_scale * trace/n before the solve. `calibration`
    rescales the raw quadratic form (pass 1.0 for the uncalibrated
    index). A step whose quadratic form is NaN gets ``np.nan``.

    Each step's window is centered and multiplied on its own; the ridge,
    the ordered sums and the solves then run once per chunk of at most
    ``TURBULENCE_CHUNK`` steps, bit for bit as step by step.
    """
    T, n = returns.shape
    out = np.full(T, np.nan)
    if T <= window + 1:
        return out
    sums = _window_sums(returns[:-1], window)  # row t - window: rows before t
    buffer = np.empty((min(TURBULENCE_CHUNK, T - window - 1), n, n))
    for start in range(window + 1, T, TURBULENCE_CHUNK):
        stop = min(start + TURBULENCE_CHUNK, T)
        mu = sums[start - window:stop - window] / window
        cov = buffer[:stop - start]
        for k, t in enumerate(range(start, stop)):
            centered = returns[t - window:t] - mu[k]
            np.matmul(np.ascontiguousarray(centered.T), centered, out=cov[k])
        cov /= window - 1.0
        diagonal = cov.reshape(len(cov), n * n)[:, ::n + 1]
        zero = np.zeros(len(cov))
        eps = eps_scale * _sum_in_order(zero, diagonal) / n
        diagonal += np.where(eps <= 0.0, 1e-12, eps)[:, None]
        dev = returns[start:stop] - mu
        z = np.linalg.solve(cov, dev[:, :, None])[:, :, 0]
        d = _sum_in_order(zero, dev * z)
        # d < 0 is roundoff dust near zero deviation
        out[start:stop] = calibration * np.where(d < 0.0, 0.0, d)
    return _canonical_nan(out)


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
    vector operations over P, on a ticker-major copy of the buys and
    prices, into buffers allocated once). Everything else runs on the
    whole (P, n) grid, and the sell proceeds are added to the balance in
    ticker order, as the scalar kernel adds them.

    ``fmin(q, cap)`` stands for the scalar ``cap if q > cap else q``
    (also when cap is NaN). The two can differ only in the sign of a
    zero, and a quantity that is not positive does not fill.
    """
    sell = np.fmax(-deltas, 0.0)
    if not allow_short:
        sell = np.fmin(sell, np.fmax(holdings, 0.0))
    sold = sell > 0.0
    proceeds = sell * prices
    # an unsold column adds -0.0, the exact identity
    b = _sum_in_order(balance, np.where(sold, proceeds - cost_rate * proceeds,
                                        -0.0))
    # row i: ticker i of every account; a price row per account, or one
    # price for all of them
    buy = np.fmax(deltas.T, 0.0, order="C")
    price = np.ascontiguousarray(prices.T)
    unit = price * (1.0 + cost_rate)
    if not allow_margin and not unit.min() > 0.0:
        # a unit cost <= 0 affords no share: those buys become 0 here, and
        # a unit of 1 keeps their unused cap free of a division by zero
        unpayable = ~(unit > 0.0)
        np.copyto(buy, 0.0, where=unpayable.reshape(len(buy), -1))
        np.copyto(unit, 1.0, where=unpayable)
    # every output is passed by position: a keyword costs more per call
    afford, spend = np.empty_like(b), np.empty_like(b)
    fills = np.empty(b.shape, dtype=bool)
    for qty, p, u in zip(buy, price, unit):
        if not allow_margin:
            np.divide(b, u, afford)
            np.floor(afford, afford)
            np.fmin(qty, afford, qty)
        np.multiply(qty, p, spend)  # the notional, then plus its fee
        np.multiply(cost_rate, spend, afford)
        np.add(spend, afford, spend)
        np.greater(qty, 0.0, fills)
        np.subtract(b, spend, b, where=fills)
    buy = buy.T
    bought = buy > 0.0
    executed = np.where(sold, -sell, np.where(bought, buy, 0.0))
    new_h = np.where(sold | bought, holdings + executed, holdings)
    if not allow_margin:
        b = np.where(b < 0.0, 0.0, b)
    return new_h, b, executed


def _sum_in_order(start, terms):
    """start plus each column of (k, m) terms, added left to right, so
    row i is ``start[i] + terms[i, 0] + ...`` of the scalar loop (and, from
    a start of 0.0, ``_added_in_order`` of the row)."""
    columns = np.concatenate((start[:, None], terms), axis=1)
    return np.add.accumulate(columns, axis=1)[:, -1].copy()
