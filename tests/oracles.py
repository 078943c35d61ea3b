"""Independent reimplementations used only as test oracles.

Everything here is written in deliberately plain, scalar-loop style with a
different algorithmic route where one exists (bisection instead of
sort-and-threshold, explicit transfer loops instead of matrix algebra), so a
bug in the production code is unlikely to be mirrored by the oracle. The
rest are the program's former formulations (the CSV loader that converted
and checked one cell at a time, one day's returns, features, one refit's
training set, MLP training, the numpy simplex projection, the one-problem
log-optimal solver and its full line search, L1 median, the per-day
Anticor, BNN, CORN, OLMAR, PAMR and RMR updates, the weight decay over a
list of recent rows), kept as byte-for-byte references for the code that
replaced them.
"""

import csv
import math
import warnings
from datetime import date
from pathlib import Path
from statistics import NormalDist

import numpy as np

from rankfolio.data import PriceMatrix
from rankfolio.engine import apply_decay
from rankfolio.features import (check_history, rank_transform,
                                window_features)
from rankfolio.optim import RELATIVE_FLOOR, project_to_simplex


def project_simplex_bisect(v):
    """Simplex projection by bisecting on the shift threshold."""
    v = np.asarray(v, dtype=np.float64)
    lo, hi = v.max() - 1.0, v.max()
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if np.maximum(v - mid, 0.0).sum() > 1.0:
            lo = mid
        else:
            hi = mid
    return np.maximum(v - 0.5 * (lo + hi), 0.0)


def project_to_simplex_sorted(v):
    """Sort-and-threshold simplex projection in numpy calls: the last k with
    u_k * (k + 1) > css_k - 1 over the descending sort u and its running
    sums css. Byte-for-byte reference for ``project_to_simplex``."""
    v = np.asarray(v, dtype=np.float64)
    n = v.size
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    idx = np.arange(1, n + 1)
    rho = np.nonzero(u * idx > (css - 1.0))[0][-1]
    theta = (css[rho] - 1.0) / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


def log_wealth(relatives, w):
    return float(np.log(relatives @ w).sum())


def eg_oracle(prices, eta):
    """Exponentiated-gradient recursion, one scalar pass over history."""
    T, n = prices.shape
    w = np.full(n, 1.0 / n)
    for t in range(1, T):
        x = prices[t] / prices[t - 1]
        dot = float(w @ x)
        w = w * np.exp(eta * x / dot)
        w = w / w.sum()
    return w


def pamr_oracle(prices, eps):
    T, n = prices.shape
    w = np.full(n, 1.0 / n)
    for t in range(1, T):
        x = prices[t] / prices[t - 1]
        ret = float(w @ x)
        if ret <= eps:
            continue
        dev = x - x.mean()
        sq = float(dev @ dev)
        if sq < 1e-24:
            continue
        w = project_simplex_bisect(w - ((ret - eps) / sq) * dev)
    return w


def olmar_oracle(prices, window, eps):
    T, n = prices.shape
    w = np.full(n, 1.0 / n)
    for t in range(1, T + 1):
        if t < window:
            continue
        xh = np.zeros(n)
        for k in range(window):
            xh += prices[t - 1 - k] / prices[t - 1]
        xh /= window
        gap = eps - float(w @ xh)
        if gap <= 0:
            continue
        dev = xh - xh.mean()
        sq = float(dev @ dev)
        if sq < 1e-24:
            continue
        w = project_simplex_bisect(w + (gap / sq) * dev)
    return w


def weiszfeld_median(pts, iters=2000, tol=1e-13):
    """Epsilon-smoothed Weiszfeld; adequate away from data points."""
    pts = np.asarray(pts, dtype=np.float64)
    y = pts.mean(axis=0)
    for _ in range(iters):
        d = np.sqrt(((pts - y) ** 2).sum(axis=1))
        d = np.maximum(d, 1e-14)
        inv = 1.0 / d
        y_next = (pts * inv[:, None]).sum(axis=0) / inv.sum()
        if np.linalg.norm(y_next - y) < tol:
            return y_next
        y = y_next
    return y


def rmr_oracle(prices, window, eps):
    T, n = prices.shape
    w = np.full(n, 1.0 / n)
    for t in range(1, T + 1):
        if t < window:
            continue
        med = weiszfeld_median(prices[t - window: t])
        xh = med / prices[t - 1]
        gap = eps - float(w @ xh)
        if gap <= 0:
            continue
        dev = xh - xh.mean()
        sq = float(dev @ dev)
        if sq < 1e-24:
            continue
        w = project_simplex_bisect(w + (gap / sq) * dev)
    return w


def cwmr_oracle(prices, confidence, eps):
    """Diagonal confidence-weighted reversion, fully scalar."""
    T, n = prices.shape
    phi = NormalDist().inv_cdf(confidence)
    mu = [1.0 / n] * n
    s2 = [1.0 / (n * n)] * n
    for t in range(1, T):
        x = [prices[t][j] / prices[t - 1][j] for j in range(n)]
        m_val = sum(mu[j] * x[j] for j in range(n))
        v_val = sum(s2[j] * x[j] * x[j] for j in range(n))
        w_val = sum(s2[j] * x[j] for j in range(n))
        xbar = w_val / sum(s2)
        c = eps - m_val - phi * v_val
        if c >= 0:
            continue
        a = 2.0 * phi * v_val * v_val - 2.0 * phi * xbar * v_val * w_val
        b = (2.0 * phi * eps * v_val - 2.0 * phi * v_val * m_val
             + v_val - xbar * w_val)
        if a <= 1e-24:
            continue
        lam = max(0.0, (-b + math.sqrt(max(b * b - 4.0 * a * c, 0.0)))
                  / (2.0 * a))
        if lam == 0.0:
            continue
        mu = [mu[j] - lam * s2[j] * (x[j] - xbar) for j in range(n)]
        s2 = [1.0 / (1.0 / s2[j] + 2.0 * lam * phi * x[j] * x[j])
              for j in range(n)]
        total = sum(s2)
        s2 = [v * (1.0 / n) / total for v in s2]
        mu = list(project_simplex_bisect(np.array(mu)))
    return np.array(mu)


def anticor_oracle(prices, window):
    """Explicit per-pair transfer loop."""
    T, n = prices.shape
    w = np.full(n, 1.0 / n)
    for t in range(1, T + 1):
        if t - 1 < 2 * window:
            continue
        tail = prices[t - 2 * window - 1: t]
        lr = np.log(tail[1:] / tail[:-1])
        lx1, lx2 = lr[:window], lr[window:]
        mu1, mu2 = lx1.mean(axis=0), lx2.mean(axis=0)
        sd1 = lx1.std(axis=0, ddof=1)
        sd2 = lx2.std(axis=0, ddof=1)
        mcor = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                cov = sum((lx1[k, i] - mu1[i]) * (lx2[k, j] - mu2[j])
                          for k in range(window)) / (window - 1)
                if sd1[i] > 0 and sd2[j] > 0:
                    mcor[i, j] = cov / (sd1[i] * sd2[j])
        claims = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                if mu2[i] >= mu2[j] and mcor[i, j] > 0:
                    claims[i, j] = (mcor[i, j] + max(-mcor[i, i], 0.0)
                                    + max(-mcor[j, j], 0.0))
        new_w = w.copy()
        for i in range(n):
            out_total = claims[i].sum()
            if out_total <= 0:
                continue
            for j in range(n):
                if claims[i, j] > 0:
                    amount = w[i] * claims[i, j] / out_total
                    new_w[i] -= amount
                    new_w[j] += amount
        w = new_w
    return w


def up_oracle(prices, samples, seed):
    """Sampled universal portfolio with per-sample scalar wealth tracking."""
    T, n = prices.shape
    rng = np.random.default_rng(seed)
    crps = rng.dirichlet(np.ones(n), size=samples)
    wealth = [1.0] * samples
    for t in range(1, T):
        x = prices[t] / prices[t - 1]
        for s in range(samples):
            wealth[s] *= float(crps[s] @ x)
    num = np.zeros(n)
    for s in range(samples):
        num += wealth[s] * crps[s]
    return num / sum(wealth)


def pattern_candidates(prices, window):
    """(current_window, candidate_windows, successor_indices, relatives).

    Candidate window i spans relatives i..i+window-1 and is followed by
    relative i+window; the trailing window (the current pattern) is excluded.
    """
    prices = np.asarray(prices, dtype=np.float64)
    T = prices.shape[0]
    rels = prices[1:] / prices[:-1]
    count = T - 1 - window
    current = rels[T - 1 - window: T - 1].ravel()
    cands = [rels[i: i + window].ravel() for i in range(count)]
    succ = [i + window for i in range(count)]
    return current, cands, succ, rels


def bnn_neighbor_indices(prices, neighbors, window):
    current, cands, succ, _ = pattern_candidates(prices, window)
    d2 = [float(((c - current) ** 2).sum()) for c in cands]
    order = sorted(range(len(cands)), key=lambda i: (d2[i], i))
    return [succ[i] for i in order[:neighbors]]


def corn_matched_indices(prices, rho, window):
    current, cands, succ, _ = pattern_candidates(prices, window)
    cur_c = current - current.mean()
    cur_n = math.sqrt(float(cur_c @ cur_c))
    matched = []
    for i, c in enumerate(cands):
        cc = c - c.mean()
        cn = math.sqrt(float(cc @ cc))
        corr = 0.0 if cn * cur_n == 0 else float(cc @ cur_c) / (cn * cur_n)
        if corr >= rho:
            matched.append(succ[i])
    return matched


def knn_oracle(train_x, train_y, query, k):
    """Exhaustive neighbor scan with explicit squared-distance loops."""
    train_x = np.asarray(train_x, dtype=np.float64)
    train_y = np.asarray(train_y, dtype=np.float64)
    d2 = []
    for row in train_x:
        d2.append(float(((row - query) ** 2).sum()))
    order = sorted(range(len(d2)), key=lambda i: (d2[i], i))[:k]
    out = np.zeros(train_y.shape[1])
    for i in order:
        out += train_y[i]
    return out / k


def average_ranks_loop(values):
    """Ranks 1..n with ties sharing their average rank, by a sorted scan."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(values.size, dtype=np.float64)
    sorted_vals = values[order]
    i = 0
    while i < values.size:
        j = i
        while j + 1 < values.size and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i: j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def spearman_vs_time_loop(series):
    """Spearman correlation of one series against its time index; 0 if flat."""
    if series.size < 2:
        return 0.0
    ranks = average_ranks_loop(series)
    idx = np.arange(1.0, series.size + 1.0)
    rc = ranks - ranks.mean()
    ic = idx - idx.mean()
    denom = math.sqrt(float(rc @ rc) * float(ic @ ic))
    if denom == 0.0:
        return 0.0
    return float(rc @ ic) / denom


def features_loop(window, trend="price"):
    """One window's feature row in the per-asset loop formulation: the
    last/vol/sharpe reductions of the window alone, then one scalar Spearman
    pass per asset. Byte-for-byte reference for every row of
    ``window_features``."""
    window = np.asarray(window, dtype=np.float64)
    rets = window[1:] / window[:-1] - 1.0
    n = window.shape[1]
    last = rets[-1]
    mean = rets.mean(axis=0)
    if rets.shape[0] >= 2:
        vol = np.sqrt(((rets - mean) ** 2).sum(axis=0) / (rets.shape[0] - 1))
    else:
        vol = np.zeros(n)
    sharpe = np.zeros(n)
    np.divide(mean, vol, out=sharpe, where=vol > 0)
    basis = window if trend == "price" else rets
    trend_corr = np.array([spearman_vs_time_loop(basis[:, j]) for j in range(n)])
    return np.concatenate([last, vol, sharpe, trend_corr])


def training_set(prices, lookback, power, feature_window, trend="price"):
    """Feature matrix and targets from the trailing ``lookback`` days, for
    one refit alone.

    ``prices`` is the full history prefix up to the current day t (its row
    count). Row i pairs the features of day s = t - lookback + i with the
    rank-transformed returns realized from day s to s + 1, so every quantity
    is observable by day t. Byte-for-byte reference for the block that
    ``RankForecastStrategy.run`` slices from its stacked passes for a refit
    on day t.
    """
    t = prices.shape[0]
    check_history(t, lookback, feature_window)
    s = t - lookback
    return (window_features(prices[s - feature_window: t - 1], feature_window,
                            trend),
            rank_transform(prices[s:] / prices[s - 1: t - 1] - 1.0, power))


def mlp_train_loop(features, targets, hidden=(20, 20), epochs=200,
                   learning_rate=1e-3, batch_size=0, seed=10):
    """The per-tensor formulation of ``mlp_train``: the same init, batches and
    gradients, then Adam as a loop over every weight and bias array with
    fresh temporaries. Byte-for-byte reference for the flat-vector update."""
    from rankfolio.mlp import (ADAM_BETA1, ADAM_BETA2, ADAM_EPS, MlpModel,
                               loss_and_gradients)

    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    model = MlpModel.initialize((x.shape[1], *hidden, y.shape[1]), seed)
    params = model.weights + model.biases
    first_moment = [np.zeros_like(p) for p in params]
    second_moment = [np.zeros_like(p) for p in params]
    rng = np.random.default_rng(seed)
    steps = 0
    rows = x.shape[0]
    size = rows if batch_size == 0 else min(batch_size, rows)
    for _ in range(epochs):
        if size == rows:
            batches = [(x, y)]
        else:
            perm = rng.permutation(rows)
            batches = [(x[perm[i: i + size]], y[perm[i: i + size]])
                       for i in range(0, rows, size)]
        epoch_losses = []
        for bx, by in batches:
            loss, w_grads, b_grads = loss_and_gradients(model, bx, by)
            epoch_losses.append(loss)
            steps += 1
            bias1 = 1.0 - ADAM_BETA1 ** steps
            bias2 = 1.0 - ADAM_BETA2 ** steps
            for p, g, m, v in zip(params, w_grads + b_grads, first_moment,
                                  second_moment):
                m *= ADAM_BETA1
                m += (1.0 - ADAM_BETA1) * g
                v *= ADAM_BETA2
                v += (1.0 - ADAM_BETA2) * g * g
                p -= learning_rate * (m / bias1) / (np.sqrt(v / bias2) + ADAM_EPS)
        model.loss_curve.append(float(np.mean(epoch_losses)))
    return model


def scalar_ascent(relatives, w, tol, max_iter):
    """Projected gradient ascent with backtracking from start point ``w``
    on one problem; any step moving ``w`` less than ``tol``, even a
    rejected one, ends it. Returns (w, objective)."""
    port = np.maximum(relatives @ w, RELATIVE_FLOOR)
    fw = float(np.log(port).sum())
    step = 1.0
    for _ in range(max_iter):
        grad = (relatives / port[:, None]).sum(axis=0)
        # halve the step until it improves the objective or moves w < tol
        while step >= 1e-18:
            cand = project_to_simplex(w + step * grad)
            cand_port = np.maximum(relatives @ cand, RELATIVE_FLOOR)
            fc = float(np.log(cand_port).sum())
            moved = float(np.linalg.norm(cand - w))
            if fc > fw:
                break
            if moved < tol:
                return w, fw
            step *= 0.5
        else:
            break
        w, fw, port = cand, fc, cand_port
        step *= 2.0
        if moved < tol:
            break
    return w, fw


def log_optimal_scalar(relatives, tol=1e-10, max_iter=10_000):
    """The one-problem formulation of ``log_optimal_stack``: the same
    ascent from the uniform start, corner restart and floor warning, solved
    with scalar objectives and one projection per trial. Each row of a
    block's solution must match it byte for byte."""
    relatives = np.asarray(relatives, dtype=np.float64)
    n = relatives.shape[1]
    if n == 1:
        return np.ones(1)
    w, fw = scalar_ascent(relatives, np.full(n, 1.0 / n), tol, max_iter)
    corner_f = np.log(np.maximum(relatives, RELATIVE_FLOOR)).sum(axis=0)
    best = int(np.argmax(corner_f))
    if corner_f[best] > fw:
        corner = np.zeros(n)
        corner[best] = 1.0
        w2, fw2 = scalar_ascent(relatives, corner, tol, max_iter)
        if fw2 > fw:
            w = w2
    if (np.maximum(relatives @ w, RELATIVE_FLOOR) <= RELATIVE_FLOOR).any():
        warnings.warn("log-optimal solution sits on the relative floor; "
                      "input rows contain non-positive entries",
                      RuntimeWarning, stacklevel=2)
    return w


def log_optimal_loop(relatives, tol=1e-10, max_iter=10_000):
    """The full-length line-search formulation of ``log_optimal_portfolio``:
    the same projected-gradient ascent, uniform start and corner restart, but
    each line search halves the step down to 1e-18 before the ascent gives
    up, and the objective is recomputed from the weights at every step.
    Reference for the solver's early stop on a rejected sub-``tol`` step."""
    relatives = np.asarray(relatives, dtype=np.float64)
    n = relatives.shape[1]
    if n == 1:
        return np.ones(1)

    def objective(w):
        return float(np.log(np.maximum(relatives @ w, RELATIVE_FLOOR)).sum())

    def ascend(w):
        fw = objective(w)
        step = 1.0
        for _ in range(max_iter):
            port = np.maximum(relatives @ w, RELATIVE_FLOOR)
            grad = (relatives / port[:, None]).sum(axis=0)
            improved = False
            while step >= 1e-18:
                cand = project_to_simplex(w + step * grad)
                fc = objective(cand)
                if fc > fw:
                    improved = True
                    break
                step *= 0.5
            if not improved:
                break
            moved = float(np.linalg.norm(cand - w))
            w, fw = cand, fc
            step *= 2.0
            if moved < tol:
                break
        return w, fw

    w, fw = ascend(np.full(n, 1.0 / n))
    corner_f = np.log(np.maximum(relatives, RELATIVE_FLOOR)).sum(axis=0)
    best = int(np.argmax(corner_f))
    if corner_f[best] > fw:
        corner = np.zeros(n)
        corner[best] = 1.0
        w2, fw2 = ascend(corner)
        if fw2 > fw:
            w = w2
    return w


def returns_at(prices, t):
    """Simple returns of day t, p[t, j] / p[t-1, j] - 1 (1-based days), for
    1 <= t <= T-1; the per-day reference for the daily returns that
    ``summary_stats`` describes."""
    p = np.asarray(prices, dtype=np.float64)
    if not 1 <= t <= p.shape[0] - 1:
        raise ValueError(f"day index {t} out of range 1..{p.shape[0] - 1}")
    return p[t] / p[t - 1] - 1.0


def geometric_median_loop(points, tol=1e-9, max_iter=200):
    """The single-window modified Weiszfeld loop that ``geometric_median``
    runs for each window of a stack; its results must match byte for byte."""
    pts = np.asarray(points, dtype=np.float64)
    y = pts.mean(axis=0)
    for _ in range(max_iter):
        diff = pts - y
        dist = np.linalg.norm(diff, axis=1)
        coincident = dist < 1e-12
        if coincident.any():
            others = ~coincident
            if not others.any():
                return y
            inv = 1.0 / dist[others]
            t_point = (pts[others] * inv[:, None]).sum(axis=0) / inv.sum()
            r_vec = (diff[others] * inv[:, None]).sum(axis=0)
            r = float(np.linalg.norm(r_vec))
            eta = float(coincident.sum())
            if r <= eta:
                return y
            y_next = max(0.0, 1.0 - eta / r) * t_point + min(1.0, eta / r) * y
        else:
            inv = 1.0 / dist
            y_next = (pts * inv[:, None]).sum(axis=0) / inv.sum()
        if float(np.linalg.norm(y_next - y)) < tol:
            return y_next
        y = y_next
    return y


def rmr_day(prefix, w_prev, window, eps, tol=1e-9, max_iter=200):
    """One day of RMR from the previous day's weights, with the day's L1
    median solved on its own window, as RMR's per-day update did before its
    medians were solved in stacks."""
    t = prefix.shape[0]
    if t < window:
        return w_prev
    median = geometric_median_loop(prefix[t - window: t], tol, max_iter)
    x_hat = median / prefix[-1]
    gap = eps - float(w_prev @ x_hat)
    if gap <= 0:
        return w_prev
    dev = x_hat - x_hat.mean()
    sq = float(dev @ dev)
    if sq < 1e-24:
        return w_prev
    return project_to_simplex(w_prev + (gap / sq) * dev)


def olmar_day(prefix, w_prev, window, eps):
    """One day of OLMAR from the previous day's weights, with the day's
    target computed on its own window, as OLMAR's per-day update did before
    its targets were computed in blocks of windows."""
    t = prefix.shape[0]
    if t < window:
        return w_prev
    x_hat = (prefix[t - window: t] / prefix[-1]).mean(axis=0)
    gap = eps - float(w_prev @ x_hat)
    if gap <= 0:
        return w_prev
    dev = x_hat - x_hat.mean()
    sq = float(dev @ dev)
    if sq < 1e-24:
        return w_prev
    return project_to_simplex(w_prev + (gap / sq) * dev)


def pamr_day(prefix, w_prev, eps):
    """One day of PAMR from the previous day's weights, as PAMR's update did
    before its deviations were taken once per run."""
    if prefix.shape[0] < 2:
        return w_prev
    x_hat = -(prefix[-1] / prefix[-2])
    gap = -eps - float(w_prev @ x_hat)
    if gap <= 0:
        return w_prev
    dev = x_hat - x_hat.mean()
    sq = float(dev @ dev)
    if sq < 1e-24:
        return w_prev
    return project_to_simplex(w_prev + (gap / sq) * dev)


def anticor_day(prefix, w_prev, window):
    """One day of Anticor from the previous day's weights, with the day's
    window statistics computed on their own, as Anticor's per-day update did
    before its claims were computed in blocks of days."""
    t, n = prefix.shape
    w = window
    if t - 1 < 2 * w:
        return w_prev
    tail = prefix[t - 2 * w - 1: t]
    log_rel = np.log(tail[1:] / tail[:-1])
    lx1, lx2 = log_rel[:w], log_rel[w:]
    mu1, mu2 = lx1.mean(axis=0), lx2.mean(axis=0)
    sd1 = lx1.std(axis=0, ddof=1)
    sd2 = lx2.std(axis=0, ddof=1)
    mcov = (lx1 - mu1).T @ (lx2 - mu2) / (w - 1)
    denom = np.outer(sd1, sd2)
    mcor = np.zeros((n, n))
    np.divide(mcov, denom, out=mcor, where=denom > 0)

    penalty = np.maximum(-np.diag(mcor), 0.0)
    claim = mcor + penalty[:, None] + penalty[None, :]
    active = (mu2[:, None] >= mu2[None, :]) & (mcor > 0)
    np.fill_diagonal(active, False)
    claim = np.where(active, claim, 0.0)

    outgoing = claim.sum(axis=1)
    transfer = np.zeros((n, n))
    src = outgoing > 0
    if src.any():
        transfer[src] = w_prev[src, None] * claim[src] / outgoing[src, None]
    return w_prev - transfer.sum(axis=1) + transfer.sum(axis=0)


def pattern_windows(prefix, window):
    """Flattened relative windows of a prefix and its relatives, built
    afresh for one day as the per-day BNN and CORN updates did."""
    rels = prefix[1:] / prefix[:-1]
    view = np.lib.stride_tricks.sliding_window_view(rels, (window, rels.shape[1]))
    return view.reshape(view.shape[0], window * rels.shape[1]), rels


def bnn_day(prefix, neighbors, window):
    """One day of BNN computed from the prefix alone, as the per-day update
    did before windows were built once per run."""
    t, n = prefix.shape
    candidates = t - 1 - window
    if candidates < neighbors:
        return np.full(n, 1.0 / n)
    windows, rels = pattern_windows(prefix, window)
    d2 = ((windows[:candidates] - windows[-1]) ** 2).sum(axis=1)
    order = np.argsort(d2, kind="stable")[:neighbors]
    return log_optimal_scalar(rels[order + window])


def corn_day(prefix, rho, window):
    """One day of CORN computed from the prefix alone, as the per-day update
    did before windows were built once per run."""
    t, n = prefix.shape
    candidates = t - 1 - window
    if candidates < 1:
        return np.full(n, 1.0 / n)
    windows, rels = pattern_windows(prefix, window)
    current = windows[-1]
    cur_c = current - current.mean()
    cur_norm = float(np.linalg.norm(cur_c))
    cand = windows[:candidates]
    cand_c = cand - cand.mean(axis=1, keepdims=True)
    denom = np.linalg.norm(cand_c, axis=1) * cur_norm
    corr = np.zeros(candidates)
    np.divide(cand_c @ cur_c, denom, out=corr, where=denom > 0)
    matched = np.nonzero(corr >= rho)[0]
    if matched.size == 0:
        return np.full(n, 1.0 / n)
    return log_optimal_scalar(rels[matched + window])


def decay_loop(raw, alpha, length):
    """The weights a run holds: each raw row blended by ``apply_decay`` with
    the run's recent held rows, kept in a list, most recent first."""
    held = raw.copy()
    if length > 0:
        recent = []
        for i, predicted in enumerate(raw):
            smoothed = apply_decay(recent, predicted, alpha, length)
            recent.insert(0, smoothed)
            del recent[length:]
            held[i] = smoothed
    return held


def load_csv_loop(path):
    """A price matrix read from a CSV one Python float at a time, each cell
    checked as it is converted, as ``load_csv`` did before it converted
    rows with numpy and checked the prices as one block."""
    path = Path(path)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        header = [cell.strip() for cell in header]
        if not header or header[0] != "date":
            raise ValueError(f"{path}: line 1: first column must be 'date'")
        assets = header[1:]
        if not assets:
            raise ValueError(f"{path}: line 1: no asset columns")
        if len(set(assets)) != len(assets):
            raise ValueError(f"{path}: line 1: duplicate asset columns")

        rows = []
        for lineno, cells in enumerate(reader, start=2):
            if not cells or (len(cells) == 1 and not cells[0].strip()):
                continue
            if len(cells) != len(header):
                raise ValueError(f"{path}: line {lineno}: expected "
                                 f"{len(header)} fields, got {len(cells)}")
            try:
                day = date.fromisoformat(cells[0].strip())
            except ValueError:
                raise ValueError(
                    f"{path}: line {lineno}: bad date {cells[0]!r}") from None
            values = []
            for sym, cell in zip(assets, cells[1:]):
                try:
                    value = float(cell)
                except ValueError:
                    raise ValueError(f"{path}: line {lineno}, column {sym}: "
                                     f"bad number {cell!r}") from None
                if not math.isfinite(value):
                    raise ValueError(f"{path}: line {lineno}, column {sym}: "
                                     f"non-finite price {cell!r}")
                if value <= 0:
                    raise ValueError(f"{path}: line {lineno}, column {sym}: "
                                     f"non-positive price {value}")
                values.append(value)
            rows.append((day, values))

    if not rows:
        raise ValueError(f"{path}: no data rows")
    rows.sort(key=lambda item: item[0])
    for (d1, _), (d2, _) in zip(rows, rows[1:]):
        if d1 == d2:
            raise ValueError(f"{path}: duplicate date {d1.isoformat()}")
    return PriceMatrix(dates=tuple(r[0] for r in rows), assets=tuple(assets),
                       prices=np.array([r[1] for r in rows], dtype=np.float64))
