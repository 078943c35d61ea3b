"""Classic online portfolio selection strategies.

Every strategy maps the price history known at the start of day t (rows are
days, columns assets, most recent row last) to a long-only weight vector on
the probability simplex. ``run(prices, t_first, t_last)`` is the one
interface: the engine calls it once per backtest on a fresh strategy. It sees
``prices[:t_last]`` and returns one row per trading day t_first..t_last, and
the row of day t depends only on ``prices[:t]``.

Strategies defined by a recursion (EG, PAMR, CWMR, OLMAR, RMR, Anticor, UP)
replay it from day 1 of the supplied prices, so a row does not depend on
where the trading window begins. Buy-and-hold is the one exception: it buys
at day t_first, the start of the trading period. RMR, BNN and CORN do their
price-only work (L1 medians, relative windows) once per run.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

from .optim import geometric_median, log_optimal_portfolio, project_to_simplex

# Canonical registry names of the classic strategies (CLI-facing).
CLASSIC_NAMES = (
    "bah", "ucrp", "bcrp", "up", "eg", "anticor",
    "pamr", "cwmr", "olmar", "rmr", "bnn", "corn",
)

# Directions with squared norm below this are treated as null updates.
_NULL_DIRECTION = 1e-24

# RMR solves its L1 medians in stacks of this many windows, counted from the
# first window, so memory stays bounded whatever the run length.
_MEDIAN_BLOCK = 256


def uniform_weights(n: int) -> np.ndarray:
    return np.full(n, 1.0 / n)


class Strategy:
    """Base interface: the weights of a run of trading days."""

    def run(self, prices: np.ndarray, t_first: int, t_last: int) -> np.ndarray:
        """Weights of days t_first..t_last (1-based), one row each, from
        ``prices[:t_last]``; each call starts afresh."""
        raise NotImplementedError


def _run_prices(prices: np.ndarray, t_first: int, t_last: int) -> np.ndarray:
    """``prices[:t_last]`` as float64, checked for a valid run window."""
    prices = np.asarray(prices, dtype=np.float64)
    if prices.ndim != 2 or not 1 <= t_first <= t_last <= prices.shape[0]:
        raise ValueError("run needs a 2-d price array and 1 <= t_first "
                         "<= t_last <= its row count")
    return prices[:t_last]


class ReplayStrategy(Strategy):
    """Replays a daily recursion from day 1, keeping the rows from t_first."""

    _w: np.ndarray  # the previous day's weights while ``_advance`` runs

    def run(self, prices, t_first, t_last):
        prices = _run_prices(prices, t_first, t_last)
        out = np.empty((t_last - t_first + 1, prices.shape[1]))
        self._w = uniform_weights(prices.shape[1])
        for t in range(1, t_last + 1):
            self._w = self._advance(prices[:t])
            if t >= t_first:
                out[t - t_first] = self._w
        return out

    def _advance(self, prefix: np.ndarray) -> np.ndarray:
        """Weights for day len(prefix), given prices for days 1..len(prefix)."""
        raise NotImplementedError


class BuyAndHold(Strategy):
    """Uniform buy at the first trading day, then drift with prices."""

    def run(self, prices, t_first, t_last):
        prices = _run_prices(prices, t_first, t_last)
        growth = prices[t_first - 1:] / prices[t_first - 1]
        return growth / growth.sum(axis=1, keepdims=True)


class UniformCRP(ReplayStrategy):
    """Rebalance to equal weights every day."""

    def _advance(self, prefix):
        return uniform_weights(prefix.shape[1])


class FixedWeights(ReplayStrategy):
    """Rebalance to a fixed target every day (used for hindsight CRP runs)."""

    def __init__(self, weights: np.ndarray):
        self._target = np.asarray(weights, dtype=np.float64).copy()

    def _advance(self, prefix):
        if self._target.size != prefix.shape[1]:
            raise ValueError("fixed weights do not match asset count")
        return self._target.copy()


class UniversalSampler(ReplayStrategy):
    """Wealth-weighted average over Monte-Carlo sampled constant portfolios.

    Samples CRPs uniformly from the simplex (Dirichlet with unit
    concentration) once, then weights each sample by the wealth it would have
    compounded so far. The day-1 output is the plain sample mean.
    """

    def __init__(self, samples: int = 10_000, seed: int = 10):
        if samples < 1:
            raise ValueError("samples must be >= 1")
        self.samples = samples
        self.seed = seed

    def _advance(self, prefix):
        if prefix.shape[0] == 1:  # a run starts here, so state resets
            rng = np.random.default_rng(self.seed)
            self._crps = rng.dirichlet(np.ones(prefix.shape[1]),
                                       size=self.samples)
            self._wealth = np.ones(self.samples)
        else:
            x = prefix[-1] / prefix[-2]
            self._wealth *= self._crps @ x
            peak = float(self._wealth.max())
            # rescale only when compounding approaches float range limits;
            # the weighted average below is scale invariant
            if peak > 1e150 or (peak > 0 and peak < 1e-150):
                self._wealth /= peak
        return (self._wealth @ self._crps) / self._wealth.sum()


class ExponentiatedGradient(ReplayStrategy):
    """Multiplicative update toward yesterday's winners."""

    def __init__(self, eta: float = 0.05):
        if not eta >= 0:  # also rejects NaN
            raise ValueError("eta must be >= 0")
        self.eta = eta

    def _advance(self, prefix):
        n = prefix.shape[1]
        if prefix.shape[0] == 1:
            return uniform_weights(n)
        x = prefix[-1] / prefix[-2]
        w = self._w
        # the update is scale invariant: shift the exponents so exp cannot overflow
        exponent = self.eta * x / float(w @ x)
        w_new = w * np.exp(exponent - exponent.max())
        return w_new / w_new.sum()


class Anticor(ReplayStrategy):
    """Transfer weight from recent winners to laggards they correlate with.

    Compares log returns over two consecutive windows of length ``window``.
    Weight moves from asset i to asset j when i outperformed j in the latest
    window and the cross-window correlation claim holds, with negative
    autocorrelation penalties added per the standard formulation. Uniform
    until 2 * window return observations exist.
    """

    def __init__(self, window: int = 5):
        if window < 2:
            raise ValueError("window must be >= 2")
        self.window = window

    def _advance(self, prefix):
        t, n = prefix.shape
        w = self.window
        if t - 1 < 2 * w:
            return self._w
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
            transfer[src] = self._w[src, None] * claim[src] / outgoing[src, None]
        return self._w - transfer.sum(axis=1) + transfer.sum(axis=0)


class Pamr(ReplayStrategy):
    """Passive-aggressive mean reversion: bet against yesterday's move."""

    def __init__(self, eps: float = 0.5):
        self.eps = eps

    def _advance(self, prefix):
        if prefix.shape[0] == 1:
            return self._w
        x = prefix[-1] / prefix[-2]
        ret = float(self._w @ x)
        if ret <= self.eps:
            return self._w
        dev = x - x.mean()
        sq = float(dev @ dev)
        if sq < _NULL_DIRECTION:
            return self._w
        tau = (ret - self.eps) / sq
        return project_to_simplex(self._w - tau * dev)


class Cwmr(ReplayStrategy):
    """Confidence-weighted mean reversion, deterministic diagonal variant.

    Keeps a Gaussian belief (mean, diagonal covariance) over the weight
    vector and, when the mean-reversion chance constraint is violated,
    applies the closed-form KL projection: the multiplier solves
    a*lam^2 + b*lam + c = 0 with a = 2*phi*V^2 - 2*phi*xbar*V*W,
    b = 2*phi*eps*V - 2*phi*V*M + V - xbar*W, c = eps - M - phi*V.
    The covariance trace is renormalized to its initial value (1/n) after
    each active update so confidence never collapses entirely.
    """

    def __init__(self, confidence: float = 0.95, eps: float = 0.5):
        if not 0.5 <= confidence < 1.0:
            raise ValueError("confidence must be in [0.5, 1)")
        self.phi = NormalDist().inv_cdf(confidence)
        self.eps = eps

    def _advance(self, prefix):
        t, n = prefix.shape
        if t == 1:  # a run starts here, so state resets
            self._mu = uniform_weights(n)
            self._s2 = np.full(n, 1.0 / (n * n))
            return self._mu.copy()
        x = prefix[-1] / prefix[-2]
        mu, s2, phi = self._mu, self._s2, self.phi

        m_val = float(mu @ x)
        v_val = float(s2 @ (x * x))
        w_val = float(s2 @ x)
        xbar = w_val / float(s2.sum())
        c = self.eps - m_val - phi * v_val
        if c >= 0:
            return mu.copy()

        a = 2.0 * phi * v_val * v_val - 2.0 * phi * xbar * v_val * w_val
        b = 2.0 * phi * self.eps * v_val - 2.0 * phi * v_val * m_val \
            + v_val - xbar * w_val
        if a <= _NULL_DIRECTION:
            # x is constant across assets; no informative direction
            return mu.copy()
        lam = max(0.0, (-b + math.sqrt(max(b * b - 4.0 * a * c, 0.0))) / (2.0 * a))
        if lam == 0.0:
            return mu.copy()

        mu = mu - lam * s2 * (x - xbar)
        s2 = 1.0 / (1.0 / s2 + 2.0 * lam * phi * x * x)
        s2 *= (1.0 / n) / s2.sum()
        self._mu = project_to_simplex(mu)
        self._s2 = s2
        return self._mu.copy()


def _reversion_update(w_prev: np.ndarray, x_hat: np.ndarray,
                      eps: float) -> np.ndarray:
    """Passive-aggressive step pushing w @ x_hat up to eps, then projection."""
    gap = eps - float(w_prev @ x_hat)
    if gap <= 0:
        return w_prev
    dev = x_hat - x_hat.mean()
    sq = float(dev @ dev)
    if sq < _NULL_DIRECTION:
        return w_prev
    return project_to_simplex(w_prev + (gap / sq) * dev)


class Olmar(ReplayStrategy):
    """Moving-average reversion: chase the MA(window)-to-price ratio."""

    def __init__(self, window: int = 5, eps: float = 10.0):
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = window
        self.eps = eps

    def _advance(self, prefix):
        t = prefix.shape[0]
        if t < self.window:
            return self._w
        x_hat = (prefix[t - self.window: t] / prefix[-1]).mean(axis=0)
        return _reversion_update(self._w, x_hat, self.eps)


class Rmr(Strategy):
    """Robust median reversion: like OLMAR with an L1-median price target."""

    def __init__(self, window: int = 5, eps: float = 5.0,
                 median_tol: float = 1e-9, median_max_iter: int = 200):
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = window
        self.eps = eps
        self.median_tol = median_tol
        self.median_max_iter = median_max_iter

    def run(self, prices, t_first, t_last):
        prices = _run_prices(prices, t_first, t_last)
        m, n = self.window, prices.shape[1]
        if t_last >= m:
            # window j holds days j+1..j+m; its median drives day j+m
            windows = np.lib.stride_tricks.sliding_window_view(prices, (m, n))[:, 0]
            medians = np.concatenate([
                geometric_median(windows[s: s + _MEDIAN_BLOCK],
                                 tol=self.median_tol,
                                 max_iter=self.median_max_iter)
                for s in range(0, len(windows), _MEDIAN_BLOCK)])
        out = np.empty((t_last - t_first + 1, n))
        w = uniform_weights(n)
        for t in range(1, t_last + 1):
            if t >= m:
                w = _reversion_update(w, medians[t - m] / prices[t - 1],
                                      self.eps)
            if t >= t_first:
                out[t - t_first] = w
        return out


def _relative_windows(prices: np.ndarray, length: int):
    """All length-``length`` windows of daily relatives, flattened row-wise.

    Returns (windows, relatives). windows[i] flattens relatives rows
    i..i+length-1; the successor relative of window i is relatives[i+length].
    The final window has no successor (it is the current pattern).
    """
    rels = prices[1:] / prices[:-1]
    view = np.lib.stride_tricks.sliding_window_view(rels, (length, rels.shape[1]))
    windows = view.reshape(view.shape[0], length * rels.shape[1])
    return windows, rels


class PatternMatcher(Strategy):
    """Base of BNN and CORN: log-optimal over the successors of the
    historical windows that match the current one.

    On day t the current pattern is window t - 1 - ``window`` of the
    prefix's relative windows and every earlier window is a candidate.
    Weights are uniform until ``min_candidates`` candidates exist, or when
    no window matches. A day's weights depend on the price prefix alone, so
    ``run`` builds the windows of the whole run once and slices them per
    day.
    """

    def __init__(self, window: int, min_candidates: int):
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = window
        self.min_candidates = min_candidates

    def run(self, prices, t_first, t_last):
        prices = _run_prices(prices, t_first, t_last)
        out = np.tile(uniform_weights(prices.shape[1]), (t_last - t_first + 1, 1))
        first = max(t_first, self.window + 1 + self.min_candidates)
        if first > t_last:
            return out
        windows, rels = _relative_windows(prices, self.window)
        matches = self._matcher(windows)
        for t in range(first, t_last + 1):
            matched = matches(t - 1 - self.window)
            if matched.size:
                out[t - t_first] = log_optimal_portfolio(
                    rels[matched + self.window])
        return out

    def _matcher(self, windows: np.ndarray):
        """A function from the index c of the current window to the indices
        of the windows among windows[:c] that match it."""
        raise NotImplementedError


class Bnn(PatternMatcher):
    """Nearest-neighbor pattern matching with a log-optimal mix.

    Finds the ``neighbors`` historical windows closest (Euclidean, on
    flattened price-relative windows of length ``window``) to the current
    window and plays the log-optimal portfolio over the days that followed
    them. Uniform until neighbors + window + 1 days of history exist.
    """

    def __init__(self, neighbors: int = 10, window: int = 5):
        if neighbors < 1:
            raise ValueError("neighbors must be >= 1")
        super().__init__(window, min_candidates=neighbors)
        self.neighbors = neighbors

    def _matcher(self, windows):
        def nearest(c):
            d2 = ((windows[:c] - windows[c]) ** 2).sum(axis=1)
            # stable sort keeps the earliest window first among exact ties
            return np.argsort(d2, kind="stable")[: self.neighbors]
        return nearest


class Corn(PatternMatcher):
    """Correlation-driven pattern matching with a log-optimal mix.

    Plays the log-optimal portfolio over the successors of every historical
    window whose Pearson correlation with the current window is at least
    ``rho``. Constant windows correlate at 0 by convention. Uniform when no
    window matches or too little history exists.
    """

    def __init__(self, rho: float = 0.1, window: int = 5):
        if not -1.0 <= rho <= 1.0:
            raise ValueError("rho must be in [-1, 1]")
        super().__init__(window, min_candidates=1)
        self.rho = rho

    def _matcher(self, windows):
        centered = windows - windows.mean(axis=1, keepdims=True)
        norms = np.linalg.norm(centered, axis=1)

        def correlated(c):
            current = windows[c]
            cur_c = current - current.mean()
            denom = norms[:c] * float(np.linalg.norm(cur_c))
            corr = np.zeros(c)
            np.divide(centered[:c] @ cur_c, denom, out=corr, where=denom > 0)
            return np.nonzero(corr >= self.rho)[0]
        return correlated


def bcrp_hindsight(relatives: np.ndarray) -> np.ndarray:
    """Best constant-rebalanced portfolio in hindsight over ``relatives``.

    Explicitly look-ahead: intended as a reference bound, not a tradable
    strategy. ``relatives`` holds the gross daily returns the run realizes.
    """
    return log_optimal_portfolio(relatives)
