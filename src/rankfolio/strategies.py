"""Classic online portfolio selection strategies.

Every strategy maps the price history known at the start of day t (rows are
days, columns assets, most recent row last) to a long-only weight vector on
the probability simplex. ``run(prices, t_first, t_last)`` is the one
interface: the engine calls it once per backtest on a fresh strategy. It sees
``prices[:t_last]`` and returns one row per trading day t_first..t_last, and
the row of day t depends only on ``prices[:t]``. Three class attributes tell
the engine the rest: ``first_day``, the earliest day a run may start,
``hindsight`` and ``decays``. BCRP is the one hindsight strategy: its run
also sees the price after t_last, because it holds the best constant
portfolio of the window it trades. No classic ``decays``: the engine
smooths a classic's weights only when the config asks for it. Constructors
take their settings as given: ``BacktestConfig`` holds every default and
bounds each setting.

Strategies defined by a recursion (UCRP, UP, EG, Anticor, PAMR, CWMR, OLMAR,
RMR) are a ``_replay`` generator, its state in its locals, that yields the
weights of day 1, 2, ...; ``Strategy.run`` replays it from day 1 and keeps
days t_first..t_last, so a row does not depend on where the trading window
begins. Buy-and-hold buys at t_first instead. OLMAR, RMR and PAMR share
one ``_replay``: a window's target is its mean, or L1 median, over its last
price, solved for stacks of windows at once; PAMR's windows span two days
and its target is minus the day's relatives. BNN, CORN and Anticor do their
price-only work once per run or block of days, and BNN and CORN solve their
log-optimal problems in lockstep blocks. UP compounds and averages its
samples in fixed-shape blocks of days. BNN narrows each day's neighbour
search with Gram-form distances and ranks the survivors exactly.
"""

from __future__ import annotations

import math
from itertools import islice, repeat
from statistics import NormalDist

import numpy as np

from . import optim
from .optim import (geometric_median, log_optimal_portfolio,
                    log_optimal_stack, project_to_simplex, row_dots)

# Canonical registry names of the classic strategies (CLI-facing).
CLASSIC_NAMES = (
    "bah", "ucrp", "bcrp", "up", "eg", "anticor",
    "pamr", "cwmr", "olmar", "rmr", "bnn", "corn",
)

# Directions with squared norm below this are treated as null updates.
_NULL_DIRECTION = 1e-24

# UP compounds its samples in blocks of days whose sample wealth and
# relatives hold at most this many floats (1 MB). A BLAS row's bytes depend
# on the row count of its product, so this value fixes UP's output bytes:
# it is UP's alone, and a change of ``optim.SCRATCH_FLOATS`` must not move it.
_BLOCK_FLOATS = 131_072


def uniform_weights(n: int) -> np.ndarray:
    return np.full(n, 1.0 / n)


class Strategy:
    """Base interface: the weights of a run of trading days."""

    first_day = 1       # earliest 1-based day a run may start on
    hindsight = False   # run also sees the price after t_last
    decays = False      # the engine smooths its weights by default

    def run(self, prices: np.ndarray, t_first: int, t_last: int) -> np.ndarray:
        """Weights of days t_first..t_last (1-based), one row each, from
        ``prices[:t_last]``; each call starts afresh. A recursion replays
        ``_replay`` from day 1 and keeps the rows from t_first."""
        prices = self._history(prices, t_first, t_last)
        out = np.empty((t_last - t_first + 1, prices.shape[1]))
        # zip stops at the last row of ``out``, so day t_last is the last
        # day the recursion computes
        for row, w in zip(out, islice(self._replay(prices), t_first - 1, None)):
            row[:] = w
        return out

    def _replay(self, prices: np.ndarray):
        """The weights of day 1, 2, ... of ``prices``, one row at a time."""
        raise NotImplementedError

    def _history(self, prices, t_first: int, t_last: int) -> np.ndarray:
        """The prices a run sees, ``prices[:t_last + hindsight]`` as float64,
        checked for a run window that starts no earlier than ``first_day``."""
        prices = np.asarray(prices, dtype=np.float64)
        if (prices.ndim != 2
                or not 1 <= t_first <= t_last <= len(prices) - self.hindsight):
            raise ValueError("run needs a 2-d price array and 1 <= t_first "
                             "<= t_last <= its row count - hindsight")
        if t_first < self.first_day:
            raise ValueError(f"insufficient history: day {t_first} is before "
                             f"day {self.first_day}, the first this strategy "
                             f"can trade")
        return prices[:t_last + self.hindsight]


class BuyAndHold(Strategy):
    """Uniform buy at the first trading day, then drift with prices."""

    def run(self, prices, t_first, t_last):
        prices = self._history(prices, t_first, t_last)
        growth = prices[t_first - 1:] / prices[t_first - 1]
        return growth / growth.sum(axis=1, keepdims=True)


class UniformCRP(Strategy):
    """Rebalance to equal weights every day."""

    def _replay(self, prices):
        return repeat(uniform_weights(prices.shape[1]))


class BestCRP(Strategy):
    """Rebalance every day to the best constant portfolio of the run's own
    window, chosen in hindsight: a reference bound, not a tradable strategy.

    The one hindsight strategy: ``run`` takes ``prices[:t_last + 1]``,
    because day t_last's return is realized at the price after it.
    """

    hindsight = True

    def run(self, prices, t_first, t_last):
        prices = self._history(prices, t_first, t_last)
        target = log_optimal_portfolio(prices[t_first:]
                                       / prices[t_first - 1: t_last])
        return np.tile(target, (t_last - t_first + 1, 1))


class UniversalSampler(Strategy):
    """Wealth-weighted average over Monte-Carlo sampled constant portfolios.

    Samples CRPs uniformly from the simplex (Dirichlet with unit
    concentration) once, then weights each sample by the wealth it would have
    compounded so far. The day-1 output is the plain sample mean. The
    samples are stored asset-major, one column each, and the days after the
    first run in blocks of k: one product gives every sample's return on
    each of the block's days, each day's wealth compounds on the day
    before's, and a second product gives the days' weighted means. Both
    products always take all k rows, the days past a run's end padded with
    relatives of one, because the bytes of a BLAS row depend on the row
    count of its product; so a day's weights do not depend on where the run
    ends.
    """

    def __init__(self, samples: int, seed: int):
        self.samples = samples
        self.seed = seed

    def _replay(self, prices):
        n = prices.shape[1]
        crps = _dirichlet_columns(self.seed, n, self.samples)
        k = max(1, _BLOCK_FLOATS // (self.samples + n))
        # row 0 holds the wealth before the block, rows 1..k its days'
        wealth = np.ones((k + 1, self.samples))
        yield (crps @ wealth[0]) / wealth[0].sum()
        x = np.empty((k, n))  # the block's price relatives
        for lo in range(1, prices.shape[0], k):
            days = min(k, prices.shape[0] - lo)
            np.divide(prices[lo:lo + days], prices[lo - 1:lo - 1 + days],
                      out=x[:days])
            x[days:] = 1.0
            np.matmul(x, crps, out=wealth[1:])
            for t in range(1, days + 1):
                wealth[t] *= wealth[t - 1]
                peak = float(wealth[t].max())
                # rescale only when compounding approaches float range
                # limits; the weighted average below is scale invariant
                if peak > 1e150 or (peak > 0 and peak < 1e-150):
                    wealth[t] /= peak
            means = (wealth[1:] @ crps.T) / wealth[1:].sum(axis=1)[:, None]
            yield from means[:days]
            wealth[0] = wealth[days]


def _dirichlet_columns(seed: int, n: int, samples: int) -> np.ndarray:
    """``default_rng(seed).dirichlet(np.ones(n), size=samples).T``, as a
    C-contiguous (n, samples) array. The draws come in chunks, which take
    the generator's stream in the same order as one full draw and so give
    the same bytes whatever the chunk size."""
    rng = np.random.default_rng(seed)
    out = np.empty((n, samples))
    chunk = max(1, optim.SCRATCH_FLOATS // n)  # rows of one (chunk, n) draw
    for lo in range(0, samples, chunk):
        hi = min(lo + chunk, samples)
        out[:, lo:hi] = rng.dirichlet(np.ones(n), size=hi - lo).T
    return out


class ExponentiatedGradient(Strategy):
    """Multiplicative update toward yesterday's winners."""

    def __init__(self, eta: float):
        self.eta = eta

    def _replay(self, prices):
        w = uniform_weights(prices.shape[1])
        yield w
        for x in prices[1:] / prices[:-1]:
            # the update is scale invariant: shift the exponents so exp
            # cannot overflow
            exponent = self.eta * x / float(w @ x)
            w = w * np.exp(exponent - exponent.max())
            w = w / w.sum()
            yield w


class Anticor(Strategy):
    """Transfer weight from recent winners to laggards they correlate with.

    Compares log returns over two consecutive windows of length ``window``.
    Weight moves from asset i to asset j when i outperformed j in the latest
    window and the cross-window correlation claim holds, with negative
    autocorrelation penalties added per the standard formulation. Uniform
    until 2 * window return observations exist. The claims depend on prices
    only, so ``_replay`` computes them for blocks of days at once; only the
    transfer, which needs the previous day's weights, runs per day.
    """

    def __init__(self, window: int):
        self.window = window

    def _replay(self, prices):
        (days, n), m = prices.shape, self.window
        w = uniform_weights(n)
        yield from repeat(w, 2 * m)
        log_rel = np.log(prices[1:] / prices[:-1])
        # days per block: ``_claims`` holds about 8 (size, n, n) arrays
        size = max(1, optim.SCRATCH_FLOATS // 8 // (n * n))
        # day t compares log_rel rows t-2m-1..t-m-2 with rows t-m-1..t-2
        for first in range(2 * m + 1, days + 1, size):
            claims, outgoing = self._claims(
                log_rel[first - 2 * m - 1: first + size - 2])
            for claim, out_sum in zip(claims, outgoing):
                transfer = np.zeros((n, n))
                src = out_sum > 0
                if src.any():
                    transfer[src] = w[src, None] * claim[src] / out_sum[src, None]
                w = w - transfer.sum(axis=1) + transfer.sum(axis=0)
                yield w

    def _claims(self, log_rel: np.ndarray):
        """Claim matrices and their row sums of the days whose window pairs
        lie in ``log_rel``: day i pairs windows i and i + window."""
        m, n = self.window, log_rel.shape[1]
        windows = np.lib.stride_tricks.sliding_window_view(log_rel, (m, n))[:, 0]
        mu = windows.mean(axis=1)
        sd = windows.std(axis=1, ddof=1)
        centered = windows - mu[:, None, :]
        days = len(windows) - m
        mcov = np.matmul(centered[:days].transpose(0, 2, 1),
                         centered[m:]) / (m - 1)
        denom = sd[:days, :, None] * sd[m:, None, :]
        mcor = np.zeros((days, n, n))
        np.divide(mcov, denom, out=mcor, where=denom > 0)

        penalty = np.maximum(-np.diagonal(mcor, axis1=1, axis2=2), 0.0)
        claim = mcor + penalty[:, :, None] + penalty[:, None, :]
        mu2 = mu[m:]
        active = (mu2[:, :, None] >= mu2[:, None, :]) & (mcor > 0)
        active[:, np.arange(n), np.arange(n)] = False
        claim = np.where(active, claim, 0.0)
        return claim, claim.sum(axis=2)


class Cwmr(Strategy):
    """Confidence-weighted mean reversion, deterministic diagonal variant.

    Keeps a Gaussian belief (mean, diagonal covariance) over the weight
    vector and, when the mean-reversion chance constraint is violated,
    applies the closed-form KL projection: the multiplier solves
    a*lam^2 + b*lam + c = 0 with a = 2*phi*V^2 - 2*phi*xbar*V*W,
    b = 2*phi*eps*V - 2*phi*V*M + V - xbar*W, c = eps - M - phi*V.
    The covariance trace is renormalized to its initial value (1/n) after
    each active update so confidence never collapses entirely.
    """

    def __init__(self, confidence: float, eps: float):
        self.phi = NormalDist().inv_cdf(confidence)
        self.eps = eps

    def _replay(self, prices):
        n = prices.shape[1]
        mu, s2 = uniform_weights(n), np.full(n, 1.0 / (n * n))
        yield mu
        for x in prices[1:] / prices[:-1]:
            mu, s2 = self._update(mu, s2, x)
            yield mu

    def _update(self, mu, s2, x):
        """The belief (mean, variances) after a day of relatives ``x``."""
        phi = self.phi
        m_val = float(mu @ x)
        v_val = float(s2 @ (x * x))
        w_val = float(s2 @ x)
        xbar = w_val / float(s2.sum())
        c = self.eps - m_val - phi * v_val
        if c >= 0:
            return mu, s2

        a = 2.0 * phi * v_val * v_val - 2.0 * phi * xbar * v_val * w_val
        b = 2.0 * phi * self.eps * v_val - 2.0 * phi * v_val * m_val \
            + v_val - xbar * w_val
        if a <= _NULL_DIRECTION:
            # x is constant across assets; no informative direction
            return mu, s2
        lam = max(0.0, (-b + math.sqrt(max(b * b - 4.0 * a * c, 0.0))) / (2.0 * a))
        if lam == 0.0:
            return mu, s2

        mu = mu - lam * s2 * (x - xbar)
        s2 = 1.0 / (1.0 / s2 + 2.0 * lam * phi * x * x)
        s2 *= (1.0 / len(x)) / s2.sum()
        return project_to_simplex(mu), s2


class Olmar(Strategy):
    """Moving-average reversion: chase the MA(window)-to-price ratio.

    Window j holds days j+1..j+window; its target x, the mean of its prices
    over its last price, drives day j+window. A passive-aggressive step
    pushes w @ x up to ``eps`` along x less its mean, then projects onto the
    simplex. ``_replay`` computes the targets of a block of windows at a
    time, counted from the first window, and their deviations from their
    means.
    """

    def __init__(self, window: int, eps: float):
        self.window = window
        self.eps = eps

    def _replay(self, prices):
        m, n = self.window, prices.shape[1]
        w = uniform_weights(n)
        yield from repeat(w, m - 1)
        windows = np.lib.stride_tricks.sliding_window_view(prices, (m, n))[:, 0]
        # windows per block: OLMAR's targets hold one (size, m, n) array,
        # RMR's medians two, and three while they drop converged windows
        size = max(1, optim.SCRATCH_FLOATS // 2 // (m * n))
        for s in range(0, len(windows), size):
            w = yield from self._block(w, windows[s: s + size])

    def _block(self, w, windows):
        """Yield the weights of the days that ``windows`` drive, from the
        weights ``w`` of the day before; return the last. The block's
        arrays die with this generator, before the next block's exist."""
        x_hats = self._targets(windows)
        devs = x_hats - x_hats.mean(axis=1, keepdims=True)
        sqs = row_dots(devs, devs)
        for x_hat, dev, sq in zip(x_hats, devs, sqs):
            gap = self.eps - float(w @ x_hat)
            # a NaN gap or norm fails both tests and reaches the projection
            if not (gap <= 0 or sq < _NULL_DIRECTION):
                w = project_to_simplex(w + (gap / sq) * dev)
            yield w
        return w

    @staticmethod
    def _targets(windows: np.ndarray) -> np.ndarray:
        """The price targets of a (B, window, n) stack of windows."""
        return (windows / windows[:, -1:]).mean(axis=1)


class Pamr(Olmar):
    """Passive-aggressive mean reversion: bet against yesterday's move.

    OLMAR over two-day windows with target -x, x the day's relatives, and
    threshold -eps: pushing w @ -x up to -eps is pushing w @ x down to eps,
    with every sign flipped exactly.
    """

    def __init__(self, eps: float):
        super().__init__(2, -eps)

    @staticmethod
    def _targets(windows):
        return -(windows[:, 1] / windows[:, 0])


class Rmr(Olmar):
    """Robust median reversion: like OLMAR with an L1-median price target."""

    @staticmethod
    def _targets(windows):
        return geometric_median(windows) / windows[:, -1]


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
    day, and solves the days' log-optimal problems in lockstep blocks; a
    block whose sets share one size (BNN's ``neighbors`` successors, or a
    one-day CORN block) is solved as one stack.
    """

    def __init__(self, window: int, min_candidates: int):
        self.window = window
        self.min_candidates = min_candidates

    def run(self, prices, t_first, t_last):
        prices = self._history(prices, t_first, t_last)
        out = np.tile(uniform_weights(prices.shape[1]), (t_last - t_first + 1, 1))
        first = max(t_first, self.window + 1 + self.min_candidates)
        if first > t_last:
            return out
        windows, rels = _relative_windows(prices, self.window)
        matches = self._matcher(windows)
        # each day's row and successor set, made as it is solved
        matched = ((t - t_first, matches(t - 1 - self.window) + self.window)
                   for t in range(first, t_last + 1))
        # a block's relatives fill the budget
        for rows, sets in _blocks(matched, rels.shape[1],
                                  optim.SCRATCH_FLOATS):
            out[rows] = log_optimal_stack([rels[s] for s in sets])
        return out

    def _matcher(self, windows: np.ndarray):
        """A function from the index c of the current window to the indices
        of the windows among windows[:c] that match it."""
        raise NotImplementedError


def _blocks(matched, width: int, budget: int):
    """Blocks (rows, sets) of the consecutive (row, index set) pairs of
    ``matched`` with non-empty sets, of at most ``budget`` floats of
    relatives (``width`` a row) unless one set alone exceeds it."""
    rows, sets, floats = [], [], 0
    for row, successors in matched:
        size = successors.size * width
        if not size:
            continue
        if sets and floats + size > budget:
            yield rows, sets
            rows, sets, floats = [], [], 0
        rows.append(row)
        sets.append(successors)
        floats += size
    if sets:
        yield rows, sets


class Bnn(PatternMatcher):
    """Nearest-neighbor pattern matching with a log-optimal mix.

    Finds the ``neighbors`` historical windows closest (Euclidean, on
    flattened price-relative windows of length ``window``) to the current
    window and plays the log-optimal portfolio over the days that followed
    them. Uniform until neighbors + window + 1 days of history exist.

    The search filters, then ranks exactly. Gram-form squared distances
    ``sq[c] + sq[i] - 2 windows[c] . windows[i]`` come from one matrix
    product per block of days; a day keeps every window within a rounding
    bound of its k-th Gram-form distance. Only those windows get the exact
    distance ``((windows[i] - windows[c]) ** 2).sum()``, and the nearest are
    picked from them, earliest first among ties: the windows, and their
    order, of a scan of every window.
    """

    def __init__(self, neighbors: int, window: int):
        super().__init__(window, min_candidates=neighbors)
        self.neighbors = neighbors

    def _matcher(self, windows):
        k, (count, width) = self.neighbors, windows.shape
        dense = np.ascontiguousarray(windows)
        with np.errstate(over="ignore"):  # norms that overflow scan all
            sq = np.einsum("ij,ij->i", dense, dense)
        top = np.maximum.accumulate(sq)  # top[c - 1] = max(sq[:c])
        # Gram-form distances sq[c] + sq[i] - 2 windows[c] . windows[i]
        # differ from the exact ones by at most about
        # (4 gamma_width + 10 u)(sq[c] + sq[i]) for any summation order, so
        # for any BLAS kernel (u = eps / 2, gamma_L = L u / (1 - L u)), plus
        # a subnormal step per product for underflow. ``slack`` bounds that
        # about four times over. Without overflow (every intermediate stays
        # below 8 max(sq)), every window at or below the exact k-th distance
        # is within 2 slack of the Gram-form k-th; else every day scans all.
        filtered = np.isfinite(8 * top[-1])
        scale, tiny = 8 * (width + 4) * np.finfo(float).eps, np.finfo(float).tiny
        # days per Gram block: the product and the three arrays that form
        # the distances from it take half the budget, beside a solve block
        rows = max(1, optim.SCRATCH_FLOATS // 8 // count)
        first, gram = -1, None  # the cached block's first day, distances

        def candidates(c):
            """Ascending indices among windows[:c] that hold every window
            at or below the exact k-th distance to windows[c]."""
            nonlocal first, gram
            if not filtered:
                return np.arange(c)
            if first != c - c % rows:
                first = c - c % rows
                hi = min(first + rows, count)
                gram = (sq[first:hi, None] + sq[:hi]
                        - 2 * (dense[first:hi] @ dense[:hi].T))
            approx = gram[c - first, :c]
            slack = scale * (sq[c] + top[c - 1] + tiny)
            return np.flatnonzero(
                approx <= np.partition(approx, k - 1)[k - 1] + 2 * slack)

        def nearest(c):  # c >= k: a run starts with k candidates
            found = candidates(c)
            d2 = ((windows[found] - windows[c]) ** 2).sum(axis=1)
            # sort only the windows at or below the k-th distance; a stable
            # sort keeps the earliest window first among exact ties
            near = np.flatnonzero(d2 <= np.partition(d2, k - 1)[k - 1])
            return found[near[np.argsort(d2[near], kind="stable")[:k]]]
        return nearest


class Corn(PatternMatcher):
    """Correlation-driven pattern matching with a log-optimal mix.

    Plays the log-optimal portfolio over the successors of every historical
    window whose Pearson correlation with the current window is at least
    ``rho``. Constant windows correlate at 0 by convention. Uniform when no
    window matches or too little history exists.
    """

    def __init__(self, rho: float, window: int):
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
