"""Shared numerical solvers: simplex projection, log-optimal weights, L1-median."""

from __future__ import annotations

import math
import warnings

import numpy as np

# Floor applied to portfolio relatives inside the log objective so a stray
# non-positive entry cannot produce -inf mid line search.
RELATIVE_FLOOR = 1e-12

# The scratch budget of every stacked pass, in floats (1 MB): a pass cuts
# its work into blocks of this many floats over the number of block-sized
# arrays it holds at once, so its memory stays bounded whatever the run
# length. No row depends on its block. Passes read it here when they run.
SCRATCH_FLOATS = 1 << 17


def project_to_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection of ``v`` onto the probability simplex.

    Sort-and-threshold algorithm (Duchi et al. 2008); exact up to float
    roundoff for any finite input, including points already on the simplex
    (returned unchanged). The threshold comes from Python floats: their
    sequential running sum and the last passing ``k`` give the bytes of the
    numpy form (``np.cumsum`` also adds in order) at a fraction of its
    dispatch cost on a short vector. When no ``k`` passes (NaN or inf
    input, or |v| so large that c - 1 == c) the result is NaN.
    """
    v = np.asarray(v, dtype=np.float64)
    theta = math.nan
    css = 0.0
    k = 0
    for u_k in sorted(v.tolist(), reverse=True):
        css += u_k
        k += 1
        if u_k * k > css - 1.0:  # the last k that passes sets theta
            theta = (css - 1.0) / k
    return np.maximum(v - theta, 0.0)


def _project_rows(v: np.ndarray) -> np.ndarray:
    """``project_to_simplex`` of each row of ``v``, with its bytes."""
    n = v.shape[1]
    u = np.sort(v, axis=1)[:, ::-1]
    css = np.cumsum(u, axis=1)
    hits = u * np.arange(1, n + 1) > (css - 1.0)
    rho = n - 1 - np.argmax(hits[:, ::-1], axis=1)  # each row's last hit
    theta = (css[np.arange(len(v)), rho] - 1.0) / (rho + 1.0)
    return np.maximum(v - theta[:, None], 0.0)


def row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Each row's ``a[i] @ b[i]`` for two (B, n) arrays: a stacked matmul
    makes one BLAS dot per row, so the bytes are those of ``@`` on one pair
    of rows, and ``sqrt(row_dots(d, d))`` those of ``np.linalg.norm(d[i])``."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def log_optimal_portfolio(relatives: np.ndarray, tol: float = 1e-10,
                          max_iter: int = 10_000) -> np.ndarray:
    """Weights maximizing sum(log(relatives @ w)) over the simplex, for an
    m x n matrix of per-day price relatives (gross returns, strictly
    positive under valid data): ``log_optimal_stack`` of one problem."""
    return log_optimal_stack([relatives], tol, max_iter)[0]


class _Block:
    """A lockstep block's problems and the evaluations that depend on their
    shapes: stacked matmuls for a (B, m, n) array, one problem at a time
    for a list of (m_b, n) matrices; both give each problem's own bytes."""

    def __init__(self, relatives):
        self.relatives = relatives
        self.one_shape = isinstance(relatives, np.ndarray)

    def take(self, rows: np.ndarray) -> _Block:
        rel = self.relatives
        return _Block(rel[rows] if self.one_shape else [rel[i] for i in rows])

    def at(self, w: np.ndarray):
        """Each problem's floored portfolio relatives and objective."""
        if self.one_shape:  # one BLAS gemv per problem
            port = np.maximum(np.matmul(self.relatives, w[:, :, None])[:, :, 0],
                              RELATIVE_FLOOR)
            return port, np.log(port).sum(axis=1)
        port = [np.maximum(rel @ row, RELATIVE_FLOOR)
                for rel, row in zip(self.relatives, w)]
        return port, np.array([np.log(p).sum() for p in port])

    def gradient(self, port, rows: np.ndarray) -> np.ndarray:
        """The objective's gradient of problems ``rows`` at their ``port``."""
        if self.one_shape:  # divides a copy of the rows in place
            scaled = self.relatives[rows]
            scaled /= port[rows][:, :, None]
            return scaled.sum(axis=1)
        return np.array([(self.relatives[i] / port[i][:, None]).sum(axis=0)
                         for i in rows])

    def corners(self) -> np.ndarray:
        """Each problem's objective at every single-asset corner."""
        if self.one_shape:
            return np.log(np.maximum(self.relatives, RELATIVE_FLOOR)).sum(axis=1)
        return np.array([np.log(np.maximum(rel, RELATIVE_FLOOR)).sum(axis=0)
                         for rel in self.relatives])


def _ascend_block(block: _Block, w: np.ndarray, tol: float,
                  max_iter: int) -> tuple[np.ndarray, np.ndarray]:
    """Projected gradient ascent with a halving line search on each problem
    of ``block`` from its row of ``w``, one trial per live problem at a
    time. A problem leaves after ``max_iter`` iterations or once a step,
    even a rejected one, moves it less than ``tol``."""
    port, fw = block.at(w)
    w_out, f_out = w.copy(), fw.copy()
    if max_iter < 1:
        return w_out, f_out
    live, w = np.arange(len(w)), w.copy()
    grad = block.gradient(port, live)
    step = np.ones(live.size)
    iters = np.ones(live.size, dtype=np.int64)  # iterations begun
    while live.size:
        cand = _project_rows(w + step[:, None] * grad)
        cand_port, fc = block.at(cand)
        d = cand - w
        moved = np.sqrt(row_dots(d, d))
        up = fc > fw
        w[up], fw[up] = cand[up], fc[up]
        step[up] *= 2.0
        step[~up] *= 0.5
        done = (moved < tol) | np.where(up, iters == max_iter, step < 1e-18)
        more = up & ~done  # accepted and going on: a new iteration begins
        if more.any():
            grad[more] = block.gradient(cand_port, np.flatnonzero(more))
        iters[more] += 1
        if done.any():
            w_out[live[done]], f_out[live[done]] = w[done], fw[done]
            keep = np.flatnonzero(~done)
            live, w, fw, block = live[keep], w[keep], fw[keep], block.take(keep)
            grad, step, iters = grad[keep], step[keep], iters[keep]
    return w_out, f_out


def log_optimal_stack(relatives, tol: float = 1e-10,
                      max_iter: int = 10_000) -> np.ndarray:
    """``log_optimal_portfolio`` of each problem of a block, a (B, m, n)
    array or a sequence of (m_b, n) matrices, as (B, n) weights: projected
    gradient ascent from the uniform start until a step moves the weights
    less than ``tol`` or after ``max_iter`` iterations, restarted from the
    best single-asset corner when that beats it. The problems ascend in
    lockstep, as one stack when they share one shape, and each row has the
    bytes of its problem solved alone; one warning for the block when a
    solution sits on ``RELATIVE_FLOOR``."""
    if isinstance(relatives, np.ndarray) or len({np.shape(rel)
                                                 for rel in relatives}) == 1:
        relatives = np.asarray(relatives, dtype=np.float64)
    else:
        relatives = [np.asarray(rel, dtype=np.float64) for rel in relatives]
    count = len(relatives)
    n = np.shape(relatives[0] if count else relatives)[-1]
    if n == 1 or count == 0:
        return np.ones((count, n))

    block = _Block(relatives)
    w, fw = _ascend_block(block, np.full((count, n), 1.0 / n), tol, max_iter)

    corner_f = block.corners()
    best = np.argmax(corner_f, axis=1)
    stalled = np.flatnonzero(corner_f[np.arange(count), best] > fw)
    if stalled.size:
        # the ascent stalled short of a dominating corner; restart there
        corners = np.zeros((stalled.size, n))
        corners[np.arange(stalled.size), best[stalled]] = 1.0
        w2, fw2 = _ascend_block(block.take(stalled), corners, tol, max_iter)
        wins = fw2 > fw[stalled]
        w[stalled[wins]] = w2[wins]

    if any((port <= RELATIVE_FLOOR).any() for port in block.at(w)[0]):
        warnings.warn("log-optimal solution sits on the relative floor; "
                      "input rows contain non-positive entries",
                      RuntimeWarning, stacklevel=2)
    return w


def geometric_median(points: np.ndarray, tol: float = 1e-9,
                     max_iter: int = 200) -> np.ndarray:
    """L1-median (spatial median) of the rows of each window of a stack.

    ``points`` is a (B, m, n) stack of windows, which gives (B, n). Modified
    Weiszfeld iteration started at the centroid, with the standard correction
    when an iterate coincides with a data point. For two points the centroid
    start resolves the degenerate segment to its midpoint. Each window stops
    on its own: once a step moves it less than ``tol`` (it returns that
    step's iterate), when the correction cannot move it off a data point, or
    after ``max_iter`` steps (it returns its last iterate). A window's result
    does not depend on the other windows of the stack.
    """
    pts = np.asarray(points, dtype=np.float64)
    result = pts.mean(axis=1)
    live = np.arange(pts.shape[0])  # windows still iterating
    y = result.copy()
    for _ in range(max_iter):
        if live.size == 0:
            break
        diff = pts - y[:, None, :]
        dist = np.linalg.norm(diff, axis=2)
        coincident = dist < 1e-12
        stopped = np.zeros(live.size, dtype=bool)
        # windows with a coincident point are redone one by one below
        inv = 1.0 / np.maximum(dist, 1e-12)
        y_next = (pts * inv[:, :, None]).sum(axis=1) / inv.sum(axis=1)[:, None]
        for i in np.nonzero(coincident.any(axis=1))[0]:
            others = ~coincident[i]
            y_next[i] = y[i]
            if not others.any():
                stopped[i] = True
                continue
            inv_i = 1.0 / dist[i, others]
            t_point = (pts[i, others] * inv_i[:, None]).sum(axis=0) / inv_i.sum()
            r_vec = (diff[i, others] * inv_i[:, None]).sum(axis=0)
            r = float(np.linalg.norm(r_vec))
            eta = float(coincident[i].sum())
            if r <= eta:
                stopped[i] = True
                continue
            y_next[i] = (max(0.0, 1.0 - eta / r) * t_point
                         + min(1.0, eta / r) * y[i])
        step = y_next - y
        moved = np.sqrt(row_dots(step, step))
        done = stopped | (moved < tol)
        result[live[done]] = y_next[done]
        keep = ~done
        live, pts, y = live[keep], pts[keep], y_next[keep]
    result[live] = y
    return result
