"""Shared numerical solvers: simplex projection, log-optimal weights, L1-median."""

from __future__ import annotations

import warnings

import numpy as np

# Floor applied to portfolio relatives inside the log objective so a stray
# non-positive entry cannot produce -inf mid line search.
RELATIVE_FLOOR = 1e-12


def project_to_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection of ``v`` onto the probability simplex.

    Sort-and-threshold algorithm; exact up to float roundoff for any finite
    input, including points already on the simplex (returned unchanged).
    """
    v = np.asarray(v, dtype=np.float64)
    n = v.size
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    idx = np.arange(1, n + 1)
    rho = np.nonzero(u * idx > (css - 1.0))[0][-1]
    theta = (css[rho] - 1.0) / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


def _ascend(relatives: np.ndarray, w: np.ndarray, tol: float,
            max_iter: int) -> tuple[np.ndarray, float]:
    """Projected gradient ascent with backtracking from start point ``w``;
    any step moving ``w`` less than ``tol``, even a rejected one, ends it."""
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


def log_optimal_portfolio(relatives: np.ndarray, tol: float = 1e-10,
                          max_iter: int = 10_000) -> np.ndarray:
    """Weights maximizing sum(log(relatives @ w)) over the simplex.

    ``relatives`` is an m x n matrix of per-day price relatives (gross
    returns, strictly positive under valid data). Deterministic: projected
    gradient ascent with a halving line search from the uniform start,
    stopping once a step, accepted or rejected, moves the weights by less
    than ``tol`` or after ``max_iter`` iterations. Single-asset corners
    are checked explicitly so the result never trails a pure asset.
    """
    relatives = np.asarray(relatives, dtype=np.float64)
    if relatives.ndim != 2:
        raise ValueError("relatives must be a 2-d matrix")
    m, n = relatives.shape
    if m < 1:
        raise ValueError("need at least one row of relatives")
    if n == 1:
        return np.ones(1)

    w, fw = _ascend(relatives, np.full(n, 1.0 / n), tol, max_iter)

    corner_f = np.log(np.maximum(relatives, RELATIVE_FLOOR)).sum(axis=0)
    best = int(np.argmax(corner_f))
    if corner_f[best] > fw:
        # the ascent stalled short of a dominating corner; restart there
        corner = np.zeros(n)
        corner[best] = 1.0
        w2, fw2 = _ascend(relatives, corner, tol, max_iter)
        if fw2 > fw:
            w, fw = w2, fw2

    if (np.maximum(relatives @ w, RELATIVE_FLOOR) <= RELATIVE_FLOOR).any():
        _warn_floor()
    return w


def _warn_floor() -> None:
    warnings.warn(
        "log-optimal solution sits on the relative floor; "
        "input rows contain non-positive entries",
        RuntimeWarning,
        stacklevel=3,
    )


def _project_rows(v: np.ndarray) -> np.ndarray:
    """``project_to_simplex`` of each row of ``v``, with its bytes."""
    n = v.shape[1]
    u = np.sort(v, axis=1)[:, ::-1]
    css = np.cumsum(u, axis=1)
    hits = u * np.arange(1, n + 1) > (css - 1.0)
    rho = n - 1 - np.argmax(hits[:, ::-1], axis=1)  # each row's last hit
    theta = (css[np.arange(len(v)), rho] - 1.0) / (rho + 1.0)
    return np.maximum(v - theta[:, None], 0.0)


def _port_stack(relatives: np.ndarray, w: np.ndarray) -> np.ndarray:
    # one BLAS gemv per problem, the bytes of relatives[b] @ w[b]
    return np.maximum(np.matmul(relatives, w[:, :, None])[:, :, 0],
                      RELATIVE_FLOOR)


def _ascend_stack(relatives: np.ndarray, w: np.ndarray, tol: float,
                  max_iter: int) -> tuple[np.ndarray, np.ndarray]:
    """``_ascend`` on each problem of a (B, m, n) stack from the rows of
    ``w``, in lockstep: one line-search trial per live problem at a time.
    Each problem keeps its own step, acceptance, ``tol`` stop and
    iteration count, and leaves the stack when it stops."""
    port = _port_stack(relatives, w)
    fw = np.log(port).sum(axis=1)
    w_out, f_out = w.copy(), fw.copy()
    if max_iter < 1:
        return w_out, f_out
    live, rel, w = np.arange(len(w)), relatives, w.copy()
    grad = (rel / port[:, :, None]).sum(axis=1)
    step = np.ones(live.size)
    iters = np.ones(live.size, dtype=np.int64)  # iterations begun
    while live.size:
        cand = _project_rows(w + step[:, None] * grad)
        cand_port = _port_stack(rel, cand)
        fc = np.log(cand_port).sum(axis=1)
        d = cand - w
        # per problem sqrt(d @ d), the bytes of np.linalg.norm(d)
        moved = np.sqrt(np.matmul(d[:, None, :], d[:, :, None])[:, 0, 0])
        up = fc > fw
        w[up], fw[up], port[up] = cand[up], fc[up], cand_port[up]
        step[up] *= 2.0
        step[~up] *= 0.5
        done = (moved < tol) | np.where(up, iters == max_iter, step < 1e-18)
        more = up & ~done  # accepted and going on: a new iteration begins
        grad[more] = (rel[more] / port[more][:, :, None]).sum(axis=1)
        iters[more] += 1
        if done.any():
            w_out[live[done]], f_out[live[done]] = w[done], fw[done]
            keep = ~done
            live, rel, w, fw, port = (live[keep], rel[keep], w[keep],
                                      fw[keep], port[keep])
            grad, step, iters = grad[keep], step[keep], iters[keep]
    return w_out, f_out


def log_optimal_stack(relatives: np.ndarray, tol: float = 1e-10,
                      max_iter: int = 10_000) -> np.ndarray:
    """``log_optimal_portfolio`` of each matrix of a (B, m, n) stack, which
    gives (B, n) weights; each row has the bytes of solving its problem
    alone. The problems ascend in lockstep, each with its own step, stop,
    corner restart and floor check (one warning for the stack)."""
    relatives = np.asarray(relatives, dtype=np.float64)
    if relatives.ndim != 3:
        raise ValueError("relatives must be a 3-d stack of matrices")
    count, m, n = relatives.shape
    if m < 1:
        raise ValueError("need at least one row of relatives")
    if n == 1:
        return np.ones((count, 1))

    w, fw = _ascend_stack(relatives, np.full((count, n), 1.0 / n), tol,
                          max_iter)

    corner_f = np.log(np.maximum(relatives, RELATIVE_FLOOR)).sum(axis=1)
    best = np.argmax(corner_f, axis=1)
    stalled = np.nonzero(corner_f[np.arange(count), best] > fw)[0]
    if stalled.size:
        corners = np.zeros((stalled.size, n))
        corners[np.arange(stalled.size), best[stalled]] = 1.0
        w2, fw2 = _ascend_stack(relatives[stalled], corners, tol, max_iter)
        wins = fw2 > fw[stalled]
        w[stalled[wins]] = w2[wins]

    if (_port_stack(relatives, w) <= RELATIVE_FLOOR).any():
        _warn_floor()
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
    if pts.ndim != 3 or pts.shape[1] < 1:
        raise ValueError("points must be a 3-d stack of non-empty windows")
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
        # per window sqrt(step @ step), the bytes of np.linalg.norm(step)
        step = y_next - y
        moved = np.sqrt(np.matmul(step[:, None, :], step[:, :, None])[:, 0, 0])
        done = stopped | (moved < tol)
        result[live[done]] = y_next[done]
        keep = ~done
        live, pts, y = live[keep], pts[keep], y_next[keep]
    result[live] = y
    return result
