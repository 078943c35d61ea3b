"""Solvers against independent oracles.

Simplex projection is checked against a bisection solver (different
algorithm, same optimum) and byte for byte against its numpy form.
Log-optimal weights are checked by grid search and by the first-order
optimality conditions. The geometric median is checked by direct objective
comparison and known symmetric configurations. The stacked solvers are
checked byte for byte against their per-problem forms in the oracles.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankfolio import optim
from rankfolio.optim import (RELATIVE_FLOOR, geometric_median,
                             log_optimal_portfolio, log_optimal_stack,
                             project_to_simplex)
from oracles import (geometric_median_loop, log_optimal_loop, log_optimal_scalar,
                     project_to_simplex_sorted)


# --- independent oracles ----------------------------------------------------

def project_bisect(v: np.ndarray) -> np.ndarray:
    """Simplex projection via bisection on the threshold theta.

    g(theta) = sum(max(v - theta, 0)) is continuous and strictly decreasing
    where positive; the projection uses the theta with g(theta) = 1.
    """
    v = np.asarray(v, dtype=np.float64)
    lo, hi = v.max() - 1.0, v.max()
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if np.maximum(v - mid, 0.0).sum() > 1.0:
            lo = mid
        else:
            hi = mid
    return np.maximum(v - 0.5 * (lo + hi), 0.0)


def log_wealth(relatives: np.ndarray, w: np.ndarray) -> float:
    return float(np.log(relatives @ w).sum())


def grid_best_two_assets(relatives: np.ndarray, step: float = 1e-4) -> float:
    ws = np.arange(0.0, 1.0 + step / 2, step)
    values = np.log(np.outer(relatives[:, 0], ws)
                    + np.outer(relatives[:, 1], 1.0 - ws)).sum(axis=0)
    return float(values.max())


# --- simplex projection ------------------------------------------------------

def test_projection_matches_bisection_oracle():
    rng = np.random.default_rng(42)
    for n in (2, 3, 5, 10, 50):
        for _ in range(20):
            v = rng.normal(0, 3, size=n)
            w = project_to_simplex(v)
            np.testing.assert_allclose(w, project_bisect(v), atol=1e-9)


def test_projection_known_values():
    np.testing.assert_allclose(project_to_simplex(np.array([0.5, 0.5])),
                               [0.5, 0.5])
    # all mass on the dominant coordinate
    np.testing.assert_allclose(project_to_simplex(np.array([5.0, 1.0])),
                               [1.0, 0.0])
    # symmetric offset splits evenly
    np.testing.assert_allclose(project_to_simplex(np.array([2.0, 2.0])),
                               [0.5, 0.5])
    # hand-solved: theta = (3 + 2 - 1)/2 = 2
    np.testing.assert_allclose(project_to_simplex(np.array([3.0, 2.0, -1.0])),
                               [1.0, 0.0, 0.0])


vectors = st.lists(
    st.floats(min_value=-50, max_value=50, allow_nan=False, width=64),
    min_size=1, max_size=12,
).map(np.array)


@given(vectors)
def test_property_projection_on_simplex(v):
    w = project_to_simplex(v)
    assert w.min() >= 0.0
    assert abs(w.sum() - 1.0) <= 1e-9


@given(vectors)
def test_property_projection_idempotent_and_ordered(v):
    w = project_to_simplex(v)
    np.testing.assert_allclose(project_to_simplex(w), w, atol=1e-9)
    order = np.argsort(v, kind="stable")
    assert (np.diff(w[order]) >= -1e-12).all()


@given(vectors, st.floats(min_value=-10, max_value=10, allow_nan=False))
def test_property_projection_translation_invariant(v, c):
    np.testing.assert_allclose(project_to_simplex(v + c),
                               project_to_simplex(v), atol=1e-8)


@st.composite
def projection_input(draw, n):
    """A length-n vector of one kind the strategies project: scaled values,
    repeated values with signed zeros, a point on the simplex, an
    OLMAR-style step ``w + lam * dev`` from one (with ``lam`` up to 1e9,
    where one asset takes all), ties that put the exact margin at 0 right
    after the last passing k, values near the float64 limit (the rounding
    bound overflows there), or scaled values with NaN and inf among them."""
    kind = draw(st.sampled_from(["scaled", "repeated", "simplex", "step",
                                 "ties", "huge", "non-finite"]))
    scale = 10.0 ** draw(st.integers(-3, 6))
    if kind == "huge":
        scale = 10.0 ** draw(st.integers(295, 308))
    if kind in ("scaled", "huge", "non-finite"):
        v = scale * np.array(draw(st.lists(
            st.floats(-1.0, 1.0, width=64), min_size=n, max_size=n)))
        if kind == "non-finite":
            bad = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3))
            v[bad] = draw(st.lists(st.sampled_from([np.nan, np.inf, -np.inf]),
                                   min_size=len(bad), max_size=len(bad)))
        return v
    if kind == "repeated":
        return scale * np.array(draw(st.lists(
            st.sampled_from([0.0, -0.0, 1.0 / 3.0, 0.5, 1.0, -1.0, 2.0]),
            min_size=n, max_size=n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "ties":
        # j copies of a, then a - 1/j: css_j - 1 - j*u_j is -1 and every
        # later margin is 0 in exact arithmetic
        a, j = scale * draw(st.floats(-1.0, 1.0, width=64)), draw(st.integers(1, n))
        return rng.permutation(np.r_[np.full(j, a), np.full(n - j, a - 1.0 / j)])
    w = draw(st.sampled_from([
        rng.dirichlet(np.ones(n)), np.full(n, 1.0 / n),
        np.eye(n)[rng.integers(n)]]))
    if kind == "simplex":
        return w
    x_hat = np.exp(rng.normal(0.0, 0.05, n))
    lam = draw(st.floats(0.0, max(scale, 10.0 ** draw(st.integers(0, 9))),
                         width=64))
    return w + lam * (x_hat - x_hat.mean())


@given(st.integers(1, 60).flatmap(projection_input))
@settings(max_examples=1500)
def test_property_projection_has_the_bytes_of_the_numpy_form(v):
    with np.errstate(over="ignore"):  # v - theta near the float64 limit
        assert project_to_simplex(v).tobytes() == \
            project_to_simplex_sorted(v).tobytes()


@given(st.integers(1, 60).flatmap(
    lambda n: st.lists(projection_input(n), min_size=1, max_size=8)))
@settings(max_examples=200)
def test_property_project_rows_has_each_rows_bytes(rows):
    with np.errstate(over="ignore", invalid="ignore"):  # as in the oracle
        stacked = optim._project_rows(np.array(rows))
        for row, v in zip(stacked, rows):
            assert row.tobytes() == project_to_simplex(v).tobytes()


@pytest.mark.parametrize("v", [[np.nan, np.nan], [np.inf, 1.0],
                               [1e300, 1e300], [2.0**60, 0.0]])
def test_projection_without_a_passing_threshold_is_nan(v):
    # no k passes (NaN, inf, or c - 1 == c at this scale): a NaN vector,
    # which the run's finite check reports with its day
    assert np.isnan(project_to_simplex(np.array(v))).all()


@pytest.mark.parametrize("v", [[0.7, np.nan, 0.5], [0.7, 0.5, np.nan],
                               [np.inf, 0.2, 0.1], [0.7, 0.5, -np.inf],
                               [-np.inf, 0.4, np.inf]])
def test_any_non_finite_entry_projects_to_nan_in_both_forms(v):
    # wherever the NaN or inf sits, and whichever form projects it
    assert np.isnan(project_to_simplex(np.array(v))).all()
    with np.errstate(invalid="ignore"):  # inf - inf in the running sums
        assert np.isnan(optim._project_rows(np.array([v]))).all()


def test_projection_exit_keeps_the_threshold_of_the_full_scan():
    # the rounding bound overflows near the float64 limit, so the scan runs
    # in full there: finite entries whose running sum overflows to -inf
    # still project to the first two
    v = np.array([0.5, 0.3, -1e308, -1e308])
    w = project_to_simplex(v)
    np.testing.assert_allclose(w, [0.6, 0.4, 0.0, 0.0], atol=1e-15)
    assert w.tobytes() == project_to_simplex_sorted(v).tobytes()
    with np.errstate(over="ignore"):
        assert optim._project_rows(v[None]).tobytes() == w.tobytes()


# --- column sums ----------------------------------------------------------------

@st.composite
def column_sum_input(draw):
    """An array of 2-4 dimensions, 0-300 rows and 1-60 columns, as drawn:
    C-contiguous, a slice or a transposed view, with its values drawn from
    normals of every scale and a few special values (signed zeros,
    infinities, NaN, subnormals, values near the float64 limit)."""
    lead = draw(st.lists(st.integers(1, 4), max_size=2))
    # one column, where numpy's order differs from einsum's, drawn often
    rows, cols = draw(st.integers(0, 300)), draw(st.just(1) | st.integers(1, 60))
    view = draw(st.sampled_from(["contiguous", "rows sliced", "lead sliced",
                                 "columns sliced", "transposed"]))
    shape = {"rows sliced": (*lead, 2 * rows, cols),
             "lead sliced": (2, *lead, rows, cols),
             "columns sliced": (*lead, rows, cols + 1),
             "transposed": (*lead, cols, rows)}.get(view, (*lead, rows, cols))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.normal(size=shape) * 10.0 ** rng.integers(-300, 300, size=shape)
    specials = draw(st.lists(st.sampled_from(
        [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -1e-310, 1.7e308,
         -1.7e308]), max_size=4))
    if specials and a.size:
        where = rng.random(shape) < draw(st.sampled_from([0.01, 0.5, 1.0]))
        a[where] = rng.choice(specials, size=int(where.sum()))
    return {"rows sliced": lambda: a[..., ::2, :],
            "lead sliced": lambda: a[1],
            "columns sliced": lambda: a[..., 1:],
            "transposed": lambda: a.swapaxes(-1, -2)}.get(view, lambda: a)()


def nan_as_one(x):
    """``x`` with every NaN spelled as ``np.nan``."""
    return np.where(np.isnan(x), np.nan, x)


@given(column_sum_input(), st.booleans())
@settings(max_examples=400, deadline=None)
def test_property_column_sums_have_the_bytes_of_numpy_sum(a, into_view):
    # the bias gradients of mlp write into (B, fan_out) slices of a (B, P)
    # array: out= takes such a strided view
    out = None
    if into_view:
        out = np.empty((*a.shape[:-2], a.shape[-1] + 3))[..., 2:-1]
    with np.errstate(all="ignore"):
        want = a.sum(axis=-2)
        got = optim.column_sums(a, out=out)
    assert got.shape == want.shape
    # where a column meets two NaNs, which one survives depends on operand
    # order inside the add: both sides are NaN there, and that is all
    assert nan_as_one(got).tobytes() == nan_as_one(want).tobytes()
    if into_view:
        assert got is out


# --- log-optimal portfolio ----------------------------------------------------

def random_relatives(rng, m, n):
    return np.exp(rng.normal(0.0, 0.05, size=(m, n)))


def test_log_optimal_two_assets_vs_grid():
    rng = np.random.default_rng(123)
    for _ in range(10):
        rel = random_relatives(rng, 30, 2)
        w = log_optimal_portfolio(rel)
        assert log_wealth(rel, w) >= grid_best_two_assets(rel) - 1e-6


def test_log_optimal_first_order_conditions():
    # at the constrained optimum every active coordinate's partial derivative
    # equals the row count and inactive coordinates cannot exceed it
    rng = np.random.default_rng(5)
    for n in (3, 4, 6):
        rel = random_relatives(rng, 40, n)
        w = log_optimal_portfolio(rel)
        grad = (rel / (rel @ w)[:, None]).sum(axis=0)
        m = rel.shape[0]
        active = w > 1e-8
        np.testing.assert_allclose(grad[active], m, rtol=1e-5)
        assert (grad[~active] <= m * (1 + 1e-5)).all()


def test_log_optimal_never_trails_a_corner():
    rng = np.random.default_rng(9)
    for _ in range(20):
        rel = random_relatives(rng, 25, 4)
        w = log_optimal_portfolio(rel)
        corners = np.log(rel).sum(axis=0)
        assert log_wealth(rel, w) >= corners.max() - 1e-9


def test_log_optimal_dominant_asset_takes_all():
    # one asset strictly dominates every day: the optimum is that corner
    rel = np.array([[1.10, 1.01], [1.05, 1.02], [1.20, 0.99]])
    w = log_optimal_portfolio(rel)
    np.testing.assert_allclose(w, [1.0, 0.0], atol=1e-6)


def test_log_optimal_symmetric_pair_splits_evenly():
    # alternating mirrored days make the problem symmetric in the two assets
    rel = np.array([[1.1, 0.9], [0.9, 1.1]] * 10)
    w = log_optimal_portfolio(rel)
    np.testing.assert_allclose(w, [0.5, 0.5], atol=1e-6)


def test_log_optimal_single_asset():
    np.testing.assert_array_equal(
        log_optimal_portfolio(np.array([[1.1], [0.9]])), [1.0])


def test_log_optimal_floor_warning_on_nonpositive_rows():
    rel = np.array([[0.0, 0.0], [0.0, 0.0]])
    with pytest.warns(RuntimeWarning, match="floor"):
        log_optimal_portfolio(rel)


@pytest.mark.parametrize("low, warns", [(5e-12, False), (0.0, True)])
def test_log_optimal_floor_sits_between_tiny_and_zero_relatives(low, warns):
    # one day on which every asset keeps 5e-12 of its price stays above
    # RELATIVE_FLOOR (1e-12) for every weight; a day on which every asset
    # goes to 0 sits on it, whatever the weights
    rel = random_relatives(np.random.default_rng(8), 30, 4)
    rel[11] = low
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        w = log_optimal_portfolio(rel)
    assert any("floor" in str(c.message) for c in caught) == warns
    assert np.isfinite(w).all() and abs(w.sum() - 1.0) < 1e-12


def test_log_optimal_deterministic():
    rng = np.random.default_rng(77)
    rel = random_relatives(rng, 50, 5)
    w1 = log_optimal_portfolio(rel)
    w2 = log_optimal_portfolio(rel.copy())
    np.testing.assert_array_equal(w1, w2)


# --- log-optimal early stop against the full line search ---------------------

# Problem shapes the strategies solve: bnn plays the log-optimal mix over 10
# neighbor successors (fewer rows than assets at 50 assets, so the optimum is
# not unique), corn over 1 to about 350 matched successors, and bcrp over the
# whole trading window of a 1309-day matrix.
SOLVER_SHAPES = {
    "bnn": [(10, 10)] * 20 + [(10, 50)] * 20,
    "corn": [(int(m), 10) for m in np.linspace(1, 350, 40)],
    "bcrp": [(1308, 5)] * 2,
}


def daily_relatives(rng, m, n):
    """Price relatives of the c12-shaped random walk (drift 5e-4, vol 2%)."""
    return 1.0 + np.clip(rng.normal(0.0005, 0.02, size=(m, n)), -0.5, 0.5)


def solver_problems(kind):
    rng = np.random.default_rng(2011)
    return [daily_relatives(rng, m, n) for m, n in SOLVER_SHAPES[kind]]


def kkt_gap(relatives, w):
    """max_j mean(x_j / x.w) - 1: zero at the log-optimal portfolio."""
    return float((relatives / (relatives @ w)[:, None]).mean(axis=0).max() - 1.0)


@pytest.mark.parametrize("kind", sorted(SOLVER_SHAPES))
def test_log_optimal_matches_full_line_search(kind):
    for rel in solver_problems(kind):
        w = log_optimal_portfolio(rel)
        assert float(np.linalg.norm(w - log_optimal_loop(rel))) < 1e-10
        assert kkt_gap(rel, w) <= 1e-7


@pytest.mark.parametrize("kind", ["bnn", "corn"])
def test_log_optimal_projections_per_solve(kind, monkeypatch):
    # the full line search spends about 70 projections per solve, most of
    # them halving the step of the last, converged iteration; a problem
    # solved alone projects one row per line-search trial
    problems = solver_problems(kind)
    calls = []
    real = optim._project_rows

    def counting(v):
        calls.append(len(v))
        return real(v)

    monkeypatch.setattr(optim, "_project_rows", counting)
    for rel in problems:
        log_optimal_portfolio(rel)
    assert set(calls) == {1}
    assert len(calls) / len(problems) <= 25


# --- log-optimal stacks against the per-problem solver -----------------------

def solve_recording_warnings(solve, *args, **kwargs):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = solve(*args, **kwargs)
    return result, [(w.category, str(w.message)) for w in caught]


def assert_log_optimal_stack_matches(block, **kwargs):
    """Each row of a block's solution has the bytes of its problem solved
    by the one-problem oracle, and the block warns once when any of its
    problems does."""
    got, caught = solve_recording_warnings(log_optimal_stack, block, **kwargs)
    assert got.shape == (len(block), np.shape(block[0])[1])
    loop_warnings = set()
    for problem, row in zip(block, got):
        want, warned = solve_recording_warnings(log_optimal_scalar, problem,
                                                **kwargs)
        assert row.tobytes() == want.tobytes()
        loop_warnings |= set(warned)
    assert set(caught) == loop_warnings and len(caught) == len(loop_warnings)
    assert len(loop_warnings) <= 1


# Problems whose ascent from uniform stalls short of a dominating corner, so
# the solver restarts from that corner.
RESTARTS = [
    [[1.0, 1.0, 2.0], [0.0, 2.0, 2.0], [1.0, 0.5, 0.0]],
    [[0.5, 0.0, 0.5], [0.0, 1.5, 0.5], [2.0, 0.0, 1.0]],
]


def test_log_optimal_stack_matches_solver_problems():
    # bnn's problems stacked by shape, as the strategy solves them
    problems = solver_problems("bnn")
    for n in (10, 50):
        assert_log_optimal_stack_matches(
            np.array([p for p in problems if p.shape[1] == n]))


def test_log_optimal_ragged_stack_matches_corn_problems():
    # corn's problems of 1 to 350 rows in one ragged block, in both orders
    problems = solver_problems("corn")
    assert_log_optimal_stack_matches(problems)
    assert_log_optimal_stack_matches(problems[::-1])


def test_log_optimal_stack_takes_the_corner_restart(monkeypatch):
    # the two RESTARTS problems, and only they, ascend again from a corner,
    # whether the block is one array or a ragged list with a taller problem
    taller = [[1.1, 0.9, 1.0]] * 4
    blocks = (np.array(RESTARTS + [taller[:3]]), RESTARTS + [taller],
              [taller] + RESTARTS)
    real = optim._ascend_block
    ascents = []

    def counting(block, w, *args):
        ascents.append((w == 1.0).any(axis=1).tolist())
        return real(block, w, *args)

    monkeypatch.setattr(optim, "_ascend_block", counting)
    for block in blocks:
        ascents.clear()
        log_optimal_stack(block)
        # a uniform start for every problem, then a corner start for two
        assert ascents == [[False] * 3, [True, True]]
    for problem in RESTARTS:
        ascents.clear()
        log_optimal_portfolio(problem)
        assert ascents == [[False], [True]]
    monkeypatch.undo()
    for block in blocks:
        assert_log_optimal_stack_matches(block)


def test_log_optimal_stack_validation():
    # the degenerate blocks: no problems, or problems of one asset
    assert log_optimal_stack(np.empty((0, 4, 3))).shape == (0, 3)
    np.testing.assert_array_equal(log_optimal_stack(np.full((2, 3, 1), 1.1)),
                                  [[1.0], [1.0]])
    assert log_optimal_stack([]).shape == (0, 0)
    np.testing.assert_array_equal(
        log_optimal_stack([np.full((2, 1), 1.1), np.full((5, 1), 0.9)]),
        [[1.0], [1.0]])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_property_log_optimal_stack_matches_loop(data):
    # few levels, zero and the floor among them, make floored rows and ties
    # common; a max_iter of 1 or 2 stops many ascents short of a dominating
    # corner, so the corner restart runs. A block is one (B, m, n) array or
    # a list of (m_b, n) matrices. A list whose problems share one shape is
    # solved as one stack: it gives the array's bytes, whether its problems
    # are arrays or nested lists.
    n = data.draw(st.integers(1, 4))
    rows = data.draw(st.lists(st.integers(1, 5), min_size=1, max_size=6))
    if data.draw(st.booleans()):
        rows = [rows[0]] * len(rows)
    levels = st.sampled_from([0.0, RELATIVE_FLOOR, 0.5, 1.0, 1.5, 2.0, 3.25])
    block = [np.array(data.draw(st.lists(levels, min_size=m * n,
                                         max_size=m * n))).reshape(m, n)
             for m in rows]
    kwargs = {"max_iter": data.draw(st.sampled_from([0, 1, 2, 10_000])),
              "tol": data.draw(st.sampled_from([1e-10, 1e-3]))}
    assert_log_optimal_stack_matches(block, **kwargs)
    if len(set(rows)) == 1:
        stacked = np.array(block)
        assert_log_optimal_stack_matches(stacked, **kwargs)
        as_array, as_list, as_nested = (
            solve_recording_warnings(log_optimal_stack, b, **kwargs)[0]
            for b in (stacked, block, [p.tolist() for p in block]))
        assert as_array.tobytes() == as_list.tobytes() == as_nested.tobytes()


# --- geometric median ---------------------------------------------------------

def l1_objective(points: np.ndarray, y: np.ndarray) -> float:
    return float(np.linalg.norm(points - y, axis=1).sum())


def test_median_single_point():
    np.testing.assert_allclose(geometric_median(np.array([[[3.0, 4.0]]]))[0],
                               [3.0, 4.0])


def test_median_two_points_is_midpoint():
    pts = np.array([[0.0, 0.0], [2.0, 4.0]])
    np.testing.assert_allclose(geometric_median(pts[None])[0],
                               [1.0, 2.0], atol=1e-8)


def test_median_equilateral_triangle_is_centroid():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3) / 2]])
    np.testing.assert_allclose(geometric_median(pts[None])[0], pts.mean(axis=0),
                               atol=1e-8)


def test_median_rectangle_is_center():
    pts = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 2.0], [4.0, 2.0]])
    np.testing.assert_allclose(geometric_median(pts[None])[0],
                               [2.0, 1.0], atol=1e-8)


def test_median_three_collinear_is_middle_point():
    # with an odd count on a line the L1-median is the middle data point
    pts = np.array([[0.0, 0.0], [1.0, 1.0], [10.0, 10.0]])
    np.testing.assert_allclose(geometric_median(pts[None])[0],
                               [1.0, 1.0], atol=1e-7)


def test_median_majority_coincident_point_wins():
    # when more than half the mass sits on one point, that point is the median
    pts = np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 1.0], [5.0, 5.0]])
    np.testing.assert_allclose(geometric_median(pts[None])[0],
                               [1.0, 1.0], atol=1e-9)


def test_median_objective_not_worse_than_candidates():
    rng = np.random.default_rng(31)
    for _ in range(20):
        pts = rng.normal(0, 1, size=(rng.integers(2, 12), 3))
        y = geometric_median(pts[None])[0]
        fy = l1_objective(pts, y)
        assert fy <= l1_objective(pts, pts.mean(axis=0)) + 1e-7
        for p in pts:
            assert fy <= l1_objective(pts, p) + 1e-7
        for _ in range(5):
            assert fy <= l1_objective(pts, y + rng.normal(0, 0.1, 3)) + 1e-7


def test_median_validation():
    # an empty stack of windows
    assert geometric_median(np.empty((0, 4, 2))).shape == (0, 2)


def assert_stack_matches_loop(stack, **kwargs):
    got = geometric_median(stack, **kwargs)
    assert got.shape == (stack.shape[0], stack.shape[2])
    for window, median in zip(stack, got):
        want = geometric_median_loop(window, **kwargs)
        assert median.tobytes() == want.tobytes()
        # a window alone in its stack gives the same bytes
        alone = geometric_median(window[None], **kwargs)[0]
        assert alone.tobytes() == want.tobytes()


def walk_windows(days, assets, length, seed):
    rng = np.random.default_rng(seed)
    prices = 100.0 * np.cumprod(1.0 + rng.normal(0, 0.02, (days, assets)), axis=0)
    return np.lib.stride_tricks.sliding_window_view(prices, (length, assets))[:, 0]


# Windows whose centroid start sits on a data point, so the coincident-point
# branch runs: all rows equal (no other point), a median on that point (the
# correction cannot move it), and a point that is not the median (the
# correction moves it off).
COINCIDENT = np.array([
    [[2.0, 3.0], [2.0, 3.0], [2.0, 3.0], [2.0, 3.0], [2.0, 3.0]],
    [[1.0, 1.0], [0.0, 0.0], [2.0, 2.0], [1.0, 1.0], [1.0, 1.0]],
    [[0.0, 0.0], [1.0, 0.0], [1.0, 0.01], [1.0, -0.01], [-3.0, 0.0]],
])


@pytest.mark.parametrize("length", [1, 2, 5, 30])
@pytest.mark.parametrize("assets", [1, 3, 10, 50])
def test_median_stack_matches_single_window_loop(length, assets):
    assert_stack_matches_loop(walk_windows(80, assets, length, seed=assets))


@pytest.mark.parametrize("kwargs", [{}, {"max_iter": 3}, {"max_iter": 0},
                                    {"tol": 1e-3}, {"tol": 0.0, "max_iter": 50}])
def test_median_stack_matches_loop_in_every_branch(kwargs):
    rng = np.random.default_rng(43)
    walk = walk_windows(30, 2, 5, seed=5)
    flat = walk.copy()
    flat[:, :, 1] = 7.5  # a flat column
    mixed = np.concatenate([walk[:8], COINCIDENT, flat[:5], COINCIDENT[::-1],
                            rng.normal(size=(6, 5, 2))])
    assert_stack_matches_loop(mixed, **kwargs)
    two_rows = mixed[:, [0, 3]]
    assert_stack_matches_loop(two_rows, **kwargs)
    assert_stack_matches_loop(mixed[:, :1], **kwargs)


def test_median_coincident_cases_hit_their_branches():
    medians = geometric_median(COINCIDENT)
    np.testing.assert_array_equal(medians[0], [2.0, 3.0])
    np.testing.assert_array_equal(medians[1], [1.0, 1.0])
    # the third window starts on its first row and must be moved off it
    assert not np.array_equal(medians[2], COINCIDENT[2].mean(axis=0))
    pts = COINCIDENT[2]
    assert l1_objective(pts, medians[2]) < l1_objective(pts, pts[0])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_property_median_stack_matches_loop(data):
    # few price levels make exact coincidences common
    shape = (data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6)),
             data.draw(st.integers(1, 4)))
    levels = st.sampled_from([1.0, 1.5, 2.0, 3.25])
    values = data.draw(st.lists(levels, min_size=int(np.prod(shape)),
                                max_size=int(np.prod(shape))))
    max_iter = data.draw(st.sampled_from([3, 200]))
    assert_stack_matches_loop(np.array(values).reshape(shape), max_iter=max_iter)
