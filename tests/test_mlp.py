"""Network forward pass, analytic gradients, Adam mechanics."""

import math
import tracemalloc

import numpy as np
import pytest

from rankfolio.learners import MlpLearner
from rankfolio.mlp import (ADAM_BETA1, ADAM_BETA2, ADAM_EPS, MlpModel,
                           _Workspace, loss_and_gradients, mlp_train)

from oracles import mlp_train_loop


def numeric_gradients(model, x, y, h=1e-5):
    """Central-difference gradients for every parameter array."""
    def loss_only():
        return loss_and_gradients(model, x, y)[0]

    grads = []
    for params in (model.weights, model.biases):
        for p in params:
            g = np.zeros_like(p)
            it = np.nditer(p, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = p[idx]
                p[idx] = orig + h
                up = loss_only()
                p[idx] = orig - h
                down = loss_only()
                p[idx] = orig
                g[idx] = (up - down) / (2 * h)
            grads.append(g)
    return grads[: len(model.weights)], grads[len(model.weights):]


def test_forward_hand_computed():
    # 2 -> 2 -> 1 with chosen parameters, one ReLU clamp in play
    model = MlpModel(
        layer_sizes=(2, 2, 1),
        weights=[np.array([[1.0, -1.0], [0.5, 2.0]]), np.array([[2.0], [3.0]])],
        biases=[np.array([0.0, -1.0]), np.array([0.5])],
    )
    x = np.array([1.0, 2.0])
    hidden = np.maximum([1.0 * 1 + 0.5 * 2, -1.0 * 1 + 2.0 * 2 - 1.0], 0.0)
    expected = hidden @ np.array([2.0, 3.0]) + 0.5
    assert model.forward(x) == pytest.approx(expected)
    # negative pre-activation must clamp
    x2 = np.array([2.0, 0.0])
    hidden2 = np.maximum([2.0, -3.0], 0.0)
    assert model.forward(x2) == pytest.approx(hidden2 @ [2.0, 3.0] + 0.5)


def test_forward_batch_matches_single_rows():
    model = MlpModel.initialize((3, 4, 2), seed=1)
    x = np.random.default_rng(2).normal(size=(6, 3))
    batch = model.forward(x)
    for i in range(6):
        np.testing.assert_allclose(batch[i], model.forward(x[i]), atol=1e-15)


def test_initialize_bounds_and_determinism():
    model = MlpModel.initialize((5, 7, 3), seed=42)
    assert [w.shape for w in model.weights] == [(5, 7), (7, 3)]
    assert [b.shape for b in model.biases] == [(7,), (3,)]
    for (fan_in, fan_out), w, b in zip(((5, 7), (7, 3)),
                                       model.weights, model.biases):
        bound = math.sqrt(6.0 / (fan_in + fan_out))
        assert np.abs(w).max() <= bound
        assert np.abs(b).max() <= bound
    again = MlpModel.initialize((5, 7, 3), seed=42)
    for a, b in zip(model.weights + model.biases, again.weights + again.biases):
        np.testing.assert_array_equal(a, b)
    assert not np.array_equal(model.weights[0],
                              MlpModel.initialize((5, 7, 3), seed=43).weights[0])


def test_gradients_match_central_differences():
    rng = np.random.default_rng(3)
    model = MlpModel.initialize((4, 3, 3, 2), seed=7)
    x = rng.normal(size=(8, 4))
    y = rng.normal(size=(8, 2))
    _, w_grads, b_grads = loss_and_gradients(model, x, y)
    nw, nb = numeric_gradients(model, x, y)
    for analytic, numeric in zip(w_grads + b_grads, nw + nb):
        denom = np.maximum(np.abs(numeric), 1e-8)
        assert (np.abs(analytic - numeric) / denom).max() < 1e-4


def test_loss_is_mse_over_all_elements():
    model = MlpModel.initialize((2, 3, 2), seed=5)
    x = np.random.default_rng(6).normal(size=(4, 2))
    y = np.zeros((4, 2))
    loss, _, _ = loss_and_gradients(model, x, y)
    pred = model.forward(x)
    assert loss == pytest.approx(((pred - y) ** 2).mean())


def adam_reference(x, y, hidden, epochs, lr, seed):
    """Textbook Adam on the same init, written independently."""
    model = MlpModel.initialize((x.shape[1], *hidden, y.shape[1]), seed)
    params = model.weights + model.biases
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    t = 0
    for _ in range(epochs):
        _, wg, bg = loss_and_gradients(model, x, y)
        grads = wg + bg
        t += 1
        for i, p in enumerate(params):
            m[i] = ADAM_BETA1 * m[i] + (1 - ADAM_BETA1) * grads[i]
            v[i] = ADAM_BETA2 * v[i] + (1 - ADAM_BETA2) * grads[i] ** 2
            m_hat = m[i] / (1 - ADAM_BETA1 ** t)
            v_hat = v[i] / (1 - ADAM_BETA2 ** t)
            p -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return model


def test_full_batch_training_matches_reference_adam():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(12, 5))
    y = rng.normal(size=(12, 3))
    trained = mlp_train(x, y, hidden=(4,), epochs=5, learning_rate=1e-3,
                        batch_size=0, seed=9)
    ref = adam_reference(x, y, (4,), 5, 1e-3, seed=9)
    for a, b in zip(trained.weights + trained.biases,
                    ref.weights + ref.biases):
        np.testing.assert_allclose(a, b, atol=1e-12)


@pytest.mark.parametrize("hidden", [(), (4,), (20, 20), (5, 3, 2)])
@pytest.mark.parametrize("batch_size", [0, 10, 16, 37, 64])
def test_training_byte_equal_to_per_tensor_adam(hidden, batch_size):
    # 37 rows: batches of 10 and 16 leave a ragged last batch (7 and 5
    # rows); 37 and 64 rows per batch fall back to the full batch
    rng = np.random.default_rng(40)
    x = rng.normal(size=(37, 6))
    y = rng.normal(size=(37, 3))
    kwargs = dict(hidden=hidden, epochs=12, learning_rate=3e-3,
                  batch_size=batch_size, seed=5)
    trained = mlp_train(x, y, **kwargs)
    ref = mlp_train_loop(x, y, **kwargs)
    assert trained.layer_sizes == ref.layer_sizes == (6, *hidden, 3)
    for a, b in zip(trained.weights + trained.biases, ref.weights + ref.biases):
        assert a.shape == b.shape
        assert a.tobytes() == b.tobytes()
    assert (np.array(trained.loss_curve).tobytes()
            == np.array(ref.loss_curve).tobytes())
    probe = rng.normal(size=(4, 6))
    assert trained.forward(probe).tobytes() == ref.forward(probe).tobytes()


def test_gradients_into_destination_equal_fresh_ones():
    rng = np.random.default_rng(41)
    model = MlpModel.initialize((5, 4, 3, 2), seed=2)
    x = rng.normal(size=(9, 5))
    y = rng.normal(size=(9, 2))
    loss, w_grads, b_grads = loss_and_gradients(model, x, y)
    # a second call without a destination leaves the first call's arrays as
    # they were, whatever its inputs
    kept = [g.copy() for g in w_grads + b_grads]
    loss_and_gradients(model, rng.normal(size=(3, 5)), rng.normal(size=(3, 2)))
    for g, k in zip(w_grads + b_grads, kept):
        assert g.tobytes() == k.tobytes()
    dest = ([np.full_like(w, np.nan) for w in model.weights],
            [np.full_like(b, np.nan) for b in model.biases])
    loss_out, w_out, b_out = loss_and_gradients(model, x, y, dest)
    assert loss_out == loss
    assert all(a is b for a, b in zip(w_out + b_out, dest[0] + dest[1]))
    for a, b in zip(w_out + b_out, w_grads + b_grads):
        assert a.tobytes() == b.tobytes()


def test_trained_parameters_share_one_vector():
    x = np.random.default_rng(42).normal(size=(8, 3))
    model = mlp_train(x, x[:, :2], hidden=(4,), epochs=2, learning_rate=1e-3,
                      batch_size=0, seed=1)
    params = model.weights + model.biases
    base = params[0].base
    assert base is not None and base.ndim == 1
    assert all(p.base is base for p in params)
    assert base.size == sum(p.size for p in params)


def distinct_blocks(stack, rows=37, d=6, k=3, seed=44):
    """A (stack, rows, d) feature stack and (stack, rows, k) targets, every
    block drawn afresh."""
    rng = np.random.default_rng(seed)
    return rng.normal(size=(stack, rows, d)), rng.normal(size=(stack, rows, k))


def assert_same_network(got, want):
    assert got.layer_sizes == want.layer_sizes
    for a, b in zip(got.weights + got.biases, want.weights + want.biases):
        assert a.shape == b.shape
        assert a.tobytes() == b.tobytes()
    assert (np.array(got.loss_curve).tobytes()
            == np.array(want.loss_curve).tobytes())


@pytest.mark.parametrize("stack", [1, 3, 9])
@pytest.mark.parametrize("hidden", [(), (4,), (20, 20)])
@pytest.mark.parametrize("batch_size", [0, 4, 16, 37])
def test_stack_training_byte_equal_to_per_network_loop(stack, hidden, batch_size):
    # 37 rows: batches of 16 leave a ragged last batch of 5 rows, batches of
    # 4 make each epoch's loss a mean over 10 batches (numpy sums 8 or more
    # along a contiguous axis pairwise), and 37 is the full batch again
    x, y = distinct_blocks(stack)
    kwargs = dict(hidden=hidden, epochs=12, learning_rate=3e-3,
                  batch_size=batch_size, seed=5)
    trained = mlp_train(x, y, **kwargs)
    assert [w.shape for w in trained.weights] == [
        (stack, a, b) for a, b in zip((6, *hidden), (*hidden, 3))]
    networks = trained.unstack()
    assert len(networks) == stack
    for b, network in enumerate(networks):
        assert_same_network(network, mlp_train_loop(x[b], y[b], **kwargs))


def test_stack_divergence_in_last_network_raises():
    # the first two blocks train normally on their own; the last one's
    # squared residual overflows on the first epoch, which stops the stack
    x, y = distinct_blocks(3, rows=4, d=2, k=1)
    mlp_train(x[:2], y[:2], hidden=(3,), epochs=5, learning_rate=1.0,
              batch_size=0, seed=0)
    y[2] = -1e200
    with np.errstate(over="ignore"):
        with pytest.raises(RuntimeError, match="diverged at epoch 0: loss=inf"):
            mlp_train(x, y, hidden=(3,), epochs=5, learning_rate=1.0,
                      batch_size=0, seed=0)


def test_stacked_gradients_equal_per_network_ones():
    # one body serves a single network and a stack: each network's loss and
    # gradients in a stack are the bytes of its own call
    x, y = distinct_blocks(4, rows=9, d=5, k=2)
    stack = mlp_train(x, y, hidden=(4, 3), epochs=3, learning_rate=1e-3,
                      batch_size=0, seed=2)
    loss, w_grads, b_grads = loss_and_gradients(stack, x, y)
    assert loss.shape == (4,)
    for b, network in enumerate(stack.unstack()):
        one_loss, one_w, one_b = loss_and_gradients(network, x[b], y[b])
        assert loss[b].tobytes() == one_loss.tobytes()
        for a, g in zip(w_grads + b_grads, one_w + one_b):
            assert a[b].tobytes() == g.tobytes()


def test_unstacked_networks_are_rows_of_one_array():
    x, y = distinct_blocks(3, rows=8, d=3, k=2)
    stack = mlp_train(x, y, hidden=(4,), epochs=2, learning_rate=1e-3,
                      batch_size=0, seed=1)
    base = stack.weights[0].base
    assert base is not None and base.shape == (3, 3 * 4 + 4 + 4 * 2 + 2)
    for b, network in enumerate(stack.unstack()):
        params = network.weights + network.biases
        assert all(p.base is base for p in params)
        # network b's parameters fill row b, in initialize's draw order
        row = np.concatenate([np.append(w, c) for w, c in
                              zip(network.weights, network.biases)])
        assert row.tobytes() == base[b].tobytes()
        assert network.loss_curve == stack.loss_curve[b]
        assert len(network.loss_curve) == 2


def test_training_reduces_loss_on_learnable_data():
    rng = np.random.default_rng(13)
    x = rng.normal(size=(64, 6))
    true_w = rng.normal(size=(6, 2))
    y = x @ true_w
    model = mlp_train(x, y, hidden=(16,), epochs=300, learning_rate=3e-3,
                      batch_size=0, seed=1)
    assert len(model.loss_curve) == 300
    assert model.loss_curve[-1] < 0.2 * model.loss_curve[0]


def test_training_deterministic_for_fixed_seed():
    rng = np.random.default_rng(21)
    x = rng.normal(size=(20, 4))
    y = rng.normal(size=(20, 2))
    a = mlp_train(x, y, hidden=(5,), epochs=10, learning_rate=1e-3,
                  batch_size=0, seed=3)
    b = mlp_train(x, y, hidden=(5,), epochs=10, learning_rate=1e-3,
                  batch_size=0, seed=3)
    for pa, pb in zip(a.weights + a.biases, b.weights + b.biases):
        np.testing.assert_array_equal(pa, pb)
    assert a.loss_curve == b.loss_curve


def test_minibatch_path_runs_and_differs_from_full_batch():
    rng = np.random.default_rng(22)
    x = rng.normal(size=(30, 4))
    y = rng.normal(size=(30, 2))
    full = mlp_train(x, y, hidden=(5,), epochs=8, learning_rate=1e-3,
                     batch_size=0, seed=3)
    mini = mlp_train(x, y, hidden=(5,), epochs=8, learning_rate=1e-3,
                     batch_size=10, seed=3)
    assert not np.array_equal(full.weights[0], mini.weights[0])
    # minibatching is itself deterministic under the same seed
    mini2 = mlp_train(x, y, hidden=(5,), epochs=8, learning_rate=1e-3,
                      batch_size=10, seed=3)
    np.testing.assert_array_equal(mini.weights[0], mini2.weights[0])


def test_training_divergence_raises():
    # the squared residual against this target overflows on the first epoch
    # no matter how the ReLU units land; the overflow is the point here
    x = np.ones((4, 2))
    y = np.full((4, 1), -1e200)
    with np.errstate(over="ignore"):
        with pytest.raises(RuntimeError, match="diverged at epoch"):
            mlp_train(x, y, hidden=(3,), epochs=5, learning_rate=1.0,
                      batch_size=0, seed=0)


def test_predict_takes_rows_as_given():
    # the strategy standardizes; the learner scores the rows it is given
    rng = np.random.default_rng(30)
    feats = rng.normal(5.0, 2.0, size=(1, 50, 3))
    learner = MlpLearner(hidden=(4,), epochs=2, learning_rate=1e-3,
                         batch_size=0, seed=2)
    learner.fit(feats, rng.normal(size=(1, 50, 2)))
    rows = feats[0, 7:9]
    np.testing.assert_array_equal(
        learner.predict(0, rows),
        [learner.models[0].forward(row) for row in rows])


def test_pass_into_workspace_makes_no_batch_sized_array():
    # mlp_train's steps write their intermediates into one workspace: arrays
    # made and freed every step let the C heap's top be handed back and
    # faulted in again, in spells that slowed training by up to 1.5x
    x, y = distinct_blocks(8, rows=400, d=40, k=10)
    model = mlp_train(x, y, hidden=(20, 20), epochs=2, learning_rate=1e-3,
                      batch_size=0, seed=1)
    fresh = loss_and_gradients(model, x, y)
    work = _Workspace(model, x)
    grads = ([np.empty_like(w) for w in model.weights],
             [np.empty_like(b) for b in model.biases])
    tracemalloc.start()
    try:
        for _ in range(2):  # the second pass overwrites the first's arrays
            loss, w_grads, b_grads = loss_and_gradients(model, x, y, grads, work)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the smallest batch-sized array is the output layer's, (8, 400, 10)
    # floats or 256 KB; numpy's broadcast bias add takes a 64 KB buffer
    # whatever the batch
    assert peak < work.squares.nbytes
    assert loss.tobytes() == fresh[0].tobytes()
    for a, b in zip(w_grads + b_grads, fresh[1] + fresh[2]):
        assert a.tobytes() == b.tobytes()
