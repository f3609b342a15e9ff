import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsim.errors import DivergenceError
from fedsim.models import (
    STACK_SAMPLES,
    ArchDescriptor,
    Dataset,
    EvalReport,
    Hyperparameters,
    ParameterVector,
    _logits,
    accuracies,
    evaluate,
    init_params,
    load_checkpoint,
    local_train,
    save_checkpoint,
    seq_sum,
    unpack,
    weight_mask,
)
from gradcheck import (
    _per_sample_ce,
    central_difference,
    finite_difference_gradient,
    loss_and_gradient,
    reference_sgd,
)

LOGISTIC = ArchDescriptor("logistic", input_dim=4, hidden_dim=0, num_classes=3)
MLP = ArchDescriptor("mlp", input_dim=4, hidden_dim=5, num_classes=3)


def _blob_data(n, seed, input_dim=4, num_classes=2, spread=3.0):
    rng = np.random.default_rng(seed)
    means = rng.normal(0.0, spread, size=(num_classes, input_dim))
    labels = rng.integers(0, num_classes, size=n)
    feats = means[labels] + rng.normal(0.0, 0.4, size=(n, input_dim))
    return Dataset(feats, labels, num_classes)


# ---------------------------------------------------------------------------
# independent oracles, coded with plain python loops
# ---------------------------------------------------------------------------


def _oracle_probs(values, arch, row):
    """Forward pass recomputed without the library's linear algebra."""
    v = list(values)
    d, h, k = arch.input_dim, arch.hidden_dim, arch.num_classes
    if arch.kind == "logistic":
        logits = []
        for c in range(k):
            z = v[d * k + c]  # bias
            for j in range(d):
                z += row[j] * v[j * k + c]
            logits.append(z)
    else:
        off_w1, off_b1 = 0, d * h
        off_w2, off_b2 = d * h + h, d * h + h + h * k
        hidden = []
        for u in range(h):
            z = v[off_b1 + u]
            for j in range(d):
                z += row[j] * v[off_w1 + j * h + u]
            hidden.append(math.tanh(z))
        logits = []
        for c in range(k):
            z = v[off_b2 + c]
            for u in range(h):
                z += hidden[u] * v[off_w2 + u * k + c]
            logits.append(z)
    m = max(logits)
    exps = [math.exp(z - m) for z in logits]
    s = sum(exps)
    return [e / s for e in exps]


def _oracle_eval(values, arch, data):
    """Loss and accuracy recomputed independently."""
    losses = []
    hits = 0
    for row, label in zip(data.features, data.labels):
        probs = _oracle_probs(values, arch, row)
        losses.append(-math.log(probs[label]))
        best = max(range(len(probs)), key=lambda c: (probs[c], -c))
        if best == label:
            hits += 1
    total = 0.0
    for term in losses:
        total += term
    return total / len(losses), hits / len(losses)


# ---------------------------------------------------------------------------
# class probabilities, read off the per-sample loss that evaluate uses
# ---------------------------------------------------------------------------


def _probs(params, arch, rows):
    """[i, c] = exp(-cross-entropy of row i labelled c)."""
    k = arch.num_classes
    return np.stack(
        [np.exp(-_per_sample_ce(params, arch, Dataset(rows, np.full(len(rows), c), k)))
         for c in range(k)],
        axis=1,
    )


def test_predict_zero_params_binary_is_uniform():
    arch = ArchDescriptor("logistic", 4, 0, 2)
    params = init_params(arch, "zeros")
    probs = _probs(params, arch, np.ones((3, 4)))
    assert np.allclose(probs, 0.5, atol=0)


def test_predict_saturated_logit():
    arch = ArchDescriptor("logistic", 1, 0, 2)
    # bias pushes class-1 logit to 50, class-0 stays at 0
    params = ParameterVector(np.array([0.0, 0.0, 0.0, 50.0]))
    probs = _probs(params, arch, np.zeros((1, 1)))
    assert probs[0, 1] >= 1.0 - 1e-20
    assert evaluate(params, arch, Dataset(np.zeros((1, 1)), np.array([0]), 2)).loss == 50.0


@pytest.mark.parametrize("arch", [LOGISTIC, MLP])
def test_predict_matches_independent_forward(arch):
    params = init_params(arch, "seeded_uniform", seed=42)
    rng = np.random.default_rng(5)
    rows = rng.normal(size=(3, arch.input_dim))
    probs = _probs(params, arch, rows)
    for i in range(3):
        expect = _oracle_probs(params.values, arch, rows[i])
        assert np.max(np.abs(probs[i] - np.asarray(expect))) <= 1e-12


def test_predict_rows_sum_to_one():
    params = init_params(MLP, "seeded_uniform", seed=9)
    rows = np.random.default_rng(11).normal(size=(20, 4))
    probs = _probs(params, MLP, rows)
    assert np.all(np.abs(probs.sum(axis=1) - 1.0) <= 1e-12)
    assert np.all(probs >= 0.0)


def test_predict_shape_mismatch_rejected():
    params = init_params(LOGISTIC, "zeros")
    with pytest.raises(ValueError):
        evaluate(params, LOGISTIC, Dataset(np.zeros((2, 7)), np.zeros(2, dtype=int), 3))


# ---------------------------------------------------------------------------
# loss and gradient
# ---------------------------------------------------------------------------


def test_loss_uniform_predictor_is_ln2():
    arch = ArchDescriptor("logistic", 3, 0, 2)
    params = init_params(arch, "zeros")
    rng = np.random.default_rng(0)
    data = Dataset(rng.normal(size=(10, 3)), np.array([0, 1] * 5), 2)
    loss, _ = loss_and_gradient(params, arch, data)
    assert abs(loss - math.log(2.0)) <= 1e-12


def test_l2_gradient_on_weights_only():
    # equal weight columns + equal biases null the data gradient exactly,
    # leaving only the penalty term
    arch = ArchDescriptor("logistic", 2, 0, 2)
    w = np.array([0.7, 0.7, -0.3, -0.3, 0.2, 0.2])  # cols equal, biases equal
    params = ParameterVector(w)
    data = Dataset(np.array([[1.0, 2.0], [1.0, 2.0]]), np.array([0, 1]), 2)
    l2 = 0.25
    _, grad = loss_and_gradient(params, arch, data, l2=l2)
    mask = weight_mask(arch)
    assert np.array_equal(grad.values[mask], l2 * w[mask])
    assert np.array_equal(grad.values[~mask], np.zeros(2))


def test_empty_batch_rejected():
    with pytest.raises(ValueError, match="empty"):
        loss_and_gradient(
            init_params(LOGISTIC, "zeros"),
            LOGISTIC,
            Dataset(np.zeros((0, 4)), np.zeros(0, dtype=int), 3),
        )


@pytest.mark.parametrize("arch", [LOGISTIC, MLP])
def test_gradient_matches_central_differences(arch):
    params = init_params(arch, "seeded_uniform", seed=7)
    rng = np.random.default_rng(7)
    data = Dataset(rng.normal(size=(8, 4)), rng.integers(0, 3, size=8), 3)
    _, grad = loss_and_gradient(params, arch, data, l2=0.01)
    fd = finite_difference_gradient(params, arch, data, eps=1e-5, l2=0.01)
    denom = max(1.0, float(np.max(np.abs(fd.values))))
    rel = float(np.max(np.abs(grad.values - fd.values))) / denom
    assert rel <= 1e-5


def test_central_difference_quadratic():
    fd = central_difference(lambda w: float(w[0] ** 2), np.array([3.0]), eps=1e-4)
    assert abs(fd[0] - 6.0) <= 1e-8


def test_central_difference_zero_eps_rejected():
    with pytest.raises(ValueError):
        central_difference(lambda w: 0.0, np.array([1.0]), eps=0.0)


# ---------------------------------------------------------------------------
# local_train
# ---------------------------------------------------------------------------


def test_single_sample_full_batch_is_one_sgd_step():
    arch = ArchDescriptor("logistic", 2, 0, 2)
    params = init_params(arch, "seeded_uniform", seed=1)
    data = Dataset(np.array([[0.5, -1.0]]), np.array([1]), 2)
    hp = Hyperparameters(learning_rate=0.3, epochs=1, batch_size=1, l2=0.0, seed=0)
    out = local_train(params, arch, data, hp)
    _, grad = loss_and_gradient(params, arch, data)
    assert np.array_equal(out.values, params.values - 0.3 * grad.values)


def test_zero_epochs_rejected_at_construction():
    with pytest.raises(ValueError):
        Hyperparameters(learning_rate=0.1, epochs=0, batch_size=1, l2=0.0, seed=0)


def test_zero_learning_rate_is_identity():
    data = _blob_data(20, seed=2)
    arch = ArchDescriptor("logistic", 4, 0, 2)
    params = init_params(arch, "seeded_uniform", seed=3)
    hp = Hyperparameters(learning_rate=0.0, epochs=1, batch_size=5, l2=0.0, seed=4)
    out = local_train(params, arch, data, hp)
    assert np.array_equal(out.values, params.values)
    # the trained vector is its own read-only copy, as a checked one would be
    assert not np.shares_memory(out.values, params.values)
    assert out.values.dtype == np.float64 and not out.values.flags.writeable


def test_separable_blob_reaches_95_percent():
    data = _blob_data(200, seed=3)
    arch = ArchDescriptor("logistic", 4, 0, 2)

    # oracle: independent full-batch gradient descent on the same data
    w = np.zeros((4, 2))
    b = np.zeros(2)
    y1h = np.eye(2)[data.labels]
    for _ in range(200):
        logits = data.features @ w + b
        p = np.exp(logits - logits.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        g = (p - y1h) / len(data)
        w -= 0.5 * (data.features.T @ g)
        b -= 0.5 * g.sum(axis=0)
    oracle_acc = float(np.mean(np.argmax(data.features @ w + b, axis=1) == data.labels))
    assert oracle_acc >= 0.95

    hp = Hyperparameters(learning_rate=0.5, epochs=20, batch_size=20, l2=0.0, seed=5)
    trained = local_train(init_params(arch, "zeros"), arch, data, hp)
    report = evaluate(trained, arch, data)
    assert report.accuracy >= 0.95


def test_local_train_bit_deterministic():
    data = _blob_data(60, seed=8, num_classes=3)
    params = init_params(MLP, "seeded_uniform", seed=21)
    hp = Hyperparameters(learning_rate=0.1, epochs=3, batch_size=16, l2=0.001, seed=6)
    a = local_train(params, MLP, data, hp)
    b = local_train(params, MLP, data, hp)
    assert np.array_equal(a.values, b.values)


def test_batch_size_larger_than_shard_rejected():
    data = _blob_data(5, seed=1)
    hp = Hyperparameters(learning_rate=0.1, epochs=1, batch_size=6, l2=0.0, seed=0)
    arch = ArchDescriptor("logistic", 4, 0, 2)
    with pytest.raises(ValueError, match="batch_size"):
        local_train(init_params(arch, "zeros"), arch, data, hp)


@st.composite
def _shard_and_batch(draw):
    """(shard size, batch size): batches of 1, one batch of the whole shard,
    or batches that leave a short trailing batch."""
    kind = draw(st.sampled_from(["single", "whole", "trailing"]))
    if kind == "trailing":
        batch = draw(st.integers(2, 8))
        return batch * draw(st.integers(1, 3)) + draw(st.integers(1, batch - 1)), batch
    n = draw(st.integers(1, 24))
    return n, 1 if kind == "single" else n


@pytest.mark.parametrize("l2", [0.0, 0.01])
@pytest.mark.parametrize("arch", [LOGISTIC, MLP])
@settings(max_examples=25, deadline=None, derandomize=True)
@given(shape=_shard_and_batch(), epochs=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_local_train_equals_reference_sgd_bit_for_bit(arch, l2, shape, epochs, seed):
    # local_train writes each product into a view of one reused buffer
    # through out=; the reference makes fresh arrays. They must agree bit for bit.
    n, batch_size = shape
    data = _blob_data(n, seed=seed, num_classes=3)
    params = init_params(arch, "seeded_uniform", seed=seed + 1)
    hp = Hyperparameters(learning_rate=0.3, epochs=epochs, batch_size=batch_size, l2=l2, seed=seed)
    trained = local_train(params, arch, data, hp)
    assert np.array_equal(trained.values, reference_sgd(params, arch, data, hp))


@pytest.mark.parametrize(
    "params, data",
    [
        (init_params(MLP, "zeros"), _blob_data(12, seed=1, input_dim=3, num_classes=3)),
        (init_params(MLP, "zeros"), _blob_data(12, seed=1, input_dim=4, num_classes=2)),
        (ParameterVector(np.zeros(MLP.parameter_count - 1)), _blob_data(12, seed=1, num_classes=3)),
    ],
    ids=["feature-width", "num-classes", "parameter-count"],
)
def test_local_train_shape_mismatch_is_a_value_error_not_divergence(params, data):
    hp = Hyperparameters(learning_rate=0.1, epochs=1, batch_size=4, l2=0.0, seed=0)
    with pytest.raises(ValueError):
        local_train(params, MLP, data, hp)


def test_divergence_aborts_loudly():
    # absurd learning rate on steep data blows the loss up
    rng = np.random.default_rng(0)
    data = Dataset(rng.normal(0, 50, size=(16, 4)), rng.integers(0, 2, size=16), 2)
    arch = ArchDescriptor("logistic", 4, 0, 2)
    hp = Hyperparameters(learning_rate=1e307, epochs=50, batch_size=4, l2=0.0, seed=1)
    with pytest.raises(DivergenceError, match="epoch"):
        local_train(init_params(arch, "seeded_uniform", seed=2), arch, data, hp)


def _divergence_case(arch, scale, params=None, **hp):
    rng = np.random.default_rng(4)
    data = Dataset(rng.normal(0.0, scale, size=(12, 4)), rng.integers(0, 3, size=12), 3)
    if params is None:
        params = init_params(arch, "seeded_uniform", seed=5)
    return params, arch, data, Hyperparameters(epochs=3, batch_size=4, seed=6, **hp)


@pytest.mark.parametrize(
    "case, message",
    [
        # the update after batch 1 makes the logits overflow, and with them
        # the probabilities that batch 2's gradient is built from
        (
            _divergence_case(LOGISTIC, 10.0, learning_rate=1e307, l2=0.0),
            "non-finite gradient at epoch 1 batch 2",
        ),
        # batch 1 moves the weights to about -1e300: the l2 penalty
        # overflows at batch 2 while its gradient, 0.01 * w, stays finite
        (
            _divergence_case(
                LOGISTIC, 1.0, ParameterVector(np.full(LOGISTIC.parameter_count, 1e152)),
                learning_rate=1e150, l2=0.01,
            ),
            "non-finite loss at epoch 1 batch 2",
        ),
        # a finite gradient times a huge learning rate
        (
            _divergence_case(MLP, 1000.0, learning_rate=1e200, l2=0.0),
            "non-finite parameters at epoch 2 batch 3",
        ),
    ],
    ids=["gradient", "loss", "parameters"],
)
def test_divergence_names_what_went_non_finite_and_where(case, message):
    with pytest.raises(DivergenceError) as err:
        local_train(*case)
    assert str(err.value) == message


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------


def test_evaluate_empty_is_degenerate():
    arch = ArchDescriptor("logistic", 4, 0, 3)
    empty = Dataset(np.zeros((0, 4)), np.zeros(0, dtype=int), 3)
    report = evaluate(init_params(arch, "zeros"), arch, empty)
    assert report == EvalReport(0.0, 0.0, 0, (0, 0, 0), degenerate=True)


def test_evaluate_perfect_separable():
    data = _blob_data(100, seed=12, spread=6.0)
    arch = ArchDescriptor("logistic", 4, 0, 2)
    hp = Hyperparameters(learning_rate=0.5, epochs=30, batch_size=10, l2=0.0, seed=0)
    trained = local_train(init_params(arch, "zeros"), arch, data, hp)
    report = evaluate(trained, arch, data)
    assert report.accuracy == 1.0


@pytest.mark.parametrize("arch", [LOGISTIC, MLP])
def test_evaluate_matches_independent_recomputation(arch):
    params = init_params(arch, "seeded_uniform", seed=13)
    rng = np.random.default_rng(13)
    data = Dataset(rng.normal(size=(40, 4)), rng.integers(0, 3, size=40), 3)
    report = evaluate(params, arch, data)
    oracle_loss, oracle_acc = _oracle_eval(params.values, arch, data)
    assert abs(report.loss - oracle_loss) <= 1e-12
    assert report.accuracy == oracle_acc
    assert sum(report.per_class_counts) == report.n_samples
    assert abs(report.accuracy * report.n_samples - round(report.accuracy * report.n_samples)) <= 1e-9


def _reference_logits(params, arch, features):
    layers = unpack(params, arch)
    if arch.kind == "logistic":
        w, b = layers[0]
        return features @ w + b
    (w1, b1), (w2, b2) = layers
    return np.tanh(features @ w1 + b1) @ w2 + b2


@pytest.mark.parametrize("arch", [LOGISTIC, MLP])
def test_evaluate_equals_two_pass_reference_bit_for_bit(arch):
    params = init_params(arch, "seeded_uniform", seed=41)
    rng = np.random.default_rng(41)
    data = Dataset(rng.normal(0, 3, size=(57, 4)), rng.integers(0, 3, size=57), 3)
    report = evaluate(params, arch, data)
    loss = seq_sum(_per_sample_ce(params, arch, data).tolist()) / len(data)
    predicted = np.argmax(_reference_logits(params, arch, data.features), axis=1)
    hits = int(np.count_nonzero(predicted == data.labels))
    counts = tuple(int(c) for c in np.bincount(data.labels, minlength=3))
    assert report == EvalReport(loss, hits / len(data), len(data), counts)


def test_argmax_ties_break_to_lowest_class():
    arch = ArchDescriptor("logistic", 2, 0, 3)
    params = init_params(arch, "zeros")  # every class ties
    data = Dataset(np.array([[1.0, 1.0]]), np.array([0]), 3)
    assert evaluate(params, arch, data).accuracy == 1.0
    data2 = Dataset(np.array([[1.0, 1.0]]), np.array([2]), 3)
    assert evaluate(params, arch, data2).accuracy == 0.0


def _evaluated_accuracies(cases, arch):
    return [evaluate(params, arch, data).accuracy for params, data in cases]


def _layer_cases(cases, arch):
    return [(unpack(params, arch), data) for params, data in cases]


@pytest.mark.parametrize("arch", [LOGISTIC, MLP])
def test_accuracies_equal_evaluate(arch):
    rng = np.random.default_rng(17)
    cases = []
    for seed in range(6):
        n = int(rng.integers(1, 30))
        data = Dataset(rng.normal(0, 2, size=(n, 4)), rng.integers(0, 3, size=n), 3)
        cases.append((init_params(arch, "seeded_uniform", seed=seed % 2), data))
    # an empty test set scores 0.0, as the degenerate report does
    cases.append((cases[0][0], Dataset(np.zeros((0, 4)), np.zeros(0, dtype=int), 3)))
    got = accuracies(_layer_cases(cases, arch))
    assert got == _evaluated_accuracies(cases, arch)
    assert got[-1] == 0.0


@pytest.mark.parametrize("arch", [LOGISTIC, MLP])
def test_stacked_accuracies_equal_evaluate(arch):
    # views shared as the deploy step shares them: two models interleaved
    # over the targets, mixed test-set sizes with empty ones among them, a
    # (model, size) group past one stack, and a set past a stack on its own
    rng = np.random.default_rng(23)
    models = [init_params(arch, "seeded_uniform", seed=s) for s in (0, 1)]
    views = [unpack(m, arch) for m in models]
    sizes = [8] * 80 + [0, 0, 1, 3, 3, 5, STACK_SAMPLES + 44]
    sizes = rng.permutation(sizes).tolist()
    cases = [
        (models[i % 2], Dataset(rng.normal(0, 2, size=(n, 4)), rng.integers(0, 3, size=n), 3))
        for i, n in enumerate(sizes)
    ]
    largest = max(sum(8 for i, n in enumerate(sizes) if n == 8 and i % 2 == m) for m in (0, 1))
    assert largest > STACK_SAMPLES
    got = accuracies([(views[i % 2], data) for i, (_, data) in enumerate(cases)])
    assert got == _evaluated_accuracies(cases, arch)


WIDE_ARCHES = [ArchDescriptor("logistic", 32, 0, 10), ArchDescriptor("mlp", 32, 64, 10)]


@pytest.mark.parametrize("arch", WIDE_ARCHES, ids=["logistic", "mlp"])
@pytest.mark.parametrize("n", [1, 2, 8, 40])
def test_stacked_logits_equal_per_case_logits(arch, n):
    # accuracies relies on a matmul over a (k, n, d) stack running one product
    # per case with the case's own shape; a product over the k * n rows
    # concatenated differs from the per-case ones in the low bits
    rng = np.random.default_rng(n)
    layers = unpack(ParameterVector(rng.normal(size=arch.parameter_count)), arch)
    stack = rng.normal(0, 2, size=(50, n, arch.input_dim))
    stacked, _ = _logits(layers, stack)
    for x, got in zip(stack, stacked):
        want, _ = _logits(layers, x)
        assert np.array_equal(got, want)


def test_accuracies_break_argmax_ties_to_lowest_class():
    arch = ArchDescriptor("logistic", 2, 0, 3)
    params = init_params(arch, "zeros")  # every class ties
    cases = [
        (params, Dataset(np.array([[1.0, 1.0]]), np.array([label]), 3)) for label in (0, 1, 2)
    ]
    got = accuracies(_layer_cases(cases, arch))
    assert got == _evaluated_accuracies(cases, arch) == [1.0, 0.0, 0.0]


@pytest.mark.parametrize("arch", [LOGISTIC, MLP])
def test_accuracies_of_overflowing_logits_raise_no_warning(arch):
    # finite parameters whose logits overflow to inf and inf - inf = nan
    params = ParameterVector(np.full(arch.parameter_count, 1e308))
    params_neg = ParameterVector(np.where(np.arange(arch.parameter_count) % 2, 1e308, -1e308))
    rng = np.random.default_rng(3)
    data = Dataset(rng.normal(0, 5, size=(12, 4)), rng.integers(0, 3, size=12), 3)
    cases = [(params, data), (params_neg, data)]
    for overflowing, _ in cases:
        assert not math.isfinite(evaluate(overflowing, arch, data).loss)
    assert accuracies(_layer_cases(cases, arch)) == _evaluated_accuracies(cases, arch)


# ---------------------------------------------------------------------------
# parameter plumbing
# ---------------------------------------------------------------------------


def test_parameter_vector_rejects_non_finite():
    with pytest.raises(ValueError):
        ParameterVector(np.array([1.0, np.inf]))


def test_parameter_vector_is_read_only():
    pv = ParameterVector(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        pv.values[0] = 9.0


def test_arch_validation():
    with pytest.raises(ValueError):
        ArchDescriptor("logistic", 4, 2, 3)  # logistic must have hidden_dim 0
    with pytest.raises(ValueError):
        ArchDescriptor("mlp", 4, 0, 3)
    with pytest.raises(ValueError):
        ArchDescriptor("tree", 4, 0, 3)
    assert LOGISTIC.parameter_count == 4 * 3 + 3
    assert MLP.parameter_count == 4 * 5 + 5 + 5 * 3 + 3
    assert MLP.shared_parameter_count == 4 * 5 + 5


def test_checkpoint_round_trip(tmp_path):
    params = init_params(MLP, "seeded_uniform", seed=1234)
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, params, MLP)
    loaded, arch = load_checkpoint(path)
    assert arch == MLP
    assert np.array_equal(loaded.values, params.values)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 15),
    k=st.integers(2, 4),
)
def test_probability_rows_always_sum_to_one(seed, n, k):
    arch = ArchDescriptor("logistic", 3, 0, k)
    params = init_params(arch, "seeded_uniform", seed=seed)
    rows = np.random.default_rng(seed).normal(0, 4, size=(n, 3))
    probs = _probs(params, arch, rows)
    assert np.all(np.abs(probs.sum(axis=1) - 1.0) <= 1e-12)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_local_train_pure(seed):
    rng = np.random.default_rng(seed)
    data = Dataset(rng.normal(size=(12, 4)), rng.integers(0, 2, size=12), 2)
    arch = ArchDescriptor("logistic", 4, 0, 2)
    hp = Hyperparameters(learning_rate=0.2, epochs=2, batch_size=4, l2=0.01, seed=seed)
    start = init_params(arch, "seeded_uniform", seed=seed)
    assert np.array_equal(
        local_train(start, arch, data, hp).values,
        local_train(start, arch, data, hp).values,
    )
