"""GNB, MLP, metrics, and stratified cross-validation."""

import warnings

import numpy as np
import pytest

from driveguard.errors import ParameterError, ValidationError
from driveguard.classify import (
    CLASSIFIERS,
    DivergenceError,
    FIVE_CLASS,
    MlpConfig,
    StratificationError,
    TWO_CLASS,
    auc,
    absent_classes,
    init_mlp_weights,
    kfold_evaluate,
    make_fold_plan,
    mlp_sample_gradients,
    multiclass_auc,
    normalized_confusion,
    predict_gnb,
    predict_gnb_many,
    predict_mlp,
    predict_mlp_many,
    report_from_confusion,
    train_gnb,
    train_mlp,
    train_mlp_stack,
    vectors_to_dataset,
)
from driveguard.model import FeatureVector, TaskLabel


def vec(values, label):
    return FeatureVector(values=tuple(values),
                         schema=tuple(f"f{i}" for i in range(len(values))),
                         label=label)


class TestVectorsToDataset:
    def test_five_class_mapping(self):
        vectors = [vec([1.0, 2.0], t) for t in TaskLabel]
        X, y, classes = vectors_to_dataset(vectors, problem="five")
        assert classes == FIVE_CLASS == ("Base", "Read", "Text", "Call", "Snapshot")
        assert list(y) == [0, 1, 2, 3, 4]
        assert X.shape == (5, 2)

    def test_two_class_mapping(self):
        vectors = [vec([0.0], t) for t in TaskLabel]
        X, y, classes = vectors_to_dataset(vectors, problem="two")
        assert classes == TWO_CLASS == ("Base", "Distracted")
        assert list(y) == [0, 1, 1, 1, 1]

    def test_schema_mismatch_rejected(self):
        a = vec([1.0], TaskLabel.BASE)
        b = FeatureVector(values=(1.0,), schema=("other",), label=TaskLabel.READ)
        with pytest.raises(ValidationError):
            vectors_to_dataset([a, b])

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            vectors_to_dataset([])

    def test_bad_problem_rejected(self):
        with pytest.raises(ParameterError):
            vectors_to_dataset([vec([1.0], TaskLabel.BASE)], problem="three")


class TestGnb:
    def test_hand_computed_posterior(self):
        X = np.array([[0.0], [2.0], [4.0], [8.0]])
        y = np.array([0, 0, 1, 1])
        model = train_gnb(X, y, ("lo", "hi"))
        assert model.priors.tolist() == [0.5, 0.5]
        assert model.means.ravel().tolist() == [1.0, 6.0]
        assert model.variances.ravel().tolist() == [1.0, 4.0]

        def dens(x, mu, v):
            return np.exp(-0.5 * (x - mu) ** 2 / v) / np.sqrt(2 * np.pi * v)

        j = np.array([0.5 * dens(2.0, 1.0, 1.0), 0.5 * dens(2.0, 6.0, 4.0)])
        pred, log_post = predict_gnb(model, [2.0])
        assert pred == 0
        assert np.exp(log_post) == pytest.approx(j / j.sum(), rel=1e-12)

    def test_unequal_priors(self):
        X = np.array([[0.0], [1.0], [2.0], [10.0], [12.0]])
        y = np.array([0, 0, 0, 1, 1])
        model = train_gnb(X, y, ("a", "b"))
        assert model.priors.tolist() == [0.6, 0.4]

    def test_variance_floor_on_constant_feature(self):
        X = np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 11.0], [5.0, 12.0]])
        y = np.array([0, 0, 1, 1])
        model = train_gnb(X, y, ("a", "b"))
        expected_floor = 1e-9 * (X.var(axis=0) + 1e-12)
        assert np.all(model.variances > 0)
        assert model.variances[0, 0] == pytest.approx(expected_floor[0], rel=1e-12)
        # constant feature cancels: prediction driven by the informative one
        assert predict_gnb(model, [5.0, 1.5])[0] == 0
        assert predict_gnb(model, [5.0, 11.5])[0] == 1

    def test_exact_tie_prefers_first_class(self):
        X = np.array([[0.0], [2.0], [0.0], [2.0]])
        y = np.array([0, 0, 1, 1])
        model = train_gnb(X, y, ("first", "second"))
        pred, log_post = predict_gnb(model, [1.0])
        assert log_post[0] == log_post[1]
        assert pred == 0

    def test_needs_two_instances_per_class(self):
        X = np.array([[0.0], [1.0], [2.0]])
        with pytest.raises(ValidationError):
            train_gnb(X, np.array([0, 0, 1]), ("a", "b"))

    def test_needs_two_classes(self):
        X = np.array([[0.0], [1.0]])
        with pytest.raises(ValidationError):
            train_gnb(X, np.array([0, 0]), ("a", "b"))

    def test_label_outside_class_list(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        with pytest.raises(ValidationError):
            train_gnb(X, np.array([0, 0, 2, 2]), ("a", "b"))

    def test_classes_missing_from_training(self):
        rng = np.random.default_rng(4)
        y = np.repeat([0, 2, 4], 6)
        X = rng.normal(size=(18, 3)) + 3.0 * y[:, np.newaxis]
        model = train_gnb(X, y, FIVE_CLASS)
        preds, log_post = predict_gnb_many(model, rng.normal(0, 6, size=(200, 3)))
        assert np.all(log_post[:, [1, 3]] == -np.inf)
        assert np.isfinite(log_post[:, [0, 2, 4]]).all()
        assert set(preds.tolist()) <= {0, 2, 4}

    def test_batch_matches_single(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(20, 3))
        y = np.array([0] * 10 + [1] * 10)
        model = train_gnb(X, y, ("a", "b"))
        preds, log_post = predict_gnb_many(model, X)
        for i in range(20):
            p, lp = predict_gnb(model, X[i])
            assert p == preds[i]
            assert np.allclose(lp, log_post[i])

    def test_feature_count_checked(self):
        X = np.random.default_rng(0).normal(size=(8, 3))
        model = train_gnb(X, np.array([0, 1] * 4), ("a", "b"))
        with pytest.raises(ValidationError, match="input has 2 features, model expects 3"):
            predict_gnb_many(model, X[:, :2])


@pytest.mark.parametrize("train", [train_gnb, train_mlp])
@pytest.mark.parametrize("X, y", [
    (np.zeros(4), np.array([0, 0, 1, 1])),                  # X not 2-D
    (np.zeros((4, 1)), np.array([0, 0, 1])),                # a row without label
    (np.zeros((4, 1)), np.array([[0, 0], [1, 1]])),         # labels not 1-D
    (np.zeros((0, 1)), np.array([], dtype=int)),            # empty
    (np.zeros((4, 1)), np.array([0, 0, -1, 1])),            # label below 0
    (np.zeros((4, 1)), np.array([0, 0, 2, 2])),             # label past classes
])
def test_training_set_checked(train, X, y):
    with pytest.raises(ValidationError):
        train(X, y, ("a", "b"))


def sample_gradients_1d(w1, b1, w2, b2, x, target):
    """Reference loss and gradients for one unbatched sample."""
    h = 1.0 / (1.0 + np.exp(-(x @ w1 + b1)))
    o = 1.0 / (1.0 + np.exp(-(h @ w2 + b2)))
    err = o - target
    loss = 0.5 * float(err @ err)
    delta_o = err * o * (1.0 - o)
    gw2 = np.outer(h, delta_o)
    gb2 = delta_o
    delta_h = (w2 @ delta_o) * h * (1.0 - h)
    gw1 = np.outer(x, delta_h)
    gb1 = delta_h
    return loss, gw1, gb1, gw2, gb2


def per_array_momentum_fit(X, y, n_classes, config):
    """Reference online fit of one training set: one momentum update per
    weight array, from the unbatched reference gradients."""
    n, f = X.shape
    hidden = config.hidden if config.hidden is not None else round((f + n_classes) / 2)
    scale = X.std(axis=0)
    Xs = (X - X.mean(axis=0)) / np.where(scale < 1e-12, 1.0, scale)
    targets = np.eye(n_classes)[y]
    weights = init_mlp_weights(f, hidden, n_classes, config.seed)
    velocities = [np.zeros_like(w) for w in weights]
    for _ in range(config.epochs):
        for i in range(n):
            grads = sample_gradients_1d(*weights, Xs[i], targets[i])[1:]
            for w, v, g in zip(weights, velocities, grads):
                v *= config.momentum
                v -= config.learning_rate * g
                w += v
    return weights


def fold_training_sets(X, y, fold_sizes):
    """(X, y) without each fold, for consecutive folds of the given sizes."""
    ends = np.cumsum(fold_sizes)
    sets = []
    for start, end in zip(ends - fold_sizes, ends):
        keep = np.ones(y.size, dtype=bool)
        keep[start:end] = False
        sets.append((X[keep], y[keep]))
    return sets


def fold_by_fold_error(X, y, classes, k, seed, config):
    """The message of the first DivergenceError that training each fold
    alone raises, in fold order, or None."""
    for test_idx in make_fold_plan(y, k, seed).folds:
        keep = np.ones(y.size, dtype=bool)
        keep[list(test_idx)] = False
        try:
            train_mlp(X[keep], y[keep], classes, config)
        except DivergenceError as exc:
            return str(exc)
    return None


def lockstep_loss_and_gradients(w1, b1, w2, b2, x, target):
    """Reference loss and gradients over leading batch axes, vectors
    (..., n): the form the loss-tracking lockstep loop stepped with."""
    def rows_times(v, w):
        return np.matmul(v[..., None, :], w)[..., 0, :]

    h = 1.0 / (1.0 + np.exp(-(rows_times(x, w1) + b1)))
    o = 1.0 / (1.0 + np.exp(-(rows_times(h, w2) + b2)))
    err = o - target
    loss = 0.5 * np.add.reduce(err * err, axis=-1)
    delta_o = err * o * (1.0 - o)
    gw2 = h[..., :, None] * delta_o[..., None, :]
    delta_h = np.matmul(w2, delta_o[..., None])[..., 0] * h * (1.0 - h)
    gw1 = x[..., :, None] * delta_h[..., None, :]
    return loss, gw1, delta_h, gw2, delta_o


def loss_tracking_lockstep_error(training_sets, n_classes, config):
    """Reference divergence check: every set steps in lockstep and its
    loss is summed per epoch. Returns the DivergenceError message of the
    lowest-index set whose epoch loss or final weights are non-finite (or
    None), and whether that set's weights first turned non-finite at the
    last step of an epoch."""
    k = len(training_sets)
    f = training_sets[0][0].shape[1]
    hidden = config.hidden if config.hidden is not None else round((f + n_classes) / 2)
    sizes = np.array([y.size for _, y in training_sets])
    Xs = np.zeros((k, sizes.max(), f))
    targets = np.zeros((k, sizes.max(), n_classes))
    for j, (X, y) in enumerate(training_sets):
        scale = X.std(axis=0)
        Xs[j, :y.size] = (X - X.mean(axis=0)) / np.where(scale < 1e-12, 1.0, scale)
        targets[j, np.arange(y.size), y] = 1.0
    init = init_mlp_weights(f, hidden, n_classes, config.seed)
    theta = np.tile(np.concatenate([a.ravel() for a in init]), (k, 1))
    velocity = np.zeros_like(theta)
    ends = np.cumsum([a.size for a in init])[:-1]
    diverged_in = np.zeros(k, dtype=int)
    turned_at_epoch_end = [None] * k
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            epoch_loss = np.zeros(k)
            for i in range(sizes.max()):
                rows = np.flatnonzero(sizes > i)
                th, vel = theta[rows], velocity[rows]
                w1, b1, w2, b2 = (
                    a.reshape(len(rows), *w.shape)
                    for a, w in zip(np.split(th, ends, axis=1), init))
                loss, *grads = lockstep_loss_and_gradients(
                    w1, b1, w2, b2, Xs[rows, i], targets[rows, i])
                vel *= config.momentum
                vel -= config.learning_rate * np.concatenate(
                    [g.reshape(len(rows), -1) for g in grads], axis=1)
                th += vel
                theta[rows], velocity[rows] = th, vel
                epoch_loss[rows] += loss
                for j, row in zip(rows, th):
                    if turned_at_epoch_end[j] is None and not np.isfinite(row).all():
                        turned_at_epoch_end[j] = i == sizes[j] - 1
            diverged_in[(diverged_in == 0) & ~np.isfinite(epoch_loss)] = epoch + 1
    for j in range(k):
        if diverged_in[j]:
            return (f"training loss became non-finite in epoch {diverged_in[j]}; "
                    "try a smaller learning_rate", turned_at_epoch_end[j])
        if not np.isfinite(theta[j]).all():
            return ("weights became non-finite; try a smaller learning_rate",
                    turned_at_epoch_end[j])
    return None, None


class TestMlp:
    def test_gradients_match_finite_differences(self):
        def loss(*args):
            err = mlp_sample_gradients(*args)[0]
            return 0.5 * float(np.sum(err * err))

        eps = 1e-5
        worst = 0.0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            f, h, c = rng.integers(2, 8), rng.integers(2, 6), rng.integers(2, 5)
            w1, b1, w2, b2 = init_mlp_weights(f, h, c, seed)
            b1, b2 = b1[np.newaxis], b2[np.newaxis]    # vectors are rows
            x = rng.normal(size=(1, f))
            t = np.zeros((1, c))
            t[0, rng.integers(0, c)] = 1.0
            _, gw1, gb1, gw2, gb2 = mlp_sample_gradients(w1, b1, w2, b2, x, t)
            for arr, grad in ((w1, gw1), (b1, gb1), (w2, gw2), (b2, gb2)):
                it = np.nditer(arr, flags=["multi_index"])
                for _ in it:
                    ix = it.multi_index
                    orig = arr[ix]
                    arr[ix] = orig + eps
                    lp = loss(w1, b1, w2, b2, x, t)
                    arr[ix] = orig - eps
                    lm = loss(w1, b1, w2, b2, x, t)
                    arr[ix] = orig
                    num = (lp - lm) / (2 * eps)
                    denom = max(abs(num), abs(grad[ix]), 1e-8)
                    worst = max(worst, abs(num - grad[ix]) / denom)
        assert worst < 1e-4

    def test_learns_xor(self):
        X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        y = np.array([0, 1, 1, 0])
        model = train_mlp(X, y, ("even", "odd"),
                          MlpConfig(hidden=4, epochs=2000, seed=0))
        assert [predict_mlp(model, x)[0] for x in X] == [0, 1, 1, 0]

    def test_default_hidden_size(self):
        rng = np.random.default_rng(1)
        X = np.vstack([rng.normal(0, 1, (6, 7)), rng.normal(5, 1, (6, 7))])
        y = np.array([0] * 6 + [1] * 6)
        model = train_mlp(X, y, ("a", "b"), MlpConfig(epochs=5))
        assert model.layer_sizes == (7, round((7 + 2) / 2), 2)

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(12, 3))
        y = np.array([0, 1] * 6)
        a = train_mlp(X, y, ("a", "b"), MlpConfig(epochs=20, seed=5))
        b = train_mlp(X, y, ("a", "b"), MlpConfig(epochs=20, seed=5))
        c = train_mlp(X, y, ("a", "b"), MlpConfig(epochs=20, seed=6))
        assert np.array_equal(a.w1, b.w1) and np.array_equal(a.w2, b.w2)
        assert not np.array_equal(a.w1, c.w1)

    @pytest.mark.parametrize("config", [
        MlpConfig(epochs=5),
        MlpConfig(hidden=3, momentum=0.9, epochs=5),
    ])
    def test_matches_per_array_momentum_loop(self, config):
        rng = np.random.default_rng(7)
        y = np.repeat(np.arange(5), 6)
        X = rng.normal(size=(30, 5)) + y[:, np.newaxis]
        expected = per_array_momentum_fit(X, y, 5, config)
        model = train_mlp(X, y, FIVE_CLASS, config)
        for got, want in zip((model.w1, model.b1, model.w2, model.b2), expected):
            assert np.array_equal(got, want)

    def test_batched_gradients_equal_unbatched(self):
        rng = np.random.default_rng(8)
        k, f, h, c = 6, 5, 4, 3
        w1, b1, w2, b2 = (rng.normal(size=(k, *a.shape))
                          for a in init_mlp_weights(f, h, c, 0))
        x = rng.normal(size=(k, f))
        t = np.eye(c)[rng.integers(0, c, size=k)]
        b1_rows, b2_rows, x_rows, t_rows = (a[:, np.newaxis] for a in (b1, b2, x, t))
        err, *grads = mlp_sample_gradients(w1, b1_rows, w2, b2_rows, x_rows, t_rows)
        assert err.shape == (k, 1, c)
        for j in range(k):
            want = sample_gradients_1d(w1[j], b1[j], w2[j], b2[j], x[j], t[j])
            assert 0.5 * float(err[j, 0] @ err[j, 0]) == pytest.approx(want[0], rel=1e-15)
            for got, ref in zip(grads, want[1:]):
                assert np.array_equal(got[j].reshape(ref.shape), ref)

    @pytest.mark.parametrize("n_classes", [2, 5])
    @pytest.mark.parametrize("momentum", [0.0, 0.9])
    @pytest.mark.parametrize("epochs", [0, 1, 5])
    def test_stack_matches_per_set_oracle(self, n_classes, momentum, epochs):
        rng = np.random.default_rng(100 * n_classes + 10 * epochs + int(10 * momentum))
        spreads = set()
        for trial in range(4):
            k = int(rng.integers(2, 11))
            if trial == 0:   # folds that differ by more than one row
                fold_sizes = rng.integers(2, 5, size=k)
                fold_sizes[-1] = fold_sizes.max() + 2
            else:            # a stratified-like plan: within one row of even
                n = int(rng.integers(3 * k, 6 * k))
                fold_sizes = np.full(k, n // k) + (np.arange(k) < n % k)
            y = rng.integers(0, n_classes, size=int(fold_sizes.sum()))
            X = rng.normal(size=(y.size, 4)) + y[:, np.newaxis]
            hidden = 3 if trial == 1 else None
            config = MlpConfig(hidden=hidden, momentum=momentum, epochs=epochs,
                               seed=trial)
            sets = fold_training_sets(X, y, fold_sizes)
            sizes = [len(s[1]) for s in sets]
            spreads.add(max(sizes) - min(sizes))
            classes = FIVE_CLASS if n_classes == 5 else TWO_CLASS
            models = train_mlp_stack(sets, classes, config)
            assert len(models) == k
            for (X_tr, y_tr), model in zip(sets, models):
                want = per_array_momentum_fit(X_tr, y_tr, n_classes, config)
                got = (model.w1, model.b1, model.w2, model.b2)
                assert all(np.array_equal(g, w) for g, w in zip(got, want))
                if hidden is not None:
                    assert model.layer_sizes[1] == hidden
        assert max(spreads) > 1 and min(spreads) <= 1

    def test_stack_rejects_mismatched_sets(self):
        X = np.zeros((4, 2))
        y = np.array([0, 1, 0, 1])
        with pytest.raises(ValidationError):
            train_mlp_stack([], ("a", "b"))
        with pytest.raises(ValidationError):
            train_mlp_stack([(X, y), (X[:, :1], y)], ("a", "b"))

    def test_non_finite_input_raises_divergence(self):
        X = np.array([[0.0], [1.0], [np.inf], [2.0]])
        y = np.array([0, 1, 0, 1])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(DivergenceError):
                train_mlp(X, y, ("a", "b"), MlpConfig(epochs=3))

    def test_divergence_message_equals_the_loss_tracking_oracle(self):
        # the stack tracks no loss; a failing set is diagnosed after the
        # fit. Weights that turn non-finite at an epoch's last step give a
        # non-finite loss only in a later epoch, if ever
        rng = np.random.default_rng(31)
        seen = set()
        for trial in range(200):
            k = int(rng.integers(2, 5))
            fold_sizes = rng.integers(2, 6, size=k)   # unequal folds
            y = np.arange(fold_sizes.sum()) % 2
            X = rng.normal(size=(y.size, 3)) + y[:, np.newaxis]
            if trial % 4 == 0:
                X[rng.integers(y.size), rng.integers(3)] = rng.choice(
                    [np.inf, -np.inf, np.nan])
            config = MlpConfig(
                learning_rate=float(rng.choice([0.3, 1e150, 1e300, 1e308])),
                momentum=float(rng.choice([0.0, 0.9, 0.99])),
                epochs=int(rng.integers(1, 8)), seed=trial)
            sets = fold_training_sets(X, y, fold_sizes)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                want, at_epoch_end = loss_tracking_lockstep_error(sets, 2, config)
                try:
                    train_mlp_stack(sets, TWO_CLASS, config)
                    got = None
                except DivergenceError as exc:
                    got = str(exc)
            assert got == want
            if want is not None:
                seen.add((want.split(" ")[0], bool(at_epoch_end)))
        assert seen == {(kind, at_epoch_end) for kind in ("training", "weights")
                        for at_epoch_end in (False, True)}

    def test_saturated_units_warn_nothing(self):
        # exp overflows in a saturated sigmoid, whose limit 0 is correct
        rng = np.random.default_rng(3)
        X = np.vstack([rng.normal(0, 1, (6, 4)), rng.normal(5, 1, (6, 4))])
        y = np.array([0] * 6 + [1] * 6)
        config = MlpConfig(learning_rate=1e6, momentum=0.99999, epochs=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = train_mlp(X, y, ("a", "b"), config)
            predict_mlp_many(model, 1e3 * X)

    def test_config_validation(self):
        for rate in (0.0, np.nan, np.inf):
            with pytest.raises(ParameterError):
                MlpConfig(learning_rate=rate)
        with pytest.raises(ParameterError):
            MlpConfig(momentum=1.0)
        with pytest.raises(ParameterError):
            MlpConfig(epochs=-1)
        with pytest.raises(ParameterError):
            MlpConfig(hidden=0)

    def test_default_config_values(self):
        cfg = MlpConfig()
        assert (cfg.hidden, cfg.learning_rate, cfg.momentum,
                cfg.epochs, cfg.seed) == (None, 0.3, 0.2, 500, 0)

    def test_predict_shape_validation(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(8, 4))
        y = np.array([0, 1] * 4)
        model = train_mlp(X, y, ("a", "b"), MlpConfig(epochs=2))
        with pytest.raises(ValidationError):
            predict_mlp(model, np.zeros(3))
        with pytest.raises(ValidationError):
            predict_mlp_many(model, np.zeros((5, 1)))
        with pytest.raises(ValidationError):
            predict_mlp_many(model, np.zeros((5, 5)))


def brute_force_auc(scores, truth):
    scores = np.asarray(scores, dtype=float)
    truth = np.asarray(truth, dtype=bool)
    pos = scores[truth]
    neg = scores[~truth]
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (pos.size * neg.size)


class TestAuc:
    def test_hand_cases(self):
        assert auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0
        assert auc([0.1, 0.2, 0.8, 0.9], [1, 1, 0, 0]) == 0.0
        assert auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == pytest.approx(0.75)
        assert auc([0.5, 0.5, 0.5, 0.5], [0, 1, 0, 1]) == 0.5

    def test_matches_pair_counting(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(5, 40))
            scores = rng.integers(0, 8, size=n).astype(float)  # many ties
            truth = rng.integers(0, 2, size=n).astype(bool)
            if truth.all() or not truth.any():
                continue
            assert auc(scores, truth) == pytest.approx(
                brute_force_auc(scores, truth), abs=1e-12)

    def test_single_class_rejected(self):
        with pytest.raises(ValidationError):
            auc([0.1, 0.2], [1, 1])

    def test_multiclass_weighted_ovr(self):
        rng = np.random.default_rng(12)
        scores = rng.random(size=(30, 3))
        y = rng.integers(0, 3, size=30)
        expected_num = 0.0
        expected_den = 0.0
        for c in range(3):
            pos = y == c
            n_c = int(pos.sum())
            if n_c in (0, 30):
                continue
            expected_num += n_c * brute_force_auc(scores[:, c], pos)
            expected_den += n_c
        assert multiclass_auc(scores, y, 3) == pytest.approx(
            expected_num / expected_den, abs=1e-12)

    def test_multiclass_skips_absent_class(self):
        scores = np.array([[0.9, 0.1, 0.0], [0.2, 0.8, 0.0],
                           [0.7, 0.3, 0.0], [0.1, 0.9, 0.0]])
        y = np.array([0, 1, 0, 1])
        expected = brute_force_auc(scores[:, 0], y == 0) * 0.5 + \
            brute_force_auc(scores[:, 1], y == 1) * 0.5
        assert multiclass_auc(scores, y, 3) == pytest.approx(expected)

    def test_multiclass_all_one_class_rejected(self):
        with pytest.raises(ValidationError):
            multiclass_auc(np.ones((3, 2)), np.zeros(3, dtype=int), 2)


class TestFoldPlan:
    def test_stratified_counts_within_one(self):
        y = np.array([0] * 9 + [1] * 7)
        plan = make_fold_plan(y, 4, seed=3)
        assert plan.k == 4
        for fold in plan.folds:
            fold = np.array(fold)
            assert abs((y[fold] == 0).sum() - 9 / 4) < 1
            assert abs((y[fold] == 1).sum() - 7 / 4) < 1
        flat = sorted(i for fold in plan.folds for i in fold)
        assert flat == list(range(16))

    def test_deterministic_and_seed_sensitive(self):
        y = np.array([0, 1] * 20)
        assert make_fold_plan(y, 5, seed=1) == make_fold_plan(y, 5, seed=1)
        assert make_fold_plan(y, 5, seed=1) != make_fold_plan(y, 5, seed=2)

    def test_k_too_small(self):
        with pytest.raises(StratificationError):
            make_fold_plan(np.array([0, 1, 0, 1]), 1, seed=0)

    def test_class_smaller_than_k(self):
        y = np.array([0] * 10 + [1] * 3)
        with pytest.raises(StratificationError):
            make_fold_plan(y, 4, seed=0)

    def test_exhaustive_small_case(self):
        # 8 instances, 2 classes of 4, k=2: every fold gets 2 of each
        y = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        for seed in range(10):
            plan = make_fold_plan(y, 2, seed=seed)
            for fold in plan.folds:
                labels = sorted(y[list(fold)])
                assert labels == [0, 0, 1, 1]


class TestEvalReport:
    def test_hand_confusion_metrics(self):
        conf = np.array([[3, 1], [2, 4]])
        report = report_from_confusion(conf, "gnb", ("a", "b"), auc_value=0.9)
        assert report.accuracy == pytest.approx(0.7)
        assert report.accuracy_pct == pytest.approx(70.0)
        assert report.per_class_precision == (pytest.approx(3 / 5), pytest.approx(4 / 5))
        assert report.per_class_recall == (pytest.approx(3 / 4), pytest.approx(4 / 6))
        p = (3 / 5 + 4 / 5) / 2
        r = (3 / 4 + 4 / 6) / 2
        assert report.precision == pytest.approx(p)
        assert report.recall == pytest.approx(r)
        assert report.f_measure == pytest.approx(2 * p * r / (p + r))
        assert report.auc == 0.9

    def test_absent_class_row(self):
        conf = np.array([[5, 0, 0], [1, 4, 0], [0, 0, 0]])
        report = report_from_confusion(conf, "gnb", ("a", "b", "c"), 0.5)
        assert report.absent == (2,)
        assert absent_classes(conf) == (2,)
        norm = normalized_confusion(conf)
        assert np.all(norm[2] == 0.0)
        assert norm[0, 0] == 1.0
        # means skip the absent class
        assert report.recall == pytest.approx((1.0 + 0.8) / 2)

    def test_empty_confusion_rejected(self):
        with pytest.raises(ValidationError):
            report_from_confusion(np.zeros((2, 2)), "gnb", ("a", "b"), 0.5)

    def test_text_column_order(self):
        report = report_from_confusion(np.array([[3, 1], [2, 4]]),
                                       "mlp", ("a", "b"), 0.9)
        lines = report.to_text().splitlines()
        assert lines[0].split() == ["Classifier", "Precision", "Recall",
                                    "Accuracy", "%", "F-Measure", "AUC"]
        assert lines[1].split()[0] == "mlp"
        assert lines[1].split()[3] == "70.00"

    def test_dict_round_trips_json(self):
        report = report_from_confusion(np.array([[3, 1], [2, 4]]),
                                       "gnb", ("a", "b"), 0.9)
        d = report.to_dict()
        assert d["confusion"] == [[3, 1], [2, 4]]
        assert d["accuracy_pct"] == pytest.approx(70.0)
        assert d["fold"] is None


def blobs(n_per=30, spread=0.5, seed=0):
    rng = np.random.default_rng(seed)
    X = np.vstack([
        rng.normal((0, 0), spread, (n_per, 2)),
        rng.normal((5, 5), spread, (n_per, 2)),
    ])
    y = np.array([0] * n_per + [1] * n_per)
    return X, y


class TestKfoldEvaluate:
    def test_separable_blobs_gnb(self):
        X, y = blobs()
        overall, folds = kfold_evaluate(X, y, ("a", "b"), k=5, classifier="gnb")
        assert overall.accuracy == 1.0
        assert overall.auc == 1.0
        assert len(folds) == 5
        assert overall.confusion.sum() == 60
        assert [f.fold for f in folds] == [0, 1, 2, 3, 4]

    def test_separable_blobs_mlp(self):
        X, y = blobs()
        overall, _ = kfold_evaluate(X, y, ("a", "b"), k=5, classifier="mlp",
                                    mlp_config=MlpConfig(epochs=30))
        assert overall.accuracy == 1.0

    def test_deterministic(self):
        X, y = blobs(spread=3.0, seed=4)
        a, _ = kfold_evaluate(X, y, ("a", "b"), k=5, classifier="gnb", seed=7)
        b, _ = kfold_evaluate(X, y, ("a", "b"), k=5, classifier="gnb", seed=7)
        assert np.array_equal(a.confusion, b.confusion)
        assert a.auc == b.auc

    def test_every_instance_tested_once(self):
        X, y = blobs(n_per=17, spread=4.0, seed=5)
        overall, folds = kfold_evaluate(X, y, ("a", "b"), k=4, classifier="gnb")
        assert overall.confusion.sum() == 34
        assert sum(f.confusion.sum() for f in folds) == 34

    def test_inf_row_raises_the_first_failing_folds_error(self):
        # the inf row is held out by fold 0, so fold 0 trains cleanly and
        # the error is the one training fold 1 alone raises
        X, y = blobs(n_per=10, spread=2.0, seed=6)
        X[make_fold_plan(y, 4, 3).folds[0][0], 1] = np.inf
        config = MlpConfig(epochs=3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            want = fold_by_fold_error(X, y, ("a", "b"), 4, 3, config)
            with pytest.raises(DivergenceError) as info:
                kfold_evaluate(X, y, ("a", "b"), k=4, classifier="mlp", seed=3,
                               mlp_config=config)
        assert want is not None
        assert str(info.value) == want

    def test_divergence_names_the_lowest_failing_folds_epoch(self):
        # at this learning rate folds diverge in different epochs, or end
        # with non-finite weights; the error is the lowest failing fold's
        y = np.arange(12) % 2
        kinds = set()
        for seed in range(12):
            X = np.random.default_rng(seed).normal(size=(12, 3))
            config = MlpConfig(learning_rate=1e308, momentum=0.99, epochs=6,
                               seed=seed)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                want = fold_by_fold_error(X, y, ("a", "b"), 3, 0, config)
                with pytest.raises(DivergenceError) as info:
                    kfold_evaluate(X, y, ("a", "b"), k=3, classifier="mlp",
                                   mlp_config=config)
            assert str(info.value) == want
            kinds.add(want.split(";")[0])
        assert len(kinds) > 2

    def test_saturated_units_warn_nothing(self):
        # the twin of TestMlp's: folds of 9 and 10 rows, so the masked
        # steps run too
        rng = np.random.default_rng(3)
        X = np.vstack([rng.normal(0, 1, (6, 4)), rng.normal(5, 1, (6, 4))])
        y = np.array([0] * 6 + [1] * 6)
        config = MlpConfig(learning_rate=1e6, momentum=0.99999, epochs=3)
        assert {12 - len(f) for f in make_fold_plan(y, 5, 0).folds} == {9, 10}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            kfold_evaluate(X, y, ("a", "b"), k=5, classifier="mlp",
                           mlp_config=config)

    @pytest.mark.parametrize("classifier", CLASSIFIERS)
    def test_rows_without_label_rejected(self, classifier):
        # used to end in an IndexError from the first fold's row mask
        X, y = blobs(n_per=6)
        with pytest.raises(ValidationError):
            kfold_evaluate(X[:-1], y, ("a", "b"), k=3, classifier=classifier,
                           mlp_config=MlpConfig(epochs=1))

    def test_unknown_classifier(self):
        assert CLASSIFIERS == ("gnb", "mlp")
        X, y = blobs(n_per=10)
        with pytest.raises(ParameterError):
            kfold_evaluate(X, y, ("a", "b"), k=2, classifier="svm")
