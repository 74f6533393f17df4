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


class TestMlp:
    def test_gradients_match_finite_differences(self):
        eps = 1e-5
        worst = 0.0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            f, h, c = rng.integers(2, 8), rng.integers(2, 6), rng.integers(2, 5)
            w1, b1, w2, b2 = init_mlp_weights(f, h, c, seed)
            x = rng.normal(size=f)
            t = np.zeros(c)
            t[rng.integers(0, c)] = 1.0
            _, gw1, gb1, gw2, gb2 = mlp_sample_gradients(w1, b1, w2, b2, x, t)
            for arr, grad in ((w1, gw1), (b1, gb1), (w2, gw2), (b2, gb2)):
                it = np.nditer(arr, flags=["multi_index"])
                for _ in it:
                    ix = it.multi_index
                    orig = arr[ix]
                    arr[ix] = orig + eps
                    lp = mlp_sample_gradients(w1, b1, w2, b2, x, t)[0]
                    arr[ix] = orig - eps
                    lm = mlp_sample_gradients(w1, b1, w2, b2, x, t)[0]
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

    def test_non_finite_input_raises_divergence(self):
        X = np.array([[0.0], [1.0], [np.inf], [2.0]])
        y = np.array([0, 1, 0, 1])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(DivergenceError):
                train_mlp(X, y, ("a", "b"), MlpConfig(epochs=3))

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

    def test_unknown_classifier(self):
        assert CLASSIFIERS == ("gnb", "mlp")
        X, y = blobs(n_per=10)
        with pytest.raises(ParameterError):
            kfold_evaluate(X, y, ("a", "b"), k=2, classifier="svm")
