"""Classifiers and evaluation for the distraction recognition problems.

Two models are provided, matching the study design: a Gaussian
naive-Bayes classifier and a single-hidden-layer perceptron trained by
online backpropagation with momentum. Evaluation runs seeded stratified
k-fold cross-validation and reports precision, recall, accuracy,
F-measure, and AUC from the fold-aggregated confusion matrix.

Class order is significant everywhere: it is the tie-break order for
argmax decisions and the row/column order of confusion matrices.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, ValidationError
from .model import TaskLabel, shared_schema
from .ranking import midranks

TWO_CLASS = ("Base", "Distracted")
FIVE_CLASS = tuple(t.value for t in TaskLabel)


class StratificationError(ValidationError):
    """Fold plan impossible for the requested K."""


class DivergenceError(ValidationError):
    """Training produced non-finite values."""


def vectors_to_dataset(vectors, problem: str = "five"):
    """Convert labelled FeatureVectors to (X, y, classes).

    problem "five" keeps the task labels; "two" collapses every
    distraction task into a single positive class against Base.
    """
    vectors = list(vectors)
    if not vectors:
        raise ValidationError("no feature vectors given")
    shared_schema(vectors)
    X = np.array([v.values for v in vectors], dtype=np.float64)
    if problem == "five":
        classes = FIVE_CLASS
        y = np.array([list(TaskLabel).index(v.label) for v in vectors], dtype=np.intp)
    elif problem == "two":
        classes = TWO_CLASS
        y = np.array([1 if v.label.is_distraction else 0 for v in vectors], dtype=np.intp)
    else:
        raise ParameterError(f"problem must be 'two' or 'five', got {problem!r}")
    return X, y, classes


def _check_training_set(X, y, classes):
    """(X, y, classes) as C-ordered float rows, integer labels and a tuple.

    X must be 2-D and non-empty with one label per row, and every label
    must index `classes`.
    """
    X = np.ascontiguousarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.intp)
    classes = tuple(classes)
    if X.ndim != 2 or y.shape != X.shape[:1] or y.size == 0:
        raise ValidationError(f"X {X.shape} and y {y.shape} disagree or are empty")
    if y.min() < 0 or y.max() >= len(classes):
        raise ValidationError("label index outside class list")
    return X, y, classes


# ---------------------------------------------------------------------------
# Gaussian naive Bayes

VARIANCE_FLOOR_SCALE = 1e-9
VARIANCE_FLOOR_ABS = 1e-12


@dataclass(frozen=True)
class GnbModel:
    classes: tuple
    priors: np.ndarray          # (C,)
    means: np.ndarray           # (C, F)
    variances: np.ndarray       # (C, F), floored strictly above zero

    @property
    def n_features(self):
        return self.means.shape[1]


def train_gnb(X, y, classes) -> GnbModel:
    """Class-frequency priors plus per-class Gaussian feature models.

    Variances are maximum likelihood with a relative floor so constant
    features cannot produce zero variance; with every feature constant
    the likelihoods cancel and prediction degenerates to the priors.
    """
    X, y, classes = _check_training_set(X, y, classes)
    present = np.unique(y)
    if present.size < 2:
        raise ValidationError("training data holds fewer than 2 classes")

    n, f = X.shape
    global_var = X.var(axis=0)
    floor = VARIANCE_FLOOR_SCALE * (global_var + VARIANCE_FLOOR_ABS)

    priors = np.zeros(len(classes))
    means = np.zeros((len(classes), f))
    variances = np.tile(floor, (len(classes), 1))
    for c in present:
        rows = X[y == c]
        if rows.shape[0] < 2:
            raise ValidationError(
                f"class {classes[c]!r} has {rows.shape[0]} instance(s); need >= 2"
            )
        priors[c] = rows.shape[0] / n
        means[c] = rows.mean(axis=0)
        variances[c] = np.maximum(rows.var(axis=0), floor)
    return GnbModel(classes=classes, priors=priors, means=means, variances=variances)


def _gnb_log_posteriors(model: GnbModel, X):
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[1] != model.n_features:
        raise ValidationError(
            f"input has {X.shape[1]} features, model expects {model.n_features}"
        )
    # a class absent from training has prior 0, so its column is -inf
    with np.errstate(divide="ignore"):
        log_priors = np.log(model.priors)
    v = model.variances
    d = X[:, np.newaxis, :] - model.means          # (n, C, F)
    joint = log_priors - 0.5 * np.sum(np.log(2.0 * np.pi * v) + d * d / v, axis=2)
    # normalize rows into log posteriors
    peak = joint.max(axis=1, keepdims=True)
    log_post = joint - (peak + np.log(np.sum(np.exp(joint - peak), axis=1, keepdims=True)))
    return log_post


def predict_gnb(model: GnbModel, x):
    """(class index, per-class log-posteriors) for one instance."""
    pred, log_post = predict_gnb_many(model, x)
    return int(pred[0]), log_post[0]


def predict_gnb_many(model: GnbModel, X):
    log_post = _gnb_log_posteriors(model, X)
    return np.argmax(log_post, axis=1), log_post


# ---------------------------------------------------------------------------
# multilayer perceptron


@dataclass(frozen=True)
class MlpConfig:
    hidden: int | None = None        # default round((F+C)/2)
    learning_rate: float = 0.3
    momentum: float = 0.2
    epochs: int = 500
    seed: int = 0

    def __post_init__(self):
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ParameterError(
                f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if not (0.0 <= self.momentum < 1.0):
            raise ParameterError(f"momentum must lie in [0, 1), got {self.momentum}")
        if self.epochs < 0:
            raise ParameterError(f"epochs must be >= 0, got {self.epochs}")
        if self.hidden is not None and self.hidden < 1:
            raise ParameterError(f"hidden must be >= 1, got {self.hidden}")


@dataclass
class MlpModel:
    classes: tuple
    config: MlpConfig
    feature_mean: np.ndarray
    feature_scale: np.ndarray
    w1: np.ndarray   # (F, H)
    b1: np.ndarray   # (H,)
    w2: np.ndarray   # (H, C)
    b2: np.ndarray   # (C,)

    @property
    def layer_sizes(self):
        return (self.w1.shape[0], self.w1.shape[1], self.w2.shape[1])


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def mlp_forward(w1, b1, w2, b2, x):
    h = _sigmoid(x @ w1 + b1)
    o = _sigmoid(h @ w2 + b2)
    return h, o


def _rows_times(x, w):
    """x @ w for each leading index: rows (..., m) times matrices (..., m, n).

    Each product runs as its own vector-matrix call, so a batch element
    gets the same bits as the unbatched product.
    """
    return np.matmul(x[..., None, :], w)[..., 0, :]


def mlp_sample_gradients(w1, b1, w2, b2, x, target):
    """Squared-error loss and its exact gradients for one sample.

    Every argument may carry the same leading batch axes, one sample and
    one set of weights per batch element: x (..., F), w1 (..., F, H).
    Training consumes this; tests difference it numerically.
    """
    h = _sigmoid(_rows_times(x, w1) + b1)
    o = _sigmoid(_rows_times(h, w2) + b2)
    err = o - target
    loss = 0.5 * np.add.reduce(err * err, axis=-1)
    delta_o = err * o * (1.0 - o)
    gw2 = h[..., :, None] * delta_o[..., None, :]
    gb2 = delta_o
    delta_h = np.matmul(w2, delta_o[..., None])[..., 0] * h * (1.0 - h)
    gw1 = x[..., :, None] * delta_h[..., None, :]
    gb1 = delta_h
    return loss, gw1, gb1, gw2, gb2


def init_mlp_weights(n_features, n_hidden, n_classes, seed):
    """Seeded uniform [-0.5, 0.5] init; draw order w1, b1, w2, b2."""
    rng = np.random.default_rng(seed)
    w1 = rng.uniform(-0.5, 0.5, size=(n_features, n_hidden))
    b1 = rng.uniform(-0.5, 0.5, size=n_hidden)
    w2 = rng.uniform(-0.5, 0.5, size=(n_hidden, n_classes))
    b2 = rng.uniform(-0.5, 0.5, size=n_classes)
    return w1, b1, w2, b2


def _weight_views(theta, shapes):
    """w1, b1, w2 and b2 as views into parameter rows theta (m, P)."""
    views, start = [], 0
    for shape in shapes:
        size = int(np.prod(shape))
        views.append(theta[:, start:start + size].reshape(len(theta), *shape))
        start += size
    return views


def train_mlp(X, y, classes, config: MlpConfig | None = None) -> MlpModel:
    """Online backpropagation with momentum, deterministic per seed.

    Features are z-scored with training-set statistics (stored on the
    model and reapplied at prediction time); labels become one-hot
    targets. Samples are visited in input order every epoch, so a run
    is a pure function of (data order, config).
    """
    return train_mlp_stack([(X, y)], classes, config)[0]


def train_mlp_stack(training_sets, classes, config: MlpConfig | None = None):
    """One MlpModel per (X, y) training set, all trained in lockstep.

    Each model's weights are bit-for-bit those of `train_mlp` on its set
    alone. Step i of an epoch takes sample i of every set that still has
    one; a set whose rows are used up, or whose loss has gone non-finite,
    is masked: no update and no momentum decay. The DivergenceError
    raised is that of the lowest-index set that fails, as if the sets
    were trained one after another.
    """
    if config is None:
        config = MlpConfig()
    sets = [_check_training_set(X, y, classes)[:2] for X, y in training_sets]
    classes = tuple(classes)
    if not sets:
        raise ValidationError("no training sets given")
    f = sets[0][0].shape[1]
    if any(X.shape[1] != f for X, _ in sets):
        raise ValidationError("training sets disagree on the number of features")

    k = len(sets)
    c = len(classes)
    hidden = config.hidden if config.hidden is not None else max(1, round((f + c) / 2))
    sizes = np.array([y.size for _, y in sets])
    n_max = int(sizes.max())

    # z-scored rows and one-hot targets, one zero-padded (n_max, .) slab per set
    Xs = np.zeros((k, n_max, f))
    targets = np.zeros((k, n_max, c))
    means, scales = [], []
    for j, (X, y) in enumerate(sets):
        mean = X.mean(axis=0)
        scale = X.std(axis=0)
        scale = np.where(scale < 1e-12, 1.0, scale)
        Xs[j, :y.size] = (X - mean) / scale
        targets[j, np.arange(y.size), y] = 1.0
        means.append(mean)
        scales.append(scale)

    # one parameter row per set; w1, b1, w2 and b2 are views into it
    init = init_mlp_weights(f, hidden, c, config.seed)
    shapes = [a.shape for a in init]
    theta = np.tile(np.concatenate([a.ravel() for a in init]), (k, 1))
    velocity = np.zeros_like(theta)
    weights = _weight_views(theta, shapes)

    lr = config.learning_rate
    mom = config.momentum

    def step(th, vel, w, i, rows):
        """One online step on sample i of the sets `rows`; their loss."""
        loss, gw1, gb1, gw2, gb2 = mlp_sample_gradients(
            *w, Xs[rows, i], targets[rows, i])
        m = len(loss)
        vel *= mom
        vel -= lr * np.concatenate(
            (gw1.reshape(m, -1), gb1, gw2.reshape(m, -1), gb2), axis=1)
        th += vel
        return loss

    diverged_in = np.zeros(k, dtype=np.intp)   # 1-based epoch, 0 while finite
    live = np.arange(k)
    # a saturated sigmoid's exp overflows to inf and the unit to its
    # correct limit 0, and a diverging set's inf weights make inf - inf in
    # its products: that set is caught by its non-finite loss and weights
    # below. Set once per fit, as the online step is call-bound
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            epoch_loss = np.zeros(k)
            # every set steps in place while all are live and have rows
            in_place = int(sizes.min()) if live.size == k else 0
            for i in range(n_max):
                if i < in_place:
                    epoch_loss += step(theta, velocity, weights, i, slice(None))
                    continue
                rows = live[sizes[live] > i]
                if rows.size == 0:
                    break
                th, vel = theta[rows], velocity[rows]
                epoch_loss[rows] += step(th, vel, _weight_views(th, shapes), i, rows)
                theta[rows], velocity[rows] = th, vel
            failed = ~np.isfinite(epoch_loss[live])
            diverged_in[live[failed]] = epoch + 1
            live = live[~failed]

    for j in range(k):
        if diverged_in[j]:
            raise DivergenceError(
                f"training loss became non-finite in epoch {diverged_in[j]}; "
                "try a smaller learning_rate"
            )
        if not np.isfinite(theta[j]).all():
            raise DivergenceError(
                "weights became non-finite; try a smaller learning_rate"
            )
    return [
        MlpModel(classes=classes, config=config, feature_mean=mean,
                 feature_scale=scale, w1=w1, b1=b1, w2=w2, b2=b2)
        for mean, scale, (w1, b1, w2, b2)
        in zip(means, scales, zip(*weights))
    ]


def predict_mlp(model: MlpModel, x):
    """(class index, per-class sigmoid scores) for one instance."""
    pred, o = predict_mlp_many(model, np.asarray(x, dtype=np.float64)[np.newaxis])
    return int(pred[0]), o[0]


def predict_mlp_many(model: MlpModel, X):
    X = np.asarray(X, dtype=np.float64)
    n_features = model.w1.shape[0]
    if X.ndim != 2 or X.shape[1] != n_features:
        raise ValidationError(
            f"input has shape {X.shape}, model expects (n, {n_features})"
        )
    Xs = (X - model.feature_mean) / model.feature_scale
    with np.errstate(over="ignore"):  # saturated units, as in train_mlp
        _, o = mlp_forward(model.w1, model.b1, model.w2, model.b2, Xs)
    return np.argmax(o, axis=1), o


# ---------------------------------------------------------------------------
# metrics


def auc(scores, truth) -> float:
    """Probability a random positive outscores a random negative.

    Mann-Whitney U over midranks, ties counted half; identical to the
    trapezoidal area under the ROC curve.
    """
    scores = np.asarray(scores, dtype=np.float64)
    truth = np.asarray(truth).astype(bool)
    n_pos = int(truth.sum())
    n_neg = truth.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValidationError("AUC needs both classes in the truth labels")
    ranks = midranks(scores)
    u = ranks[truth].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def multiclass_auc(score_matrix, y, n_classes) -> float:
    """Support-weighted one-vs-rest AUC; classes absent from y are skipped."""
    score_matrix = np.asarray(score_matrix, dtype=np.float64)
    y = np.asarray(y, dtype=np.intp)
    total = 0.0
    weight = 0.0
    for c in range(n_classes):
        pos = y == c
        n_c = int(pos.sum())
        if n_c == 0 or n_c == y.size:
            continue
        total += n_c * auc(score_matrix[:, c], pos)
        weight += n_c
    if weight == 0.0:
        raise ValidationError("no class has both positives and negatives")
    return total / weight


def absent_classes(confusion):
    """Indices of classes with no true instances (all-zero rows)."""
    confusion = np.asarray(confusion)
    return tuple(int(i) for i in np.flatnonzero(confusion.sum(axis=1) == 0))


def normalized_confusion(confusion) -> np.ndarray:
    """Row-normalized confusion; absent-class rows render as zeros."""
    confusion = np.asarray(confusion, dtype=np.float64)
    totals = confusion.sum(axis=1, keepdims=True)
    safe = np.where(totals == 0, 1.0, totals)
    out = confusion / safe
    out[totals[:, 0] == 0] = 0.0
    return out


@dataclass(frozen=True)
class EvalReport:
    """Aggregated evaluation metrics plus the confusion they came from."""

    classifier: str
    classes: tuple
    confusion: np.ndarray
    precision: float
    recall: float
    accuracy: float
    f_measure: float
    auc: float
    per_class_precision: tuple
    per_class_recall: tuple
    fold: int | None = None

    @property
    def accuracy_pct(self) -> float:
        return 100.0 * self.accuracy

    @property
    def normalized(self) -> np.ndarray:
        return normalized_confusion(self.confusion)

    @property
    def absent(self):
        return absent_classes(self.confusion)

    def to_dict(self):
        return {
            "classifier": self.classifier,
            "classes": list(self.classes),
            "precision": self.precision,
            "recall": self.recall,
            "accuracy": self.accuracy,
            "accuracy_pct": self.accuracy_pct,
            "f_measure": self.f_measure,
            "auc": self.auc,
            "per_class_precision": list(self.per_class_precision),
            "per_class_recall": list(self.per_class_recall),
            "confusion": self.confusion.tolist(),
            "normalized_confusion": self.normalized.tolist(),
            "fold": self.fold,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def to_text(self) -> str:
        head = ("Classifier", "Precision", "Recall", "Accuracy %", "F-Measure", "AUC")
        row = (
            self.classifier,
            f"{self.precision:.3f}",
            f"{self.recall:.3f}",
            f"{self.accuracy_pct:.2f}",
            f"{self.f_measure:.3f}",
            f"{self.auc:.3f}",
        )
        widths = [max(len(a), len(b)) for a, b in zip(head, row)]
        lines = [
            "  ".join(h.ljust(w) for h, w in zip(head, widths)).rstrip(),
            "  ".join(r.ljust(w) for r, w in zip(row, widths)).rstrip(),
        ]
        return "\n".join(lines)


def report_from_confusion(confusion, classifier, classes, auc_value, fold=None) -> EvalReport:
    confusion = np.asarray(confusion, dtype=np.int64)
    total = confusion.sum()
    if total == 0:
        raise ValidationError("empty confusion matrix")
    accuracy = float(np.trace(confusion) / total)

    row_totals = confusion.sum(axis=1)
    col_totals = confusion.sum(axis=0)
    diag = np.diag(confusion)
    per_prec = tuple(
        float(diag[c] / col_totals[c]) if col_totals[c] else 0.0
        for c in range(len(classes))
    )
    per_rec = tuple(
        float(diag[c] / row_totals[c]) if row_totals[c] else 0.0
        for c in range(len(classes))
    )
    present = [c for c in range(len(classes)) if row_totals[c] > 0]
    precision = float(np.mean([per_prec[c] for c in present]))
    recall = float(np.mean([per_rec[c] for c in present]))
    f_measure = (
        2.0 * precision * recall / (precision + recall) if precision + recall else 0.0
    )
    return EvalReport(
        classifier=classifier,
        classes=tuple(classes),
        confusion=confusion,
        precision=precision,
        recall=recall,
        accuracy=accuracy,
        f_measure=f_measure,
        auc=float(auc_value),
        per_class_precision=per_prec,
        per_class_recall=per_rec,
        fold=fold,
    )


# ---------------------------------------------------------------------------
# cross-validation


@dataclass(frozen=True)
class FoldPlan:
    k: int
    folds: tuple   # tuple of index tuples, disjoint, covering all instances


def make_fold_plan(y, k, seed) -> FoldPlan:
    """Seeded stratified folds: per-fold class counts within 1 of even.

    Each class's shuffled instances are dealt round-robin, with the
    starting fold rotated per class so remainders spread across folds.
    """
    y = np.asarray(y, dtype=np.intp)
    if k < 2:
        raise StratificationError(f"K must be >= 2, got {k}")
    rng = np.random.default_rng(seed)
    folds = [[] for _ in range(k)]
    for c in np.unique(y):
        idx = np.flatnonzero(y == c)
        if idx.size < k:
            raise StratificationError(
                f"class index {int(c)} has {idx.size} instances; "
                f"stratified {k}-fold needs >= {k}"
            )
        rng.shuffle(idx)
        for j, instance in enumerate(idx):
            folds[(j + int(c)) % k].append(int(instance))
    return FoldPlan(k=k, folds=tuple(tuple(sorted(f)) for f in folds))


CLASSIFIERS = ("gnb", "mlp")


def kfold_evaluate(
    X,
    y,
    classes,
    k: int = 10,
    classifier: str = "gnb",
    seed: int = 0,
    mlp_config: MlpConfig | None = None,
):
    """Stratified k-fold evaluation; returns (overall report, fold reports).

    The MLP folds train in lockstep, in one `train_mlp_stack` call, before
    any fold is scored. The overall confusion aggregates all folds, so
    each instance contributes exactly one prediction. AUC is computed
    from the pooled held-out scores: positive-class score for two
    classes, weighted one-vs-rest above that.
    """
    if classifier not in CLASSIFIERS:
        raise ParameterError(f"classifier must be one of {CLASSIFIERS}, got {classifier!r}")
    X, y, classes = _check_training_set(X, y, classes)
    plan = make_fold_plan(y, k, seed)

    n = y.size
    c = len(classes)
    confusion = np.zeros((c, c), dtype=np.int64)
    pooled_scores = np.zeros((n, c))
    tested = np.zeros(n, dtype=bool)
    fold_reports = []

    test_sets = [np.array(test_idx, dtype=np.intp) for test_idx in plan.folds]
    train_masks = []
    for test_idx in test_sets:
        train_mask = np.ones(n, dtype=bool)
        train_mask[test_idx] = False
        train_masks.append(train_mask)
    if classifier == "mlp":
        cfg = mlp_config if mlp_config is not None else MlpConfig()
        mlp_models = train_mlp_stack([(X[m], y[m]) for m in train_masks], classes, cfg)

    for fold_idx, (test_idx, train_mask) in enumerate(zip(test_sets, train_masks)):
        X_te, y_te = X[test_idx], y[test_idx]
        if classifier == "gnb":
            model = train_gnb(X[train_mask], y[train_mask], classes)
            pred, log_post = predict_gnb_many(model, X_te)
            scores = np.exp(log_post)
        else:
            pred, scores = predict_mlp_many(mlp_models[fold_idx], X_te)

        fold_conf = np.zeros((c, c), dtype=np.int64)
        np.add.at(fold_conf, (y_te, pred), 1)
        confusion += fold_conf
        pooled_scores[test_idx] = scores
        tested[test_idx] = True

        fold_auc = _auc_for_problem(scores, y_te, c)
        fold_reports.append(
            report_from_confusion(fold_conf, classifier, classes, fold_auc, fold=fold_idx)
        )

    if not tested.all():
        raise ValidationError("internal error: some instances never tested")
    overall_auc = _auc_for_problem(pooled_scores, y, c)
    overall = report_from_confusion(confusion, classifier, classes, overall_auc)
    return overall, fold_reports


def _auc_for_problem(scores, y, n_classes):
    if n_classes == 2:
        return auc(scores[:, 1], y == 1)
    return multiclass_auc(scores, y, n_classes)
