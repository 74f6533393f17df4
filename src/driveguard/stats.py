"""Nonparametric tests for the band-power comparisons.

Implements the Wilcoxon signed-rank test (exact small-sample null via
sign enumeration, normal approximation with continuity and tie
correction otherwise), the Friedman rank test with optional replicated
measurements per block, and a Bonferroni-corrected post-hoc battery of
pairwise signed-rank tests. Bundled measurement fixtures reproduce the
published channel comparisons.

No statistics library is used: the exact Wilcoxon null distribution is
built by dynamic programming over doubled midranks, the normal tail
comes from erfc, and the chi-square tail is the closed-form finite sum
that holds for integer degrees of freedom.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .errors import ParameterError, ValidationError
from .ranking import midranks

EXACT_MAX_N = 20


class DegenerateDataError(ValidationError):
    """Data carries no rank information (all differences zero, or all cells tied)."""


# ---------------------------------------------------------------------------
# tail areas


def _norm_sf(z: float) -> float:
    """Upper tail of the standard normal."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def _chi2_sf(x: float, df: int) -> float:
    """Upper tail of the chi-square distribution with df degrees of freedom.

    For integer df the tail Q(df/2, x/2) is a finite sum: erfc(sqrt(x/2))
    for odd df, plus df // 2 terms (x/2)^(k+a) e^(-x/2) / Gamma(k+a+1)
    with a = (df % 2) / 2.
    """
    if df < 1:
        raise ParameterError(f"chi-square df must be >= 1, got {df}")
    if x < 0:
        raise ParameterError(f"chi-square statistic must be >= 0, got {x}")
    if x == 0.0:
        return 1.0
    half = 0.5 * x
    a = 0.5 * (df % 2)
    log_half = math.log(half)
    terms = [math.exp((k + a) * log_half - half - math.lgamma(k + a + 1.0))
             for k in range(df // 2)]
    if df % 2:
        terms.append(math.erfc(math.sqrt(half)))
    return math.fsum(terms)


# ---------------------------------------------------------------------------
# report container


@dataclass(frozen=True)
class TestReport:
    """Outcome of one hypothesis test."""

    test: str
    statistic: float
    p_value: float
    sided: str
    n: int
    method: str
    alpha: float
    z_value: float | None = None
    df: int | None = None
    note: str | None = None
    statistic_name: str = "statistic"

    @property
    def reject(self) -> bool:
        return self.p_value <= self.alpha

    def to_dict(self) -> dict:
        return {
            "test": self.test,
            "statistic_name": self.statistic_name,
            "statistic": self.statistic,
            "z_value": self.z_value,
            "p_value": self.p_value,
            "sided": self.sided,
            "n": self.n,
            "df": self.df,
            "method": self.method,
            "alpha": self.alpha,
            "reject": self.reject,
            "note": self.note,
        }

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def to_text(self) -> str:
        parts = [f"{self.test}: {self.statistic_name}={self.statistic:.6g}"]
        if self.df is not None:
            parts.append(f"df={self.df}")
        if self.z_value is not None:
            parts.append(f"z={self.z_value:.4f}")
        parts.append(f"p={self.p_value:.4e}")
        parts.append(f"({self.sided}-sided, {self.method}, n={self.n})")
        parts.append("reject H0" if self.reject else "fail to reject H0")
        parts.append(f"at alpha={self.alpha:g}")
        line = "  ".join(parts)
        if self.note:
            line += f"  [{self.note}]"
        return line


# ---------------------------------------------------------------------------
# Wilcoxon signed-rank


def _signed_rank_parts(x, y):
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 1 or y.ndim != 1 or x.size != y.size:
        raise ValidationError("paired samples must be 1-D and equal length")
    if x.size < 2:
        raise ValidationError(f"need at least 2 pairs, got {x.size}")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValidationError("paired samples must be finite")
    d = x - y
    d = d[d != 0.0]
    n = int(d.size)
    if n == 0:
        raise DegenerateDataError("all paired differences are zero")
    ranks = midranks(np.abs(d))
    w_pos = float(ranks[d > 0].sum())
    w_neg = float(ranks[d < 0].sum())
    return n, ranks, w_pos, w_neg


def _exact_counts(ranks) -> np.ndarray:
    """Null distribution of the doubled positive-rank sum.

    Midranks are multiples of one half, so doubling makes every rank an
    integer. counts[s] is the number of the 2**n sign assignments whose
    doubled positive-rank sum equals s; dividing by 2**n gives exact
    probabilities. Equivalent to enumerating all sign vectors.
    """
    doubled = np.rint(2.0 * np.asarray(ranks)).astype(np.int64)
    total = int(doubled.sum())
    counts = np.zeros(total + 1, dtype=object)
    counts[0] = 1
    upto = 0
    for r in doubled:
        r = int(r)
        new = counts.copy()
        new[r:upto + r + 1] += counts[:upto + 1]
        counts = new
        upto += r
    return counts


def wilcoxon_signed_rank(x, y, sided: str = "two", alpha: float = 0.05,
                         method: str = "auto", name: str = "wilcoxon-signed-rank") -> TestReport:
    """Paired signed-rank test on x vs y.

    The statistic is W = min(W+, W-) over the nonzero differences
    d = x - y, with midranks for tied magnitudes. ``sided="two"`` tests
    for any shift; ``sided="one"`` tests the alternative that x tends to
    exceed y (upper tail of W+).

    ``method="auto"`` uses the exact enumeration null for n <= 20 and
    the continuity-corrected normal approximation (tie-corrected
    variance) otherwise; "exact" and "approx" force a path.
    """
    if sided not in ("one", "two"):
        raise ParameterError(f"sided must be 'one' or 'two', got {sided!r}")
    if method not in ("auto", "exact", "approx"):
        raise ParameterError(f"method must be auto|exact|approx, got {method!r}")
    if not (0.0 < alpha < 1.0):
        raise ParameterError(f"alpha must be in (0, 1), got {alpha}")
    n, ranks, w_pos, w_neg = _signed_rank_parts(x, y)
    w_min = min(w_pos, w_neg)
    use_exact = method == "exact" or (method == "auto" and n <= EXACT_MAX_N)
    if use_exact:
        counts = _exact_counts(ranks)
        denom = 1 << n
        s_obs = int(round(2.0 * w_pos))
        s_min = int(round(2.0 * w_min))
        total = counts.size - 1
        if sided == "one":
            p = float(int(counts[s_obs:].sum()) / denom)
        else:
            lower = int(counts[:s_min + 1].sum())
            upper = int(counts[total - s_min:].sum())
            p = float(min(1.0, (lower + upper) / denom))
        return TestReport(test=name, statistic=w_min, p_value=p, sided=sided,
                          n=n, method="exact", alpha=alpha, statistic_name="W")
    mu = n * (n + 1) / 4.0
    sigma2 = n * (n + 1) * (2 * n + 1) / 24.0
    _, tie_counts = np.unique(ranks, return_counts=True)
    sigma2 -= float(np.sum(tie_counts.astype(np.float64) ** 3 - tie_counts)) / 48.0
    if sigma2 <= 0.0:
        raise DegenerateDataError("zero variance after tie correction")
    sigma = math.sqrt(sigma2)
    if sided == "one":
        z = (w_pos - mu - 0.5) / sigma
        p = _norm_sf(z)
    else:
        dev = w_pos - mu
        if dev == 0.0:
            z = 0.0
        else:
            z = (dev - 0.5 * math.copysign(1.0, dev)) / sigma
        p = min(1.0, 2.0 * _norm_sf(abs(z)))
    return TestReport(test=name, statistic=w_min, p_value=p, sided=sided,
                      n=n, method="normal-approximation", alpha=alpha, z_value=z,
                      statistic_name="W")


# ---------------------------------------------------------------------------
# Friedman


def friedman(matrix, alpha: float = 0.05, reps: int = 1,
             name: str = "friedman") -> TestReport:
    """Friedman rank test for k related treatments.

    ``matrix`` is (rows, k). With ``reps == 1`` each row is one block,
    ranked within the row (classical test, tie-corrected). With
    ``reps > 1`` consecutive groups of ``reps`` rows are one block of
    repeated measurements and all reps*k cells of a block are ranked
    jointly before column sums are taken.
    """
    a = np.asarray(matrix, dtype=np.float64)
    if a.ndim != 2:
        raise ValidationError(f"matrix must be 2-D, got {a.ndim}-D")
    if not np.all(np.isfinite(a)):
        raise ValidationError("matrix must be finite")
    rows, k = a.shape
    if k < 2:
        raise ValidationError(f"need at least 2 treatments, got {k}")
    if reps < 1:
        raise ParameterError(f"reps must be >= 1, got {reps}")
    if rows % reps != 0:
        raise ValidationError(f"{rows} rows not divisible by reps={reps}")
    blocks = rows // reps
    if blocks < 2:
        raise ValidationError(f"need at least 2 blocks, got {blocks}")
    if not (0.0 < alpha < 1.0):
        raise ParameterError(f"alpha must be in (0, 1), got {alpha}")

    m = reps * k
    center = (m + 1) / 2.0
    col_sums = np.zeros(k)
    var_sum = 0.0
    for b in range(blocks):
        cells = a[b * reps:(b + 1) * reps, :]
        r = midranks(cells.ravel()).reshape(reps, k)
        col_sums += r.sum(axis=0)
        var_sum += float(np.mean((r - center) ** 2))
    denom = reps * (m / (m - 1.0)) * var_sum
    if denom == 0.0:
        raise DegenerateDataError("all cells tied within every block")
    expected = rows * center
    stat = float(np.sum((col_sums - expected) ** 2) / denom)
    df = k - 1
    p = _chi2_sf(stat, df)
    return TestReport(test=name, statistic=stat, p_value=p, sided="two",
                      n=rows, method="chi-square", alpha=alpha, df=df,
                      statistic_name="chi2")


# ---------------------------------------------------------------------------
# post-hoc battery


def posthoc_wilcoxon_bonferroni(pairs, family_alpha: float = 0.05,
                                sided: str = "one") -> list[TestReport]:
    """Pairwise signed-rank tests at a Bonferroni-split alpha.

    ``pairs`` is a sequence of (label, x, y) triples. Every test runs at
    ``family_alpha / len(pairs)`` using the normal approximation so the
    z values are comparable across pairs regardless of sample size. A
    pair whose differences are all zero yields a degenerate report
    (p = 1, never rejected) instead of failing the battery.
    """
    pairs = list(pairs)
    if not pairs:
        raise ValidationError("need at least one pair")
    if not (0.0 < family_alpha < 1.0):
        raise ParameterError(f"family alpha must be in (0, 1), got {family_alpha}")
    per_test = family_alpha / len(pairs)
    out = []
    for label, x, y in pairs:
        try:
            rep = wilcoxon_signed_rank(x, y, sided=sided, alpha=per_test,
                                       method="approx", name=str(label))
        except DegenerateDataError:
            rep = TestReport(test=str(label), statistic=0.0, p_value=1.0,
                             sided=sided, n=0, method="degenerate",
                             alpha=per_test, note="all differences zero",
                             statistic_name="W")
        out.append(rep)
    return out


# ---------------------------------------------------------------------------
# bundled measurement fixtures


def _data_path(filename: str):
    return resources.files("driveguard").joinpath("data").joinpath(filename)


def load_table5():
    """Per-subject alpha-power ratios: baseline vs distracted driving.

    Returns (subject_ids, baseline, distraction) as numpy arrays.
    """
    with _data_path("table5.csv").open("r", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    subjects = np.array([int(r["subject"]) for r in rows])
    baseline = np.array([float(r["baseline"]) for r in rows])
    distraction = np.array([float(r["distraction"]) for r in rows])
    return subjects, baseline, distraction


def load_table6():
    """Per-trial channel attention scores for the four distraction tasks.

    Returns (activities, trials, channel_names, matrix) where matrix is
    (16, 14): four consecutive rows per activity, one column per channel.
    """
    with _data_path("table6.csv").open("r", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    channels = tuple(header[2:])
    activities = [r[0] for r in rows]
    trials = [int(r[1]) for r in rows]
    matrix = np.array([[float(v) for v in r[2:]] for r in rows])
    return activities, trials, channels, matrix


TABLE6_REPS = 4
POSTHOC_PAIRS = (("FC5-FC6", "FC5", "FC6"),
                 ("FC5-O1", "FC5", "O1"),
                 ("FC5-O2", "FC5", "O2"))


def table5_report(alpha: float = 0.05) -> TestReport:
    """Signed-rank comparison of the bundled baseline/distraction ratios."""
    _, baseline, distraction = load_table5()
    return wilcoxon_signed_rank(baseline, distraction, sided="two", alpha=alpha,
                                name="alpha-ratio baseline vs distraction")


def table6_reports(alpha: float = 0.05) -> list[TestReport]:
    """Friedman test across channels plus the three planned channel contrasts.

    Each activity contributes one block of four repeated trials; all 56
    cells of a block are ranked jointly. The post-hoc battery tests
    whether FC5 scores exceed FC6, O1, and O2 (one-sided), Bonferroni
    corrected within the family.
    """
    _, _, channels, matrix = load_table6()
    reports = [friedman(matrix, alpha=alpha, reps=TABLE6_REPS,
                        name="channel attention friedman")]
    cols = {c: matrix[:, i] for i, c in enumerate(channels)}
    pairs = [(label, cols[a], cols[b]) for label, a, b in POSTHOC_PAIRS]
    reports.extend(posthoc_wilcoxon_bonferroni(pairs, family_alpha=alpha, sided="one"))
    return reports
