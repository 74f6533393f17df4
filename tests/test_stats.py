"""Signed-rank, Friedman, post-hoc battery, and the bundled fixtures."""

import itertools
import json
import math

import numpy as np
import pytest

from driveguard.errors import ParameterError, ValidationError
from driveguard.ranking import midranks
from driveguard.stats import (
    DegenerateDataError,
    EXACT_MAX_N,
    POSTHOC_PAIRS,
    TABLE6_REPS,
    TestReport as StatsTestReport,
    _chi2_sf,
    _norm_sf,
    friedman,
    load_table5,
    load_table6,
    posthoc_wilcoxon_bonferroni,
    table5_report,
    table6_reports,
    wilcoxon_signed_rank,
)


def ranks_average(values):
    """Average ranks via sorted runs, one run at a time: the loop that
    ``ranking.midranks`` replaced, kept as its oracle."""
    values = np.asarray(values, dtype=np.float64)
    order = np.argsort(values, kind="stable")
    sv = values[order]
    out = np.empty(values.size)
    i = 0
    while i < values.size:
        j = i
        while j + 1 < values.size and sv[j + 1] == sv[i]:
            j += 1
        avg = (i + j) / 2.0 + 1.0
        out[order[i:j + 1]] = avg
        i = j + 1
    return out


def enumerate_wilcoxon(x, y, sided):
    """Literal 2**n enumeration of the signed-rank null."""
    d = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    d = d[d != 0.0]
    n = d.size
    ranks = ranks_average(np.abs(d))
    w_pos = ranks[d > 0].sum()
    w_neg = ranks[d < 0].sum()
    w_min = min(w_pos, w_neg)
    total = ranks.sum()
    null = [sum(r for r, s in zip(ranks, signs) if s)
            for signs in itertools.product((False, True), repeat=n)]
    eps = 1e-9
    if sided == "one":
        p = sum(1 for w in null if w >= w_pos - eps) / 2 ** n
    else:
        lower = sum(1 for w in null if w <= w_min + eps)
        upper = sum(1 for w in null if w >= total - w_min - eps)
        p = min(1.0, (lower + upper) / 2 ** n)
    return w_min, p


@pytest.mark.parametrize("seed", range(5))
def test_midranks_equal_the_loop(seed):
    # few distinct values, so most are tied, then NaNs and both zeros,
    # which tie with each other
    rng = np.random.default_rng(seed)
    for n in (0, 1, 2, 3, 17, 250):
        values = rng.integers(-3, 4, n) / 2.0
        for special in (np.nan, -0.0, 0.0, np.inf, -np.inf):
            values[rng.random(n) < 0.1] = special
        got, want = midranks(values), ranks_average(values)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), values
        assert np.array_equal(np.sort(got) * 2, np.round(np.sort(got) * 2))


class TestWilcoxonExact:
    @pytest.mark.parametrize("sided", ["one", "two"])
    def test_matches_enumeration(self, sided):
        rng = np.random.default_rng(17)
        for case in range(30):
            n = int(rng.integers(3, 13))
            if case % 2:
                x = rng.integers(0, 6, size=n).astype(float)  # forces ties
                y = rng.integers(0, 6, size=n).astype(float)
            else:
                x = rng.normal(size=n)
                y = rng.normal(size=n)
            if np.all(x == y):
                continue
            w_ref, p_ref = enumerate_wilcoxon(x, y, sided)
            rep = wilcoxon_signed_rank(x, y, sided=sided, method="exact")
            assert rep.method == "exact"
            assert rep.statistic == pytest.approx(w_ref, abs=1e-12)
            assert rep.p_value == pytest.approx(p_ref, abs=1e-12)

    def test_strictly_shifted_sample(self):
        # y = x + 1 everywhere: W = 0 and p = 2 / 2**n two-sided
        x = np.arange(1.0, 11.0)
        rep = wilcoxon_signed_rank(x + 1.0, x, sided="two")
        assert rep.statistic == 0.0
        assert rep.p_value == pytest.approx(2.0 / 2 ** 10, abs=1e-15)
        one = wilcoxon_signed_rank(x + 1.0, x, sided="one")
        assert one.p_value == pytest.approx(1.0 / 2 ** 10, abs=1e-15)

    def test_scipy_agreement_exact(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(23)
        for _ in range(60):
            n = int(rng.integers(4, 16))
            x = rng.normal(size=n)
            y = rng.normal(size=n)
            rep = wilcoxon_signed_rank(x, y, sided="two", method="exact")
            ref = scipy_stats.wilcoxon(x, y, alternative="two-sided",
                                       method="exact")
            assert rep.statistic == pytest.approx(ref.statistic, abs=1e-12)
            assert rep.p_value == pytest.approx(ref.pvalue, abs=1e-12)
            one = wilcoxon_signed_rank(x, y, sided="one", method="exact")
            ref1 = scipy_stats.wilcoxon(x, y, alternative="greater",
                                        method="exact")
            assert one.p_value == pytest.approx(ref1.pvalue, abs=1e-12)

    def test_auto_switches_at_threshold(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=EXACT_MAX_N)
        y = rng.normal(size=EXACT_MAX_N)
        assert wilcoxon_signed_rank(x, y).method == "exact"
        x = rng.normal(size=EXACT_MAX_N + 1)
        y = rng.normal(size=EXACT_MAX_N + 1)
        assert wilcoxon_signed_rank(x, y).method == "normal-approximation"


class TestWilcoxonApprox:
    def test_scipy_agreement_with_ties(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(29)
        done = 0
        for _ in range(200):
            n = int(rng.integers(10, 60))
            x = rng.integers(0, 10, size=n).astype(float)
            y = rng.integers(0, 10, size=n).astype(float)
            d = x - y
            if np.all(d == 0) or np.all(d[d != 0] > 0) == np.all(d[d != 0] < 0):
                pass
            if np.all(d == 0):
                continue
            nz = d[d != 0]
            ranks = ranks_average(np.abs(nz))
            _, counts = np.unique(ranks, return_counts=True)
            sigma2 = nz.size * (nz.size + 1) * (2 * nz.size + 1) / 24.0
            sigma2 -= float(np.sum(counts.astype(float) ** 3 - counts)) / 48.0
            if sigma2 <= 0:
                continue
            rep = wilcoxon_signed_rank(x, y, sided="two", method="approx")
            ref = scipy_stats.wilcoxon(x, y, alternative="two-sided",
                                       method="approx", correction=True,
                                       zero_method="wilcox")
            assert rep.p_value == pytest.approx(ref.pvalue, abs=1e-10)
            done += 1
        assert done > 50

    def test_zero_deviation_gives_p_one(self):
        # W+ == mu exactly: z pinned to 0, p capped at 1
        x = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        y = np.array([0.0, 3.0, 2.0, 5.0, 4.0, 7.0])
        rep = wilcoxon_signed_rank(x, y, sided="two", method="approx")
        assert rep.z_value == 0.0
        assert rep.p_value == 1.0


class TestWilcoxonValidation:
    def test_all_zero_differences(self):
        x = np.ones(6)
        with pytest.raises(DegenerateDataError):
            wilcoxon_signed_rank(x, x)

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            wilcoxon_signed_rank([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_too_few_pairs(self):
        with pytest.raises(ValidationError):
            wilcoxon_signed_rank([1.0], [2.0])

    def test_non_finite(self):
        with pytest.raises(ValidationError):
            wilcoxon_signed_rank([1.0, np.nan, 2.0], [0.0, 0.0, 0.0])

    def test_bad_parameters(self):
        x = [1.0, 2.0, 3.0]
        y = [0.0, 0.0, 0.0]
        with pytest.raises(ParameterError):
            wilcoxon_signed_rank(x, y, sided="both")
        with pytest.raises(ParameterError):
            wilcoxon_signed_rank(x, y, method="bootstrap")
        with pytest.raises(ParameterError):
            wilcoxon_signed_rank(x, y, alpha=0.0)


class TestTailAreas:
    def test_norm_sf_against_scipy(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        for z in np.linspace(-6, 6, 49):
            assert _norm_sf(z) == pytest.approx(
                scipy_stats.norm.sf(z), rel=1e-12)

    def test_chi2_sf_against_scipy(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        for df in (1, 2, 3, 5, 13, 30, 101, 2000):
            for x in (0.0, 0.1, 1.0, 4.0, 12.5, 34.5, 80.0, 300.0, 1600.0, 2100.0):
                assert _chi2_sf(x, df) == pytest.approx(
                    scipy_stats.chi2.sf(x, df), rel=1e-12, abs=1e-300)

    def test_chi2_sf_domain(self):
        with pytest.raises(ParameterError):
            _chi2_sf(-1.0, 3)
        with pytest.raises(ParameterError):
            _chi2_sf(1.0, 0)


class TestFriedman:
    def test_classical_matches_scipy(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(31)
        for _ in range(40):
            rows = int(rng.integers(4, 15))
            k = int(rng.integers(3, 7))
            if rng.random() < 0.5:
                m = rng.normal(size=(rows, k))
            else:
                m = rng.integers(0, 5, size=(rows, k)).astype(float)
                if np.all(m == m[:, :1]):
                    continue
            try:
                rep = friedman(m)
            except DegenerateDataError:
                continue
            ref = scipy_stats.friedmanchisquare(*[m[:, j] for j in range(k)])
            assert rep.statistic == pytest.approx(ref.statistic, rel=1e-10)
            assert rep.p_value == pytest.approx(ref.pvalue, rel=1e-10)
            assert rep.df == k - 1

    def test_rank_balanced_columns_score_zero(self):
        # a latin-square layout: every treatment takes each rank once
        m = np.array([[1.0, 2.0, 3.0],
                      [2.0, 3.0, 1.0],
                      [3.0, 1.0, 2.0]])
        rep = friedman(m)
        assert rep.statistic == 0.0
        assert rep.p_value == 1.0
        assert not rep.reject

    def test_fully_tied_is_degenerate(self):
        with pytest.raises(DegenerateDataError):
            friedman(np.ones((4, 3)))

    def test_replicated_blocks_against_direct_formula(self):
        rng = np.random.default_rng(37)
        for reps in (2, 3, 4):
            rows, k = reps * 5, 4
            m = rng.normal(size=(rows, k))
            rep = friedman(m, reps=reps)
            cells = reps * k
            center = (cells + 1) / 2.0
            col = np.zeros(k)
            var_sum = 0.0
            for b in range(rows // reps):
                block = m[b * reps:(b + 1) * reps].ravel()
                r = ranks_average(block).reshape(reps, k)
                col += r.sum(axis=0)
                var_sum += np.mean((r - center) ** 2)
            stat = np.sum((col - rows * center) ** 2) / (
                reps * (cells / (cells - 1.0)) * var_sum)
            assert rep.statistic == pytest.approx(stat, rel=1e-12)
            assert rep.p_value == pytest.approx(_chi2_sf(stat, k - 1), rel=1e-12)

    def test_reps_one_equals_classical(self):
        rng = np.random.default_rng(41)
        m = rng.normal(size=(8, 5))
        assert friedman(m, reps=1).statistic == friedman(m).statistic

    def test_validation(self):
        good = np.random.default_rng(0).normal(size=(6, 3))
        with pytest.raises(ValidationError):
            friedman(good.ravel())
        with pytest.raises(ValidationError):
            friedman(good[:, :1])
        with pytest.raises(ParameterError):
            friedman(good, reps=0)
        for alpha in (0.0, 1.0, math.nan):
            with pytest.raises(ParameterError, match="alpha must be in"):
                friedman(good, alpha=alpha)
        with pytest.raises(ValidationError):
            friedman(good, reps=4)  # 6 rows not divisible
        with pytest.raises(ValidationError):
            friedman(good[:3], reps=3)  # single block
        with pytest.raises(ValidationError):
            friedman(np.full((4, 3), np.nan))


class TestPosthoc:
    def test_alpha_split_three_ways(self):
        rng = np.random.default_rng(43)
        x = rng.normal(size=16)
        pairs = [(f"p{i}", x + rng.normal(size=16), x) for i in range(3)]
        reports = posthoc_wilcoxon_bonferroni(pairs, family_alpha=0.05)
        assert len(reports) == 3
        for rep in reports:
            assert rep.alpha == pytest.approx(0.05 / 3)
            assert rep.method == "normal-approximation"
            assert rep.sided == "one"

    def test_degenerate_pair_survives(self):
        x = np.arange(8.0)
        reports = posthoc_wilcoxon_bonferroni(
            [("same", x, x.copy()), ("shift", x + 1.0, x)], family_alpha=0.05)
        same, shift = reports
        assert same.method == "degenerate"
        assert same.p_value == 1.0
        assert not same.reject
        assert shift.alpha == pytest.approx(0.025)

    def test_empty_battery_rejected(self):
        with pytest.raises(ValidationError):
            posthoc_wilcoxon_bonferroni([])

    def test_bad_family_alpha(self):
        x = np.arange(6.0)
        with pytest.raises(ParameterError):
            posthoc_wilcoxon_bonferroni([("p", x, x + 1)], family_alpha=1.5)


class TestFixtures:
    def test_table5_shape(self):
        subjects, baseline, distraction = load_table5()
        assert subjects.tolist() == list(range(1, 16))
        assert baseline.shape == distraction.shape == (15,)
        assert np.all(baseline > 0) and np.all(distraction > 0)

    def test_table6_shape(self):
        activities, trials, channels, matrix = load_table6()
        assert matrix.shape == (16, 14)
        assert len(channels) == 14
        assert {"FC5", "FC6", "O1", "O2"} <= set(channels)
        assert activities == (["Call"] * 4 + ["Read"] * 4 +
                              ["Snapshot"] * 4 + ["Text"] * 4)
        assert trials == [1, 2, 3, 4] * 4
        assert TABLE6_REPS == 4

    def test_table5_report_pinned(self):
        rep = table5_report()
        assert rep.statistic == 0.0
        assert rep.statistic_name == "W"
        assert rep.method == "exact"
        assert rep.n == 15
        assert rep.p_value == pytest.approx(2.0 / 2 ** 15, abs=1e-15)
        assert rep.p_value == pytest.approx(6.103515625e-05, abs=1e-15)
        assert rep.reject

    def test_table6_reports_pinned(self):
        reports = table6_reports()
        fried = reports[0]
        assert fried.statistic_name == "chi2"
        assert fried.df == 13
        assert fried.statistic == pytest.approx(34.53853383458647, rel=1e-12)
        assert fried.p_value == pytest.approx(0.000996363192671111, rel=1e-12)
        assert fried.reject

        posthoc = reports[1:]
        assert [r.test for r in posthoc] == ["FC5-FC6", "FC5-O1", "FC5-O2"]
        expected = {
            "FC5-FC6": (10.0, 2.9733, 0.0015),
            "FC5-O1": (16.0, 2.6630, 0.0039),
            "FC5-O2": (20.0, 2.4562, 0.0070),
        }
        for rep in posthoc:
            w, z, p = expected[rep.test]
            assert rep.statistic == w
            assert rep.z_value == pytest.approx(z, abs=0.05)
            assert rep.p_value == pytest.approx(p, abs=0.001)
            assert rep.alpha == pytest.approx(0.05 / 3)
            assert rep.n == 16
            assert rep.reject

    def test_posthoc_pair_labels(self):
        assert [p[0] for p in POSTHOC_PAIRS] == ["FC5-FC6", "FC5-O1", "FC5-O2"]


class TestReportContainer:
    def make(self, **kw):
        base = dict(test="demo", statistic=1.5, p_value=0.04, sided="two",
                    n=10, method="exact", alpha=0.05)
        base.update(kw)
        return StatsTestReport(**base)

    def test_reject_boundary_inclusive(self):
        assert self.make(p_value=0.05).reject
        assert not self.make(p_value=0.050001).reject

    def test_dict_and_json(self):
        rep = self.make(z_value=1.1, df=3, statistic_name="W")
        d = rep.to_dict()
        assert d["statistic_name"] == "W"
        assert d["reject"] is True
        assert json.loads(rep.to_json()) == d

    def test_text_mentions_statistic_name(self):
        text = self.make(statistic_name="W").to_text()
        assert "W=1.5" in text
        assert "reject H0" in text
        assert "exact" in text

    def test_text_note_suffix(self):
        text = self.make(note="all differences zero").to_text()
        assert text.endswith("[all differences zero]")
