"""Distraction Index arithmetic and task ranking."""

import math

import numpy as np
import pytest

from driveguard.errors import ValidationError
from driveguard.index import (
    CoverageError,
    TaskRanking,
    UndefinedIndexError,
    di_rows,
    di_value,
    distraction_index,
    rank_tasks,
)
from driveguard.model import BandPowers, TaskLabel


def bp(delta=1.0, theta=1.0, alpha=1.0, beta=1.0, gamma=1.0):
    return BandPowers(delta=delta, theta=theta, alpha=alpha, beta=beta, gamma=gamma)


class TestDistractionIndex:
    def test_equal_bands_give_exactly_three(self):
        assert distraction_index(bp()) == 3.0
        assert distraction_index(bp(delta=9.0, theta=0.5, alpha=0.5,
                                    beta=0.5, gamma=0.5)) == 3.0

    def test_hand_value(self):
        # 6/3 + 3/2 + 2/8 = 2 + 1.5 + 0.25
        assert distraction_index(bp(theta=6.0, alpha=3.0, beta=2.0,
                                    gamma=8.0)) == pytest.approx(3.75, abs=0)

    def test_delta_is_ignored(self):
        a = distraction_index(bp(delta=0.0))
        b = distraction_index(bp(delta=1e6))
        assert a == b == 3.0

    def test_common_gain_invariance(self):
        base = bp(theta=4.2, alpha=1.3, beta=2.6, gamma=0.9)
        ref = distraction_index(base)
        for k in (1e-6, 0.5, 3.0, 1e6):
            scaled = bp(theta=4.2 * k, alpha=1.3 * k, beta=2.6 * k, gamma=0.9 * k)
            assert distraction_index(scaled) == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("band", ["alpha", "beta", "gamma"])
    def test_zero_denominator_names_band(self, band):
        powers = {"delta": 1.0, "theta": 1.0, "alpha": 1.0, "beta": 1.0, "gamma": 1.0}
        powers[band] = 0.0
        with pytest.raises(UndefinedIndexError) as exc:
            distraction_index(BandPowers(**powers))
        assert exc.value.band == band
        assert exc.value.value == 0.0
        assert band in str(exc.value)

    def test_zero_theta_is_fine(self):
        assert distraction_index(bp(theta=0.0)) == 2.0


class TestDiValue:
    """The scalar DI is ``di_rows``' value for the same row, bit for bit."""

    def test_equals_di_rows_on_random_rows(self):
        rows = np.random.default_rng(37).lognormal(0.0, 4.0, size=(5000, 5))
        got = np.array([di_value(row) for row in rows.tolist()])
        assert got.tobytes() == di_rows(rows).tobytes()

    def test_equals_di_rows_on_zero_nan_and_infinite_powers(self):
        special = [0.0, -0.0, -1.0, 5e-324, 1e300, math.nan, math.inf, -math.inf]
        rng = np.random.default_rng(38)
        rows = []
        for col in range(1, 5):  # theta, alpha, beta, gamma
            for value in special:
                for _ in range(5):
                    row = rng.lognormal(0.0, 2.0, size=5)
                    row[col] = value
                    rows.append(row)
        for _ in range(500):  # several special values in one row
            row = rng.lognormal(0.0, 2.0, size=5)
            cols = rng.choice(5, size=int(rng.integers(2, 5)), replace=False)
            row[cols] = rng.choice(special, size=cols.size)
            rows.append(row)
        rows = np.array(rows)
        with np.errstate(over="ignore", invalid="ignore"):  # 1/5e-324, inf - inf
            want = di_rows(rows)
        got = np.array([di_value(row) for row in rows.tolist()])
        assert np.isnan(want).any() and np.isinf(want).any()
        assert got.tobytes() == want.tobytes()

    def test_distraction_index_is_the_scalar_di(self):
        powers = bp(theta=4.2, alpha=1.3, beta=2.6, gamma=0.9)
        assert distraction_index(powers) == di_value(powers.as_tuple())
        assert type(distraction_index(powers)) is float


def labeled(task, theta):
    return task, bp(theta=theta)


class TestRankTasks:
    def test_orders_by_mean_descending(self):
        rows = [
            labeled(TaskLabel.READ, 1.0),
            labeled(TaskLabel.TEXT, 3.0),
            labeled(TaskLabel.CALL, 2.0),
            labeled(TaskLabel.SNAPSHOT, 4.0),
        ]
        ranking = rank_tasks(rows)
        assert ranking.order == (TaskLabel.SNAPSHOT, TaskLabel.TEXT,
                                 TaskLabel.CALL, TaskLabel.READ)
        assert ranking.entries[0][1] == pytest.approx(4.0 + 2.0)
        assert not ranking.has_ties
        assert ranking.base_mean is None

    def test_means_average_multiple_trials(self):
        rows = [
            labeled(TaskLabel.READ, 1.0), labeled(TaskLabel.READ, 3.0),
            labeled(TaskLabel.TEXT, 10.0),
            labeled(TaskLabel.CALL, 0.5),
            labeled(TaskLabel.SNAPSHOT, 0.25),
        ]
        ranking = rank_tasks(rows)
        means = dict(ranking.entries)
        assert means[TaskLabel.READ] == pytest.approx(2.0 + 2.0)

    def test_exact_ties_keep_enum_order_and_are_reported(self):
        rows = [
            labeled(TaskLabel.SNAPSHOT, 1.0),
            labeled(TaskLabel.CALL, 1.0),
            labeled(TaskLabel.TEXT, 5.0),
            labeled(TaskLabel.READ, 1.0),
        ]
        ranking = rank_tasks(rows)
        assert ranking.order == (TaskLabel.TEXT, TaskLabel.READ,
                                 TaskLabel.CALL, TaskLabel.SNAPSHOT)
        assert ranking.has_ties
        assert ranking.tied_groups == ((TaskLabel.READ, TaskLabel.CALL,
                                        TaskLabel.SNAPSHOT),)

    def test_base_mean_reported_but_not_ranked(self):
        rows = [
            labeled(TaskLabel.BASE, 0.0),
            labeled(TaskLabel.BASE, 1.0),
            labeled(TaskLabel.READ, 1.0),
            labeled(TaskLabel.TEXT, 2.0),
            labeled(TaskLabel.CALL, 3.0),
            labeled(TaskLabel.SNAPSHOT, 4.0),
        ]
        ranking = rank_tasks(rows)
        assert TaskLabel.BASE not in ranking.order
        # theta 0.0 -> DI 2.0; theta 1.0 -> DI 3.0
        assert ranking.base_mean == pytest.approx(2.5)

    def test_missing_task_raises_coverage_error(self):
        rows = [
            labeled(TaskLabel.READ, 1.0),
            labeled(TaskLabel.TEXT, 2.0),
            labeled(TaskLabel.CALL, 3.0),
        ]
        with pytest.raises(CoverageError) as exc:
            rank_tasks(rows)
        assert "Snapshot" in str(exc.value)

    def test_empty_input_raises(self):
        with pytest.raises(CoverageError):
            rank_tasks([])

    def test_non_tasklabel_rejected(self):
        with pytest.raises(ValidationError):
            rank_tasks([("Read", bp())])

    def test_ranking_is_frozen(self):
        rows = [labeled(t, 1.0) for t in (TaskLabel.READ, TaskLabel.TEXT,
                                          TaskLabel.CALL, TaskLabel.SNAPSHOT)]
        ranking = rank_tasks(rows)
        assert isinstance(ranking, TaskRanking)
        with pytest.raises(AttributeError):
            ranking.entries = ()
