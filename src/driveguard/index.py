"""Distraction Index: a per-window severity score from band-power ratios.

DI = theta/alpha + alpha/beta + beta/gamma. Delta is deliberately left
out. Being a sum of ratios, the score cancels any gain factor common to
all bands, so electrode coupling and broadband artifacts shift it far
less than they shift absolute powers.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .model import DISTRACTION_TASKS, BandPowers, TaskLabel


class UndefinedIndexError(ValidationError):
    """A ratio denominator is not strictly positive."""

    def __init__(self, band, value):
        self.band = band
        self.value = value
        super().__init__(
            f"distraction index undefined: band {band} power must be > 0, got {value}"
        )


class CoverageError(ValidationError):
    """The trial collection does not cover every distraction task."""


def distraction_index(bp: BandPowers) -> float:
    for band in ("alpha", "beta", "gamma"):
        v = getattr(bp, band)
        if not v > 0.0:
            raise UndefinedIndexError(band, v)
    return float(di_value(bp.as_tuple()))


def di_value(powers) -> float:
    """The DI of one row of five band powers, as ``di_rows`` gives it for
    that row: the same three divisions and two sums in the same order, each
    denominator that is not > 0 replaced by NaN. The two agree bit for bit
    unless a power is itself a NaN with its sign bit set, which may flip
    the sign of a NaN result."""
    _, theta, alpha, beta, gamma = powers
    nan = math.nan
    return (theta / (alpha if alpha > 0.0 else nan) + alpha / (beta if beta > 0.0 else nan)
            + beta / (gamma if gamma > 0.0 else nan))


def di_rows(powers) -> np.ndarray:
    """The DI of each row of an ``(m, 5)`` band-power array, NaN where
    ``distraction_index`` raises; a NaN denominator keeps division quiet."""
    powers = np.asarray(powers)
    high = powers[:, 2:]
    # theta/alpha, alpha/beta, beta/gamma
    ratios = powers[:, 1:4] / np.where(high > 0.0, high, np.nan)
    return ratios[:, 0] + ratios[:, 1] + ratios[:, 2]


@dataclass(frozen=True)
class TaskRanking:
    """Distraction tasks ordered by mean DI, highest first.

    entries is a tuple of (TaskLabel, mean_di). Tasks whose means are
    exactly equal keep task-enum order and are listed in tied_groups so
    callers never mistake an arbitrary order for a real one. The Base
    condition never participates in the ranking; its mean (when Base
    trials were supplied) is reported separately.
    """

    entries: tuple
    tied_groups: tuple
    base_mean: float | None

    @property
    def order(self):
        return tuple(task for task, _ in self.entries)

    @property
    def has_ties(self):
        return bool(self.tied_groups)


def rank_tasks(labeled_band_powers) -> TaskRanking:
    """Rank distraction tasks by mean DI over their trials.

    Input is an iterable of (TaskLabel, BandPowers) pairs. Every
    distraction task needs at least one trial; Base trials are optional
    and only feed the separately-reported base mean.
    """
    sums = {t: 0.0 for t in TaskLabel}
    counts = {t: 0 for t in TaskLabel}
    for task, bp in labeled_band_powers:
        if not isinstance(task, TaskLabel):
            raise ValidationError(f"labels must be TaskLabel, got {task!r}")
        sums[task] += distraction_index(bp)
        counts[task] += 1

    missing = [t.value for t in DISTRACTION_TASKS if counts[t] == 0]
    if missing:
        raise CoverageError(
            f"no trials for distraction task(s): {', '.join(missing)}"
        )

    means = {t: sums[t] / counts[t] for t in DISTRACTION_TASKS}
    # descending by mean; the sort is stable, so equal means keep enum order
    ordered = sorted(means, key=lambda t: -means[t])
    entries = tuple((t, means[t]) for t in ordered)
    groups = (tuple(g) for _, g in itertools.groupby(ordered, key=means.get))
    tied_groups = [group for group in groups if len(group) > 1]

    base_mean = sums[TaskLabel.BASE] / counts[TaskLabel.BASE] if counts[TaskLabel.BASE] else None
    return TaskRanking(entries=entries, tied_groups=tuple(tied_groups), base_mean=base_mean)
