"""Rank assignment shared by the metric and test code."""

import numpy as np


def midranks(values) -> np.ndarray:
    """Ranks 1..n with tied values sharing the mean of their positions.

    Ties are the runs of equal values in sorted order: NaN equals nothing,
    so each NaN has a rank of its own, and -0.0 ties with 0.0. The run at
    sorted positions i to j shares 0.5 * (i + j) + 1, a half-integer.
    """
    values = np.asarray(values, dtype=np.float64)
    order = np.argsort(values, kind="stable")
    sv = values[order]
    starts = np.flatnonzero(np.concatenate(([True], sv[1:] != sv[:-1])))
    stops = np.append(starts[1:], values.size)
    ranks = np.empty(values.size)
    ranks[order] = np.repeat(0.5 * (starts + stops - 1) + 1.0, stops - starts)
    return ranks
