"""The one ranking rule that both pipelines end in.

NOIR ranks compounds for a target and the factor models rank targets for a
compound; `recommend`, recall-at-k and `retrieve` all take their ranking
from `top_columns`.
"""

from __future__ import annotations

import numpy as np


def top_columns(scores, k):
    """Indices of the `k` highest entries of the 1-D float array `scores`,
    highest first.

    Equal scores rank by lower index, and an entry of `-inf` is never
    ranked, so fewer than `k` indices come back when fewer than `k` entries
    are above `-inf`.  Callers push an entry out of the ranking by setting
    it to `-inf`.
    """
    order = np.argsort(-scores, kind="stable")[:k]
    return order[scores[order] != -np.inf]
