"""`top_columns` against the plain-Python sort of `oracle_top_columns`."""

import numpy as np
import pytest

from helpers import oracle_top_columns

from repurpose import top_columns


def check(scores, k):
    got = top_columns(scores, k)
    assert got.tolist() == oracle_top_columns(scores.tolist(), k)
    return got


@pytest.mark.parametrize("seed", range(20))
def test_random_vectors_with_ties_and_minus_inf(seed):
    rng = np.random.default_rng(seed)
    for _ in range(25):
        n = int(rng.integers(0, 60))
        # few distinct integer scores, so most entries tie with another
        scores = rng.integers(-3, 4, size=n).astype(np.float64)
        scores[rng.random(n) < rng.random()] = -np.inf
        for k in (1, 2, 5, max(n, 1), n + 3):
            check(scores, k)


def test_ties_rank_lower_index_first():
    scores = np.array([1.0, 2.0, 2.0, 1.0, 2.0])
    assert check(scores, 5).tolist() == [1, 2, 4, 0, 3]


def test_minus_inf_is_never_ranked():
    scores = np.array([-np.inf, 0.0, -np.inf, -5.0])
    assert check(scores, 4).tolist() == [1, 3]


def test_all_minus_inf():
    assert check(np.full(6, -np.inf), 6).tolist() == []


def test_empty_vector():
    assert check(np.empty(0), 3).tolist() == []


def test_k_one():
    assert check(np.array([3.0, 7.0, 7.0, -np.inf]), 1).tolist() == [1]


def test_k_above_length_ranks_every_entry_once():
    scores = np.array([0.5, -1.0, 0.5, 2.0])
    assert check(scores, 10).tolist() == [3, 0, 2, 1]


def test_scores_are_left_as_they_are():
    scores = np.array([1.0, -np.inf, 3.0])
    before = scores.copy()
    top_columns(scores, 2)
    assert scores.tobytes() == before.tobytes()
