import pytest
from hypothesis import settings

from helpers import write_corpus_files

from repurpose import load_corpus

# Property tests draw the same examples on every run (no example database
# either) and have no time limit per example, so a slow machine cannot make
# them fail.
settings.register_profile("repurpose", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("repurpose")


@pytest.fixture
def make_corpus(tmp_path):
    """Write corpus rows to disk and load them back through the real loader."""

    counter = {"n": 0}

    def _make(compounds, label_rows=(), activity_rows=()):
        counter["n"] += 1
        directory = tmp_path / f"corpus{counter['n']}"
        paths = write_corpus_files(directory, compounds, label_rows, activity_rows)
        return load_corpus(*paths)

    return _make


@pytest.fixture
def ranking_corpus(make_corpus):
    """Ten compounds, six relevant on target T; label scores tie in pairs.

    With N_corpus=10 and N_relevant=6: P and Q both score (1)^2/3 = 1/3
    (E = 5*6/10 = 3) but O_P=4 > O_Q=2; 'aaa' and 'zzz' both score
    0.6^2/2.4 = 0.15 with equal O=3, so the label name breaks the tie.
    """
    compounds = [f"r{i}" for i in range(1, 7)] + [f"n{i}" for i in range(1, 5)]
    label_rows = []
    for cid in ("r1", "r2", "r3", "r4", "n1"):
        label_rows.append((cid, "CF", "P"))
    for cid in ("r1", "r2", "n1", "n2", "n3"):
        label_rows.append((cid, "CF", "Q"))
    for cid in ("r1", "r2", "r3", "n1"):
        label_rows.append((cid, "CF", "aaa"))
    for cid in ("r4", "r5", "r6", "n2"):
        label_rows.append((cid, "CF", "zzz"))
    activity_rows = [(f"r{i}", "T", "EC50", 10.0) for i in range(1, 7)]
    activity_rows += [(f"n{i}", "T", "EC50", 100.0) for i in range(1, 5)]
    return make_corpus(compounds, label_rows, activity_rows)


@pytest.fixture
def retrieval_corpus(make_corpus):
    """Two relevant compounds plus six rankable ones, hand-scorable.

    N_corpus=8, N_relevant={r1, r2}; only label A passes the min-count
    filter (O=2, C=5) giving score (2 - 1.25)^2 / 1.25 = 0.45.  Doc scores:
    c1 {A} -> 0.45, c2 {A,B} -> 0.225, c5 {A,B,C,E} -> 0.1125; c3, c4
    match nothing and c6 has no labels at all.
    """
    compounds = ["r1", "r2", "c1", "c2", "c3", "c4", "c5", "c6"]
    labels = {
        "r1": "AB", "r2": "AC", "c1": "A", "c2": "AB",
        "c3": "BCD", "c4": "D", "c5": "ABCE",
    }
    label_rows = [(cid, "CF", letter)
                  for cid, letters in labels.items() for letter in letters]
    activity_rows = [
        ("r1", "T", "EC50", 10.0),
        ("r2", "T", "EC50", 20.0),
        ("c1", "T", "EC50", 50.0),
    ]
    return make_corpus(compounds, label_rows, activity_rows)
