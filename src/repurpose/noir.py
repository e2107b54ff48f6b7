"""Ontology-label retrieval: reference label sets and document scoring.

Given a target, the high-activity compounds below a potency threshold form
the relevant set.  Each candidate label is scored by how far its observed
count in that set departs from the count expected from its corpus-wide
frequency (a chi-square-style statistic); the top-scoring labels form a
human-editable reference set.  Every other compound in the corpus is then
scored against that reference set and ranked, and rankings retrieved under
two different label sources can be intersected into a consensus set.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, NoRelevantCompoundsError
from .ranking import top_columns
from .tsv import _tsv_chunks, write_tsv

log = logging.getLogger(__name__)

# The defaults mirror a high-potency screen: sub-30 nM actives, labels seen
# in more than one active compound, a 200K corpus-count noise cap, 20 labels.
DEFAULT_ACTIVITY_TYPE = "EC50"
DEFAULT_THRESHOLD_NM = 30.0
DEFAULT_NOISE_CAP = 200_000
DEFAULT_MIN_RELEVANT_COUNT = 2
DEFAULT_SET_SIZE = 20
DEFAULT_TOP_N = 100


@dataclass(frozen=True)
class ReferenceSetConfig:
    """Parameters controlling reference-set construction for one target."""

    target: str
    source: str
    activity_type: str = DEFAULT_ACTIVITY_TYPE
    activity_threshold_nm: float = DEFAULT_THRESHOLD_NM
    noise_cap: int = DEFAULT_NOISE_CAP
    min_relevant_count: int = DEFAULT_MIN_RELEVANT_COUNT
    set_size: int = DEFAULT_SET_SIZE

    def __post_init__(self):
        if not self.source:
            raise ValueError("source must be a non-empty string")
        if not self.activity_threshold_nm > 0:
            raise ValueError("activity_threshold_nm must be positive")
        if self.noise_cap < 1:
            raise ValueError("noise_cap must be a positive integer")
        if self.min_relevant_count < 2:
            raise ValueError("min_relevant_count must be >= 2")
        if self.set_size < 1:
            raise ValueError("set_size must be a positive integer")


@dataclass(frozen=True)
class ScoredLabel:
    """One reference label with its counts and score.

    observed: count among the relevant (high-activity) compounds.
    expected: count expected from corpus frequency, C * N_relevant / N_corpus.
    corpus_count: distinct compounds carrying the label corpus-wide.
    """

    label: str
    observed: int
    expected: float
    corpus_count: int
    score: float


@dataclass(frozen=True)
class ReferenceLabelSet:
    """Scored, ranked labels for one target query under one source.

    `no_candidates` is set when the relevant set was non-empty but every
    label failed the min-count or noise-cap filter.
    """

    config: ReferenceSetConfig
    relevant: frozenset[str]
    n_corpus: int
    labels: tuple[ScoredLabel, ...]
    no_candidates: bool = False

    @property
    def source(self):
        return self.config.source

    @property
    def n_relevant(self):
        return len(self.relevant)

    def __len__(self):
        return len(self.labels)

    def __iter__(self):
        return iter(self.labels)


@dataclass(frozen=True)
class RankedCompound:
    """One retrieved document: its score, total label count L, and the
    reference labels it matched."""

    compound: str
    score: float
    n_labels: int
    matched: tuple[str, ...]


@dataclass(frozen=True)
class RetrievalResult:
    """Ranked retrieval output; `excluded` is the exclusion set actually
    applied (intersection with the corpus)."""

    entries: tuple[RankedCompound, ...]
    excluded: frozenset[str]
    source: str

    def compound_ids(self):
        return [e.compound for e in self.entries]

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)


def _row_columns(matrix, rows):
    """(columns, lengths): the column indices of `rows` of a CSR, row after
    row, and how many each row has."""
    starts = matrix.indptr[rows]
    lengths = matrix.indptr[rows + 1] - starts
    offsets = np.cumsum(lengths) - lengths
    gather = np.repeat(starts - offsets, lengths) + np.arange(lengths.sum())
    return matrix.indices[gather], lengths


def build_reference_set(corpus, config):
    """Construct the scored reference label set for `config.target`.

    The relevant set is every compound with a record of the configured
    activity type strictly below the threshold.  Candidate labels must be
    carried by at least `min_relevant_count` relevant compounds and by no
    more than `noise_cap` compounds corpus-wide; the `set_size` highest
    scoring candidates are kept, ties broken by higher observed count and
    then label name.

    A label with observed count O among N_relevant relevant compounds and
    corpus count C among N_corpus scores (O - E)^2 / E, with the expected
    count E = C * N_relevant / N_corpus: 0 when the observed count matches
    expectation, and growing for enriched and depleted labels alike.  All
    candidates are scored at once; the integer product C * N_relevant is
    exact, so each float is the one the scalar formula gives.
    """
    rows = corpus._relevant_rows(
        config.target, config.activity_type, config.activity_threshold_nm)
    if not rows.size:
        raise NoRelevantCompoundsError(
            f"no compound has {config.activity_type} < "
            f"{config.activity_threshold_nm} nM for target {config.target!r}")

    ids = corpus.compound_ids()
    relevant = frozenset([ids[i] for i in rows.tolist()])
    n_corpus = corpus.n_compounds
    index = corpus.label_index(config.source)
    columns, _ = _row_columns(index.matrix, rows)
    observed = np.bincount(columns, minlength=len(index.labels))
    candidates = np.flatnonzero((observed >= config.min_relevant_count)
                                & (index.counts <= config.noise_cap))
    if not candidates.size:
        log.warning(
            "no label passed the min-count/noise-cap filters for target %s "
            "under source %s", config.target, config.source)
        return ReferenceLabelSet(
            config, relevant, n_corpus, (), no_candidates=True)

    observed = observed[candidates]
    counts = index.counts[candidates]
    expected = counts * len(rows) / n_corpus
    diff = observed - expected
    scores = diff * diff / expected
    # a rule of its own, not `top_columns`: equal scores rank by higher O
    # first.  Columns are in label order, so the stable sort breaks the last
    # ties by label name
    kept = np.lexsort((-observed, -scores))[:config.set_size]
    labels = tuple(map(
        ScoredLabel, map(index.labels.__getitem__, candidates[kept].tolist()),
        observed[kept].tolist(), expected[kept].tolist(),
        counts[kept].tolist(), scores[kept].tolist()))
    return ReferenceLabelSet(config, relevant, n_corpus, labels)


def retrieve(corpus, reference_set, exclude=frozenset(), top_n=DEFAULT_TOP_N):
    """Score every corpus compound outside `exclude` and rank the top `top_n`.

    Ids in `exclude` that the corpus lacks are ignored, so the result's
    `excluded` is the intersection of `exclude` with the corpus.

    A compound's score is the sum of the reference scores of its labels
    divided by L, the number of labels it carries under the reference
    source: labels outside the reference set count toward L, so
    promiscuously labeled compounds are diluted.  Zero-scoring compounds
    (unlabeled, unmatched, or matched scores summing to 0) are omitted.
    The rest are ranked by `ranking.top_columns` over the corpus rows, which
    are in compound id order.

    All documents are scored at once as (B @ w) / L, with B the source's
    compound x label matrix and w the reference score of each label column.
    The matvec adds a row's terms in column order, which is sorted label
    order, so each score is the same float as summing one compound's
    matched scores in label order (`tests/helpers.py::doc_score`).
    """
    if top_n < 1:
        raise ValueError("top_n must be >= 1")
    source = reference_set.source
    index = corpus.label_index(source)
    weights = np.zeros(len(index.labels))
    in_reference = np.zeros(len(index.labels), dtype=bool)
    for scored in reference_set:
        j = index.column.get(scored.label)
        if j is not None:
            weights[j] = scored.score
            in_reference[j] = True

    matrix = index.matrix
    n_labels = np.diff(matrix.indptr)
    totals = matrix @ weights
    scores = np.divide(totals, n_labels, out=np.zeros_like(totals),
                       where=n_labels > 0)
    rows = np.fromiter({*map(corpus._position.get, exclude)} - {None}, np.intp)
    scores[rows] = 0.0
    hits = np.flatnonzero(scores != 0.0)
    ranked = hits[top_columns(scores[hits], top_n)]

    # a ranked row has a nonzero score, so L > 0 and its last column is the
    # end of its slice of the matched labels
    columns, lengths = _row_columns(matrix, ranked)
    in_set = in_reference[columns]
    names = list(map(index.labels.__getitem__, columns[in_set].tolist()))
    ends = np.cumsum(in_set)[np.cumsum(lengths) - 1].tolist()
    matched = [tuple(names[lo:hi]) for lo, hi in zip([0] + ends, ends)]
    ids = corpus.compound_ids().__getitem__
    entries = tuple(map(RankedCompound, map(ids, ranked.tolist()),
                        scores[ranked].tolist(), lengths.tolist(), matched))
    return RetrievalResult(entries, frozenset(map(ids, rows.tolist())), source)


def consensus(*results):
    """Compounds retrieved by every run (set intersection of the rankings)."""
    if not results:
        raise ValueError("consensus needs at least one retrieval result")
    return set(results[0].compound_ids()).intersection(
        *(result.compound_ids() for result in results[1:]))


# -- TSV import/export ------------------------------------------------------

_REFSET_COLUMNS = ("label", "source", "O", "E", "C", "score")
_REPORT_COLUMNS = ("rank", "compound_id", "score", "L", "matched_labels")


def write_reference_set(reference_set, path):
    """Write a reference set as an editable TSV query file."""
    write_tsv(path, _REFSET_COLUMNS, (
        (sl.label, reference_set.source, str(sl.observed), repr(sl.expected),
         str(sl.corpus_count), repr(sl.score))
        for sl in reference_set.labels))


def read_reference_set(path, target=""):
    """Read a (possibly hand-edited) reference-set TSV back for retrieval.

    Lines starting with '#' are comments only above the header row (or
    above the first data row when the header is left out); after it every
    non-blank line is a data row, so a label may start with '#'.  E and
    score must be finite.

    The returned set carries no relevant-set or corpus-size information
    (those are not part of the file format); it is sufficient for
    :func:`retrieve`.
    """
    labels = []
    source = None
    rows = ((lineno, row) for linenos, fields in
            _tsv_chunks(path, _REFSET_COLUMNS, header_required=False)
            for lineno, row in zip(linenos, zip(*fields)))
    for lineno, (label, row_source, o, e, c, score) in rows:
        if not row_source:
            raise FormatError(path, lineno, "empty source")
        if source is None:
            source = row_source
        elif row_source != source:
            raise FormatError(
                path, lineno,
                f"mixed sources in one reference set: {source!r} vs {row_source!r}")
        try:
            scored = ScoredLabel(label, int(o), float(e), int(c), float(score))
        except ValueError as exc:
            raise FormatError(path, lineno, f"bad numeric field: {exc}") from None
        if not (math.isfinite(scored.expected) and math.isfinite(scored.score)):
            raise FormatError(
                path, lineno, f"E and score must be finite, got {e!r}, {score!r}")
        labels.append(scored)
    if source is None:
        raise FormatError(path, 0, "reference set file has no label rows")
    config = ReferenceSetConfig(target=target, source=source)
    labels.sort(key=lambda sl: (-sl.score, -sl.observed, sl.label))
    return ReferenceLabelSet(config, frozenset(), 0, tuple(labels))


def write_retrieval_report(result, path):
    """Write a ranked retrieval as TSV (matched labels semicolon-joined)."""
    write_tsv(path, _REPORT_COLUMNS, (
        (str(rank), entry.compound, repr(entry.score), str(entry.n_labels),
         ";".join(entry.matched))
        for rank, entry in enumerate(result.entries, start=1)))
