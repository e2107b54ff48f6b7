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

from .corpus import _tsv_chunks
from .errors import FormatError, NoRelevantCompoundsError

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

    def score_map(self):
        """{label: score} for document scoring."""
        return {sl.label: sl.score for sl in self.labels}

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


def term_score(observed, corpus_count, n_relevant, n_corpus):
    """Score one label: returns (expected, score).

    expected = corpus_count * n_relevant / n_corpus
    score    = (observed - expected)^2 / expected

    The score is 0 exactly when the observed count matches expectation, and
    grows for both enriched and depleted labels.
    """
    if n_corpus <= 0:
        raise ValueError("n_corpus must be positive (corpus is empty)")
    if corpus_count <= 0:
        raise ValueError("term absent from corpus (corpus count is 0)")
    if not 1 <= n_relevant <= n_corpus:
        raise ValueError(
            f"n_relevant must be in [1, n_corpus], got {n_relevant} of {n_corpus}")
    if not 0 <= observed <= n_relevant:
        raise ValueError(
            f"observed must be in [0, n_relevant], got {observed} of {n_relevant}")
    expected = corpus_count * n_relevant / n_corpus
    diff = observed - expected
    return expected, diff * diff / expected


def build_reference_set(corpus, config):
    """Construct the scored reference label set for `config.target`.

    The relevant set is every compound with a record of the configured
    activity type strictly below the threshold.  Candidate labels must be
    carried by at least `min_relevant_count` relevant compounds and by no
    more than `noise_cap` compounds corpus-wide; the `set_size` highest
    scoring candidates are kept, ties broken by higher observed count and
    then label name.
    """
    relevant = corpus.compounds_for_target(
        config.target, config.activity_type, config.activity_threshold_nm)
    if not relevant:
        raise NoRelevantCompoundsError(
            f"no compound has {config.activity_type} < "
            f"{config.activity_threshold_nm} nM for target {config.target!r}")

    n_relevant = len(relevant)
    n_corpus = corpus.n_compounds
    index = corpus.label_index(config.source)
    observed = np.bincount(index.matrix[corpus.positions(relevant)].indices,
                           minlength=len(index.labels))
    candidates = np.flatnonzero((observed >= config.min_relevant_count)
                                & (index.counts <= config.noise_cap))

    scored = []
    for j in candidates:
        count, corpus_count = int(observed[j]), int(index.counts[j])
        expected, score = term_score(count, corpus_count, n_relevant, n_corpus)
        scored.append(
            ScoredLabel(index.labels[j], count, expected, corpus_count, score))

    if not scored:
        log.warning(
            "no label passed the min-count/noise-cap filters for target %s "
            "under source %s", config.target, config.source)
        return ReferenceLabelSet(
            config, frozenset(relevant), n_corpus, (), no_candidates=True)

    scored.sort(key=lambda sl: (-sl.score, -sl.observed, sl.label))
    return ReferenceLabelSet(
        config, frozenset(relevant), n_corpus, tuple(scored[:config.set_size]))


def doc_score(compound_labels, reference_set):
    """Score one document (compound) against a reference set.

    Returns (score, L, matched) where L is the total number of labels the
    compound carries under the reference source.  Labels outside the
    reference set contribute 0 but still count toward L, so promiscuously
    labeled compounds are diluted.  A compound with no labels scores 0.
    """
    labels = frozenset(compound_labels)
    if not labels:
        return 0.0, 0, ()
    score_map = reference_set.score_map()
    matched = sorted(l for l in labels if l in score_map)
    total = 0.0
    for label in matched:
        total += score_map[label]
    return total / len(labels), len(labels), tuple(matched)


def retrieve(corpus, reference_set, exclude=frozenset(), top_n=DEFAULT_TOP_N):
    """Score every corpus compound outside `exclude` and rank the top `top_n`.

    Zero-scoring compounds (nothing matched) are omitted.  Ties are broken
    by compound id, so output is deterministic.

    All documents are scored at once as (B @ w) / L, with B the source's
    compound x label matrix, w the reference score of each label column and
    L the row lengths.  The matvec adds a row's terms in column order, which
    is sorted label order, so each score is the same float `doc_score`
    gives.
    """
    if top_n < 1:
        raise ValueError("top_n must be >= 1")
    source = reference_set.source
    index = corpus.label_index(source)
    weights = np.zeros(len(index.labels))
    in_reference = np.zeros(len(index.labels), dtype=bool)
    for label, score in reference_set.score_map().items():
        j = index.column.get(label)
        if j is not None:
            weights[j] = score
            in_reference[j] = True

    matrix = index.matrix
    n_labels = np.diff(matrix.indptr)
    totals = matrix @ weights
    scores = np.divide(totals, n_labels, out=np.zeros_like(totals),
                       where=n_labels > 0)
    excluded = frozenset(c for c in exclude if corpus.has_compound(c))
    scores[corpus.positions(excluded)] = 0.0
    hits = np.flatnonzero(scores != 0.0)
    ranked = hits[np.lexsort((hits, -scores[hits]))][:top_n]

    compounds = corpus.compound_ids()
    entries = []
    for row in ranked:
        lo, hi = matrix.indptr[row], matrix.indptr[row + 1]
        columns = matrix.indices[lo:hi]
        matched = tuple(index.labels[j] for j in columns[in_reference[columns]])
        entries.append(RankedCompound(
            compounds[row], float(scores[row]), int(n_labels[row]), matched))
    return RetrievalResult(
        entries=tuple(entries), excluded=excluded, source=source)


def consensus(*results):
    """Compounds retrieved by every run (set intersection of the rankings)."""
    if not results:
        raise ValueError("consensus needs at least one retrieval result")
    agreed = set(results[0].compound_ids())
    for result in results[1:]:
        agreed &= set(result.compound_ids())
    return agreed


# -- TSV import/export ------------------------------------------------------

_REFSET_COLUMNS = ("label", "source", "O", "E", "C", "score")
_REPORT_COLUMNS = ("rank", "compound_id", "score", "L", "matched_labels")


def write_reference_set(reference_set, path):
    """Write a reference set as an editable TSV query file."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(_REFSET_COLUMNS) + "\n")
        for sl in reference_set.labels:
            fh.write("\t".join((
                sl.label,
                reference_set.source,
                str(sl.observed),
                repr(sl.expected),
                str(sl.corpus_count),
                repr(sl.score),
            )) + "\n")


def read_reference_set(path, target=""):
    """Read a (possibly hand-edited) reference-set TSV back for retrieval.

    Lines starting with '#' are comments only above the header row (or
    above the first data row when the header is left out); after it every
    non-blank line is a data row, so a label may start with '#'.  E and
    score must be finite.

    The returned set carries no relevant-set or corpus-size information
    (those are not part of the file format); it is sufficient for
    :func:`doc_score` and :func:`retrieve`.
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
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(_REPORT_COLUMNS) + "\n")
        for rank, entry in enumerate(result.entries, start=1):
            fh.write("\t".join((
                str(rank),
                entry.compound,
                repr(entry.score),
                str(entry.n_labels),
                ";".join(entry.matched),
            )) + "\n")
