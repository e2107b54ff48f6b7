"""TSV-backed corpus of compounds, ontological labels, and activity records.

A corpus is built once from three flat files (compounds, labels, activities)
and is immutable afterwards, so concurrent readers need no locking.  Each
label source is held as one compound x label incidence matrix (a CSR whose
rows follow the sorted compound ids and whose columns are the source's
labels in sorted order, so every row's indices are sorted) together with
its column counts.  NOIR counts, document scores and the Jaccard
similarity graph all read that matrix; `labels_of` and the label counts are
views over it.  Activity values are aggregated to the most potent (minimum)
measurement per (compound, target, activity type) and held as one compound
x target CSR per type, plus its transpose; relevant sets, known targets,
record iteration and the interaction matrix all read it.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable

import numpy as np
import scipy.sparse as sp

from .errors import (
    FormatError,
    UnknownCompoundError,
    UnknownSourceError,
    UnknownTargetError,
)

# Well-known label sources. Any other non-empty string is accepted as a
# source name; these constants just cover the common ones.
CLASSYFIRE = "CF"
ONTOCHEM = "OC"
MORGAN = "MORGAN"

_COMPOUNDS_COLUMNS = ("compound_id", "smiles")
_LABELS_COLUMNS = ("compound_id", "source", "label")
_ACTIVITIES_COLUMNS = ("compound_id", "target_id", "activity_type", "value_nM")


@dataclass(frozen=True)
class ActivityRecord:
    """One aggregated activity measurement; value is in nanomolar."""

    compound: str
    target: str
    activity_type: str
    value_nm: float


def _iter_rows(path, columns, header_required):
    """Yield (lineno, fields) for the data rows of a TSV file.

    Blank lines are skipped; lines starting with '#' are comments only
    above the header row (or the first data row when the header is left
    out), so a field may start with '#'.  A header row matching `columns`
    (case-insensitive) is consumed when present; when `header_required` it
    must be the first non-comment line.
    """
    n_cols = len(columns)
    canonical = tuple(c.lower() for c in columns)
    preamble = True
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\r\n")
            if not line.strip() or (preamble and line.startswith("#")):
                continue
            fields = line.split("\t")
            if preamble:
                preamble = False
                if tuple(f.strip().lower() for f in fields) == canonical:
                    continue
                if header_required:
                    raise FormatError(
                        path, lineno,
                        "missing header row (expected %s)" % "<TAB>".join(columns))
            if len(fields) != n_cols:
                raise FormatError(
                    path, lineno,
                    f"expected {n_cols} tab-separated columns, got {len(fields)}")
            yield lineno, fields


@dataclass(frozen=True, eq=False)
class LabelIndex:
    """One source's compound x label incidence matrix.

    matrix: CSR of 1.0 entries, one row per corpus compound in
        `Corpus.compound_ids()` order, one column per label in `labels`
        order; indices are sorted within each row.
    labels: the source's distinct labels, sorted.
    column: {label: column index}.
    counts: number of compounds carrying each label (column counts).
    """

    matrix: sp.csr_matrix
    labels: tuple[str, ...]
    column: dict
    counts: np.ndarray

    @classmethod
    def build(cls, compound_ids, per_compound):
        """Intern labels in sorted order and lay out one CSR row per id."""
        labels = tuple(sorted(set().union(*per_compound.values())))
        column = {label: j for j, label in enumerate(labels)}
        indices, row_lengths = [], []
        for compound in compound_ids:
            row = sorted(column[label] for label in per_compound.get(compound, ()))
            indices.extend(row)
            row_lengths.append(len(row))
        indptr = np.concatenate(([0], np.cumsum(row_lengths, dtype=np.int64)))
        indices = np.asarray(indices, dtype=np.int64)
        matrix = sp.csr_matrix(
            (np.ones(len(indices)), indices, indptr),
            shape=(len(compound_ids), len(labels)))
        counts = np.bincount(matrix.indices, minlength=len(labels))
        return cls(matrix, labels, column, counts)

    def row_labels(self, row):
        """Labels of one matrix row, in sorted order."""
        lo, hi = self.matrix.indptr[row], self.matrix.indptr[row + 1]
        return [self.labels[j] for j in self.matrix.indices[lo:hi]]

    def __eq__(self, other):
        if not isinstance(other, LabelIndex):
            return NotImplemented
        return (self.labels == other.labels
                and np.array_equal(self.matrix.indptr, other.matrix.indptr)
                and np.array_equal(self.matrix.indices, other.matrix.indices))


class Corpus:
    """Immutable indexed view of compounds, labels, and activity records.

    Build one with :func:`load_corpus` (from files) or :meth:`Corpus.build`
    (from in-memory rows); both run the same validation and deduplication.
    """

    def __init__(self, smiles, label_sets, activity_values):
        # smiles: {compound_id: smiles_string}
        # label_sets: {source: {compound_id: set(labels)}}
        # activity_values: {(compound, target, type): min_value_nm}
        self._smiles = dict(smiles)
        self._compound_ids = tuple(sorted(self._smiles))
        self._position = {c: i for i, c in enumerate(self._compound_ids)}

        self._label_index = {
            source: LabelIndex.build(self._compound_ids, per_compound)
            for source, per_compound in label_sets.items()}
        self._sources = tuple(sorted(self._label_index))
        self._no_labels = LabelIndex(
            sp.csr_matrix((len(self._compound_ids), 0)), (), {},
            np.zeros(0, dtype=np.int64))

        # one compound x target CSR of nM values per activity type (columns
        # shared by all types), and its transpose for per-target access
        self._target_ids = tuple(sorted({t for _, t, _ in activity_values}))
        self._column = {t: j for j, t in enumerate(self._target_ids)}
        types = sorted({atype for _, _, atype in activity_values})
        code = {atype: k for k, atype in enumerate(types)}
        n = len(activity_values)
        rows, cols, codes = (
            np.fromiter((index[key[field]] for key in activity_values), np.intp, n)
            for field, index in enumerate((self._position, self._column, code)))
        values = np.fromiter(activity_values.values(), np.float64, n)
        shape = (len(self._compound_ids), len(self._target_ids))
        self._activity_index = {atype: sp.csr_matrix(
            (values[codes == k], (rows[codes == k], cols[codes == k])), shape=shape)
            for k, atype in enumerate(types)}
        self._activity_by_target = {atype: matrix.T.tocsr()
                                    for atype, matrix in self._activity_index.items()}
        self._no_activity = sp.csr_matrix(shape)

    # -- construction --------------------------------------------------

    @classmethod
    def build(cls, compounds, labels=(), activities=()):
        """Assemble a corpus from in-memory rows.

        compounds: iterable of compound ids or (id, smiles) pairs.
        labels: iterable of (compound_id, source, label).
        activities: iterable of (compound_id, target_id, activity_type, value_nm).

        Rows are checked as by :func:`load_corpus`; errors name the stream
        and the row's 1-based index, as in "labels:3".
        """
        compounds = ((cid, "") if isinstance(cid, str) else cid
                     for cid in compounds)
        return _ingest(("compounds", enumerate(compounds, start=1)),
                       ("labels", enumerate(labels, start=1)),
                       ("activities", enumerate(activities, start=1)))

    # -- compounds / targets -------------------------------------------

    @property
    def n_compounds(self):
        return len(self._smiles)

    def compound_ids(self):
        """All compound ids, sorted."""
        return self._compound_ids

    def has_compound(self, compound):
        return compound in self._position

    def positions(self, compounds):
        """Row of each compound in `compound_ids()` order, as an int array."""
        try:
            return np.fromiter((self._position[c] for c in compounds),
                               dtype=np.intp)
        except KeyError as exc:
            raise UnknownCompoundError(
                f"unknown compound {exc.args[0]!r}") from None

    def smiles_of(self, compound):
        try:
            return self._smiles[compound]
        except KeyError:
            raise UnknownCompoundError(f"unknown compound {compound!r}") from None

    def target_ids(self):
        """All target ids (a target exists iff it has an activity record)."""
        return self._target_ids

    # -- labels ----------------------------------------------------------

    def sources(self):
        """Label sources seen during ingestion, sorted."""
        return self._sources

    def label_index(self, source):
        """The compound x label incidence matrix of one source."""
        try:
            return self._label_index[source]
        except KeyError:
            # The well-known sources are always valid query targets, even in
            # a corpus where no label of theirs was ingested; only free-form
            # source names must have been seen to be queryable.
            if source in (CLASSYFIRE, ONTOCHEM, MORGAN):
                return self._no_labels
            raise UnknownSourceError(
                f"unknown label source {source!r}; corpus has {list(self._sources)!r}"
            ) from None

    def labels_of(self, compound, source):
        """Labels carried by `compound` under `source` (may be empty)."""
        index = self.label_index(source)
        if compound not in self._position:
            raise UnknownCompoundError(f"unknown compound {compound!r}")
        return frozenset(index.row_labels(self._position[compound]))

    def source_labels(self, source):
        """All distinct labels of one source, sorted."""
        return self.label_index(source).labels

    def label_count(self, source, label):
        """Corpus-wide count: number of distinct compounds carrying the label."""
        index = self.label_index(source)
        j = index.column.get(label)
        return 0 if j is None else int(index.counts[j])

    # -- activities -------------------------------------------------------

    @property
    def n_activity_records(self):
        return sum(matrix.nnz for matrix in self._activity_index.values())

    def activity_types(self):
        """Distinct activity type names present in the corpus, sorted."""
        return tuple(self._activity_index)

    def activity_matrix(self, activity_type):
        """Compound x target CSR of one activity type's aggregated nM values:
        rows follow `compound_ids()`, columns `target_ids()`.  A type the
        corpus lacks has no entries."""
        return self._activity_index.get(activity_type, self._no_activity)

    def iter_activities(self) -> Iterable[ActivityRecord]:
        """All aggregated activity records, in (compound, target, type) order."""
        entries = sorted(
            (i, j, atype, value) for atype, matrix in self._activity_index.items()
            for i, j, value in zip(*(a.tolist() for a in sp.find(matrix))))
        for i, j, atype, value in entries:
            yield ActivityRecord(self._compound_ids[i], self._target_ids[j],
                                 atype, value)

    def compounds_for_target(self, target, activity_type, max_value_nm=math.inf):
        """Compounds with a record for (target, activity_type) strictly below
        `max_value_nm`.  Passing +inf keeps every compound with any record of
        that type for the target."""
        j = self._column.get(target)
        if j is None:
            raise UnknownTargetError(f"unknown target {target!r}")
        by_target = self._activity_by_target.get(activity_type)
        if by_target is None:
            return set()
        lo, hi = by_target.indptr[j], by_target.indptr[j + 1]
        rows = by_target.indices[lo:hi][by_target.data[lo:hi] < max_value_nm]
        return {self._compound_ids[i] for i in rows.tolist()}

    def targets_of(self, compound, activity_type=None):
        """Targets with at least one record for `compound` (optionally of one type)."""
        i = self._position.get(compound)
        if i is None:
            raise UnknownCompoundError(f"unknown compound {compound!r}")
        if activity_type is None:
            return set().union(*(self.targets_of(compound, atype)
                                 for atype in self.activity_types()))
        matrix = self.activity_matrix(activity_type)
        row = matrix.indices[matrix.indptr[i]:matrix.indptr[i + 1]]
        return {self._target_ids[j] for j in row.tolist()}

    # -- misc --------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Corpus):
            return NotImplemented
        return (self._smiles == other._smiles
                and self._label_index == other._label_index
                and self._target_ids == other._target_ids
                and self.activity_types() == other.activity_types()
                and all((matrix != other._activity_index[atype]).nnz == 0
                        for atype, matrix in self._activity_index.items()))

    def __hash__(self):
        return object.__hash__(self)

    def __repr__(self):
        return (f"Corpus({self.n_compounds} compounds, "
                f"{len(self._target_ids)} targets, "
                f"{self.n_activity_records} activity records, "
                f"sources={list(self._sources)})")


def _unwritable(text):
    """True when `text` holds a tab, CR or LF, which no TSV field can carry."""
    return "\t" in text or "\r" in text or "\n" in text


def _ingest(compounds, labels, activities):
    """Check, deduplicate and index the three row streams of a corpus.

    Each stream is (where, rows), with `rows` yielding (lineno, fields);
    errors name both, so file rows report "path:lineno" and in-memory rows
    "labels:3".  Compound, source, target and activity-type fields are
    stripped; a legal field is then non-empty (smiles may be empty) and
    holds no tab, CR or LF, so every stored value can be written back out.
    A label or activity row's compound id is legal once it is known.
    Duplicate label rows collapse; duplicate activity rows for one
    (compound, target, type) keep the minimum value.
    """
    where, rows = compounds
    smiles = {}
    for lineno, (cid, smi) in rows:
        cid = cid.strip()
        if not cid or _unwritable(cid + smi):
            raise FormatError(where, lineno, "empty id or tab/CR/LF in "
                              f"compound row {(cid, smi)!r}")
        if cid in smiles and smiles[cid] != smi:
            raise FormatError(
                where, lineno,
                f"duplicate compound id {cid!r} with conflicting smiles")
        smiles[cid] = smi

    where, rows = labels
    label_sets = defaultdict(lambda: defaultdict(set))
    for lineno, (cid, source, label) in rows:
        cid, source = cid.strip(), source.strip()
        if not (cid and source and label) or _unwritable(source + label):
            raise FormatError(where, lineno, "empty field or tab/CR/LF in "
                              f"label row {(cid, source, label)!r}")
        if cid not in smiles:
            raise UnknownCompoundError(
                f"{where}:{lineno}: label references unknown compound {cid!r}")
        label_sets[source][cid].add(label)

    where, rows = activities
    activity_values = {}
    for lineno, (cid, tid, atype, raw_value) in rows:
        cid, tid, atype = cid.strip(), tid.strip(), atype.strip()
        if not (cid and tid and atype) or _unwritable(tid + atype):
            raise FormatError(where, lineno, "empty field or tab/CR/LF in "
                              f"activity row {(cid, tid, atype)!r}")
        try:
            value = float(raw_value)
        except (TypeError, ValueError):
            value = math.nan
        if not math.isfinite(value) or value <= 0:
            raise FormatError(
                where, lineno, "activity value must be a finite positive "
                f"number, got {raw_value!r}")
        if cid not in smiles:
            raise UnknownCompoundError(
                f"{where}:{lineno}: activity references unknown compound {cid!r}")
        key = (cid, tid, atype)
        if value < activity_values.get(key, math.inf):
            activity_values[key] = value

    return Corpus(smiles, label_sets, activity_values)


def load_corpus(compounds_path, labels_path, activities_path):
    """Load and index a corpus from its three TSV files.

    Duplicate (compound, source, label) rows collapse to one; duplicate
    activity rows for the same (compound, target, type) collapse to the
    minimum (most potent) value.  Raises FormatError with a line number on
    malformed rows, and UnknownCompoundError when a label or activity row
    references a compound missing from the compounds file.
    """
    return _ingest(
        (compounds_path, _iter_rows(
            compounds_path, _COMPOUNDS_COLUMNS, header_required=True)),
        (labels_path, _iter_rows(
            labels_path, _LABELS_COLUMNS, header_required=False)),
        (activities_path, _iter_rows(
            activities_path, _ACTIVITIES_COLUMNS, header_required=False)))
