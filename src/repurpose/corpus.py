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
x target CSR per type; known targets and the interaction matrix read it.
Its transpose serves the relevant-set query, which returns corpus rows
(`compounds_for_target` gives their ids).  One map takes an id to its row
and reports an id the corpus lacks.

Files are read by `repurpose.tsv` in chunks of text, each split into
columns.  A column becomes int32 codes in one C-level pass of lookups in a
dict that strips, checks and interns a field the first time it is seen, so
Python-level work grows with the distinct ids, labels and targets, not with
the rows.  The codes fill arrays allocated once per file, from which the
CSRs are sorted.  Each source's or type's entries get one cell key each,
row * columns + column, which is int32 unless the matrix has more cells
than int32 holds.  A group's keys are sorted in place: with its values by
one stable argsort for an activity type, and by a plain sort for a label
incidence matrix, whose values are all 1.  `Corpus.build` runs in-memory
rows through the same path as one chunk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import (
    FormatError,
    UnknownCompoundError,
    UnknownSourceError,
    UnknownTargetError,
)
from .tsv import _line_bound, _tsv_chunks, _unwritable

# Well-known label sources. Any other non-empty string is accepted as a
# source name; these constants just cover the common ones.
CLASSYFIRE = "CF"
ONTOCHEM = "OC"
MORGAN = "MORGAN"

_COMPOUNDS_COLUMNS = ("compound_id", "smiles")
_LABELS_COLUMNS = ("compound_id", "source", "label")
_ACTIVITIES_COLUMNS = ("compound_id", "target_id", "activity_type", "value_nM")


def _read_tsv(path, columns, header_required):
    """(bound, chunks) for a TSV file: `bound` is at least its number of data
    rows, and `chunks` yields them as :func:`_tsv_chunks` does."""
    return _line_bound(path), _tsv_chunks(path, columns, header_required)


def _memory_rows(rows, n_cols):
    """(bound, chunks) for in-memory rows, as :func:`_read_tsv` gives for a
    file: one chunk, rows numbered from 1."""
    rows = list(map(tuple, rows))
    if set(map(len, rows)) - {n_cols}:
        raise ValueError(f"every row must have {n_cols} fields")
    fields = list(zip(*rows)) if rows else [()] * n_cols
    return len(rows), iter([(range(1, len(rows) + 1), fields)])


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

    def row_labels(self, row):
        """Labels of one matrix row, in sorted order."""
        lo, hi = self.matrix.indptr[row], self.matrix.indptr[row + 1]
        return [self.labels[j] for j in self.matrix.indices[lo:hi]]


class _Rows(dict):
    """{compound id: row}: looking up an id the corpus lacks raises
    `UnknownCompoundError` (a C-level map of lookups too); `get` gives None."""

    def __missing__(self, compound):
        raise UnknownCompoundError(f"unknown compound {compound!r}")


class Corpus:
    """Immutable indexed view of compounds, labels, and activity records.

    Build one with :func:`load_corpus` (from files) or :meth:`Corpus.build`
    (from in-memory rows); both run the same validation and deduplication.
    """

    def __init__(self, smiles, label_index, target_ids, activity_index):
        # smiles: {compound_id: smiles_string}, in sorted id order
        # label_index: {source: LabelIndex}, rows in that order
        # target_ids: sorted tuple; activity_index: {type: compound x target
        # CSR of nM values} in sorted type order, columns shared by all types
        self._smiles = tuple(smiles.values())
        self._compound_ids = tuple(smiles)
        self._position = _Rows(zip(self._compound_ids, range(len(smiles))))

        self._label_index = label_index
        self._sources = tuple(sorted(label_index))
        self._no_labels = LabelIndex(
            sp.csr_matrix((len(self._compound_ids), 0)), (), {},
            np.zeros(0, dtype=np.int64))

        self._target_ids = target_ids
        self._column = {t: j for j, t in enumerate(target_ids)}
        self._activity_index = activity_index
        # each target's records in one slice, for `_relevant_rows`
        self._activity_by_target = {atype: matrix.T.tocsr()
                                    for atype, matrix in activity_index.items()}
        self._no_activity = sp.csr_matrix(
            (len(self._compound_ids), len(target_ids)))

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
        return _ingest(("compounds", lambda: _memory_rows(compounds, 2)),
                       ("labels", lambda: _memory_rows(labels, 3)),
                       ("activities", lambda: _memory_rows(activities, 4)))

    # -- compounds / targets -------------------------------------------

    @property
    def n_compounds(self):
        return len(self._compound_ids)

    def compound_ids(self):
        """All compound ids, sorted."""
        return self._compound_ids

    def positions(self, compounds):
        """Row of each compound in `compound_ids()` order, as an int array."""
        return np.fromiter(map(self._position.__getitem__, compounds),
                           dtype=np.intp)

    def smiles_of(self, compound):
        return self._smiles[self._position[compound]]

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

    def _relevant_rows(self, target, activity_type, max_value_nm):
        """Rows of the compounds with a record for (target, activity_type)
        strictly below `max_value_nm`, in row order, as an int array."""
        j = self._column.get(target)
        if j is None:
            raise UnknownTargetError(f"unknown target {target!r}")
        by_target = self._activity_by_target.get(activity_type)
        if by_target is None:
            return np.zeros(0, dtype=np.intp)
        lo, hi = by_target.indptr[j], by_target.indptr[j + 1]
        return by_target.indices[lo:hi][by_target.data[lo:hi] < max_value_nm]

    def compounds_for_target(self, target, activity_type, max_value_nm=math.inf):
        """Compounds with a record for (target, activity_type) strictly below
        `max_value_nm`.  Passing +inf keeps every compound with any record of
        that type for the target."""
        rows = self._relevant_rows(target, activity_type, max_value_nm)
        return {self._compound_ids[i] for i in rows.tolist()}

    def targets_of(self, compound, activity_type=None):
        """Targets with at least one record for `compound` (optionally of one type)."""
        i = self._position[compound]
        if activity_type is None:
            return set().union(*(self.targets_of(compound, atype)
                                 for atype in self.activity_types()))
        matrix = self.activity_matrix(activity_type)
        row = matrix.indices[matrix.indptr[i]:matrix.indptr[i + 1]]
        return {self._target_ids[j] for j in row.tolist()}

    # -- misc --------------------------------------------------------------

    def __repr__(self):
        return (f"Corpus({self.n_compounds} compounds, "
                f"{len(self._target_ids)} targets, "
                f"{self.n_activity_records} activity records, "
                f"sources={list(self._sources)})")


# Codes of rejected fields; every legal field's code is >= 0.
_BAD = -1  # empty after stripping, or holding a tab, CR or LF
_UNKNOWN = -2  # a compound id that the compounds stream lacks


class _Vocabulary(dict):
    """{raw field: code} for one column of free values.

    A field is stripped (when `strip`) and checked the first time it is
    seen: an empty value or one holding a tab, CR or LF gets `_BAD`, any
    other the index of its value in order of first appearance.  Coding a
    column is then one C-level pass of dict lookups, and Python runs once
    per distinct field, not once per row.
    """

    def __init__(self, strip):
        super().__init__()
        self._strip = strip
        self._values = {}  # value -> code

    def __missing__(self, field):
        value = field.strip() if self._strip else field
        if not value or _unwritable(value):
            code = _BAD
        else:
            code = self._values.setdefault(value, len(self._values))
        self[field] = code
        return code

    def ranked(self):
        """(the distinct values, sorted; the rank of each code in that order
        as an int32 array)."""
        values = sorted(self._values)
        rank = np.empty(len(values), dtype=np.int32)
        rank[[self._values[v] for v in values]] = np.arange(len(values))
        return values, rank

    def by_value(self):
        """(value, code) pairs in sorted value order."""
        return sorted(self._values.items())


class _CompoundCodes(dict):
    """{raw compound field: row of its stripped id}, `_BAD` for an empty id
    and `_UNKNOWN` for an id the corpus lacks."""

    def __init__(self, position):
        super().__init__()
        self._position = position

    def __missing__(self, field):
        cid = field.strip()
        code = self[field] = self._position.get(cid, _UNKNOWN) if cid else _BAD
        return code


def _fill_codes(block, columns, coders):
    """Fill each row of `block` with the codes of one column, the first
    being compound codes; return the masks of the rows holding a `_BAD`
    field and of those naming an `_UNKNOWN` compound."""
    for out, column, coder in zip(block, columns, coders):
        out[:] = np.fromiter(map(coder.__getitem__, column), np.int32, len(out))
    return (block == _BAD).any(axis=0), block[0] == _UNKNOWN


def _first(mask):
    """Index of the first True entry of `mask`, or None."""
    return int(mask.argmax()) if mask.any() else None


def _cell_keys(rows, cols, shape):
    """The cell key row * shape[1] + col of each entry: int32 when every
    cell of `shape` has an int32 key, else int64."""
    n_rows, n_cols = shape
    wide = n_rows * n_cols > np.iinfo(np.int32).max
    key = np.multiply(rows, n_cols, dtype=np.int64 if wide else np.int32)
    key += cols
    return key


def _min_csr(key, values, shape):
    """CSR of the entries with cell keys `key` (see `_cell_keys`) and
    values `values`, or 1.0 each when `values` is None, with indices sorted
    in each row; a repeated cell keeps its smallest value.  `key` and
    `values` are sorted in place."""
    n_rows, n_cols = shape
    if values is None:
        key.sort()
    else:
        order = np.argsort(key, kind="stable")
        key[:] = key[order]
        values[:] = values[order]
        del order
    first = np.empty(len(key), dtype=bool)
    first[:1] = True
    np.not_equal(key[1:], key[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    del first
    cells = key[starts]
    data = (np.ones(len(cells)) if values is None
            else np.minimum.reduceat(values, starts))
    del starts
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(cells // n_cols, minlength=n_rows), out=indptr[1:])
    return sp.csr_matrix((data, cells % n_cols, indptr), shape=shape)


def _ingest(compounds, labels, activities):
    """Check, deduplicate and index the three row streams of a corpus.

    Each stream is (where, read): `read()` gives (bound, chunks) as
    :func:`_read_tsv` does, and errors name `where` and the row's line, so
    file rows report "path:lineno" and in-memory rows "labels:3".  Compound,
    source, target and activity-type fields are stripped; a legal field is
    then non-empty (smiles may be empty) and holds no tab, CR or LF, so
    every stored value can be written back out.  A label or activity row's
    compound id is legal once it is known.  Duplicate label rows collapse;
    duplicate activity rows for one (compound, target, type) keep the
    minimum value.  The first bad row of a stream is the one reported, and
    within a row the fields are checked before the value, and the value
    before the compound.
    """
    smiles = _ingest_compounds(*compounds)
    compound = _CompoundCodes({c: i for i, c in enumerate(smiles)})
    label_index = _ingest_labels(*labels, compound, len(smiles))
    target_ids, activity_index = _ingest_activities(
        *activities, compound, len(smiles))
    return Corpus(smiles, label_index, target_ids, activity_index)


def _ingest_compounds(where, read):
    """{compound_id: smiles} of the compounds stream, in sorted id order."""
    smiles = {}
    _, chunks = read()
    for linenos, (cids, smis) in chunks:
        for lineno, cid, smi in zip(linenos, cids, smis):
            cid = cid.strip()
            if not cid or _unwritable(cid + smi):
                raise FormatError(where, lineno, "empty id or tab/CR/LF in "
                                  f"compound row {(cid, smi)!r}")
            if smiles.setdefault(cid, smi) != smi:
                raise FormatError(
                    where, lineno,
                    f"duplicate compound id {cid!r} with conflicting smiles")
    return dict(sorted(smiles.items()))


def _ingest_labels(where, read, compound, n_compounds):
    """{source: LabelIndex} of the labels stream."""
    sources, names = _Vocabulary(strip=True), _Vocabulary(strip=False)
    bound, chunks = read()
    codes = np.empty((3, bound), dtype=np.int32)  # compound, source, label
    n = 0
    for linenos, columns in chunks:
        bad, unknown = _fill_codes(codes[:, n:n + len(linenos)], columns,
                                   (compound, sources, names))
        k = _first(bad | unknown)
        if k is not None:
            cid, source, label = (columns[0][k].strip(), columns[1][k].strip(),
                                  columns[2][k])
            if bad[k]:
                raise FormatError(where, linenos[k], "empty field or tab/CR/LF "
                                  f"in label row {(cid, source, label)!r}")
            raise UnknownCompoundError(f"{where}:{linenos[k]}: label references "
                                       f"unknown compound {cid!r}")
        n += len(linenos)
    rows, source_codes, label_codes = codes[:, :n]

    labels, label_rank = names.ranked()
    label_index = {}
    for source, code in sources.by_value():
        mask = source_codes == code
        ranks = label_rank[label_codes[mask]]
        used = np.zeros(len(labels), dtype=bool)
        used[ranks] = True
        columns = np.cumsum(used, dtype=np.int32) - 1
        vocab = tuple(labels[r] for r in np.flatnonzero(used).tolist())
        shape = (n_compounds, len(vocab))
        matrix = _min_csr(_cell_keys(rows[mask], columns[ranks], shape), None,
                          shape)
        label_index[source] = LabelIndex(
            matrix, vocab, {label: j for j, label in enumerate(vocab)},
            np.bincount(matrix.indices, minlength=len(vocab)))
    return label_index


def _ingest_activities(where, read, compound, n_compounds):
    """(sorted target ids, {activity type: compound x target CSR}) of the
    activities stream."""
    targets, types = _Vocabulary(strip=True), _Vocabulary(strip=True)
    bound, chunks = read()
    codes = np.empty((3, bound), dtype=np.int32)  # compound, target, type
    values = np.empty(bound)
    n = 0
    for linenos, columns in chunks:
        bad, unknown = _fill_codes(codes[:, n:n + len(linenos)], columns,
                                   (compound, targets, types))
        value = values[n:n + len(linenos)]
        try:
            value[:] = np.fromiter(map(float, columns[3]), np.float64, len(value))
        except (TypeError, ValueError):
            value[:] = [_float(raw) for raw in columns[3]]
        bad_value = ~(np.isfinite(value) & (value > 0))
        k = _first(bad | bad_value | unknown)
        if k is not None:
            cid, tid, atype = (field[k].strip() for field in columns[:3])
            if bad[k]:
                raise FormatError(where, linenos[k], "empty field or tab/CR/LF "
                                  f"in activity row {(cid, tid, atype)!r}")
            if bad_value[k]:
                raise FormatError(where, linenos[k], "activity value must be a "
                                  f"finite positive number, got {columns[3][k]!r}")
            raise UnknownCompoundError(f"{where}:{linenos[k]}: activity "
                                       f"references unknown compound {cid!r}")
        n += len(linenos)
    rows, target_codes, type_codes = codes[:, :n]
    values = values[:n]

    target_ids, rank = targets.ranked()
    shape = (n_compounds, len(target_ids))
    key = _cell_keys(rows, rank[target_codes], shape)
    # the type codes alone outlive the code array
    type_codes = type_codes.copy()
    del codes, rows, target_codes
    activity_index = {}
    for atype, code in types.by_value():
        mask = type_codes == code
        activity_index[atype] = _min_csr(key[mask], values[mask], shape)
    return tuple(target_ids), activity_index


def _float(raw):
    """float(raw), or NaN when `raw` is not a number."""
    try:
        return float(raw)
    except (TypeError, ValueError):
        return math.nan


def load_corpus(compounds_path, labels_path, activities_path):
    """Load and index a corpus from its three TSV files.

    Duplicate (compound, source, label) rows collapse to one; duplicate
    activity rows for the same (compound, target, type) collapse to the
    minimum (most potent) value.  Raises FormatError with a line number on
    malformed rows, and UnknownCompoundError when a label or activity row
    references a compound missing from the compounds file.
    """
    return _ingest(
        (compounds_path, lambda: _read_tsv(
            compounds_path, _COMPOUNDS_COLUMNS, header_required=True)),
        (labels_path, lambda: _read_tsv(
            labels_path, _LABELS_COLUMNS, header_required=False)),
        (activities_path, lambda: _read_tsv(
            activities_path, _ACTIVITIES_COLUMNS, header_required=False)))
