"""Every writer/reader pair gives back every legal id and label.

Every table goes through `repurpose.tsv`: `write_tsv` and the chunked
reader are checked as a pair on their own, and then through the writers of
the files nothing in the package reads back (retrieval and eval reports).

A legal id or label is non-empty after stripping surrounding whitespace
and holds no tab, CR or LF.  The strategies lean on the ids a line-based
reader is most likely to mistake for something else: comment-like `#`
ids, section-like `[U]` ids, digits-only ids, header words and non-ASCII
text.
"""

import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import same_corpus, write_corpus_files

from repurpose import (
    Corpus,
    EvalReport,
    FactorModel,
    RankedCompound,
    ReferenceLabelSet,
    ReferenceSetConfig,
    RetrievalResult,
    ScoredLabel,
    TrainConfig,
    load_corpus,
    load_model,
    read_reference_set,
    save_model,
    tsv,
    write_eval_report_tsv,
    write_reference_set,
    write_retrieval_report,
)
from repurpose.noir import _REPORT_COLUMNS

TRICKY_IDS = (
    "#c1", "#", "# comment", "[U]", "[trace]", "[config]", "123", "007",
    "1e5", "nan", "compound_id", "label", "Ünïcødé", "化合物", "a b",
    " padded ", "c\x85d", "e\x0cf", "g\u2028h")

field_text = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters="\t\r\n"),
    max_size=8)
legal_ids = st.one_of(st.sampled_from(TRICKY_IDS),
                      field_text.filter(str.strip),
                      st.integers(0, 10**6).map(str))
finite = st.floats(allow_nan=False, allow_infinity=False)


def _read_rows(path, columns):
    """Every data row of a table, as tuples, through the chunked reader."""
    return [row for _, fields in tsv._tsv_chunks(path, columns,
                                                 header_required=True)
            for row in zip(*fields)]


@st.composite
def tables(draw):
    n_cols = draw(st.integers(1, 6))
    rows = draw(st.lists(st.tuples(*[legal_ids] * n_cols), max_size=10))
    return tuple(f"column_{k}" for k in range(n_cols)), rows


@given(tables(), st.sampled_from([1, 7, tsv._CHUNK_BYTES]))
def test_table_round_trip(table, chunk_bytes):
    columns, rows = table
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "table.tsv"
        tsv.write_tsv(path, columns, rows)
        with mock.patch.object(tsv, "_CHUNK_BYTES", chunk_bytes):
            assert _read_rows(path, columns) == rows


@pytest.mark.parametrize("written, asked", [
    (" NMF ", " NMF "), ("NMF", " nmf "), (" NMF ", "NMF")])
def test_padded_column_name_matches_its_header(tmp_path, written, asked):
    # outer whitespace and case of a name are ignored on both sides
    path = tmp_path / "table.tsv"
    tsv.write_tsv(path, ("metric", written), [("rmse_mean", "1.5")])
    assert _read_rows(path, ("metric", asked)) == [("rmse_mean", "1.5")]


@pytest.mark.parametrize("columns, rows, where", [
    (("a", "b"), [("x", "y"), ("x", "y\tz")], "row 2"),
    (("a", "b"), [("x", "y\nz")], "row 1"),
    (("a", "b"), [("x", "y\rz")], "row 1"),
    (("a", "b"), [("x", "y"), ("x",)], "row 2"),
    (("a", "b\tc"), [("x", "y")], "header row"),
])
def test_unwritable_table_is_refused_before_the_file_is_made(
        tmp_path, columns, rows, where):
    path = tmp_path / "table.tsv"
    with pytest.raises(ValueError, match=where):
        tsv.write_tsv(path, columns, rows)
    assert not path.exists()


def test_reference_set_with_a_tab_in_a_label_is_not_written(tmp_path):
    labels = (ScoredLabel("a", 3, 1.5, 10, 2.0),
              ScoredLabel("a\tb", 2, 1.0, 5, 1.0))
    reference = ReferenceLabelSet(ReferenceSetConfig(target="T", source="CF"),
                                  frozenset(), 0, labels)
    path = tmp_path / "reference.tsv"
    with pytest.raises(ValueError, match="row 2"):
        write_reference_set(reference, path)
    assert not path.exists()


@st.composite
def corpus_rows(draw):
    ids = draw(st.lists(legal_ids, min_size=1, max_size=6, unique_by=str.strip))
    smiles = st.sampled_from(("", "CC(=O)O", "smiles", "#")) | field_text
    compounds = [(cid, draw(smiles)) for cid in ids]
    members = st.sampled_from(ids)
    labels = draw(st.lists(st.tuples(members, legal_ids, legal_ids), max_size=12))
    values = st.floats(min_value=1e-300, max_value=1e300)
    activities = draw(st.lists(
        st.tuples(members, legal_ids, legal_ids, values), max_size=12))
    return compounds, labels, activities


def _check_load_as_built(rows):
    with tempfile.TemporaryDirectory() as directory:
        paths = write_corpus_files(Path(directory), *rows)
        assert same_corpus(load_corpus(*paths), Corpus.build(*rows))


@given(corpus_rows())
def test_corpus_files_load_as_built(rows):
    _check_load_as_built(rows)


@given(corpus_rows())
def test_corpus_files_load_as_built_in_one_character_chunks(rows):
    with mock.patch.object(tsv, "_CHUNK_BYTES", 1):
        _check_load_as_built(rows)


@st.composite
def reference_sets(draw):
    names = draw(st.lists(legal_ids, min_size=1, max_size=8, unique=True))
    counts = st.integers(0, 10**9)
    labels = [ScoredLabel(name, draw(counts), draw(finite), draw(counts),
                          draw(finite)) for name in names]
    labels.sort(key=lambda sl: (-sl.score, -sl.observed, sl.label))
    config = ReferenceSetConfig(target="T", source=draw(legal_ids))
    return ReferenceLabelSet(config, frozenset(), 0, tuple(labels))


@given(reference_sets())
def test_reference_set_round_trip(reference):
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "reference.tsv"
        write_reference_set(reference, path)
        loaded = read_reference_set(path, target="T")
    assert loaded.source == reference.source
    assert loaded.labels == reference.labels


@st.composite
def models(draw):
    rank = draw(st.integers(1, 3))
    compounds = draw(st.lists(legal_ids, min_size=rank, max_size=5, unique=True))
    targets = draw(st.lists(legal_ids, min_size=rank, max_size=5, unique=True))
    factors = st.floats(min_value=0.0, allow_infinity=False)
    positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
    config = TrainConfig(
        rank=rank, lam=draw(st.floats(0.0, 1e6)),
        max_iters=draw(st.integers(1, 10**6)), rel_tol=draw(positive),
        epsilon_guard=draw(positive), seed=draw(st.integers(0, 2**64)))
    return FactorModel(
        U=draw(arrays(np.float64, (len(compounds), rank), elements=factors)),
        V=draw(arrays(np.float64, (len(targets), rank), elements=factors)),
        compounds=tuple(compounds), targets=tuple(targets), config=config,
        objective_trace=draw(arrays(np.float64, st.integers(1, 4),
                                    elements=finite)),
        converged=draw(st.booleans()), regularized=draw(st.booleans()))


@given(models())
def test_model_round_trip(model):
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "model.tsv"
        save_model(model, path)
        loaded = load_model(path)
    assert np.array_equal(loaded.U, model.U)
    assert np.array_equal(loaded.V, model.V)
    assert np.array_equal(loaded.objective_trace, model.objective_trace)
    assert loaded.compounds == model.compounds
    assert loaded.targets == model.targets
    assert loaded.config == model.config
    assert (loaded.converged, loaded.regularized) \
        == (model.converged, model.regularized)


@st.composite
def retrievals(draw):
    compounds = draw(st.lists(legal_ids, max_size=6, unique=True))
    entries = tuple(RankedCompound(
        compound, draw(finite), draw(st.integers(0, 10**6)),
        tuple(draw(st.lists(legal_ids, max_size=3))))
        for compound in compounds)
    return RetrievalResult(entries, frozenset(), "CF")


@given(retrievals())
def test_retrieval_report_reads_back(result):
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "retrieval.tsv"
        write_retrieval_report(result, path)
        rows = _read_rows(path, _REPORT_COLUMNS)
    assert [(int(rank), compound, float(score), int(n_labels), matched)
            for rank, compound, score, n_labels, matched in rows] == [
        (rank, e.compound, e.score, e.n_labels, ";".join(e.matched))
        for rank, e in enumerate(result.entries, start=1)]


@st.composite
def eval_reports(draw):
    names = draw(st.lists(legal_ids, min_size=1, max_size=3,
                          unique_by=lambda name: name.strip().lower()))
    ks = st.sets(st.integers(1, 500), max_size=3)
    ratios = st.floats(0.0, 1.0)
    return [EvalReport(
        label=name, fold_rmse=tuple(draw(st.lists(st.floats(0.0, 100.0),
                                                  min_size=1, max_size=4))),
        recall={k: (draw(ratios), draw(ratios)) for k in draw(ks)},
        n_sampled=draw(st.integers(0, 10**6))) for name in names]


@given(eval_reports())
@example([EvalReport(label=" NMF ", fold_rmse=(1.0,), recall={},
                     n_sampled=0)])
def test_eval_report_reads_back(reports):
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "eval_report.tsv"
        write_eval_report_tsv(reports, path)
        rows = _read_rows(path, ("metric", *(r.label for r in reports)))
    n_folds = max(len(r.fold_rmse) for r in reports)
    k_values = sorted({k for r in reports for k in r.recall})
    expected = {"rmse_mean": [r.mean_rmse for r in reports]}
    for f in range(n_folds):
        expected[f"rmse_fold_{f + 1}"] = [
            r.fold_rmse[f] if f < len(r.fold_rmse) else None for r in reports]
    for k in k_values:
        for i, stat in enumerate(("mean", "std")):
            expected[f"recall_at_{k}_{stat}"] = [
                r.recall[k][i] if k in r.recall else None for r in reports]
    expected["sampled_compounds"] = [r.n_sampled for r in reports]
    assert [row[0] for row in rows] == list(expected)
    for row, values in zip(rows, expected.values()):
        for field, value in zip(row[1:], values):
            if value is None:
                assert field == ""
            else:
                assert abs(float(field) - value) <= 5e-7
