"""Every writer/reader pair gives back every legal id and label.

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
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import same_corpus, write_corpus_files

from repurpose import (
    Corpus,
    FactorModel,
    ReferenceLabelSet,
    ReferenceSetConfig,
    ScoredLabel,
    TrainConfig,
    corpus,
    load_corpus,
    load_model,
    read_reference_set,
    save_model,
    write_reference_set,
)

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
    with mock.patch.object(corpus, "_CHUNK_BYTES", 1):
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
