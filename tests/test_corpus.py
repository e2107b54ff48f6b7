import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from helpers import same_corpus, write_corpus_files

from repurpose import (
    Corpus,
    FormatError,
    UnknownCompoundError,
    UnknownSourceError,
    UnknownTargetError,
    load_corpus,
    tsv,
)


class TestLoadCorpus:

    def test_label_counts_hand_fixture(self, make_corpus):
        corpus = make_corpus(
            ["c1", "c2", "c3"],
            [("c1", "CF", "lactams"), ("c2", "CF", "lactams"),
             ("c1", "CF", "stilbenes")],
        )
        assert corpus.n_compounds == 3
        assert corpus.label_count("CF", "lactams") == 2
        assert corpus.label_count("CF", "stilbenes") == 1

    def test_empty_labels_file(self, make_corpus):
        corpus = make_corpus(["c1", "c2"], [], [("c1", "t1", "IC50", 5.0)])
        assert corpus.sources() == ()
        # the well-known sources stay queryable and count zero
        assert corpus.label_count("CF", "anything") == 0
        assert corpus.labels_of("c1", "OC") == frozenset()

    def test_duplicate_activity_rows_keep_minimum(self, make_corpus):
        corpus = make_corpus(
            ["c1"], [],
            [("c1", "t1", "IC50", 50.0), ("c1", "t1", "IC50", 20.0)],
        )
        assert corpus.n_activity_records == 1
        assert corpus.activity_matrix("IC50")[0, 0] == 20.0

    def test_duplicate_label_rows_collapse(self, make_corpus):
        corpus = make_corpus(
            ["c1"],
            [("c1", "CF", "lactams"), ("c1", "CF", "lactams")],
        )
        assert corpus.labels_of("c1", "CF") == frozenset({"lactams"})
        assert corpus.label_count("CF", "lactams") == 1

    def test_smiles_stored_untouched_and_optional(self, tmp_path):
        paths = write_corpus_files(
            tmp_path, [("c1", "CC(=O)O"), ("c2", "")], [], [])
        corpus = load_corpus(*paths)
        assert corpus.smiles_of("c1") == "CC(=O)O"
        assert corpus.smiles_of("c2") == ""

    def test_comment_and_blank_lines_skipped(self, tmp_path):
        (tmp_path / "compounds.tsv").write_text(
            "# a comment\ncompound_id\tsmiles\nc1\t\n\nc2\t\n")
        (tmp_path / "labels.tsv").write_text(
            "# comment\n\ncompound_id\tsource\tlabel\nc1\tCF\tx\n")
        (tmp_path / "activities.tsv").write_text(
            "compound_id\ttarget_id\tactivity_type\tvalue_nM\n")
        paths = [tmp_path / name for name in
                 ("compounds.tsv", "labels.tsv", "activities.tsv")]
        corpus = load_corpus(*paths)
        assert corpus.n_compounds == 2
        assert corpus.label_count("CF", "x") == 1
        # below the header a '#' line is a data row, here a malformed one
        (tmp_path / "labels.tsv").write_text(
            "compound_id\tsource\tlabel\n# comment\nc1\tCF\tx\n")
        with pytest.raises(FormatError, match="labels.tsv:2: expected 3"):
            load_corpus(*paths)

    def test_hash_compound_loads_with_its_rows(self, make_corpus):
        corpus = make_corpus(
            ["#c1", "c2"], [("#c1", "CF", "#x")], [("#c1", "T", "IC50", 5.0)])
        assert corpus.compound_ids() == ("#c1", "c2")
        assert corpus.labels_of("#c1", "CF") == frozenset({"#x"})
        assert corpus.targets_of("#c1") == {"T"}
        assert same_corpus(corpus, Corpus.build(
            ["#c1", "c2"], [("#c1", "CF", "#x")], [("#c1", "T", "IC50", 5.0)]))

    def test_labels_file_without_header_still_parses(self, tmp_path):
        paths = write_corpus_files(tmp_path, ["c1"], [], [])
        (tmp_path / "labels.tsv").write_text("c1\tCF\tlactams\n")
        corpus = load_corpus(*paths)
        assert corpus.label_count("CF", "lactams") == 1


class TestLoadErrors:

    def test_malformed_row_reports_line_number(self, tmp_path):
        paths = write_corpus_files(tmp_path, ["c1"], [("c1", "CF", "x")], [])
        (tmp_path / "labels.tsv").write_text(
            "compound_id\tsource\tlabel\nc1\tCF\tx\nc1\tCF\n")
        with pytest.raises(FormatError, match="labels.tsv:3"):
            load_corpus(*paths)

    def test_missing_compounds_header_rejected(self, tmp_path):
        paths = write_corpus_files(tmp_path, ["c1"], [], [])
        (tmp_path / "compounds.tsv").write_text("c1\t\n")
        with pytest.raises(FormatError, match="header"):
            load_corpus(*paths)

    @pytest.mark.parametrize("bad", ["0", "-3", "nan", "inf", "abc"])
    def test_bad_activity_value_rejected(self, tmp_path, bad):
        paths = write_corpus_files(
            tmp_path, ["c1"], [], [("c1", "t1", "IC50", bad)])
        with pytest.raises(FormatError):
            load_corpus(*paths)

    def test_label_for_unknown_compound_lists_id(self, tmp_path):
        paths = write_corpus_files(
            tmp_path, ["c1"], [("ghost", "CF", "x")], [])
        with pytest.raises(UnknownCompoundError, match="ghost"):
            load_corpus(*paths)

    def test_activity_for_unknown_compound_lists_id(self, tmp_path):
        paths = write_corpus_files(
            tmp_path, ["c1"], [], [("phantom", "t1", "IC50", 1.0)])
        with pytest.raises(UnknownCompoundError, match="phantom"):
            load_corpus(*paths)

    def test_conflicting_duplicate_compound_rejected(self, tmp_path):
        (tmp_path / "compounds.tsv").write_text(
            "compound_id\tsmiles\nc1\tCC\nc1\tCCC\n")
        (tmp_path / "labels.tsv").write_text("")
        (tmp_path / "activities.tsv").write_text("")
        with pytest.raises(FormatError, match="duplicate"):
            load_corpus(tmp_path / "compounds.tsv", tmp_path / "labels.tsv",
                        tmp_path / "activities.tsv")


class TestBuildErrors:
    """`Corpus.build` runs the file loader's checks; its errors name the
    row stream and the row's 1-based index."""

    @pytest.mark.parametrize("compounds, labels, activities, where", [
        (["c1", ""], [], [], "compounds:2"),
        (["c1", "  "], [], [], "compounds:2"),
        (["a\tb"], [], [], "compounds:1"),
        (["c\n1"], [], [], "compounds:1"),
        ([("c1", "C\rC")], [], [], "compounds:1"),
        (["c1"], [("c1", "CF", "x"), ("c1", "", "x")], [], "labels:2"),
        (["c1"], [("c1", "CF", "")], [], "labels:1"),
        (["c1"], [("c1", "CF", "x\ty")], [], "labels:1"),
        (["c1"], [("c1", "C\nF", "x")], [], "labels:1"),
        (["c1"], [], [("c1", "t\r1", "IC50", 1.0)], "activities:1"),
        (["c1"], [], [("c1", "t1", "", 1.0)], "activities:1"),
        (["c1"], [], [("c1", "t1", "IC50", 1.0), ("c1", "t1", "IC50", "x")],
         "activities:2"),
        (["c1"], [], [("c1", "t1", "IC50", float("nan"))], "activities:1"),
        (["c1"], [], [("c1", "t1", "IC50", 0.0)], "activities:1"),
        ([("c1", "CC"), ("c1", "CCC")], [], [], "compounds:2"),
    ], ids=["empty-id", "blank-id", "tab-in-id", "lf-in-id", "cr-in-smiles",
            "empty-source", "empty-label", "tab-in-label", "lf-in-source",
            "cr-in-target", "empty-type", "bad-value", "nan-value",
            "zero-value", "conflicting-smiles"])
    def test_bad_rows_raise_format_error(self, compounds, labels, activities,
                                         where):
        with pytest.raises(FormatError, match=f"^{where}: "):
            Corpus.build(compounds, labels, activities)

    @pytest.mark.parametrize("compounds, labels, activities, where, error, message", [
        (["c1"], [("c1", "CF", "x"), ("c1", "CF", "y"), ("ghost", "CF", "x"),
                  ("c1", "CF", "z"), ("c1", "CF", "")], [],
         "labels:3", UnknownCompoundError,
         "label references unknown compound 'ghost'"),
        (["c1"], [], [("c1", "t1", "IC50", "1"), ("c1", "t1", "IC50", "abc"),
                      ("c1", "t2", "IC50", "2"), ("c1", "t1", " ", "1")],
         "activities:2", FormatError,
         "activity value must be a finite positive number, got 'abc'"),
        (["c1"], [], [("ghost", "t1", "IC50", "1"), ("c1", "t1", "IC50", "-1")],
         "activities:1", UnknownCompoundError,
         "activity references unknown compound 'ghost'"),
        ([("c1", "CC"), (" ", "C"), ("c1", "CCC")], [], [],
         "compounds:2", FormatError, "empty id or tab/CR/LF in compound row "
         r"\('', 'C'\)"),
        ([("c1", "CC"), ("c1", "CCC"), (" ", "C")], [], [],
         "compounds:2", FormatError,
         "duplicate compound id 'c1' with conflicting smiles"),
        (["c1"], [("c1", "CF", "x"), ("ghost", " ", "x")], [],
         "labels:2", FormatError, "empty field or tab/CR/LF in label row "
         r"\('ghost', '', 'x'\)"),
        (["c1"], [], [("ghost ", "", "IC50", "abc")],
         "activities:1", FormatError, "empty field or tab/CR/LF in activity "
         r"row \('ghost', '', 'IC50'\)"),
        (["c1"], [], [("ghost", "t1", "IC50", "0")],
         "activities:1", FormatError,
         "activity value must be a finite positive number, got '0'"),
    ], ids=["unknown-before-empty-label", "value-before-empty-type",
            "unknown-before-bad-value", "empty-before-conflict",
            "conflict-before-empty", "field-before-unknown",
            "field-before-value-and-unknown", "value-before-unknown"])
    def test_first_bad_row_and_first_failing_check_reported(
            self, tmp_path, compounds, labels, activities, where, error,
            message):
        with pytest.raises(error, match=f"^{where}: {message}$"):
            Corpus.build(compounds, labels, activities)
        # the file twin: each stream's header is line 1
        stream, row = where.split(":")
        paths = write_corpus_files(tmp_path, compounds, labels, activities)
        with pytest.raises(error, match=f"{stream}.tsv:{int(row) + 1}: {message}$"):
            load_corpus(*paths)

    def test_unknown_compound_names_the_row(self):
        with pytest.raises(UnknownCompoundError, match="^labels:2: .*'ghost'"):
            Corpus.build(["c1"], [("c1", "CF", "x"), ("ghost", "CF", "x")])
        with pytest.raises(UnknownCompoundError, match="^activities:1: "):
            Corpus.build(["c1"], [], [("ghost", "t1", "IC50", 1.0)])

    def test_ids_are_stripped_as_in_files(self, tmp_path):
        compounds = [" c1", "c2 "]
        labels = [("c1 ", " CF", "x")]
        activities = [(" c2", " t1 ", "IC50 ", "5.0")]
        built = Corpus.build(compounds, labels, activities)
        assert built.compound_ids() == ("c1", "c2")
        assert built.labels_of("c1", "CF") == frozenset({"x"})
        assert built.activity_matrix("IC50")[1, 0] == 5.0
        paths = write_corpus_files(tmp_path, compounds, labels, activities)
        assert same_corpus(load_corpus(*paths), built)


def _chunk_rows():
    """Rows whose files span many 300-byte chunks, with '#'-led ids and
    labels well below the first chunk."""
    compounds = [(f"c{i:02d}", "CC(=O)O" + "C" * (i % 4)) for i in range(30)]
    compounds += [("#c1", ""), ("c30", "#")]
    labels = [(cid, source, f"{source}-{(7 * i + k) % 11}")
              for i, (cid, _) in enumerate(compounds)
              for source in ("CF", "OC") for k in range(3)]
    labels += [("#c1", "CF", "#x"), labels[5]]
    activities = [(cid, f"t{(i + k) % 6}", ("IC50", "Ki")[k % 2],
                   str(1.5 + (i * k) % 9)) for i, (cid, _) in enumerate(compounds)
                  for k in range(4)]
    activities += [("#c1", "t0", "IC50", "0.5"), ("c03", "t3", "IC50", "0.25")]
    return compounds, labels, activities


def _write_files(directory, compounds, labels, activities, newline="\n",
                 final_newline=True, preamble=()):
    """The three corpus files, with `newline` line ends and the `preamble`
    lines above each header; returns their paths."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, header, rows in (
            ("compounds", "compound_id\tsmiles", compounds),
            ("labels", "compound_id\tsource\tlabel", labels),
            ("activities", "compound_id\ttarget_id\tactivity_type\tvalue_nM",
             activities)):
        lines = [*preamble, header, *("\t".join(row) for row in rows)]
        path = directory / f"{name}.tsv"
        path.write_bytes((newline.join(lines)
                          + (newline if final_newline else "")).encode())
        paths.append(path)
    return paths


class TestChunkBoundaries:
    """The chunked reader gives the same corpus and the same errors whatever
    the chunk size: one character, a few rows, or the default."""

    @pytest.fixture(autouse=True, params=[1, 300, tsv._CHUNK_BYTES],
                    ids=["chunk-1", "chunk-300", "chunk-default"])
    def chunk_bytes(self, request, monkeypatch):
        monkeypatch.setattr(tsv, "_CHUNK_BYTES", request.param)

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"],
                             ids=["lf", "crlf", "cr"])
    def test_line_ends(self, tmp_path, newline):
        rows = _chunk_rows()
        corpus = load_corpus(*_write_files(tmp_path, *rows, newline=newline))
        assert same_corpus(corpus, Corpus.build(*rows))
        assert corpus.n_compounds == 32
        assert corpus.activity_matrix("IC50").nnz > 0

    def test_no_final_newline(self, tmp_path):
        rows = _chunk_rows()
        paths = _write_files(tmp_path, *rows, final_newline=False)
        assert paths[2].read_bytes().endswith(b"\t0.25")
        assert same_corpus(load_corpus(*paths), Corpus.build(*rows))

    def test_comments_and_blank_lines_span_chunks(self, tmp_path):
        rows = _chunk_rows()
        preamble = [f"# comment {k} " + "-" * 40 for k in range(12)] \
            + ["", "  ", "#", "\t"]
        compounds, labels, activities = rows
        # blank and whitespace-only lines between data rows are skipped too
        gapped = (compounds[:20] + [("", "")] + compounds[20:],
                  labels[:50] + [(" ", " ", " ")] + labels[50:], activities)
        paths = _write_files(tmp_path, *gapped, newline="\r\n",
                             preamble=preamble)
        assert same_corpus(load_corpus(*paths), Corpus.build(*rows))
        # the missing compounds header is reported on its exact line
        text = paths[0].read_text().split("\n")
        paths[0].write_text("\n".join(text[:len(preamble)]
                                      + text[len(preamble) + 1:]))
        with pytest.raises(FormatError,
                           match=f"compounds.tsv:{len(preamble) + 1}: missing header"):
            load_corpus(*paths)

    @pytest.mark.parametrize("text, at", [
        ("", 1), ("# a comment\n\n  \n", 4), ("# a comment\r\n\t", 3)],
        ids=["empty", "comments-and-blanks", "no-final-newline"])
    def test_compounds_file_without_header_rejected(self, tmp_path, text, at):
        # reported at the line after the file's last
        paths = _write_files(tmp_path, *_chunk_rows())
        paths[0].write_bytes(text.encode())
        with pytest.raises(FormatError,
                           match=f"compounds.tsv:{at}: missing header"):
            load_corpus(*paths)

    def test_hash_row_in_later_chunk(self, tmp_path):
        rows = _chunk_rows()
        paths = _write_files(tmp_path, *rows)
        for path in paths:
            assert path.read_text().index("\n#c1\t") > 300
        corpus = load_corpus(*paths)
        assert same_corpus(corpus, Corpus.build(*rows))
        assert "#x" in corpus.labels_of("#c1", "CF")
        assert corpus.compounds_for_target("t0", "IC50", 1.0) == {"#c1"}

    def test_bad_row_deep_in_file_names_its_line(self, tmp_path):
        compounds, labels, activities = _chunk_rows()
        deep = 100  # a row far below the first chunk, on line 102
        cases = [
            ("labels", labels[:deep] + [("c01", "CF")] + labels[deep:],
             activities, FormatError, "expected 3 tab-separated columns, got 2"),
            # the field-count error two rows down must not come first
            ("labels", labels[:deep] + [("ghost", "CF", "x"), ("c01", "CF")]
             + labels[deep:], activities, UnknownCompoundError,
             "label references unknown compound 'ghost'"),
            ("activities", labels,
             activities[:deep] + [("c01", "t1", "IC50", "-2")] + activities[deep:],
             FormatError, "activity value must be a finite positive number"),
        ]
        for k, (name, label_rows, activity_rows, error, message) in enumerate(cases):
            paths = _write_files(tmp_path / str(k), compounds, label_rows,
                                 activity_rows, newline="\r\n")
            with pytest.raises(error, match=f"{name}.tsv:{deep + 2}: {message}"):
                load_corpus(*paths)
            if k:  # in-memory rows have no field count to get wrong
                with pytest.raises(error, match=f"^{name}:{deep + 1}: {message}"):
                    Corpus.build(compounds, label_rows[:deep + 1], activity_rows)


class TestLoadMemory:
    """The loader's traced peak stays within a small multiple of the corpus
    it returns: each file is read a chunk at a time into int32 codes, and no
    per-row Python objects outlive their chunk."""

    def test_peak_rise_is_a_small_multiple_of_the_corpus(self, tmp_path):
        rng = np.random.default_rng(9)
        ids = [f"C{i:05d}" for i in range(4000)]
        labels = [(cid, source, f"{source}:{i % 8}:{v:02d}")
                  for i, cid in enumerate(ids) for source in ("CF", "OC")
                  for v in rng.choice(16, size=8, replace=False)]
        activities = [(cid, f"T{(i % 8) * 10 + t:03d}", "IC50",
                       f"{rng.uniform(1.0, 9000.0):.4f}")
                      for i, cid in enumerate(ids)
                      for t in rng.choice(10, size=8, replace=False)]
        paths = write_corpus_files(tmp_path, ids, labels, activities)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            corpus = load_corpus(*paths)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert corpus.n_activity_records == len(activities)
        # the per-row ingest peaked at about 10x what it kept
        assert peak - before <= 3 * (kept - before)


class TestCompoundsForTarget:

    @pytest.fixture
    def corpus(self, make_corpus):
        return make_corpus(
            ["a", "b", "c"], [],
            [("a", "T", "EC50", 10.0), ("b", "T", "EC50", 30.0),
             ("c", "T", "EC50", 29.9)],
        )

    def test_strict_threshold(self, corpus):
        assert corpus.compounds_for_target("T", "EC50", 30.0) == {"a", "c"}

    def test_zero_threshold_empty(self, corpus):
        assert corpus.compounds_for_target("T", "EC50", 0.0) == set()

    def test_infinite_threshold_keeps_all(self, corpus):
        assert corpus.compounds_for_target("T", "EC50", math.inf) == {"a", "b", "c"}

    def test_unknown_target_raises(self, corpus):
        with pytest.raises(UnknownTargetError):
            corpus.compounds_for_target("NOPE", "EC50", 30.0)

    def test_known_target_other_type_empty(self, corpus):
        assert corpus.compounds_for_target("T", "IC50", math.inf) == set()

    @pytest.mark.parametrize("activity_type, threshold", [
        ("EC50", math.inf), ("EC50", 30.0), ("IC50", math.inf)],
        ids=["inf", "finite", "type-absent"])
    def test_is_the_id_view_of_the_row_query(self, corpus, activity_type,
                                             threshold):
        rows = corpus._relevant_rows("T", activity_type, threshold)
        assert rows.dtype.kind == "i"
        assert len(set(rows.tolist())) == len(rows)
        assert corpus.compounds_for_target("T", activity_type, threshold) \
            == {corpus.compound_ids()[i] for i in rows.tolist()}
        with pytest.raises(UnknownTargetError, match="^unknown target 'NOPE'$"):
            corpus._relevant_rows("NOPE", activity_type, threshold)

    def test_monotone_in_threshold(self, make_corpus):
        rng = np.random.default_rng(5)
        rows = [(f"c{i}", "T", "IC50", float(rng.uniform(0.1, 100)))
                for i in range(30)]
        corpus = make_corpus([f"c{i}" for i in range(30)], [], rows)
        thresholds = sorted(rng.uniform(0.0, 120.0, size=10))
        previous = set()
        for threshold in thresholds:
            current = corpus.compounds_for_target("T", "IC50", threshold)
            assert previous <= current
            previous = current


class TestCorpusInvariants:

    def test_recount_matches_index(self, make_corpus):
        rng = np.random.default_rng(11)
        ids = [f"c{i}" for i in range(40)]
        vocab = [f"lab{v}" for v in range(12)]
        rows = []
        for cid in ids:
            for label in rng.choice(vocab, size=int(rng.integers(0, 6)),
                                    replace=False):
                rows.append((cid, "OC", str(label)))
        corpus = make_corpus(ids, rows, [])
        recount = {}
        for cid, _, label in set(rows):
            recount[label] = recount.get(label, 0) + 1
        for label in vocab:
            assert corpus.label_count("OC", label) == recount.get(label, 0)

    def test_ingestion_idempotent(self, tmp_path):
        compounds = ["c1", "c2"]
        labels = [("c1", "CF", "x"), ("c2", "OC", "y")]
        activities = [("c1", "t1", "IC50", 5.0), ("c2", "t1", "IC50", 7.5)]
        paths = write_corpus_files(tmp_path / "a", compounds, labels, activities)
        first = load_corpus(*paths)
        second = load_corpus(*paths)
        assert same_corpus(first, second)

    def test_build_matches_load(self, tmp_path):
        compounds = ["c1", "c2"]
        labels = [("c1", "CF", "x")]
        activities = [("c2", "t9", "EC50", 12.0)]
        paths = write_corpus_files(tmp_path, compounds, labels, activities)
        assert same_corpus(load_corpus(*paths),
                           Corpus.build(compounds, labels, activities))

    def test_unlabeled_compounds_are_legal(self, make_corpus):
        corpus = make_corpus(["c1", "c2"], [("c1", "CF", "x")], [])
        assert corpus.labels_of("c2", "CF") == frozenset()
        assert corpus.n_compounds == 2

    def test_corpora_differing_in_one_label_are_unequal(self):
        compounds = ["c1", "c2"]
        labels = [("c1", "CF", "x"), ("c2", "CF", "y")]
        base = Corpus.build(compounds, labels)
        assert same_corpus(base, Corpus.build(compounds, labels[::-1]))
        for other in ([("c1", "CF", "x"), ("c2", "CF", "x")],
                      [("c1", "CF", "y"), ("c2", "CF", "x")],
                      [("c1", "CF", "x"), ("c2", "OC", "y")]):
            assert not same_corpus(base, Corpus.build(compounds, other))

    def test_corpora_differing_in_one_activity_are_unequal(self):
        compounds = ["c1", "c2"]
        activities = [("c1", "t1", "IC50", 5.0), ("c2", "t2", "Ki", 7.5)]
        base = Corpus.build(compounds, (), activities)
        assert same_corpus(base, Corpus.build(compounds, (), activities[::-1]))
        for changed in (("c1", "t1", "IC50", 5.5), ("c1", "t1", "EC50", 5.0)):
            assert not same_corpus(
                base, Corpus.build(compounds, (), [changed, activities[1]]))

    def test_labels_case_sensitive(self, make_corpus):
        corpus = make_corpus(
            ["c1", "c2"],
            [("c1", "CF", "Lactams"), ("c2", "CF", "lactams")])
        assert corpus.label_count("CF", "Lactams") == 1
        assert corpus.label_count("CF", "lactams") == 1


class TestIndexesMatchRawRows:
    """The label matrix and the activity index, read back through the public
    views, reproduce what the raw rows say."""

    @pytest.fixture
    def rows(self):
        rng = np.random.default_rng(23)
        ids = [f"c{i:02d}" for i in range(60)]
        label_rows = []
        for cid in ids:
            for source in ("CF", "OC", "free"):
                for v in rng.choice(15, size=int(rng.integers(0, 7)),
                                    replace=False):
                    label_rows.append((cid, source, f"{source}-{v:02d}"))
        label_rows += label_rows[:20]  # duplicates collapse
        activity_rows = []
        for cid in ids[:50]:  # the last ten compounds have no record
            for _ in range(int(rng.integers(1, 6))):
                activity_rows.append((
                    cid, f"t{int(rng.integers(0, 8))}",
                    str(rng.choice(["IC50", "EC50", "Ki"])),
                    float(rng.uniform(1.0, 100.0))))
        return ids, label_rows, activity_rows

    def test_label_views(self, rows):
        ids, label_rows, activity_rows = rows
        corpus = Corpus.build(ids[::-1], label_rows, activity_rows)
        raw = {}
        for cid, source, label in label_rows:
            raw.setdefault(source, {}).setdefault(cid, set()).add(label)
        assert corpus.sources() == ("CF", "OC", "free")
        for source, per_compound in raw.items():
            vocab = sorted(set().union(*per_compound.values()))
            assert corpus.source_labels(source) == tuple(vocab)
            for cid in ids:
                assert corpus.labels_of(cid, source) \
                    == frozenset(per_compound.get(cid, ()))
            for label in vocab:
                carriers = {c for c, ls in per_compound.items() if label in ls}
                assert corpus.label_count(source, label) == len(carriers)
            index = corpus.label_index(source)
            assert index.matrix.shape == (len(ids), len(vocab))
            for row, cid in enumerate(corpus.compound_ids()):
                assert index.row_labels(row) == sorted(per_compound.get(cid, ()))
        # a well-known source with no rows is an empty, queryable source
        assert corpus.labels_of("c00", "MORGAN") == frozenset()
        assert corpus.source_labels("MORGAN") == ()
        assert corpus.label_count("MORGAN", "x") == 0
        assert corpus.label_index("MORGAN").matrix.shape == (len(ids), 0)
        with pytest.raises(UnknownSourceError):
            corpus.label_index("weird")
        with pytest.raises(UnknownCompoundError):
            corpus.labels_of("ghost", "CF")

    def test_activity_views(self, rows):
        ids, label_rows, activity_rows = rows
        corpus = Corpus.build(ids[::-1], label_rows, activity_rows)
        raw = {}
        for cid, tid, atype, value in activity_rows:
            raw[cid, tid, atype] = min(value, raw.get((cid, tid, atype), math.inf))
        assert len(raw) < len(activity_rows)  # some triples repeat
        stored = sorted(
            (corpus.compound_ids()[i], corpus.target_ids()[j], atype, value)
            for atype in corpus.activity_types()
            for i, j, value in zip(*(a.tolist() for a in sp.find(
                corpus.activity_matrix(atype)))))
        assert stored == [(*key, raw[key]) for key in sorted(raw)]
        assert corpus.n_activity_records == len(raw)
        types = ("EC50", "IC50", "Ki")
        assert corpus.activity_types() == types
        targets = sorted({t for _, t, _ in raw})
        assert corpus.target_ids() == tuple(targets)
        # a stored value itself as a threshold checks that the bound is strict
        thresholds = (0.0, 10.0, sorted(raw.values())[len(raw) // 2], 99.0,
                      math.inf)
        for target in targets:
            for atype in (*types, "absent"):
                for threshold in thresholds:
                    assert corpus.compounds_for_target(target, atype, threshold) \
                        == {c for (c, t, a), v in raw.items()
                            if (t, a) == (target, atype) and v < threshold}
        for atype in (*types, "absent"):
            matrix = corpus.activity_matrix(atype)
            assert matrix.shape == (len(ids), len(targets))
            for i, cid in enumerate(corpus.compound_ids()):
                for j, target in enumerate(targets):
                    assert matrix[i, j] == raw.get((cid, target, atype), 0.0)

    def test_targets_of_matches_a_scan(self, rows):
        corpus = Corpus.build(*rows)
        records = [(corpus.compound_ids()[i], corpus.target_ids()[j], atype)
                   for atype in corpus.activity_types()
                   for i, j in zip(*corpus.activity_matrix(atype).nonzero())]
        for cid in corpus.compound_ids():
            for activity_type in (None, *corpus.activity_types()):
                assert corpus.targets_of(cid, activity_type) == {
                    target for compound, target, atype in records
                    if compound == cid and activity_type in (None, atype)}
        with pytest.raises(UnknownCompoundError):
            corpus.targets_of("ghost")


@pytest.mark.parametrize("lookup", [
    lambda corpus: corpus.positions(["c1", "ghost", "c2"]),
    lambda corpus: corpus.smiles_of("ghost"),
    lambda corpus: corpus.labels_of("ghost", "CF"),
    lambda corpus: corpus.targets_of("ghost"),
    lambda corpus: corpus.targets_of("ghost", "IC50"),
], ids=["positions", "smiles_of", "labels_of", "targets_of",
        "targets_of-typed"])
def test_unknown_compound_is_reported_alike(lookup):
    corpus = Corpus.build(["c1", "c2"], [("c1", "CF", "x")],
                          [("c2", "T", "IC50", 1.0)])
    with pytest.raises(UnknownCompoundError,
                       match="^unknown compound 'ghost'$") as raised:
        lookup(corpus)
    # no KeyError is chained onto the report
    error = raised.value
    assert error.__cause__ is None
    assert error.__context__ is None or error.__suppress_context__
