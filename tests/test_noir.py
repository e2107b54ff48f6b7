import numpy as np
import pytest

from helpers import (
    doc_score,
    oracle_doc_scores,
    oracle_ranking,
    oracle_reference,
    random_label_corpus,
    term_score,
)

from repurpose import (
    Corpus,
    FormatError,
    SyntheticSpec,
    NoRelevantCompoundsError,
    RankedCompound,
    ReferenceLabelSet,
    ReferenceSetConfig,
    RetrievalResult,
    ScoredLabel,
    UnknownSourceError,
    build_reference_set,
    consensus,
    generate_synthetic,
    load_corpus,
    read_reference_set,
    retrieve,
    write_reference_set,
    write_retrieval_report,
)


def make_reference(source, scores):
    """A hand-made reference set with the given {label: score}."""
    labels = tuple(ScoredLabel(label, 2, 1.0, 2, value)
                   for label, value in scores.items())
    return ReferenceLabelSet(
        ReferenceSetConfig(target="TGT", source=source), frozenset(), 0, labels)


class TestTermScore:

    def test_hand_case(self):
        expected, score = term_score(5, 10, 50, 1000)
        assert expected == pytest.approx(0.5, rel=1e-12)
        assert score == pytest.approx(40.5, rel=1e-12)

    def test_zero_when_observed_equals_expected(self):
        expected, score = term_score(1, 10, 100, 1000)
        assert expected == 1.0
        assert score == 0.0

    def test_second_hand_case(self):
        expected, score = term_score(2, 4, 5, 20)
        assert expected == pytest.approx(1.0, rel=1e-12)
        assert score == pytest.approx(1.0, rel=1e-12)

    def test_absent_term_rejected(self):
        with pytest.raises(ValueError, match="absent from corpus"):
            term_score(0, 0, 5, 10)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            term_score(0, 1, 1, 0)

    def test_out_of_range_observed_rejected(self):
        with pytest.raises(ValueError):
            term_score(6, 10, 5, 100)

    def test_nonnegative_and_zero_iff_o_equals_e(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            n_corpus = int(rng.integers(2, 5000))
            n_relevant = int(rng.integers(1, n_corpus + 1))
            c = int(rng.integers(1, n_corpus + 1))
            o = int(rng.integers(0, n_relevant + 1))
            expected, score = term_score(o, c, n_relevant, n_corpus)
            assert score >= 0.0
            assert (score == 0.0) == (o == expected)

    def test_scale_invariance(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            n_corpus = int(rng.integers(2, 2000))
            n_relevant = int(rng.integers(1, n_corpus // 2 + 2))
            c = int(rng.integers(1, n_corpus + 1))
            o = int(rng.integers(0, n_relevant + 1))
            _, base = term_score(o, c, n_relevant, n_corpus)
            _, doubled = term_score(o, c, 2 * n_relevant, 2 * n_corpus)
            assert doubled == pytest.approx(base, rel=1e-12, abs=1e-12)


class TestBuildReferenceSet:

    def test_all_passing_labels_returned_descending(self, make_corpus):
        # N=5, relevant {a1,a2,a3}: X (O=2,C=2) -> 0.64/1.2, Y (O=3,C=4)
        # -> 0.36/2.4, Z (O=2,C=3) -> 0.04/1.8; W has O=1 and V has C=5>4.
        corpus = make_corpus(
            ["a1", "a2", "a3", "b1", "b2"],
            [("a1", "CF", "X"), ("a2", "CF", "X"),
             ("a1", "CF", "Y"), ("a2", "CF", "Y"), ("a3", "CF", "Y"), ("b1", "CF", "Y"),
             ("a1", "CF", "Z"), ("a3", "CF", "Z"), ("b2", "CF", "Z"),
             ("a1", "CF", "W"),
             ("a1", "CF", "V"), ("a2", "CF", "V"), ("a3", "CF", "V"),
             ("b1", "CF", "V"), ("b2", "CF", "V")],
            [("a1", "TGT", "EC50", 10.0), ("a2", "TGT", "EC50", 5.0),
             ("a3", "TGT", "EC50", 29.0), ("b1", "TGT", "EC50", 50.0)],
        )
        config = ReferenceSetConfig(target="TGT", source="CF", noise_cap=4)
        reference = build_reference_set(corpus, config)
        assert reference.relevant == {"a1", "a2", "a3"}
        assert [sl.label for sl in reference.labels] == ["X", "Y", "Z"]
        got = {sl.label: sl for sl in reference.labels}
        assert got["X"].score == pytest.approx(0.64 / 1.2, rel=1e-12)
        assert got["Y"].score == pytest.approx(0.36 / 2.4, rel=1e-12)
        assert got["Z"].score == pytest.approx(0.04 / 1.8, rel=1e-12)
        assert got["X"].expected == pytest.approx(1.2, rel=1e-12)
        assert not reference.no_candidates

    def test_score_tie_broken_by_observed_then_label(self, ranking_corpus):
        config = ReferenceSetConfig(target="T", source="CF")
        reference = build_reference_set(ranking_corpus, config)
        assert [sl.label for sl in reference.labels] == ["P", "Q", "aaa", "zzz"]
        scores = [sl.score for sl in reference.labels]
        assert scores[0] == scores[1] == pytest.approx(1.0 / 3.0, rel=1e-12)
        assert scores[2] == scores[3] == pytest.approx(0.15, rel=1e-12)

    def test_set_size_truncates(self, ranking_corpus):
        config = ReferenceSetConfig(target="T", source="CF", set_size=3)
        reference = build_reference_set(ranking_corpus, config)
        assert [sl.label for sl in reference.labels] == ["P", "Q", "aaa"]

    def test_noise_cap_below_everything_sets_warning_flag(self, ranking_corpus):
        config = ReferenceSetConfig(target="T", source="CF", noise_cap=1)
        reference = build_reference_set(ranking_corpus, config)
        assert reference.labels == ()
        assert reference.no_candidates

    def test_noise_cap_is_inclusive(self, ranking_corpus):
        # P and Q have corpus count 5, aaa and zzz count 4: a cap of
        # exactly 5 keeps all four, a cap of 4 drops P and Q
        at_five = build_reference_set(
            ranking_corpus, ReferenceSetConfig(target="T", source="CF",
                                               noise_cap=5))
        assert {sl.label for sl in at_five.labels} == {"P", "Q", "aaa", "zzz"}
        at_four = build_reference_set(
            ranking_corpus, ReferenceSetConfig(target="T", source="CF",
                                               noise_cap=4))
        assert {sl.label for sl in at_four.labels} == {"aaa", "zzz"}

    def test_no_relevant_compounds_raises(self, ranking_corpus):
        config = ReferenceSetConfig(
            target="T", source="CF", activity_threshold_nm=1.0)
        with pytest.raises(NoRelevantCompoundsError):
            build_reference_set(ranking_corpus, config)

    def test_depleted_labels_are_kept(self, make_corpus):
        # label carried by every compound but only 2 of 4 relevant ones:
        # O=2 < E=3 is depleted yet still scored, not filtered
        ids = ["r1", "r2", "r3", "r4", "x1", "x2"]
        rows = [(c, "CF", "common") for c in ids]
        rows += [("r1", "CF", "both"), ("r2", "CF", "both")]
        acts = [(f"r{i}", "T", "EC50", 10.0) for i in range(1, 5)]
        corpus = make_corpus(ids, rows, acts)
        reference = build_reference_set(
            corpus, ReferenceSetConfig(target="T", source="CF"))
        by_label = {sl.label: sl for sl in reference.labels}
        assert "common" in by_label
        assert by_label["common"].observed == 4
        assert by_label["common"].expected == 4.0
        assert by_label["common"].score == 0.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ReferenceSetConfig(target="T", source="CF", min_relevant_count=1)
        with pytest.raises(ValueError):
            ReferenceSetConfig(target="T", source="CF", activity_threshold_nm=0)
        with pytest.raises(ValueError):
            ReferenceSetConfig(target="T", source="CF", set_size=0)

    def test_config_defaults(self):
        config = ReferenceSetConfig(target="T", source="CF")
        assert config.activity_type == "EC50"
        assert config.activity_threshold_nm == 30.0
        assert config.noise_cap == 200_000
        assert config.min_relevant_count == 2
        assert config.set_size == 20


def scored_by_term_score(label_rows, source, relevant, n_corpus, config):
    """The reference labels of `config` scored one label at a time with
    `term_score`, from raw rows, ranked and cut to `config.set_size`."""
    carriers = {}
    for cid, src, label in label_rows:
        if src == source:
            carriers.setdefault(label, set()).add(cid)
    scored = []
    for label, who in carriers.items():
        observed = len(who & relevant)
        if observed >= config.min_relevant_count and len(who) <= config.noise_cap:
            expected, score = term_score(observed, len(who), len(relevant),
                                         n_corpus)
            scored.append(ScoredLabel(label, observed, expected, len(who), score))
    scored.sort(key=lambda sl: (-sl.score, -sl.observed, sl.label))
    return tuple(scored[:config.set_size])


class TestReferenceSetMatchesTermScore:
    """Array scoring of the candidates gives the very floats, order and
    sets that scoring each label with `term_score` gives."""

    def test_random_corpora(self):
        rng = np.random.default_rng(2718)
        seen = dict.fromkeys(("min_count", "noise_cap", "empty", "score_tie",
                              "observed_tie"), 0)
        for _ in range(60):
            n_corpus = 2 * int(rng.integers(3, 20))
            ids = [f"c{i:02d}" for i in range(n_corpus)]
            # names whose string order differs from their numeric order
            vocab = [f"L{v}" for v in range(int(rng.integers(3, 14)))]
            density = rng.uniform(0.2, 0.8)
            label_rows = [(cid, source, label)
                          for cid in ids for source in ("CF", "OC")
                          for label in vocab if rng.random() < density]
            # half the corpus is relevant, so E = C / 2 and labels of one
            # corpus count C score alike at O = E + d and O = E - d
            potency = rng.permutation([5.0, 50.0] * (n_corpus // 2))
            activity_rows = [(cid, "T", "EC50", float(value))
                             for cid, value in zip(ids, potency)]
            relevant = {cid for cid, value in zip(ids, potency) if value < 30.0}
            corpus = Corpus.build(ids, label_rows, activity_rows)
            config = ReferenceSetConfig(
                target="T", source=str(rng.choice(["CF", "OC"])),
                min_relevant_count=int(rng.integers(2, 5)),
                noise_cap=int(rng.integers(n_corpus // 4, n_corpus + 2)),
                set_size=int(rng.integers(1, len(vocab) + 2)))

            want = scored_by_term_score(label_rows, config.source, relevant,
                                        n_corpus, config)
            assert build_reference_set(corpus, config) == ReferenceLabelSet(
                config, frozenset(relevant), n_corpus, want,
                no_candidates=not want)

            carriers = [{c for c, src, l in label_rows
                         if src == config.source and l == label}
                        for label in vocab]
            seen["min_count"] += any(
                0 < len(who & relevant) < config.min_relevant_count
                for who in carriers)
            seen["noise_cap"] += any(
                len(who & relevant) >= config.min_relevant_count
                and len(who) > config.noise_cap for who in carriers)
            seen["empty"] += not want
            for a, b in zip(want, want[1:]):
                if a.score == b.score:
                    seen["observed_tie" if a.observed == b.observed
                         else "score_tie"] += 1
        assert all(seen.values()), seen


class TestRetrieveEdgeCases:
    """Retrieval pinned with `==` where the hit assembly has corners."""

    # b {X} = 3.0; a {X, Y} = 1.5 / 2; c {Y, Z} = -1.5 / 2; g {V, X, Y}
    # cancels to 0.0; e matches only a zero score, f nothing, d no label
    LABELS = {"a": "XY", "b": "X", "c": "YZ", "d": "", "e": "Z", "f": "W",
              "g": "VXY"}
    SCORES = {"V": -1.5, "X": 3.0, "Y": -1.5, "Z": 0.0, "ghost": 5.0}
    HITS = (RankedCompound("b", 3.0, 1, ("X",)),
            RankedCompound("a", 0.75, 2, ("X", "Y")),
            RankedCompound("c", -0.75, 2, ("Y", "Z")))

    @pytest.fixture
    def corpus(self):
        return Corpus.build(
            sorted(self.LABELS),
            [(cid, "CF", label) for cid, letters in self.LABELS.items()
             for label in letters])

    def test_zero_negative_and_unlabeled_with_top_n_above_the_hits(self, corpus):
        reference = make_reference("CF", self.SCORES)
        result = retrieve(corpus, reference, top_n=100)
        assert result == RetrievalResult(self.HITS, frozenset(), "CF")
        for top_n in (1, 2, 3, 4):
            assert retrieve(corpus, reference, top_n=top_n).entries \
                == self.HITS[:top_n]
        assert retrieve(corpus, reference, exclude={"b", "ghost"}) \
            == RetrievalResult(self.HITS[1:], frozenset({"b"}), "CF")

    def test_edited_reference_of_labels_absent_from_the_corpus(
            self, corpus, tmp_path):
        path = tmp_path / "reference.tsv"
        write_reference_set(
            make_reference("CF", {"ghost": 5.0, "phantom": -1.0}), path)
        result = retrieve(corpus, read_reference_set(path), exclude={"a"})
        assert result == RetrievalResult((), frozenset({"a"}), "CF")

    @pytest.mark.parametrize("scores, exclude", [
        ({"Z": 0.0, "W": 0.0}, ()),
        ({"V": -1.5, "X": 3.0, "Y": -1.5}, {"a", "b", "c"}),
        ({"X": 1.0}, {"a", "b", "g"}),
    ], ids=["zero-scores", "every-hit-excluded", "every-carrier-excluded"])
    def test_no_hits_gives_empty_entries(self, corpus, scores, exclude):
        result = retrieve(corpus, make_reference("CF", scores),
                          exclude=exclude)
        assert result.entries == ()
        assert result.excluded == frozenset(exclude)


class TestDocScore:

    def _reference(self, scores):
        from repurpose import ReferenceLabelSet, ScoredLabel
        labels = tuple(
            ScoredLabel(label, 2, 1.0, 2, value)
            for label, value in sorted(scores.items()))
        config = ReferenceSetConfig(target="t", source="CF")
        return ReferenceLabelSet(config, frozenset(), 10, labels)

    def test_mean_over_all_labels(self):
        reference = self._reference({"A": 10.0, "B": 20.0})
        score, n_labels, matched = doc_score({"A", "B"}, reference)
        assert (score, n_labels) == (15.0, 2)
        assert matched == ("A", "B")

    def test_empty_document_scores_zero(self):
        reference = self._reference({"A": 10.0})
        assert doc_score(set(), reference) == (0.0, 0, ())

    def test_unmatched_labels_dilute(self):
        reference = self._reference({"A": 10.0})
        score, n_labels, matched = doc_score({"A", "C"}, reference)
        assert (score, n_labels) == (5.0, 2)
        assert matched == ("A",)


class TestRetrieve:

    def test_hand_scored_ranking(self, retrieval_corpus):
        config = ReferenceSetConfig(target="T", source="CF")
        reference = build_reference_set(retrieval_corpus, config)
        assert [sl.label for sl in reference.labels] == ["A"]
        assert reference.labels[0].score == pytest.approx(0.45, rel=1e-12)

        result = retrieve(retrieval_corpus, reference,
                          exclude=reference.relevant, top_n=100)
        assert result.compound_ids() == ["c1", "c2", "c5"]
        scores = [e.score for e in result.entries]
        assert scores == pytest.approx([0.45, 0.225, 0.1125], rel=1e-12)
        assert [e.n_labels for e in result.entries] == [1, 2, 4]

    def test_exclusion_is_total(self, retrieval_corpus):
        config = ReferenceSetConfig(target="T", source="CF")
        reference = build_reference_set(retrieval_corpus, config)
        result = retrieve(retrieval_corpus, reference, exclude=reference.relevant)
        assert not (set(result.compound_ids()) & reference.relevant)
        assert result.excluded == reference.relevant

    def test_top_n_caps_output(self, retrieval_corpus):
        config = ReferenceSetConfig(target="T", source="CF")
        reference = build_reference_set(retrieval_corpus, config)
        result = retrieve(retrieval_corpus, reference,
                          exclude=reference.relevant, top_n=2)
        assert result.compound_ids() == ["c1", "c2"]

    def test_empty_reference_set_empty_result(self, retrieval_corpus):
        config = ReferenceSetConfig(target="T", source="CF", noise_cap=1)
        reference = build_reference_set(retrieval_corpus, config)
        assert reference.no_candidates
        result = retrieve(retrieval_corpus, reference)
        assert len(result) == 0

    def test_zero_score_documents_omitted(self, retrieval_corpus):
        config = ReferenceSetConfig(target="T", source="CF")
        reference = build_reference_set(retrieval_corpus, config)
        result = retrieve(retrieval_corpus, reference, exclude=reference.relevant)
        assert "c3" not in result.compound_ids()  # labels B,C,D match nothing
        assert "c6" not in result.compound_ids()  # no labels at all

    def test_bad_top_n_rejected(self, retrieval_corpus):
        config = ReferenceSetConfig(target="T", source="CF")
        reference = build_reference_set(retrieval_corpus, config)
        with pytest.raises(ValueError):
            retrieve(retrieval_corpus, reference, top_n=0)


class TestRetrieveMatchesOracle:
    """The one-product retrieval equals a per-compound brute-force ranking
    exactly: same compounds, order, scores, L and matched labels."""

    def test_random_corpora_and_hand_edited_references(self):
        rng = np.random.default_rng(909)
        ties = 0
        for case in range(12):
            ids, label_rows, activity_rows = random_label_corpus(
                rng, max_compounds=300, max_labels=20)
            ids = ids + ["zz-bare-1", "zz-bare-2"]  # compounds with no labels
            source = ("CF", "OC")[case % 2]
            corpus = Corpus.build(ids, label_rows, activity_rows)
            vocab = corpus.source_labels(source)
            picked = rng.choice(vocab, size=min(len(vocab), 10), replace=False)
            # few distinct values, some negative or zero, so scores tie and
            # matched labels can cancel; two labels the corpus never saw
            scores = {str(label): float(rng.choice([-1.5, -0.25, 0.0, 0.5, 3.0]))
                      for label in picked}
            scores.update({"absent-a": 2.0, "absent-b": -1.0})
            reference = make_reference(source, scores)
            exclude = set(rng.choice(ids, size=len(ids) // 4, replace=False))
            exclude |= {"ghost-1", "ghost-2"}  # not in the corpus

            result = retrieve(corpus, reference, exclude=exclude,
                              top_n=corpus.n_compounds)
            want = oracle_ranking(ids, label_rows, source=source,
                                  ref_scores=scores, exclude=exclude)
            got = [(e.compound, e.score, e.n_labels, e.matched) for e in result]
            assert got == want
            assert result.excluded == exclude & set(ids)
            top = retrieve(corpus, reference, exclude=exclude, top_n=7)
            assert top.entries == result.entries[:7]
            for entry in result:
                assert doc_score(corpus.labels_of(entry.compound, source),
                                 reference) \
                    == (entry.score, entry.n_labels, entry.matched)
            ties += len(want) - len({row[1] for row in want})
        assert ties > 0

    def test_unknown_free_form_source_raises(self, retrieval_corpus):
        with pytest.raises(UnknownSourceError):
            retrieve(retrieval_corpus, make_reference("weird", {"A": 1.0}))

    def test_well_known_source_without_labels_retrieves_nothing(
            self, retrieval_corpus):
        result = retrieve(retrieval_corpus, make_reference("OC", {"A": 1.0}))
        assert len(result) == 0


class TestRowsInside:
    """NOIR counts and ranks on corpus rows: neither the reference set nor
    the retrieval maps ids to rows through the corpus's id views."""

    @pytest.fixture
    def id_views(self, monkeypatch):
        """Calls of `Corpus.positions` and `Corpus.compounds_for_target`."""
        calls = []
        for name in ("positions", "compounds_for_target"):
            method = getattr(Corpus, name)

            def counted(self, *args, _name=name, _method=method, **kwargs):
                calls.append(_name)
                return _method(self, *args, **kwargs)
            monkeypatch.setattr(Corpus, name, counted)
        return calls

    def test_no_id_round_trip_on_a_planted_corpus(self, tmp_path, id_views):
        spec = SyntheticSpec(n_compounds=200, n_targets=20, n_clusters=4)
        paths, _ = generate_synthetic(spec, tmp_path, seed=3)
        corpus = load_corpus(paths.compounds, paths.labels, paths.activities)
        config = ReferenceSetConfig(target="T0003", source="CF",
                                    activity_type="IC50",
                                    activity_threshold_nm=3000.0)
        reference = build_reference_set(corpus, config)
        result = retrieve(corpus, reference,
                          exclude=reference.relevant | {"ghost"})
        assert id_views == []
        assert len(reference) and len(result)
        assert result.excluded == reference.relevant
        assert reference.relevant == corpus.compounds_for_target(
            "T0003", "IC50", 3000.0)


class TestConsensus:

    def _result(self, ids):
        from repurpose import RankedCompound, RetrievalResult
        entries = tuple(
            RankedCompound(cid, 1.0 / (i + 1), 1, ())
            for i, cid in enumerate(ids))
        return RetrievalResult(entries, frozenset(), "CF")

    def test_identical_results(self):
        a = self._result(["c1", "c2", "c3"])
        assert consensus(a, a) == {"c1", "c2", "c3"}

    def test_disjoint_results(self):
        assert consensus(self._result(["c1"]), self._result(["c2"])) == set()

    def test_partial_overlap(self):
        a = self._result(["c1", "c2", "c5"])
        b = self._result(["c2", "c5", "c9"])
        assert consensus(a, b) == {"c2", "c5"}

    def test_commutative(self):
        a = self._result(["c1", "c2"])
        b = self._result(["c2", "c3"])
        assert consensus(a, b) == consensus(b, a)

    def test_any_number_of_results(self):
        a = self._result(["c1", "c2", "c3"])
        b = self._result(["c2", "c3", "c4"])
        c = self._result(["c3", "c2", "c9"])
        assert consensus(a, b, c) == {"c2", "c3"}
        assert consensus(a) == {"c1", "c2", "c3"}
        with pytest.raises(ValueError):
            consensus()


class TestOracleEquivalence:
    """Brute-force recount from raw rows must match the module pipeline."""

    def test_random_corpora_match(self, tmp_path):
        rng = np.random.default_rng(42)
        for case in range(5):
            ids, label_rows, activity_rows = random_label_corpus(
                rng, max_compounds=300, max_labels=30)
            corpus = Corpus.build(ids, label_rows, activity_rows)
            config = ReferenceSetConfig(target="TGT", source="CF")
            reference = build_reference_set(corpus, config)

            relevant, expected_rows = oracle_reference(
                ids, label_rows, activity_rows, target="TGT", source="CF",
                activity_type="EC50", threshold=30.0)
            assert reference.relevant == relevant
            assert len(reference.labels) == len(expected_rows)
            for got, want in zip(reference.labels, expected_rows):
                label, observed, expected, corpus_count, score = want
                assert got.label == label
                assert got.observed == observed
                assert got.corpus_count == corpus_count
                assert got.expected == pytest.approx(expected, rel=1e-9)
                assert got.score == pytest.approx(score, rel=1e-9)

            result = retrieve(corpus, reference, exclude=relevant,
                              top_n=corpus.n_compounds)
            want_scores = oracle_doc_scores(
                ids, label_rows, source="CF",
                ref_scores={r[0]: r[4] for r in expected_rows},
                exclude=relevant)
            got_scores = {e.compound: (e.score, e.n_labels) for e in result}
            assert set(got_scores) == set(want_scores)
            for cid, (score, n_labels) in want_scores.items():
                assert got_scores[cid][1] == n_labels
                assert got_scores[cid][0] == pytest.approx(score, rel=1e-9)


class TestReferenceSetIO:

    def test_round_trip(self, ranking_corpus, tmp_path):
        config = ReferenceSetConfig(target="T", source="CF")
        reference = build_reference_set(ranking_corpus, config)
        path = tmp_path / "reference.tsv"
        write_reference_set(reference, path)
        loaded = read_reference_set(path, target="T")
        assert loaded.source == "CF"
        assert [sl.label for sl in loaded.labels] \
            == [sl.label for sl in reference.labels]
        for got, want in zip(loaded.labels, reference.labels):
            assert got.observed == want.observed
            assert got.corpus_count == want.corpus_count
            assert got.expected == want.expected
            assert got.score == want.score

    def test_hand_edit_then_retrieve(self, retrieval_corpus, tmp_path):
        config = ReferenceSetConfig(target="T", source="CF")
        reference = build_reference_set(retrieval_corpus, config)
        path = tmp_path / "reference.tsv"
        write_reference_set(reference, path)
        # a chemist doubles the weight of label A before retrieval
        lines = path.read_text().splitlines()
        head, row = lines[0], lines[1].split("\t")
        row[5] = "0.9"
        path.write_text(head + "\n" + "\t".join(row) + "\n")
        edited = read_reference_set(path)
        result = retrieve(retrieval_corpus, edited, exclude={"r1", "r2"})
        assert result.entries[0].score == pytest.approx(0.9, rel=1e-12)

    def test_mixed_sources_rejected(self, tmp_path):
        path = tmp_path / "reference.tsv"
        path.write_text("label\tsource\tO\tE\tC\tscore\n"
                        "x\tCF\t2\t1.0\t3\t1.0\n"
                        "y\tOC\t2\t1.0\t3\t1.0\n")
        with pytest.raises(FormatError, match="mixed sources"):
            read_reference_set(path)

    def test_labels_starting_with_hash_round_trip(self, tmp_path):
        path = tmp_path / "reference.tsv"
        write_reference_set(
            make_reference("CF", {"#hash": 2.0, "plain": 1.0, "#": 0.5}), path)
        loaded = read_reference_set(path)
        assert [sl.label for sl in loaded.labels] == ["#hash", "plain", "#"]

    def test_comments_only_above_the_header(self, tmp_path):
        path = tmp_path / "reference.tsv"
        path.write_text("# edited by hand\n\n"
                        "label\tsource\tO\tE\tC\tscore\n"
                        "#x\tCF\t2\t1.0\t3\t1.0\n"
                        "\n"
                        "y\tCF\t2\t1.0\t3\t0.5\n")
        assert [sl.label for sl in read_reference_set(path).labels] \
            == ["#x", "y"]
        path.write_text("label\tsource\tO\tE\tC\tscore\n"
                        "# not a comment here\n")
        with pytest.raises(FormatError, match="columns"):
            read_reference_set(path)

    @pytest.mark.parametrize("e, score", [
        ("nan", "1.0"), ("1.0", "nan"), ("inf", "1.0"), ("1.0", "-inf")])
    def test_non_finite_values_rejected(self, tmp_path, e, score):
        path = tmp_path / "reference.tsv"
        path.write_text("label\tsource\tO\tE\tC\tscore\n"
                        f"x\tCF\t2\t{e}\t3\t{score}\n")
        with pytest.raises(FormatError, match="finite"):
            read_reference_set(path)

    def test_empty_source_rejected(self, tmp_path):
        path = tmp_path / "reference.tsv"
        path.write_text("label\tsource\tO\tE\tC\tscore\n"
                        "x\t\t2\t1.0\t3\t1.0\n")
        with pytest.raises(FormatError, match="reference.tsv:2: empty source"):
            read_reference_set(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "reference.tsv"
        path.write_text("label\tsource\tO\tE\tC\tscore\n")
        with pytest.raises(FormatError, match="no label rows"):
            read_reference_set(path)

    def test_retrieval_report_format(self, retrieval_corpus, tmp_path):
        config = ReferenceSetConfig(target="T", source="CF")
        reference = build_reference_set(retrieval_corpus, config)
        result = retrieve(retrieval_corpus, reference, exclude=reference.relevant)
        path = tmp_path / "hits.tsv"
        write_retrieval_report(result, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "rank\tcompound_id\tscore\tL\tmatched_labels"
        first = lines[1].split("\t")
        assert first[0] == "1" and first[1] == "c1"
        assert float(first[2]) == pytest.approx(0.45, rel=1e-12)
        assert first[4] == "A"
