import pytest

from helpers import oracle_jaccard_pairs

from repurpose import (
    SyntheticSpec,
    build_reference_set,
    generate_synthetic,
    load_corpus,
    ReferenceSetConfig,
    retrieve,
    consensus,
)


SMALL = SyntheticSpec(n_compounds=60, n_targets=12, n_clusters=3,
                      labels_per_compound=6, pool_size=12)


class TestGeneration:

    def test_files_round_trip_through_loader(self, tmp_path):
        paths, truth = generate_synthetic(SMALL, tmp_path, seed=1)
        corpus = load_corpus(paths.compounds, paths.labels, paths.activities)
        assert corpus.n_compounds == 60
        assert len(corpus.target_ids()) == 12
        assert corpus.sources() == ("CF", "OC")
        assert len(truth.compound_cluster) == 60
        assert len(truth.target_cluster) == 12
        for compound in corpus.compound_ids():
            for source in ("CF", "OC"):
                assert len(corpus.labels_of(compound, source)) == 6

    def test_zero_noise_separates_clusters(self, tmp_path):
        paths, truth = generate_synthetic(SMALL, tmp_path, seed=3)
        corpus = load_corpus(paths.compounds, paths.labels, paths.activities)
        bit_sets = {c: set(corpus.labels_of(c, "CF"))
                    for c in corpus.compound_ids()}
        pairs = oracle_jaccard_pairs(bit_sets)
        ids = sorted(bit_sets)
        for i, a in enumerate(ids):
            for b in ids[i + 1:]:
                value = pairs.get((a, b), 0.0)
                if truth.compound_cluster[a] == truth.compound_cluster[b]:
                    assert value > 0.0  # core labels always shared
                else:
                    assert value == 0.0  # pools are disjoint

    def test_same_seed_identical_bytes(self, tmp_path):
        paths_a, _ = generate_synthetic(SMALL, tmp_path / "a", seed=9)
        paths_b, _ = generate_synthetic(SMALL, tmp_path / "b", seed=9)
        for pa, pb in zip(paths_a, paths_b):
            assert open(pa, "rb").read() == open(pb, "rb").read()

    def test_different_seed_differs(self, tmp_path):
        paths_a, _ = generate_synthetic(SMALL, tmp_path / "a", seed=1)
        paths_b, _ = generate_synthetic(SMALL, tmp_path / "b", seed=2)
        assert open(paths_a.activities, "rb").read() \
            != open(paths_b.activities, "rb").read()

    def test_activities_stay_in_cluster_without_noise(self, tmp_path):
        paths, truth = generate_synthetic(SMALL, tmp_path, seed=5)
        corpus = load_corpus(paths.compounds, paths.labels, paths.activities)
        compounds, targets = corpus.compound_ids(), corpus.target_ids()
        pairs = [(compounds[i], targets[j])
                 for atype in corpus.activity_types()
                 for i, j in zip(*corpus.activity_matrix(atype).nonzero())]
        assert pairs
        for compound, target in pairs:
            assert truth.compound_cluster[compound] \
                == truth.target_cluster[target]

    def test_morgan_source_uses_integer_bits(self, tmp_path):
        spec = SyntheticSpec(n_compounds=12, n_targets=4, n_clusters=2,
                             labels_per_compound=4, pool_size=8,
                             sources=("MORGAN",))
        paths, _ = generate_synthetic(spec, tmp_path, seed=0)
        corpus = load_corpus(paths.compounds, paths.labels, paths.activities)
        for label in corpus.source_labels("MORGAN"):
            int(label)  # must parse as a bit id

    def test_inconsistent_spec_rejected(self):
        with pytest.raises(ValueError):
            SyntheticSpec(n_compounds=5, n_targets=10, n_clusters=8)
        with pytest.raises(ValueError):
            SyntheticSpec(n_compounds=50, n_targets=2, n_clusters=4)
        with pytest.raises(ValueError):
            SyntheticSpec(n_compounds=50, n_targets=50, n_clusters=4,
                          labels_per_compound=20, pool_size=10)

    def test_cluster_map_matches_round_robin(self, tmp_path):
        _, truth = generate_synthetic(SMALL, tmp_path, seed=4)
        assert truth.compound_cluster["C00000"] == 0
        assert truth.compound_cluster["C00004"] == 1
        assert truth.cluster_compounds(0) >= {"C00000", "C00003"}
        assert {t for t, g in truth.target_cluster.items() if g == 1} \
            == {"T0001", "T0004", "T0007", "T0010"}


class TestPlantedRetrieval:
    """End-to-end: the label pipeline recovers the planted cluster."""

    def test_query_recovers_cluster_and_consensus(self, tmp_path):
        spec = SyntheticSpec(n_compounds=200, n_targets=20, n_clusters=4,
                             labels_per_compound=8, pool_size=16)
        paths, truth = generate_synthetic(spec, tmp_path, seed=11)
        corpus = load_corpus(paths.compounds, paths.labels, paths.activities)

        target = "T0000"
        cluster = truth.target_cluster[target]
        members = truth.cluster_compounds(cluster)

        results = {}
        for source in ("CF", "OC"):
            config = ReferenceSetConfig(
                target=target, source=source, activity_type="IC50",
                activity_threshold_nm=30.0)
            reference = build_reference_set(corpus, config)
            assert reference.relevant <= members
            result = retrieve(corpus, reference, exclude=reference.relevant,
                              top_n=10)
            retrieved = set(result.compound_ids())
            assert retrieved  # something was retrieved
            assert retrieved <= members - reference.relevant
            results[source] = result

        agreed = consensus(results["CF"], results["OC"])
        assert agreed
        assert agreed <= members
