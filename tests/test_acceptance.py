"""Acceptance gates for the whole package, one test per criterion.

Run `pytest tests/test_acceptance.py -v -s` to get one PASS line per
criterion (failures surface as ordinary pytest failures).  The heavyweight
planted-corpus sweep behind criteria 6 and 7 runs once and is shared.
"""

import time

import numpy as np
import pytest

from helpers import (
    graph_of,
    matrix_of,
    objective,
    oracle_doc_scores,
    oracle_reference,
    random_label_corpus,
)

from repurpose import (
    Corpus,
    ReferenceSetConfig,
    SyntheticSpec,
    TrainConfig,
    build_interaction_matrix,
    build_reference_set,
    build_similarity_matrix,
    consensus,
    cross_validate,
    generate_synthetic,
    load_corpus,
    retrieve,
    train_csnmf,
    train_nmf,
    transform_activity,
)
from repurpose.cli import main as cli_main


def report(criterion, text):
    print(f"[criterion {criterion}] PASS - {text}")


def relative_close(a, b, rtol=1e-9, atol=1e-12):
    return abs(a - b) <= max(atol, rtol * max(abs(a), abs(b)))


def test_criterion_1_label_scoring_oracle_equivalence():
    """Brute-force recounts from raw rows match the module pipeline on 20
    random corpora (<= 1,000 compounds, <= 50 labels) within 1e-9 relative,
    in under 10 seconds."""
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    for case in range(20):
        ids, label_rows, activity_rows = random_label_corpus(
            rng, max_compounds=1000, max_labels=50)
        source = ("CF", "OC")[case % 2]
        corpus = Corpus.build(ids, label_rows, activity_rows)
        config = ReferenceSetConfig(target="TGT", source=source)
        reference = build_reference_set(corpus, config)

        relevant, expected_rows = oracle_reference(
            ids, label_rows, activity_rows, target="TGT", source=source,
            activity_type="EC50", threshold=30.0)
        assert reference.relevant == relevant
        assert [sl.label for sl in reference.labels] \
            == [row[0] for row in expected_rows]
        for got, want in zip(reference.labels, expected_rows):
            _, observed, expected, corpus_count, score = want
            assert got.observed == observed
            assert got.corpus_count == corpus_count
            assert relative_close(got.expected, expected)
            assert relative_close(got.score, score)

        result = retrieve(corpus, reference, exclude=relevant,
                          top_n=corpus.n_compounds)
        want_scores = oracle_doc_scores(
            ids, label_rows, source=source,
            ref_scores={row[0]: row[4] for row in expected_rows},
            exclude=relevant)
        got_scores = {e.compound: (e.score, e.n_labels) for e in result}
        assert set(got_scores) == set(want_scores)
        for cid, (score, n_labels) in want_scores.items():
            assert got_scores[cid][1] == n_labels
            assert relative_close(got_scores[cid][0], score)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    report(1, f"oracle equivalence on 20 corpora in {elapsed:.2f}s")


def test_criterion_2_planted_retrieval(tmp_path):
    """On a zero-noise 4-cluster corpus, the top-10 retrieval for one
    cluster's target contains only that cluster's held-out members, and
    the two label sources agree on a non-empty consensus, within 5 s."""
    started = time.perf_counter()
    spec = SyntheticSpec(n_compounds=200, n_targets=20, n_clusters=4,
                         labels_per_compound=8, pool_size=16)
    paths, truth = generate_synthetic(spec, tmp_path, seed=7)
    corpus = load_corpus(paths.compounds, paths.labels, paths.activities)

    target = "T0002"
    cluster = truth.target_cluster[target]
    members = truth.cluster_compounds(cluster)

    results = {}
    for source in ("CF", "OC"):
        config = ReferenceSetConfig(target=target, source=source,
                                    activity_type="IC50")
        reference = build_reference_set(corpus, config)
        assert reference.relevant <= members
        result = retrieve(corpus, reference, exclude=reference.relevant,
                          top_n=10)
        retrieved = set(result.compound_ids())
        assert retrieved
        assert retrieved <= members - reference.relevant
        results[source] = result

    agreed = consensus(results["CF"], results["OC"])
    assert agreed
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    report(2, f"top-10 all in planted cluster, consensus of {len(agreed)} "
              f"in {elapsed:.2f}s")


def test_criterion_3_nmf_monotone_nonnegative():
    """Over 10 seeds on random 50x20 matrices the objective trace never
    increases (1e-9 relative slack) and factors stay nonnegative at every
    iteration."""
    rng = np.random.default_rng(77)
    for seed in range(10):
        X = rng.random((50, 20)) * (rng.random((50, 20)) < 0.4) * 8.0

        def check(iteration, U, V, value):
            assert (U >= 0.0).all() and (V >= 0.0).all()

        config = TrainConfig(rank=6, max_iters=80, rel_tol=1e-13, seed=seed)
        model = train_nmf(matrix_of(X), config, on_iteration=check)
        trace = model.objective_trace
        assert np.all(np.diff(trace) <= trace[:-1] * 1e-9)
    report(3, "objective non-increasing and factors >= 0 on 10 seeds")


def test_criterion_4_reduction_bit_identical():
    """lambda = 0 similarity-regularized training equals plain training bit
    for bit on a 100x30 instance for 5 seeds."""
    rng = np.random.default_rng(88)
    X = matrix_of(rng.random((100, 30)) * (rng.random((100, 30)) < 0.3) * 6.0)
    upper = np.triu(rng.random((100, 100)) * (rng.random((100, 100)) < 0.05),
                    k=1)
    S = upper + upper.T
    for seed in range(5):
        config = TrainConfig(rank=8, lam=0.0, max_iters=50, rel_tol=1e-13,
                             seed=seed)
        plain = train_nmf(X, config)
        reduced = train_csnmf(X, graph_of(S), config)
        assert np.array_equal(plain.U, reduced.U)
        assert np.array_equal(plain.V, reduced.V)
        assert np.array_equal(plain.objective_trace, reduced.objective_trace)
    report(4, "bit-identical factors and traces for 5 seeds")


def test_criterion_5_gradient_check():
    """Analytic d(objective)/dU equals central finite differences (h=1e-5)
    within 1e-4 relative at 20 random points."""
    rng = np.random.default_rng(99)
    checked = 0
    while checked < 20:
        n, m, r = 14, 7, 3
        X = rng.random((n, m)) * (rng.random((n, m)) < 0.5) * 5.0
        upper = np.triu(rng.random((n, n)) * (rng.random((n, n)) < 0.3), k=1)
        S = upper + upper.T
        lam = float(rng.uniform(0.1, 1.5))
        U = rng.uniform(0.2, 2.0, size=(n, r))
        V = rng.uniform(0.2, 2.0, size=(m, r))
        degrees = np.diag(S.sum(axis=1))
        analytic = (U @ V.T - X) @ V + lam * (degrees - S) @ U
        h = 1e-5
        for _ in range(5):
            i, j = int(rng.integers(n)), int(rng.integers(r))
            up, um = U.copy(), U.copy()
            up[i, j] += h
            um[i, j] -= h
            numeric = (objective(X, up, V, S, lam)
                       - objective(X, um, V, S, lam)) / (2 * h)
            denom = max(abs(numeric), abs(analytic[i, j]), 1e-12)
            assert abs(numeric - analytic[i, j]) / denom < 1e-4
            checked += 1
    report(5, "analytic gradient matches finite differences at 20 points")


@pytest.fixture(scope="module")
def planted_sweep(tmp_path_factory):
    """Five-seed cross-validation sweep on a planted 2,000 x 200 corpus with
    cluster-correlated fingerprints; shared by criteria 6 and 7."""
    started = time.perf_counter()
    out_dir = tmp_path_factory.mktemp("planted")
    spec = SyntheticSpec(n_compounds=2000, n_targets=200, n_clusters=5,
                         labels_per_compound=8, pool_size=16,
                         targets_per_compound=(10, 20),
                         label_noise=0.10, activity_noise=0.30)
    paths, _ = generate_synthetic(spec, out_dir, seed=1)
    corpus = load_corpus(paths.compounds, paths.labels, paths.activities)
    interactions = build_interaction_matrix(corpus, "IC50")
    similarity = build_similarity_matrix(
        corpus, "CF", interactions.compounds, threshold=0.2)

    k_list = (30, 50, 100)
    runs = {"NMF": [], "CS-NMF": []}
    for seed in range(5):
        config = TrainConfig(rank=12, lam=0.05, max_iters=150, rel_tol=1e-6,
                             seed=seed)
        runs["NMF"].append(cross_validate(
            interactions, config, S=None, n_folds=5, k_list=k_list, seed=seed))
        runs["CS-NMF"].append(cross_validate(
            interactions, config, S=similarity, n_folds=5, k_list=k_list,
            seed=seed))
    elapsed = time.perf_counter() - started
    return runs, k_list, elapsed


def test_criterion_6_regularization_not_worse(planted_sweep):
    """Across 5 seeds of 5-fold CV on the planted corpus, CS-NMF is no worse
    than NMF: mean RMSE within +0.01 and mean recall@30 within -0.01, in
    under 5 minutes."""
    runs, _, elapsed = planted_sweep
    rmse_nmf = np.mean([r.mean_rmse for r in runs["NMF"]])
    rmse_cs = np.mean([r.mean_rmse for r in runs["CS-NMF"]])
    recall_nmf = np.mean([r.recall[30][0] for r in runs["NMF"]])
    recall_cs = np.mean([r.recall[30][0] for r in runs["CS-NMF"]])
    assert rmse_cs <= rmse_nmf + 0.01, (rmse_cs, rmse_nmf)
    assert recall_cs >= recall_nmf - 0.01, (recall_cs, recall_nmf)
    assert elapsed < 300.0
    report(6, f"RMSE {rmse_cs:.4f} vs {rmse_nmf:.4f}, recall@30 "
              f"{recall_cs:.4f} vs {recall_nmf:.4f}, sweep {elapsed:.0f}s")


def test_criterion_7_rank_recall_shape(planted_sweep):
    """Mean recall grows with k on the planted runs: non-decreasing over
    {30, 50, 100} and strictly higher at 100 than at 30, for both models."""
    runs, k_list, _ = planted_sweep
    summary = {}
    for name, reports in runs.items():
        means = [np.mean([r.recall[k][0] for r in reports]) for k in k_list]
        assert all(a <= b + 1e-12 for a, b in zip(means, means[1:])), means
        assert means[-1] > means[0], means
        summary[name] = means
    report(7, "mean recall over k=30/50/100: " + "; ".join(
        f"{name} {m[0]:.3f}/{m[1]:.3f}/{m[2]:.3f}"
        for name, m in summary.items()))


def test_criterion_8_transform_endpoints_exact():
    """The activity transform hits its fixed endpoints exactly."""
    assert transform_activity(0) == 10.0
    assert transform_activity(10_000) == 5.0
    assert transform_activity(20_000) == 1.0
    report(8, "transform(0, 10000, 20000 nM) == (10.0, 5.0, 1.0) exactly")


def test_criterion_9_cli_byte_determinism(tmp_path, capsys):
    """Re-running any CLI pipeline with the same seed reproduces every TSV
    output byte for byte."""
    import os

    def run(*argv):
        assert cli_main(list(argv)) == 0
        capsys.readouterr()

    def tree_bytes(directory):
        out = {}
        for name in sorted(os.listdir(directory)):
            path = os.path.join(directory, name)
            if os.path.isfile(path):
                with open(path, "rb") as fh:
                    out[name] = fh.read()
        return out

    trees = {}
    for attempt in ("first", "second"):
        base = tmp_path / attempt
        data = base / "data"
        run("generate-synthetic", "--out-dir", str(data),
            "--compounds", "150", "--targets", "15", "--clusters", "3",
            "--seed", "42")
        run("noir", "--data-dir", str(data), "--target", "T0000",
            "--activity-type", "IC50", "--out-dir", str(base / "noir"))
        run("train", "--data-dir", str(data), "--rank", "4",
            "--max-iters", "30", "--seed", "5",
            "--similarity", "jaccard:CF", "--out", str(base / "model.tsv"))
        run("evaluate", "--data-dir", str(data), "--rank", "4",
            "--max-iters", "25", "--seed", "5", "--folds", "3",
            "-k", "3,6", "--sample-size", "50", "--min-train-targets", "1",
            "--min-test-targets", "1", "--similarity", "none",
            "--similarity", "jaccard:CF", "--out-dir", str(base / "eval"))
        run("recommend", "--data-dir", str(data),
            "--model", str(base / "model.tsv"), "--compounds",
            "C00000,C00001", "-k", "5", "--out", str(base / "recs.tsv"))
        trees[attempt] = {
            "data": tree_bytes(data),
            "noir": tree_bytes(base / "noir"),
            "eval": tree_bytes(base / "eval"),
            "model": (base / "model.tsv").read_bytes(),
            "recs": (base / "recs.tsv").read_bytes(),
        }
    assert trees["first"] == trees["second"]
    report(9, "generate/noir/train/evaluate/recommend outputs byte-identical")
