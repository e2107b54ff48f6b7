"""Tests of the benchmark itself: tiny end-to-end runs, and one wrong output
per check to show that the check rejects it.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import generate  # noqa: E402
import workloads  # noqa: E402
from repurpose import (  # noqa: E402
    EvalReport,
    ReferenceSetConfig,
    SimilarityMatrix,
    TrainConfig,
    build_interaction_matrix,
    build_reference_set,
    build_similarity_matrix,
    consensus,
    load_corpus,
    load_model,
    read_reference_set,
    retrieve,
    save_model,
    train_csnmf,
    write_reference_set,
)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def run_bench(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "0.2", "--trace", str(trace),
         "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_passes_its_checks(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == {m["name"]: m["unit"] for m in declared}


def test_refuses_to_run_without_package_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = run_bench(tmp_path, "cv-planted-2k", 0)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


# -- fixtures: tiny corpus, its outputs, and a trained model -------------------

@pytest.fixture(scope="module")
def data(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("tiny"))
    generate.write(out, *generate.generate("tiny-screen", 5))
    corpus = load_corpus(*workloads.corpus_paths(out))
    return out, corpus, checks.RawCorpus(out)


@pytest.fixture(scope="module")
def screen(data):
    _, corpus, raw = data
    target = corpus.target_ids()[0]
    results, references = {}, {}
    for source in ("CF", "OC"):
        references[source] = build_reference_set(corpus, ReferenceSetConfig(
            target=target, source=source, activity_type="IC50"))
        results[source] = retrieve(corpus, references[source],
                                   exclude=references[source].relevant, top_n=20)
    return target, references, results


@pytest.fixture(scope="module")
def forward(data, tmp_path_factory):
    _, corpus, _ = data
    X = build_interaction_matrix(corpus, "IC50")
    S = build_similarity_matrix(corpus, "CF", X.compounds, threshold=0.2)
    model = train_csnmf(X, S, TrainConfig(rank=4, lam=0.05, max_iters=10,
                                          rel_tol=1e-300, seed=0))
    path = str(tmp_path_factory.mktemp("model") / "model.tsv")
    save_model(model, path)
    return X, S, model, load_model(path)


def with_entry(result, at, **changes):
    entries = list(result.entries)
    entries[at] = dataclasses.replace(entries[at], **changes)
    return dataclasses.replace(result, entries=tuple(entries))


# -- noir checks ----------------------------------------------------------------

def test_reference_recount_rejects_a_wrong_score_or_count(data, screen):
    _, _, raw = data
    target, references, _ = screen
    reference = references["CF"]
    _, own = checks.own_reference(raw, target, "CF", "IC50", 30.0, 2, 200_000, 20)
    assert checks.check_reference_set(reference, own) == []
    first = reference.labels[0]
    for change in (dict(score=first.score * (1 + 1e-6)),
                   dict(observed=first.observed + 1),
                   dict(expected=first.expected * 1.01),
                   dict(corpus_count=first.corpus_count - 1)):
        bad = dataclasses.replace(reference, labels=(
            dataclasses.replace(first, **change),) + reference.labels[1:])
        assert checks.check_reference_set(bad, own)
    dropped = dataclasses.replace(reference, labels=reference.labels[1:])
    assert checks.check_reference_set(dropped, own)


def test_document_recount_rejects_wrong_scores_and_missing_hits(data, screen):
    _, _, raw = data
    target, references, results = screen
    result = results["CF"]
    _, own = checks.own_reference(raw, target, "CF", "IC50", 30.0, 2, 200_000, 20)
    relevant = raw.relevant(target, "IC50", 30.0)
    scores = checks.own_doc_scores(raw, "CF", {r[0]: r[4] for r in own}, relevant)
    assert checks.check_retrieval_scores(result, scores, 20) == []
    e = result.entries[0]
    assert checks.check_retrieval_scores(
        with_entry(result, 0, score=e.score * (1 + 1e-6)), scores, 20)
    assert checks.check_retrieval_scores(
        with_entry(result, 0, n_labels=e.n_labels + 1), scores, 20)
    short = dataclasses.replace(result, entries=result.entries[:-1])
    assert checks.check_retrieval_scores(short, scores, 20)
    # the best hit left out, the next 20 kept: scores right, list incomplete
    longer = retrieve(data[1], references["CF"],
                      exclude=references["CF"].relevant, top_n=21)
    skipped = dataclasses.replace(longer, entries=longer.entries[1:])
    assert checks.check_retrieval_scores(skipped, scores, 20)


def test_hit_order_rejects_a_swap(screen):
    result = screen[2]["CF"]
    assert checks.check_hit_order(result) == []
    entries = list(result.entries)
    entries[0], entries[-1] = entries[-1], entries[0]
    assert checks.check_hit_order(dataclasses.replace(result, entries=tuple(entries)))


def test_exclusion_rejects_a_relevant_hit(data, screen):
    _, _, raw = data
    target, _, results = screen
    relevant = raw.relevant(target, "IC50", 30.0)
    assert checks.check_excludes(results["CF"], relevant) == []
    leaked = with_entry(results["CF"], 0, compound=sorted(relevant)[0])
    assert checks.check_excludes(leaked, relevant)


def test_consensus_rejects_a_missing_compound(screen):
    results = screen[2]
    agreed = consensus(results["CF"], results["OC"])
    assert agreed
    assert checks.check_consensus(agreed, results["CF"], results["OC"]) == []
    assert checks.check_consensus(set(sorted(agreed)[1:]), results["CF"], results["OC"])


def test_reread_rejects_any_difference(data, screen, tmp_path):
    _, corpus, _ = data
    target, references, results = screen
    path = str(tmp_path / "reference_CF.tsv")
    write_reference_set(references["CF"], path)
    again = retrieve(corpus, read_reference_set(path, target=target),
                     exclude=references["CF"].relevant, top_n=20)
    assert checks.check_reread(results["CF"], again) == []
    e = again.entries[-1]
    bumped = with_entry(again, -1, score=float(np.nextafter(e.score, 0)))
    assert checks.check_reread(results["CF"], bumped)


# -- cross-validation checks -----------------------------------------------------

def report(label, rmse=2.0, recall=(0.9, 0.95, 0.97)):
    return EvalReport(label=label, fold_rmse=(rmse, rmse),
                      recall=dict(zip((30, 50, 100), ((r, 0.1) for r in recall))),
                      n_sampled=100)


@pytest.mark.parametrize("bad", [
    dict(NMF=report("NMF", rmse=9.0)),
    dict(NMF=report("NMF", recall=(0.4, 0.5, 0.6))),
    dict(NMF=report("NMF", recall=(0.9, 0.85, 0.97))),
    {"CS-NMF": report("CS-NMF", rmse=2.02)},
    {"CS-NMF": report("CS-NMF", recall=(0.88, 0.95, 0.97))},
])
def test_cv_check_rejects_each_bad_report(bad):
    good = {"NMF": report("NMF"), "CS-NMF": report("CS-NMF")}
    assert not any(checks.check_cv(good, 8.0, 200, (30, 50, 100)).values())
    problems = checks.check_cv({**good, **bad}, 8.0, 200, (30, 50, 100))
    assert problems[next(iter(bad))]


# -- forward checks ----------------------------------------------------------------

def test_interaction_matrix_rejects_a_wrong_entry(data, forward):
    _, _, raw = data
    X = forward[0]
    assert checks.check_interaction_matrix(raw, X, "IC50") == []
    matrix = X.matrix.copy()
    matrix.data[3] += 1e-6
    assert checks.check_interaction_matrix(raw, dataclasses.replace(X, matrix=matrix),
                                           "IC50")


def test_jaccard_rejects_a_wrong_or_missing_pair(data, forward):
    _, _, raw = data
    S = forward[1]
    rows, cols, vals = S.triplets()
    pairs = [(S.compounds[i], S.compounds[j]) for i, j in zip(rows[:20], cols[:20])]
    assert checks.check_jaccard(raw, S, pairs, "CF", 0.2) == []
    changed = vals.copy()
    changed[0] *= 1.001
    assert checks.check_jaccard(
        raw, SimilarityMatrix(S.compounds, rows, cols, changed, 0.2), pairs, "CF", 0.2)
    missing = SimilarityMatrix(S.compounds, rows[1:], cols[1:], vals[1:], 0.2)
    assert checks.check_jaccard(raw, missing, pairs, "CF", 0.2)


def test_training_check_rejects_rises_negatives_and_early_stops(forward):
    model = forward[2]
    assert checks.check_training(model, 10) == []
    trace = model.objective_trace.copy()
    trace[5] = trace[4] * 1.01
    assert checks.check_training(dataclasses.replace(model, objective_trace=trace), 10)
    U = model.U.copy()
    U[0, 0] = -1e-9
    assert checks.check_training(dataclasses.replace(model, U=U), 10)
    V = model.V.copy()
    V[0, 0] = np.nan
    assert checks.check_training(dataclasses.replace(model, V=V), 10)
    assert checks.check_training(model, 11)


def test_objective_check_rejects_a_wrong_last_value(forward):
    X, S, model, _ = forward
    assert checks.check_objective(model, X.matrix, S.triplets(), 0.05) == []
    trace = model.objective_trace.copy()
    trace[-1] *= 1 + 1e-7
    assert checks.check_objective(dataclasses.replace(model, objective_trace=trace),
                                  X.matrix, S.triplets(), 0.05)


def test_roundtrip_rejects_one_ulp_or_a_renamed_id(forward):
    model, loaded = forward[2], forward[3]
    assert checks.check_roundtrip(model, loaded) == []
    U = loaded.U.copy()
    U[1, 1] = np.nextafter(U[1, 1], np.inf)
    assert checks.check_roundtrip(model, dataclasses.replace(loaded, U=U))
    renamed = ("X",) + loaded.compounds[1:]
    assert checks.check_roundtrip(model, dataclasses.replace(loaded, compounds=renamed))


def test_recommendation_rejects_known_targets_and_wrong_order(data, forward):
    _, _, raw = data
    loaded = forward[3]
    compound = loaded.compounds[0]
    known = raw.known_targets(compound, "IC50")
    want = checks.own_top_k(loaded.U, loaded.V, 0, loaded.targets, known, 10)
    assert checks.check_recommendation(want, want, known) == []
    assert checks.check_recommendation(want[::-1], want, known)
    assert checks.check_recommendation([sorted(known)[0]] + want[:-1], want, known)


def test_failures_count_later_rounds_that_differ():
    first = [[], ["bad"], []]
    rounds = [["a", "b", "c"], ["a", "b", "x"]]
    assert workloads.failures(first, rounds, lambda a, b: a == b) == 3
