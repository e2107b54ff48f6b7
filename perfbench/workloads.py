"""The benchmark's three workloads, driven through the package's public API.

Each workload loads its corpus (set-up), then runs whole rounds of the same
operations until the run's seconds are used, then checks the first round's
outputs with `checks` and every later round's outputs for equality with the
first.  Calls into the package go through a `Tracer`, which records a span
per call when tracing is on and costs nothing when it is off.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import time
from dataclasses import dataclass, field

import numpy as np

import repurpose.evaluation as evaluation
from repurpose import (
    ReferenceSetConfig,
    TrainConfig,
    build_interaction_matrix,
    build_reference_set,
    build_similarity_matrix,
    consensus,
    cross_validate,
    load_corpus,
    load_model,
    read_reference_set,
    retrieve,
    save_model,
    train_csnmf,
    write_reference_set,
    write_retrieval_report,
)

import checks
from tracing import patched

ACTIVITY_TYPE = "IC50"
THRESHOLD_NM = 30.0
SOURCES = ("CF", "OC")
SIM_SOURCE = "CF"
SIM_THRESHOLD = 0.2

# Per-workload sizes.  "full" is what the benchmark runs; "tiny" runs every
# step and check in seconds for the benchmark's own tests.
PARAMS = {
    "noir-screen-20k": {
        "full": dict(shape="corpus-20k", loads=3, targets=80, edit_every=4,
                     top_n=100, recount=8, tail_pct=87.5),
        "tiny": dict(shape="tiny-screen", loads=3, targets=8, edit_every=4,
                     top_n=20, recount=3, tail_pct=90),
    },
    "cv-planted-2k": {
        "full": dict(shape="corpus-2k", loads=25, folds=5, rank=12, lam=0.05,
                     max_iters=150, rel_tol=1e-6, k_list=(30, 50, 100)),
        "tiny": dict(shape="tiny-cv", loads=3, folds=3, rank=4, lam=0.05,
                     max_iters=40, rel_tol=1e-6, k_list=(5, 10, 20)),
    },
    "forward-20k": {
        "full": dict(shape="corpus-20k", loads=3, rank=20, lam=0.05,
                     iterations=8, k=30, passes=2, pair_sample=150, tail_pct=98),
        "tiny": dict(shape="tiny-screen", loads=3, rank=4, lam=0.05,
                     iterations=10, k=10, passes=2, pair_sample=30, tail_pct=90),
    },
}


@dataclass
class Outcome:
    setup_s: float
    round_s: list
    peak_rss_mb: float
    op_s: list
    tail_pct: float
    accuracy: float
    attempted: int
    failed: int
    problems: list = field(default_factory=list)


def median(values):
    return float(np.median(values))


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def corpus_paths(data_dir):
    return tuple(os.path.join(data_dir, name)
                 for name in ("compounds.tsv", "labels.tsv", "activities.tsv"))


def set_up(data_dir, loads, tracer):
    """Load the corpus `loads` times; return (corpus, median load seconds)."""
    times, corpus = [], None
    for _ in range(loads):
        corpus = None
        gc.collect()
        start = time.perf_counter()
        corpus = tracer.call("corpus.load_corpus", load_corpus,
                             *corpus_paths(data_dir))
        times.append(time.perf_counter() - start)
    return corpus, median(times)


def timed_rounds(seconds, body):
    """Run `body()` in whole rounds until their time reaches `seconds`.

    Returns (outputs per round, seconds per round, peak RSS after round 1).
    """
    outputs, times, peak = [], [], None
    while not times or sum(times) < seconds:
        start = time.perf_counter()
        outputs.append(body())
        times.append(time.perf_counter() - start)
        if peak is None:
            peak = peak_rss_mb()
    return outputs, times, peak


def failures(first_problems, outputs, same):
    """Failed operations over all rounds: an op fails in round 1 when its
    checks found a problem, and in a later round also when its output
    differs from round 1's."""
    failed = sum(1 for p in first_problems if p)
    for later in outputs[1:]:
        for i, p in enumerate(first_problems):
            if p or not same(outputs[0][i], later[i]):
                failed += 1
    return failed


def compound_cluster(truth, compound):
    return truth["compound_cluster"][int(compound[1:])]


def target_cluster(truth, target):
    return truth["target_cluster"][int(target[1:])]


# -- noir-screen-20k ----------------------------------------------------------

def run_noir(ctx, p, tracer):
    corpus, setup_s = set_up(ctx.data_dir, p["loads"], tracer)
    rng = np.random.default_rng([ctx.seed, 1])
    targets = sorted(str(t) for t in rng.choice(
        corpus.target_ids(), size=p["targets"], replace=False))
    out_dir = os.path.join(ctx.work_dir, "noir")
    os.makedirs(out_dir, exist_ok=True)
    latencies = []

    def screen(index, target):
        start = time.perf_counter()
        with tracer.span("bench.screen") as counts:
            relevant = tracer.call("corpus.compounds_for_target",
                                   corpus.compounds_for_target, target,
                                   ACTIVITY_TYPE, THRESHOLD_NM)
            references, results, reread = {}, {}, {}
            for source in SOURCES:
                config = ReferenceSetConfig(
                    target=target, source=source, activity_type=ACTIVITY_TYPE,
                    activity_threshold_nm=THRESHOLD_NM)
                reference = references[source] = tracer.call(
                    "noir.build_reference_set", build_reference_set, corpus, config)
                results[source] = tracer.call(
                    "noir.retrieve", retrieve, corpus, reference,
                    exclude=reference.relevant, top_n=p["top_n"])
                tracer.call("noir.io.write_reference_set", write_reference_set,
                            reference, os.path.join(out_dir, f"reference_{source}.tsv"))
                tracer.call("noir.io.write_retrieval_report", write_retrieval_report,
                            results[source],
                            os.path.join(out_dir, f"retrieval_{source}.tsv"))
            agreed = tracer.call("noir.consensus", consensus, *results.values())
            if index % p["edit_every"] == p["edit_every"] - 1:
                for source in SOURCES:
                    loaded = tracer.call(
                        "noir.io.read_reference_set", read_reference_set,
                        os.path.join(out_dir, f"reference_{source}.tsv"),
                        target=target)
                    reread[source] = tracer.call(
                        "noir.retrieve", retrieve, corpus, loaded,
                        exclude=frozenset(relevant), top_n=p["top_n"])
            counts["relevant"] = len(relevant)
            counts["hits"] = sum(len(r) for r in results.values())
        latencies.append(time.perf_counter() - start)
        return dict(target=target, references=references, results=results,
                    agreed=agreed, reread=reread)

    outputs, round_s, peak = timed_rounds(
        ctx.seconds, lambda: [screen(i, t) for i, t in enumerate(targets)])

    raw = checks.RawCorpus(ctx.data_dir)
    recount = set(rng.choice(len(targets), size=min(p["recount"], len(targets)),
                             replace=False))
    first_problems = []
    for i, op in enumerate(outputs[0]):
        problems = []
        own_relevant = raw.relevant(op["target"], ACTIVITY_TYPE, THRESHOLD_NM)
        for source, result in op["results"].items():
            problems += checks.check_hit_order(result)
            problems += checks.check_excludes(result, own_relevant)
            if i in recount:
                reference = op["references"][source]
                _, own_rows = checks.own_reference(
                    raw, op["target"], source, ACTIVITY_TYPE, THRESHOLD_NM,
                    reference.config.min_relevant_count,
                    reference.config.noise_cap, reference.config.set_size)
                problems += checks.check_reference_set(reference, own_rows)
                own_scores = checks.own_doc_scores(
                    raw, source, {r[0]: r[4] for r in own_rows}, own_relevant)
                problems += checks.check_retrieval_scores(
                    result, own_scores, p["top_n"])
        problems += checks.check_consensus(op["agreed"], *op["results"].values())
        for source, again in op["reread"].items():
            problems += checks.check_reread(op["results"][source], again)
        first_problems.append([f"{op['target']}: {x}" for x in problems])

    def same(a, b):
        return all(a[key] == b[key] for key in ("references", "results",
                                                "agreed", "reread"))

    in_cluster = sum(compound_cluster(ctx.truth, c) == target_cluster(ctx.truth, op["target"])
                     for op in outputs[0] for c in op["agreed"])
    n_agreed = sum(len(op["agreed"]) for op in outputs[0])
    return Outcome(
        setup_s=setup_s, round_s=round_s, peak_rss_mb=peak, op_s=latencies,
        tail_pct=p["tail_pct"],
        accuracy=in_cluster / n_agreed if n_agreed else 0.0,
        attempted=len(targets) * len(outputs),
        failed=failures(first_problems, outputs, same),
        problems=[x for ps in first_problems for x in ps])


# -- cv-planted-2k ------------------------------------------------------------

def run_cv(ctx, p, tracer):
    corpus, setup_s = set_up(ctx.data_dir, p["loads"], tracer)
    config = TrainConfig(rank=p["rank"], lam=p["lam"], max_iters=p["max_iters"],
                         rel_tol=p["rel_tol"], seed=ctx.seed)
    fold_marks = []

    def marked(fn):
        def call(*args, **kwargs):
            fold_marks[-1].append(time.perf_counter())
            return fn(*args, **kwargs)
        return call

    def one_round():
        X = tracer.call("factorization.build_interaction_matrix",
                        build_interaction_matrix, corpus, ACTIVITY_TYPE)
        with tracer.span("similarity.build_similarity_matrix") as counts:
            S = build_similarity_matrix(corpus, SIM_SOURCE, X.compounds,
                                        threshold=SIM_THRESHOLD)
            counts["pairs"] = S.n_pairs
        reports = {}
        for label, similarity in (("NMF", None), ("CS-NMF", S)):
            fold_marks.append([])
            name = "evaluation.cross_validate_" + label.replace("-", "").lower()
            reports[label] = tracer.call(
                name, cross_validate, X, config, S=similarity,
                n_folds=p["folds"], k_list=p["k_list"], seed=ctx.seed)
            fold_marks[-1].append(time.perf_counter())
        return X, reports

    hooks = {
        "split_folds": tracer.wrap("evaluation.split_folds", evaluation.split_folds),
        "training_matrix": marked(tracer.wrap("evaluation.training_matrix",
                                              evaluation.training_matrix)),
        "train_nmf": tracer.trainer("factorization.train_nmf", evaluation.train_nmf),
        "train_csnmf": tracer.trainer("factorization.train_csnmf",
                                      evaluation.train_csnmf),
        "rmse": tracer.wrap("evaluation.rmse", evaluation.rmse),
        "recall_at_k": tracer.wrap("evaluation.recall_at_k", evaluation.recall_at_k),
    }
    with patched(evaluation, hooks):
        outputs, round_s, peak = timed_rounds(ctx.seconds, one_round)

    # One operation for latency is one fold, trained and scored under both
    # variants: every such operation holds the same mix of work.
    fold_s = []
    for nmf_marks, cs_marks in zip(fold_marks[0::2], fold_marks[1::2]):
        fold_s += list(np.diff(nmf_marks) + np.diff(cs_marks))

    raw = checks.RawCorpus(ctx.data_dir)
    X, reports = outputs[0]
    problems = checks.check_cv(
        reports, checks.zero_predictor_rmse(raw, ACTIVITY_TYPE), X.shape[1],
        p["k_list"])
    labels = list(reports)
    first_problems = [problems[label] for label in labels]

    def summary(reports):
        return [(r.fold_rmse, r.recall, r.n_sampled) for r in reports.values()]

    per_round = [summary(out_reports) for _, out_reports in outputs]
    return Outcome(
        setup_s=setup_s, round_s=round_s, peak_rss_mb=peak, op_s=fold_s,
        tail_pct=100.0, accuracy=reports["CS-NMF"].recall[p["k_list"][0]][0],
        attempted=len(labels) * len(outputs),
        failed=failures(first_problems, per_round, lambda a, b: a == b),
        problems=[f"{label}: {x}" for label in labels for x in problems[label]])


# -- forward-20k --------------------------------------------------------------

def run_forward(ctx, p, tracer):
    corpus, setup_s = set_up(ctx.data_dir, p["loads"], tracer)
    # a tolerance no decrease can miss: training runs exactly `iterations`
    config = TrainConfig(rank=p["rank"], lam=p["lam"], max_iters=p["iterations"],
                         rel_tol=1e-300, seed=ctx.seed)
    held_out = sorted(map(tuple, ctx.truth["held_out"]))
    compounds = sorted({c for c, _ in held_out})
    model_path = os.path.join(ctx.work_dir, "model.tsv")
    train = tracer.trainer("factorization.train_csnmf", train_csnmf)
    latencies = []

    def recommend(model, compound):
        start = time.perf_counter()
        with tracer.span("bench.recommend"):
            known = tracer.call("corpus.targets_of", corpus.targets_of,
                                compound, ACTIVITY_TYPE)
            scores = tracer.call("factorization.score_targets", model.score_targets,
                                 model.row_of(compound)).copy()
            for target in known:
                col = model.target_pos.get(target)
                if col is not None:
                    scores[col] = -np.inf
            top = []
            for col in np.argsort(-scores, kind="stable"):
                if len(top) >= p["k"] or scores[col] == -np.inf:
                    break
                top.append(model.targets[int(col)])
        latencies.append(time.perf_counter() - start)
        return top

    def one_round():
        X = tracer.call("factorization.build_interaction_matrix",
                        build_interaction_matrix, corpus, ACTIVITY_TYPE)
        with tracer.span("similarity.build_similarity_matrix") as counts:
            before = peak_rss_mb()
            S = build_similarity_matrix(corpus, SIM_SOURCE, X.compounds,
                                        threshold=SIM_THRESHOLD)
            counts["rss_rise_mb"] = peak_rss_mb() - before
            counts["pairs"] = S.n_pairs
        model = train(X, S, config)
        tracer.call("factorization.save_model", save_model, model, model_path)
        with tracer.span("factorization.load_model") as counts:
            loaded = load_model(model_path)
            counts["bytes"] = os.path.getsize(model_path)
        recs = [recommend(loaded, c)
                for _ in range(p["passes"]) for c in compounds]
        return dict(X=X, S=S, model=model, loaded=loaded, recs=recs)

    outputs, round_s, peak = timed_rounds(ctx.seconds, one_round)
    # Every compound is recommended once per pass, and an operation's
    # latency is the compound's fastest pass: a slow moment of the machine
    # lands on one pass of a compound, and the other pass still shows what
    # the program costs.
    op_s = list(np.min(np.reshape(latencies, (-1, p["passes"], len(compounds))),
                       axis=1).ravel())
    first = outputs[0]
    for out in outputs[1:]:
        out["digest"] = model_digest(out["loaded"])
        del out["X"], out["S"], out["model"], out["loaded"]

    raw = checks.RawCorpus(ctx.data_dir)
    X, S, model, loaded = first["X"], first["S"], first["model"], first["loaded"]
    rng = np.random.default_rng([ctx.seed, 2])
    pipeline = checks.check_interaction_matrix(raw, X, ACTIVITY_TYPE)
    pipeline += checks.check_jaccard(
        raw, S, sample_pairs(rng, S, ctx.truth, p["pair_sample"]),
        SIM_SOURCE, SIM_THRESHOLD)
    pipeline += checks.check_training(model, p["iterations"])
    pipeline += checks.check_objective(model, X.matrix, S.triplets(), p["lam"])
    pipeline += checks.check_roundtrip(model, loaded)
    first_problems = [pipeline]
    wanted = {}
    for compound in compounds:
        known = raw.known_targets(compound, ACTIVITY_TYPE)
        wanted[compound] = known, checks.own_top_k(
            loaded.U, loaded.V, loaded.row_of(compound), loaded.targets, known,
            p["k"])
    for compound, top in zip(compounds * p["passes"], first["recs"]):
        known, want = wanted[compound]
        first_problems.append([f"{compound}: {x}" for x in
                               checks.check_recommendation(top, want, known)])

    first["digest"] = model_digest(loaded)
    per_round = [[out["digest"]] + out["recs"] for out in outputs]
    recommended = dict(zip(compounds, first["recs"]))
    found = sum(t in recommended[c] for c, t in held_out)
    return Outcome(
        setup_s=setup_s, round_s=round_s, peak_rss_mb=peak, op_s=op_s,
        tail_pct=p["tail_pct"], accuracy=found / len(held_out),
        attempted=(1 + p["passes"] * len(compounds)) * len(outputs),
        failed=failures(first_problems, per_round, lambda a, b: a == b),
        problems=[x for ps in first_problems for x in ps])


def model_digest(model):
    h = hashlib.sha256()
    for array in (model.U, model.V, model.objective_trace):
        h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()


def sample_pairs(rng, S, truth, n):
    """Id pairs for the Jaccard check: stored pairs, same-cluster pairs
    (mostly stored, some just under the threshold) and uniform pairs."""
    rows, cols, _ = S.triplets()
    ids = S.compounds
    pairs = []
    for at in rng.choice(len(rows), size=min(n, len(rows)), replace=False):
        pairs.append((ids[rows[at]], ids[cols[at]]))
    by_cluster = {}
    for c in ids:
        by_cluster.setdefault(compound_cluster(truth, c), []).append(c)
    groups = [g for g in by_cluster.values() if len(g) > 1]
    for _ in range(n):
        group = groups[int(rng.integers(len(groups)))]
        a, b = rng.choice(len(group), size=2, replace=False)
        pairs.append((group[a], group[b]))
    for _ in range(n):
        a, b = rng.choice(len(ids), size=2, replace=False)
        pairs.append((ids[a], ids[b]))
    return pairs


RUNNERS = {
    "noir-screen-20k": run_noir,
    "cv-planted-2k": run_cv,
    "forward-20k": run_forward,
}


# -- metrics -------------------------------------------------------------------

def end_to_end(outcome):
    ops = np.asarray(outcome.op_s) * 1e3
    return {
        "setup_s": (outcome.setup_s, "s"),
        "work_s": (median(outcome.round_s), "s"),
        "peak_rss_mb": (outcome.peak_rss_mb, "MB"),
        "op_p50_ms": (float(np.percentile(ops, 50)), "ms"),
        "op_tail_ms": (float(np.percentile(ops, outcome.tail_pct)), "ms"),
        "accuracy": (outcome.accuracy, "ratio"),
    }


def per_layer(tracer, rounds):
    """Every per-layer metric from the spans; 0 where a workload never
    calls that part of the layer."""
    def per_call(name, scale):
        values = tracer.durations(name)
        return median(values) * scale if values else 0.0

    def per_round(name):
        return sum(tracer.durations(name)) / rounds

    def count(name, key):
        return sum(tracer.counts(name, key)) / rounds

    def gap_ms(name):
        gaps = [g for gs in tracer.counts(name, "gaps") for g in gs]
        return median(gaps) * 1e3 if gaps else 0.0

    def first(name, key):
        values = tracer.counts(name, key)
        return values[0] if values else 0.0

    io_per_screen = {}
    for s in tracer.spans:
        if s["name"].startswith("noir.io."):
            io_per_screen[s["parent"]] = (io_per_screen.get(s["parent"], 0.0)
                                          + s["end"] - s["start"])
    self_s = tracer.self_times()
    metrics = {
        "corpus.load_s": (per_call("corpus.load_corpus", 1), "s"),
        "corpus.compounds_for_target_ms": (per_call("corpus.compounds_for_target", 1e3), "ms"),
        "corpus.targets_of_ms": (per_call("corpus.targets_of", 1e3), "ms"),
        "noir.build_reference_set_ms": (per_call("noir.build_reference_set", 1e3), "ms"),
        "noir.retrieve_ms": (per_call("noir.retrieve", 1e3), "ms"),
        "noir.io_ms": (median(list(io_per_screen.values())) * 1e3
                       if io_per_screen else 0.0, "ms"),
        "noir.relevant": (count("bench.screen", "relevant"), "count"),
        "noir.hits": (count("bench.screen", "hits"), "count"),
        "similarity.build_s": (per_call("similarity.build_similarity_matrix", 1), "s"),
        "similarity.rss_rise_mb": (first("similarity.build_similarity_matrix",
                                         "rss_rise_mb"), "MB"),
        "similarity.pairs": (first("similarity.build_similarity_matrix", "pairs"),
                             "count"),
        "factorization.interaction_matrix_s": (
            per_call("factorization.build_interaction_matrix", 1), "s"),
        "factorization.train_nmf_s": (per_round("factorization.train_nmf"), "s"),
        "factorization.train_csnmf_s": (per_round("factorization.train_csnmf"), "s"),
        "factorization.nmf_iter_ms": (gap_ms("factorization.train_nmf"), "ms"),
        "factorization.csnmf_iter_ms": (gap_ms("factorization.train_csnmf"), "ms"),
        "factorization.nmf_iterations": (
            count("factorization.train_nmf", "iterations"), "count"),
        "factorization.csnmf_iterations": (
            count("factorization.train_csnmf", "iterations"), "count"),
        "factorization.save_model_s": (per_call("factorization.save_model", 1), "s"),
        "factorization.load_model_s": (per_call("factorization.load_model", 1), "s"),
        "factorization.model_bytes": (first("factorization.load_model", "bytes"),
                                      "bytes"),
        "factorization.score_targets_us": (
            per_call("factorization.score_targets", 1e6), "us"),
        "evaluation.cross_validate_nmf_s": (
            per_round("evaluation.cross_validate_nmf"), "s"),
        "evaluation.cross_validate_csnmf_s": (
            per_round("evaluation.cross_validate_csnmf"), "s"),
        "evaluation.split_folds_s": (per_round("evaluation.split_folds"), "s"),
        "evaluation.training_matrix_s": (per_round("evaluation.training_matrix"), "s"),
        "evaluation.rmse_s": (per_round("evaluation.rmse"), "s"),
        "evaluation.recall_at_k_s": (per_round("evaluation.recall_at_k"), "s"),
    }
    for layer in ("corpus", "noir", "similarity", "factorization", "evaluation"):
        # set-up loads are their own metric; self time covers the rounds
        spent = self_s.get(layer, 0.0)
        if layer == "corpus":
            spent -= sum(tracer.durations("corpus.load_corpus"))
        metrics[f"{layer}.self_s"] = (spent / rounds, "s")
    return metrics


def load_truth(data_dir):
    with open(os.path.join(data_dir, "truth.json"), encoding="utf-8") as fh:
        return json.load(fh)
