"""Output checks computed apart from the package.

Every check recomputes what it needs from the raw TSV rows (`RawCorpus`) or
from plain arithmetic on the package's returned arrays, with code of its
own.  Each returns a list of problems; an empty list means the output
passed.  None compares against a stored copy of an earlier output.
"""

from __future__ import annotations

import math
import os

import numpy as np

REL_TOL = 1e-9


def close(a, b, rtol=REL_TOL, atol=1e-12):
    return abs(a - b) <= max(atol, rtol * max(abs(a), abs(b)))


class RawCorpus:
    """The three corpus TSVs read with this module's own parser."""

    def __init__(self, data_dir):
        def rows(name):
            with open(os.path.join(data_dir, name), encoding="utf-8") as fh:
                next(fh)
                return [line.rstrip("\n").split("\t") for line in fh]

        self.compounds = sorted(cid for cid, _ in rows("compounds.tsv"))
        self.labels = {}  # source -> compound -> set of labels
        for cid, source, label in rows("labels.tsv"):
            self.labels.setdefault(source, {}).setdefault(cid, set()).add(label)
        self.activity = {}  # (compound, target, type) -> most potent value
        for cid, target, atype, value in rows("activities.tsv"):
            key = (cid, target, atype)
            self.activity[key] = min(float(value), self.activity.get(key, math.inf))
        self._by_target = {}
        self._by_compound = {}
        for (c, t, a), v in self.activity.items():
            self._by_target.setdefault((t, a), {})[c] = v
            self._by_compound.setdefault((c, a), set()).add(t)
        self._counts = {}

    def labels_of(self, compound, source):
        return self.labels.get(source, {}).get(compound, set())

    def label_counts(self, source):
        if source not in self._counts:
            counts = {}
            for labels in self.labels.get(source, {}).values():
                for label in labels:
                    counts[label] = counts.get(label, 0) + 1
            self._counts[source] = counts
        return self._counts[source]

    def relevant(self, target, activity_type, threshold_nm):
        values = self._by_target.get((target, activity_type), {})
        return {c for c, v in values.items() if v < threshold_nm}

    def known_targets(self, compound, activity_type):
        return set(self._by_compound.get((compound, activity_type), ()))

    def jaccard(self, a, b, source):
        sa, sb = self.labels_of(a, source), self.labels_of(b, source)
        inter = len(sa & sb)
        return inter / (len(sa) + len(sb) - inter) if inter else 0.0

    def interaction_values(self, activity_type):
        """{(compound, target): transformed value} by the documented map:
        above 10,000 nM -> 1.0, else (20,000 - value) / 2,000."""
        return {(c, t): (1.0 if v > 10_000.0 else (20_000.0 - v) / 2_000.0)
                for (c, t, a), v in self.activity.items() if a == activity_type}


# -- noir ---------------------------------------------------------------------

def own_reference(raw, target, source, activity_type, threshold_nm,
                  min_count, noise_cap, set_size):
    """(relevant set, [(label, O, E, C, score)] in reference order)."""
    relevant = raw.relevant(target, activity_type, threshold_nm)
    n_rel, n_corpus = len(relevant), len(raw.compounds)
    observed = {}
    for c in relevant:
        for label in raw.labels_of(c, source):
            observed[label] = observed.get(label, 0) + 1
    counts = raw.label_counts(source)
    rows = []
    for label, o in observed.items():
        c = counts[label]
        if o < min_count or c > noise_cap:
            continue
        e = c * n_rel / n_corpus
        rows.append((label, o, e, c, (o - e) ** 2 / e))
    rows.sort(key=lambda r: (-r[4], -r[1], r[0]))
    return relevant, rows[:set_size]


def check_reference_set(reference, own_rows):
    got = [(sl.label, sl.observed, sl.expected, sl.corpus_count, sl.score)
           for sl in reference.labels]
    if [r[0] for r in got] != [r[0] for r in own_rows]:
        return ["reference labels differ from the recount: "
                f"{[r[0] for r in got]} vs {[r[0] for r in own_rows]}"]
    problems = []
    for g, w in zip(got, own_rows):
        if g[1] != w[1] or g[3] != w[3] or not close(g[2], w[2]) \
                or not close(g[4], w[4]):
            problems.append(f"label {g[0]}: (O, E, C, score) {g[1:]} vs {w[1:]}")
    return problems


def own_doc_scores(raw, source, scores, exclude):
    """{compound: (score, L)} for every compound outside `exclude` that
    matches at least one reference label."""
    out = {}
    for c in raw.compounds:
        if c in exclude:
            continue
        labels = raw.labels_of(c, source)
        total = sum(scores[l] for l in labels if l in scores)
        if total:
            out[c] = (total / len(labels), len(labels))
    return out


def check_retrieval_scores(result, own_scores, top_n):
    """Each hit's score and L match the recount, and no compound left out
    of the top-n outscores the last hit."""
    problems = []
    for e in result.entries:
        want = own_scores.get(e.compound)
        if want is None or want[1] != e.n_labels or not close(want[0], e.score):
            problems.append(f"hit {e.compound}: (score, L) {(e.score, e.n_labels)}"
                            f" vs recount {want}")
    want_len = min(top_n, len(own_scores))
    if len(result.entries) != want_len:
        problems.append(f"{len(result.entries)} hits, recount has {want_len}")
    elif result.entries:
        floor = result.entries[-1].score
        hit_ids = {e.compound for e in result.entries}
        for c, (score, _) in own_scores.items():
            if c not in hit_ids and score > floor and not close(score, floor):
                problems.append(f"{c} scores {score} above the last hit {floor}")
                break
    return problems


def check_hit_order(result):
    keys = [(-e.score, e.compound) for e in result.entries]
    if keys != sorted(keys):
        return ["hits are not ordered by score, then compound id"]
    return []


def check_excludes(result, relevant):
    leaked = sorted({e.compound for e in result.entries} & set(relevant))
    return [f"relevant compounds retrieved: {leaked[:5]}"] if leaked else []


def check_consensus(agreed, result_a, result_b):
    want = {e.compound for e in result_a.entries} & {e.compound for e in result_b.entries}
    if set(agreed) != want:
        return [f"consensus has {len(agreed)} compounds, intersection {len(want)}"]
    return []


def check_reread(first, again):
    if tuple(first.entries) != tuple(again.entries):
        return ["retrieval from the re-read reference file differs"]
    return []


# -- cross-validation ---------------------------------------------------------

def check_cv(reports, zero_rmse, n_targets, k_list, rmse_margin=0.01,
             recall_margin=0.01):
    """Problems per variant label: RMSE beats predicting zero (the fill the
    trainer assumes for unstored entries), recall at the smallest k is at
    least three times the random-ranking rate, recall does not fall as k
    grows, and CS-NMF is no worse than NMF by the acceptance margins."""
    problems = {label: [] for label in reports}
    k0 = k_list[0]
    for label, report in reports.items():
        if not report.mean_rmse < zero_rmse:
            problems[label].append(
                f"RMSE {report.mean_rmse} not below zero-predictor {zero_rmse}")
        if not report.recall[k0][0] >= 3 * k0 / n_targets:
            problems[label].append(
                f"recall@{k0} {report.recall[k0][0]} near random {k0 / n_targets}")
        means = [report.recall[k][0] for k in k_list]
        if any(b < a for a, b in zip(means, means[1:])):
            problems[label].append(f"recall falls as k grows: {means}")
    nmf, cs = reports["NMF"], reports["CS-NMF"]
    if cs.mean_rmse > nmf.mean_rmse + rmse_margin:
        problems["CS-NMF"].append(f"RMSE {cs.mean_rmse} vs NMF {nmf.mean_rmse}")
    if cs.recall[k0][0] < nmf.recall[k0][0] - recall_margin:
        problems["CS-NMF"].append(
            f"recall@{k0} {cs.recall[k0][0]} vs NMF {nmf.recall[k0][0]}")
    return problems


def zero_predictor_rmse(raw, activity_type):
    values = np.fromiter(raw.interaction_values(activity_type).values(), float)
    return float(np.sqrt(np.mean(values ** 2)))


# -- forward ------------------------------------------------------------------

def check_interaction_matrix(raw, X, activity_type):
    want = raw.interaction_values(activity_type)
    coo = X.matrix.tocoo()
    got = {(X.compounds[i], X.targets[j]): v
           for i, j, v in zip(coo.row, coo.col, coo.data)}
    if set(got) != set(want):
        return [f"{len(got)} stored entries, raw rows give {len(want)}"]
    bad = [k for k, v in got.items() if not close(v, want[k])]
    return [f"entry {bad[0]} is {got[bad[0]]}, raw rows give {want[bad[0]]}"] \
        if bad else []


def check_jaccard(raw, S, pairs, source, threshold):
    """For each sampled id pair, the stored similarity is the recomputed
    Jaccard when that reaches the threshold, and 0 otherwise."""
    problems = []
    for a, b in pairs:
        j = raw.jaccard(a, b, source)
        want = j if j >= threshold else 0.0
        got = S.get(a, b)
        if not close(got, want):
            problems.append(f"similarity({a}, {b}) = {got}, Jaccard {j}")
    return problems


def check_training(model, iterations):
    trace = np.asarray(model.objective_trace)
    problems = []
    if len(trace) != iterations + 1:
        problems.append(f"trace has {len(trace)} values, expected {iterations + 1}")
    if np.any(np.diff(trace) > 0):
        problems.append("objective trace increases")
    for name, F in (("U", model.U), ("V", model.V)):
        if not np.isfinite(F).all() or (F < 0).any():
            problems.append(f"{name} is not finite and nonnegative")
    return problems


def own_objective(X, U, V, triplets, lam, block=2048):
    """0.5 ||X - U V^T||^2 over every entry (unstored ones are 0) plus
    (lam/2) sum over stored pairs of S_ij ||u_i - u_j||^2, in blocks."""
    fit = 0.0
    for lo in range(0, X.shape[0], block):
        dense = X[lo:lo + block].toarray()
        fit += float(np.sum((dense - U[lo:lo + block] @ V.T) ** 2))
    rows, cols, vals = triplets
    penalty = 0.0
    for lo in range(0, len(vals), 250_000):
        hi = lo + 250_000
        diff = U[rows[lo:hi]] - U[cols[lo:hi]]
        penalty += float(vals[lo:hi] @ (diff * diff).sum(axis=1))
    return 0.5 * fit + 0.5 * lam * penalty


def check_objective(model, X_csr, triplets, lam):
    want = own_objective(X_csr, model.U, model.V, triplets, lam)
    got = float(model.objective_trace[-1])
    return [] if close(got, want) else [f"last trace value {got}, recomputed {want}"]


def check_roundtrip(model, loaded):
    problems = []
    for name in ("U", "V", "objective_trace"):
        a, b = np.asarray(getattr(model, name)), np.asarray(getattr(loaded, name))
        if a.shape != b.shape or a.tobytes() != b.tobytes():
            problems.append(f"{name} changed through save and load")
    for name in ("compounds", "targets", "config", "converged", "regularized"):
        if getattr(model, name) != getattr(loaded, name):
            problems.append(f"{name} changed through save and load")
    return problems


def own_top_k(U, V, row, targets, known, k):
    scores = U[row] @ V.T
    ranked = sorted((j for j in range(len(targets)) if targets[j] not in known),
                    key=lambda j: (-scores[j], j))
    return [targets[j] for j in ranked[:k]]


def check_recommendation(recommended, want, known):
    problems = []
    if set(recommended) & set(known):
        problems.append("recommendation lists a known target")
    if list(recommended) != list(want):
        problems.append(
            f"recommended {list(recommended)[:3]}..., recomputed {want[:3]}...")
    return problems
