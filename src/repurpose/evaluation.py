"""Cross-validation protocol: fold splitting, RMSE, and recall-at-k.

A fold is a mask over the stored entries of the interaction matrix's
canonical CSR; it cuts both the held-out CSR and the training matrix from
X.  Recall-at-k samples test compounds that have enough targets on both
sides of the split, ranks all targets for each, and reports mean and
population standard deviation of the per-compound recall.  Fold runs are
pooled for the aggregate report.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import EvalError
from .factorization import (
    InteractionMatrix,
    _as_csr,
    train_csnmf,
    train_nmf,
)


def _masked_entries(X, mask):
    """X's canonical CSR cut to the stored entries under a boolean mask."""
    csr = _as_csr(X)
    indptr = np.concatenate(([0], np.cumsum(mask)))[csr.indptr]
    return sp.csr_matrix(
        (csr.data[mask], csr.indices[mask], indptr.astype(csr.indptr.dtype)),
        shape=csr.shape)


@dataclass(frozen=True, eq=False)
class FoldSplit:
    """Disjoint random partition of a matrix's stored entries.

    `fold[t]` is the fold id, in [0, n_folds), of the t-th stored entry of
    the matrix's canonical CSR; fold f's held-out set is `fold == f`.
    """

    n_folds: int
    seed: int
    fold: np.ndarray


def split_folds(X, n_folds=5, seed=0):
    """Randomly partition the stored entries of X into `n_folds` folds."""
    if n_folds < 2:
        raise ValueError("n_folds must be at least 2")
    nnz = _as_csr(X).nnz
    if nnz < n_folds:
        raise EvalError(f"need at least {n_folds} stored entries, have {nnz}")
    rng = np.random.default_rng(seed)
    fold = np.empty(nnz, dtype=np.int64)
    for f, chunk in enumerate(np.array_split(rng.permutation(nnz), n_folds)):
        fold[chunk] = f
    return FoldSplit(n_folds=n_folds, seed=seed, fold=fold)


def training_matrix(X, held_out_mask):
    """Copy of X without the stored entries that the boolean array
    `held_out_mask` marks, over X's canonical CSR as `FoldSplit.fold` is.

    Returns the same container kind as X: an InteractionMatrix stays an
    InteractionMatrix (indexes preserved), anything else becomes CSR.
    """
    trimmed = _masked_entries(X, ~held_out_mask)
    if isinstance(X, InteractionMatrix):
        return InteractionMatrix(X.compounds, X.targets, trimmed)
    return trimmed


def rmse(model, held_out):
    """Root mean square error of the model on the stored entries of the
    held-out matrix, in stored order; never on its zeros."""
    coo = _as_csr(held_out).tocoo()
    if not coo.nnz:
        raise EvalError("held-out set is empty")
    preds = np.einsum("ij,ij->i", model.U[coo.row], model.V[coo.col])
    return float(np.sqrt(np.mean((preds - coo.data) ** 2)))


@dataclass(frozen=True, eq=False)
class RecallResult:
    """Per-compound recall arrays for each k over one sampled cohort."""

    k_list: tuple[int, ...]
    recalls: dict  # k -> np.ndarray of per-compound recall
    sampled_rows: tuple[int, ...]

    @property
    def n_sampled(self):
        return len(self.sampled_rows)


def _recall_arguments(k_list, sample_size, min_train_targets,
                      min_test_targets):
    """Validate recall-at-k's arguments; returns k_list as a tuple of ints."""
    k_list = tuple(int(k) for k in k_list)
    if not k_list or min(k_list) < 1:
        raise ValueError("every k must be >= 1")
    if min_train_targets < 1 or min_test_targets < 1:
        raise ValueError("target minimums must be >= 1")
    if sample_size < 1:
        raise ValueError(f"sample_size must be >= 1, got {sample_size}")
    return k_list


def recall_at_k(model, train_X, test_X, k_list=(30, 50, 100),
                sample_size=10_000, min_train_targets=3, min_test_targets=3,
                seed=0, exclude_train_targets=True):
    """Recall of held-out targets among each sampled compound's top-k.

    Eligible compounds have at least `min_train_targets` targets stored in
    the training matrix and `min_test_targets` in the held-out matrix; up
    to `sample_size` of them are drawn without replacement.  For each,
    every target is scored; by default the compound's training targets are
    pushed out of the ranking (disable via `exclude_train_targets` to rank
    them too).  Recall at k is the fraction of the compound's held-out
    targets ranked in the top k.
    """
    k_list = _recall_arguments(k_list, sample_size, min_train_targets,
                               min_test_targets)
    train_csr, test_csr = _as_csr(train_X), _as_csr(test_X)
    eligible = np.flatnonzero((np.diff(train_csr.indptr) >= min_train_targets)
                              & (np.diff(test_csr.indptr) >= min_test_targets))
    if not len(eligible):
        raise EvalError(
            f"no test compound has >= {min_train_targets} training targets "
            f"and >= {min_test_targets} held-out targets")

    rng = np.random.default_rng(seed)
    take = min(sample_size, len(eligible))
    sampled = rng.choice(eligible, size=take, replace=False)

    recalls = {k: np.empty(take) for k in k_list}
    n_targets = model.V.shape[0]
    ranks = np.empty(n_targets, dtype=np.int64)
    for at, row in enumerate(sampled):
        scores = model.score_targets(int(row))
        if exclude_train_targets:
            lo, hi = train_csr.indptr[row], train_csr.indptr[row + 1]
            scores[train_csr.indices[lo:hi]] = -np.inf
        order = np.argsort(-scores, kind="stable")
        ranks[order] = np.arange(n_targets)
        test_ranks = ranks[test_csr.indices[
            test_csr.indptr[row]:test_csr.indptr[row + 1]]]
        for k in k_list:
            recalls[k][at] = np.count_nonzero(test_ranks < k) / len(test_ranks)

    return RecallResult(
        k_list=k_list, recalls=recalls,
        sampled_rows=tuple(int(r) for r in sampled))


@dataclass(frozen=True, eq=False)
class EvalReport:
    """Cross-validated metrics for one model variant.

    `fold_converged[f]` is False when fold f's training stopped at
    `max_iters` before meeting its tolerance.
    """

    label: str
    fold_rmse: tuple[float, ...]
    recall: dict  # k -> (mean, std), pooled over folds
    n_sampled: int
    fold_converged: tuple[bool, ...] = ()

    @property
    def mean_rmse(self):
        return float(np.mean(self.fold_rmse))


def cross_validate(X, config, S=None, n_folds=5, k_list=(30, 50, 100),
                   sample_size=10_000, min_train_targets=3, min_test_targets=3,
                   seed=0, exclude_train_targets=True, label=None):
    """Run the full protocol: split, train per fold, score RMSE and recall.

    Trains the similarity-regularized model when `S`, a SimilarityMatrix
    over X's rows, is given and `config.lam` > 0, plain NMF otherwise.
    Per-compound recalls are pooled across folds before the mean/std summary.
    """
    k_list = _recall_arguments(k_list, sample_size, min_train_targets,
                               min_test_targets)
    split = split_folds(X, n_folds=n_folds, seed=seed)
    regularized = S is not None and config.lam > 0
    if label is None:
        label = "CS-NMF" if regularized else "NMF"

    fold_rmse, fold_converged = [], []
    pooled = {k: [] for k in k_list}
    n_sampled = 0
    for fold_index in range(split.n_folds):
        held_out_mask = split.fold == fold_index
        train_X = training_matrix(X, held_out_mask)
        held_out = _masked_entries(X, held_out_mask)
        if regularized:
            model = train_csnmf(train_X, S, config)
        else:
            model = train_nmf(train_X, config)
        fold_rmse.append(rmse(model, held_out))
        fold_converged.append(model.converged)
        result = recall_at_k(
            model, train_X, held_out, k_list=k_list, sample_size=sample_size,
            min_train_targets=min_train_targets,
            min_test_targets=min_test_targets,
            seed=seed * 100_003 + fold_index,
            exclude_train_targets=exclude_train_targets)
        n_sampled += result.n_sampled
        for k in pooled:
            pooled[k].append(result.recalls[k])

    recall_summary = {}
    for k, chunks in pooled.items():
        values = np.concatenate(chunks)
        recall_summary[k] = (float(np.mean(values)), float(np.std(values)))
    return EvalReport(
        label=label, fold_rmse=tuple(fold_rmse), recall=recall_summary,
        n_sampled=n_sampled, fold_converged=tuple(fold_converged))


# -- report output -----------------------------------------------------------

def write_eval_report_tsv(reports, path):
    """Machine-readable report: one metric per row, one variant per column."""
    reports = list(reports)
    k_values = sorted({k for r in reports for k in r.recall})
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("metric\t" + "\t".join(r.label for r in reports) + "\n")
        fh.write("rmse_mean\t" + "\t".join(
            f"{r.mean_rmse:.6f}" for r in reports) + "\n")
        n_folds = max(len(r.fold_rmse) for r in reports)
        for f in range(n_folds):
            fh.write(f"rmse_fold_{f + 1}\t" + "\t".join(
                f"{r.fold_rmse[f]:.6f}" if f < len(r.fold_rmse) else ""
                for r in reports) + "\n")
        for k in k_values:
            fh.write(f"recall_at_{k}_mean\t" + "\t".join(
                f"{r.recall[k][0]:.6f}" if k in r.recall else ""
                for r in reports) + "\n")
            fh.write(f"recall_at_{k}_std\t" + "\t".join(
                f"{r.recall[k][1]:.6f}" if k in r.recall else ""
                for r in reports) + "\n")
        fh.write("sampled_compounds\t" + "\t".join(
            str(r.n_sampled) for r in reports) + "\n")


def format_eval_table(reports):
    """Human-readable table: rows are metrics, columns are model variants."""
    reports = list(reports)
    k_values = sorted({k for r in reports for k in r.recall})
    rows = [[""] + [r.label for r in reports]]
    rows.append(["RMSE"] + [f"{r.mean_rmse:.2f}" for r in reports])
    for k in k_values:
        rows.append([f"Recall at {k}"] + [
            f"{r.recall[k][0]:.2f} ({r.recall[k][1]:.2f})" if k in r.recall else "-"
            for r in reports])
    widths = [max(len(row[c]) for row in rows) for c in range(len(rows[0]))]
    lines = []
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[c])
                               for c, cell in enumerate(row)).rstrip())
    return "\n".join(lines) + "\n"


def write_rank_recall_tsv(report, path):
    """Rank-recall curve data: k, mean recall, std -- one row per k."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("k\tmean_recall\tstd\n")
        for k in sorted(report.recall):
            mean, std = report.recall[k]
            fh.write(f"{k}\t{mean:.6f}\t{std:.6f}\n")
