"""Nonnegative matrix factorization over compound-target activity.

The interaction matrix holds transformed activity values (potent = high).
Two trainers share one multiplicative-update core: plain alternating
updates, and a similarity-regularized variant whose update pulls the latent
rows of similar compounds toward each other; with a zero weight the two
give bit-identical iterates.  Every iteration records the objective, read off
the updates' own products; `tests/helpers.py::objective` sums the penalty
pair by pair as its reference.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .corpus import _min_csr
from .errors import (
    FactorizationError,
    FormatError,
    NoInteractionsError,
    UnknownCompoundError,
)
from .similarity import SimilarityMatrix

WEAK_INTERACTION_VALUE = 1.0
_LINEAR_RANGE_MAX_NM = 10_000.0


def transform_activity(value_nm):
    """Map an activity value in nM to its interaction-matrix entry.

    Values above 10,000 nM become the weak-interaction constant 1.0; values
    in [0, 10,000] map linearly onto [10, 5] via (20,000 - value) / 2,000,
    so more potent (smaller) values get larger entries.  A scalar maps to a
    float, an array element-wise to a float64 array.
    """
    value = np.asarray(value_nm, dtype=np.float64)
    if not np.all(np.isfinite(value) & (value >= 0)):
        raise ValueError(
            f"activity value must be finite and non-negative, got {value_nm!r}")
    mapped = np.where(value > _LINEAR_RANGE_MAX_NM, WEAK_INTERACTION_VALUE,
                      (20_000.0 - value) / 2_000.0)
    return float(mapped) if mapped.ndim == 0 else mapped


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for both trainers.

    `lam` is the similarity-regularization weight; the plain trainer
    ignores it.  `epsilon_guard` is added to update denominators so an
    all-zero row cannot divide by zero.
    """

    rank: int = 50
    lam: float = 0.1
    max_iters: int = 200
    rel_tol: float = 1e-5
    epsilon_guard: float = 1e-12
    seed: int = 0

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("rank must be a positive integer")
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise ValueError("lam must be finite and non-negative")
        if self.max_iters < 1:
            raise ValueError("max_iters must be a positive integer")
        if not (math.isfinite(self.rel_tol) and self.rel_tol > 0):
            raise ValueError("rel_tol must be finite and positive")
        if not (math.isfinite(self.epsilon_guard) and self.epsilon_guard > 0):
            raise ValueError("epsilon_guard must be finite and positive")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")


@dataclass(frozen=True, eq=False)
class InteractionMatrix:
    """Sparse nonnegative compound x target matrix of transformed activities,
    the one form of X the trainers and cross-validation take.  Its
    constructor raises ValueError unless `matrix` is a canonical scipy CSR
    (sorted indices, no duplicates) of shape (len(compounds), len(targets)),
    no id repeats, and every stored value is finite and non-negative."""

    compounds: tuple[str, ...]
    targets: tuple[str, ...]
    matrix: sp.csr_matrix

    def __post_init__(self):
        matrix = self.matrix
        if not (sp.issparse(matrix) and matrix.format == "csr"
                and matrix.has_canonical_format):
            raise ValueError("matrix must be a scipy CSR with sorted indices "
                             "and no duplicate entries")
        if matrix.shape != (len(self.compounds), len(self.targets)):
            raise ValueError(f"matrix shape {matrix.shape} does not match "
                             f"{len(self.compounds)} compound ids by "
                             f"{len(self.targets)} target ids")
        if any(len(set(ids)) != len(ids)
               for ids in (self.compounds, self.targets)):
            raise ValueError("compound ids and target ids must each be unique")
        if not (np.isfinite(matrix.data) & (matrix.data >= 0)).all():
            raise ValueError("interaction values must be finite and non-negative")

    @property
    def shape(self):
        return self.matrix.shape

    @property
    def n_entries(self):
        return self.matrix.nnz


def build_interaction_matrix(corpus, activity_types="IC50"):
    """Build the interaction matrix from a corpus.

    `activity_types` may be one type name, a collection of names, or None
    for all types.  Rows and columns are restricted to compounds/targets
    with at least one qualifying record; each entry is the transform of the
    minimum (most potent) value across the qualifying records of the pair.
    """
    if activity_types is None:
        allowed = set(corpus.activity_types())
    elif isinstance(activity_types, str):
        allowed = {activity_types}
    else:
        allowed = set(activity_types)
    parts = [corpus.activity_matrix(atype).tocoo() for atype in allowed]
    if not any(part.nnz for part in parts):
        wanted = "any type" if activity_types is None else ", ".join(sorted(allowed))
        raise NoInteractionsError(f"no activity record matches type filter ({wanted})")

    # the most potent value of each pair over the selected types, then only
    # the rows and columns that hold an entry
    rows, cols, values = (np.concatenate(arrays) for arrays in zip(
        *((part.row, part.col, part.data) for part in parts)))
    merged = _min_csr(rows, cols, values,
                      (corpus.n_compounds, len(corpus.target_ids())))
    row_ids = np.flatnonzero(np.diff(merged.indptr))
    used = np.bincount(merged.indices, minlength=merged.shape[1]) > 0
    col_ids, column = np.flatnonzero(used), np.cumsum(used) - 1
    compounds = tuple(corpus.compound_ids()[i] for i in row_ids.tolist())
    targets = tuple(corpus.target_ids()[j] for j in col_ids.tolist())
    matrix = sp.csr_matrix(
        (transform_activity(merged.data), column[merged.indices],
         merged.indptr[np.concatenate(([0], row_ids + 1))]),
        shape=(len(compounds), len(targets)))
    return InteractionMatrix(compounds, targets, matrix)


# -- matrix plumbing ---------------------------------------------------------

def _csr_of(X):
    """The CSR of X, which must be an InteractionMatrix."""
    if not isinstance(X, InteractionMatrix):
        raise FactorizationError(
            "the interaction matrix must be an InteractionMatrix, not "
            f"{type(X).__name__}; wrap a CSR as "
            "InteractionMatrix(compounds, targets, csr)")
    return X.matrix


def _similarity_graph(S, X):
    """Check that S is None or a SimilarityMatrix over X.compounds; return it."""
    if S is None:
        return None
    if not isinstance(S, SimilarityMatrix):
        raise FactorizationError(
            "the similarity graph must be a SimilarityMatrix, not "
            f"{type(S).__name__}; wrap a symmetric matrix's upper triangle as "
            "SimilarityMatrix(compounds, rows, cols, values)")
    if S.compounds != X.compounds:
        raise FactorizationError(
            f"similarity matrix compound index ({S.n_compounds} compounds) "
            f"does not match the {len(X.compounds)} interaction matrix rows")
    return S


def _objective_from_products(x_sq, U, XV, gram_u, gram_v, lam=0.0,
                             degrees=None, SU=None):
    """J = 0.5 (||X||^2 - 2 <X V, U> + <U^T U, V^T V>), plus, when S U is
    given, (lam/2) (sum_i d_i ||u_i||^2 - <U, S U>); X is never densified."""
    value = 0.5 * (x_sq - 2.0 * float(np.sum(XV * U))
                   + float(np.sum(gram_u * gram_v)))
    if SU is not None:
        spread = float(degrees @ np.einsum("ij,ij->i", U, U))
        value += 0.5 * lam * (spread - float(np.sum(U * SU)))
    return value


@dataclass(frozen=True, eq=False)
class FactorModel:
    """Trained factors with their config and per-iteration objective trace.

    `objective_trace[0]` is the objective at initialization; entry t is the
    value after iteration t.  `regularized` records whether the similarity
    penalty was active during training.
    """

    U: np.ndarray
    V: np.ndarray
    compounds: tuple[str, ...]
    targets: tuple[str, ...]
    config: TrainConfig
    objective_trace: np.ndarray
    converged: bool
    regularized: bool = False

    @property
    def rank(self):
        return self.U.shape[1]

    @cached_property
    def compound_pos(self):
        return {c: i for i, c in enumerate(self.compounds)}

    @cached_property
    def target_pos(self):
        return {t: j for j, t in enumerate(self.targets)}

    def row_of(self, compound):
        try:
            return self.compound_pos[compound]
        except KeyError:
            raise UnknownCompoundError(
                f"compound {compound!r} is not in the model") from None

    def score_targets(self, row):
        """Scores of one compound row against every target."""
        if not 0 <= row < self.U.shape[0]:
            raise IndexError(f"row {row} out of range [0, {self.U.shape[0]})")
        return self.U[row] @ self.V.T


def _train_core(X, S, config, on_iteration):
    X_csr = _csr_of(X)
    n, m = X_csr.shape
    if config.rank > min(n, m):
        raise FactorizationError(
            f"rank {config.rank} exceeds min(rows, cols) = {min(n, m)}")
    graph = _similarity_graph(S, X)
    lam = config.lam
    regularize = graph is not None and lam > 0.0

    rng = np.random.default_rng(config.seed)
    mean = X_csr.sum() / (n * m)
    scale = math.sqrt(mean / config.rank)
    # uniform on (0, 1], scaled so the initial reconstruction magnitude is
    # on the order of the data mean
    U = (1.0 - rng.random((n, config.rank))) * scale
    V = (1.0 - rng.random((m, config.rank))) * scale

    eps = config.epsilon_guard
    x_sq = float((X_csr.data ** 2).sum())

    # J is read off the products the updates use.  With L = D - S, the
    # penalty (lam/2) sum_{i<j} S_ij ||u_i - u_j||^2 is the Laplacian form
    # (lam/2) tr(U^T L U) = (lam/2) (sum_i d_i ||u_i||^2 - <U, S U>).  X V,
    # V^T V and S U are formed once at the end of each iteration: they
    # score it, then feed the next U-update (X V and S U in the numerator,
    # V^T V in the denominator).  U^T U comes from the V-update.  Once the
    # numerator is formed, the X V and S U buffers hold the denominator's
    # two terms, and S U is written back into its buffer.
    XV, gram_v = X_csr @ V, V.T @ V
    degrees = graph.degrees() if regularize else None
    converged = False
    # S U is begun right after the U-update: one worker thread sums its
    # terms below the diagonal while this thread runs the V side, which
    # does not read S U, and then sums the terms above it.  The initial
    # S U takes the same two halves.  The worker lives only as long as
    # this call.
    with ThreadPoolExecutor(max_workers=1) as pool:
        SU = None
        if regularize:
            SU = graph._finish_product(graph._start_product(U, pool.submit),
                                       np.empty_like(U))
        trace = [_objective_from_products(
            x_sq, U, XV, U.T @ U, gram_v, lam, degrees, SU)]
        for iteration in range(1, config.max_iters + 1):
            if regularize:
                num = lam * SU
                num += XV
                np.multiply(lam * degrees[:, None], U, out=SU)
                np.matmul(U, gram_v, out=XV)
                XV += SU
                XV += eps
                num /= XV
                U *= num
                del num
                pending = graph._start_product(U, pool.submit)
            else:
                U *= XV / (U @ gram_v + eps)
            XtU = X_csr.T @ U
            gram_u = U.T @ U
            V *= XtU / (V @ gram_u + eps)
            if __debug__:
                assert (U >= 0.0).all() and (V >= 0.0).all()

            XV, gram_v = X_csr @ V, V.T @ V
            if regularize:
                SU = graph._finish_product(pending, SU)
                # frees the gather and the worker's half before the next
                # U-update
                del pending
            value = _objective_from_products(
                x_sq, U, XV, gram_u, gram_v, lam, degrees, SU)
            if not (math.isfinite(value)
                    and np.isfinite(U).all() and np.isfinite(V).all()):
                raise FactorizationError(
                    f"non-finite value encountered at iteration {iteration}")
            trace.append(value)
            if on_iteration is not None:
                on_iteration(iteration, U, V, value)

            previous = trace[-2]
            if previous == 0.0 or (previous - value) < config.rel_tol * previous:
                converged = True
                break

    return FactorModel(
        U=U, V=V, compounds=X.compounds, targets=X.targets, config=config,
        objective_trace=np.asarray(trace), converged=converged,
        regularized=regularize)


def train_nmf(X, config, on_iteration=None):
    """Train plain NMF of an InteractionMatrix X by alternating
    multiplicative updates; the model keeps X's compound and target ids.

    U <- U * (X V) / (U V^T V + eps);  V <- V * (X^T U) / (V U^T U + eps).
    Factors are initialized uniform-random in (0, 1] from `config.seed`, so
    the same seed reproduces the model bit for bit.  `on_iteration(it, U, V,
    J)`, when given, is called after every update for diagnostics.
    """
    return _train_core(X, None, config, on_iteration)


def train_csnmf(X, S, config, on_iteration=None):
    """Train similarity-regularized NMF of an InteractionMatrix X.

    S is a SimilarityMatrix over `X.compounds`.  With D the diagonal
    row-sum of S, the compound-side update becomes
    U <- U * (X V + lam S U) / (U V^T V + lam D U + eps); the target side is
    unchanged.  With lam = 0 this reproduces :func:`train_nmf` exactly,
    iterate for iterate.
    """
    if S is None:
        raise FactorizationError("train_csnmf requires a similarity matrix")
    return _train_core(X, S, config, on_iteration)


# -- model container ---------------------------------------------------------

_MODEL_MAGIC = "#repurpose-factor-model\tv2"
# The config rows, in file order; the last three count the rows that follow.
_MODEL_KEYS = ("rank", "lambda", "max_iters", "rel_tol", "epsilon_guard",
               "seed", "converged", "regularized", "compounds", "targets",
               "trace")


def _fmt(x):
    return format(float(x), ".17g")


def save_model(model, path):
    """Write a model as a TSV container that is read back by position.

    After the format line come `key<TAB>value` config rows, the last three
    counting the rows that follow: `compound_id<TAB>u_1...u_r`, then
    `target_id<TAB>v_1...v_r`, then one trace value per row.  Floats keep
    17 significant digits, so they round-trip exactly.
    """
    config = model.config
    values = (config.rank, _fmt(config.lam), config.max_iters,
              _fmt(config.rel_tol), _fmt(config.epsilon_guard), config.seed,
              int(model.converged), int(model.regularized),
              len(model.compounds), len(model.targets),
              len(model.objective_trace))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_MODEL_MAGIC + "\n")
        for key, value in zip(_MODEL_KEYS, values):
            fh.write(f"{key}\t{value}\n")
        # one row at a time; %.17g writes a float as _fmt does
        row_format = "%s" + "\t%.17g" * model.rank + "\n"
        for ids, factors in ((model.compounds, model.U),
                             (model.targets, model.V)):
            for name, row in zip(ids, factors):
                fh.write(row_format % (name, *row.tolist()))
        for value in model.objective_trace:
            fh.write(_fmt(value) + "\n")


def _model_block(path, lines, n_lines, start, count, width, with_ids):
    """Parse the next `count` of `lines` (file lines start + 1 onwards, of
    `n_lines` in the file), each of exactly `width` fields, into (ids,
    values): with `with_ids` a row is a non-empty, unique id and factors
    >= 0, else only values; every value must be a finite number."""
    if not 0 <= count <= n_lines - start:
        raise FormatError(path, start + 1, f"expected {count} rows here, "
                          f"but the file has {n_lines} lines")
    ids, values = {}, np.empty((count, width - with_ids))
    for k, line in enumerate(itertools.islice(lines, count)):
        lineno, row = start + 1 + k, line.split("\t")
        if len(row) != width:
            raise FormatError(path, lineno, f"expected {width} tab-separated "
                              f"fields, got {len(row)}")
        if with_ids:
            name = row.pop(0)
            if not name or ids.setdefault(name, k) != k:
                raise FormatError(path, lineno, f"empty or repeated id {name!r}")
        try:
            values[k] = [float(x) for x in row]
        except ValueError:
            values[k] = np.nan
    bad = ~np.isfinite(values)
    if with_ids:
        bad |= values < 0
    if bad.any():
        lineno = start + 1 + int(np.flatnonzero(bad.any(axis=1))[0])
        raise FormatError(path, lineno, "values must be finite numbers"
                          + (" >= 0" if with_ids else ""))
    return tuple(ids), values


def load_model(path):
    """Read a model container written by :func:`save_model`.

    Rows are read by position and each must have its exact width.  Factors
    must be finite and nonnegative, the trace finite, and ids non-empty and
    unique; nothing may follow the trace.  Files of any other format
    version are rejected.  The file is read line by line into arrays of
    their final size, after a first pass that counts its lines, so that a
    block the file is too short for is reported before any of its rows.
    """
    with open(path, "r", encoding="utf-8") as fh:
        n_lines = sum(1 for _ in fh)
        fh.seek(0)
        lines = (line.rstrip("\n") for line in fh)
        if next(lines, "") != _MODEL_MAGIC:
            raise FormatError(
                path, 1, f"not a factor-model file (expected {_MODEL_MAGIC!r})")
        config_rows = [line.partition("\t")
                       for line in itertools.islice(lines, len(_MODEL_KEYS))]
        fields = {key: value for key, _, value in config_rows}
        if tuple(fields) != _MODEL_KEYS:
            raise FormatError(path, 2, "expected one key<TAB>value row for each "
                              "of, in order: " + ", ".join(_MODEL_KEYS))
        try:
            config = TrainConfig(
                rank=int(fields["rank"]),
                lam=float(fields["lambda"]),
                max_iters=int(fields["max_iters"]),
                rel_tol=float(fields["rel_tol"]),
                epsilon_guard=float(fields["epsilon_guard"]),
                seed=int(fields["seed"]),
            )
            converged, regularized, n, m, n_trace = (
                int(fields[key]) for key in _MODEL_KEYS[6:])
        except ValueError as exc:
            raise FormatError(path, 0, f"bad config value: {exc}") from None

        start = 1 + len(_MODEL_KEYS)
        compounds, U = _model_block(path, lines, n_lines, start, n,
                                    config.rank + 1, True)
        targets, V = _model_block(path, lines, n_lines, start + n, m,
                                  config.rank + 1, True)
        start += n + m
        _, trace = _model_block(path, lines, n_lines, start, n_trace, 1, False)
    if n_lines > start + n_trace:
        raise FormatError(path, start + n_trace + 1, "extra rows after the trace")
    return FactorModel(U=U, V=V, compounds=compounds, targets=targets,
                       config=config, objective_trace=trace.ravel(),
                       converged=bool(converged), regularized=bool(regularized))
