"""Independent brute-force oracles used by the unit and acceptance tests.

The oracles work on raw row lists with plain dict/loop arithmetic and never
go through the package's indexes, so agreement between these functions and
the library is a genuine two-route check.  `term_score` and `doc_score`
are the one-label and one-compound forms of NOIR's array scoring.
`bit_matrix_similarity` is the one reference that reads the corpus: it
builds the Jaccard graph compound by compound from `labels_of`, the route
the label matrix replaced.  `objective` sums the similarity penalty pair by
pair, the reference for the trainer's Laplacian-form trace, over a raw
symmetric S or a graph's `compound_order_csr`; `graph_of` wraps a raw S and
`matrix_of` a raw X for the trainers.  `stored_order_product` sums S U with
plain loops in the graph's stored order, the reference for its product and
its degrees.  `sequential_train` runs the trainers' updates one after
another on one thread, with `sequential_product`'s S U, the reference the
trainers' overlapped S U must equal float for float.
`same_corpus` compares two corpora through their public accessors.
`oracle_top_columns` is the ranking rule spelled as one Python sort, the
reference for `top_columns`.
`triple_folds` and `triple_training_matrix` hold each cross-validation fold
as (row, col, value) triples, the reference for the fold-id array and the
masks cut from it.
"""

import math

import numpy as np
import scipy.sparse as sp

from repurpose import EvalError, InteractionMatrix, SimilarityMatrix
from repurpose.factorization import _objective_from_products

# Pairwise-penalty evaluation is chunked to bound peak memory on large
# similarity graphs.
_PAIR_CHUNK = 200_000


def oracle_reference(compound_ids, label_rows, activity_rows, *, target,
                     source, activity_type, threshold, noise_cap=200_000,
                     min_count=2, set_size=20):
    """Recount O/C/E/score from raw rows and rank the reference labels.

    Returns (relevant_set, ranked) where ranked is a list of
    (label, observed, expected, corpus_count, score) tuples.
    """
    best = {}
    for cid, tid, atype, value in activity_rows:
        if tid == target and atype == activity_type:
            prev = best.get(cid)
            if prev is None or value < prev:
                best[cid] = value
    relevant = {cid for cid, value in best.items() if value < threshold}

    n_corpus = len(set(compound_ids))
    labels_by_compound = {}
    for cid, src, label in label_rows:
        if src == source:
            labels_by_compound.setdefault(cid, set()).add(label)

    observed, corpus_count = {}, {}
    for cid, labels in labels_by_compound.items():
        for label in labels:
            corpus_count[label] = corpus_count.get(label, 0) + 1
            if cid in relevant:
                observed[label] = observed.get(label, 0) + 1

    ranked = []
    for label, o in observed.items():
        c = corpus_count[label]
        if o < min_count or c > noise_cap:
            continue
        expected = c * len(relevant) / n_corpus
        score = (o - expected) ** 2 / expected
        ranked.append((label, o, expected, c, score))
    ranked.sort(key=lambda row: (-row[4], -row[1], row[0]))
    return relevant, ranked[:set_size]


def term_score(observed, corpus_count, n_relevant, n_corpus):
    """Score one label: returns (expected, score).

    expected = corpus_count * n_relevant / n_corpus
    score    = (observed - expected)^2 / expected

    The scalar form of `build_reference_set`'s array scoring, which must
    give the same floats.  The score is 0 exactly when the observed count
    matches expectation, and grows for both enriched and depleted labels.
    """
    if n_corpus <= 0:
        raise ValueError("n_corpus must be positive (corpus is empty)")
    if corpus_count <= 0:
        raise ValueError("term absent from corpus (corpus count is 0)")
    if not 1 <= n_relevant <= n_corpus:
        raise ValueError(
            f"n_relevant must be in [1, n_corpus], got {n_relevant} of {n_corpus}")
    if not 0 <= observed <= n_relevant:
        raise ValueError(
            f"observed must be in [0, n_relevant], got {observed} of {n_relevant}")
    expected = corpus_count * n_relevant / n_corpus
    diff = observed - expected
    return expected, diff * diff / expected


def doc_score(compound_labels, reference_set):
    """Score one document (compound) against a reference set.

    Returns (score, L, matched) where L is the total number of labels the
    compound carries under the reference source.  Labels outside the
    reference set contribute 0 but still count toward L, so promiscuously
    labeled compounds are diluted.  A compound with no labels scores 0.
    The per-compound form of `retrieve`, which must equal it float for
    float.
    """
    labels = frozenset(compound_labels)
    if not labels:
        return 0.0, 0, ()
    score_map = {sl.label: sl.score for sl in reference_set.labels}
    matched = sorted(l for l in labels if l in score_map)
    total = 0.0
    for label in matched:
        total += score_map[label]
    return total / len(labels), len(labels), tuple(matched)


def oracle_doc_scores(compound_ids, label_rows, *, source, ref_scores,
                      exclude=frozenset()):
    """Score every non-excluded compound directly from raw label rows.

    Returns {compound: (score, n_labels)} for compounds with nonzero score.
    """
    labels_by_compound = {}
    for cid, src, label in label_rows:
        if src == source:
            labels_by_compound.setdefault(cid, set()).add(label)
    scores = {}
    for cid in set(compound_ids):
        if cid in exclude:
            continue
        labels = labels_by_compound.get(cid, set())
        if not labels:
            continue
        total = sum(ref_scores.get(label, 0.0) for label in sorted(labels))
        score = total / len(labels)
        if score != 0.0:
            scores[cid] = (score, len(labels))
    return scores


def oracle_ranking(compound_ids, label_rows, *, source, ref_scores,
                   exclude=frozenset()):
    """The full retrieval ranking from raw rows, one compound at a time.

    Returns [(compound, score, n_labels, matched)] by descending score, ties
    by compound id, with zero scores left out; `matched` is the compound's
    labels that are keys of `ref_scores`, sorted.
    """
    labels_by_compound = {}
    for cid, src, label in label_rows:
        if src == source:
            labels_by_compound.setdefault(cid, set()).add(label)
    scores = oracle_doc_scores(compound_ids, label_rows, source=source,
                               ref_scores=ref_scores, exclude=exclude)
    ranked = sorted(scores.items(), key=lambda item: (-item[1][0], item[0]))
    return [(cid, score, n_labels,
             tuple(sorted(l for l in labels_by_compound[cid] if l in ref_scores)))
            for cid, (score, n_labels) in ranked]


def oracle_top_columns(scores, k):
    """The indices of the `k` highest scores, by descending score and then
    ascending index, with `-inf` scores left out; a plain list of ints."""
    ranked = sorted((-score, index) for index, score in enumerate(scores)
                    if score != -math.inf)
    return [index for _, index in ranked[:k]]


def jaccard(a, b):
    """|A n B| / |A u B| for two plain sets; 0.0 when both are empty."""
    inter = len(a & b)
    if inter == 0:
        return 0.0
    return inter / (len(a) + len(b) - inter)


def oracle_jaccard_pairs(bit_sets):
    """All-pairs Jaccard by double loop over a {compound: set} mapping.

    Returns {(a, b): value} with a < b and only nonzero values.
    """
    ids = sorted(bit_sets)
    pairs = {}
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            value = jaccard(bit_sets[a], bit_sets[b])
            if value > 0.0:
                pairs[(a, b)] = value
    return pairs


def bit_matrix_similarity(corpus, source, compound_index, threshold=0.0):
    """A Jaccard graph built compound by compound from `labels_of`.

    Labels are interned to bits in sorted order, a bit matrix is assembled
    from per-compound (row, bit) lists, and the same product and threshold
    as `build_similarity_matrix` give the pairs.  It is the reference the
    library's label-matrix rows are compared with bit for bit.
    """
    bit_of = {label: i for i, label in enumerate(corpus.source_labels(source))}
    rows, cols, sizes = [], [], []
    for i, compound in enumerate(compound_index):
        bits = [bit_of[label] for label in corpus.labels_of(compound, source)]
        rows.extend([i] * len(bits))
        cols.extend(bits)
        sizes.append(len(bits))
    n = len(compound_index)
    bit_matrix = sp.csr_matrix(
        (np.ones(len(rows)), (rows, cols)),
        shape=(n, (max(cols) + 1) if cols else 0))
    sizes = np.array(sizes, dtype=np.float64)
    inter = sp.triu(bit_matrix @ bit_matrix.T, k=1).tocoo()
    sims = inter.data / (sizes[inter.row] + sizes[inter.col] - inter.data)
    keep = sims >= threshold if threshold > 0.0 else slice(None)
    return SimilarityMatrix(compound_index, inter.row[keep], inter.col[keep],
                            sims[keep], threshold)


def oracle_interaction_matrix(activity_rows, activity_types):
    """(compounds, targets, CSR) of the interaction matrix, from raw rows.

    The dict-and-loop construction: keep the minimum value per (compound,
    target) over rows of the selected types (all when None), map it by the
    documented transform (above 10,000 nM -> 1.0, else
    (20,000 - value) / 2,000), and lay the sorted pairs out as a CSR.
    """
    if isinstance(activity_types, str):
        activity_types = {activity_types}
    best = {}
    for cid, tid, atype, value in activity_rows:
        if activity_types is None or atype in activity_types:
            best[cid, tid] = min(value, best.get((cid, tid), np.inf))
    compounds = tuple(sorted({c for c, _ in best}))
    targets = tuple(sorted({t for _, t in best}))
    compound_pos = {c: i for i, c in enumerate(compounds)}
    target_pos = {t: j for j, t in enumerate(targets)}
    rows, cols, data = [], [], []
    for (c, t), value in sorted(best.items()):
        rows.append(compound_pos[c])
        cols.append(target_pos[t])
        data.append(1.0 if value > 10_000.0 else (20_000.0 - value) / 2_000.0)
    matrix = sp.csr_matrix(
        (np.asarray(data, dtype=np.float64),
         (np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64))),
        shape=(len(compounds), len(targets)))
    return compounds, targets, matrix


def _penalty_term(S_csr, U, lam):
    """(lam/2) * sum over stored pairs i < j of S_ij ||u_i - u_j||^2."""
    upper = sp.triu(S_csr, k=1).tocoo()
    rows, cols, vals = upper.row, upper.col, upper.data
    total = 0.0
    for lo in range(0, len(vals), _PAIR_CHUNK):
        hi = lo + _PAIR_CHUNK
        diff = U[rows[lo:hi]] - U[cols[lo:hi]]
        total += float(np.sum(vals[lo:hi] * np.einsum("ij,ij->i", diff, diff)))
    return 0.5 * lam * total


def objective(X, U, V, S=None, lam=0.0):
    """Training objective.

    J = 0.5 ||X - U V^T||_F^2 + (lam/2) * sum_{i<j} S_ij ||u_i - u_j||^2

    Unstored entries of X count as zeros (dense Frobenius semantics); the
    penalty sums each unordered compound pair once, which makes its
    gradient with respect to U exactly lam * (D - S) U.  Summed pair by
    pair, it is the reference for the trainer's Laplacian-form trace.  S is
    a SimilarityMatrix or a symmetric dense or scipy matrix, whose upper
    triangle is summed as it stands.  X is an InteractionMatrix or a dense or
    scipy matrix.
    """
    X_csr = (X if isinstance(X, InteractionMatrix) else matrix_of(X)).matrix
    U = np.asarray(U, dtype=np.float64)
    V = np.asarray(V, dtype=np.float64)
    n, m = X_csr.shape
    if U.ndim != 2 or V.ndim != 2 or U.shape[0] != n or V.shape[0] != m \
            or U.shape[1] != V.shape[1]:
        raise ValueError(
            f"shape mismatch: X {X_csr.shape}, U {U.shape}, V {V.shape}")
    value = _objective_from_products(
        float((X_csr.data ** 2).sum()), U, X_csr @ V, U.T @ U, V.T @ V)
    if S is not None and lam != 0.0:
        if isinstance(S, SimilarityMatrix):
            S = compound_order_csr(S)
        value += _penalty_term(sp.csr_matrix(S), U, lam)
    return value


def matrix_of(X):
    """A dense or scipy matrix as an InteractionMatrix over compound ids "0",
    "1", ... and target ids "0", "1", ..., built by the public constructor
    from a canonical copy: duplicate entries summed, indices sorted, and the
    caller's arrays left as they are."""
    csr = sp.coo_matrix(X, dtype=np.float64).tocsr()
    n, m = csr.shape
    return InteractionMatrix(tuple(str(i) for i in range(n)),
                             tuple(str(j) for j in range(m)), csr)


def graph_of(S):
    """A symmetric dense or scipy matrix as a SimilarityMatrix over compound
    ids "0", "1", ..., built by the public constructor from its strict upper
    triangle."""
    upper = sp.triu(S, k=1).tocoo()
    return SimilarityMatrix([str(i) for i in range(upper.shape[0])],
                            upper.row, upper.col, upper.data)


def compound_order_csr(graph):
    """A SimilarityMatrix as a symmetric CSR with rows in compound order
    (both triangles, sorted indices, zero diagonal), built from its stored
    upper triangle."""
    upper = graph._upper.tocoo()
    a, b = graph._order[upper.row], graph._order[upper.col]
    n = graph.n_compounds
    return sp.csr_matrix(
        (np.concatenate((upper.data, upper.data)),
         (np.concatenate((a, b)), np.concatenate((b, a)))), shape=(n, n))


def stored_order_product(graph, U):
    """S U for a SimilarityMatrix, summed with plain loops in the order of
    its stored upper triangle T.

    Stored row k's value is the sum below the diagonal (T[j, k] over j in
    ascending order) plus the sum above it (T[k, l] over l in ascending
    order), each started from 0.0; row k is compound order[k]'s.  It is the
    reference S U's two halves and `degrees()` must equal float for float.
    """
    upper, order = graph._upper, graph._order.tolist()
    indptr = upper.indptr.tolist()
    indices, data = upper.indices.tolist(), upper.data.tolist()
    n = len(order)
    U = np.asarray(U, dtype=np.float64)
    rows = [U[order[k]].tolist() for k in range(n)]
    below = [[] for _ in range(n)]
    for k in range(n):
        for at in range(indptr[k], indptr[k + 1]):
            below[indices[at]].append((k, data[at]))
    out = np.zeros_like(U)
    for k in range(n):
        for c in range(U.shape[1]):
            lower = 0.0
            for j, value in below[k]:
                lower += value * rows[j][c]
            higher = 0.0
            for at in range(indptr[k], indptr[k + 1]):
                higher += data[at] * rows[indices[at]][c]
            out[order[k], c] = lower + higher
    return out


def sequential_product(graph, U):
    """S U for a SimilarityMatrix with its two halves formed one after the
    other on the calling thread: the column sums of the stored upper
    triangle T (T^T U, in stored order), then `+=` its row sums (T U), the
    sum scattered back into compound order."""
    Up = U[graph._order]
    SU = graph._upper.T @ Up
    SU += graph._upper @ Up
    out = np.empty_like(U)
    out[graph._order] = SU
    return out


def sequential_train(X, S, config, lam):
    """(U, V, objective trace) of the trainers, run as single expressions one
    step after another on the calling thread, with S U from
    `sequential_product`.  S is a SimilarityMatrix or None; with lam = 0 or
    no S this is plain NMF.  The trainers must equal it float for float.

    U <- U * (X V + lam S U) / (U V^T V + lam D U + eps)
    V <- V * (X^T U) / (V U^T U + eps)
    """
    X_csr = X.matrix
    n, m = X_csr.shape
    rng = np.random.default_rng(config.seed)
    scale = math.sqrt(X_csr.sum() / (n * m) / config.rank)
    U = (1.0 - rng.random((n, config.rank))) * scale
    V = (1.0 - rng.random((m, config.rank))) * scale
    eps = config.epsilon_guard
    x_sq = float((X_csr.data ** 2).sum())
    regularize = lam > 0.0 and S is not None
    if regularize:
        degrees = sequential_product(S, np.ones((n, 1))).ravel()
        SU = sequential_product(S, U)
    else:
        lam, degrees, SU = 0.0, None, None
    XV, gram_v = X_csr @ V, V.T @ V
    trace = [_objective_from_products(
        x_sq, U, XV, U.T @ U, gram_v, lam, degrees, SU)]
    for _ in range(config.max_iters):
        if regularize:
            U *= (XV + lam * SU) / (U @ gram_v + lam * degrees[:, None] * U + eps)
        else:
            U *= XV / (U @ gram_v + eps)
        gram_u = U.T @ U
        V *= (X_csr.T @ U) / (V @ gram_u + eps)
        XV, gram_v = X_csr @ V, V.T @ V
        if regularize:
            SU = sequential_product(S, U)
        trace.append(_objective_from_products(
            x_sq, U, XV, gram_u, gram_v, lam, degrees, SU))
        previous = trace[-2]
        if previous == 0.0 or previous - trace[-1] < config.rel_tol * previous:
            break
    return U, V, np.asarray(trace)


def triple_folds(X, n_folds, seed):
    """The folds of `split_folds(X, n_folds, seed)` for an InteractionMatrix X
    as tuples of (row, col, value) triples, each in row-major order."""
    coo = X.matrix.tocoo()
    order = np.lexsort((coo.col, coo.row))
    rows, cols, vals = coo.row[order], coo.col[order], coo.data[order]
    nnz = len(vals)
    if nnz < n_folds:
        raise EvalError(f"need at least {n_folds} stored entries, have {nnz}")
    perm = np.random.default_rng(seed).permutation(nnz)
    folds = []
    for chunk in np.array_split(perm, n_folds):
        chunk = np.sort(chunk)
        folds.append(tuple(
            (int(rows[t]), int(cols[t]), float(vals[t])) for t in chunk))
    return tuple(folds)


def triple_training_matrix(X, held_out):
    """The InteractionMatrix X without the (row, col) pairs of the held-out
    triples, its CSR built afresh from the kept entries."""
    coo = X.matrix.tocoo()
    m = coo.shape[1]
    keys = coo.row.astype(np.int64) * m + coo.col
    drop = np.asarray([i * m + j for i, j, _ in held_out], dtype=np.int64)
    keep = ~np.isin(keys, drop)
    return InteractionMatrix(X.compounds, X.targets, sp.csr_matrix(
        (coo.data[keep], (coo.row[keep], coo.col[keep])), shape=coo.shape))


def same_corpus(a, b):
    """True when two corpora hold the same compounds in the same order with
    the same SMILES, the same labels under each source and the same
    activity values of each type, compared through the public accessors."""
    if (a.compound_ids() != b.compound_ids() or a.sources() != b.sources()
            or a.target_ids() != b.target_ids()
            or a.activity_types() != b.activity_types()):
        return False
    if any(a.smiles_of(c) != b.smiles_of(c) for c in a.compound_ids()):
        return False
    for source in a.sources():
        x, y = a.label_index(source), b.label_index(source)
        if not (x.labels == y.labels
                and np.array_equal(x.matrix.indptr, y.matrix.indptr)
                and np.array_equal(x.matrix.indices, y.matrix.indices)):
            return False
    return all((a.activity_matrix(t) != b.activity_matrix(t)).nnz == 0
               for t in a.activity_types())


def write_corpus_files(directory, compounds, label_rows, activity_rows):
    """Write the three corpus TSVs into `directory`; returns their paths.

    compounds: iterable of ids or (id, smiles) pairs.
    label_rows: (compound, source, label) triples.
    activity_rows: (compound, target, activity_type, value) quadruples.
    """
    directory.mkdir(parents=True, exist_ok=True)
    compounds_path = directory / "compounds.tsv"
    labels_path = directory / "labels.tsv"
    activities_path = directory / "activities.tsv"
    with open(compounds_path, "w", encoding="utf-8") as fh:
        fh.write("compound_id\tsmiles\n")
        for row in compounds:
            if isinstance(row, str):
                fh.write(f"{row}\t\n")
            else:
                fh.write(f"{row[0]}\t{row[1]}\n")
    with open(labels_path, "w", encoding="utf-8") as fh:
        fh.write("compound_id\tsource\tlabel\n")
        for cid, source, label in label_rows:
            fh.write(f"{cid}\t{source}\t{label}\n")
    with open(activities_path, "w", encoding="utf-8") as fh:
        fh.write("compound_id\ttarget_id\tactivity_type\tvalue_nM\n")
        for cid, tid, atype, value in activity_rows:
            fh.write(f"{cid}\t{tid}\t{atype}\t{value}\n")
    return compounds_path, labels_path, activities_path


def random_label_corpus(rng, max_compounds=1000, max_labels=50,
                        sources=("CF", "OC")):
    """Random in-memory corpus rows for oracle-equivalence sweeps.

    Guarantees at least two relevant compounds (EC50 below 30 nM on target
    'TGT') so reference-set construction never degenerates.
    """
    n_compounds = int(rng.integers(30, max_compounds + 1))
    vocab_size = int(rng.integers(10, max_labels + 1))
    compound_ids = [f"c{i:04d}" for i in range(n_compounds)]
    vocab = {src: [f"{src}_lab{v:02d}" for v in range(vocab_size)]
             for src in sources}

    label_rows = []
    for cid in compound_ids:
        for src in sources:
            count = int(rng.integers(0, 9))
            if count:
                for label in rng.choice(vocab[src], size=count, replace=False):
                    label_rows.append((cid, src, str(label)))

    activity_rows = []
    n_active = int(rng.integers(5, max(6, n_compounds // 3)))
    active = rng.choice(compound_ids, size=n_active, replace=False)
    for at, cid in enumerate(active):
        if at < 2:
            value = float(rng.uniform(1.0, 29.0))  # force >= 2 relevant
        else:
            value = float(rng.uniform(1.0, 100.0))
        activity_rows.append((str(cid), "TGT", "EC50", value))
    return compound_ids, label_rows, activity_rows
