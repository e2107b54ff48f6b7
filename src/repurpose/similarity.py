"""Sparse Jaccard similarity between compounds, as one symmetric CSR.

A compound's labels under one source (ontology labels or precomputed
structural bits) are a row of the corpus's compound x label matrix for that
source.  Pairwise Jaccard similarity over a compound index is the product of
those rows with their own transpose, optionally thresholded, and is held as
one symmetric CSR with the diagonal left out; that matrix is the
regularization graph of the factorization trainer.

The CSR's rows are stored in label-locality order: compounds that share
their rarest label sit on adjacent rows, so the trainer's product of the
graph with its factor rows reads rows it has just read (Cuthill & McKee's
bandwidth idea, with an order taken from the labels rather than the
graph).  Only the rows are permuted; each stored row is its compound's row
of the graph, with columns in compound order.

The graph is built in two passes over row blocks of the label matrix, so
the whole product is never formed: the first counts each row's kept
entries, and the second writes each block's rows into arrays allocated once
at their final size.  Memory is the final CSR plus about one block.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .errors import UnknownCompoundError

# Product entries formed at once, bounded per row by the sum of the row's
# label counts.  A small block keeps the build's memory near the final CSR's,
# but each block of the first pass also converts every label row below it,
# so much smaller blocks slow the build.
_BLOCK_ENTRIES = 1_000_000


class SimilarityMatrix:
    """Sparse symmetric compound-compound similarity held as one CSR.

    The CSR holds both triangles with sorted indices; a zero value is no
    edge and is not stored.  The diagonal is excluded -- the regularization
    penalty is zero there.  Stored row k is the row of compound `order[k]`
    (see the module docstring); every accessor answers in compound order.
    The constructor takes upper-triangle triplets (i < j by position in the
    compound index) and stores rows in compound order.
    """

    def __init__(self, compounds, rows, cols, values, threshold=0.0):
        compounds = tuple(compounds)
        rows, cols = np.asarray(rows), np.asarray(cols)
        if not (rows < cols).all():
            raise ValueError("entries must satisfy row < col (upper triangle)")
        n = len(compounds)
        upper = sp.csr_matrix(
            (np.asarray(values, dtype=np.float64), (rows, cols)), shape=(n, n))
        self._hold(compounds, upper + upper.T, threshold)

    @classmethod
    def _from_csr(cls, compounds, csr, threshold, order):
        """Wrap a finished symmetric CSR (sorted indices, no diagonal) whose
        row k is compound order[k]'s."""
        matrix = cls.__new__(cls)
        matrix._hold(tuple(compounds), csr, threshold, order)
        return matrix

    def _hold(self, compounds, csr, threshold, order=None):
        if order is None:
            order = np.arange(len(compounds), dtype=csr.indices.dtype)
        self.compounds = compounds
        self.threshold = float(threshold)
        self._csr = csr
        self._order = order
        # the stored row of each compound position
        self._row = np.empty_like(order)
        self._row[order] = np.arange(len(order), dtype=order.dtype)
        self._pos = {c: i for i, c in enumerate(compounds)}

    @property
    def n_compounds(self):
        return len(self.compounds)

    @property
    def n_pairs(self):
        return self._csr.nnz // 2

    def position(self, compound):
        try:
            return self._pos[compound]
        except KeyError:
            raise UnknownCompoundError(
                f"compound {compound!r} is not in the similarity index") from None

    def get(self, compound_a, compound_b):
        """Similarity between two compounds (symmetric; 0.0 when unstored or
        when both ids are the same, since the diagonal is not kept)."""
        i = self._row[self.position(compound_a)]
        j = self.position(compound_b)
        lo, hi = self._csr.indptr[i], self._csr.indptr[i + 1]
        at = lo + np.searchsorted(self._csr.indices[lo:hi], j)
        if at < hi and self._csr.indices[at] == j:
            return float(self._csr.data[at])
        return 0.0

    def triplets(self):
        """(rows, cols, values) arrays of the upper triangle, row-major."""
        csr = self._csr
        # a stored row's upper-triangle entries are the tail of its sorted
        # columns: those past its own compound's position
        upper = csr.indices > np.repeat(self._order, np.diff(csr.indptr))
        tails = np.diff(np.searchsorted(np.flatnonzero(upper), csr.indptr))
        del upper
        counts = tails[self._row]
        starts = (csr.indptr[1:] - tails)[self._row]
        # the tails' entry positions, compound by compound
        at = np.repeat(starts - np.cumsum(counts) + counts, counts)
        at += np.arange(len(at))
        rows = np.repeat(np.arange(self.n_compounds, dtype=csr.indices.dtype),
                         counts)
        return rows, csr.indices[at], csr.data[at]

    def _product(self, U, out):
        """S U in compound order, written into `out` and returned.  Each row
        sums the same terms in the same order as a product with the
        compound-order CSR, so the result does not depend on the row order."""
        out[self._order] = self._csr @ U
        return out

    def degrees(self):
        """Row sums of the symmetric matrix (the D diagonal of L = D - S)."""
        degrees = np.empty(self.n_compounds)
        degrees[self._order] = np.asarray(self._csr.sum(axis=1)).ravel()
        return degrees

    def __repr__(self):
        return (f"SimilarityMatrix({self.n_compounds} compounds, "
                f"{self.n_pairs} pairs, threshold={self.threshold})")


def _row_blocks(bits):
    """(lo, hi) row ranges whose summed product bound is at most
    `_BLOCK_ENTRIES`; a row over it on its own forms a block.

    A row's bound is the sum of its labels' column counts: the number of
    (label, compound) pairs its product row visits, which is at least the
    number of entries that row stores.
    """
    bound = np.cumsum(bits @ np.bincount(bits.indices, minlength=bits.shape[1]))
    lo = 0
    while lo < len(bound):
        base = bound[lo - 1] if lo else 0.0
        hi = int(np.searchsorted(bound, base + _BLOCK_ENTRIES, side="right"))
        hi = max(hi, lo + 1)
        yield lo, hi
        lo = hi


def _rows(bits, lo, hi):
    """Rows lo..hi-1 of a CSR, sharing its index and data arrays (a slice
    would copy them)."""
    start, stop = bits.indptr[lo], bits.indptr[hi]
    return sp.csr_matrix(
        (bits.data[start:stop], bits.indices[start:stop],
         bits.indptr[lo:hi + 1] - start), shape=(hi - lo, bits.shape[1]))


def _jaccard(product, row_sizes, col_sizes):
    """Jaccard of every stored entry of a shared-label-count product, and
    the number of entries in each of its rows."""
    lengths = np.diff(product.indptr)
    union = np.repeat(row_sizes, lengths)
    union += col_sizes[product.indices]
    union -= product.data
    return np.divide(product.data, union, out=union), lengths


def _locality_order(bits):
    """Row order of a label CSR that puts rows sharing labels together.

    Each row is keyed by its rarest label -- the one the fewest rows carry,
    ties broken by column -- so the rows under one key share at least that
    label; rows without labels go last, and ties keep their row order.
    """
    n, m = bits.shape
    rarity = np.empty(m, dtype=np.int64)
    rarity[np.argsort(np.bincount(bits.indices, minlength=m), kind="stable")] = \
        np.arange(m)
    keys = np.full(n, m, dtype=np.int64)
    labelled = np.flatnonzero(np.diff(bits.indptr))
    if len(labelled):
        keys[labelled] = np.minimum.reduceat(rarity[bits.indices],
                                             bits.indptr[labelled])
    return np.argsort(keys, kind="stable")


def build_similarity_matrix(corpus, source, compound_index=None, threshold=0.0):
    """All-pairs Jaccard similarity over `compound_index` for one source.

    Pairs with similarity >= threshold (and > 0) are stored; the comparison
    is inclusive.  Computed from sparse products of the label matrix, so
    cost scales with shared labels rather than with all n^2 pairs.

    The rows are stored in the order `_locality_order` takes from the
    label matrix B; R is B with its rows in that order.  Two passes run over
    row blocks of R (see `_row_blocks`).  The first forms each block's upper
    triangle, R[lo:hi] times R[lo:] transposed, and counts every kept pair
    on both of its rows.  From those counts the CSR's arrays are allocated
    once, at their final size.  The second forms each block's full rows,
    R[lo:hi] times B (not R) transposed, with sorted columns in compound
    order, and writes the kept entries into the block's slice.  Memory is
    the final CSR plus about one block.  Jaccard is computed the same way
    for (i, j) and (j, i), so the matrix is symmetric bit for bit, and
    stored row k equals row order[k] of the graph built in compound order.
    """
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must be in [0, 1], got {threshold}")
    if compound_index is None:
        compound_index = corpus.compound_ids()
    compound_index = tuple(compound_index)
    if len(set(compound_index)) != len(compound_index):
        raise ValueError("compound_index contains duplicates")

    bits = corpus.label_index(source).matrix[corpus.positions(compound_index)]
    n = bits.shape[0]
    order = _locality_order(bits)
    sizes = np.diff(bits.indptr).astype(np.float64)
    row_sizes = sizes[order]
    bits_t = bits.T.tocsr()
    bits = bits[order]  # R from here on
    blocks = list(_row_blocks(bits))

    counts = np.zeros(n, dtype=np.int64)
    for lo, hi in blocks:
        upper = _rows(bits, lo, hi) @ _rows(bits, lo, n).T
        sims, lengths = _jaccard(upper, row_sizes[lo:hi], row_sizes[lo:])
        rows = np.repeat(np.arange(hi - lo, dtype=upper.indices.dtype), lengths)
        keep = upper.indices > rows
        if threshold > 0.0:
            keep &= sims >= threshold
        # a kept pair counts on its own row and, mirrored, on its column's
        kept_before = np.concatenate(([0], np.cumsum(keep)))[upper.indptr]
        counts[lo:hi] += np.diff(kept_before)
        counts[lo:] += np.bincount(upper.indices[keep], minlength=n - lo)
        # freed before the next block's product is formed
        del upper, sims, rows, keep

    nnz = int(counts.sum())
    index_dtype = np.int32 if max(nnz, n) <= np.iinfo(np.int32).max else np.int64
    order = order.astype(index_dtype)
    indptr = np.zeros(n + 1, dtype=index_dtype)
    np.cumsum(counts, out=indptr[1:])
    indices = np.empty(nnz, dtype=index_dtype)
    data = np.empty(nnz)
    for lo, hi in blocks:
        full = _rows(bits, lo, hi) @ bits_t
        full.sort_indices()
        sims, lengths = _jaccard(full, row_sizes[lo:hi], sizes)
        diagonal = np.repeat(order[lo:hi], lengths)
        keep = full.indices != diagonal
        if threshold > 0.0:
            keep &= sims >= threshold
        indices[indptr[lo]:indptr[hi]] = full.indices[keep]
        data[indptr[lo]:indptr[hi]] = sims[keep]
        # freed before the next block's product is formed
        del full, sims, diagonal, keep
    csr = sp.csr_matrix((data, indices, indptr), shape=(n, n))
    return SimilarityMatrix._from_csr(compound_index, csr, threshold, order)
