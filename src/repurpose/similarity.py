"""Sparse Jaccard similarity between compounds, as one upper-triangle CSR.

A compound's labels under one source (ontology labels or precomputed
structural bits) are a row of the corpus's compound x label matrix for that
source.  Pairwise Jaccard similarity over a compound index is the product of
those rows with their own transpose, optionally thresholded; that symmetric
matrix S, with the diagonal left out, is the regularization graph of the
factorization trainer, which takes a graph in this form only.  The trainer
reads S only through S U and the degrees, and both come from one
triangle, so only the strict upper triangle is stored: each pair once.

Rows and columns are stored in label-locality order: compounds that share
their rarest label sit on adjacent rows, so the trainer's product of the
graph with its factor rows reads rows it has just read (Cuthill & McKee's
bandwidth idea, with an order taken from the labels rather than the
graph).  Stored entry (k, l), k < l, is the Jaccard of compounds order[k]
and order[l]; every accessor answers in compound order.

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
# but each block also converts every label row below it, so much smaller
# blocks slow the build.
_BLOCK_ENTRIES = 1_000_000


class SimilarityMatrix:
    """Sparse symmetric compound-compound similarity held as the CSR of its
    strict upper triangle.

    The CSR has sorted indices; a zero value is no edge and is not stored,
    and the diagonal is excluded -- the regularization penalty is zero
    there.  Rows and columns are in stored order (see the module
    docstring): stored position k is compound `order[k]`.  The constructor
    takes upper-triangle triplets (i < j by position in the compound index)
    and stores them in compound order, summing a repeated pair's values,
    which must be finite and non-negative as the graph penalty assumes.
    """

    def __init__(self, compounds, rows, cols, values, threshold=0.0):
        compounds = tuple(compounds)
        rows, cols = np.asarray(rows), np.asarray(cols)
        values = np.asarray(values, dtype=np.float64)
        if not (rows < cols).all():
            raise ValueError("entries must satisfy row < col (upper triangle)")
        if not (np.isfinite(values) & (values >= 0)).all():
            raise ValueError("similarity values must be finite and non-negative")
        n = len(compounds)
        upper = sp.csr_matrix((values, (rows, cols)), shape=(n, n))
        upper.eliminate_zeros()
        self._hold(compounds, upper, threshold,
                   np.arange(n, dtype=upper.indices.dtype))

    @classmethod
    def _from_upper(cls, compounds, upper, threshold, order):
        """Wrap a finished strict-upper-triangle CSR (sorted indices) whose
        position k is compound order[k]'s."""
        matrix = cls.__new__(cls)
        matrix._hold(tuple(compounds), upper, threshold, order)
        return matrix

    def _hold(self, compounds, upper, threshold, order):
        self.compounds = compounds
        self.threshold = float(threshold)
        self._upper = upper
        self._order = order
        # the stored position of each compound position
        self._row = np.empty_like(order)
        self._row[order] = np.arange(len(order), dtype=order.dtype)
        self._pos = {c: i for i, c in enumerate(compounds)}

    @property
    def n_compounds(self):
        return len(self.compounds)

    @property
    def n_pairs(self):
        return self._upper.nnz

    @property
    def stored_bytes(self):
        """Bytes of the stored arrays: the CSR and the two order maps."""
        upper = self._upper
        return sum(a.nbytes for a in (upper.data, upper.indices, upper.indptr,
                                      self._order, self._row))

    def position(self, compound):
        try:
            return self._pos[compound]
        except KeyError:
            raise UnknownCompoundError(
                f"compound {compound!r} is not in the similarity index") from None

    def get(self, compound_a, compound_b):
        """Similarity between two compounds (symmetric; 0.0 when unstored or
        when both ids are the same, since the diagonal is not kept)."""
        k, l = sorted((self._row[self.position(compound_a)],
                       self._row[self.position(compound_b)]))
        upper = self._upper
        lo, hi = upper.indptr[k], upper.indptr[k + 1]
        at = lo + np.searchsorted(upper.indices[lo:hi], l)
        if at < hi and upper.indices[at] == l:
            return float(upper.data[at])
        return 0.0

    def triplets(self):
        """(rows, cols, values) arrays of the upper triangle by compound
        position, row-major."""
        upper, order = self._upper, self._order
        # stored pair (k, l) joins compounds order[k] and order[l], which
        # may lie either way up
        ends = np.repeat(order, np.diff(upper.indptr))
        cols = order[upper.indices]
        rows = np.minimum(ends, cols)
        np.maximum(ends, cols, out=cols)
        del ends
        # laid out as a CSR, which sorts them row-major
        by_row = sp.csr_matrix((upper.data, (rows, cols)), shape=upper.shape)
        del rows, cols
        rows = np.repeat(np.arange(self.n_compounds, dtype=order.dtype),
                         np.diff(by_row.indptr))
        return rows, by_row.indices.astype(order.dtype, copy=False), by_row.data

    def _product(self, U, out):
        """S U in compound order, written into `out` and returned.  Each row
        of the stored order sums its terms below the diagonal (column sums
        of the upper triangle, in stored order), then those above it, and
        adds the two."""
        Up = U[self._order]
        SU = self._upper.T @ Up
        SU += self._upper @ Up
        out[self._order] = SU
        return out

    def degrees(self):
        """Row sums of the symmetric matrix (the D diagonal of L = D - S),
        summed as `_product` sums."""
        ones = np.ones((self.n_compounds, 1))
        return self._product(ones, np.empty_like(ones)).ravel()

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


def _upper_block(bits, sizes, lo, hi, threshold):
    """Rows lo..hi-1 of the graph's strict upper triangle, from the product
    of R[lo:hi] and R[lo:] transposed, with columns counted from lo.

    Returns the product of shared-label counts, the Jaccard of each of its
    stored entries and the mask of the entries kept: those right of the
    diagonal, and at or over a nonzero threshold.  `sizes` holds the label
    count of every row of R.
    """
    product = _rows(bits, lo, hi) @ _rows(bits, lo, bits.shape[0]).T
    lengths = np.diff(product.indptr)
    union = np.repeat(sizes[lo:hi], lengths)
    union += sizes[lo:][product.indices]
    union -= product.data
    sims = np.divide(product.data, union, out=union)
    keep = product.indices > np.repeat(
        np.arange(hi - lo, dtype=product.indices.dtype), lengths)
    if threshold > 0.0:
        keep &= sims >= threshold
    return product, sims, keep


def build_similarity_matrix(corpus, source, compound_index=None, threshold=0.0):
    """All-pairs Jaccard similarity over `compound_index` for one source.

    Pairs with similarity >= threshold (and > 0) are stored; the comparison
    is inclusive.  Computed from sparse products of the label matrix, so
    cost scales with shared labels rather than with all n^2 pairs.

    The graph is stored in the order `_locality_order` takes from the label
    matrix; R is the label matrix with its rows in that order.  Two passes
    run over row blocks of R (see `_row_blocks`), and each forms the block's
    upper triangle from R[lo:hi] times R[lo:] transposed (`_upper_block`).
    The first counts each row's kept entries; from those counts the CSR's
    arrays are allocated once, at their final size.  The second writes each
    block's kept entries into its slice, and the rows' columns are sorted
    in place at the end.  Memory is the final CSR plus about one block.
    Each pair's Jaccard is the one the whole product gives, bit for bit.
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
    bits = bits[order]  # R from here on
    sizes = np.diff(bits.indptr).astype(np.float64)
    blocks = list(_row_blocks(bits))

    counts = np.zeros(n, dtype=np.int64)
    for lo, hi in blocks:
        product, _, keep = _upper_block(bits, sizes, lo, hi, threshold)
        counts[lo:hi] = np.diff(
            np.concatenate(([0], np.cumsum(keep)))[product.indptr])
        # freed before the next block's product is formed
        del product, keep

    nnz = int(counts.sum())
    index_dtype = np.int32 if max(nnz, n) <= np.iinfo(np.int32).max else np.int64
    indptr = np.zeros(n + 1, dtype=index_dtype)
    np.cumsum(counts, out=indptr[1:])
    indices = np.empty(nnz, dtype=index_dtype)
    data = np.empty(nnz)
    for lo, hi in blocks:
        product, sims, keep = _upper_block(bits, sizes, lo, hi, threshold)
        indices[indptr[lo]:indptr[hi]] = product.indices[keep]
        indices[indptr[lo]:indptr[hi]] += lo
        data[indptr[lo]:indptr[hi]] = sims[keep]
        del product, sims, keep
    upper = sp.csr_matrix((data, indices, indptr), shape=(n, n))
    upper.sort_indices()
    return SimilarityMatrix._from_upper(compound_index, upper, threshold,
                                        order.astype(index_dtype))
