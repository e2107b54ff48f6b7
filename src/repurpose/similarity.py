"""Sparse Jaccard similarity between compounds, as one symmetric CSR.

A compound's labels under one source (ontology labels or precomputed
structural bits) are a row of the corpus's compound x label matrix for that
source.  Pairwise Jaccard similarity over a compound index is one sparse
product of those rows with their own transpose, optionally thresholded, and
is held as one symmetric CSR with the diagonal left out; that matrix is the
regularization graph of the factorization trainer.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .errors import UnknownCompoundError


class SimilarityMatrix:
    """Sparse symmetric compound-compound similarity held as one CSR.

    Built once from upper-triangle triplets (i < j by position in the
    compound index), the CSR holds both triangles with sorted indices; a
    zero value is no edge and is not stored.  The diagonal is excluded --
    the regularization penalty is zero there.
    """

    def __init__(self, compounds, rows, cols, values, threshold=0.0):
        self.compounds = tuple(compounds)
        self.threshold = float(threshold)
        rows, cols = np.asarray(rows), np.asarray(cols)
        if not (rows < cols).all():
            raise ValueError("entries must satisfy row < col (upper triangle)")
        n = len(self.compounds)
        upper = sp.csr_matrix(
            (np.asarray(values, dtype=np.float64), (rows, cols)), shape=(n, n))
        self._csr = upper + upper.T
        self._pos = {c: i for i, c in enumerate(self.compounds)}

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
        i = self.position(compound_a)
        j = self.position(compound_b)
        lo, hi = self._csr.indptr[i], self._csr.indptr[i + 1]
        at = lo + np.searchsorted(self._csr.indices[lo:hi], j)
        if at < hi and self._csr.indices[at] == j:
            return float(self._csr.data[at])
        return 0.0

    def triplets(self):
        """(rows, cols, values) arrays of the upper triangle, row-major."""
        upper = sp.triu(self._csr, k=1).tocoo()
        return upper.row, upper.col, upper.data

    def to_csr(self):
        """The stored symmetric CSR (both triangles, zero diagonal)."""
        return self._csr

    def degrees(self):
        """Row sums of the symmetric matrix (the D diagonal of L = D - S)."""
        return np.asarray(self._csr.sum(axis=1)).ravel()

    def __repr__(self):
        return (f"SimilarityMatrix({self.n_compounds} compounds, "
                f"{self.n_pairs} pairs, threshold={self.threshold})")


def build_similarity_matrix(corpus, source, compound_index=None, threshold=0.0):
    """All-pairs Jaccard similarity over `compound_index` for one source.

    Pairs with similarity >= threshold (and > 0) are stored; the comparison
    is inclusive.  Computed via a sparse bit-matrix product, so cost scales
    with shared bits rather than with all n^2 pairs.
    """
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must be in [0, 1], got {threshold}")
    if compound_index is None:
        compound_index = corpus.compound_ids()
    compound_index = tuple(compound_index)
    if len(set(compound_index)) != len(compound_index):
        raise ValueError("compound_index contains duplicates")

    bit_matrix = corpus.label_index(source).matrix[
        corpus.positions(compound_index)]
    sizes = np.diff(bit_matrix.indptr).astype(np.float64)

    inter = sp.triu(bit_matrix @ bit_matrix.T, k=1).tocoo()
    sims = inter.data / (sizes[inter.row] + sizes[inter.col] - inter.data)
    keep = sims >= threshold if threshold > 0.0 else slice(None)
    rows, cols, sims = inter.row[keep], inter.col[keep], sims[keep]
    # the unthresholded pairs are freed before the symmetric CSR is built
    del inter, keep
    return SimilarityMatrix(compound_index, rows, cols, sims, threshold)

