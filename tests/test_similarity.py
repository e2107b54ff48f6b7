import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.sparse as sp

from helpers import (
    bit_matrix_similarity,
    compound_order_csr,
    graph_of,
    jaccard,
    oracle_jaccard_pairs,
    stored_order_product,
)

from repurpose import (
    Corpus,
    InteractionMatrix,
    SimilarityMatrix,
    TrainConfig,
    UnknownCompoundError,
    build_similarity_matrix,
    similarity,
    train_csnmf,
)


class TestJaccard:
    """The plain-set oracle that the graph is checked against."""

    def test_identical_nonempty(self):
        assert jaccard({1, 2, 3}, {1, 2, 3}) == 1.0

    def test_disjoint(self):
        assert jaccard({1, 2}, {3, 4}) == 0.0

    def test_hand_case(self):
        # {a,b,c} vs {b,c,d}: 2 shared of 4 total
        assert jaccard({1, 2, 3}, {2, 3, 4}) == 0.5

    def test_both_empty_is_zero(self):
        assert jaccard(set(), set()) == 0.0

    def test_one_empty_is_zero(self):
        assert jaccard({1}, set()) == 0.0

    def test_self_similarity_one(self):
        a = {5, 9}
        assert jaccard(a, a) == 1.0

    def test_adding_shared_bit_never_decreases(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            a = set(rng.integers(0, 30, size=rng.integers(0, 10)).tolist())
            b = set(rng.integers(0, 30, size=rng.integers(0, 10)).tolist())
            shared = int(rng.integers(100, 200))
            before = jaccard(a, b)
            after = jaccard(a | {shared}, b | {shared})
            assert after >= before


class TestBuildSimilarityMatrix:

    @pytest.fixture
    def corpus(self, make_corpus):
        # pair similarities: (p,q) = 2/4 = 0.5, (q,r) = 2/5 = 0.4, (p,r) = 0
        rows = [("p", "CF", "l1"), ("p", "CF", "l2"),
                ("q", "CF", "l1"), ("q", "CF", "l2"),
                ("q", "CF", "l3"), ("q", "CF", "l4"),
                ("r", "CF", "l3"), ("r", "CF", "l4"), ("r", "CF", "l9")]
        return make_corpus(["p", "q", "r"], rows)

    def test_unthresholded_keeps_nonzero_pairs(self, corpus):
        matrix = build_similarity_matrix(corpus, "CF")
        assert matrix.n_pairs == 2
        assert matrix.get("p", "q") == pytest.approx(0.5)
        assert matrix.get("q", "r") == pytest.approx(0.4)
        assert matrix.get("p", "r") == 0.0

    def test_threshold_is_inclusive(self, corpus):
        matrix = build_similarity_matrix(corpus, "CF", threshold=0.5)
        assert matrix.n_pairs == 1
        assert matrix.get("p", "q") == pytest.approx(0.5)
        assert matrix.get("q", "r") == 0.0

    def test_threshold_one_drops_non_duplicates(self, corpus):
        matrix = build_similarity_matrix(corpus, "CF", threshold=1.0)
        assert matrix.n_pairs == 0

    def test_symmetric_view(self, corpus):
        matrix = build_similarity_matrix(corpus, "CF")
        for a in ("p", "q", "r"):
            for b in ("p", "q", "r"):
                assert matrix.get(a, b) == matrix.get(b, a)

    def test_diagonal_not_stored(self, corpus):
        matrix = build_similarity_matrix(corpus, "CF")
        assert matrix.get("q", "q") == 0.0

    def test_values_in_unit_interval(self, corpus):
        matrix = build_similarity_matrix(corpus, "CF")
        _, _, values = matrix.triplets()
        assert len(values) == matrix.n_pairs
        assert np.all((0.0 < values) & (values <= 1.0))

    def test_unknown_compound_in_index_rejected(self, corpus):
        with pytest.raises(UnknownCompoundError):
            build_similarity_matrix(corpus, "CF", compound_index=("p", "ghost"))

    def test_duplicate_index_rejected(self, corpus):
        with pytest.raises(ValueError):
            build_similarity_matrix(corpus, "CF", compound_index=("p", "p", "q"))

    def test_bad_threshold_rejected(self, corpus):
        with pytest.raises(ValueError):
            build_similarity_matrix(corpus, "CF", threshold=1.5)

    def test_csr_view_is_symmetric_with_zero_diagonal(self, corpus):
        matrix = build_similarity_matrix(corpus, "CF")
        csr = compound_order_csr(matrix)
        assert (csr != csr.T).nnz == 0
        assert not csr.diagonal().any()
        assert matrix.degrees() == pytest.approx(
            np.asarray(csr.sum(axis=1)).ravel())

    def test_brute_force_equivalence(self, make_corpus):
        rng = np.random.default_rng(17)
        ids = [f"c{i:03d}" for i in range(120)]
        vocab = [f"lab{v}" for v in range(40)]
        rows = []
        bit_sets = {cid: set() for cid in ids}
        for cid in ids:
            count = int(rng.integers(0, 12))
            for label in rng.choice(vocab, size=count, replace=False):
                rows.append((cid, "CF", str(label)))
                bit_sets[cid].add(str(label))
        corpus = make_corpus(ids, rows)
        matrix = build_similarity_matrix(corpus, "CF")
        expected = oracle_jaccard_pairs(bit_sets)
        got = {(matrix.compounds[i], matrix.compounds[j]): value
               for i, j, value in zip(*matrix.triplets())}
        assert set(got) == set(expected)
        for pair, value in expected.items():
            assert got[pair] == pytest.approx(value, rel=1e-12)

        # rebuilt from shuffled upper triplets, the matrix keeps its contract
        rows, cols, values = matrix.triplets()
        order = rng.permutation(len(values))
        rebuilt = SimilarityMatrix(
            matrix.compounds, rows[order], cols[order], values[order])
        got_rows, got_cols, got_values = rebuilt.triplets()
        assert np.array_equal(np.lexsort((got_cols, got_rows)),
                              np.arange(len(got_values)))
        assert np.array_equal(got_rows, rows)
        assert np.array_equal(got_cols, cols)
        assert np.array_equal(got_values, values)
        for (a, b), value in got.items():
            assert rebuilt.get(a, b) == rebuilt.get(b, a) == value
        csr = compound_order_csr(rebuilt)
        for lo, hi in zip(csr.indptr[:-1], csr.indptr[1:]):
            assert np.all(np.diff(csr.indices[lo:hi]) > 0)
        assert not csr.diagonal().any()
        for bad_rows, bad_cols in (([cols[0]], [rows[0]]), ([3], [3])):
            with pytest.raises(ValueError, match="row < col"):
                SimilarityMatrix(matrix.compounds, bad_rows, bad_cols, [0.5])
        # a zero value is no edge, and a repeated pair sums
        sparse = SimilarityMatrix(matrix.compounds, [0, 1, 1], [2, 3, 3],
                                  [0.0, 0.25, 0.5])
        assert sparse.n_pairs == 1
        assert sparse.get(matrix.compounds[3], matrix.compounds[1]) == 0.75

    @pytest.mark.parametrize("bad", [-0.9, -1e-300, np.nan, np.inf])
    def test_negative_or_non_finite_weight_rejected(self, bad):
        with pytest.raises(ValueError, match="finite and non-negative"):
            SimilarityMatrix(["a", "b", "c"], [0, 1], [1, 2], [0.5, bad])


class TestLabelMatrixRows:
    """The graph reads the corpus's label matrix in row blocks; it must equal
    what per-compound interning of `labels_of` and one whole product build,
    whatever the block size."""

    @pytest.fixture
    def corpus(self, make_corpus):
        rng = np.random.default_rng(41)
        ids = [f"c{i:03d}" for i in range(150)]
        rows = []
        for cid in ids:
            for v in rng.choice(30, size=int(rng.integers(0, 10)), replace=False):
                rows.append((cid, "CF", f"lab{v:02d}"))
        # a hub carrying every label: its bound is the whole matrix's nnz
        rows.extend(("hub", "CF", f"lab{v:02d}") for v in range(30))
        return make_corpus(ids + ["hub"], rows)

    @pytest.mark.parametrize("threshold", [0.0, 0.3, 1.0])
    def test_graph_bit_identical_to_bit_matrix_build(self, corpus, threshold,
                                                     monkeypatch):
        ids = corpus.compound_ids()
        unlabeled = tuple(c for c in ids if not corpus.labels_of(c, "CF"))
        assert unlabeled
        # the rows are stored out of compound order
        order = build_similarity_matrix(corpus, "CF")._order
        assert not np.array_equal(order, np.arange(len(ids)))

        # mid: the blocks the build walks over the rows in stored order are
        # several multi-row ones, and the hub's row alone in one
        mid = 300
        hub = int(np.flatnonzero(order == ids.index("hub"))[0])
        with monkeypatch.context() as patch:
            patch.setattr(similarity, "_BLOCK_ENTRIES", mid)
            blocks = list(similarity._row_blocks(
                corpus.label_index("CF").matrix[order]))
        assert len(blocks) > 1 and max(hi - lo for lo, hi in blocks) > 1
        assert (hub, hub + 1) in blocks
        assert corpus.label_index("CF").counts.sum() > mid

        rng = np.random.default_rng(42)
        indexes = (ids, ids[::-1], tuple(rng.permutation(ids)[:90]), (),
                   ("hub",), unlabeled + ("hub", ids[0]))
        for block_entries in (1, mid, similarity._BLOCK_ENTRIES):
            monkeypatch.setattr(similarity, "_BLOCK_ENTRIES", block_entries)
            for index in indexes:
                got = build_similarity_matrix(corpus, "CF", index, threshold)
                want = bit_matrix_similarity(corpus, "CF", index, threshold)
                assert_same_arrays(compound_order_csr(got),
                                   compound_order_csr(want))
                assert_same_arrays(got.triplets(), want.triplets())
                # summed in different orders (see TestStoredOrderProduct)
                np.testing.assert_allclose(got.degrees(), want.degrees(),
                                           rtol=1e-12)
                pairs = rng.choice(len(index), size=(60, 2)) if index else ()
                for a, b in pairs:
                    assert got.get(index[a], index[b]) == \
                        want.get(index[a], index[b])


def assert_same_arrays(got, want):
    """Equal dtypes and bytes for each array of a CSR or a tuple of them."""
    if not isinstance(got, tuple):
        got, want = ((m.indptr, m.indices, m.data) for m in (got, want))
    for got_array, want_array in zip(got, want, strict=True):
        assert got_array.dtype == want_array.dtype
        assert got_array.tobytes() == want_array.tobytes()


class TestStoredOrderProduct:
    """S U and the degrees are summed in the graph's stored order: each
    stored row's terms below the diagonal, then those above it.  S U is
    formed as the trainer forms it, its first half on a worker.  Both must
    equal the plain-loop reference float for float, on built graphs and on
    raw matrices built into graphs by the constructor."""

    @staticmethod
    def assert_matches_reference(graph, rng, S=None):
        """S, when given, is the symmetric matrix the graph must hold."""
        n = graph.n_compounds
        U = rng.random((n, 3))
        with ThreadPoolExecutor(max_workers=1) as pool:
            got = graph._finish_product(graph._start_product(U, pool.submit),
                                        np.empty_like(U))
        assert got.tobytes() == stored_order_product(graph, U).tobytes()
        degrees = graph.degrees()
        assert degrees.tobytes() == \
            stored_order_product(graph, np.ones((n, 1))).ravel().tobytes()
        # and the reference is S U
        csr = compound_order_csr(graph) if S is None else sp.csr_matrix(S)
        np.testing.assert_allclose(got, csr @ U, rtol=1e-12, atol=0)
        np.testing.assert_allclose(
            degrees, np.asarray(csr.sum(axis=1)).ravel(), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("block_entries", [1, None])
    @pytest.mark.parametrize("threshold", [0.0, 0.5])
    def test_built_graphs(self, make_corpus, monkeypatch, block_entries,
                          threshold):
        if block_entries is not None:
            monkeypatch.setattr(similarity, "_BLOCK_ENTRIES", block_entries)
        rng = np.random.default_rng(61)
        for _ in range(4):
            n = int(rng.integers(20, 90))
            ids = [f"c{i:02d}" for i in range(n)]
            rows = [(cid, "CF", f"l{v:02d}") for cid in ids
                    for v in rng.choice(20, size=int(rng.integers(0, 7)),
                                        replace=False)]
            # a compound whose one label no other carries is isolated
            rows.append((ids[0], "CF", "own"))
            corpus = make_corpus(ids, rows)
            index = tuple(rng.permutation(ids))
            graph = build_similarity_matrix(corpus, "CF", index, threshold)
            assert graph.n_pairs
            assert (graph.degrees() == 0).any()
            self.assert_matches_reference(graph, rng)

    def test_small_and_empty_graphs(self, make_corpus):
        rng = np.random.default_rng(62)
        corpus = make_corpus(["a", "b", "c"], [("a", "CF", "x"),
                                               ("b", "CF", "y")])
        for index in (("a", "b", "c"), ("b",), ()):
            graph = build_similarity_matrix(corpus, "CF", index)
            assert graph.n_pairs == 0
            self.assert_matches_reference(graph, rng)
            assert not graph.degrees().any()

    def test_degrees_formed_once(self, make_corpus):
        rng = np.random.default_rng(64)
        ids = [f"c{i:02d}" for i in range(30)]
        corpus = make_corpus(ids, [(cid, "CF", f"l{v}") for cid in ids
                                   for v in rng.choice(8, size=3,
                                                       replace=False)])
        graph = build_similarity_matrix(corpus, "CF")
        degrees = graph.degrees()
        assert graph.degrees() is degrees
        assert not degrees.flags.writeable
        with pytest.raises(ValueError):
            degrees[0] = 1.0
        assert degrees.tobytes() == stored_order_product(
            graph, np.ones((graph.n_compounds, 1))).ravel().tobytes()

    @pytest.mark.parametrize("kind", ["dense", "scipy"])
    def test_raw_matrices(self, kind):
        rng = np.random.default_rng(63)
        for n in (1, 2, 7, 40):
            upper = np.triu(rng.random((n, n)) * (rng.random((n, n)) < 0.3),
                            k=1)
            S = upper + upper.T
            if kind == "scipy":
                S = sp.coo_matrix(S)
            graph = graph_of(S)
            assert np.array_equal(graph._order, np.arange(n))
            self.assert_matches_reference(graph, rng, S)


class TestBuildMemory:
    """numpy and scipy's sparse products allocate through tracemalloc, so its
    peak counts every temporary the build makes."""

    @pytest.fixture(scope="class")
    def corpus(self):
        rng = np.random.default_rng(5)
        ids = [f"m{i:04d}" for i in range(1400)]
        rows = [(cid, "CF", f"k{i % 2}-{v:02d}") for i, cid in enumerate(ids)
                for v in rng.choice(16, size=8, replace=False)]
        return Corpus.build(ids, rows)

    def test_peak_rise_is_final_csr_plus_one_block(self, corpus, monkeypatch):
        monkeypatch.setattr(similarity, "_BLOCK_ENTRIES", 20_000)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            matrix = build_similarity_matrix(corpus, "CF", threshold=0.2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert matrix.n_pairs > 400_000
        upper = matrix._upper
        stored = upper.data.nbytes + upper.indices.nbytes + upper.indptr.nbytes
        assert matrix.stored_bytes == stored + matrix._order.nbytes \
            + matrix._row.nbytes
        # a symmetric CSR alone would take twice the stored one
        assert peak - before <= 1.2 * stored

    def test_training_forms_no_symmetric_copy(self, corpus):
        graph = build_similarity_matrix(corpus, "CF", threshold=0.2)
        assert graph.n_pairs > 400_000
        X = InteractionMatrix(graph.compounds, tuple("t%d" % j for j in range(8)),
                              sp.csr_matrix(np.random.default_rng(6).random(
                                  (graph.n_compounds, 8))))
        config = TrainConfig(rank=3, lam=0.1, max_iters=3, rel_tol=1e-12)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            train_csnmf(X, graph, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - before < 0.5 * graph.stored_bytes
