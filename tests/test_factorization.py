import os
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from helpers import (
    compound_order_csr,
    graph_of,
    matrix_of,
    objective,
    oracle_interaction_matrix,
    sequential_train,
)

from repurpose import (
    Corpus,
    FactorizationError,
    FactorModel,
    FormatError,
    InteractionMatrix,
    NoInteractionsError,
    SimilarityMatrix,
    TrainConfig,
    UnknownCompoundError,
    build_interaction_matrix,
    build_similarity_matrix,
    load_model,
    save_model,
    train_csnmf,
    train_nmf,
    similarity,
    transform_activity,
)


def random_sparse(rng, n, m, density=0.3, scale=8.0):
    mask = rng.random((n, m)) < density
    return sp.csr_matrix(rng.random((n, m)) * scale * mask)


def random_symmetric(rng, n, density=0.1):
    upper = np.triu(rng.random((n, n)) * (rng.random((n, n)) < density), k=1)
    return upper + upper.T


class TestTransformActivity:

    def test_fixed_endpoints_exact(self):
        assert transform_activity(0) == 10.0
        assert transform_activity(10_000) == 5.0
        assert transform_activity(20_000) == 1.0

    def test_linear_interior(self):
        assert transform_activity(6_000) == pytest.approx(7.0, rel=1e-12)

    def test_weak_constant_above_cutoff(self):
        assert transform_activity(10_000.01) == 1.0
        assert transform_activity(1e9) == 1.0

    def test_monotone_non_increasing_on_linear_range(self):
        values = np.linspace(0, 10_000, 500)
        mapped = [transform_activity(v) for v in values]
        assert all(a >= b for a, b in zip(mapped, mapped[1:]))

    @pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf")])
    def test_bad_input_rejected(self, bad):
        with pytest.raises(ValueError):
            transform_activity(bad)


class TestBuildInteractionMatrix:

    def test_hand_built_matrix(self, make_corpus):
        corpus = make_corpus(
            ["c1", "c2", "c3"], [],
            [("c1", "t1", "IC50", 100.0), ("c1", "t1", "IC50", 250.0),
             ("c1", "t2", "IC50", 6000.0), ("c2", "t1", "IC50", 10_000.0),
             ("c3", "t2", "IC50", 20_000.0)],
        )
        interactions = build_interaction_matrix(corpus, "IC50")
        assert interactions.compounds == ("c1", "c2", "c3")
        assert interactions.targets == ("t1", "t2")
        dense = interactions.matrix.toarray()
        expected = np.array([[9.95, 7.0], [5.0, 0.0], [0.0, 1.0]])
        np.testing.assert_allclose(dense, expected, rtol=1e-12)

    def test_endpoint_value(self, make_corpus):
        corpus = make_corpus(["c"], [], [("c", "t", "IC50", 10_000.0)])
        interactions = build_interaction_matrix(corpus, "IC50")
        assert interactions.matrix.toarray()[0, 0] == 5.0

    def test_type_filter_excludes_rows(self, make_corpus):
        corpus = make_corpus(
            ["c1", "c2"], [],
            [("c1", "t1", "IC50", 10.0), ("c2", "t1", "EC50", 10.0)])
        interactions = build_interaction_matrix(corpus, "IC50")
        assert interactions.compounds == ("c1",)

    def test_no_filter_merges_types_by_minimum(self, make_corpus):
        corpus = make_corpus(
            ["c1"], [],
            [("c1", "t1", "IC50", 8000.0), ("c1", "t1", "EC50", 2000.0)])
        interactions = build_interaction_matrix(corpus, None)
        assert interactions.matrix.toarray()[0, 0] == transform_activity(2000.0)

    def test_empty_result_raises(self, make_corpus):
        corpus = make_corpus(["c1"], [], [("c1", "t1", "EC50", 5.0)])
        with pytest.raises(NoInteractionsError):
            build_interaction_matrix(corpus, "IC50")

    def test_values_in_legal_range(self, make_corpus):
        rng = np.random.default_rng(2)
        rows = [(f"c{i}", f"t{i % 3}", "IC50", float(rng.uniform(1, 40_000)))
                for i in range(30)]
        corpus = make_corpus([f"c{i}" for i in range(30)], [], rows)
        data = build_interaction_matrix(corpus, "IC50").matrix.data
        assert np.all((data == 1.0) | ((data >= 5.0) & (data <= 10.0)))

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_dict_oracle_on_random_corpora(self, seed):
        rng = np.random.default_rng(seed)
        types = ["EC50", "IC50", "Ki"][:int(rng.integers(2, 4))]
        ids = [f"c{i:02d}" for i in range(40)]
        rows = [(str(rng.choice(ids[:30])), f"t{int(rng.integers(0, 10))}",
                 str(rng.choice(types)), float(10 ** rng.uniform(0, 5)))
                for _ in range(150)]
        rows += rows[:20]  # exact duplicates
        rows += [(c, t, a, v * rng.uniform(0.5, 2.0)) for c, t, a, v in rows[:30]]
        # c30..c34 and t10, t11 only have records of the last type; c35..c39
        # have none
        rows += [(f"c{30 + i % 5}", f"t{10 + i % 2}", types[-1],
                  float(10 ** rng.uniform(0, 5))) for i in range(12)]
        corpus = Corpus.build(ids, (), rows)
        for selection in (types[0], [*types[:-1], "absent"], [types[-1]], None):
            got = build_interaction_matrix(corpus, selection)
            compounds, targets, matrix = oracle_interaction_matrix(rows, selection)
            assert (got.compounds, got.targets) == (compounds, targets)
            for part in ("indptr", "indices", "data"):
                want = getattr(matrix, part)
                assert getattr(got.matrix, part).dtype == want.dtype
                assert getattr(got.matrix, part).tobytes() == want.tobytes()

    def test_value_lookup_and_errors(self, make_corpus):
        corpus = make_corpus(["c1"], [], [("c1", "t1", "IC50", 20_000.0)])
        interactions = build_interaction_matrix(corpus, "IC50")
        assert interactions.matrix.toarray().tolist() == [[1.0]]


def interaction_case(case):
    """(compounds, targets, matrix) of a 2 x 3 interaction matrix, legal
    except for what `case` names."""
    compounds, targets = ("a", "b"), ("x", "y", "z")
    data, indices = [1.0, 2.0, 3.0], [0, 2, 1]
    if case in ("negative", "nan", "inf"):
        data[1] = {"negative": -1.0, "nan": np.nan, "inf": np.inf}[case]
    compounds = {"too-few-compounds": ("a",),
                 "too-many-compounds": ("a", "b", "c"),
                 "repeated-compound": ("a", "a")}.get(case, compounds)
    targets = {"too-few-targets": ("x", "y"),
               "too-many-targets": ("x", "y", "z", "w"),
               "repeated-target": ("x", "y", "x")}.get(case, targets)
    if case in ("unsorted-indices", "duplicate-entry"):
        indices[:2] = [2, 0] if case == "unsorted-indices" else [0, 0]
    matrix = sp.csr_matrix((np.array(data), np.array(indices),
                            np.array([0, 2, 3])), shape=(2, 3))
    return compounds, targets, matrix.tocoo() if case == "coo" else matrix


class TestInteractionMatrix:

    def test_legal_matrix_accepted(self):
        compounds, targets, matrix = interaction_case("legal")
        X = InteractionMatrix(compounds, targets, matrix)
        assert X.shape == (2, 3) and X.n_entries == 3

    @pytest.mark.parametrize("case", [
        "negative", "nan", "inf", "too-few-compounds", "too-many-compounds",
        "too-few-targets", "too-many-targets", "repeated-compound",
        "repeated-target", "coo", "unsorted-indices", "duplicate-entry"])
    def test_constructor_rejects(self, case):
        with pytest.raises(ValueError):
            InteractionMatrix(*interaction_case(case))


class TestObjective:

    def test_perfect_reconstruction_zero(self):
        rng = np.random.default_rng(0)
        U = rng.random((6, 2))
        V = rng.random((4, 2))
        X = U @ V.T
        assert objective(X, U, V) == pytest.approx(0.0, abs=1e-9)

    def test_identical_rows_zero_penalty(self):
        U = np.ones((3, 2)) * 0.7
        V = np.ones((5, 2))
        X = np.zeros((3, 5))
        S = random_symmetric(np.random.default_rng(1), 3, density=1.0)
        assert objective(X, U, V, S, lam=2.5) == objective(X, U, V)

    def test_hand_two_by_two(self):
        X = np.array([[1.0, 0.0], [0.0, 1.0]])
        U = np.eye(2)
        V = np.array([[0.5, 0.0], [0.0, 2.0]])
        # X - UV^T = [[0.5, 0], [0, -1]] so the fit term is 0.625
        assert objective(X, U, V) == pytest.approx(0.625, rel=1e-12)
        S = np.array([[0.0, 1.0], [1.0, 0.0]])
        # ||u_0 - u_1||^2 = 2, one stored pair, lam/2 * 2 = 2
        assert objective(X, U, V, S, lam=2.0) == pytest.approx(2.625, rel=1e-12)

    def test_sparse_and_dense_agree(self):
        rng = np.random.default_rng(5)
        X = random_sparse(rng, 20, 9)
        U, V = rng.random((20, 3)), rng.random((9, 3))
        assert objective(X, U, V) == pytest.approx(
            objective(X.toarray(), U, V), rel=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            objective(np.zeros((3, 4)), np.zeros((3, 2)), np.zeros((5, 2)))


class TestTrainNmf:

    def test_planted_rank_one_recovered(self):
        rng = np.random.default_rng(9)
        u = rng.uniform(0.5, 2.0, size=12)
        v = rng.uniform(0.5, 2.0, size=7)
        X = np.outer(u, v)
        config = TrainConfig(rank=1, lam=0.0, max_iters=500, rel_tol=1e-15,
                             seed=3)
        model = train_nmf(matrix_of(X), config)
        x_sq = float((X ** 2).sum())
        assert model.objective_trace[-1] < 1e-6 * x_sq
        # reconstruction matches planted entries closely
        recon = model.U @ model.V.T
        np.testing.assert_allclose(recon, X, atol=1e-3)

    def test_all_zero_matrix(self):
        config = TrainConfig(rank=2, max_iters=20, seed=0)
        model = train_nmf(matrix_of(np.zeros((5, 4))), config)
        assert np.all(model.U >= 0) and np.all(model.V >= 0)
        assert np.all(model.objective_trace == 0.0)
        assert model.converged

    def test_monotone_trace_random_instances(self):
        rng = np.random.default_rng(21)
        for seed in range(3):
            X = matrix_of(random_sparse(rng, 50, 20))
            config = TrainConfig(rank=5, max_iters=60, rel_tol=1e-12, seed=seed)
            trace = train_nmf(X, config).objective_trace
            assert np.all(np.diff(trace) <= trace[:-1] * 1e-9)

    def test_factors_nonnegative_every_iteration(self):
        rng = np.random.default_rng(31)
        X = matrix_of(random_sparse(rng, 30, 12))
        seen = []

        def watch(iteration, U, V, value):
            seen.append(iteration)
            assert np.all(U >= 0) and np.all(V >= 0)
            assert np.isfinite(value)

        config = TrainConfig(rank=4, max_iters=40, rel_tol=1e-12, seed=1)
        train_nmf(X, config, on_iteration=watch)
        assert seen == list(range(1, len(seen) + 1))

    def test_same_seed_bit_identical(self):
        rng = np.random.default_rng(12)
        X = matrix_of(random_sparse(rng, 25, 10))
        config = TrainConfig(rank=3, max_iters=30, seed=77)
        first = train_nmf(X, config)
        second = train_nmf(X, config)
        assert np.array_equal(first.U, second.U)
        assert np.array_equal(first.V, second.V)
        assert np.array_equal(first.objective_trace, second.objective_trace)

    def test_different_seed_differs(self):
        rng = np.random.default_rng(13)
        X = matrix_of(random_sparse(rng, 25, 10))
        first = train_nmf(X, TrainConfig(rank=3, max_iters=10, seed=1))
        second = train_nmf(X, TrainConfig(rank=3, max_iters=10, seed=2))
        assert not np.array_equal(first.U, second.U)

    def test_rank_too_large_rejected(self):
        with pytest.raises(FactorizationError, match="rank"):
            train_nmf(matrix_of(np.ones((4, 3))), TrainConfig(rank=5))

    @pytest.mark.parametrize("kind", ["ndarray", "scipy"])
    @pytest.mark.parametrize("train", ["nmf", "csnmf"])
    def test_raw_matrix_rejected_before_seeding(self, kind, train,
                                                monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("the generator was seeded")

        X = np.ones((4, 3))
        if kind == "scipy":
            X = sp.csr_matrix(X)
        S = graph_of(np.zeros((4, 4)))
        monkeypatch.setattr(np.random, "default_rng", never)
        with pytest.raises(FactorizationError,
                           match=r"InteractionMatrix\(compounds, targets, csr\)"):
            if train == "nmf":
                train_nmf(X, TrainConfig(rank=1))
            else:
                train_csnmf(X, S, TrainConfig(rank=1))

    def test_converged_flag_set_on_tolerance_stop(self):
        rng = np.random.default_rng(14)
        X = matrix_of(random_sparse(rng, 20, 8))
        loose = train_nmf(X, TrainConfig(rank=2, max_iters=500, rel_tol=1e-3,
                                         seed=5))
        assert loose.converged
        assert len(loose.objective_trace) - 1 < 500


class TestTrainCsnmf:

    def test_lambda_zero_reduces_to_nmf_exactly(self):
        rng = np.random.default_rng(40)
        X = matrix_of(random_sparse(rng, 30, 12))
        S = random_symmetric(rng, 30)
        config = TrainConfig(rank=4, lam=0.0, max_iters=40, rel_tol=1e-12,
                             seed=9)
        plain = train_nmf(X, config)
        regularized = train_csnmf(X, graph_of(S), config)
        assert np.array_equal(plain.U, regularized.U)
        assert np.array_equal(plain.V, regularized.V)
        assert np.array_equal(plain.objective_trace,
                              regularized.objective_trace)

    def test_monotone_trace_with_regularization(self):
        rng = np.random.default_rng(41)
        for seed in range(3):
            X = matrix_of(random_sparse(rng, 40, 15))
            S = random_symmetric(rng, 40, density=0.2)
            config = TrainConfig(rank=5, lam=0.4, max_iters=60, rel_tol=1e-12,
                                 seed=seed)
            trace = train_csnmf(X, graph_of(S), config).objective_trace
            assert np.all(np.diff(trace) <= trace[:-1] * 1e-9)

    def test_similar_pair_pulled_together(self):
        # two compounds with identical interaction rows and S_ij = 1 end up
        # with closer latent rows than the unregularized run produces
        rng = np.random.default_rng(42)
        X = random_sparse(rng, 20, 10, density=0.5).toarray()
        X[1] = X[0]
        n = X.shape[0]
        S = np.zeros((n, n))
        S[0, 1] = S[1, 0] = 1.0
        base = TrainConfig(rank=4, lam=0.0, max_iters=150, rel_tol=1e-12, seed=2)
        strong = TrainConfig(rank=4, lam=1.0, max_iters=150, rel_tol=1e-12, seed=2)
        plain = train_nmf(matrix_of(X), base)
        regularized = train_csnmf(matrix_of(X), graph_of(S), strong)
        gap_plain = np.linalg.norm(plain.U[0] - plain.U[1])
        gap_reg = np.linalg.norm(regularized.U[0] - regularized.U[1])
        assert gap_reg < gap_plain

    def test_penalty_not_larger_than_unregularized(self):
        rng = np.random.default_rng(43)
        X = matrix_of(random_sparse(rng, 25, 10))
        S = random_symmetric(rng, 25, density=0.3)
        config = TrainConfig(rank=3, lam=0.8, max_iters=120, rel_tol=1e-12,
                             seed=6)
        plain = train_nmf(X, config)
        regularized = train_csnmf(X, graph_of(S), config)

        def penalty(U):
            rows, cols = np.triu_indices_from(S, k=1)
            diff = U[rows] - U[cols]
            return float(np.sum(S[rows, cols] * np.sum(diff * diff, axis=1)))

        assert penalty(regularized.U) <= penalty(plain.U) + 1e-12

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(44)
        X = random_sparse(rng, 12, 6).toarray()
        S = random_symmetric(rng, 12, density=0.4)
        U = rng.uniform(0.2, 1.5, size=(12, 3))
        V = rng.uniform(0.2, 1.5, size=(6, 3))
        lam = 0.7
        degrees = np.diag(S.sum(axis=1))
        analytic = (U @ V.T - X) @ V + lam * (degrees - S) @ U
        h = 1e-5
        for _ in range(5):
            i = int(rng.integers(12))
            j = int(rng.integers(3))
            up, um = U.copy(), U.copy()
            up[i, j] += h
            um[i, j] -= h
            numeric = (objective(X, up, V, S, lam)
                       - objective(X, um, V, S, lam)) / (2 * h)
            denom = max(abs(numeric), abs(analytic[i, j]), 1e-12)
            assert abs(numeric - analytic[i, j]) / denom < 1e-4

    @pytest.mark.parametrize("variant", ["nmf", "similarity-matrix"])
    def test_trace_matches_reference_objective(self, variant):
        rng = np.random.default_rng(45)
        X = matrix_of(random_sparse(rng, 30, 12))
        dense = random_symmetric(rng, 30, density=0.3)
        rows, cols = np.nonzero(np.triu(dense, k=1))
        S = {"nmf": None,
             "similarity-matrix": SimilarityMatrix(
                 [str(i) for i in range(30)], rows, cols, dense[rows, cols]),
             }[variant]
        config = TrainConfig(rank=4, lam=0.3, max_iters=40, rel_tol=1e-12,
                             seed=3)
        lam = 0.0 if S is None else config.lam
        pairs = []

        def record(iteration, U, V, value):
            pairs.append((value, objective(X, U, V, S, lam)))

        model = (train_nmf(X, config, record) if S is None
                 else train_csnmf(X, S, config, record))
        assert len(pairs) == len(model.objective_trace) - 1 > 0
        for traced, reference in pairs:
            assert abs(traced - reference) <= 1e-12 * abs(reference)

    def test_missing_similarity_rejected(self):
        with pytest.raises(FactorizationError):
            train_csnmf(matrix_of(np.ones((3, 3))), None, TrainConfig(rank=1))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(FactorizationError, match="index"):
            train_csnmf(matrix_of(np.ones((4, 3))),
                        graph_of(np.zeros((3, 3))), TrainConfig(rank=1, lam=0.1))

    @pytest.mark.parametrize("kind", ["ndarray", "scipy"])
    @pytest.mark.parametrize("lam", [0.0, 0.1])
    def test_raw_similarity_rejected_before_training(self, kind, lam):
        S = np.zeros((4, 4))
        S[0, 1] = S[1, 0] = 0.5
        if kind == "scipy":
            S = sp.csr_matrix(S)

        def never(*args):
            raise AssertionError("an iteration ran")

        with pytest.raises(FactorizationError, match="SimilarityMatrix"):
            train_csnmf(matrix_of(np.ones((4, 3))), S,
                        TrainConfig(rank=1, lam=lam), on_iteration=never)

    def test_similarity_matrix_index_mismatch_rejected(self, make_corpus):
        corpus = make_corpus(
            ["c1", "c2"], [("c1", "CF", "x"), ("c2", "CF", "x")],
            [("c1", "t1", "IC50", 10.0), ("c2", "t1", "IC50", 20.0)])
        interactions = build_interaction_matrix(corpus, "IC50")
        similarity = build_similarity_matrix(corpus, "CF",
                                             compound_index=("c2", "c1"))
        with pytest.raises(FactorizationError, match="index"):
            train_csnmf(interactions, similarity, TrainConfig(rank=1, lam=0.1))

    def test_end_to_end_with_interaction_and_similarity(self, make_corpus):
        corpus = make_corpus(
            ["c1", "c2", "c3"],
            [("c1", "CF", "x"), ("c2", "CF", "x"), ("c3", "CF", "y")],
            [("c1", "t1", "IC50", 10.0), ("c2", "t1", "IC50", 20.0),
             ("c2", "t2", "IC50", 500.0), ("c3", "t2", "IC50", 30.0)])
        interactions = build_interaction_matrix(corpus, "IC50")
        similarity = build_similarity_matrix(corpus, "CF",
                                             interactions.compounds)
        config = TrainConfig(rank=2, lam=0.2, max_iters=50, seed=0)
        model = train_csnmf(interactions, similarity, config)
        assert model.compounds == interactions.compounds
        assert model.regularized


    @pytest.mark.parametrize("block_entries", [1, None])
    def test_row_ordered_graph_trains_as_compound_ordered(
            self, make_corpus, monkeypatch, block_entries):
        """The built graph is stored out of compound order, and its S U and
        degrees are summed in that order; training on it must match
        training on its compound-order CSR up to rounding."""
        if block_entries is not None:
            monkeypatch.setattr(similarity, "_BLOCK_ENTRIES", block_entries)
        rng = np.random.default_rng(46)
        ids = [f"c{i:02d}" for i in range(60)]
        label_rows = [(cid, "CF", f"l{v:02d}") for cid in ids
                      for v in rng.choice(25, size=int(rng.integers(0, 6)),
                                          replace=False)]
        activity_rows = [(cid, f"t{t}", "IC50", float(rng.uniform(1, 20_000)))
                         for cid in ids
                         for t in rng.choice(10, size=3, replace=False)]
        corpus = make_corpus(ids, label_rows, activity_rows)
        X = build_interaction_matrix(corpus, "IC50")
        S = build_similarity_matrix(corpus, "CF", X.compounds)
        assert not np.array_equal(S._order, np.arange(len(S._order)))
        config = TrainConfig(rank=3, lam=0.4, max_iters=15, rel_tol=1e-12,
                             seed=2)
        ordered = train_csnmf(X, S, config)
        plain = train_csnmf(matrix_of(X.matrix), graph_of(compound_order_csr(S)),
                            config)
        assert len(ordered.objective_trace) == len(plain.objective_trace)
        for name in ("U", "V", "objective_trace"):
            np.testing.assert_allclose(getattr(ordered, name),
                                       getattr(plain, name), rtol=1e-9)
        assert objective(X, ordered.U, ordered.V, S, config.lam) == \
            objective(X.matrix, ordered.U, ordered.V, compound_order_csr(S),
                      config.lam)


@pytest.fixture(params=["all-cpus", "one-cpu"])
def cpus(request):
    """Run the test on the CPUs this process may use, or pinned to one of
    them, where the trainer's worker thread, started inside the call,
    inherits the pin and takes turns with its caller."""
    mask = os.sched_getaffinity(0)
    if request.param == "one-cpu":
        os.sched_setaffinity(0, {min(mask)})
    yield
    os.sched_setaffinity(0, mask)


@pytest.mark.usefixtures("cpus")
class TestOverlappedProduct:
    """The trainer forms S U in two halves, one on a worker thread while
    the V-update runs; the iterates must equal the sequential reference
    float for float, and the worker must not outlive the call, on any
    number of CPUs."""

    @pytest.mark.parametrize("block_entries", [1, None])
    @pytest.mark.parametrize("threshold", [0.0, 0.5])
    def test_matches_sequential_reference(self, make_corpus, monkeypatch,
                                          block_entries, threshold):
        if block_entries is not None:
            monkeypatch.setattr(similarity, "_BLOCK_ENTRIES", block_entries)
        rng = np.random.default_rng(61)
        stops = set()
        for trial in range(3):
            n = int(rng.integers(20, 90))
            ids = [f"c{i:02d}" for i in range(n)]
            label_rows = [(cid, "CF", f"l{v:02d}") for cid in ids
                          for v in rng.choice(20, size=int(rng.integers(0, 7)),
                                              replace=False)]
            activity_rows = [(cid, f"t{t}", "IC50",
                              float(rng.uniform(1, 20_000)))
                             for cid in ids
                             for t in rng.choice(12, size=4, replace=False)]
            corpus = make_corpus(ids, label_rows, activity_rows)
            X = build_interaction_matrix(corpus, "IC50")
            S = build_similarity_matrix(corpus, "CF", X.compounds, threshold)
            assert S.n_pairs
            for lam, rel_tol in ((0.4, 1e-3), (0.05, 1e-5), (0.0, 1e-4)):
                config = TrainConfig(rank=3, lam=lam, max_iters=400,
                                     rel_tol=rel_tol, seed=trial)
                want = sequential_train(X, S, config, lam)
                models = [train_csnmf(X, S, config)]
                if lam == 0.0:
                    models.append(train_nmf(X, config))
                for model in models:
                    got = (model.U, model.V, model.objective_trace)
                    for got_array, want_array in zip(got, want, strict=True):
                        assert got_array.tobytes() == want_array.tobytes()
                    stops.add(len(model.objective_trace) - 1)
        assert len(stops) > 3 and max(stops) < 400

    @pytest.mark.parametrize("lam, fail_at", [(0.2, None), (0.2, 3),
                                              (0.0, None)])
    def test_worker_lives_only_inside_the_call(self, lam, fail_at):
        """A worker runs while a regularized trainer does, and none is left
        after it returns or raises."""
        rng = np.random.default_rng(47)
        X = matrix_of(random_sparse(rng, 40, 10))
        S = graph_of(random_symmetric(rng, 40, density=0.2))
        config = TrainConfig(rank=3, lam=lam, max_iters=6, rel_tol=1e-12)
        before = threading.active_count()
        during = []

        def watch(iteration, U, V, value):
            during.append(threading.active_count())
            if iteration == fail_at:
                raise KeyboardInterrupt

        if fail_at is None:
            train_csnmf(X, S, config, on_iteration=watch)
        else:
            with pytest.raises(KeyboardInterrupt):
                train_csnmf(X, S, config, on_iteration=watch)
        assert during == [before + (lam > 0)] * (fail_at or 6)
        assert threading.active_count() == before

    @pytest.mark.parametrize("iterations", [1, 5])
    def test_every_product_starts_on_the_worker(self, monkeypatch,
                                                iterations):
        """The initial S U and one per iteration are each begun by
        `_start_product`, the only way S U is formed."""
        rng = np.random.default_rng(48)
        X = matrix_of(random_sparse(rng, 30, 8))
        S = graph_of(random_symmetric(rng, 30, density=0.2))
        starts = []
        start = SimilarityMatrix._start_product

        def counted(graph, U, submit):
            starts.append(U.shape)
            return start(graph, U, submit)

        monkeypatch.setattr(SimilarityMatrix, "_start_product", counted)
        config = TrainConfig(rank=3, lam=0.2, max_iters=iterations,
                             rel_tol=1e-300)
        model = train_csnmf(X, S, config)
        assert len(model.objective_trace) == iterations + 1
        assert starts == [(30, 3)] * (iterations + 1)

    def test_peak_memory_is_the_sequential_count(self):
        """numpy and scipy allocate through tracemalloc, from any thread.
        The trainer's peak holds six n x r arrays, as the sequential
        trainer's does: U, X V, S U, the gathered U, and the two halves of
        the next S U.  The rest does not grow with n x r: a few n-vectors
        (the degrees, the order as intp), the target side's m x r arrays
        and the r x r grams."""
        rng = np.random.default_rng(5)
        n, m, r = 4000, 12, 10
        ids = [f"m{i:04d}" for i in range(n)]
        rows = [(cid, "CF", f"k{i % 40}-{v:02d}") for i, cid in enumerate(ids)
                for v in rng.choice(16, size=4, replace=False)]
        graph = build_similarity_matrix(Corpus.build(ids, rows), "CF",
                                        threshold=0.3)
        X = InteractionMatrix(graph.compounds, tuple(f"t{j}" for j in range(m)),
                              random_sparse(rng, n, m, density=0.5))
        config = TrainConfig(rank=r, lam=0.1, max_iters=4, rel_tol=1e-12)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            train_csnmf(X, graph, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block = 8 * n * r
        assert peak - before <= 6 * block + 4 * 8 * n + 8 * 8 * m * r + 65_536


class TestPredict:

    def test_planted_model_prediction(self):
        rng = np.random.default_rng(50)
        u = rng.uniform(0.5, 2.0, size=10)
        v = rng.uniform(0.5, 2.0, size=6)
        X = np.outer(u, v)
        model = train_nmf(matrix_of(X), TrainConfig(rank=1, max_iters=500,
                                                    rel_tol=1e-15, seed=4))
        for i in (0, 3, 9):
            for j in (0, 5):
                assert model.score_targets(i)[j] == pytest.approx(X[i, j],
                                                                  abs=1e-3)

    def test_zero_row_predicts_zero(self):
        rng = np.random.default_rng(51)
        X = random_sparse(rng, 8, 5).toarray()
        X[2] = 0.0
        model = train_nmf(matrix_of(X), TrainConfig(rank=2, max_iters=100,
                                                    seed=1))
        for j in range(5):
            assert model.score_targets(2)[j] == 0.0

    def test_hand_dot_product(self):
        from repurpose import FactorModel
        model = FactorModel(
            U=np.array([[1.0, 2.0], [0.5, 0.0]]),
            V=np.array([[3.0, 1.0], [0.0, 4.0]]),
            compounds=("a", "b"), targets=("t", "u"),
            config=TrainConfig(rank=2), objective_trace=np.zeros(1),
            converged=True)
        assert model.score_targets(0)[0] == 5.0
        assert model.score_targets(0)[1] == 8.0
        assert model.score_targets(1)[0] == 1.5

    def test_out_of_range_rejected(self):
        model = train_nmf(matrix_of(np.ones((3, 3))),
                          TrainConfig(rank=1, max_iters=5))
        with pytest.raises(IndexError):
            model.score_targets(3)
        with pytest.raises(IndexError):
            model.score_targets(-1)


class TestModelIO:

    def test_round_trip_lossless(self, tmp_path):
        rng = np.random.default_rng(60)
        X = matrix_of(random_sparse(rng, 15, 7))
        config = TrainConfig(rank=3, lam=0.25, max_iters=40, rel_tol=1e-7,
                             seed=123)
        S = random_symmetric(rng, 15, density=0.2)
        model = train_csnmf(X, graph_of(S), config)
        path = tmp_path / "model.tsv"
        save_model(model, path)
        loaded = load_model(path)
        assert np.array_equal(loaded.U, model.U)
        assert np.array_equal(loaded.V, model.V)
        assert np.array_equal(loaded.objective_trace, model.objective_trace)
        assert loaded.config == model.config
        assert loaded.compounds == model.compounds
        assert loaded.targets == model.targets
        assert loaded.converged == model.converged
        assert loaded.regularized == model.regularized

    def test_garbage_file_rejected(self, tmp_path):
        path = tmp_path / "junk.tsv"
        path.write_text("not a model\n")
        with pytest.raises(FormatError):
            load_model(path)

    def test_ids_that_look_like_markup_round_trip(self, tmp_path):
        model = FactorModel(
            U=np.array([[1.0, 0.0], [0.5, 2.0], [0.0, 3.0]]),
            V=np.array([[1.0, 2.0], [0.25, 0.0]]),
            compounds=("[U]", "#c", "[compounds]"), targets=("#t", "[trace]"),
            config=TrainConfig(rank=2), objective_trace=np.array([3.0, 1.5]),
            converged=False, regularized=True)
        path = tmp_path / "model.tsv"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.compounds == model.compounds
        assert loaded.targets == model.targets
        assert np.array_equal(loaded.U, model.U)
        assert np.array_equal(loaded.V, model.V)
        assert np.array_equal(loaded.objective_trace, model.objective_trace)
        assert (loaded.converged, loaded.regularized) == (False, True)

    @pytest.fixture
    def saved_lines(self, tmp_path):
        """The lines of a saved rank-2 model with 2 compounds, 2 targets and
        a 2-value trace: line 1 is the format line, 2-12 the config, 13-14
        the compounds, 15-16 the targets and 17-18 the trace."""
        model = FactorModel(
            U=np.array([[1.0, 0.5], [0.0, 2.0]]),
            V=np.array([[1.0, 2.0], [0.25, 0.0]]),
            compounds=("c1", "c2"), targets=("t1", "t2"),
            config=TrainConfig(rank=2), objective_trace=np.array([3.0, 1.5]),
            converged=True)
        save_model(model, tmp_path / "model.tsv")
        return (tmp_path / "model.tsv").read_text().splitlines()

    @pytest.mark.parametrize("lineno, replacement, message", [
        (1, "#repurpose-factor-model\tv1", "not a factor-model file"),
        (3, "seed\t0", "key<TAB>value row for each"),
        (2, "rank\tx", "bad config value"),
        (2, "rank2", "key<TAB>value row for each"),
        (12, "trace\t3", "expected 3 rows"),
        (13, "c1\t1.0", "expected 3 tab-separated fields"),
        (13, "c1\t1.0\t0.5\t7", "expected 3 tab-separated fields"),
        (14, "c2\t-1.0\t2.0", "finite numbers >= 0"),
        (15, "t1\tnan\t2.0", "finite numbers >= 0"),
        (16, "t2\tinf\t0", "finite numbers >= 0"),
        (16, "t2\tx\t0", "finite numbers >= 0"),
        (14, "c1\t0.0\t2.0", "repeated id"),
        (16, "\t0.25\t0", "empty or repeated id"),
        (18, "nan", "finite numbers$"),
        (18, "1..5", "finite numbers$"),
        (18, "1.5\n1.0", "extra rows"),
        (18, "1.5\n", "extra rows"),
    ], ids=["v1", "key-order", "bad-rank", "no-tab", "count-past-end", "short-row",
            "long-row", "negative-factor", "nan-factor", "inf-factor",
            "bad-number", "repeated-id", "empty-id", "nan-trace", "bad-trace",
            "extra-row", "extra-blank-line"])
    def test_malformed_file_rejected(self, tmp_path, saved_lines, lineno,
                                     replacement, message):
        saved_lines[lineno - 1] = replacement
        path = tmp_path / "bad.tsv"
        path.write_text("\n".join(saved_lines) + "\n")
        with pytest.raises(FormatError, match=message):
            load_model(path)

    def test_row_errors_name_their_line(self, tmp_path, saved_lines):
        saved_lines[14] = "t1\t-0.5\t2.0"
        path = tmp_path / "bad.tsv"
        path.write_text("\n".join(saved_lines) + "\n")
        with pytest.raises(FormatError, match="bad.tsv:15:"):
            load_model(path)

    def test_truncated_file_rejected(self, tmp_path, saved_lines):
        path = tmp_path / "short.tsv"
        path.write_text("\n".join(saved_lines[:-1]) + "\n")
        with pytest.raises(FormatError, match="expected 2 rows"):
            load_model(path)

    def test_id_lookup_helpers(self, make_corpus, tmp_path):
        corpus = make_corpus(
            ["c1", "c2"], [],
            [("c1", "t1", "IC50", 10.0), ("c2", "t2", "IC50", 10.0)])
        interactions = build_interaction_matrix(corpus, "IC50")
        model = train_nmf(interactions, TrainConfig(rank=1, max_iters=10))
        assert model.row_of("c2") == 1
        assert model.target_pos == {"t1": 0, "t2": 1}
        with pytest.raises(UnknownCompoundError):
            model.row_of("ghost")


class TestTrainConfigValidation:

    @pytest.mark.parametrize("kwargs", [
        {"rank": 0}, {"lam": -0.1}, {"max_iters": 0}, {"rel_tol": 0.0},
        {"epsilon_guard": 0.0}, {"lam": float("nan")}, {"lam": float("inf")},
        {"rel_tol": float("inf")}, {"epsilon_guard": float("inf")}, {"seed": -1},
    ])
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)

    def test_defaults(self):
        config = TrainConfig()
        assert (config.rank, config.lam) == (50, 0.1)
        assert (config.max_iters, config.rel_tol) == (200, 1e-5)
        assert config.epsilon_guard == 1e-12
