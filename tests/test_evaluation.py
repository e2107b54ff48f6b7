import numpy as np
import pytest
import scipy.sparse as sp

from helpers import graph_of, triple_folds, triple_training_matrix

from repurpose import (
    EvalError,
    FactorizationError,
    FactorModel,
    TrainConfig,
    cross_validate,
    format_eval_table,
    recall_at_k,
    rmse,
    split_folds,
    train_nmf,
    training_matrix,
    write_eval_report_tsv,
    write_rank_recall_tsv,
)
import repurpose.evaluation as evaluation
from repurpose.evaluation import _masked_entries
from repurpose.factorization import build_interaction_matrix


def make_model(U, V, compounds=None, targets=None):
    U = np.asarray(U, dtype=np.float64)
    V = np.asarray(V, dtype=np.float64)
    return FactorModel(
        U=U, V=V,
        compounds=compounds or tuple(f"c{i}" for i in range(U.shape[0])),
        targets=targets or tuple(f"t{j}" for j in range(V.shape[0])),
        config=TrainConfig(rank=U.shape[1]),
        objective_trace=np.zeros(1), converged=True)


def planted_matrix(rng, n=60, m=12, clusters=3, density=0.6):
    """Block-structured nonnegative matrix with enough entries per row."""
    X = np.zeros((n, m))
    for i in range(n):
        g = i % clusters
        cols = [j for j in range(m) if j % clusters == g]
        for j in cols:
            if rng.random() < density:
                X[i, j] = rng.uniform(5.0, 10.0)
        # guarantee eligibility: at least 6 entries per row
        while np.count_nonzero(X[i]) < 6:
            j = int(rng.integers(m))
            X[i, j] = rng.uniform(5.0, 10.0)
    return sp.csr_matrix(X)


def entries(matrix):
    """(row, col, value) of every stored entry of a CSR, in stored order."""
    rows = np.repeat(np.arange(matrix.shape[0]), np.diff(matrix.indptr))
    return list(zip(rows.tolist(), matrix.indices.tolist(),
                    matrix.data.tolist()))


def held_out(triples, shape):
    """A held-out CSR holding the given (row, col, value) triples."""
    rows, cols, values = zip(*triples) if triples else ((), (), ())
    return sp.csr_matrix((np.asarray(values, dtype=np.float64),
                          (np.asarray(rows, dtype=np.int64),
                           np.asarray(cols, dtype=np.int64))), shape=shape)


def fold_matrix(X, split, f):
    """Fold f's held-out entries of X, cut as cross_validate cuts them."""
    return _masked_entries(X, split.fold == f)


def assert_same_csr(actual, expected):
    assert actual.shape == expected.shape
    for name in ("indptr", "indices", "data"):
        got, want = getattr(actual, name), getattr(expected, name)
        assert got.dtype == want.dtype, name
        assert got.tobytes() == want.tobytes(), name


class TestSplitFolds:

    def test_even_split(self):
        X = sp.csr_matrix(np.diag(np.arange(1.0, 11.0)))
        split = split_folds(X, n_folds=5, seed=0)
        assert np.bincount(split.fold).tolist() == [2, 2, 2, 2, 2]

    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(1)
        X = sp.csr_matrix(rng.random((10, 10)) * (rng.random((10, 10)) < 0.4))
        first = split_folds(X, n_folds=4, seed=9)
        second = split_folds(X, n_folds=4, seed=9)
        assert np.array_equal(first.fold, second.fold)
        other = split_folds(X, n_folds=4, seed=10)
        assert not np.array_equal(first.fold, other.fold)

    def test_partition_property(self):
        rng = np.random.default_rng(2)
        dense = rng.random((15, 8)) * (rng.random((15, 8)) < 0.5)
        X = sp.csr_matrix(dense)
        for seed in range(4):
            split = split_folds(X, n_folds=5, seed=seed)
            assert split.fold.shape == (X.nnz,)
            assert set(split.fold.tolist()) == set(range(5))
            seen = []
            for f in range(5):
                seen.extend(entries(fold_matrix(X, split, f)))
            assert len(seen) == len({(i, j) for i, j, _ in seen}) == X.nnz
            coo = X.tocoo()
            assert {(i, j) for i, j, _ in seen} == \
                set(zip(coo.row.tolist(), coo.col.tolist()))
            for i, j, value in seen:
                assert dense[i, j] == value

    def test_too_few_entries_rejected(self):
        X = sp.csr_matrix(np.eye(3))
        with pytest.raises(EvalError):
            split_folds(X, n_folds=5)

    def test_pinned_fold_ids(self):
        # a change to how folds are drawn must show here, not pass unseen
        dense = np.array([[0.0, 1.5, 0.0, 2.0, 0.0],
                          [0.0, 0.0, 0.0, 0.0, 0.0],
                          [3.0, 0.0, 4.5, 0.0, 5.0],
                          [0.0, 6.0, 0.0, 0.0, 0.0],
                          [7.5, 8.0, 0.0, 9.0, 9.5]])
        split = split_folds(sp.csr_matrix(dense), n_folds=3, seed=11)
        assert split.fold.tolist() == [2, 0, 2, 1, 1, 0, 0, 2, 0, 1]


def random_matrix(rng):
    """A random sparse matrix with empty rows and one-entry rows."""
    n, m = int(rng.integers(1, 25)), int(rng.integers(1, 12))
    dense = rng.uniform(1.0, 10.0, (n, m)) * (rng.random((n, m)) < 0.4)
    dense[rng.random(n) < 0.2] = 0.0
    for i in np.flatnonzero(rng.random(n) < 0.2):
        dense[i] = 0.0
        dense[i, rng.integers(m)] = rng.uniform(1.0, 10.0)
    return sp.csr_matrix(dense)


def unsorted_copy(X, rng):
    """The same matrix as X with each row's stored entries shuffled."""
    order = np.concatenate([lo + rng.permutation(hi - lo) for lo, hi in
                            zip(X.indptr[:-1], X.indptr[1:])])
    return sp.csr_matrix((X.data[order], X.indices[order], X.indptr.copy()),
                         shape=X.shape)


class TestFoldsMatchTriples:
    """The fold-id array and its masks against the (row, col, value) triples
    of `helpers.triple_folds` and `helpers.triple_training_matrix`."""

    def check(self, X, n_folds, seed):
        reference = triple_folds(X, n_folds, seed)
        split = split_folds(X, n_folds=n_folds, seed=seed)
        assert split.n_folds == n_folds and split.seed == seed
        for f, triples in enumerate(reference):
            assert entries(fold_matrix(X, split, f)) == list(triples)
            assert_same_csr(training_matrix(X, split.fold == f),
                            triple_training_matrix(X, triples))

    def test_random_matrices(self):
        rng = np.random.default_rng(40)
        shapes = {"empty row": 0, "one-entry row": 0, "n_folds == nnz": 0}
        for case in range(120):
            X = random_matrix(rng)
            lengths = np.diff(X.indptr)
            if X.nnz < 2:
                continue
            shapes["empty row"] += bool((lengths == 0).any())
            shapes["one-entry row"] += bool((lengths == 1).any())
            n_folds = int(rng.integers(2, min(X.nnz, 7) + 1))
            if case % 10 == 0:
                n_folds = X.nnz
            shapes["n_folds == nnz"] += n_folds == X.nnz
            self.check(X, n_folds, seed=case)
        assert min(shapes.values()) > 0, shapes

    def test_raw_csr_with_unsorted_indices(self):
        rng = np.random.default_rng(41)
        n_unsorted = 0
        for case in range(30):
            X = random_matrix(rng)
            if X.nnz < 3:
                continue
            raw = unsorted_copy(X, rng)
            if raw.has_sorted_indices:
                continue
            n_unsorted += 1
            before = [a.copy() for a in (raw.indptr, raw.indices, raw.data)]
            n_folds = int(rng.integers(2, min(X.nnz, 5) + 1))
            split = split_folds(raw, n_folds=n_folds, seed=case)
            assert np.array_equal(
                split.fold, split_folds(X, n_folds=n_folds, seed=case).fold)
            self.check(raw, n_folds, seed=case)
            # the caller's matrix is never sorted in place
            for got, want in zip((raw.indptr, raw.indices, raw.data), before):
                assert got.tobytes() == want.tobytes()
        assert n_unsorted >= 10

    def test_raw_csr_with_duplicate_entries(self):
        # a duplicate stored entry is one entry, its values summed
        raw = sp.csr_matrix((np.array([1.0, 2.0, 3.0, 4.0, 5.0]),
                             np.array([2, 0, 2, 1, 1]), np.array([0, 3, 5])),
                            shape=(2, 3))
        summed = sp.csr_matrix(raw.toarray())
        split = split_folds(raw, n_folds=3, seed=4)
        assert np.array_equal(split.fold, split_folds(summed, 3, seed=4).fold)
        for f in range(3):
            assert_same_csr(training_matrix(raw, split.fold == f),
                            training_matrix(summed, split.fold == f))
        assert raw.nnz == 5

    def test_interaction_matrix(self, make_corpus):
        corpus = make_corpus(
            ["a", "b", "c"], [],
            [("a", "t1", "IC50", 10.0), ("a", "t2", "IC50", 20.0),
             ("b", "t1", "IC50", 30.0), ("c", "t2", "IC50", 40.0),
             ("c", "t3", "IC50", 50_000.0)])
        interactions = build_interaction_matrix(corpus, "IC50")
        self.check(interactions.matrix, 2, seed=3)
        split = split_folds(interactions, n_folds=2, seed=3)
        assert np.array_equal(
            split.fold, split_folds(interactions.matrix, 2, seed=3).fold)


class TestTrainingMatrix:

    def test_removes_exactly_the_fold(self):
        X = sp.csr_matrix(np.diag([1.0, 2.0, 3.0, 4.0]))
        fold = np.array([True, False, True, False])  # entries (0,0), (2,2)
        trimmed = training_matrix(X, fold)
        expected = np.diag([0.0, 2.0, 0.0, 4.0])
        np.testing.assert_array_equal(trimmed.toarray(), expected)

    def test_interaction_matrix_kind_preserved(self, make_corpus):
        corpus = make_corpus(
            ["a", "b"], [],
            [("a", "t1", "IC50", 10.0), ("a", "t2", "IC50", 20.0),
             ("b", "t1", "IC50", 30.0)])
        interactions = build_interaction_matrix(corpus, "IC50")
        trimmed = training_matrix(interactions, np.array([True, False, False]))
        assert trimmed.compounds == interactions.compounds
        assert trimmed.matrix.nnz == interactions.matrix.nnz - 1
        assert trimmed.matrix[0, 0] == 0.0


class TestRmse:

    def test_perfect_model(self):
        model = make_model([[1.0], [2.0]], [[3.0], [4.0]])
        test = held_out([(0, 0, 3.0), (1, 1, 8.0)], (2, 2))
        assert rmse(model, test) == 0.0

    def test_single_triple(self):
        model = make_model([[2.0]], [[2.0]])  # predicts 4
        assert rmse(model, held_out([(0, 0, 6.0)], (1, 1))) == \
            pytest.approx(2.0, rel=1e-12)

    def test_constant_zero_model(self):
        model = make_model([[0.0]], [[0.0], [0.0]])
        value = rmse(model, held_out([(0, 0, 5.0), (0, 1, 10.0)], (1, 2)))
        assert value == pytest.approx(np.sqrt(62.5), rel=1e-12)

    def test_empty_set_rejected(self):
        model = make_model([[1.0]], [[1.0]])
        with pytest.raises(EvalError):
            rmse(model, held_out([], (1, 1)))


class TestRecallAtK:

    def _hand_setup(self):
        # scores across 7 targets: 10, 9, 8, 7, 6, 5, 4 -> t5 is a training
        # target (excluded); test targets t0, t1, t4 land at ranks 1, 2, 5
        model = make_model([[1.0]], [[10.0], [9.0], [8.0], [7.0], [6.0],
                                     [5.0], [4.0]])
        train = sp.csr_matrix(
            (np.array([1.0]), (np.array([0]), np.array([5]))), shape=(1, 7))
        test = held_out([(0, 0, 5.0), (0, 1, 5.0), (0, 4, 5.0)], (1, 7))
        return model, train, test

    def test_hand_ranked_recall(self):
        model, train, test = self._hand_setup()
        result = recall_at_k(model, train, test, k_list=(3,), sample_size=10,
                             min_train_targets=1, min_test_targets=1, seed=0)
        assert result.n_sampled == 1
        assert np.mean(result.recalls[3]) == pytest.approx(2.0 / 3.0, rel=1e-12)

    def test_k_at_least_target_count_gives_full_recall(self):
        model, train, test = self._hand_setup()
        result = recall_at_k(model, train, test, k_list=(7,), sample_size=10,
                             min_train_targets=1, min_test_targets=1, seed=0)
        assert np.mean(result.recalls[7]) == 1.0

    def test_monotone_in_k(self):
        rng = np.random.default_rng(7)
        X = planted_matrix(rng).toarray()
        train = sp.csr_matrix(X * (rng.random(X.shape) < 0.7))
        test = sp.csr_matrix(X - train.toarray())
        model = make_model(rng.random((X.shape[0], 3)),
                           rng.random((X.shape[1], 3)))
        result = recall_at_k(model, train, test, k_list=(1, 3, 5, 8, 12),
                             sample_size=50, min_train_targets=1,
                             min_test_targets=1, seed=0)
        means = [np.mean(result.recalls[k]) for k in (1, 3, 5, 8, 12)]
        assert all(a <= b + 1e-12 for a, b in zip(means, means[1:]))

    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(8)
        X = planted_matrix(rng)
        split = split_folds(X, n_folds=4, seed=1)
        test = fold_matrix(X, split, 0)
        train_fold = training_matrix(X, split.fold == 0)
        model = make_model(rng.random((X.shape[0], 4)),
                           rng.random((X.shape[1], 4)))
        a = recall_at_k(model, train_fold, test, k_list=(3,), sample_size=10,
                        min_train_targets=1, min_test_targets=1, seed=5)
        b = recall_at_k(model, train_fold, test, k_list=(3,), sample_size=10,
                        min_train_targets=1, min_test_targets=1, seed=5)
        assert a.sampled_rows == b.sampled_rows
        assert np.array_equal(a.recalls[3], b.recalls[3])

    def test_exclusion_flag_changes_ranking(self):
        # training target t0 scores highest; with exclusion the test target
        # t1 is rank 1, without it t1 drops to rank 2
        model = make_model([[1.0]], [[10.0], [9.0], [1.0]])
        train = sp.csr_matrix(
            (np.array([1.0]), (np.array([0]), np.array([0]))), shape=(1, 3))
        test = held_out([(0, 1, 5.0)], (1, 3))
        kwargs = dict(k_list=(1,), sample_size=5, min_train_targets=1,
                      min_test_targets=1, seed=0)
        excluded = recall_at_k(model, train, test, **kwargs)
        assert np.mean(excluded.recalls[1]) == 1.0
        included = recall_at_k(model, train, test,
                               exclude_train_targets=False, **kwargs)
        assert np.mean(included.recalls[1]) == 0.0

    def test_sample_size_below_one_rejected(self):
        model, train, test = self._hand_setup()
        for sample_size in (0, -3):
            with pytest.raises(ValueError, match="sample_size"):
                recall_at_k(model, train, test, k_list=(3,),
                            sample_size=sample_size, min_train_targets=1,
                            min_test_targets=1)
            with pytest.raises(ValueError, match="sample_size"):
                cross_validate(planted_matrix(np.random.default_rng(0)),
                               TrainConfig(rank=2, max_iters=5),
                               sample_size=sample_size)

    def test_no_eligible_compound_raises(self):
        model, train, test = self._hand_setup()
        with pytest.raises(EvalError, match="training targets"):
            recall_at_k(model, train, test, k_list=(3,),
                        min_train_targets=5, min_test_targets=5)

    def test_std_is_population_std(self):
        # two sampled compounds with recalls 0 and 1: population std is 0.5
        model = make_model([[1.0], [1.0]],
                           [[10.0], [9.0], [8.0], [7.0]])
        train = sp.csr_matrix(
            (np.ones(2), (np.array([0, 1]), np.array([3, 3]))), shape=(2, 4))
        test = held_out([(0, 0, 5.0), (1, 2, 5.0)], (2, 4))  # ranks 1 and 3
        result = recall_at_k(model, train, test, k_list=(1,), sample_size=10,
                             min_train_targets=1, min_test_targets=1, seed=0)
        assert result.n_sampled == 2
        assert np.mean(result.recalls[1]) == 0.5
        assert np.std(result.recalls[1]) == 0.5


class TestCrossValidate:

    def test_reduction_property_end_to_end(self):
        rng = np.random.default_rng(30)
        X = planted_matrix(rng, n=40, m=10)
        config = TrainConfig(rank=3, lam=0.0, max_iters=30, seed=2)
        S = np.zeros((40, 40))
        S[0, 1] = S[1, 0] = 1.0
        S = graph_of(S)
        plain = cross_validate(X, config, S=None, n_folds=3, k_list=(3, 5),
                               sample_size=30, min_train_targets=1,
                               min_test_targets=1, seed=4)
        reduced = cross_validate(X, config, S=S, n_folds=3, k_list=(3, 5),
                                 sample_size=30, min_train_targets=1,
                                 min_test_targets=1, seed=4)
        assert plain.fold_rmse == reduced.fold_rmse
        assert plain.recall == reduced.recall
        assert plain.label == reduced.label == "NMF"

    def test_report_shape_and_monotone_recall(self):
        rng = np.random.default_rng(31)
        X = planted_matrix(rng, n=60, m=12)
        config = TrainConfig(rank=4, lam=0.0, max_iters=40, seed=0)
        report = cross_validate(X, config, n_folds=3, k_list=(3, 6, 12),
                                sample_size=100, min_train_targets=1,
                                min_test_targets=1, seed=1)
        assert len(report.fold_rmse) == 3
        assert report.mean_rmse == pytest.approx(np.mean(report.fold_rmse))
        means = [report.recall[k][0] for k in (3, 6, 12)]
        assert all(a <= b + 1e-12 for a, b in zip(means, means[1:]))
        assert report.recall[12][0] == 1.0
        assert report.n_sampled > 0

    def test_training_reconstruction_improves_with_rank(self):
        rng = np.random.default_rng(32)
        X = planted_matrix(rng, n=50, m=10)
        errors = []
        for rank in (1, 3, 6):
            config = TrainConfig(rank=rank, max_iters=200, rel_tol=1e-10,
                                 seed=7)
            model = train_nmf(X, config)
            errors.append(rmse(model, X))
        assert errors[0] > errors[1] > errors[2]


    def test_folds_match_the_triple_reference(self):
        # the protocol run by hand on the triple folds gives the same report
        X = planted_matrix(np.random.default_rng(35), n=40, m=10)
        config = TrainConfig(rank=3, max_iters=20, seed=1)
        kwargs = dict(k_list=(2, 5), sample_size=15, min_train_targets=1,
                      min_test_targets=1)
        report = cross_validate(X, config, n_folds=4, seed=6, **kwargs)
        fold_rmse, pooled = [], {2: [], 5: []}
        for f, triples in enumerate(triple_folds(X, 4, 6)):
            train = triple_training_matrix(X, triples)
            test = held_out(triples, X.shape)
            model = train_nmf(train, config)
            fold_rmse.append(rmse(model, test))
            result = recall_at_k(model, train, test, seed=6 * 100_003 + f,
                                 **kwargs)
            for k in pooled:
                pooled[k].append(result.recalls[k])
        assert report.fold_rmse == tuple(fold_rmse)
        pooled = {k: np.concatenate(chunks) for k, chunks in pooled.items()}
        assert report.recall == {k: (float(np.mean(values)),
                                     float(np.std(values)))
                                 for k, values in pooled.items()}
        assert report.n_sampled == len(pooled[2])

    @pytest.mark.parametrize("bad", [
        dict(k_list=()), dict(k_list=(0,)), dict(k_list=(3, -1)),
        dict(min_train_targets=0), dict(min_test_targets=0),
        dict(sample_size=0)], ids=lambda bad: "-".join(
            f"{key}={value}" for key, value in bad.items()))
    def test_bad_recall_arguments_rejected_before_training(self, bad,
                                                            monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("a fold was trained")

        monkeypatch.setattr(evaluation, "train_nmf", never)
        monkeypatch.setattr(evaluation, "train_csnmf", never)
        X = planted_matrix(np.random.default_rng(33), n=20, m=8)
        kwargs = {**dict(n_folds=3, k_list=(3,), sample_size=10,
                         min_train_targets=1, min_test_targets=1), **bad}
        with pytest.raises(ValueError):
            cross_validate(X, TrainConfig(rank=2, max_iters=5), **kwargs)

    @pytest.mark.parametrize("kind", ["ndarray", "scipy"])
    def test_raw_similarity_rejected_before_training(self, kind, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("a fold was trained")

        monkeypatch.setattr(evaluation, "train_nmf", never)
        monkeypatch.setattr(evaluation, "rmse", never)
        S = np.zeros((20, 20))
        S[0, 1] = S[1, 0] = 1.0
        if kind == "scipy":
            S = sp.csr_matrix(S)
        X = planted_matrix(np.random.default_rng(36), n=20, m=8)
        with pytest.raises(FactorizationError, match="SimilarityMatrix"):
            cross_validate(X, TrainConfig(rank=2, lam=0.1, max_iters=5), S=S,
                           n_folds=3, k_list=(3,), sample_size=10,
                           min_train_targets=1, min_test_targets=1)

    def test_fold_steps_called_through_module_globals(self, monkeypatch):
        # a benchmark times each step by patching these names, and marks a
        # fold's start at its one training_matrix call
        calls = []
        for name in ("split_folds", "training_matrix", "train_nmf",
                     "train_csnmf", "rmse", "recall_at_k"):
            def recorded(*args, _name=name, _fn=getattr(evaluation, name),
                         **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(evaluation, name, recorded)
        X = planted_matrix(np.random.default_rng(34), n=30, m=9)
        S = np.zeros((30, 30))
        S[0, 1] = S[1, 0] = 1.0
        S = graph_of(S)
        for similarity, trainer in ((None, "train_nmf"), (S, "train_csnmf")):
            calls.clear()
            cross_validate(X, TrainConfig(rank=2, lam=0.1, max_iters=5),
                           S=similarity, n_folds=3, k_list=(3,),
                           sample_size=10, min_train_targets=1,
                           min_test_targets=1)
            assert calls == ["split_folds"] + 3 * [
                "training_matrix", trainer, "rmse", "recall_at_k"]


class TestReportOutput:

    def _reports(self):
        from repurpose import EvalReport
        nmf = EvalReport(label="NMF", fold_rmse=(1.5, 1.7),
                         recall={30: (0.7, 0.2), 50: (0.8, 0.15)}, n_sampled=40)
        cs = EvalReport(label="CS-NMF:CF", fold_rmse=(1.4, 1.6),
                        recall={30: (0.75, 0.2), 50: (0.85, 0.1)}, n_sampled=40)
        return [nmf, cs]

    def test_tsv_layout(self, tmp_path):
        path = tmp_path / "report.tsv"
        write_eval_report_tsv(self._reports(), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "metric\tNMF\tCS-NMF:CF"
        rows = {line.split("\t")[0]: line.split("\t")[1:] for line in lines[1:]}
        assert float(rows["rmse_mean"][0]) == pytest.approx(1.6)
        assert float(rows["recall_at_50_mean"][1]) == pytest.approx(0.85)
        assert rows["sampled_compounds"] == ["40", "40"]

    def test_human_table_layout(self):
        table = format_eval_table(self._reports())
        lines = table.splitlines()
        assert "NMF" in lines[0] and "CS-NMF:CF" in lines[0]
        assert lines[1].startswith("RMSE")
        assert "0.75 (0.20)" in table

    def test_rank_recall_curve(self, tmp_path):
        path = tmp_path / "curve.tsv"
        write_rank_recall_tsv(self._reports()[0], path)
        lines = path.read_text().splitlines()
        assert lines[0] == "k\tmean_recall\tstd"
        assert lines[1].split("\t")[0] == "30"
        assert lines[2].split("\t")[0] == "50"
