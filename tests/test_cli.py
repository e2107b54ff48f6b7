import argparse
import os
import re

import numpy as np
import pytest

from helpers import compound_order_csr

from repurpose import (
    FactorModel,
    TrainConfig,
    build_interaction_matrix,
    build_similarity_matrix,
    load_corpus,
    load_model,
    save_model,
)
import repurpose.cli
from repurpose.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def _case(case_id, named, *argv):
    return pytest.param(argv, named, id=case_id)


# One bad invocation per numeric flag of each subcommand, plus other bad
# values that are checked: each must exit 2 with a single ERROR line, write
# nothing, and read no input unless it names a label source, which only the
# corpus can tell apart (`XX` is none).  A case's second field is what its
# ERROR line must name: the flag typed, the unknown source or the output
# path.  `a-dir` (an empty directory) and `a-file` (an empty file) exist in
# the working directory, for the output paths that cannot be written.
# `--data-dir` is appended for every subcommand but generate-synthetic,
# which reads no corpus.
INVALID_FLAG_CASES = [
    _case("rank", "--rank", "train", "--rank", "0", "--out", "m.tsv"),
    _case("sim-threshold", "--sim-threshold", "train", "--similarity",
          "jaccard:CF", "--sim-threshold", "1.5", "--out", "m.tsv"),
    _case("folds", "--folds", "evaluate", "--folds", "1", "--out-dir", "eval"),
    _case("k", "-k", "evaluate", "-k", "0,30", "--out-dir", "eval"),
    _case("min-train-targets", "--min-train-targets", "evaluate",
          "--min-train-targets", "0", "--out-dir", "eval"),
    _case("sample-size", "--sample-size", "evaluate", "--sample-size", "0",
          "--out-dir", "eval"),
    _case("sample-size-negative", "--sample-size", "evaluate",
          "--sample-size", "-5", "--out-dir", "eval"),
    _case("min-count", "--min-count", "noir", "--target", "T0000",
          "--activity-type", "IC50", "--min-count", "1", "--out-dir", "noir"),
    _case("top-n", "--top-n", "noir", "--target", "T0000", "--activity-type",
          "IC50", "--top-n", "0", "--out-dir", "noir"),
    _case("lambda-nan", "--lambda", "train", "--lambda", "nan", "--out",
          "m.tsv"),
    _case("lambda-inf", "--lambda", "train", "--lambda", "inf",
          "--similarity", "jaccard:CF", "--out", "m.tsv"),
    _case("recommend-k-zero", "-k", "recommend", "--model", "model.tsv",
          "--compounds", "C00000", "-k", "0"),
    _case("recommend-k-negative", "-k", "recommend", "--model", "model.tsv",
          "--compounds", "C00000", "-k", "-3"),
    _case("tol-inf", "--tol", "train", "--tol", "inf", "--out", "m.tsv"),
    _case("max-iters", "--max-iters", "train", "--max-iters", "0", "--out",
          "m.tsv"),
    _case("seed-negative", "--seed", "train", "--seed", "-1", "--out",
          "m.tsv"),
    _case("threshold-nan", "--threshold", "noir", "--target", "T0000",
          "--activity-type", "IC50", "--threshold", "nan", "--out-dir",
          "noir"),
    _case("threshold-negative", "--threshold", "noir", "--target", "T0000",
          "--activity-type", "IC50", "--threshold", "-5", "--out-dir", "noir"),
    _case("noise-cap", "--noise-cap", "noir", "--target", "T0000",
          "--activity-type", "IC50", "--noise-cap", "0", "--out-dir", "noir"),
    _case("set-size", "--set-size", "noir", "--target", "T0000",
          "--activity-type", "IC50", "--set-size", "0", "--out-dir", "noir"),
    _case("sources-repeated", "--sources", "noir", "--target", "T0000",
          "--activity-type", "IC50", "--sources", "CF,CF", "--out-dir",
          "noir"),
    _case("sources-unknown", "'XX'", "noir", "--target", "T0000",
          "--activity-type", "IC50", "--sources", "CF,XX", "--out-dir",
          "noir"),
    _case("similarity-unknown-source", "'XX'", "train", "--similarity",
          "jaccard:XX", "--out", "m.tsv"),
    _case("similarity-unknown-source-lambda-0", "'XX'", "train",
          "--similarity", "jaccard:XX", "--lambda", "0", "--out", "m.tsv"),
    _case("evaluate-similarity-unknown-source", "'XX'", "evaluate",
          "--similarity", "none", "--similarity", "jaccard:XX", "--out-dir",
          "eval"),
    _case("min-test-targets", "--min-test-targets", "evaluate",
          "--min-test-targets", "0", "--out-dir", "eval"),
    _case("evaluate-rank", "--rank", "evaluate", "--rank", "0", "--out-dir",
          "eval"),
    _case("evaluate-lambda-nan", "--lambda", "evaluate", "--lambda", "nan",
          "--out-dir", "eval"),
    _case("evaluate-max-iters", "--max-iters", "evaluate", "--max-iters", "0",
          "--out-dir", "eval"),
    _case("evaluate-tol-inf", "--tol", "evaluate", "--tol", "inf",
          "--out-dir", "eval"),
    _case("evaluate-seed-negative", "--seed", "evaluate", "--seed", "-1",
          "--out-dir", "eval"),
    _case("evaluate-sim-threshold-nan", "--sim-threshold", "evaluate",
          "--sim-threshold", "nan", "--out-dir", "eval"),
    _case("synthetic-compounds", "--compounds", "generate-synthetic",
          "--compounds", "0", "--out-dir", "syn"),
    _case("synthetic-targets", "--targets", "generate-synthetic", "--targets",
          "0", "--out-dir", "syn"),
    _case("synthetic-clusters", "--clusters", "generate-synthetic",
          "--clusters", "0", "--out-dir", "syn"),
    _case("synthetic-labels-per-compound", "--labels-per-compound",
          "generate-synthetic", "--labels-per-compound", "0", "--out-dir",
          "syn"),
    _case("synthetic-label-noise", "--label-noise", "generate-synthetic",
          "--label-noise", "2", "--out-dir", "syn"),
    _case("synthetic-activity-noise-nan", "--activity-noise",
          "generate-synthetic", "--activity-noise", "nan", "--out-dir", "syn"),
    _case("synthetic-seed-negative", "--seed", "generate-synthetic", "--seed",
          "-1", "--out-dir", "syn"),
    _case("synthetic-source-empty", "--sources", "generate-synthetic",
          "--sources", "CF,", "--out-dir", "syn"),
    _case("train-out-is-dir", "a-dir", "train", "--rank", "2", "--max-iters",
          "5", "--out", "a-dir"),
    _case("train-out-in-missing-dir", "no-dir/m.tsv", "train", "--rank", "2",
          "--max-iters", "5", "--out", "no-dir/m.tsv"),
    _case("recommend-out-is-dir", "a-dir", "recommend", "--model",
          "model.tsv", "--compounds", "C00000", "--out", "a-dir"),
    _case("recommend-compounds-empty", "--compounds", "recommend", "--model",
          "model.tsv", "--compounds", ","),
    _case("noir-out-dir-under-file", "a-file/sub", "noir", "--target",
          "T0000", "--activity-type", "IC50", "--out-dir", "a-file/sub"),
    _case("evaluate-out-dir-under-file", "a-file/sub", "evaluate",
          "--out-dir", "a-file/sub"),
    _case("synthetic-out-dir-under-file", "a-file/sub", "generate-synthetic",
          "--out-dir", "a-file/sub"),
]

# Numeric flags that accept every value argparse can parse, so no invalid
# case exists for them.  Empty: every numeric flag has a bound today.
FLAGS_WITHOUT_INVALID_VALUE = frozenset()


@pytest.fixture
def data_dir(tmp_path, capsys):
    directory = tmp_path / "data"
    code = main(["generate-synthetic", "--out-dir", str(directory),
                 "--compounds", "120", "--targets", "12", "--clusters", "3",
                 "--seed", "100"])
    assert code == 0
    capsys.readouterr()
    return directory


@pytest.fixture
def graph_builds(monkeypatch):
    """The label source of every graph the CLI builds, in build order."""
    sources = []

    def counted(corpus, source, *args, **kwargs):
        sources.append(source)
        return build_similarity_matrix(corpus, source, *args, **kwargs)

    monkeypatch.setattr(repurpose.cli, "build_similarity_matrix", counted)
    return sources


@pytest.fixture
def input_reads(monkeypatch):
    """The name of every input reader the CLI calls (`load_corpus`,
    `load_model`), in call order."""
    reads = []
    for name in ("load_corpus", "load_model"):
        def counted(*args, _name=name, _read=getattr(repurpose.cli, name),
                    **kwargs):
            reads.append(_name)
            return _read(*args, **kwargs)
        monkeypatch.setattr(repurpose.cli, name, counted)
    return reads


def save_hand_model(path, compounds, targets, target_factors):
    """Save a rank-1 model whose every compound factor is 1, so a compound's
    score for target j is `target_factors[j]`."""
    save_model(FactorModel(
        U=np.ones((len(compounds), 1)),
        V=np.asarray(target_factors, dtype=np.float64)[:, None],
        compounds=tuple(compounds), targets=tuple(targets),
        config=TrainConfig(rank=1), objective_trace=np.zeros(1),
        converged=True), path)


def read_tree(directory):
    contents = {}
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if os.path.isfile(path):
            with open(path, "rb") as fh:
                contents[name] = fh.read()
    return contents


class TestIngest:

    def test_summary_counts(self, data_dir, capsys):
        code, out = run(capsys, "ingest", "--data-dir", str(data_dir))
        assert code == 0
        rows = dict(line.split("\t") for line in out.splitlines())
        assert rows["compounds"] == "120"
        assert rows["targets"] == "12"
        assert int(rows["activity_records"]) > 0
        assert "labels[CF]" in rows and "labels[OC]" in rows

    def test_missing_file_names_path(self, tmp_path, capsys, caplog):
        code = main(["ingest", "--data-dir", str(tmp_path)])
        assert code == 2
        assert "compounds.tsv" in caplog.text

    def test_rerun_identical_summary(self, data_dir, capsys):
        first = run(capsys, "ingest", "--data-dir", str(data_dir))
        second = run(capsys, "ingest", "--data-dir", str(data_dir))
        assert first == second

    def test_env_var_sets_data_dir(self, data_dir, capsys, monkeypatch):
        monkeypatch.setenv("REPURPOSE_DATA_DIR", str(data_dir))
        code, out = run(capsys, "ingest")
        assert code == 0
        assert "compounds\t120" in out


class TestGenerateSynthetic:

    def test_lists_written_files(self, tmp_path, capsys):
        code, out = run(capsys, "generate-synthetic",
                        "--out-dir", str(tmp_path / "x"), "--compounds", "30",
                        "--targets", "6", "--clusters", "2")
        assert code == 0
        names = [os.path.basename(line) for line in out.splitlines()]
        assert names == ["compounds.tsv", "labels.tsv", "activities.tsv",
                         "clusters.tsv"]

    def test_inconsistent_spec_is_config_error(self, tmp_path, capsys):
        code = main(["generate-synthetic", "--out-dir", str(tmp_path / "x"),
                     "--compounds", "5", "--targets", "6", "--clusters", "10"])
        assert code == 2


class TestNoir:

    def test_writes_all_artifacts(self, data_dir, tmp_path, capsys):
        out_dir = tmp_path / "noir"
        code, _ = run(capsys, "noir", "--data-dir", str(data_dir),
                      "--target", "T0000", "--activity-type", "IC50",
                      "--out-dir", str(out_dir))
        assert code == 0
        names = sorted(os.listdir(out_dir))
        assert names == ["consensus.tsv", "reference_CF.tsv",
                         "reference_OC.tsv", "retrieval_CF.tsv",
                         "retrieval_OC.tsv"]
        reference = (out_dir / "reference_CF.tsv").read_text().splitlines()
        assert reference[0] == "label\tsource\tO\tE\tC\tscore"
        assert len(reference) <= 21

    def test_single_source_skips_consensus(self, data_dir, tmp_path, capsys,
                                           caplog):
        out_dir = tmp_path / "noir"
        code, _ = run(capsys, "noir", "--data-dir", str(data_dir),
                      "--target", "T0000", "--activity-type", "IC50",
                      "--sources", "CF", "--out-dir", str(out_dir))
        assert code == 0
        assert sorted(os.listdir(out_dir)) == ["reference_CF.tsv",
                                               "retrieval_CF.tsv"]
        assert "no consensus" in caplog.text

    def test_unknown_target_is_runtime_error(self, data_dir, tmp_path, capsys):
        code = main(["noir", "--data-dir", str(data_dir), "--target", "NOPE",
                     "--out-dir", str(tmp_path / "noir")])
        assert code == 1

    def test_deterministic_outputs(self, data_dir, tmp_path, capsys):
        args = ["noir", "--data-dir", str(data_dir), "--target", "T0001",
                "--activity-type", "IC50"]
        assert main(args + ["--out-dir", str(tmp_path / "a")]) == 0
        assert main(args + ["--out-dir", str(tmp_path / "b")]) == 0
        capsys.readouterr()
        assert read_tree(tmp_path / "a") == read_tree(tmp_path / "b")

    def test_hand_edited_reference_round_trip(self, data_dir, tmp_path,
                                              capsys):
        first = tmp_path / "first"
        args = ["noir", "--data-dir", str(data_dir), "--target", "T0000",
                "--activity-type", "IC50"]
        assert main(args + ["--out-dir", str(first)]) == 0

        # a chemist trims the CF query to its single top label
        for source in ("CF", "OC"):
            path = first / f"reference_{source}.tsv"
            lines = path.read_text().splitlines()
            path.write_text("\n".join(lines[:2]) + "\n")

        second = tmp_path / "second"
        assert main(args + ["--edited-references", str(first),
                            "--out-dir", str(second)]) == 0
        capsys.readouterr()
        reference = (second / "reference_CF.tsv").read_text().splitlines()
        assert len(reference) == 2  # header + the one kept label
        retrieval = (second / "retrieval_CF.tsv").read_text().splitlines()
        assert len(retrieval) > 1
        matched = {row.split("\t")[4] for row in retrieval[1:]}
        assert matched == {reference[1].split("\t")[0]}


    def test_non_finite_edited_score_is_config_error(self, data_dir, tmp_path,
                                                     capsys):
        first = tmp_path / "first"
        args = ["noir", "--data-dir", str(data_dir), "--target", "T0000",
                "--activity-type", "IC50", "--sources", "CF"]
        assert main(args + ["--out-dir", str(first)]) == 0
        path = first / "reference_CF.tsv"
        lines = path.read_text().splitlines()
        row = lines[1].split("\t")
        row[5] = "nan"
        path.write_text("\n".join([lines[0], "\t".join(row)]) + "\n")
        capsys.readouterr()
        code = main(args + ["--edited-references", str(first),
                            "--out-dir", str(tmp_path / "second")])
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if line.startswith("ERROR")]
        assert len(errors) == 1 and "must be finite" in errors[0]

    @pytest.mark.parametrize("case", ["copied", "unknown"])
    def test_edited_file_of_another_source_is_config_error(
            self, data_dir, tmp_path, capsys, case):
        """Every edited file is checked before anything is written: one
        holding another source's rows is a usage error, whichever the
        source and wherever it comes in --sources."""
        first = tmp_path / "first"
        args = ["noir", "--data-dir", str(data_dir), "--target", "T0000",
                "--activity-type", "IC50", "--sources", "OC,CF"]
        assert main(args + ["--out-dir", str(first)]) == 0
        oc, cf = first / "reference_OC.tsv", first / "reference_CF.tsv"
        if case == "copied":
            cf.write_text(oc.read_text())
        else:
            cf.write_text(cf.read_text().replace("\tCF\t", "\tXX\t"))
        capsys.readouterr()
        out_dir = tmp_path / "second"
        code = main(args + ["--edited-references", str(first),
                            "--out-dir", str(out_dir)])
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if line.startswith("ERROR")]
        assert len(errors) == 1 and "reference_CF.tsv" in errors[0]
        assert not out_dir.exists() or not os.listdir(out_dir)


class TestTrainEvaluateRecommend:

    def test_train_writes_loadable_model(self, data_dir, tmp_path, capsys):
        model_path = tmp_path / "model.tsv"
        code, out = run(capsys, "train", "--data-dir", str(data_dir),
                        "--rank", "4", "--max-iters", "40", "--seed", "7",
                        "--out", str(model_path))
        assert code == 0
        assert model_path.exists()
        from repurpose import load_model
        model = load_model(model_path)
        assert model.rank == 4
        assert "objective" in out

    def test_train_with_similarity(self, data_dir, tmp_path, capsys):
        model_path = tmp_path / "model.tsv"
        code, _ = run(capsys, "train", "--data-dir", str(data_dir),
                      "--rank", "4", "--max-iters", "30", "--seed", "7",
                      "--similarity", "jaccard:CF", "--out", str(model_path))
        assert code == 0
        from repurpose import load_model
        assert load_model(model_path).regularized

    def test_train_determinism_byte_identical(self, data_dir, tmp_path, capsys):
        for name in ("a", "b"):
            code, _ = run(capsys, "train", "--data-dir", str(data_dir),
                          "--rank", "3", "--max-iters", "25", "--seed", "9",
                          "--similarity", "jaccard:OC",
                          "--out", str(tmp_path / f"{name}.tsv"))
            assert code == 0
        assert (tmp_path / "a.tsv").read_bytes() == (tmp_path / "b.tsv").read_bytes()

    def test_bad_similarity_flag_is_config_error(self, data_dir, tmp_path,
                                                 capsys):
        code = main(["train", "--data-dir", str(data_dir),
                     "--similarity", "cosine:CF", "--out",
                     str(tmp_path / "m.tsv")])
        assert code == 2

    def _evaluate_flags(self, data_dir, out_dir):
        return ["--data-dir", str(data_dir), "--rank", "4", "--max-iters", "25",
                "--seed", "3", "--folds", "3", "-k", "3,6",
                "--sample-size", "50", "--min-train-targets", "1",
                "--min-test-targets", "1", "--out-dir", str(out_dir)]

    def _evaluate(self, data_dir, out_dir, *extra):
        return main(["evaluate"] + self._evaluate_flags(data_dir, out_dir)
                    + list(extra))

    def test_evaluate_writes_report_files(self, data_dir, tmp_path, capsys):
        out_dir = tmp_path / "eval"
        code = self._evaluate(data_dir, out_dir,
                              "--similarity", "none",
                              "--similarity", "jaccard:CF")
        assert code == 0
        out = capsys.readouterr().out
        names = sorted(os.listdir(out_dir))
        assert names == ["eval_report.tsv", "eval_report.txt",
                         "rank_recall_CS-NMF_CF.tsv", "rank_recall_NMF.tsv"]
        header = (out_dir / "eval_report.tsv").read_text().splitlines()[0]
        assert header == "metric\tNMF\tCS-NMF:CF"
        assert "RMSE" in out and "Recall at 3" in out

    def test_duplicate_variant_skipped_before_its_graph_is_built(
            self, data_dir, tmp_path, capsys, graph_builds):
        assert self._evaluate(data_dir, tmp_path / "once",
                              "--similarity", "jaccard:CF") == 0
        capsys.readouterr()
        graph_builds.clear()
        assert self._evaluate(data_dir, tmp_path / "twice",
                              "--similarity", "jaccard:CF",
                              "--similarity", "jaccard:CF") == 0
        assert graph_builds == ["CF"]
        assert "WARNING variant CS-NMF:CF already evaluated; skipping " \
            "duplicate" in capsys.readouterr().err.splitlines()
        names = sorted(os.listdir(tmp_path / "once"))
        assert names == sorted(os.listdir(tmp_path / "twice"))
        for name in names:
            assert (tmp_path / "once" / name).read_bytes() == \
                (tmp_path / "twice" / name).read_bytes()

    def test_unconverged_folds_logged_once_per_variant(self, data_dir,
                                                       tmp_path, capsys):
        assert self._evaluate(data_dir, tmp_path / "a", "--similarity", "none",
                              "--similarity", "jaccard:CF",
                              "--max-iters", "2", "--tol", "1e-12") == 0
        warnings = [line for line in capsys.readouterr().err.splitlines()
                    if line.startswith("WARNING")]
        assert warnings == [
            f"WARNING {label}: 3 of 3 folds stopped at max_iters (2) without "
            "converging" for label in ("NMF", "CS-NMF:CF")]
        # a tolerance every first iteration meets: all folds converge
        assert self._evaluate(data_dir, tmp_path / "b", "--tol", "10") == 0
        assert "WARNING" not in capsys.readouterr().err

    def test_graph_and_iterations_logged_without_changing_outputs(
            self, data_dir, tmp_path, capsys):
        corpus = load_corpus(*(data_dir / f"{name}.tsv" for name in
                               ("compounds", "labels", "activities")))
        graph = build_similarity_matrix(
            corpus, "CF", build_interaction_matrix(corpus, "IC50").compounds)
        n = graph.n_compounds
        isolated = sum(not compound_order_csr(graph)[i].nnz for i in range(n))
        upper = graph._upper
        stored = sum(a.nbytes for a in (upper.data, upper.indices,
                                        upper.indptr, graph._order,
                                        graph._row))
        graph_line = (f"INFO similarity graph jaccard:CF: {n} compounds, "
                      f"{graph.n_pairs} pairs, mean degree "
                      f"{2 * graph.n_pairs / n:.2f}, {isolated} isolated, "
                      f"{stored / 1e6:.1f} MB stored")

        train = ["train", "--data-dir", str(data_dir), "--rank", "3",
                 "--max-iters", "4", "--tol", "1e-12", "--similarity",
                 "jaccard:CF"]
        assert main(["-v"] + train + ["--out", str(tmp_path / "v.tsv")]) == 0
        err = capsys.readouterr().err.splitlines()
        assert [line for line in err if "similarity graph" in line] == [graph_line]
        steps = [line for line in err if line.startswith("DEBUG iteration")]
        assert len(steps) == 4
        assert re.fullmatch(r"DEBUG iteration 1: J \S+", steps[0])
        trace = load_model(tmp_path / "v.tsv").objective_trace
        for it, line in enumerate(steps[1:], start=2):
            want = (trace[it - 1] - trace[it]) / trace[it - 1]
            value, decrease = re.fullmatch(
                rf"DEBUG iteration {it}: J (\S+), relative decrease (\S+)",
                line).groups()
            assert float(value) == pytest.approx(trace[it], rel=1e-9)
            assert float(decrease) == pytest.approx(want, rel=1e-2)
        assert main(["-q"] + train + ["--out", str(tmp_path / "q.tsv")]) == 0
        assert capsys.readouterr().err == ("WARNING training stopped at "
                                           "max_iters (4) without converging\n")
        assert (tmp_path / "v.tsv").read_bytes() == (tmp_path / "q.tsv").read_bytes()

        variants = ("--similarity", "none", "--similarity", "jaccard:CF",
                    "--sim-threshold", "0")
        assert self._evaluate(data_dir, tmp_path / "a", *variants) == 0
        err = capsys.readouterr().err.splitlines()
        assert [line for line in err if "similarity graph" in line] == [graph_line]
        assert main(["-q", "evaluate"] + self._evaluate_flags(
            data_dir, tmp_path / "b") + list(variants)) == 0
        capsys.readouterr()
        assert read_tree(tmp_path / "a") == read_tree(tmp_path / "b")

    def test_train_warns_when_it_stops_at_max_iters(self, data_dir, tmp_path,
                                                    capsys):
        train = ["train", "--data-dir", str(data_dir), "--rank", "3",
                 "--out", str(tmp_path / "m.tsv")]
        assert main(train + ["--max-iters", "2", "--tol", "1e-12"]) == 0
        captured = capsys.readouterr()
        assert "converged\t0" in captured.out.splitlines()
        assert [line for line in captured.err.splitlines()
                if line.startswith("WARNING")] == [
            "WARNING training stopped at max_iters (2) without converging"]
        # a tolerance every first iteration meets: the run converges
        assert main(train + ["--tol", "10"]) == 0
        captured = capsys.readouterr()
        assert "converged\t1" in captured.out.splitlines()
        assert "WARNING" not in captured.err

    def test_lambda_zero_equals_similarity_none(self, data_dir, tmp_path,
                                                capsys, graph_builds):
        """At --lambda 0 a named graph would add no penalty: neither command
        builds it, and each writes what --similarity none writes."""
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        assert self._evaluate(data_dir, a_dir, "--lambda", "0",
                              "--similarity", "jaccard:CF") == 0
        assert self._evaluate(data_dir, b_dir, "--similarity", "none") == 0
        train = ["train", "--data-dir", str(data_dir), "--rank", "3",
                 "--max-iters", "10", "--lambda", "0"]
        for similarity, name in (("jaccard:CF", "a.tsv"), ("none", "b.tsv")):
            assert main(train + ["--similarity", similarity,
                                 "--out", str(tmp_path / name)]) == 0
        capsys.readouterr()
        assert graph_builds == []
        assert (a_dir / "eval_report.tsv").read_text().startswith(
            "metric\tNMF\n")
        assert read_tree(a_dir) == read_tree(b_dir)
        assert not load_model(tmp_path / "a.tsv").regularized
        assert (tmp_path / "a.tsv").read_bytes() == \
            (tmp_path / "b.tsv").read_bytes()

    def test_evaluate_deterministic(self, data_dir, tmp_path, capsys):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        assert self._evaluate(data_dir, a_dir, "--similarity", "jaccard:OC") == 0
        assert self._evaluate(data_dir, b_dir, "--similarity", "jaccard:OC") == 0
        capsys.readouterr()
        assert read_tree(a_dir) == read_tree(b_dir)

    def test_recommend_caps_at_k_and_excludes_known(self, data_dir, tmp_path,
                                                    capsys):
        model_path = tmp_path / "model.tsv"
        run(capsys, "train", "--data-dir", str(data_dir), "--rank", "4",
            "--max-iters", "30", "--seed", "7", "--out", str(model_path))
        code, out = run(capsys, "recommend", "--data-dir", str(data_dir),
                        "--model", str(model_path),
                        "--compounds", "C00000,C00001", "-k", "4")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "compound_id\trank\ttarget_id\tscore"
        body = [line.split("\t") for line in lines[1:]]
        per_compound = {}
        for compound, rank, target, score in body:
            per_compound.setdefault(compound, []).append(target)
        assert set(per_compound) == {"C00000", "C00001"}
        for targets in per_compound.values():
            assert len(targets) <= 4

        from repurpose import load_corpus
        corpus = load_corpus(data_dir / "compounds.tsv",
                             data_dir / "labels.tsv",
                             data_dir / "activities.tsv")
        for compound, targets in per_compound.items():
            known = corpus.targets_of(compound, "IC50")
            assert not (set(targets) & known)

    def test_recommend_scores_read_back_as_model_scores(self, data_dir,
                                                        tmp_path, capsys):
        model_path = tmp_path / "model.tsv"
        run(capsys, "train", "--data-dir", str(data_dir), "--rank", "3",
            "--max-iters", "20", "--seed", "2", "--out", str(model_path))
        code, out = run(capsys, "recommend", "--data-dir", str(data_dir),
                        "--model", str(model_path), "--compounds",
                        "C00000,C00003", "-k", "5", "--include-known")
        assert code == 0
        model = load_model(model_path)
        body = [line.split("\t") for line in out.splitlines()[1:]]
        assert len(body) == 10
        for compound, _, target, score in body:
            want = model.score_targets(model.row_of(compound))[
                model.target_pos[target]]
            # a plain float literal, the shortest that reads back exactly
            assert score == repr(float(want))
            assert float(score) == want

    def test_recommend_writes_no_row_when_every_target_is_known(
            self, data_dir, tmp_path, capsys):
        corpus = load_corpus(data_dir / "compounds.tsv",
                             data_dir / "labels.tsv",
                             data_dir / "activities.tsv")
        known = sorted(corpus.targets_of("C00000", "IC50"))
        model_path = tmp_path / "model.tsv"
        save_hand_model(model_path, ["C00000"], known, [1.0] * len(known))
        code, out = run(capsys, "recommend", "--data-dir", str(data_dir),
                        "--model", str(model_path), "--compounds", "C00000")
        assert code == 0
        assert out == "compound_id\trank\ttarget_id\tscore\n"

    def test_recommend_k_above_target_count_lists_each_unknown_once(
            self, data_dir, tmp_path, capsys):
        model_path = tmp_path / "model.tsv"
        run(capsys, "train", "--data-dir", str(data_dir), "--rank", "3",
            "--max-iters", "20", "--seed", "4", "--out", str(model_path))
        model = load_model(model_path)
        corpus = load_corpus(data_dir / "compounds.tsv",
                             data_dir / "labels.tsv",
                             data_dir / "activities.tsv")
        compounds = ("C00000", "C00001", "C00002")
        code, out = run(capsys, "recommend", "--data-dir", str(data_dir),
                        "--model", str(model_path), "--compounds",
                        ",".join(compounds), "-k", "250")
        assert code == 0
        body = [line.split("\t") for line in out.splitlines()[1:]]
        for compound in compounds:
            rows = [row for row in body if row[0] == compound]
            unknown = set(model.targets) - corpus.targets_of(compound, "IC50")
            assert 0 < len(unknown) < len(model.targets)
            assert [row[1] for row in rows] == \
                [str(rank) for rank in range(1, len(unknown) + 1)]
            assert sorted(row[2] for row in rows) == sorted(unknown)

    def test_recommend_lists_tied_targets_lower_column_first(
            self, tmp_path, capsys):
        # columns 1 and 2 tie; lower column first, not lower target id
        model_path = tmp_path / "model.tsv"
        save_hand_model(model_path, ["C1"], ["T9", "T5", "T1", "T0"],
                        [1.0, 2.0, 2.0, 0.5])
        code, out = run(capsys, "recommend", "--model", str(model_path),
                        "--compounds", "C1", "-k", "3", "--include-known")
        assert code == 0
        assert out.splitlines()[1:] == [
            "C1\t1\tT5\t2.0", "C1\t2\tT1\t2.0", "C1\t3\tT9\t1.0"]

    def test_recommend_unknown_compound_is_runtime_error(self, data_dir,
                                                         tmp_path, capsys):
        model_path = tmp_path / "model.tsv"
        run(capsys, "train", "--data-dir", str(data_dir), "--rank", "3",
            "--max-iters", "10", "--seed", "1", "--out", str(model_path))
        code = main(["recommend", "--data-dir", str(data_dir),
                     "--model", str(model_path), "--compounds", "GHOST"])
        assert code == 1

    def test_recommend_missing_model_is_config_error(self, data_dir, tmp_path,
                                                     capsys):
        code = main(["recommend", "--data-dir", str(data_dir),
                     "--model", str(tmp_path / "missing.tsv"),
                     "--compounds", "C00000"])
        assert code == 2


class TestSimilaritySource:
    """The one place the CLI decides whether a run builds a graph: only a
    named source that a positive lambda will use."""

    @pytest.fixture
    def corpus(self, make_corpus):
        return make_corpus(["c1", "c2"], [("c1", "CF", "l1"),
                                          ("c2", "CF", "l1")])

    @pytest.mark.parametrize("choice, lam, want", [
        ("none", 0.05, None), ("none", 0.0, None),
        ("jaccard:CF", 0.05, "CF"), ("jaccard:CF", 0.0, None)])
    def test_source_only_when_a_positive_lambda_uses_it(self, corpus, choice,
                                                        lam, want):
        assert repurpose.cli._similarity_source(choice, corpus, lam) == want

    def test_source_checked_before_the_lambda_rule(self, corpus):
        for choice in ("jaccard:XX", "jaccard:", "cosine:CF"):
            for lam in (0.0, 0.05):
                with pytest.raises(repurpose.cli.ConfigError):
                    repurpose.cli._similarity_source(choice, corpus, lam)


class TestParser:

    def test_unknown_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["ingest", "--bogus"])
        assert exc.value.code == 2

    def test_noir_defaults_are_the_screening_protocol(self):
        from repurpose.cli import build_parser
        args = build_parser().parse_args(
            ["noir", "--target", "T", "--out-dir", "x"])
        assert args.activity_type == "EC50"
        assert args.threshold == 30.0
        assert args.noise_cap == 200_000
        assert args.min_count == 2
        assert args.set_size == 20
        assert args.top_n == 100
        assert args.sources == "CF,OC"

    def test_train_and_evaluate_defaults(self):
        from repurpose.cli import build_parser
        train = build_parser().parse_args(["train", "--out", "m.tsv"])
        assert (train.rank, train.lam) == (50, 0.1)
        assert (train.max_iters, train.tol) == (200, 1e-5)
        assert train.activity_type == "IC50"
        assert train.similarity == "none"
        evaluate = build_parser().parse_args(["evaluate", "--out-dir", "x"])
        assert evaluate.folds == 5
        assert evaluate.k == "30,50,100"
        assert evaluate.sample_size == 10_000
        assert evaluate.min_train_targets == evaluate.min_test_targets == 3

    @pytest.mark.parametrize(("argv", "named"), INVALID_FLAG_CASES)
    def test_invalid_numeric_flag_is_config_error(self, argv, named,
                                                  data_dir, tmp_path, capsys,
                                                  monkeypatch, input_reads):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "a-dir").mkdir()
        (tmp_path / "a-file").write_text("")
        if argv[0] == "recommend":
            # a real model, so that only the flag is wrong
            assert main(["train", "--data-dir", str(data_dir), "--rank", "2",
                         "--max-iters", "5", "--out", "model.tsv"]) == 0
            capsys.readouterr()
        reads_input = any(token.endswith("XX") for token in argv)
        if argv[0] != "generate-synthetic":
            argv = [*argv, "--data-dir", str(data_dir)]
        input_reads.clear()
        code = main(list(argv))
        err = capsys.readouterr().err
        assert code == 2
        assert bool(input_reads) == reads_input, input_reads
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if line.startswith("ERROR")]
        assert len(errors) == 1 and named in errors[0], errors
        for flag in ("--out", "--out-dir"):
            if flag in argv:
                out = tmp_path / argv[argv.index(flag) + 1]
                assert not out.exists() or (out.is_dir()
                                            and not any(out.iterdir()))
        assert (tmp_path / "a-file").read_text() == ""

    def test_every_numeric_flag_has_an_invalid_case(self):
        from repurpose.cli import build_parser
        covered = {(case.values[0][0], token) for case in INVALID_FLAG_CASES
                   for token in case.values[0]}
        subcommands = next(action.choices for action in build_parser()._actions
                           if isinstance(action, argparse._SubParsersAction))
        missing = [
            (name, action.option_strings[0])
            for name, parser in subcommands.items()
            for action in parser._actions
            if action.type in (int, float)
            and not any((name, flag) in covered
                        for flag in action.option_strings)
            and not set(action.option_strings) & FLAGS_WITHOUT_INVALID_VALUE]
        assert missing == []

    def test_help_lists_subcommands(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for name in ("ingest", "generate-synthetic", "noir", "train",
                     "evaluate", "recommend"):
            assert name in out
