"""Command-line surface for the two pipelines.

Subcommands: ingest, generate-synthetic, noir, train, evaluate, recommend.
Everything reads and writes TSV so outputs can be inspected and reference
sets hand-edited before retrieval.  All commands are deterministic given
--seed, and every run logs its resolved configuration.  Exit codes: 0 on
success, 1 for runtime errors, 2 for configuration errors (bad flags,
missing files).
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

import numpy as np

from . import __version__
from .corpus import load_corpus
from .errors import FormatError, RepurposeError, UnknownSourceError
from .evaluation import (
    cross_validate,
    format_eval_table,
    write_eval_report_tsv,
    write_rank_recall_tsv,
)
from .factorization import (
    TrainConfig,
    build_interaction_matrix,
    load_model,
    save_model,
    train_csnmf,
    train_nmf,
)
from .noir import (
    ReferenceSetConfig,
    build_reference_set,
    consensus,
    read_reference_set,
    retrieve,
    write_reference_set,
    write_retrieval_report,
)
from .similarity import build_similarity_matrix
from .synthetic import SyntheticSpec, generate_synthetic

log = logging.getLogger("repurpose")

DATA_DIR_ENV = "REPURPOSE_DATA_DIR"


class ConfigError(Exception):
    """Bad invocation: missing files, inconsistent flags."""


def _data_paths(data_dir):
    paths = {name: os.path.join(data_dir, f"{name}.tsv")
             for name in ("compounds", "labels", "activities")}
    for path in paths.values():
        if not os.path.isfile(path):
            raise ConfigError(f"input file not found: {path}")
    return paths


def _load(data_dir):
    paths = _data_paths(data_dir)
    return load_corpus(paths["compounds"], paths["labels"], paths["activities"])


def _log_config(args):
    skip = {"func"}
    resolved = " ".join(
        f"{key}={value!r}" for key, value in sorted(vars(args).items())
        if key not in skip)
    log.info("resolved config: %s", resolved)


def _checked(build, **kwargs):
    """Build a config object, reporting its ValueError as a usage error."""
    try:
        return build(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _train_config(args):
    if not 0.0 <= args.sim_threshold <= 1.0:
        raise ConfigError(
            f"--sim-threshold must be in [0, 1], got {args.sim_threshold}")
    return _checked(TrainConfig, rank=args.rank, lam=args.lam,
                    max_iters=args.max_iters, rel_tol=args.tol, seed=args.seed)


def _parse_k_list(text):
    try:
        ks = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise ConfigError(f"bad -k list {text!r}; expected e.g. 30,50,100") from None
    if not ks or min(ks) < 1:
        raise ConfigError(f"bad -k list {text!r}; every k must be >= 1")
    return ks


def _check_source(corpus, source):
    """Report a label source the corpus cannot serve as a usage error."""
    try:
        corpus.label_index(source)
    except UnknownSourceError as exc:
        raise ConfigError(str(exc)) from None


def _similarity_source(choice, corpus):
    """Map a --similarity flag value to a label source of `corpus` or None."""
    if choice == "none":
        return None
    if choice.startswith("jaccard:") and len(choice) > len("jaccard:"):
        source = choice.split(":", 1)[1]
        _check_source(corpus, source)
        return source
    raise ConfigError(
        f"bad --similarity {choice!r}; expected 'none' or 'jaccard:<SOURCE>'")


# -- subcommands --------------------------------------------------------------

def cmd_ingest(args):
    corpus = _load(args.data_dir)
    print(f"compounds\t{corpus.n_compounds}")
    print(f"targets\t{len(corpus.target_ids())}")
    print(f"activity_records\t{corpus.n_activity_records}")
    for source in corpus.sources():
        print(f"labels[{source}]\t{len(corpus.source_labels(source))}")
    return 0


def cmd_generate_synthetic(args):
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    spec = _checked(
        SyntheticSpec, n_compounds=args.compounds, n_targets=args.targets,
        n_clusters=args.clusters, labels_per_compound=args.labels_per_compound,
        sources=tuple(args.sources.split(",")),
        activity_type=args.activity_type, label_noise=args.label_noise,
        activity_noise=args.activity_noise)
    paths, _ = generate_synthetic(spec, args.out_dir, seed=args.seed)
    for path in paths:
        print(path)
    return 0


def _edited_reference(directory, source, target):
    """Read DIR/reference_<source>.tsv; a bad file is a usage error."""
    path = os.path.join(directory, f"reference_{source}.tsv")
    if not os.path.isfile(path):
        raise ConfigError(f"edited reference file not found: {path}")
    try:
        reference = read_reference_set(path, target=target)
    except FormatError as exc:
        raise ConfigError(str(exc)) from None
    if reference.source != source:
        raise ConfigError(f"{path}: holds source {reference.source!r} rows, "
                          f"not {source!r} as its name says")
    return reference


def cmd_noir(args):
    corpus = _load(args.data_dir)
    sources = [s for s in args.sources.split(",") if s]
    if not sources:
        raise ConfigError("--sources is empty")
    if len(set(sources)) != len(sources):
        raise ConfigError(f"--sources {args.sources!r} repeats a source")
    if args.top_n < 1:
        raise ConfigError(f"--top-n must be >= 1, got {args.top_n}")
    # every flag and hand-edited query file is checked before any output
    configs, edited = {}, {}
    for source in sources:
        _check_source(corpus, source)
        configs[source] = _checked(
            ReferenceSetConfig,
            target=args.target,
            source=source,
            activity_type=args.activity_type,
            activity_threshold_nm=args.threshold,
            noise_cap=args.noise_cap,
            min_relevant_count=args.min_count,
            set_size=args.set_size,
        )
        if args.edited_references:
            edited[source] = _edited_reference(args.edited_references, source,
                                               args.target)
    os.makedirs(args.out_dir, exist_ok=True)

    results = {}
    for source in sources:
        if edited:
            # exclusion still uses the relevant set the corpus gives
            reference = edited[source]
            exclude = frozenset(corpus.compounds_for_target(
                args.target, args.activity_type, args.threshold))
        else:
            reference = build_reference_set(corpus, configs[source])
            exclude = reference.relevant
        if args.keep_relevant:
            exclude = frozenset()
        result = retrieve(corpus, reference, exclude=exclude, top_n=args.top_n)
        ref_path = os.path.join(args.out_dir, f"reference_{source}.tsv")
        hits_path = os.path.join(args.out_dir, f"retrieval_{source}.tsv")
        write_reference_set(reference, ref_path)
        write_retrieval_report(result, hits_path)
        log.info("source %s: %d reference labels, %d retrieved, %d excluded",
                 source, len(reference), len(result), len(result.excluded))
        results[source] = result

    if len(sources) < 2:
        log.warning("only one source requested; no consensus file written")
        return 0
    agreed = consensus(*results.values())
    consensus_path = os.path.join(args.out_dir, "consensus.tsv")
    with open(consensus_path, "w", encoding="utf-8") as fh:
        fh.write("compound_id\n")
        for compound in sorted(agreed):
            fh.write(compound + "\n")
    log.info("consensus: %d compounds -> %s", len(agreed), consensus_path)
    return 0


def _similarity_graph(corpus, source, interactions, threshold):
    """Build the Jaccard graph over the interaction matrix's compounds and
    log its size."""
    graph = build_similarity_matrix(corpus, source, interactions.compounds,
                                    threshold=threshold)
    n = graph.n_compounds
    log.info("similarity graph jaccard:%s: %d compounds, %d pairs, mean "
             "degree %.2f, %d isolated, %.1f MB stored", source, n,
             graph.n_pairs, 2 * graph.n_pairs / n if n else 0.0,
             np.count_nonzero(graph.degrees() == 0),
             graph.stored_bytes / 1e6)
    return graph


def _log_iteration():
    """An `on_iteration` callback logging J and its relative decrease."""
    previous = None

    def on_iteration(iteration, U, V, value):
        nonlocal previous
        # the first call has no J before it to compare with, and a J of 0
        # no relative decrease
        if previous:
            log.debug("iteration %d: J %.10g, relative decrease %.3g",
                      iteration, value, (previous - value) / previous)
        else:
            log.debug("iteration %d: J %.10g", iteration, value)
        previous = value
    return on_iteration


def _train_model(corpus, args):
    config = _train_config(args)
    source = _similarity_source(args.similarity, corpus)
    interactions = build_interaction_matrix(corpus, args.activity_type)
    if source is None or args.lam == 0:
        model = train_nmf(interactions, config, on_iteration=_log_iteration())
    else:
        similarity = _similarity_graph(corpus, source, interactions,
                                       args.sim_threshold)
        model = train_csnmf(interactions, similarity, config,
                            on_iteration=_log_iteration())
    return interactions, model


def cmd_train(args):
    corpus = _load(args.data_dir)
    _, model = _train_model(corpus, args)
    save_model(model, args.out)
    print(f"model\t{args.out}")
    print(f"shape\t{model.U.shape[0]}x{model.V.shape[0]}\trank\t{model.rank}")
    print(f"iterations\t{len(model.objective_trace) - 1}")
    print(f"objective\t{model.objective_trace[-1]:.6f}")
    print(f"converged\t{int(model.converged)}")
    return 0


def cmd_evaluate(args):
    config = _train_config(args)
    k_list = _parse_k_list(args.k)
    if args.folds < 2:
        raise ConfigError(f"--folds must be at least 2, got {args.folds}")
    if min(args.min_train_targets, args.min_test_targets) < 1:
        raise ConfigError(
            "--min-train-targets and --min-test-targets must be >= 1")
    if args.sample_size < 1:
        raise ConfigError(f"--sample-size must be >= 1, got {args.sample_size}")
    corpus = _load(args.data_dir)
    sources = [_similarity_source(choice, corpus)
               for choice in args.similarity or ["none"]]
    interactions = build_interaction_matrix(corpus, args.activity_type)
    os.makedirs(args.out_dir, exist_ok=True)

    reports = []
    seen = set()
    for source in sources:
        regularized = source is not None and args.lam != 0
        label = f"CS-NMF:{source}" if regularized else "NMF"
        if label in seen:
            log.warning("variant %s already evaluated; skipping duplicate", label)
            continue
        seen.add(label)
        similarity = (_similarity_graph(corpus, source, interactions,
                                        args.sim_threshold)
                      if regularized else None)
        report = cross_validate(
            interactions, config, S=similarity, n_folds=args.folds,
            k_list=k_list, sample_size=args.sample_size,
            min_train_targets=args.min_train_targets,
            min_test_targets=args.min_test_targets, seed=args.seed,
            exclude_train_targets=not args.include_train_targets, label=label)
        reports.append(report)
        curve_path = os.path.join(
            args.out_dir, f"rank_recall_{label.replace(':', '_')}.tsv")
        write_rank_recall_tsv(report, curve_path)
        log.info("%s: mean RMSE %.4f over %d folds, %d sampled compounds",
                 label, report.mean_rmse, args.folds, report.n_sampled)
        if not all(report.fold_converged):
            log.warning("%s: %d of %d folds stopped at max_iters (%d) without "
                        "converging", label, report.fold_converged.count(False),
                        len(report.fold_converged), config.max_iters)

    write_eval_report_tsv(reports, os.path.join(args.out_dir, "eval_report.tsv"))
    table = format_eval_table(reports)
    with open(os.path.join(args.out_dir, "eval_report.txt"), "w",
              encoding="utf-8") as fh:
        fh.write(table)
    print(table, end="")
    return 0


def cmd_recommend(args):
    if args.k < 1:
        raise ConfigError(f"-k must be >= 1, got {args.k}")
    if not os.path.isfile(args.model):
        raise ConfigError(f"model file not found: {args.model}")
    model = load_model(args.model)
    compounds = [c for c in args.compounds.split(",") if c]
    if not compounds:
        raise ConfigError("--compounds is empty")

    known = {}
    if not args.include_known:
        corpus = _load(args.data_dir)
        for compound in compounds:
            known[compound] = corpus.targets_of(compound, args.activity_type)

    lines = ["compound_id\trank\ttarget_id\tscore"]
    for compound in compounds:
        row = model.row_of(compound)
        scores = model.score_targets(row).copy()
        for target in known.get(compound, ()):
            col = model.target_pos.get(target)
            if col is not None:
                scores[col] = -np.inf
        order = np.argsort(-scores, kind="stable")
        rank = 0
        for col in order:
            if rank >= args.k or scores[col] == -np.inf:
                break
            rank += 1
            lines.append(
                f"{compound}\t{rank}\t{model.targets[int(col)]}\t{scores[col]!r}")
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text, end="")
    return 0


# -- parser -------------------------------------------------------------------

def _add_data_dir(parser):
    parser.add_argument(
        "--data-dir", default=os.environ.get(DATA_DIR_ENV, "."),
        help="directory holding compounds.tsv/labels.tsv/activities.tsv "
             f"(default: ${DATA_DIR_ENV} or current directory)")


def _add_train_flags(parser):
    parser.add_argument("--activity-type", default="IC50",
                        help="activity type entering the matrix (default IC50)")
    parser.add_argument("--rank", type=int, default=50,
                        help="latent dimension (default 50)")
    parser.add_argument("--lambda", dest="lam", type=float, default=0.1,
                        help="similarity regularization weight (default 0.1)")
    parser.add_argument("--max-iters", type=int, default=200)
    parser.add_argument("--tol", type=float, default=1e-5,
                        help="relative objective-decrease stopping tolerance")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--sim-threshold", type=float, default=0.0,
                        help="keep similarities >= this value (default 0)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repurpose",
        description="Ontology-label retrieval and NMF recommendation over "
                    "compound-target activity data.")
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="-v for debug logging")
    parser.add_argument("-q", "--quiet", action="store_true",
                        help="only warnings and errors")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="load and summarize a corpus")
    _add_data_dir(p)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("generate-synthetic",
                       help="write a planted synthetic corpus")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--compounds", type=int, default=200)
    p.add_argument("--targets", type=int, default=20)
    p.add_argument("--clusters", type=int, default=4)
    p.add_argument("--labels-per-compound", type=int, default=8)
    p.add_argument("--sources", default="CF,OC")
    p.add_argument("--activity-type", default="IC50")
    p.add_argument("--label-noise", type=float, default=0.0)
    p.add_argument("--activity-noise", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_generate_synthetic)

    p = sub.add_parser("noir",
                       help="build reference label sets, retrieve, intersect")
    _add_data_dir(p)
    p.add_argument("--target", required=True)
    p.add_argument("--sources", default="CF,OC",
                   help="comma-separated label sources (default CF,OC)")
    p.add_argument("--activity-type", default="EC50")
    p.add_argument("--threshold", type=float, default=30.0,
                   help="relevant set: activity strictly below this (nM)")
    p.add_argument("--noise-cap", type=int, default=200_000,
                   help="drop labels whose corpus count exceeds this")
    p.add_argument("--min-count", type=int, default=2,
                   help="minimum observed count among relevant compounds")
    p.add_argument("--set-size", type=int, default=20,
                   help="reference set size (default 20)")
    p.add_argument("--top-n", type=int, default=100,
                   help="retrieval depth per source (default 100)")
    p.add_argument("--keep-relevant", action="store_true",
                   help="do not exclude the relevant set from retrieval")
    p.add_argument("--edited-references", metavar="DIR", default=None,
                   help="retrieve against hand-edited reference_<SOURCE>.tsv "
                        "files from DIR instead of rebuilding them")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_noir)

    p = sub.add_parser("train", help="train a factor model and save it")
    _add_data_dir(p)
    _add_train_flags(p)
    p.add_argument("--similarity", default="none",
                   help="none | jaccard:CF | jaccard:OC | jaccard:MORGAN")
    p.add_argument("--out", required=True, help="model output path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate",
                       help="cross-validate one or more model variants")
    _add_data_dir(p)
    _add_train_flags(p)
    p.add_argument("--similarity", action="append",
                   help="repeatable: none | jaccard:<SOURCE> (default none)")
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("-k", default="30,50,100",
                   help="comma-separated recall depths (default 30,50,100)")
    p.add_argument("--sample-size", type=int, default=10_000)
    p.add_argument("--min-train-targets", type=int, default=3)
    p.add_argument("--min-test-targets", type=int, default=3)
    p.add_argument("--include-train-targets", action="store_true",
                   help="rank training targets too instead of excluding them")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("recommend",
                       help="rank targets for compounds using a saved model")
    _add_data_dir(p)
    p.add_argument("--model", required=True)
    p.add_argument("--compounds", required=True,
                   help="comma-separated compound ids")
    p.add_argument("-k", type=int, default=30)
    p.add_argument("--activity-type", default="IC50",
                   help="activity type defining known targets (default IC50)")
    p.add_argument("--include-known", action="store_true",
                   help="rank known training targets too")
    p.add_argument("--out", default=None, help="write TSV here instead of stdout")
    p.set_defaults(func=cmd_recommend)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.quiet:
        level = logging.WARNING
    elif args.verbose:
        level = logging.DEBUG
    else:
        level = logging.INFO
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(message)s"))
    package_log = logging.getLogger("repurpose")
    package_log.handlers.clear()
    package_log.addHandler(handler)
    package_log.setLevel(level)
    _log_config(args)

    try:
        return args.func(args)
    except ConfigError as exc:
        log.error("%s", exc)
        return 2
    except RepurposeError as exc:
        log.error("%s", exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
