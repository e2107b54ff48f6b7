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
import re
import sys

import numpy as np

from . import __version__
from .corpus import load_corpus
from .errors import FormatError, RepurposeError, UnknownSourceError
from .evaluation import (
    _recall_arguments,
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
    DEFAULT_ACTIVITY_TYPE,
    DEFAULT_MIN_RELEVANT_COUNT,
    DEFAULT_NOISE_CAP,
    DEFAULT_SET_SIZE,
    DEFAULT_THRESHOLD_NM,
    DEFAULT_TOP_N,
    ReferenceSetConfig,
    build_reference_set,
    consensus,
    read_reference_set,
    retrieve,
    write_reference_set,
    write_retrieval_report,
)
from .ranking import top_columns
from .similarity import build_similarity_matrix
from .synthetic import SyntheticSpec, generate_synthetic
from .tsv import tsv_text, write_tsv

log = logging.getLogger("repurpose")

DATA_DIR_ENV = "REPURPOSE_DATA_DIR"


class ConfigError(Exception):
    """Bad invocation: missing files, inconsistent flags."""


def _load(data_dir):
    paths = [os.path.join(data_dir, f"{name}.tsv")
             for name in ("compounds", "labels", "activities")]
    for path in paths:
        if not os.path.isfile(path):
            raise ConfigError(f"input file not found: {path}")
    return load_corpus(*paths)


def _check_output(path, directory=False):
    """Report an output path that cannot be written as a usage error.  A
    file is written over or made in an existing directory; with `directory`,
    a directory is reused or made under the nearest existing one above it."""
    target, want_dir = os.path.abspath(path), directory
    if not os.path.exists(target):
        target, want_dir = os.path.dirname(target), True
        while directory and not os.path.exists(target):
            target = os.path.dirname(target)
    if os.path.isdir(target) != want_dir or not os.access(target, os.W_OK):
        kind = "directory" if directory else "file"
        raise ConfigError(f"cannot write output {kind} {path}")


def _log_config(args):
    skip = {"func"}
    resolved = " ".join(
        f"{key}={value!r}" for key, value in sorted(vars(args).items())
        if key not in skip)
    log.info("resolved config: %s", resolved)


def _checked(build, **flagged):
    """Build a config object from `argument=(flag, value)` pairs; its
    ValueError becomes a usage error that names the flags, not arguments."""
    try:
        return build(**{name: value for name, (_, value) in flagged.items()})
    except ValueError as exc:
        flags = {name: flag for name, (flag, _) in flagged.items()}
        raise ConfigError(re.sub(r"\w+", lambda m: flags.get(m[0], m[0]),
                                 str(exc))) from None


def _train_config(args):
    if not 0.0 <= args.sim_threshold <= 1.0:
        raise ConfigError(
            f"--sim-threshold must be in [0, 1], got {args.sim_threshold}")
    return _checked(
        TrainConfig, rank=("--rank", args.rank), lam=("--lambda", args.lam),
        max_iters=("--max-iters", args.max_iters), rel_tol=("--tol", args.tol),
        seed=("--seed", args.seed))


def _parse_k_list(text):
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise ConfigError(f"bad -k list {text!r}; expected e.g. 30,50,100") from None


def _check_source(corpus, source):
    """Report a label source the corpus cannot serve as a usage error."""
    try:
        corpus.label_index(source)
    except UnknownSourceError as exc:
        raise ConfigError(str(exc)) from None


def _similarity_source(choice, corpus, lam):
    """Map a --similarity flag value to a label source of `corpus`, or to
    None when no graph is asked for or a zero `lam` would not use it."""
    if choice == "none":
        return None
    if choice.startswith("jaccard:") and len(choice) > len("jaccard:"):
        source = choice.split(":", 1)[1]
        _check_source(corpus, source)
        return source if lam > 0 else None
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
        SyntheticSpec, n_compounds=("--compounds", args.compounds),
        n_targets=("--targets", args.targets),
        n_clusters=("--clusters", args.clusters),
        labels_per_compound=("--labels-per-compound",
                             args.labels_per_compound),
        sources=("--sources", tuple(args.sources.split(","))),
        activity_type=("--activity-type", args.activity_type),
        label_noise=("--label-noise", args.label_noise),
        activity_noise=("--activity-noise", args.activity_noise))
    _check_output(args.out_dir, directory=True)
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
    sources = [s for s in args.sources.split(",") if s]
    if not sources:
        raise ConfigError("--sources is empty")
    if len(set(sources)) != len(sources):
        raise ConfigError(f"--sources {args.sources!r} repeats a source")
    if args.top_n < 1:
        raise ConfigError(f"--top-n must be >= 1, got {args.top_n}")
    _check_output(args.out_dir, directory=True)
    # every flag and hand-edited query file is checked before the corpus is
    # read, and the sources against the corpus before any output
    configs = {source: _checked(
        ReferenceSetConfig, target=("--target", args.target),
        source=("--sources", source),
        activity_type=("--activity-type", args.activity_type),
        activity_threshold_nm=("--threshold", args.threshold),
        noise_cap=("--noise-cap", args.noise_cap),
        min_relevant_count=("--min-count", args.min_count),
        set_size=("--set-size", args.set_size)) for source in sources}
    edited = {source: _edited_reference(args.edited_references, source,
                                        args.target)
              for source in sources if args.edited_references}
    corpus = _load(args.data_dir)
    for source in sources:
        _check_source(corpus, source)
    os.makedirs(args.out_dir, exist_ok=True)

    if edited:
        # exclusion still uses the relevant set the corpus gives
        relevant = corpus.compounds_for_target(
            args.target, args.activity_type, args.threshold)
    results = {}
    for source in sources:
        reference = (edited[source] if edited
                     else build_reference_set(corpus, configs[source]))
        exclude = () if args.keep_relevant else (
            relevant if edited else reference.relevant)
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
    write_tsv(consensus_path, ("compound_id",),
              ((compound,) for compound in sorted(agreed)))
    log.info("consensus: %d compounds -> %s", len(agreed), consensus_path)
    return 0


def _build_graph(corpus, source, interactions, threshold):
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


def cmd_train(args):
    config = _train_config(args)
    _check_output(args.out)
    corpus = _load(args.data_dir)
    source = _similarity_source(args.similarity, corpus, config.lam)
    interactions = build_interaction_matrix(corpus, args.activity_type)
    if source is None:
        model = train_nmf(interactions, config, on_iteration=_log_iteration())
    else:
        similarity = _build_graph(corpus, source, interactions,
                                  args.sim_threshold)
        model = train_csnmf(interactions, similarity, config,
                            on_iteration=_log_iteration())
    if not model.converged:
        log.warning("training stopped at max_iters (%d) without converging",
                    config.max_iters)
    save_model(model, args.out)
    print(f"model\t{args.out}")
    print(f"shape\t{model.U.shape[0]}x{model.V.shape[0]}\trank\t{model.rank}")
    print(f"iterations\t{len(model.objective_trace) - 1}")
    print(f"objective\t{model.objective_trace[-1]:.6f}")
    print(f"converged\t{int(model.converged)}")
    return 0


def cmd_evaluate(args):
    config = _train_config(args)
    k_list = _checked(
        _recall_arguments, k_list=("-k", _parse_k_list(args.k)),
        sample_size=("--sample-size", args.sample_size),
        min_train_targets=("--min-train-targets", args.min_train_targets),
        min_test_targets=("--min-test-targets", args.min_test_targets))
    if args.folds < 2:
        raise ConfigError(f"--folds must be at least 2, got {args.folds}")
    _check_output(args.out_dir, directory=True)
    corpus = _load(args.data_dir)
    sources = [_similarity_source(choice, corpus, config.lam)
               for choice in args.similarity or ["none"]]
    interactions = build_interaction_matrix(corpus, args.activity_type)
    os.makedirs(args.out_dir, exist_ok=True)

    reports = []
    seen = set()
    for source in sources:
        label = "NMF" if source is None else f"CS-NMF:{source}"
        if label in seen:
            log.warning("variant %s already evaluated; skipping duplicate", label)
            continue
        seen.add(label)
        similarity = (None if source is None else
                      _build_graph(corpus, source, interactions,
                                   args.sim_threshold))
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
    compounds = [c for c in args.compounds.split(",") if c]
    if not compounds:
        raise ConfigError("--compounds is empty")
    if args.out:
        _check_output(args.out)
    model = load_model(args.model)

    known = {}
    if not args.include_known:
        corpus = _load(args.data_dir)
        known = {c: corpus.targets_of(c, args.activity_type) for c in compounds}

    rows = []
    for compound in compounds:
        row = model.row_of(compound)
        scores = model.score_targets(row)
        for target in known.get(compound, ()):
            col = model.target_pos.get(target)
            if col is not None:
                scores[col] = -np.inf
        rows.extend(
            (compound, str(rank), model.targets[col], repr(float(scores[col])))
            for rank, col in enumerate(top_columns(scores, args.k).tolist(),
                                       start=1))
    columns = ("compound_id", "rank", "target_id", "score")
    if args.out:
        write_tsv(args.out, columns, rows)
    else:
        print(tsv_text(columns, rows), end="")
    return 0


# -- parser -------------------------------------------------------------------

def _add_data_dir(parser):
    parser.add_argument(
        "--data-dir", default=os.environ.get(DATA_DIR_ENV, "."),
        help="directory holding compounds.tsv/labels.tsv/activities.tsv "
             f"(default: ${DATA_DIR_ENV} or current directory)")


def _add_train_flags(parser):
    defaults = TrainConfig()
    parser.add_argument("--activity-type", default="IC50",
                        help="activity type entering the matrix (default IC50)")
    parser.add_argument("--rank", type=int, default=defaults.rank,
                        help="latent dimension (default %(default)s)")
    parser.add_argument("--lambda", dest="lam", type=float,
                        default=defaults.lam,
                        help="similarity regularization weight "
                             "(default %(default)s)")
    parser.add_argument("--max-iters", type=int, default=defaults.max_iters)
    parser.add_argument("--tol", type=float, default=defaults.rel_tol,
                        help="relative objective-decrease stopping tolerance")
    parser.add_argument("--seed", type=int, default=defaults.seed)
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
    p.add_argument("--activity-type", default=DEFAULT_ACTIVITY_TYPE)
    p.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD_NM,
                   help="relevant set: activity strictly below this (nM)")
    p.add_argument("--noise-cap", type=int, default=DEFAULT_NOISE_CAP,
                   help="drop labels whose corpus count exceeds this")
    p.add_argument("--min-count", type=int, default=DEFAULT_MIN_RELEVANT_COUNT,
                   help="minimum observed count among relevant compounds")
    p.add_argument("--set-size", type=int, default=DEFAULT_SET_SIZE,
                   help="reference set size (default %(default)s)")
    p.add_argument("--top-n", type=int, default=DEFAULT_TOP_N,
                   help="retrieval depth per source (default %(default)s)")
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
