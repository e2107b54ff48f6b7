"""Drug-repurposing toolkit over ontology-labeled compound-target corpora.

Two complementary pipelines share one corpus:

- label retrieval: score ontology labels against the high-activity
  compounds of a target, build a human-editable reference query, rank the
  rest of the corpus against it, and intersect rankings across label
  sources (inverse repurposing: new compounds for a target);
- matrix factorization: transform activity values into a nonnegative
  interaction matrix, train plain or similarity-regularized NMF by
  multiplicative updates, and rank targets per compound (forward
  repurposing: new targets for a compound).

An evaluation layer reproduces the cross-validation protocol (fold splits,
test RMSE, recall-at-k, rank-recall curves) and generates planted synthetic
corpora for desk-scale end-to-end checks.
"""

__version__ = "0.1.0"

from .corpus import (
    CLASSYFIRE,
    MORGAN,
    ONTOCHEM,
    Corpus,
    LabelIndex,
    load_corpus,
)
from .errors import (
    EvalError,
    FactorizationError,
    FormatError,
    NoInteractionsError,
    NoRelevantCompoundsError,
    RepurposeError,
    UnknownCompoundError,
    UnknownSourceError,
    UnknownTargetError,
)
from .evaluation import (
    EvalReport,
    RecallResult,
    cross_validate,
    format_eval_table,
    recall_at_k,
    rmse,
    split_folds,
    training_matrix,
    write_eval_report_tsv,
    write_rank_recall_tsv,
)
from .factorization import (
    FactorModel,
    InteractionMatrix,
    TrainConfig,
    build_interaction_matrix,
    load_model,
    save_model,
    train_csnmf,
    train_nmf,
    transform_activity,
)
from .noir import (
    RankedCompound,
    ReferenceLabelSet,
    ReferenceSetConfig,
    RetrievalResult,
    ScoredLabel,
    build_reference_set,
    consensus,
    read_reference_set,
    retrieve,
    write_reference_set,
    write_retrieval_report,
)
from .ranking import top_columns
from .similarity import (
    SimilarityMatrix,
    build_similarity_matrix,
)
from .synthetic import (
    SyntheticPaths,
    SyntheticSpec,
    SyntheticTruth,
    generate_synthetic,
)

__all__ = [name for name in dir() if not name.startswith("_")]
