#!/usr/bin/env python3
"""Build a small corpus from TSV files and poke at its indexes.

The corpus is the shared substrate of both pipelines: compounds carrying
per-source label sets, plus activity records aggregated to the most potent
measurement per (compound, target, activity type).
"""

import tempfile

from repurpose import SyntheticSpec, generate_synthetic, load_corpus

workdir = tempfile.mkdtemp(prefix="repurpose_demo_")

# A tiny planted corpus: 3 clusters of compounds sharing label pools and
# target affinities. Real data would come from exported database tables in
# the same three-file layout.
spec = SyntheticSpec(n_compounds=30, n_targets=6, n_clusters=3,
                     labels_per_compound=5, pool_size=10)
paths, truth = generate_synthetic(spec, workdir, seed=0)
print("wrote:", *paths, sep="\n  ")

corpus = load_corpus(paths.compounds, paths.labels, paths.activities)
print("\nloaded:", corpus)

compound = corpus.compound_ids()[0]
print(f"\nlabels of {compound} under each source:")
for source in corpus.sources():
    print(f"  {source}: {sorted(corpus.labels_of(compound, source))}")

# Corpus-wide label counts are what the retrieval scoring calls C_i.
label = sorted(corpus.labels_of(compound, "CF"))[0]
print(f"\ncorpus count of {label!r}: {corpus.label_count('CF', label)} "
      f"of {corpus.n_compounds} compounds")

# Activity queries: strictly-below threshold, in nanomolar.
target = corpus.target_ids()[0]
potent = corpus.compounds_for_target(target, "IC50", 30.0)
anyrec = corpus.compounds_for_target(target, "IC50", float("inf"))
print(f"\n{target}: {len(anyrec)} compounds with IC50 records, "
      f"{len(potent)} below 30 nM")

# Each activity type is one compound x target matrix of the most potent
# (minimum) value per pair; an absent pair is simply not stored.
print("\nfirst few aggregated records of each activity type:")
compounds, targets = corpus.compound_ids(), corpus.target_ids()
for activity_type in corpus.activity_types():
    records = corpus.activity_matrix(activity_type).tocoo()
    for i, j, value in list(zip(records.row, records.col, records.data))[:5]:
        print(f"  {compounds[i]} x {targets[j]}: "
              f"{activity_type} = {value:.1f} nM")
