#!/usr/bin/env python3
"""The compound similarity graph: pairwise Jaccard over label sets.

Any label source doubles as a binary fingerprint: the set of labels a
compound carries. The Jaccard similarity of every pair of compounds forms
one symmetric matrix with no diagonal, which can be thresholded and is
handed as is to the regularized trainer. Only its upper triangle is stored,
each unordered pair once, and its triplets list those pairs row-major.
"""

import tempfile

import numpy as np

from repurpose import (
    SyntheticSpec,
    build_similarity_matrix,
    generate_synthetic,
    load_corpus,
)

workdir = tempfile.mkdtemp(prefix="repurpose_demo_")
spec = SyntheticSpec(n_compounds=120, n_targets=12, n_clusters=4,
                     labels_per_compound=6, pool_size=12, label_noise=0.2)
paths, truth = generate_synthetic(spec, workdir, seed=5)
corpus = load_corpus(paths.compounds, paths.labels, paths.activities)

matrix = build_similarity_matrix(corpus, "CF")
a, b, c = "C00000", "C00004", "C00001"  # 0 and 4 share a cluster
for compound in (a, b):
    print(f"{compound}: labels {sorted(corpus.labels_of(compound, 'CF'))}")
print(f"same cluster:  get({a}, {b}) = {matrix.get(a, b):.3f}")
print(f"other cluster: get({a}, {c}) = {matrix.get(a, c):.3f}")

for threshold in (0.0, 0.3, 0.6):
    thresholded = build_similarity_matrix(corpus, "CF", threshold=threshold)
    print(f"\nthreshold {threshold:.1f}: {thresholded.n_pairs} stored pairs "
          f"of {120 * 119 // 2} possible")

matrix = build_similarity_matrix(corpus, "CF", threshold=0.3)
rows, cols, values = matrix.triplets()
first, second = matrix.compounds[rows[0]], matrix.compounds[cols[0]]
print(f"\nsymmetric lookup: get({first}, {second}) = "
      f"{matrix.get(first, second):.3f} = get({second}, {first}) = "
      f"{matrix.get(second, first):.3f}")

# the planted clusters show in the graph: count the stored pairs whose two
# compounds share a cluster
cluster = truth.compound_cluster
same = sum(cluster[matrix.compounds[i]] == cluster[matrix.compounds[j]]
           for i, j in zip(rows.tolist(), cols.tolist()))
print(f"\n{same} of {matrix.n_pairs} stored pairs join compounds of one "
      f"planted cluster")
degrees = matrix.degrees()
print(f"weighted degree per compound: min {degrees.min():.2f}, "
      f"median {np.median(degrees):.2f}, max {degrees.max():.2f}")
print("first stored pairs (upper triangle, row-major):")
for i, j, value in list(zip(rows.tolist(), cols.tolist(), values.tolist()))[:3]:
    print(f"  {matrix.compounds[i]}\t{matrix.compounds[j]}\t{value!r}")
