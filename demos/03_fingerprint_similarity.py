#!/usr/bin/env python3
"""Fingerprints and pairwise Jaccard similarity.

Any label source doubles as a binary fingerprint: the set of labels a
compound carries. The similarity matrix is one symmetric sparse matrix
(both triangles, no diagonal), can be thresholded, and is handed as is to
the regularized trainer; its pair listings show each unordered pair once.
"""

import tempfile

from repurpose import (
    SyntheticSpec,
    build_fingerprints,
    build_similarity_matrix,
    generate_synthetic,
    jaccard,
    load_corpus,
    write_similarity_tsv,
)

workdir = tempfile.mkdtemp(prefix="repurpose_demo_")
spec = SyntheticSpec(n_compounds=120, n_targets=12, n_clusters=4,
                     labels_per_compound=6, pool_size=12, label_noise=0.2)
paths, truth = generate_synthetic(spec, workdir, seed=5)
corpus = load_corpus(paths.compounds, paths.labels, paths.activities)

prints = build_fingerprints(corpus, "CF")
a, b, c = prints[0], prints[4], prints[1]  # 0 and 4 share a cluster
print(f"{a.compound}: bits {sorted(a.bits)}")
print(f"{b.compound}: bits {sorted(b.bits)}")
print(f"same cluster:  jaccard({a.compound}, {b.compound}) = {jaccard(a, b):.3f}")
print(f"other cluster: jaccard({a.compound}, {c.compound}) = {jaccard(a, c):.3f}")

for threshold in (0.0, 0.3, 0.6):
    matrix = build_similarity_matrix(corpus, "CF", threshold=threshold)
    print(f"\nthreshold {threshold:.1f}: {matrix.n_pairs} stored pairs "
          f"of {120 * 119 // 2} possible")

matrix = build_similarity_matrix(corpus, "CF", threshold=0.3)
pair = next(matrix.pairs())
print(f"\nsymmetric lookup: get({pair[0]}, {pair[1]}) = "
      f"{matrix.get(pair[0], pair[1]):.3f} = get({pair[1]}, {pair[0]}) = "
      f"{matrix.get(pair[1], pair[0]):.3f}")

dump = f"{workdir}/similarities.tsv"
write_similarity_tsv(matrix, dump)
print(f"\nwrote pair dump to {dump}")
with open(dump) as fh:
    for line in list(fh)[:4]:
        print("  " + line.rstrip())
