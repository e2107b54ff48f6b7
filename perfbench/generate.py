"""Seeded planted-cluster corpora for the benchmark, independent of the package.

The benchmark builds its inputs here rather than with `repurpose.synthetic`,
so a change to the package cannot change what a workload is fed.  Run as a
script in its own process, before anything is timed:

    python3 perfbench/generate.py --shape corpus-20k --seed 7 --out DIR

It writes the three corpus TSVs the package loads (compounds, labels,
activities) plus `truth.json`: the planted cluster of every compound and
target, and the (compound, target) records held out of `activities.tsv`.

Structure: compounds and targets are dealt into clusters by a seeded
permutation.  Under each label source a cluster owns a pool of labels; every
compound carries the pool's core labels and a seeded choice of the rest, so
same-cluster compounds share labels.  A compound records activity against
a seeded subset of its own cluster's targets, and with probability
`activity_noise` one weak record against a foreign target.  With
probability `label_noise` a compound also carries one foreign label.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

ACTIVITY_TYPE = "IC50"
SOURCES = ("CF", "OC")

# name -> generator parameters.  `corpus-20k` feeds noir-screen-20k and
# forward-20k; `corpus-2k` is the 2,000 x 200 planted corpus of the package's
# acceptance sweep; the tiny shapes keep the benchmark's own tests fast.
SHAPES = {
    "corpus-20k": dict(
        n_compounds=20_000, n_targets=400, n_clusters=40,
        label_noise=0.0, activity_noise=0.0, held_out=500),
    "corpus-2k": dict(
        n_compounds=2_000, n_targets=200, n_clusters=5,
        label_noise=0.1, activity_noise=0.3, held_out=0),
    "tiny-screen": dict(
        n_compounds=400, n_targets=40, n_clusters=4,
        label_noise=0.0, activity_noise=0.0, held_out=40),
    "tiny-cv": dict(
        n_compounds=300, n_targets=40, n_clusters=3,
        label_noise=0.1, activity_noise=0.3, held_out=0),
}

LABELS_PER_COMPOUND = 8
CORE_LABELS = 2
POOL_SIZE = 16
TARGETS_PER_COMPOUND = (10, 20)
POTENT_FRACTION = 0.35
POTENT_RANGE_NM = (1.0, 25.0)
MODERATE_RANGE_NM = (500.0, 9500.0)
WEAK_RANGE_NM = (12_000.0, 30_000.0)


def pool_label(source, cluster, index):
    return f"{source}:g{cluster:03d}:{index:02d}"


def _foreign(rng, own, n_clusters):
    """A uniformly drawn cluster other than `own`, per element."""
    other = rng.integers(n_clusters - 1, size=len(own))
    return np.where(other < own, other, other + 1)


def generate(shape, seed):
    """Build one corpus in memory: (compounds, label_rows, activity_rows, truth)."""
    p = SHAPES[shape]
    n, m, k = p["n_compounds"], p["n_targets"], p["n_clusters"]
    rng = np.random.default_rng([seed, n, m, k])
    compounds = [f"C{i:05d}" for i in range(n)]
    targets = [f"T{j:04d}" for j in range(m)]
    compound_cluster = rng.permutation(n) % k
    target_cluster = rng.permutation(m) % k
    targets_by_cluster = [np.flatnonzero(target_cluster == g) for g in range(k)]

    label_rows = []
    extras = LABELS_PER_COMPOUND - CORE_LABELS
    for source in SOURCES:
        picks = rng.random((n, POOL_SIZE - CORE_LABELS)).argsort(axis=1)[:, :extras]
        noisy = rng.random(n) < p["label_noise"]
        foreign_cluster = _foreign(rng, compound_cluster, k)
        foreign_index = rng.integers(POOL_SIZE, size=n)
        for i, cid in enumerate(compounds):
            g = compound_cluster[i]
            chosen = {pool_label(source, g, x) for x in range(CORE_LABELS)}
            chosen.update(pool_label(source, g, CORE_LABELS + int(x))
                          for x in picks[i])
            if noisy[i]:
                chosen.add(pool_label(source, foreign_cluster[i], foreign_index[i]))
            label_rows.extend((cid, source, label) for label in sorted(chosen))

    lo, hi = TARGETS_PER_COMPOUND
    counts = rng.integers(lo, hi + 1, size=n)
    noisy = rng.random(n) < p["activity_noise"]
    foreign_cluster = _foreign(rng, compound_cluster, k)
    records = []  # (compound index, target index, value_nm)
    for i in range(n):
        own = targets_by_cluster[compound_cluster[i]]
        picked = np.sort(rng.choice(own, size=min(counts[i], len(own)),
                                    replace=False))
        potent = rng.random(len(picked)) < POTENT_FRACTION
        values = np.where(potent, rng.uniform(*POTENT_RANGE_NM, len(picked)),
                          rng.uniform(*MODERATE_RANGE_NM, len(picked)))
        records.extend((i, int(j), float(v)) for j, v in zip(picked, values))
        if noisy[i]:
            foreign = targets_by_cluster[foreign_cluster[i]]
            records.append((i, int(rng.choice(foreign)),
                            float(rng.uniform(*WEAK_RANGE_NM))))

    # Held-out records: one own-cluster record each from a seeded sample of
    # compounds, kept out of the TSVs so forward recommendation has planted
    # answers it has never seen.
    held = []
    if p["held_out"]:
        own_rows = {}
        for at, (i, j, _) in enumerate(records):
            if target_cluster[j] == compound_cluster[i]:
                own_rows.setdefault(i, []).append(at)
        drop = set()
        for i in np.sort(rng.choice(n, size=p["held_out"], replace=False)):
            rows = own_rows[int(i)]
            at = rows[int(rng.integers(len(rows)))]
            drop.add(at)
            held.append((compounds[i], targets[records[at][1]]))
        records = [r for at, r in enumerate(records) if at not in drop]
    activity_rows = [(compounds[i], targets[j], v) for i, j, v in records]

    truth = {
        "shape": shape,
        "seed": seed,
        "compound_cluster": [int(g) for g in compound_cluster],
        "target_cluster": [int(g) for g in target_cluster],
        "held_out": held,
    }
    return compounds, label_rows, activity_rows, truth


def write(out_dir, compounds, label_rows, activity_rows, truth):
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "compounds.tsv"), "w", encoding="utf-8") as fh:
        fh.write("compound_id\tsmiles\n")
        fh.writelines(f"{c}\t\n" for c in compounds)
    with open(os.path.join(out_dir, "labels.tsv"), "w", encoding="utf-8") as fh:
        fh.write("compound_id\tsource\tlabel\n")
        fh.writelines(f"{c}\t{s}\t{l}\n" for c, s, l in label_rows)
    with open(os.path.join(out_dir, "activities.tsv"), "w", encoding="utf-8") as fh:
        fh.write("compound_id\ttarget_id\tactivity_type\tvalue_nM\n")
        fh.writelines(f"{c}\t{t}\t{ACTIVITY_TYPE}\t{v:.4f}\n"
                      for c, t, v in activity_rows)
    with open(os.path.join(out_dir, "truth.json"), "w", encoding="utf-8") as fh:
        json.dump(truth, fh)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--shape", choices=sorted(SHAPES), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    write(args.out, *generate(args.shape, args.seed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
