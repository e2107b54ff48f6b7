"""Deterministic synthetic corpora with planted cluster structure.

Compounds are grouped into clusters that share per-source label pools and
target affinities, so the cluster map is recoverable both from fingerprints
(every pair of same-cluster compounds shares the pool's core labels) and
from activity data (records concentrate on the cluster's own targets).
Noise knobs add off-cluster labels and weak off-cluster activity records.
The generated files round-trip through the corpus loader, and the same seed
always produces byte-identical files.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# Labels of its cluster's pool that every compound carries, per source.
_CORE_LABELS = 2
# Own-cluster records are potent at this rate, else moderate; noise is weak.
_POTENT_FRACTION = 0.35
_POTENT_RANGE_NM = (1.0, 25.0)
_MODERATE_RANGE_NM = (500.0, 9500.0)
_WEAK_RANGE_NM = (12_000.0, 30_000.0)


@dataclass(frozen=True)
class SyntheticSpec:
    """Shape and noise parameters of a planted corpus."""

    n_compounds: int
    n_targets: int
    n_clusters: int
    labels_per_compound: int = 8
    pool_size: int = 16
    sources: tuple[str, ...] = ("CF", "OC")
    activity_type: str = "IC50"
    targets_per_compound: tuple[int, int] = (4, 10)
    label_noise: float = 0.0
    activity_noise: float = 0.0

    def __post_init__(self):
        if self.n_clusters < 1:
            raise ValueError("n_clusters must be >= 1")
        if self.n_clusters > self.n_compounds:
            raise ValueError("more clusters than compounds")
        if self.n_clusters > self.n_targets:
            raise ValueError("more clusters than targets")
        if self.labels_per_compound < _CORE_LABELS:
            raise ValueError("labels_per_compound is below the core labels")
        if self.labels_per_compound > self.pool_size:
            raise ValueError("labels_per_compound exceeds the cluster pool size")
        if not self.sources:
            raise ValueError("need at least one label source")
        lo, hi = self.targets_per_compound
        if not 1 <= lo <= hi:
            raise ValueError("targets_per_compound must be an increasing range >= 1")
        for rate in (self.label_noise, self.activity_noise):
            if not 0.0 <= rate <= 1.0:
                raise ValueError("noise rates must be in [0, 1]")


class SyntheticPaths(NamedTuple):
    compounds: str
    labels: str
    activities: str
    clusters: str


@dataclass(frozen=True)
class SyntheticTruth:
    """Planted ground truth emitted alongside the corpus files."""

    compound_cluster: dict
    target_cluster: dict

    def cluster_compounds(self, cluster):
        return {c for c, g in self.compound_cluster.items() if g == cluster}


def _pool_label(source, cluster, index):
    # MORGAN bits are plain integers by convention; ontology-style sources
    # get readable names.
    if source == "MORGAN":
        return str(100_000 * (cluster + 1) + index)
    return f"{source.lower()}_k{cluster}_{index:03d}"


def generate_synthetic(spec, out_dir, seed=0):
    """Write a planted corpus under `out_dir`; returns (paths, truth).

    Files: compounds.tsv / labels.tsv / activities.tsv (loader-compatible)
    plus clusters.tsv holding the planted cluster of every compound and
    target.  Deterministic: the same spec and seed give identical bytes.
    """
    rng = np.random.default_rng(seed)
    os.makedirs(out_dir, exist_ok=True)

    compounds = [f"C{i:05d}" for i in range(spec.n_compounds)]
    targets = [f"T{j:04d}" for j in range(spec.n_targets)]
    compound_cluster = {c: i % spec.n_clusters for i, c in enumerate(compounds)}
    target_cluster = {t: j % spec.n_clusters for j, t in enumerate(targets)}
    targets_by_cluster = [
        [t for t in targets if target_cluster[t] == g]
        for g in range(spec.n_clusters)]

    pools = {
        (source, g): [_pool_label(source, g, p) for p in range(spec.pool_size)]
        for source in spec.sources for g in range(spec.n_clusters)}

    label_rows = []
    for compound in compounds:
        g = compound_cluster[compound]
        for source in spec.sources:
            pool = pools[(source, g)]
            chosen = set(pool[:_CORE_LABELS])
            extras = spec.labels_per_compound - _CORE_LABELS
            if extras > 0:
                chosen.update(rng.choice(
                    pool[_CORE_LABELS:], size=extras, replace=False))
            if spec.label_noise > 0 and spec.n_clusters > 1 \
                    and rng.random() < spec.label_noise:
                other = int(rng.integers(spec.n_clusters - 1))
                other = other if other < g else other + 1
                foreign = pools[(source, other)]
                chosen.add(foreign[int(rng.integers(len(foreign)))])
            for label in sorted(chosen):
                label_rows.append((compound, source, label))

    lo, hi = spec.targets_per_compound
    activity_rows = []
    for compound in compounds:
        g = compound_cluster[compound]
        own = targets_by_cluster[g]
        count = int(rng.integers(lo, hi + 1))
        count = min(count, len(own))
        picked = rng.choice(own, size=count, replace=False)
        for target in sorted(picked):
            if rng.random() < _POTENT_FRACTION:
                value = rng.uniform(*_POTENT_RANGE_NM)
            else:
                value = rng.uniform(*_MODERATE_RANGE_NM)
            activity_rows.append((compound, target, value))
        if spec.activity_noise > 0 and spec.n_clusters > 1 \
                and rng.random() < spec.activity_noise:
            other = int(rng.integers(spec.n_clusters - 1))
            other = other if other < g else other + 1
            foreign = targets_by_cluster[other]
            target = foreign[int(rng.integers(len(foreign)))]
            activity_rows.append(
                (compound, target, rng.uniform(*_WEAK_RANGE_NM)))

    paths = SyntheticPaths(
        compounds=os.path.join(out_dir, "compounds.tsv"),
        labels=os.path.join(out_dir, "labels.tsv"),
        activities=os.path.join(out_dir, "activities.tsv"),
        clusters=os.path.join(out_dir, "clusters.tsv"),
    )
    with open(paths.compounds, "w", encoding="utf-8") as fh:
        fh.write("compound_id\tsmiles\n")
        for compound in compounds:
            fh.write(f"{compound}\t\n")
    with open(paths.labels, "w", encoding="utf-8") as fh:
        fh.write("compound_id\tsource\tlabel\n")
        for compound, source, label in label_rows:
            fh.write(f"{compound}\t{source}\t{label}\n")
    with open(paths.activities, "w", encoding="utf-8") as fh:
        fh.write("compound_id\ttarget_id\tactivity_type\tvalue_nM\n")
        for compound, target, value in activity_rows:
            fh.write(f"{compound}\t{target}\t{spec.activity_type}\t{value:.4f}\n")
    with open(paths.clusters, "w", encoding="utf-8") as fh:
        fh.write("entity_id\tkind\tcluster\n")
        for compound in compounds:
            fh.write(f"{compound}\tcompound\t{compound_cluster[compound]}\n")
        for target in targets:
            fh.write(f"{target}\ttarget\t{target_cluster[target]}\n")

    return paths, SyntheticTruth(compound_cluster, target_cluster)
