"""Seeded workload generator for the benchmark.

A workload is a gene-set catalog plus subject cohorts, emitted as the text
formats hypersub parses (GMT, subgraph TSV, split TSV), so the package under
test receives nothing but files' worth of text.

Pathway sizes follow a truncated discrete power law p(s) ~ s^-alpha on
[size_min, size_max]. They are drawn by stratified inverse-CDF sampling, one
draw per quantile stratum, so the size multiset (and with it the incidence
count and the sum of squared sizes that Θ costs) barely moves between seeds
while the membership does. Every gene owns a slot in the core of exactly one
pathway, so the catalog covers the whole gene universe; the rest of each
pathway is drawn from the universe at random, which makes pathways overlap.

Each class has a few planted pathways. A subject of that class draws each
member from the union of its planted pathways with probability 1 - NOISE and
from the whole universe otherwise, so the class is recoverable through the
hyperedges and interpretation should rank the planted ones first.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# share of a subject's genes drawn from the whole universe, not its class pool
NOISE = 0.1


@dataclass(frozen=True)
class Shape:
    genes: int
    pathways: int
    size_min: int
    size_max: int
    alpha: float            # power-law exponent of the pathway sizes
    classes: int
    planted_per_class: int  # pathways carrying each class's signal
    subjects: int           # labelled cohort, split 60/20/20 per class
    subject_min: int
    subject_max: int
    predict_subjects: int   # separate unlabelled cohort for predict


@dataclass
class Inputs:
    gmt: str
    subgraphs: str
    split: str
    predict: str


def _stratified(cdf: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    """One inverse-CDF draw per stratum [k/n, (k+1)/n), in random order."""
    u = (np.arange(n) + rng.random(n)) / n
    idx = np.minimum(np.searchsorted(cdf, u), cdf.size - 1)
    return rng.permutation(idx)


def pathway_sizes(shape: Shape, rng: np.random.Generator) -> np.ndarray:
    support = np.arange(shape.size_min, shape.size_max + 1)
    p = support.astype(np.float64) ** -shape.alpha
    return support[_stratified(np.cumsum(p) / p.sum(), shape.pathways, rng)]


def generate(shape: Shape, seed: int) -> Inputs:
    """Deterministic for a fixed (shape, seed)."""
    rng = np.random.default_rng(seed)
    sizes = pathway_sizes(shape, rng)
    total = int(sizes.sum())
    if total < shape.genes:
        raise ValueError("pathway sizes cannot cover the gene universe")
    genes = [f"G{i:05d}" for i in range(shape.genes)]

    owner = rng.permutation(shape.genes)
    bounds = np.rint(np.cumsum(sizes) * (shape.genes / total)).astype(np.int64)
    starts = np.concatenate([[0], bounds[:-1]])
    members: list[np.ndarray] = []
    for j, size in enumerate(sizes.tolist()):
        core = owner[starts[j]:bounds[j]][:size]
        extra = rng.choice(shape.genes, size=min(size + core.size, shape.genes),
                           replace=False)
        extra = extra[~np.isin(extra, core)][:size - core.size]
        members.append(np.concatenate([core, extra]))
    edge_names = [f"PW{j:04d}" for j in range(shape.pathways)]
    gmt = "".join(f"{edge_names[j]}\tsynthetic\t" + "\t".join(genes[g] for g in mem) + "\n"
                  for j, mem in enumerate(members))

    # Planted pathways come from the upper half of the size distribution so
    # that every class pool is large enough to sample subjects from.
    class_names = [f"C{c}" for c in range(shape.classes)]
    big = np.flatnonzero(sizes >= np.median(sizes))
    chosen = rng.choice(big, size=shape.classes * shape.planted_per_class,
                        replace=False)
    pools = [np.unique(np.concatenate([members[j] for j in chosen[c::shape.classes]]))
             for c in range(shape.classes)]

    def cohort(count: int, prefix: str, labelled: bool) -> list[str]:
        m = _stratified(np.linspace(1.0 / (shape.subject_max - shape.subject_min + 1), 1.0,
                                    shape.subject_max - shape.subject_min + 1),
                        count, rng) + shape.subject_min
        lines = []
        for s in range(count):
            c = s % shape.classes
            from_pool = rng.random(m[s]) >= NOISE
            picks = np.where(from_pool,
                             pools[c][rng.integers(0, pools[c].size, m[s])],
                             rng.integers(0, shape.genes, m[s]))
            picks = picks[np.sort(np.unique(picks, return_index=True)[1])]
            weights = 1.0 - rng.random(picks.size)
            field = ",".join(f"{genes[g]}:{w:.6f}" for g, w in zip(picks.tolist(), weights.tolist()))
            lines.append(f"{prefix}{s:06d}\t{class_names[c] if labelled else '-'}\t{field}\n")
        return lines

    labelled = cohort(shape.subjects, "s", True)
    split = []
    for c in range(shape.classes):
        ids = [line.split("\t", 1)[0] for line in labelled[c::shape.classes]]
        order = rng.permutation(len(ids))
        n_val = n_test = int(round(0.2 * len(ids)))
        for pos, k in enumerate(order.tolist()):
            name = "val" if pos < n_val else "test" if pos < n_val + n_test else "train"
            split.append(f"{ids[k]}\t{name}\n")
    predict = cohort(shape.predict_subjects, "p", False)
    return Inputs(gmt=gmt, subgraphs="".join(labelled), split="".join(split),
                  predict="".join(predict))
