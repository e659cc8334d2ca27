"""Synthetic planted-signal benchmark generator.

Genes are partitioned into hyperedges, hyperedges into disjoint class pools.
A subject of class c samples most of its members from c's pool and a noise
fraction from the whole gene universe, so a model must route attention toward
the planted hyperedges to separate the classes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataio import GeneSetCatalog, serialize_gmt, serialize_split, stratified_split
from .errors import InputDataError

# a subject's member draws, the genes a hyperedge borrows, the split's shares
MIN_MEMBERS, MAX_MEMBERS, OVERLAP = 10, 25, 2
SPLIT_RATIOS = (0.6, 0.2, 0.2)


@dataclass
class SyntheticData:
    catalog: GeneSetCatalog
    subgraph_lines: list[str]
    split: dict[str, str]
    class_names: list[str]
    planted_edges: dict[str, list[str]]  # class name -> its hyperedge names

    def gmt_text(self) -> str:
        return serialize_gmt(self.catalog)

    def subgraphs_text(self) -> str:
        return "".join(line + "\n" for line in self.subgraph_lines)

    def split_text(self) -> str:
        return serialize_split(self.split)


def make_synthetic(num_nodes: int = 200, num_edges: int = 20,
                   num_classes: int = 4, num_subjects: int = 400,
                   noise: float = 0.1, seed: int = 7) -> SyntheticData:
    """Generate a planted-signal dataset; fully deterministic per seed.

    Each hyperedge owns a core block of genes (the planted signal pools are
    unions of core blocks, disjoint across classes) plus ``OVERLAP`` genes
    borrowed from other blocks, so nodes can sit on several hyperedges and
    the hypergraph does not decompose into disconnected components.
    """
    if num_classes > num_edges:
        raise InputDataError("need at least one hyperedge per class")
    if num_edges > num_nodes:
        raise InputDataError("need at least one gene per hyperedge")
    if num_subjects < 3 * num_classes:
        raise InputDataError("need at least three subjects per class for a split")
    if not 0.0 <= noise <= 1.0:
        raise InputDataError("noise must be in [0, 1]")
    rng = np.random.default_rng(seed)

    genes = [f"g{i:04d}" for i in range(num_nodes)]
    core_blocks = np.array_split(np.arange(num_nodes), num_edges)
    edge_names = [f"edge{j:03d}" for j in range(num_edges)]
    class_names = [f"C{c}" for c in range(num_classes)]

    class_of_edge = [j % num_classes for j in range(num_edges)]
    planted = {c: [] for c in class_names}
    pool: dict[str, list[int]] = {c: [] for c in class_names}
    edge_blocks = []
    for j, block in enumerate(core_blocks):
        cname = class_names[class_of_edge[j]]
        planted[cname].append(edge_names[j])
        pool[cname].extend(block.tolist())
        outside = np.setdiff1d(np.arange(num_nodes), block)
        extra = rng.choice(outside, size=min(OVERLAP, outside.size),
                           replace=False) if outside.size else np.array([], int)
        edge_blocks.append(np.concatenate([block, extra]).astype(int))

    lines = []
    subject_ids, label_keys = [], []
    for s in range(num_subjects):
        cname = class_names[s % num_classes]
        sid = f"s{s:04d}"
        size = int(rng.integers(MIN_MEMBERS, MAX_MEMBERS + 1))
        chosen: list[int] = []
        for _ in range(size):
            if rng.random() < noise:
                g = int(rng.integers(0, num_nodes))
            else:
                p = pool[cname]
                g = p[int(rng.integers(0, len(p)))]
            if g not in chosen:
                chosen.append(g)
        weights = 1.0 - rng.random(len(chosen))  # uniform on (0, 1]
        member_field = ",".join(f"{genes[g]}:{w:.6f}"
                                for g, w in zip(chosen, weights))
        lines.append(f"{sid}\t{cname}\t{member_field}")
        subject_ids.append(sid)
        label_keys.append(cname)

    catalog = GeneSetCatalog(
        names=edge_names,
        descriptions=[f"planted pool of {class_names[class_of_edge[j]]}"
                      for j in range(num_edges)],
        gene_index={g: i for i, g in enumerate(genes)},
        member_rows=np.concatenate(edge_blocks).astype(np.intp),
        sizes=np.array([block.size for block in edge_blocks], dtype=np.intp),
    )
    split = stratified_split(subject_ids, label_keys, SPLIT_RATIOS, seed=seed)
    return SyntheticData(
        catalog=catalog, subgraph_lines=lines, split=split,
        class_names=class_names, planted_edges=planted)
