"""The phases ``hypersub train``, ``predict`` and ``interpret`` run, driven
through the package's library functions, with the output checks of each run.

One caller runs the phases back to back (a closed loop). A pass trains and
saves a checkpoint once, then repeats set-up -> load -> predict -> interpret
for a minimum time; every wall time is kept.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import pathlib
import resource
import sys
import time
import traceback
from dataclasses import dataclass, field, replace

import numpy as np

import hypersub.dataio as D
import hypersub.interpret as I
import hypersub.model as M
import hypersub.training as T
from hypersub.cli import _catalog_from_checkpoint
from hypersub.hypergraph import Hypergraph
from workload import Shape, generate


@dataclass(frozen=True)
class Workload:
    why: str
    shape: Shape
    config: T.TrainConfig
    f1_floor: float = 0.0   # checked only where the seed code is known to meet it
    rounds: int = 2         # set-up -> load -> predict -> interpret rounds per pass, at least
    burst: float = 0.3      # seconds each of set-up, load and predict repeats in a round


def _config(epochs: int, **overrides) -> T.TrainConfig:
    # patience >= max_epochs holds early stopping off, so every run trains
    # the same number of epochs
    return T.TrainConfig(max_epochs=epochs, patience=epochs, **overrides)


WORKLOADS = {
    # The README quick start: make-synthetic's defaults at the paper's default
    # config (d=300, regularizer on, dropout 0.5).
    "quick": Workload(
        why="README quick start at the paper config (d=300): weighted_row_sum and "
            "the regularizer's spmm dominate the step, matmul comes next, theta is tiny",
        shape=Shape(genes=200, pathways=20, size_min=12, size_max=12, alpha=0.0,
                    classes=4, planted_per_class=5, subjects=400, subject_min=10,
                    subject_max=25, predict_subjects=400),
        config=_config(20),
        f1_floor=0.9),
    "pathways": Workload(
        why="2k genes, 300 pathways, theta nnz ~590k, regularizer on; the "
            "regularizer's spmm dominates train, parsing dominates a 20k predict",
        shape=Shape(genes=2000, pathways=300, size_min=10, size_max=120, alpha=1.33,
                    classes=4, planted_per_class=3, subjects=500, subject_min=10,
                    subject_max=40, predict_subjects=20000),
        config=_config(3, hidden_dim=64, reg_weight=1.0)),
    "genes": Workload(
        why="gene-set scale: 20k genes, 3k pathways of up to 500, regularizer off; "
            "the unconditional theta build dominates train, segment ops predict and interpret",
        shape=Shape(genes=20000, pathways=3000, size_min=5, size_max=500, alpha=1.58,
                    classes=8, planted_per_class=3, subjects=2000, subject_min=10,
                    subject_max=40, predict_subjects=2000),
        config=_config(1, hidden_dim=64, reg_weight=0.0),
        # a pass holds one ~50 s train; one ~10 s interpret beside it, and
        # longer bursts give set-up, load and predict their samples instead
        rounds=1, burst=2.0),
    # Not a benchmark workload: a size that finishes in seconds, for the smoke test.
    "tiny": Workload(
        why="smoke-test size",
        shape=Shape(genes=60, pathways=8, size_min=6, size_max=20, alpha=1.5,
                    classes=2, planted_per_class=2, subjects=40, subject_min=4,
                    subject_max=8, predict_subjects=30),
        config=_config(2, hidden_dim=8, reg_weight=1.0)),
}


class PhaseFailed(Exception):
    """A phase raised; the traceback has been reported."""


@dataclass
class Ledger:
    """Phases and checks attempted and failed in one run."""
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def phase(self, name: str, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.failed += 1
            self.notes.append(f"phase {name} raised")
            traceback.print_exc(file=sys.stderr)
            raise PhaseFailed(name) from None

    def check(self, name: str, ok: bool):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(f"check {name} failed")


def clock(fn, *args, **kwargs):
    """((start, end), result) of one call, on the perf_counter clock. The
    garbage collector runs first, untimed, so that every call starts from
    the same collector state, as it would in a fresh process, instead of
    paying for collections that earlier calls' garbage brought due."""
    gc.collect()
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return (t0, time.perf_counter()), out


def wall(sample: tuple[float, float]) -> float:
    return sample[1] - sample[0]


def _repeat(seconds: float, fn, *args):
    """Call ``fn`` once, then again until ``seconds`` have gone into it;
    (samples, last result). A timed burst (``seconds`` > 0) starts with an
    untimed call, so that its samples are of a warm phase, not of the first
    call after whatever ran before it."""
    if seconds > 0:
        fn(*args)
    samples, out = [], None
    while not samples or samples[-1][1] - samples[0][0] < seconds:
        out = None  # every call starts without the previous call's result
        sample, out = clock(fn, *args)
        samples.append(sample)
    return samples, out


@dataclass
class Setup:
    catalog: D.GeneSetCatalog
    h: Hypergraph
    dataset: D.SubgraphDataset


def setup(inputs) -> Setup:
    """What a user pays before training starts."""
    catalog = D.parse_gmt(inputs.gmt)
    h = catalog.to_hypergraph()
    table = D.load_subgraphs(inputs.subgraphs, catalog)
    dataset = D.build_dataset(table, catalog, D.load_split(inputs.split))
    return Setup(catalog, h, dataset)


def predict(ckpt_path, text: str):
    """The ``hypersub predict`` path, minus writing the TSV."""
    ckpt = D.load_checkpoint(ckpt_path)
    catalog = _catalog_from_checkpoint(ckpt)
    table = D.load_subgraphs(text, catalog, class_vocab=None, skip_empty=True)
    batch = M.SubgraphBatch(
        members=[np.array([catalog.gene_index[g] for g in rec.genes], dtype=np.intp)
                 for rec in table.subjects],
        weights=[np.array(rec.weights, dtype=np.float64) for rec in table.subjects],
        labels=np.zeros((len(table.subjects), len(ckpt.class_vocab)), dtype=np.float64),
        subject_ids=[rec.subject_id for rec in table.subjects])
    scores = M.subgraph_scores(M.incidence_pairs(ckpt.hypergraph), ckpt.params, batch)
    return ckpt, batch, scores


def interpret(ckpt, batch):
    """``hypersub interpret`` over all labelled subjects. top_k covers every
    hyperedge so the full per-class attribution can be checked afterwards."""
    h = ckpt.hypergraph
    report = I.class_enrichment(ckpt.params, h, batch, ckpt.class_vocab,
                                h.num_edges, edge_names=ckpt.edge_names)
    corr = I.hyperedge_correlation(ckpt.params, h)
    return report, corr


def checkpoint(s: Setup, config: T.TrainConfig, params: M.ModelParams) -> D.Checkpoint:
    return D.Checkpoint(params=params, config=config, gene_names=s.catalog.genes,
                        class_vocab=s.dataset.class_vocab,
                        edge_names=list(s.catalog.names), hypergraph=s.h)


def sha256(path) -> str:
    return hashlib.sha256(pathlib.Path(path).read_bytes()).hexdigest()


Sample = tuple[float, float]   # (start, end) of one timed call


@dataclass
class Pass:
    """One pass: the timed samples of each phase and what the output checks need."""
    train: Sample
    setup: list[Sample]
    ckpt_load: list[Sample]
    predict: list[Sample]
    interpret: list[Sample]
    report: T.TrainReport
    params: M.ModelParams
    batch: M.SubgraphBatch
    scores: np.ndarray
    enrichment: I.EnrichmentReport
    correlation: np.ndarray
    checkpoint_sha256: str
    train_peak_rss_mb: float


def run_pass(inputs, s: Setup, config: T.TrainConfig, ckpt_path, ledger: Ledger,
             rounds: tuple[int, float], burst: float, span=None) -> Pass:
    """Train and save once, then run set-up -> load -> predict -> interpret
    in rounds, at least ``rounds[0]`` of them and for at least ``rounds[1]``
    seconds. Within a round, set-up, load and predict repeat until each has
    taken ``burst`` seconds. Interleaving spreads each phase's samples over the
    pass, so a stretch in which the machine runs slow does not hold all of
    them. ``span(name)`` wraps each phase when tracing."""
    span = span or (lambda name: contextlib.nullcontext())
    with span("bench.train"):
        train, (params, report) = ledger.phase("train", clock, T.train,
                                               s.dataset, s.h, config)
    with span("bench.save"):
        ledger.phase("save", D.save_checkpoint, checkpoint(s, config, params), ckpt_path)
    # Peak memory up to here is what ``hypersub train`` pays. It is read
    # before the bursts, whose call counts depend on timing and move the
    # allocator's high-water mark by up to 8%.
    train_peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    everyone = s.dataset.batch(np.arange(len(s.dataset.subject_ids)))
    setups, loads, predicts, interprets = [], [], [], []
    started = time.perf_counter()
    while len(interprets) < rounds[0] or time.perf_counter() - started < rounds[1]:
        with span("bench.setup"):
            samples, _ = ledger.phase("setup", _repeat, burst, setup, inputs)
        setups += samples
        with span("bench.load"):
            samples, _ = ledger.phase("load", _repeat, burst, D.load_checkpoint, ckpt_path)
        loads += samples
        with span("bench.predict"):
            samples, (loaded, batch, scores) = ledger.phase(
                "predict", _repeat, burst, predict, ckpt_path, inputs.predict)
        predicts += samples
        with span("bench.interpret"):
            sample, (enrichment, corr) = ledger.phase("interpret", clock, interpret,
                                                      loaded, everyone)
        interprets.append(sample)
    return Pass(train, setups, loads, predicts, interprets, report, params, batch,
                scores, enrichment, corr, sha256(ckpt_path), train_peak_rss_mb)


def check_pass(wl: Workload, s: Setup, p: Pass, ledger: Ledger):
    """Output checks; they run outside every timed and traced region."""
    ledger.check("scores finite", bool(np.all(np.isfinite(p.scores))))
    ledger.check("score rows sum to 1",
                 bool(np.allclose(p.scores.sum(axis=1), 1.0, rtol=0, atol=1e-5)))
    in_memory = M.subgraph_scores(M.incidence_pairs(s.h), p.params, p.batch)
    ledger.check("reloaded scores bit-identical", np.array_equal(in_memory, p.scores))
    sums = [sum(v for _, v in p.enrichment.rankings[c]) for c in p.enrichment.classes]
    ledger.check("class edge scores sum to 1",
                 bool(np.allclose(sums, 1.0, rtol=0, atol=1e-4)))
    ledger.check("correlation finite", bool(np.all(np.isfinite(p.correlation))))
    if wl.f1_floor:
        ledger.check(f"test micro-F1 >= {wl.f1_floor}",
                     p.report.metrics["micro_f1_test"] >= wl.f1_floor)


if __name__ == "__main__":
    # pipeline.py WORKLOAD SEED CHECKPOINT: set up, train and save in a fresh
    # process and print train()'s wall time. This is the untraced baseline of
    # a traced run; a fresh process pays the same first-use costs (a
    # genes-size Θ grows the heap by gigabytes) as the traced train.
    wl = WORKLOADS[sys.argv[1]]
    config = replace(wl.config, seed=int(sys.argv[2]))
    s = setup(generate(wl.shape, int(sys.argv[2])))
    train, (params, _) = clock(T.train, s.dataset, s.h, config)
    D.save_checkpoint(checkpoint(s, config, params), sys.argv[3])
    print(wall(train))
