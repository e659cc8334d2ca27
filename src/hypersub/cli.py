"""Command line interface: batch file-to-file runs of the library.

Exit codes: 0 success, 2 malformed or inconsistent input (or an input path
the OS cannot read), 3 numerical failure during training. The default output
directory is the HYPERSUB_OUT environment variable, falling back to the
working directory.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import hashlib
import json
import logging
import os
import pathlib
import sys

import numpy as np

from . import __version__
from . import model as M
from .dataio import (Checkpoint, GeneSetCatalog, SubgraphTable, build_dataset,
                     load_checkpoint, load_split, load_subgraphs, parse_config,
                     parse_gmt, resolve_subjects, save_checkpoint,
                     serialize_split, stratified_split)
from .errors import InputDataError, InvalidLabel, NumericalDivergence
from .interpret import (class_enrichment, correlation_tsv, enrichment_tsv,
                        hyperedge_correlation)
from .synthetic import make_synthetic
from .training import (TrainConfig, micro_f1, predictions_from_scores, train)

logger = logging.getLogger(__name__)


def _out_dir(args) -> pathlib.Path:
    """The output directory, made if missing. A command calls it only once
    its inputs have passed their checks, so one that exits 2 writes none."""
    base = args.out if getattr(args, "out", None) else os.environ.get("HYPERSUB_OUT", ".")
    path = pathlib.Path(base)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _digest(path) -> str:
    return hashlib.sha256(pathlib.Path(path).read_bytes()).hexdigest()


# the variables that set the BLAS thread count, on which seeded bytes depend
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _write_manifest(directory: pathlib.Path, command: str, inputs: dict,
                    outputs: list[pathlib.Path], config: TrainConfig | None = None,
                    extra: dict | None = None,
                    status: str = "complete") -> pathlib.Path:
    manifest = {
        "command": command,
        "status": status,
        "version": __version__,
        "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "inputs": {str(p): _digest(p) for p in inputs.values()},
        "outputs": [str(p) for p in outputs],
        "blas_threads": {name: os.environ.get(name) for name in _BLAS_THREAD_VARS},
        "cpu_count": os.cpu_count(),
    }
    if config is not None:
        manifest["config"] = dataclasses.asdict(config)
    if extra:
        manifest.update(extra)
    path = directory / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def _catalog_from_checkpoint(ckpt: Checkpoint) -> GeneSetCatalog:
    """The trained catalog, its sets in the hypergraph's columns. A
    checkpoint keeps no descriptions; each reads '-', so that no set's GMT
    line reads as a comment or a blank line."""
    h = ckpt.hypergraph
    return GeneSetCatalog(
        names=list(ckpt.edge_names),
        descriptions=["-"] * len(ckpt.edge_names),
        gene_index=dict(zip(ckpt.gene_names, range(len(ckpt.gene_names)))),
        member_rows=h.node_of_pair,
        sizes=h.by_edge.counts,
    )


def _check_one_label_each(table: SubgraphTable) -> None:
    """Multiclass mode reads one class per subject: InvalidLabel naming
    the line of the first subject with none or with several."""
    wrong = [k for k, cols in enumerate(table.label_columns) if len(cols) != 1]
    if wrong:
        k = wrong[0]
        head = f"line {table.line_numbers[k]}: subject {table.subject_ids[k]!r}"
        if not table.label_columns[k]:
            raise InvalidLabel(f"{head} has no label, and multiclass mode needs one in every row")
        raise InvalidLabel(f"{head} carries {len(table.label_columns[k])} labels, "
                           "and multiclass mode needs exactly one")


# ------------------------------------------------------------------ commands

def cmd_train(args) -> int:
    catalog = parse_gmt(pathlib.Path(args.gmt))
    h = catalog.to_hypergraph()
    table = load_subgraphs(pathlib.Path(args.subgraphs), catalog)

    config = parse_config(pathlib.Path(args.config)) if args.config else TrainConfig()
    if args.seed is not None:
        config.seed = args.seed
    if args.mode:
        config.mode = args.mode
    config.validate()
    if config.mode == "multiclass" and table.class_vocab:
        _check_one_label_each(table)

    if args.split:
        assignment = load_split(pathlib.Path(args.split))
        split_source = args.split
    else:
        try:
            ratios = tuple(float(tok) for tok in args.split_ratios.split(","))
        except ValueError:
            ratios = ()
        if len(ratios) != 3:
            raise InputDataError("--split-ratios needs three comma-separated "
                                 f"numbers, got {args.split_ratios!r}")
        vocab = table.class_vocab   # sorted when collected, so each key is sorted
        keys = [tuple(map(vocab.__getitem__, sorted(cols))) for cols in table.label_columns]
        assignment = stratified_split(table.subject_ids, keys, ratios, seed=config.seed)
        split_source = f"stratified {args.split_ratios} seed={config.seed}"
    dataset = build_dataset(table, catalog, assignment)

    # provenance first: input digests go on record before training starts
    inputs = {"gmt": args.gmt, "subgraphs": args.subgraphs}
    if args.split:
        inputs["split"] = args.split
    out = _out_dir(args)
    _write_manifest(out, "train", inputs, [], config=config,
                    extra={"split_source": split_source}, status="running")

    params, report = train(dataset, h, config)

    ckpt = Checkpoint(params=params, config=config, gene_names=catalog.genes,
                      class_vocab=dataset.class_vocab,
                      edge_names=list(catalog.names), hypergraph=h)
    ckpt_path = out / "model.ckpt"
    save_checkpoint(ckpt, ckpt_path)

    metrics_path = out / "metrics.json"
    metrics_path.write_text(json.dumps({
        "seed": config.seed,
        "config": dataclasses.asdict(config),
        "best_epoch": report.best_epoch,
        "epochs_run": report.epochs_run,
        "metrics": report.metrics,
        "train_losses": report.train_losses,
        "val_losses": report.val_losses,
    }, indent=2, sort_keys=True) + "\n")

    split_path = out / "split.tsv"
    split_path.write_text(serialize_split(assignment))

    _write_manifest(out, "train", inputs,
                    [ckpt_path, metrics_path, split_path], config=config,
                    extra={"split_source": split_source,
                           "wall_time_s": report.wall_time})

    print(f"trained {report.epochs_run} epochs, best epoch {report.best_epoch}")
    for name in sorted(report.metrics):
        print(f"{name}\t{report.metrics[name]!r}")
    print(f"checkpoint\t{ckpt_path}")
    return 0


def cmd_evaluate(args) -> int:
    ckpt = load_checkpoint(pathlib.Path(args.checkpoint))
    catalog = _catalog_from_checkpoint(ckpt)
    table = load_subgraphs(pathlib.Path(args.subgraphs), catalog,
                           class_vocab=ckpt.class_vocab)
    if ckpt.config.mode == "multiclass":
        _check_one_label_each(table)
    assignment = load_split(pathlib.Path(args.split))
    if args.split_name not in set(assignment.values()):
        raise InputDataError(f"split {args.split_name!r} has no subjects in {args.split}")
    batch = resolve_subjects(table)   # first: a file of no subjects is named as such
    idx = [k for k, sid in enumerate(table.subject_ids) if assignment.get(sid) == args.split_name]
    if not idx:
        raise InputDataError(
            f"no subjects of split {args.split_name!r} appear in {args.subgraphs}")
    batch = batch.subset(idx)
    scores = M.subgraph_scores(ckpt.hypergraph, ckpt.params, batch)
    pred = predictions_from_scores(scores, ckpt.config.mode, ckpt.config.threshold)
    value = micro_f1(pred, batch.labels)
    print(f"micro_f1\t{args.split_name}\t{value!r}")
    return 0


def cmd_predict(args) -> int:
    ckpt = load_checkpoint(pathlib.Path(args.checkpoint))
    catalog = _catalog_from_checkpoint(ckpt)
    table = load_subgraphs(pathlib.Path(args.subgraphs), catalog,
                           class_vocab=None, skip_empty=True)
    names = ckpt.class_vocab
    lines = ["\t".join(["subject_id", *names, "predicted"])]
    if table.subject_ids:
        batch = resolve_subjects(table)
        scores = M.subgraph_scores(ckpt.hypergraph, ckpt.params, batch)
        decisions = predictions_from_scores(scores, ckpt.config.mode,
                                            ckpt.config.threshold)
        for sid, row, dec in zip(batch.subject_ids, scores, decisions):
            chosen = [names[k] for k in np.where(dec > 0.5)[0]]
            lines.append("\t".join([sid, *(repr(float(v)) for v in row),
                                    ",".join(chosen) if chosen else "-"]))
    if table.excluded_subjects:
        lines.append("# excluded subjects (no catalog gene with a positive weight)")
        lines += [f"# {sid}" for sid in table.excluded_subjects]
    text = "\n".join(lines) + "\n"
    if args.out:
        out = pathlib.Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text)
        print(f"predictions\t{out}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_interpret(args) -> int:
    if args.top_k < 0:
        raise InputDataError(f"--top-k must be non-negative, got {args.top_k}")
    ckpt = load_checkpoint(pathlib.Path(args.checkpoint))
    catalog = _catalog_from_checkpoint(ckpt)
    table = load_subgraphs(pathlib.Path(args.subgraphs), catalog,
                           class_vocab=ckpt.class_vocab)
    batch = resolve_subjects(table)

    report = class_enrichment(ckpt.params, ckpt.hypergraph, batch,
                              ckpt.class_vocab, args.top_k,
                              edge_names=ckpt.edge_names)
    corr = hyperedge_correlation(ckpt.params, ckpt.hypergraph)

    out = _out_dir(args)
    enrich_path = out / "enrichment.tsv"
    enrich_path.write_text(enrichment_tsv(report))
    corr_path = out / "correlation.tsv"
    corr_path.write_text(correlation_tsv(corr, ckpt.edge_names))

    _write_manifest(out, "interpret",
                    {"checkpoint": args.checkpoint, "subgraphs": args.subgraphs},
                    [enrich_path, corr_path], config=ckpt.config,
                    extra={"top_k": args.top_k})
    print(f"enrichment\t{enrich_path}")
    print(f"correlation\t{corr_path}")
    return 0


def cmd_make_synthetic(args) -> int:
    if args.classes < 1:
        raise InputDataError(f"--classes must be at least 1, got {args.classes}")
    if args.seed < 0:
        raise InputDataError(f"--seed must be non-negative, got {args.seed}")
    data = make_synthetic(num_nodes=args.nodes, num_edges=args.edges,
                          num_classes=args.classes, num_subjects=args.subjects,
                          noise=args.noise, seed=args.seed)
    out = _out_dir(args)
    gmt_path = out / "synthetic.gmt"
    sub_path = out / "subgraphs.tsv"
    split_path = out / "split.tsv"
    gmt_path.write_text(data.gmt_text())
    sub_path.write_text(data.subgraphs_text())
    split_path.write_text(data.split_text())
    planted_path = out / "planted.json"
    planted_path.write_text(json.dumps(
        {"classes": data.class_names, "planted_edges": data.planted_edges},
        indent=2, sort_keys=True) + "\n")
    _write_manifest(out, "make-synthetic", {},
                    [gmt_path, sub_path, split_path, planted_path],
                    extra={"profile": {
                        "nodes": args.nodes, "edges": args.edges,
                        "classes": args.classes, "subjects": args.subjects,
                        "noise": args.noise, "seed": args.seed}})
    for p in (gmt_path, sub_path, split_path, planted_path):
        print(f"wrote\t{p}")
    return 0


# -------------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypersub",
        description="Classify subjects: weighted node subsets of a hypergraph.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model and write a checkpoint")
    p.add_argument("--gmt", required=True, help="gene set catalog (GMT)")
    p.add_argument("--subgraphs", required=True, help="subject subgraph TSV")
    p.add_argument("--split", help="subject split assignment TSV")
    p.add_argument("--split-ratios", default="0.6,0.2,0.2",
                   help="stratified split ratios when no --split file is given")
    p.add_argument("--config", help="flat key = value training config")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--mode", choices=["multiclass", "multilabel"],
                   help="override the config output mode")
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="micro-F1 of a checkpoint on one split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--subgraphs", required=True)
    p.add_argument("--split", required=True)
    p.add_argument("--split-name", default="test",
                   choices=["train", "val", "test"])
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("predict", help="class scores for new subjects")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--subgraphs", required=True)
    p.add_argument("--out", help="output TSV path (default: stdout)")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("interpret", help="rank hyperedges per class")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--subgraphs", required=True)
    p.add_argument("--top-k", type=int, default=20)
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=cmd_interpret)

    p = sub.add_parser("make-synthetic", help="generate a planted benchmark")
    p.add_argument("--nodes", type=int, default=200)
    p.add_argument("--edges", type=int, default=20)
    p.add_argument("--classes", type=int, default=4)
    p.add_argument("--subjects", type=int, default=400)
    p.add_argument("--noise", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=cmd_make_synthetic)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO, stream=sys.stderr,
                        format="%(levelname)s %(message)s")
    try:
        return args.func(args)
    except InputDataError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2
    except OSError as e:   # missing, unreadable, or a directory
        print(f"error: {e}", file=sys.stderr)
        return 2
    except NumericalDivergence as e:
        print(f"numerical failure: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
