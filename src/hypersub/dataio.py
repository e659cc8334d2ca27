"""File formats and dataset assembly.

Text inputs are tab-separated with '#' comment lines; gene symbols are
case-sensitive and never normalized. Checkpoints pair a human-readable header
with raw little-endian float32 blocks and are written atomically.
"""

from __future__ import annotations

import io
import logging
import math
import os
import tempfile
from dataclasses import dataclass, field, fields, replace
from itertools import chain
from operator import attrgetter
from typing import Iterable, Sequence

import numpy as np

from . import kernel as K
from . import model as M
from .errors import (CorruptCheckpoint, DuplicateSet, EmptySubgraph,
                     InputDataError, InvalidConfigValue, InvalidSplitRatios,
                     MalformedLine, UnknownClass, UnknownConfigKey,
                     UnsupportedVersion)
from .hypergraph import Hypergraph, build_hypergraph
from .training import TrainConfig, config_field_types

logger = logging.getLogger(__name__)

CHECKPOINT_MAGIC = "hypersub-checkpoint"
CHECKPOINT_VERSION = 2          # the version written; version 1 is still read
SECTIONS = ("config", "classes", "genes", "edges", "tensors")


def _lines(source) -> Iterable[tuple[int, str]]:
    """Numbered lines of a text blob, os.PathLike path, or file-like object,
    with blank and '#' comment lines removed. Plain strings are always text;
    use pathlib.Path to read from disk."""
    if isinstance(source, os.PathLike):
        text = open(source, "r", encoding="utf-8").read()
    elif isinstance(source, str):
        text = source
    else:
        text = source.read()
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip("\r\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        yield no, line


# ----------------------------------------------------------------- gene sets

@dataclass
class GeneSetCatalog:
    """Named gene sets plus the node index assignment they induce.

    Genes are indexed in order of first appearance across sets; set member
    lists keep their file order (deduplicated).
    """

    names: list[str]
    descriptions: list[str]
    members: list[list[str]]
    gene_index: dict[str, int]

    @property
    def num_sets(self) -> int:
        return len(self.names)

    @property
    def num_genes(self) -> int:
        return len(self.gene_index)

    @property
    def genes(self) -> list[str]:
        return list(self.gene_index)

    def to_hypergraph(self, edge_weights=None) -> Hypergraph:
        lists = [[self.gene_index[g] for g in mem] for mem in self.members]
        return build_hypergraph(lists, edge_weights=edge_weights,
                                num_nodes=self.num_genes)


def parse_gmt(source) -> GeneSetCatalog:
    """Parse tab-separated gene sets: name, description, then one field per
    gene. Duplicate set names and lines with fewer than three fields fail."""
    names, descriptions, members = [], [], []
    seen: set[str] = set()
    gene_index: dict[str, int] = {}
    for no, line in _lines(source):
        parts = line.split("\t")
        if len(parts) < 3:
            raise MalformedLine(no, f"expected at least 3 tab-separated fields, got {len(parts)}")
        name, desc = parts[0], parts[1]
        if not name:
            raise MalformedLine(no, "empty set name")
        if name in seen:
            raise DuplicateSet(f"gene set {name!r} appears twice")
        seen.add(name)
        genes = list(dict.fromkeys(g for g in parts[2:] if g))
        if not genes:
            raise MalformedLine(no, f"gene set {name!r} has no genes")
        for g in genes:
            if g not in gene_index:
                gene_index[g] = len(gene_index)
        names.append(name)
        descriptions.append(desc)
        members.append(genes)
    return GeneSetCatalog(names, descriptions, members, gene_index)


def serialize_gmt(catalog: GeneSetCatalog) -> str:
    out = io.StringIO()
    for name, desc, mem in zip(catalog.names, catalog.descriptions, catalog.members):
        out.write("\t".join([name, desc, *mem]) + "\n")
    return out.getvalue()


# ----------------------------------------------------------------- subgraphs

@dataclass
class SubjectRecord:
    subject_id: str
    labels: list[str]
    genes: list[str]
    weights: list[float]


@dataclass
class SubgraphTable:
    subjects: list[SubjectRecord]
    class_vocab: list[str]
    dropped_genes: int = 0
    excluded_subjects: list[str] = field(default_factory=list)


def load_subgraphs(source, catalog: GeneSetCatalog,
                   class_vocab: Sequence[str] | None = None,
                   skip_empty: bool = False) -> SubgraphTable:
    """Parse subject subgraphs: subject id, comma-separated labels, then
    comma-separated gene[:weight] members (weight defaults to 1.0).

    Genes missing from the catalog are dropped with a warning count. A
    subject left with no members raises EmptySubgraph, and one whose kept
    members all weigh 0 raises MalformedLine; with ``skip_empty`` set, both
    land in ``excluded_subjects`` instead. With a declared
    ``class_vocab`` unknown labels fail; without one the vocabulary is
    collected from the file and sorted.
    """
    subjects: list[SubjectRecord] = []
    seen_ids: set[str] = set()
    seen_labels: set[str] = set()
    dropped = 0
    excluded: list[str] = []
    declared = set(class_vocab) if class_vocab is not None else None
    for no, line in _lines(source):
        parts = line.split("\t")
        if len(parts) != 3:
            raise MalformedLine(no, f"expected 3 tab-separated fields, got {len(parts)}")
        sid, label_field, member_field = parts
        if not sid:
            raise MalformedLine(no, "empty subject id")
        if sid in seen_ids:
            raise MalformedLine(no, f"subject {sid!r} appears twice")
        seen_ids.add(sid)

        labels = []
        if label_field and label_field != "-":
            for lab in label_field.split(","):
                lab = lab.strip()
                if not lab:
                    raise MalformedLine(no, "empty label")
                if declared is not None and lab not in declared:
                    raise UnknownClass(f"line {no}: label {lab!r} not in class vocabulary")
                if lab not in labels:
                    labels.append(lab)
                seen_labels.add(lab)

        kept: dict[str, float] = {}   # gene -> weight, first occurrence wins
        if not member_field:
            raise MalformedLine(no, "empty member list")
        for token in member_field.split(","):
            token = token.strip()
            if not token:
                raise MalformedLine(no, "empty member token")
            if ":" in token:
                gene, _, wtext = token.rpartition(":")
                try:
                    w = float(wtext)
                except ValueError:
                    raise MalformedLine(no, f"bad weight {wtext!r}") from None
                if not np.isfinite(w) or w < 0:
                    raise MalformedLine(no, f"member weight must be finite and >= 0, got {wtext}")
            else:
                gene, w = token, 1.0
            if not gene:
                raise MalformedLine(no, f"member token {token!r} has no gene symbol")
            if gene not in catalog.gene_index:
                dropped += 1
                continue
            kept.setdefault(gene, w)

        genes, weights = list(kept), list(kept.values())
        if not genes or max(weights) <= 0:
            if skip_empty:
                excluded.append(sid)
                continue
            if not genes:
                raise EmptySubgraph(f"line {no}: subject {sid!r} has no catalog genes")
            raise MalformedLine(no, f"subject {sid!r} has no catalog gene with a "
                                    "positive weight")
        subjects.append(SubjectRecord(sid, labels, genes, weights))

    if dropped:
        logger.warning("dropped %d member entries not present in the catalog", dropped)
    vocab = list(class_vocab) if class_vocab is not None else sorted(seen_labels)
    return SubgraphTable(subjects=subjects, class_vocab=vocab,
                         dropped_genes=dropped, excluded_subjects=excluded)


# -------------------------------------------------------------------- splits

SPLIT_NAMES = ("train", "val", "test")


def load_split(source) -> dict[str, str]:
    """Parse subject-to-split assignments: subject id, then train/val/test."""
    assignment: dict[str, str] = {}
    for no, line in _lines(source):
        parts = line.split("\t")
        if len(parts) != 2:
            raise MalformedLine(no, f"expected 2 tab-separated fields, got {len(parts)}")
        sid, name = parts
        if name not in SPLIT_NAMES:
            raise MalformedLine(no, f"unknown split name {name!r}")
        if sid in assignment:
            raise MalformedLine(no, f"subject {sid!r} assigned twice")
        assignment[sid] = name
    return assignment


def serialize_split(assignment: dict[str, str]) -> str:
    return "".join(f"{sid}\t{name}\n" for sid, name in assignment.items())


def stratified_split(subjects: Sequence[str], label_keys: Sequence,
                     ratios: tuple[float, float, float] = (0.6, 0.2, 0.2),
                     seed: int = 0) -> dict[str, str]:
    """Assign subjects to train/val/test, preserving per-class proportions.

    Subjects sharing a label key are shuffled together and cut so the val and
    test shares round to the requested ratios (train takes the rest). A class
    with fewer than 3 subjects goes entirely to train, with a warning.
    """
    if len(subjects) != len(label_keys):
        raise ValueError("subjects and label_keys must align")
    if not all(math.isfinite(r) and r >= 0 for r in ratios):
        raise InvalidSplitRatios(f"split ratios must be finite and non-negative, "
                                 f"got {tuple(ratios)}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise InvalidSplitRatios(f"split ratios must sum to 1, got {tuple(ratios)}")
    rng = np.random.default_rng(seed)
    by_key: dict = {}
    for sid, key in zip(subjects, label_keys):
        by_key.setdefault(key, []).append(sid)

    assignment: dict[str, str] = {}
    for key in sorted(by_key, key=repr):
        ids = by_key[key]
        if len(ids) < 3:
            logger.warning("class %r has %d subject(s); assigning all to train",
                           key, len(ids))
            for sid in ids:
                assignment[sid] = "train"
            continue
        order = rng.permutation(len(ids))
        n = len(ids)
        n_val = int(round(n * ratios[1]))
        n_test = int(round(n * ratios[2]))
        n_train = n - n_val - n_test
        if n_train < 1:  # degenerate ratios; keep at least one training subject
            spare = 1 - n_train
            take = min(spare, n_val)
            n_val -= take
            n_test -= spare - take
            n_train = 1
        for pos, k in enumerate(order):
            sid = ids[k]
            if pos < n_train:
                assignment[sid] = "train"
            elif pos < n_train + n_val:
                assignment[sid] = "val"
            else:
                assignment[sid] = "test"
    return assignment


# ------------------------------------------------------------------- dataset

@dataclass
class SubgraphDataset:
    """Subjects resolved against a catalog, as one batch of every subject in
    file order, with the class vocabulary and a split name per subject."""

    subjects: M.SubgraphBatch
    class_vocab: list[str]
    split: list[str]

    @property
    def subject_ids(self) -> list[str]:
        return self.subjects.subject_ids

    def indices(self, split_name: str) -> np.ndarray:
        return np.flatnonzero(np.asarray(self.split) == split_name)

    def batch(self, indices) -> M.SubgraphBatch:
        return self.subjects.subset(indices)


def resolve_subjects(table: SubgraphTable,
                     catalog: GeneSetCatalog) -> M.SubgraphBatch:
    """The table's subjects as one batch in file order: member genes looked
    up in the catalog in one flat pass, labels a dense 0/1 matrix over the
    table's class vocabulary. A table with no subjects raises InputDataError."""
    if not table.subjects:
        raise InputDataError("no subjects in the subgraph table")
    ids, labels, genes, weights = zip(*map(
        attrgetter("subject_id", "labels", "genes", "weights"), table.subjects))
    n = len(ids)
    col = {c: i for i, c in enumerate(table.class_vocab)}
    dense = np.zeros((n, len(col)), dtype=np.float64)
    dense[np.repeat(np.arange(n), np.fromiter(map(len, labels), np.intp, n)),
          np.fromiter(map(col.__getitem__, chain.from_iterable(labels)), np.intp)] = 1.0
    rows = np.fromiter(map(catalog.gene_index.__getitem__, chain.from_iterable(genes)),
                       np.intp)
    return M.SubgraphBatch.from_flat(
        rows, np.fromiter(chain.from_iterable(weights), np.float64),
        np.fromiter(map(len, genes), np.intp, n), dense, list(ids))


def build_dataset(table: SubgraphTable, catalog: GeneSetCatalog,
                  assignment: dict[str, str]) -> SubgraphDataset:
    """Resolve a parsed table into one batch (``resolve_subjects``) with a
    split assignment per subject; every subject must be assigned."""
    ids = list(map(attrgetter("subject_id"), table.subjects))
    split = list(map(assignment.get, ids))
    if None in split:
        raise InputDataError(f"subject {ids[split.index(None)]!r} has no split assignment")
    return SubgraphDataset(resolve_subjects(table, catalog), table.class_vocab, split)


# -------------------------------------------------------------------- config

def parse_config(source, base: TrainConfig | None = None) -> TrainConfig:
    """Flat key = value config. Unknown keys fail fast; values are coerced to
    the field's type. Missing keys keep the base (or default) value. A value
    out of range raises InvalidConfigValue naming its key and line."""
    types = config_field_types()
    overrides = {}
    line_of = {}
    for no, line in _lines(source):
        if "=" not in line:
            raise MalformedLine(no, "expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in types:
            raise UnknownConfigKey(f"line {no}: unknown config key {key!r}")
        t = types[key]
        try:
            if t is bool:
                if value.lower() not in ("true", "false"):
                    raise ValueError
                overrides[key] = value.lower() == "true"
            else:
                overrides[key] = t(value)
        except ValueError:
            raise MalformedLine(no, f"cannot parse {value!r} as {t.__name__} for {key!r}") from None
        line_of[key] = no
    config = replace(base or TrainConfig(), **overrides)
    try:
        config.validate()
    except InvalidConfigValue as e:   # name the line that set the value
        if e.key not in line_of:
            raise
        raise InvalidConfigValue(e.key, e.reason, line_of[e.key]) from None
    return config


def serialize_config(config: TrainConfig) -> str:
    out = []
    for f in fields(TrainConfig):
        v = getattr(config, f.name)
        out.append(f"{f.name} = {str(v).lower() if isinstance(v, bool) else v}\n")
    return "".join(out)


# --------------------------------------------------------------- checkpoints

@dataclass
class Checkpoint:
    """A trained model plus everything needed to run it on new files: the
    training config, gene dictionary, class vocabulary, and hypergraph."""

    params: M.ModelParams
    config: TrainConfig
    gene_names: list[str]
    class_vocab: list[str]
    edge_names: list[str]
    hypergraph: Hypergraph


def _tensor_line(name: str, shape: tuple[int, ...]) -> str:
    return f"{name}\t{','.join(map(str, shape))}"


def _sections(ckpt: Checkpoint) -> list[list[str]]:
    """Header lines of each of SECTIONS, in order."""
    h = ckpt.hypergraph
    edges = [f"{name}\t{float(w)!r}\t{','.join(map(str, mem))}"
             for name, w, mem in zip(ckpt.edge_names, h.edge_weights, h.edge_members)]
    tensors = [_tensor_line(name, t.data.shape)
               for name, t in ckpt.params.named_parameters()]
    return [serialize_config(ckpt.config).splitlines(), list(ckpt.class_vocab),
            list(ckpt.gene_names), edges, tensors]


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    """Write header plus raw little-endian float32 tensor blocks, atomically:
    the file appears under its final name only once complete.

    The header is three lines (magic, version, ``header_bytes: N``) and then
    N bytes of UTF-8 lines: the storage declaration, each section as a
    ``[name] count`` line followed by exactly ``count`` lines, and a closing
    ``[payload]`` line. Counts and the byte length, not line contents, mark
    where things end, so any name without a newline round-trips.
    """
    body = ["endian: little", "dtype: float32"]
    for name, lines in zip(SECTIONS, _sections(ckpt)):
        body.append(f"[{name}] {len(lines)}")
        body += lines
    body.append("[payload]")
    rest = ("\n".join(body) + "\n").encode("utf-8")
    blob = io.BytesIO()
    blob.write(f"{CHECKPOINT_MAGIC}\nversion: {CHECKPOINT_VERSION}\n"
               f"header_bytes: {len(rest)}\n".encode("utf-8"))
    blob.write(rest)
    for _, t in ckpt.params.named_parameters():
        blob.write(np.ascontiguousarray(t.data, dtype="<f4").tobytes())
    payload = blob.getvalue()
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".ckpt-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _decode(raw: bytes) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as e:
        raise CorruptCheckpoint("undecodable header") from e


def _line(raw: bytes, pos: int) -> tuple[str, int]:
    """The header line starting at byte ``pos``, and where the next starts."""
    end = raw.find(b"\n", pos)
    if end < 0:
        raise CorruptCheckpoint("truncated header")
    return _decode(raw[pos:end]), end + 1


def _counted_sections(lines: list[str]) -> list[list[str]]:
    """Version 2: each section is ``[name] count`` and ``count`` lines."""
    out, pos = [], 0
    for name in SECTIONS:
        tag, _, count = lines[pos].partition(" ") if pos < len(lines) else ("", "", "")
        if tag != f"[{name}]" or not count.isdecimal():
            raise CorruptCheckpoint(f"expected section [{name}] with a count")
        pos += 1
        out.append(lines[pos:pos + int(count)])
        pos += int(count)
    if lines[pos:] != ["[payload]", ""]:
        raise CorruptCheckpoint("header does not end with [payload]")
    return out


def _marked_sections(lines: list[str]) -> list[list[str]]:
    """Version 1: a section runs up to the next line starting with '['."""
    out, pos = [], 0
    for name in SECTIONS:
        if pos >= len(lines) or lines[pos] != f"[{name}]":
            raise CorruptCheckpoint(f"expected section [{name}]")
        pos += 1
        section = []
        while pos < len(lines) and not lines[pos].startswith("["):
            section.append(lines[pos])
            pos += 1
        out.append(section)
    if pos != len(lines):
        raise CorruptCheckpoint("unexpected trailing header content")
    return out


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint of version 1 or 2; every structural inconsistency
    raises CorruptCheckpoint, any other version raises UnsupportedVersion."""
    raw = open(path, "rb").read()
    magic, pos = _line(raw, 0)
    if magic != CHECKPOINT_MAGIC:
        raise CorruptCheckpoint("bad magic")
    line, pos = _line(raw, pos)
    if not line.startswith("version: "):
        raise CorruptCheckpoint("missing version")
    try:
        version = int(line.split(": ", 1)[1])
    except ValueError as e:
        raise CorruptCheckpoint("unreadable version") from e
    if version == 2:
        line, pos = _line(raw, pos)
        key, _, length = line.partition(": ")
        if key != "header_bytes" or not length.isdecimal():
            raise CorruptCheckpoint("missing header length")
        cut = pos + int(length)
        if cut > len(raw):
            raise CorruptCheckpoint("header truncated")
        lines = _decode(raw[pos:cut]).split("\n")
        payload = memoryview(raw)[cut:]
    elif version == 1:
        marker = b"\n[payload]\n"
        cut = raw.find(marker)
        if cut < 0:
            raise CorruptCheckpoint("missing payload marker")
        lines = _decode(raw[pos:cut]).splitlines()
        payload = memoryview(raw)[cut + len(marker):]
    else:
        raise UnsupportedVersion(
            f"checkpoint version {version}, expected 1 or {CHECKPOINT_VERSION}")
    if lines[:2] != ["endian: little", "dtype: float32"]:
        raise CorruptCheckpoint("unexpected storage declaration")
    sections = (_counted_sections if version == 2 else _marked_sections)(lines[2:])
    config_lines, class_vocab, gene_names, edge_lines, tensor_lines = sections
    try:
        config = parse_config("\n".join(config_lines))
    except Exception as e:
        raise CorruptCheckpoint(f"bad embedded config: {e}") from e
    if not class_vocab or not gene_names or not edge_lines:
        raise CorruptCheckpoint("empty classes, genes, or edges section")

    edge_names, edge_weights, edge_lists = [], [], []
    for line in edge_lines:
        parts = line.split("\t")
        if len(parts) != 3:
            raise CorruptCheckpoint(f"bad edge line {line!r}")
        edge_names.append(parts[0])
        try:
            edge_weights.append(float(parts[1]))
            edge_lists.append([int(tok) for tok in parts[2].split(",")])
        except ValueError as e:
            raise CorruptCheckpoint(f"bad edge line {line!r}") from e
    try:
        h = build_hypergraph(edge_lists, edge_weights=edge_weights,
                             num_nodes=len(gene_names))
    except Exception as e:
        raise CorruptCheckpoint(f"bad hypergraph: {e}") from e

    schema = M.param_shapes(len(gene_names), config.hidden_dim,
                            config.num_layers, len(class_vocab))
    if tensor_lines != [_tensor_line(name, shape) for name, shape in schema]:
        raise CorruptCheckpoint("tensor section does not match the parameter "
                                "schema of the embedded config")
    tensors, offset = [], 0
    for name, shape in schema:
        count = math.prod(shape)
        if offset + 4 * count > len(payload):
            raise CorruptCheckpoint(f"payload truncated at tensor {name!r}")
        arr = np.frombuffer(payload, dtype="<f4", count=count, offset=offset)
        try:
            tensors.append(K.parameter(arr.reshape(shape).copy()))
        except ValueError as e:   # a non-finite value
            raise CorruptCheckpoint(f"tensor {name!r}: {e}") from e
        offset += 4 * count
    if offset != len(payload):
        raise CorruptCheckpoint("payload has trailing bytes")

    params = M.ModelParams.from_tensors(
        tensors, config.num_layers, mode=config.mode,
        dropout_rate=config.dropout_rate, leaky_slope=config.leaky_slope,
        use_subgraph_attention=config.use_subgraph_attention)
    return Checkpoint(params=params, config=config, gene_names=gene_names,
                      class_vocab=class_vocab, edge_names=edge_names, hypergraph=h)
