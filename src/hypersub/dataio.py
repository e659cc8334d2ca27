"""File formats and dataset assembly.

Text inputs are tab-separated with '#' comment lines; gene symbols are
case-sensitive and never normalized. Checkpoints pair a human-readable header
with raw little-endian blocks (float32 tensors, then the int32 hyperedge
members) and are written atomically.
"""

from __future__ import annotations

import io
import logging
import math
import os
import re
import tempfile
from collections import Counter
from dataclasses import dataclass, field, fields
from functools import cached_property
from itertools import chain, repeat
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
CHECKPOINT_VERSION = 3          # the version written; versions 1 and 2 are still read
SECTIONS = ("config", "classes", "genes", "edges", "tensors")


def _split_lines(text: str) -> list[str]:
    """``text`` cut at the universal newlines \\n, \\r\\n and \\r only."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text.split("\n")


def _lines(source) -> Iterable[tuple[int, str]]:
    """Numbered lines of a text blob, os.PathLike path, or text or binary
    file-like object, with blank and '#' comment lines removed. Plain strings
    are always text; use pathlib.Path to read from disk; bytes that are not
    UTF-8 raise MalformedLine."""
    if isinstance(source, os.PathLike):
        with open(source, "rb") as fh:
            text = fh.read()
    else:
        text = source if isinstance(source, str) else source.read()
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as e:
            no = len(_split_lines(text[:e.start].decode("utf-8")))
            raise MalformedLine(no, f"not UTF-8 text ({e.reason} at byte {e.start})") from None
    for no, line in enumerate(_split_lines(text), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        yield no, line


# ----------------------------------------------------------------- gene sets

@dataclass(eq=False)
class GeneSetCatalog:
    """Named gene sets plus the node index assignment they induce.

    Genes are indexed in order of first appearance across sets. The sets
    are held as integer columns: set j holds the next ``sizes[j]`` of the
    flat ``member_rows``, the gene indices of its members, each once.
    """

    names: list[str]
    descriptions: list[str]
    gene_index: dict[str, int]
    member_rows: np.ndarray
    sizes: np.ndarray

    @property
    def num_genes(self) -> int:
        return len(self.gene_index)

    @property
    def genes(self) -> list[str]:
        return list(self.gene_index)

    @property
    def members(self) -> list[list[str]]:
        """Each set's member names in column order, derived on every read."""
        names = np.array(self.genes, dtype=object)[self.member_rows].tolist()
        bounds = np.cumsum(self.sizes).tolist()
        return [names[end - size:end] for size, end in zip(self.sizes.tolist(), bounds)]

    def to_hypergraph(self) -> Hypergraph:
        return build_hypergraph(self.member_rows, num_nodes=self.num_genes, sizes=self.sizes)


def parse_gmt(source) -> GeneSetCatalog:
    """Parse tab-separated gene sets: name, description, then one field per
    gene. Duplicate set names and lines with fewer than three fields fail.
    Empty gene fields are skipped and a set's repeats of a gene dropped;
    each kept gene is looked up once, to give its index."""
    names, descriptions, sizes = [], [], []
    seen: dict[str, int] = {}   # each set's line
    gene_index: dict[str, int] = {}
    index = gene_index.setdefault
    rows: list[int] = []
    for no, line in _lines(source):
        parts = line.split("\t")
        if len(parts) < 3:
            raise MalformedLine(no, f"expected at least 3 tab-separated fields, got {len(parts)}")
        name, desc = parts[0], parts[1]
        if not name:
            raise MalformedLine(no, "empty set name")
        if name in seen:
            raise DuplicateSet(f"line {no}: gene set {name!r} appears twice, "
                               f"first on line {seen[name]}")
        seen[name] = no
        genes = dict.fromkeys(parts[2:])
        genes.pop("", None)
        if not genes:
            raise MalformedLine(no, f"gene set {name!r} has no genes")
        rows += [index(g, len(gene_index)) for g in genes]
        names.append(name)
        descriptions.append(desc)
        sizes.append(len(genes))
    return GeneSetCatalog(names, descriptions, gene_index, np.array(rows, dtype=np.intp),
                          np.array(sizes, dtype=np.intp))


def serialize_gmt(catalog: GeneSetCatalog) -> str:
    out = io.StringIO()
    for name, desc, mem in zip(catalog.names, catalog.descriptions, catalog.members):
        out.write("\t".join([name, desc, *mem]) + "\n")
    return out.getvalue()


# ----------------------------------------------------------------- subgraphs

@dataclass
class SubjectRecord:
    """One subject by name: the element of ``SubgraphTable.subjects``."""
    subject_id: str
    labels: list[str]
    genes: list[str]
    weights: list[float]


@dataclass(eq=False)
class SubgraphTable:
    """Parsed subjects as columns, in file order. Subject k holds the next
    ``sizes[k]`` of the flat ``member_rows`` (catalog rows, each gene once,
    named by ``gene_names``) and ``member_weights``, its labels,
    deduplicated in file order, as ``label_columns[k]`` into
    ``class_vocab``, and its line of the file as ``line_numbers[k]``."""

    subject_ids: list[str]
    label_columns: list[list[int]]
    member_rows: np.ndarray
    member_weights: np.ndarray
    sizes: np.ndarray
    line_numbers: np.ndarray
    class_vocab: list[str]
    gene_names: Sequence[str]
    excluded_subjects: list[str] = field(default_factory=list)

    @cached_property
    def subjects(self) -> list[SubjectRecord]:
        """Each subject by name, derived from the columns once and cached."""
        ends = np.cumsum(self.sizes).tolist()
        genes = np.array(self.gene_names, dtype=object)[self.member_rows].tolist()
        weights = self.member_weights.tolist()
        return [SubjectRecord(sid, [self.class_vocab[c] for c in cols],
                              genes[end - size:end], weights[end - size:end])
                for sid, cols, size, end in zip(self.subject_ids, self.label_columns,
                                                self.sizes.tolist(), ends)]


def _labels(field: str) -> list[str]:
    """The stripped comma-separated labels of a labels field; '-' or an
    empty field means none."""
    if not field or field == "-":
        return []
    return [lab.strip() for lab in field.split(",")]


def _member_gene(no: int, token: str) -> str:
    """The gene of one stripped member token, once its checks pass; else
    the error that names its line."""
    if not token:
        raise MalformedLine(no, "empty member token")
    gene, sep, wtext = token.rpartition(":")
    if not sep:
        gene = wtext
    else:
        try:
            w = float(wtext)
        except ValueError:
            raise MalformedLine(no, f"bad weight {wtext!r}") from None
        if not 0 <= w <= M.MAX_WEIGHT:
            raise MalformedLine(no, f"member weight must be finite and >= 0, got {wtext}")
    if not gene:
        raise MalformedLine(no, f"member token {token!r} has no gene symbol")
    return gene


def _raise_subject_fault(no: int, line: str, earlier_ids: set[str],
                         declared: set[str] | None, gene_index: dict[str, int]):
    """Raise the error of a subject line known to be faulty: its first
    failing check, in the order the line is read. A line that passes every
    field and member check is faulty only for having no catalog gene with a
    positive weight."""
    parts = line.split("\t")
    if len(parts) != 3:
        raise MalformedLine(no, f"expected 3 tab-separated fields, got {len(parts)}")
    sid, label_field, member_field = parts
    if not sid:
        raise MalformedLine(no, "empty subject id")
    if sid in earlier_ids:
        raise MalformedLine(no, f"subject {sid!r} appears twice")
    for lab in _labels(label_field):
        if not lab:
            raise MalformedLine(no, "empty label")
        if declared is not None and lab not in declared:
            raise UnknownClass(f"line {no}: label {lab!r} not in class vocabulary")
    if not member_field:
        raise MalformedLine(no, "empty member list")
    genes = [_member_gene(no, token.strip()) for token in member_field.split(",")]
    if not any(map(gene_index.__contains__, genes)):
        raise EmptySubgraph(f"line {no}: subject {sid!r} has no catalog genes")
    raise MalformedLine(no, f"subject {sid!r} has no catalog gene with a positive weight")


def _members(fields: list[str]) -> tuple[list[str], np.ndarray]:
    """Genes and weights of the comma-separated member tokens of every
    field, flat and in order. Tokens are read stripped, a gene is all of
    its token before the last ':' and a weight all after it (1.0 without
    one; NaN where it does not parse). Splitting the joined fields at both
    ',' and ':' cuts every token into pieces, and the order of the
    separators says which piece is which."""
    joined = ",".join(fields)
    raw = np.frombuffer(joined.encode("utf-8"), np.uint8)
    if not joined.isascii() or raw.min(initial=255) <= ord(" "):   # maybe whitespace
        joined = ",".join(map(str.strip, joined.split(",")))
        raw = np.frombuffer(joined.encode("utf-8"), np.uint8)
    colon = raw[(raw == ord(",")) | (raw == ord(":"))] == ord(":")
    pieces = joined.replace(":", ",").split(",")
    if colon.size % 2 and colon[::2].all() and not colon[1::2].any():
        try:   # every token is gene:weight, so genes and weights alternate
            return pieces[::2], np.fromiter(map(float, pieces[1::2]), np.float64,
                                            len(pieces) // 2)
        except ValueError:   # a weight that is no number is read as NaN below
            pass
    return _tokens(pieces, colon)


def _tokens(pieces: list[str], colon: np.ndarray) -> tuple[list[str], np.ndarray]:
    """``_members`` for tokens of any shape, from their pieces and whether
    each separator between two pieces is a ':'."""
    first = np.flatnonzero(np.concatenate(([True], ~colon)))
    last = np.append(first[1:], len(pieces)) - 1
    piece = np.array(pieces, dtype=object)
    genes = piece[first]
    for k in np.flatnonzero(last - first > 1).tolist():   # a gene holding ':'
        genes[k] = ":".join(pieces[first[k]:last[k]])
    weighted = last > first
    texts = piece[last[weighted]].tolist()
    weights = np.ones(genes.size)
    try:
        weights[weighted] = list(map(float, texts))
    except ValueError:
        weights[weighted] = list(map(_float_or_nan, texts))
    return genes.tolist(), weights


def _float_or_nan(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return math.nan


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

    The file is read as columns: each line's fields are split once, and the
    member tokens of every line are parsed, looked up and checked as flat
    arrays. Only a file with a fault goes back to a single line, its first
    faulty one, whose error ``_raise_subject_fault`` raises. The table keeps
    the rows found by the one lookup of each member token, and each
    subject's line number."""
    numbered = list(_lines(source))
    declared = set(class_vocab) if class_vocab is not None else None
    fields = [line.split("\t") for _, line in numbered]
    # the lines before the first one without three fields are the columns
    short = np.flatnonzero(np.fromiter(map(len, fields), np.intp, len(fields)) != 3)
    n = int(short[0]) if short.size else len(fields)
    ids, label_fields, member_fields = map(list, zip(*fields[:n])) if n else ([], [], [])

    # fault[i]: line i fails a check
    first = dict(zip(reversed(ids), range(n - 1, -1, -1)))   # each id's first line
    fault = np.fromiter(map(first.__getitem__, ids), np.intp, n) != np.arange(n)
    fault |= np.fromiter(map(len, ids), np.intp, n) == 0
    fault |= np.fromiter(map(len, member_fields), np.intp, n) == 0
    # each distinct labels field is parsed and checked once
    labels = {f: _labels(f) for f in dict.fromkeys(label_fields)}
    unusable = {f: not all(labs) or (declared is not None and not declared.issuperset(labs))
                for f, labs in labels.items()}
    fault |= np.fromiter(map(unusable.__getitem__, label_fields), bool, n)

    # every member token, flat, with its line; each line keeps the first
    # use of each of its catalog genes
    genes, weights = _members(member_fields) if n else ([], np.zeros(0))
    owner = np.repeat(np.arange(n), np.fromiter(
        map(str.count, member_fields, repeat(",")), np.intp, n) + 1)
    rows = np.fromiter(map(catalog.gene_index.get, genes, repeat(-1)), np.intp, len(genes))
    bad = ~((weights >= 0) & (weights <= M.MAX_WEIGHT))
    # a token with no gene is not a catalog gene, unless the catalog names ""
    unknown = range(len(genes)) if "" in catalog.gene_index else np.flatnonzero(rows < 0).tolist()
    bad[[k for k in unknown if not genes[k]]] = True
    fault[owner[bad]] = True
    known = np.flatnonzero(rows >= 0)
    _, first_use = np.unique(owner[known] * max(1, catalog.num_genes) + rows[known],
                             return_index=True)
    keep = known[np.sort(first_use)]
    positive = np.bincount(owner[keep[weights[keep] > 0]], minlength=n) > 0
    if not skip_empty:
        fault |= ~positive

    faulty = np.flatnonzero(fault)
    if faulty.size or short.size:
        i = int(faulty[0]) if faulty.size else n
        _raise_subject_fault(*numbered[i], set(ids[:i]), declared, catalog.gene_index)

    dropped = len(genes) - known.size
    if dropped:
        logger.warning("dropped %d member entries not present in the catalog", dropped)
    keep = keep[positive[owner[keep]]]   # an excluded subject keeps no member
    vocab = list(class_vocab) if class_vocab is not None else \
        sorted(set(chain.from_iterable(labels.values())))
    col = dict(zip(vocab, range(len(vocab))))
    columns = {f: list(dict.fromkeys(map(col.__getitem__, labs))) for f, labs in labels.items()}
    subjects = np.flatnonzero(positive).tolist()
    return SubgraphTable(
        subject_ids=[ids[i] for i in subjects],
        label_columns=[list(columns[label_fields[i]]) for i in subjects],
        member_rows=rows[keep], member_weights=weights[keep],
        sizes=np.bincount(owner[keep], minlength=n)[positive],
        line_numbers=np.fromiter((no for no, _ in numbered[:n]), np.intp, n)[positive],
        class_vocab=vocab, gene_names=catalog.genes,
        excluded_subjects=[ids[i] for i in np.flatnonzero(~positive).tolist()])


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


def resolve_subjects(table: SubgraphTable) -> M.SubgraphBatch:
    """The table's subjects as one batch in file order: its member columns
    as they are, labels a dense 0/1 matrix over the table's class
    vocabulary. A table with no subjects raises InputDataError."""
    n = len(table.subject_ids)
    if not n:
        raise InputDataError("no subjects in the subgraph table")
    dense = np.zeros((n, len(table.class_vocab)), dtype=np.float64)
    dense[np.repeat(np.arange(n), np.fromiter(map(len, table.label_columns), np.intp, n)),
          np.fromiter(chain.from_iterable(table.label_columns), np.intp)] = 1.0
    return M.SubgraphBatch.from_flat(table.member_rows, table.member_weights,
                                     table.sizes, dense, list(table.subject_ids))


def build_dataset(table: SubgraphTable, catalog: GeneSetCatalog,
                  assignment: dict[str, str]) -> SubgraphDataset:
    """Resolve a parsed table into one batch (``resolve_subjects``) with a
    split assignment per subject; every subject must be assigned. ``catalog``
    is unused until benchmark v2 (ROADMAP item 1), which calls this with it."""
    split = list(map(assignment.get, table.subject_ids))
    if None in split:
        k = split.index(None)
        raise InputDataError(f"line {table.line_numbers[k]}: subject "
                             f"{table.subject_ids[k]!r} has no split assignment")
    return SubgraphDataset(resolve_subjects(table), table.class_vocab, split)


# -------------------------------------------------------------------- config

def parse_config(source) -> TrainConfig:
    """Flat key = value config. Unknown keys fail fast; values are coerced to
    the field's type. Missing keys keep their default value. A value out of
    range raises InvalidConfigValue naming its key and line."""
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
    config = TrainConfig(**overrides)
    try:
        config.validate()
    except InvalidConfigValue as e:   # name the line that set the value
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
    sizes = ckpt.hypergraph.by_edge.counts.tolist()
    edges = [f"{name}\t{size}" for name, size in zip(ckpt.edge_names, sizes)]
    tensors = [_tensor_line(name, t.data.shape)
               for name, t in ckpt.params.named_parameters()]
    return [serialize_config(ckpt.config).splitlines(), list(ckpt.class_vocab),
            list(ckpt.gene_names), edges, tensors]


_INT32_MAX = int(np.iinfo(np.int32).max)


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    """Write header plus raw little-endian blocks, atomically: the file
    appears under its final name only once complete.

    The header is three lines (magic, version, ``header_bytes: N``) and then
    N bytes of UTF-8 lines: the storage declaration, each section as a
    ``[name] count`` line followed by exactly ``count`` lines, and a closing
    ``[payload]`` line. Counts and the byte length, not line contents, mark
    where things end, so any name without a newline round-trips. An edge
    line is ``name TAB size``. The payload is every tensor as float32, in
    the order of the tensor section, then the members of every hyperedge
    as one int32 block, edge after edge and ascending within an edge:
    ``Hypergraph.node_of_pair`` as it is. A node index past the int32 range
    raises ValueError before anything is written.
    """
    members = ckpt.hypergraph.node_of_pair
    if members.size and int(members.max()) > _INT32_MAX:
        raise ValueError(f"node index {int(members.max())} does not fit the int32 "
                         "member block of a checkpoint")
    body = ["endian: little", "dtype: float32"]
    for name, lines in zip(SECTIONS, _sections(ckpt)):
        body.append(f"[{name}] {len(lines)}")
        body += lines
    body.append("[payload]")
    rest = ("\n".join(body) + "\n").encode("utf-8")
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".ckpt-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(f"{CHECKPOINT_MAGIC}\nversion: {CHECKPOINT_VERSION}\n"
                     f"header_bytes: {len(rest)}\n".encode("utf-8"))
            fh.write(rest)
            for _, t in ckpt.params.named_parameters():
                fh.write(np.ascontiguousarray(t.data, dtype="<f4"))
            fh.write(members.astype("<i4"))
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


def _declared_sections(lines: list[str]) -> list[list[str]]:
    """Versions 2 and 3: each section is ``[name] count`` and ``count`` lines."""
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


# the members field of a version 1 or 2 edge line: comma-separated tokens,
# each an optional sign and ASCII digits with ASCII whitespace around it
_MEMBERS = re.compile(r"\s*[+-]?[0-9]+\s*(?:,\s*[+-]?[0-9]+\s*)*", re.ASCII)


def _edge_line(line: str) -> tuple[str, np.ndarray]:
    """Name and members of one edge line of a version 1 or 2 checkpoint,
    ``name TAB weight TAB members``: the weight, unused, a positive finite
    number, and the members in the grammar of ``_MEMBERS``, each fitting
    ``np.intp``. Any other line is CorruptCheckpoint naming it."""
    parts = line.split("\t")
    try:
        if len(parts) != 3 or not _MEMBERS.fullmatch(parts[2]):
            raise ValueError("expected a weight and comma-separated integers")
        if not 0.0 < float(parts[1]) < math.inf:
            raise ValueError("edge weight must be positive and finite")
        return parts[0], np.array(list(map(int, parts[2].split(","))), dtype=np.intp)
    except (ValueError, OverflowError) as e:
        raise CorruptCheckpoint(f"bad edge line {line!r}") from e


def _edge_section(lines: list[str]) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Names, member counts and flat members of version 1 and 2 edge lines,
    read line by line, so the first bad line is the one named."""
    names, members = map(list, zip(*map(_edge_line, lines)))
    return names, np.fromiter(map(len, members), np.intp, len(members)), \
        np.concatenate(members)


def _sized_line(line: str) -> tuple[str, int]:
    """Name and size of one version 3 edge line, ``name TAB size``: the size
    a positive integer in canonical decimal, as the writer puts it. Any
    other line is CorruptCheckpoint naming it."""
    name, _, text = line.partition("\t")
    try:
        size = int(text)
    except ValueError:
        size = 0
    if size > 0 and str(size) == text:
        return name, size
    raise CorruptCheckpoint(f"bad edge line {line!r}")


def _member_block(block, names: list[str], sizes: list[int], num_genes: int) -> Hypergraph:
    """The hypergraph of a version 3 member block: every edge's members as
    little-endian int32, edge after edge, ``sizes[j]`` of them for edge j,
    each in [0, num_genes) and rising strictly within its edge. That is the
    layout a Hypergraph holds, so it is checked in one pass and kept as it
    is; anything else is CorruptCheckpoint."""
    total = sum(sizes)   # in Python ints, which hold any size a line can state
    if len(block) != 4 * total:
        raise CorruptCheckpoint(f"member block holds {len(block)} bytes, "
                                f"the edge sizes need {4 * total}")
    sizes = np.array(sizes, dtype=np.intp)
    members = np.frombuffer(block, dtype="<i4").astype(np.intp)
    ends = np.cumsum(sizes)
    outside = np.flatnonzero((members < 0) | (members >= num_genes))
    rising = np.diff(members) > 0
    rising[ends[:-1] - 1] = True   # the first member of the next edge
    if outside.size or not rising.all():
        at = int(outside[0]) if outside.size else int(np.argmin(rising)) + 1
        edge = names[int(np.searchsorted(ends, at, side="right"))]
        if outside.size:
            raise CorruptCheckpoint(f"edge {edge!r} holds member {members[at]}, "
                                    f"outside the {num_genes} genes")
        raise CorruptCheckpoint(f"members of edge {edge!r} do not rise strictly")
    return Hypergraph(num_genes, sizes.size,
                      np.repeat(np.arange(sizes.size, dtype=np.intp), sizes), members)


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint of version 1, 2 or 3; every structural
    inconsistency raises CorruptCheckpoint, any other version raises
    UnsupportedVersion."""
    with open(path, "rb") as fh:
        raw = fh.read()
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
    if version in (2, 3):
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
            f"checkpoint version {version}, expected 1, 2 or {CHECKPOINT_VERSION}")
    if lines[:2] != ["endian: little", "dtype: float32"]:
        raise CorruptCheckpoint("unexpected storage declaration")
    sections = (_marked_sections if version == 1 else _declared_sections)(lines[2:])
    config_lines, class_vocab, gene_names, edge_lines, tensor_lines = sections
    try:
        config = parse_config("\n".join(config_lines))
    except Exception as e:
        raise CorruptCheckpoint(f"bad embedded config: {e}") from e
    if not class_vocab or not gene_names or not edge_lines:
        raise CorruptCheckpoint("empty classes, genes, or edges section")
    if len(set(gene_names)) < len(gene_names):   # two nodes by one name
        twice = next(name for name, n in Counter(gene_names).items() if n > 1)
        raise CorruptCheckpoint(f"gene {twice!r} appears twice in the genes section")

    if version == 3:
        edge_names, sizes = map(list, zip(*map(_sized_line, edge_lines)))
    else:
        edge_names, sizes, members = _edge_section(edge_lines)
        try:
            h = build_hypergraph(members, num_nodes=len(gene_names), sizes=sizes)
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
    if version == 3:
        h = _member_block(payload[offset:], edge_names, sizes, len(gene_names))
    elif offset != len(payload):
        raise CorruptCheckpoint("payload has trailing bytes")

    params = M.ModelParams.from_tensors(
        tensors, config.num_layers, mode=config.mode,
        dropout_rate=config.dropout_rate, leaky_slope=config.leaky_slope,
        use_subgraph_attention=config.use_subgraph_attention)
    return Checkpoint(params=params, config=config, gene_names=gene_names,
                      class_vocab=class_vocab, edge_names=edge_names, hypergraph=h)
