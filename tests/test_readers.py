"""The columnar gene-set, subject and checkpoint readers against
line-by-line reference readers: the same catalog, table or hypergraph, or
the same error."""

import gc
import pathlib
import re
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypersub import cli
from hypersub import dataio as D
from hypersub import model as M
from hypersub.errors import (CorruptCheckpoint, DuplicateSet, EmptySubgraph,
                             InputDataError, MalformedLine, UnknownClass)
from hypersub.hypergraph import build_hypergraph
from hypersub.synthetic import make_synthetic


# ------------------------------------------------------ reference readers

def reference_parse_gmt(source):
    """``parse_gmt`` as a walk over the lines, each set's member names a
    list and the gene index assigned name by name."""
    names, descriptions, members = [], [], []
    seen = {}
    gene_index = {}
    for no, line in D._lines(source):
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
        genes = list(dict.fromkeys(g for g in parts[2:] if g))
        if not genes:
            raise MalformedLine(no, f"gene set {name!r} has no genes")
        for g in genes:
            if g not in gene_index:
                gene_index[g] = len(gene_index)
        names.append(name)
        descriptions.append(desc)
        members.append(genes)
    return SimpleNamespace(names=names, descriptions=descriptions, members=members,
                           gene_index=gene_index)


def reference_load_subgraphs(source, catalog, class_vocab=None, skip_empty=False):
    """``load_subgraphs`` as a walk over the lines and their member tokens,
    every check in the order the line is read, with each subject as a record
    of names."""
    subjects = []
    seen_ids = set()
    seen_labels = set()
    excluded = []
    declared = set(class_vocab) if class_vocab is not None else None
    for no, line in D._lines(source):
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

        kept = {}   # gene -> weight, first occurrence wins
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
                if not 0 <= w <= float(np.finfo(np.float32).max):   # finite in float32 too
                    raise MalformedLine(no, f"member weight must be finite and >= 0, got {wtext}")
            else:
                gene, w = token, 1.0
            if not gene:
                raise MalformedLine(no, f"member token {token!r} has no gene symbol")
            if gene not in catalog.gene_index:
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
        subjects.append(D.SubjectRecord(sid, labels, genes, weights))

    vocab = list(class_vocab) if class_vocab is not None else sorted(seen_labels)
    return SimpleNamespace(subjects=subjects, class_vocab=vocab,
                           excluded_subjects=excluded)


def reference_edge_lines(edge_lines):
    """Names and member lists of checkpoint edge lines, parsed line by line,
    each member token with ``int``; a weight field that is not a positive
    finite number makes a bad edge line."""
    edge_names, edge_lists = [], []
    for line in edge_lines:
        parts = line.split("\t")
        if len(parts) != 3:
            raise CorruptCheckpoint(f"bad edge line {line!r}")
        edge_names.append(parts[0])
        try:
            if not 0.0 < float(parts[1]) < np.inf:
                raise ValueError("edge weight must be positive and finite")
            edge_lists.append([int(tok) for tok in parts[2].split(",")])
        except ValueError as e:
            raise CorruptCheckpoint(f"bad edge line {line!r}") from e
    return edge_names, edge_lists


def reference_edge_section(edge_lines, num_genes):
    """The edge section of a checkpoint, parsed line by line and built into
    a hypergraph; then the first name given to two edges is corrupt."""
    edge_names, edge_lists = reference_edge_lines(edge_lines)
    try:
        h = build_hypergraph(edge_lists, num_nodes=num_genes)
    except Exception as e:
        raise CorruptCheckpoint(f"bad hypergraph: {e}") from e
    for name in edge_names:
        if edge_names.count(name) > 1:
            raise CorruptCheckpoint(f"edge {name!r} appears twice in the edges section")
    return edge_names, h


def outcome(fn, *args, **kwargs):
    """What a call returns, or the class, message and line of what it raises."""
    try:
        return "ok", fn(*args, **kwargs)
    except Exception as e:   # noqa: BLE001 -- every error is compared
        return "error", (type(e), str(e), getattr(e, "line_no", None))


# ---------------------------------------------------------------- gene sets

_SET_NAMES = ["p1", "p2", "p3", "p4", "p5", "", " ", "p 6", "#p"]
_DESCRIPTIONS = ["", "-", "a set", "#d"]
_SET_GENES = ["TP53", "BRCA1", "KRAS", "", "", " ", "A:B", "x y", "#g", "é"]


@st.composite
def _gmt_files(draw):
    """Up to 6 lines of gene sets, comments, blanks and lines under three
    fields, each ended by \n, \r\n or \r; names, descriptions and genes
    drawn from small pools, so sets repeat names and share and repeat
    genes, and fields are often empty."""
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        fields = [draw(st.sampled_from(_SET_NAMES)), draw(st.sampled_from(_DESCRIPTIONS)),
                  *draw(st.lists(st.sampled_from(_SET_GENES), min_size=1, max_size=6))]
        shape = draw(st.sampled_from(["ok"] * 12 + ["comment", "blank", "one", "two"]))
        line = {"ok": "\t".join(fields), "comment": "# " + "\t".join(fields),
                "blank": " ", "one": fields[0], "two": "\t".join(fields[:2])}[shape]
        lines.append(line + draw(st.sampled_from(["\n", "\r\n", "\r"])))
    return "".join(lines)


def _catalogs_equal(a, b):
    return (a.names, a.descriptions, a.members, list(a.gene_index.items())) \
        == (b.names, b.descriptions, b.members, list(b.gene_index.items()))


@settings(max_examples=300, deadline=None)
@given(_gmt_files())
def test_parse_gmt_matches_the_line_walk(text):
    got = outcome(D.parse_gmt, text)
    want = outcome(reference_parse_gmt, text)
    assert got[0] == want[0], (got, want)
    if got[0] == "error":
        assert got[1] == want[1]
        return
    catalog, ref = got[1], want[1]
    assert _catalogs_equal(catalog, ref)
    assert catalog.member_rows.dtype == catalog.sizes.dtype == np.intp
    h = catalog.to_hypergraph()
    ref_h = build_hypergraph([[ref.gene_index[g] for g in m] for m in ref.members],
                             num_nodes=len(ref.gene_index))
    assert (h.num_nodes, h.num_edges) == (ref_h.num_nodes, ref_h.num_edges)
    for field in ("edge_of_pair", "node_of_pair"):
        assert np.array_equal(getattr(h, field), getattr(ref_h, field))


@settings(max_examples=200, deadline=None)
@given(_gmt_files())
def test_gmt_round_trips_from_text_and_from_a_checkpoint(text):
    status, catalog = outcome(D.parse_gmt, text)
    if status == "error":
        return
    assert _catalogs_equal(D.parse_gmt(D.serialize_gmt(catalog)), catalog)
    # the catalog a command rebuilds from a checkpoint of these sets: members
    # ascending by gene index, which keeps the index order on a reparse
    ckpt = D.Checkpoint(params=None, config=None, gene_names=catalog.genes,
                        class_vocab=[], edge_names=catalog.names,
                        hypergraph=catalog.to_hypergraph())
    rebuilt = cli._catalog_from_checkpoint(ckpt)
    assert rebuilt.members == [sorted(m, key=catalog.gene_index.get) for m in catalog.members]
    assert _catalogs_equal(D.parse_gmt(D.serialize_gmt(rebuilt)), rebuilt)


# ------------------------------------------------------------ subject files

CATALOG = D.parse_gmt("p1\t-\tTP53\tBRCA1\tA:B\tx y\t d\n"
                      "p2\t-\tBRCA1\tKRAS\t:\tTP53 \n")

# Valid files are drawn from values that parse; faulty ones are valid files
# with one to three faults put in. Genes holding ':' are given a weight.
_GENES = ["TP53", "BRCA1", "KRAS", "x y", " d", "TP53 ", "A:B", ":"] * 2 + ["NOSUCH", "d"]
_WEIGHTS = [None, None, "0", "0.0", "1", "2.5", "-0", "1_0", "١", " 1", "1 ", "0.125"]
# whitespace that str.strip removes but that does not end a line
_PADS = [""] * 4 + [" ", "\x1f", "\xa0", "\u2003"]
_LABELS = ["a", "b", "a,b", "b,a,a", "", "-", " a "]
_IDS = ["s1", "s2", "s3", "s4", "s5", "s6", "s7", "s 8"]
_FAULTS = {
    "id": [""],   # or the id of a line
    "labels": ["a,,b", "c", "a, c", ","],
    "weight": ["-1", "nan", "inf", "1e400", "1e39", "abc", "", ":1"],
    "gene": ["", " "],
    "fields": ["short", "long"],
    "members": [[]],
    "zero": ["0"],
    "unknown": ["NOSUCH"],
}
_FAULT_KINDS = ["weight", "labels", "gene", "weight", "id", "zero", "labels", "members",
                "unknown", "fields"]


@st.composite
def _token(draw, weighted=False):
    """[pad, gene, weight, pad]; with ``weighted``, a gene:weight token that
    holds one ':'."""
    if weighted:
        return [draw(st.sampled_from(_PADS)),
                draw(st.sampled_from([g for g in _GENES if ":" not in g])),
                draw(st.sampled_from([w for w in _WEIGHTS if w is not None])),
                draw(st.sampled_from(_PADS))]
    gene, weight = draw(st.sampled_from(_GENES)), draw(st.sampled_from(_WEIGHTS))
    if weight is None and ":" in gene:
        weight = "1"
    return [draw(st.sampled_from(_PADS)), gene, weight, draw(st.sampled_from(_PADS))]


def _render(sid, labels, tokens, shape):
    members = ",".join(pad + (gene if weight is None else f"{gene}:{weight}") + end
                       for pad, gene, weight, end in tokens)
    line = f"{sid}\t{labels}\t{members}"
    return {"ok": line, "comment": "# " + line, "blank": "   ",
            "short": f"{sid}\t{members}", "long": line + "\textra"}[shape]


@st.composite
def _subject_files(draw, faults):
    """Up to 8 subject lines, with one to three faults if ``faults``. Half
    the files hold gene:weight tokens alone; lines draw their labels from a
    few fields, so fields repeat."""
    count = draw(st.integers(1 if faults else 0, 8))
    token = _token(weighted=draw(st.booleans()))
    fields = draw(st.lists(st.sampled_from(_LABELS), min_size=1, max_size=3))
    lines = [[sid, draw(st.sampled_from(fields)), draw(st.lists(token, min_size=1,
                                                                 max_size=5)),
              draw(st.sampled_from(["ok"] * 6 + ["comment", "blank"]))]
             for sid in draw(st.permutations(_IDS))[:count]]
    for _ in range(draw(st.integers(1, 3)) if faults else 0):
        line = draw(st.sampled_from(lines))
        kind = draw(st.sampled_from(_FAULT_KINDS))
        value = draw(st.sampled_from(_FAULTS[kind] + [other[0] for other in lines]
                                     if kind == "id" else _FAULTS[kind]))
        token = draw(st.sampled_from(line[2])) if line[2] else ["", "TP53", None, ""]
        if kind in ("id", "labels", "members"):
            line[{"id": 0, "labels": 1, "members": 2}[kind]] = value
        elif kind == "fields":
            line[3] = value
        elif kind in ("weight", "gene"):
            token[{"gene": 1, "weight": 2}[kind]] = value
        else:
            for token in line[2]:
                token[2 if kind == "zero" else 1] = value
    return "".join(_render(*line) + "\n" for line in lines)


def _tables_equal(a, b):
    rows = [[(r.subject_id, r.labels, r.genes, list(map(repr, r.weights)))
             for r in t.subjects] for t in (a, b)]
    return rows[0] == rows[1] and (a.class_vocab, a.excluded_subjects) \
        == (b.class_vocab, b.excluded_subjects)


@pytest.mark.parametrize("faults", [False, True], ids=["valid", "faulty"])
@settings(max_examples=200, deadline=None)
@given(data=st.data(), vocab=st.sampled_from([None, ["a", "b"], ["b", "a", "c"]]),
       skip_empty=st.booleans())
def test_load_subgraphs_matches_the_line_walk(faults, data, vocab, skip_empty):
    text = data.draw(_subject_files(faults))
    got = outcome(D.load_subgraphs, text, CATALOG, vocab, skip_empty)
    want = outcome(reference_load_subgraphs, text, CATALOG, vocab, skip_empty)
    assert got[0] == want[0], (got, want)
    if got[0] == "ok":
        assert _tables_equal(got[1], want[1])
    else:
        assert got[1] == want[1]


@settings(max_examples=200, deadline=None)
@given(text=_subject_files(False), vocab=st.sampled_from([None, ["b", "a", "c"]]),
       skip_empty=st.booleans())
def test_resolved_columns_match_the_records_looked_up(text, vocab, skip_empty):
    (status, table), (_, want) = (outcome(fn, text, CATALOG, vocab, skip_empty)
                                  for fn in (D.load_subgraphs, reference_load_subgraphs))
    if status == "error":   # a subject with no catalog gene of positive weight
        assert table == want
        return
    if not want.subjects:
        with pytest.raises(InputDataError, match="no subjects"):
            D.resolve_subjects(table)
        return
    got = D.resolve_subjects(table)
    col = {c: k for k, c in enumerate(want.class_vocab)}
    labels = np.zeros((len(want.subjects), len(col)))
    for k, r in enumerate(want.subjects):
        labels[k, [col[lab] for lab in r.labels]] = 1.0
    ref = M.SubgraphBatch.from_flat(
        [CATALOG.gene_index[g] for r in want.subjects for g in r.genes],
        [w for r in want.subjects for w in r.weights],
        [len(r.genes) for r in want.subjects], labels,
        [r.subject_id for r in want.subjects])
    assert got.member_rows.dtype == ref.member_rows.dtype == np.intp
    assert np.array_equal(got.member_rows, ref.member_rows)
    assert got.member_weights.tobytes() == ref.member_weights.tobytes()
    assert np.array_equal(got.groups.counts, ref.groups.counts)
    assert np.array_equal(got.labels, ref.labels)
    assert got.subject_ids == ref.subject_ids


def test_weighted_tokens_take_the_fast_path(monkeypatch):
    # make-synthetic and benchmark-style files never reach the general
    # tokenizer, so a lost fast path fails here and not only in timings
    def general(*args):
        raise AssertionError("the general tokenizer ran")
    synth = make_synthetic(num_nodes=40, num_edges=8, num_classes=4, num_subjects=60, seed=3)
    catalog = D.parse_gmt(synth.gmt_text())
    bench = D.parse_gmt("PW0000\tsynthetic\tG00001\tG00002\tG00003\n")
    lines = "s000000\tC0\tG00001:0.500000,G00003:0.031250\ns000001\t-\tG00002:1.000000\n"
    monkeypatch.setattr(D, "_tokens", general)
    assert D.load_subgraphs(synth.subgraphs_text(), catalog).sizes.sum() > 0
    assert D.load_subgraphs(lines, bench).member_rows.tolist() == [0, 2, 1]
    with pytest.raises(AssertionError, match="general tokenizer"):
        D.load_subgraphs("s\tC0\tG00001\n", bench)


def test_load_subgraphs_names_the_first_of_several_faulty_lines():
    text = ("ok\ta\tTP53:0.5\n"
            "s2\ta\tTP53:1,BRCA1:x\n"      # line 2: bad weight
            "s3\ta\t\n"                    # line 3: empty member list
            "s3\ta\tTP53\n")               # line 4: repeated subject
    with pytest.raises(MalformedLine, match="bad weight 'x'") as err:
        D.load_subgraphs(text, CATALOG)
    assert err.value.line_no == 2


def test_all_zero_subjects_are_excluded_or_named():
    text = "a\ta\tTP53:0,KRAS:0.0\nb\ta\tNOSUCH:1\nc\ta\tKRAS:0,TP53:2\n"
    table = D.load_subgraphs(text, CATALOG, skip_empty=True)
    assert [r.subject_id for r in table.subjects] == ["c"]
    assert table.excluded_subjects == ["a", "b"]
    with pytest.raises(MalformedLine, match="positive weight") as err:
        D.load_subgraphs(text, CATALOG)
    assert err.value.line_no == 1


# --------------------------------------------------------- checkpoint edges

# the version 2 fixture's genes: every edge-line test edits that file, so
# the version 2 reader keeps its tests now that the writer writes version 3
V2_FIXTURE = pathlib.Path(__file__).parent / "data" / "v2.ckpt"
GENES = ["G1", "G2", "G3", "G4", "G5", "G6"]
# a member token in the grammar the checkpoint reader accepts
_GRAMMAR = re.compile(r"[ \t\n\x0b\x0c\r]*[+-]?[0-9]+[ \t\n\x0b\x0c\r]*")


def _in_grammar(token: str) -> bool:
    return bool(_GRAMMAR.fullmatch(token)) and \
        np.iinfo(np.intp).min <= int(token) <= np.iinfo(np.intp).max


def expected_edges(edge_lines, num_genes):
    """The reference reader, narrowed to the grammar: a line whose tokens
    all pass ``int`` but not all the grammar is a bad edge line too."""
    for line in edge_lines:
        reference_edge_lines([line])
        if not all(map(_in_grammar, line.split("\t")[2].split(","))):
            raise CorruptCheckpoint(f"bad edge line {line!r}")
    return reference_edge_section(edge_lines, num_genes)


def with_edge_lines(raw: bytes, edge_lines) -> bytes:
    """A version 2 checkpoint with its edge section replaced."""
    top, rest = raw.split(b"header_bytes: ", 1)
    length, rest = rest.split(b"\n", 1)
    header, payload = rest[:int(length)].decode(), rest[int(length):]
    lines = header.split("\n")
    at = next(i for i, line in enumerate(lines) if line.startswith("[edges] "))
    lines[at:at + 1 + int(lines[at].split(" ")[1])] = \
        [f"[edges] {len(edge_lines)}", *edge_lines]
    body = "\n".join(lines).encode()
    return top + b"header_bytes: " + str(len(body)).encode() + b"\n" + body + payload


_INT_TOKEN = st.one_of(
    st.integers(0, 5).map(str),
    st.sampled_from(["6", "-1", "+2", " 3", "3 ", "\x0b1", "007", "", " ", "-", "+",
                     "- 1", "1_0", "١", "0x10", "1.5", "1e3", "99999999999999999999",
                     "-99999999999999999999", "9223372036854775807",
                     "-9223372036854775808", "9223372036854775808", "1\x1c", "\r2"]))


@st.composite
def _edge_line(draw):
    members = ",".join(draw(st.lists(_INT_TOKEN, min_size=1, max_size=4)))
    weight = draw(st.sampled_from(["1.0", "0.5", "2", "1_0", "nan", "0", "-1", "x"]))
    line = f"e{draw(st.integers(0, 9))}\t{weight}\t{members}"
    return draw(st.sampled_from([line] * 6 + [line + "\tmore", f"e\t{members}"]))


@settings(max_examples=300, deadline=None)
@given(st.lists(_edge_line(), min_size=1, max_size=4))
def test_checkpoint_edges_match_the_line_walk(tmp_path_factory, edge_lines):
    path = tmp_path_factory.mktemp("ckpt") / "edges.ckpt"
    path.write_bytes(with_edge_lines(V2_FIXTURE.read_bytes(), edge_lines))
    got = outcome(D.load_checkpoint, path)
    want = outcome(expected_edges, edge_lines, len(GENES))
    assert got[0] == want[0], (got, want)
    if got[0] == "error":
        assert got[1] == want[1]
    else:
        names, h = want[1]
        ckpt = got[1]
        assert ckpt.edge_names == names
        for field in ("edge_of_pair", "node_of_pair"):
            assert np.array_equal(getattr(ckpt.hypergraph, field), getattr(h, field))


@pytest.mark.parametrize("members", ["1,,2", "1,2,", "", "99999999999999999999",
                                     "0x10", "1.5", "-", "- 1", "1_0", "١",
                                     "1 2", "+-1", "1+2", "1-", "--1"])
def test_bad_member_tokens_name_their_edge_line(tmp_path, members):
    line = f"e9\t1.0\t{members}"
    path = tmp_path / "bad.ckpt"
    path.write_bytes(with_edge_lines(V2_FIXTURE.read_bytes(), ["e0\t1.0\t0,1", line]))
    with pytest.raises(CorruptCheckpoint) as err:
        D.load_checkpoint(path)
    assert str(err.value) == f"bad edge line {line!r}"


def test_flat_hypergraph_matches_the_lists():
    lists = [[3, 1, 1], [0], [2, 4]]
    flat = build_hypergraph(np.array([3, 1, 1, 0, 2, 4]), sizes=[3, 1, 2])
    h = build_hypergraph(lists)
    assert np.array_equal(flat.edge_of_pair, h.edge_of_pair)
    assert np.array_equal(flat.node_of_pair, h.node_of_pair)
    with pytest.raises(ValueError, match="sizes"):
        build_hypergraph(np.array([0, 1]), sizes=[3])


def test_readers_close_the_files_they_read(tmp_path):
    gmt = tmp_path / "sets.gmt"
    gmt.write_text("p1\t-\tTP53\tBRCA1\n")
    ckpt = tmp_path / "edges.ckpt"
    ckpt.write_bytes(V2_FIXTURE.read_bytes())
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        D.parse_gmt(gmt)
        D.load_checkpoint(ckpt)
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
