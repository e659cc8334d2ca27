import dataclasses
import io
import pathlib
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypersub import dataio as D
from hypersub import kernel as K
from hypersub import model as M
from hypersub.errors import (CorruptCheckpoint, DuplicateSet, EmptySubgraph,
                             InputDataError, InvalidConfigValue,
                             InvalidSplitRatios, MalformedLine, ShapeError,
                             UnknownClass, UnknownConfigKey,
                             UnsupportedVersion)
from hypersub.hypergraph import build_hypergraph
from hypersub.training import TrainConfig

from conftest import group_positions

GMT = ("pathway_a\tfirst pathway\tTP53\tBRCA1\tEGFR\n"
       "pathway_b\tsecond pathway\tBRCA1\tKRAS\n")


def test_parse_gmt_basic():
    cat = D.parse_gmt(GMT)
    assert cat.names == ["pathway_a", "pathway_b"]
    assert cat.descriptions == ["first pathway", "second pathway"]
    assert cat.members == [["TP53", "BRCA1", "EGFR"], ["BRCA1", "KRAS"]]
    # first-appearance index order
    assert cat.gene_index == {"TP53": 0, "BRCA1": 1, "EGFR": 2, "KRAS": 3}


def test_parse_gmt_skips_comments_and_blanks():
    cat = D.parse_gmt("# a comment\n\n" + GMT + "\n#another\n")
    assert len(cat.names) == 2


def test_parse_gmt_is_case_sensitive():
    cat = D.parse_gmt("s1\td\tTP53\ttp53\n")
    assert cat.members == [["TP53", "tp53"]]
    assert cat.num_genes == 2


def test_parse_gmt_rejects_malformed():
    with pytest.raises(MalformedLine) as err:
        D.parse_gmt("pathway_a\tonly description\n")
    assert err.value.line_no == 1
    with pytest.raises(MalformedLine) as err:
        D.parse_gmt(GMT + "bad line without tabs\n")
    assert err.value.line_no == 3
    with pytest.raises(DuplicateSet, match="^line 3: gene set 'pathway_a' appears "
                                           "twice, first on line 1$"):
        D.parse_gmt(GMT + "pathway_a\tagain\tMYC\n")


READERS = {"gmt": (D.parse_gmt, GMT),
           "subgraphs": (lambda src: D.load_subgraphs(src, catalog()), "s\tluminal\tTP53\n"),
           "split": (D.load_split, "s1\ttrain\ns2\tval\n"),
           "config": (D.parse_config, "hidden_dim = 8\nseed = 3\n")}


def plain(value):
    """A reader's result with its arrays as lists, so that == compares it."""
    if dataclasses.is_dataclass(value):
        return {f.name: plain(getattr(value, f.name)) for f in dataclasses.fields(value)}
    return value.tolist() if isinstance(value, np.ndarray) else value


@pytest.mark.parametrize("reader", sorted(READERS))
@pytest.mark.parametrize("bad, line", [(b"\xff", 1), (b"\xc3A", 1)])
def test_readers_name_the_line_of_a_non_utf8_byte(tmp_path, reader, bad, line):
    fn, text = READERS[reader]
    path = tmp_path / "input.txt"
    first = bad + b"\n" + text.encode()
    # after a comment, a blank line and a CRLF line; mid-line in a UTF-8 file
    later = (b"# \xc3\xa9\n\r\n" + text.encode().replace(b"\n", b"\r\n", 1)
             + b"x\xe2\x82" + bad + b"\n")
    for data, want in [(first, line), (later, 3 + text.count("\n"))]:
        path.write_bytes(data)
        for source in (path, io.BytesIO(data)):
            with pytest.raises(MalformedLine, match="not UTF-8 text") as err:
                fn(source)
            assert err.value.line_no == want
    assert plain(fn(io.BytesIO(text.encode()))) == plain(fn(text))


@pytest.mark.parametrize("reader", sorted(READERS))
@pytest.mark.parametrize("char", "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029")
def test_readers_split_lines_at_universal_newlines_only(reader, char):
    # str.splitlines() also breaks at these; a line ends at \n, \r\n or \r
    fn, text = READERS[reader]
    for newline in ("\n", "\r\n", "\r"):
        head = f"# note{char}more{newline}"
        got, want = plain(fn(head + text)), plain(fn(text))
        if reader == "subgraphs":   # the head is one line: the subject moves down one
            want["line_numbers"] = [no + 1 for no in want["line_numbers"]]
        assert got == want
        with pytest.raises(MalformedLine) as err:
            fn(head + text + "x\n")
        assert err.value.line_no == 2 + text.count("\n")
        with pytest.raises(MalformedLine, match="not UTF-8 text") as err:
            fn(io.BytesIO((head + text).encode() + b"x\xff\n"))
        assert err.value.line_no == 2 + text.count("\n")


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(["TP53", "BRCA1", "EGFR", "tp53", ""]),
                min_size=1, max_size=12).filter(any))
def test_parse_gmt_keeps_first_occurrence_order(fields):
    # duplicates and empty fields anywhere in the set
    want = []
    for g in fields:
        if g and g not in want:
            want.append(g)
    cat = D.parse_gmt("s\tdesc\t" + "\t".join(fields) + "\n")
    assert cat.members == [want]
    assert list(cat.gene_index) == want


def test_gmt_round_trip_identity():
    cat = D.parse_gmt(GMT)
    assert D.serialize_gmt(cat) == GMT
    again = D.parse_gmt(D.serialize_gmt(cat))
    assert again.names == cat.names
    assert again.members == cat.members
    assert again.gene_index == cat.gene_index


def test_catalog_to_hypergraph():
    cat = D.parse_gmt(GMT)
    h = cat.to_hypergraph()
    assert h.num_nodes == 4 and h.num_edges == 2
    assert h.edge_members == ((0, 1, 2), (1, 3))


# ----------------------------------------------------------------- subgraphs

SUBGRAPHS = ("subj1\tluminal\tTP53:0.3,BRCA1:0.05\n"
             "subj2\tbasal\tKRAS\n")


def catalog():
    return D.parse_gmt(GMT)


def test_load_subgraphs_basic():
    table = D.load_subgraphs(SUBGRAPHS, catalog())
    assert table.subject_ids == ["subj1", "subj2"]
    assert table.label_columns == [[1], [0]]
    assert table.member_rows.tolist() == [0, 1, 3]
    assert table.member_weights.tolist() == [0.3, 0.05, 1.0]
    assert table.sizes.tolist() == [2, 1]
    assert table.line_numbers.tolist() == [1, 2]
    assert [r.subject_id for r in table.subjects] == ["subj1", "subj2"]
    assert table.subjects[0].labels == ["luminal"]
    assert table.subjects[0].genes == ["TP53", "BRCA1"]
    assert table.subjects[0].weights == [0.3, 0.05]
    assert table.subjects[1].weights == [1.0]  # missing weight defaults
    assert table.class_vocab == ["basal", "luminal"]  # sorted when inferred


def test_load_subgraphs_multilabel_and_declared_vocab():
    table = D.load_subgraphs("s\tluminal,her2\tTP53\n", catalog(),
                             class_vocab=["her2", "luminal"])
    assert table.subjects[0].labels == ["luminal", "her2"]
    assert table.label_columns == [[1, 0]]   # file order
    with pytest.raises(UnknownClass):
        D.load_subgraphs("s\tunknown\tTP53\n", catalog(),
                         class_vocab=["luminal"])


def test_load_subgraphs_drops_unknown_genes(caplog):
    with caplog.at_level("WARNING"):
        table = D.load_subgraphs("s\tluminal\tTP53,NOSUCH:2.0\n", catalog())
    assert table.subjects[0].genes == ["TP53"]
    assert [r.getMessage() for r in caplog.records] == \
        ["dropped 1 member entries not present in the catalog"]


def test_load_subgraphs_empty_after_filtering():
    with pytest.raises(EmptySubgraph):
        D.load_subgraphs("s\tluminal\tNOSUCH\n", catalog())
    table = D.load_subgraphs("s\tluminal\tNOSUCH\n", catalog(), skip_empty=True)
    assert table.subjects == [] and table.subject_ids == []
    assert table.member_rows.size == 0 and table.sizes.size == 0
    assert table.excluded_subjects == ["s"]


def test_load_subgraphs_needs_a_positive_weight():
    text = "ok\tluminal\tTP53\nnull\tluminal\tTP53:0,BRCA1:0.0,NOSUCH:2\n"
    with pytest.raises(MalformedLine) as err:
        D.load_subgraphs(text, catalog())
    assert err.value.line_no == 2
    table = D.load_subgraphs(text, catalog(), skip_empty=True)
    assert [r.subject_id for r in table.subjects] == ["ok"]
    assert table.member_rows.tolist() == [0] and table.sizes.tolist() == [1]
    assert table.excluded_subjects == ["null"]


def test_load_subgraphs_rejects_malformed():
    with pytest.raises(MalformedLine):
        D.load_subgraphs("toofew\tluminal\n", catalog())
    with pytest.raises(MalformedLine):
        D.load_subgraphs("s\tluminal\tTP53:abc\n", catalog())
    with pytest.raises(MalformedLine):
        D.load_subgraphs("s\tluminal\tTP53:-1.0\n", catalog())
    with pytest.raises(MalformedLine):
        D.load_subgraphs(SUBGRAPHS + "subj1\tluminal\tTP53\n", catalog())


@pytest.mark.parametrize("weight", ["1e39", "3.5e38", "-1e39"])
def test_load_subgraphs_rejects_a_weight_past_float32(weight):
    # finite in float64 but not in the float32 the model computes in
    with pytest.raises(MalformedLine, match=f"^line 2: member weight must be finite "
                                            f"and >= 0, got {weight}$"):
        D.load_subgraphs(f"ok\tluminal\tTP53:1\ns\tluminal\tTP53:0.5,KRAS:{weight}\n",
                         catalog())
    table = D.load_subgraphs("s\tluminal\tTP53:3.4e38\n", catalog())
    assert table.member_weights.tolist() == [3.4e38]


def test_load_subgraphs_duplicate_member_keeps_first():
    table = D.load_subgraphs("s\tluminal\tTP53:0.9,TP53:0.1\n", catalog())
    assert table.subjects[0].genes == ["TP53"]
    assert table.subjects[0].weights == [0.9]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["TP53", "BRCA1", "EGFR", "KRAS"]),
                          st.sampled_from([None, 0.5, 1.0, 2.0])),
                min_size=1, max_size=10))
def test_load_subgraphs_keeps_first_occurrence_and_weight(members):
    want = {}
    for gene, w in members:
        want.setdefault(gene, 1.0 if w is None else w)
    tokens = [gene if w is None else f"{gene}:{w!r}" for gene, w in members]
    table = D.load_subgraphs("s\tluminal\t" + ",".join(tokens) + "\n", catalog())
    assert table.subjects[0].genes == list(want)
    assert table.subjects[0].weights == list(want.values())


def test_load_subgraphs_unlabeled():
    table = D.load_subgraphs("s\t-\tTP53\n", catalog())
    assert table.subjects[0].labels == []


# -------------------------------------------------------------------- splits

def test_load_split():
    got = D.load_split("a\ttrain\nb\tval\nc\ttest\n# note\n")
    assert got == {"a": "train", "b": "val", "c": "test"}
    with pytest.raises(MalformedLine):
        D.load_split("a\tdev\n")
    with pytest.raises(MalformedLine):
        D.load_split("a\ttrain\na\tval\n")


def test_stratified_split_proportions():
    ids = [f"s{i}" for i in range(10)]
    got = D.stratified_split(ids, ["x"] * 10, (0.6, 0.2, 0.2), seed=0)
    counts = {name: sum(1 for v in got.values() if v == name)
              for name in ("train", "val", "test")}
    assert counts == {"train": 6, "val": 2, "test": 2}


def test_stratified_split_large_class_rounding():
    # 791 subjects at 60/20/20 splits as 475/158/158
    ids = [f"s{i}" for i in range(791)]
    got = D.stratified_split(ids, ["y"] * 791, seed=1)
    counts = {name: sum(1 for v in got.values() if v == name)
              for name in ("train", "val", "test")}
    assert counts == {"train": 475, "val": 158, "test": 158}


def test_stratified_split_preserves_class_balance():
    ids = [f"s{i}" for i in range(50)]
    labels = ["a"] * 30 + ["b"] * 20
    got = D.stratified_split(ids, labels, seed=3)
    for cls, total in (("a", 30), ("b", 20)):
        members = [sid for sid, lab in zip(ids, labels) if lab == cls]
        for name, want in (("train", round(total * 0.6)),
                           ("val", round(total * 0.2)),
                           ("test", round(total * 0.2))):
            assert sum(1 for m in members if got[m] == name) == want


def test_stratified_split_small_class_goes_to_train(caplog):
    ids = ["a", "b", "c", "d", "e"]
    labels = ["rare", "rare", "common", "common", "common"]
    with caplog.at_level("WARNING"):
        got = D.stratified_split(ids, labels, seed=0)
    assert got["a"] == "train" and got["b"] == "train"
    assert any("rare" in r.message for r in caplog.records)


def test_stratified_split_deterministic_and_total():
    ids = [f"s{i}" for i in range(23)]
    labels = (["a"] * 11) + (["b"] * 7) + (["c"] * 5)
    one = D.stratified_split(ids, labels, seed=9)
    two = D.stratified_split(ids, labels, seed=9)
    assert one == two
    assert set(one) == set(ids)
    assert D.stratified_split(ids, labels, seed=10) != one
    with pytest.raises(ValueError):
        D.stratified_split(ids, labels, (0.5, 0.2, 0.2), seed=0)


# ------------------------------------------------------------------- dataset

@pytest.mark.parametrize("ratios", [(float("nan"), 0.2, 0.2),
                                    (0.6, 0.2, float("nan")),
                                    (float("inf"), 0.2, 0.2),
                                    (-0.2, 0.6, 0.6), (0.5, 0.3, 0.3)])
def test_stratified_split_rejects_bad_ratios(ratios):
    ids = [f"s{i}" for i in range(9)]
    with pytest.raises(InvalidSplitRatios):
        D.stratified_split(ids, ["x"] * 9, ratios)
    assert issubclass(InvalidSplitRatios, ValueError)


def test_build_dataset_and_batches():
    cat = catalog()
    table = D.load_subgraphs(SUBGRAPHS, cat)
    ds = D.build_dataset(table, cat, {"subj1": "train", "subj2": "val"})
    assert ds.indices("train").tolist() == [0]
    assert ds.indices("test").size == 0
    assert ds.subjects.labels.shape == (2, 2)
    assert ds.subjects.labels[0].tolist() == [0.0, 1.0]  # vocab sorted: basal, luminal
    batch = ds.batch(ds.indices("train"))
    assert batch.subject_ids == ["subj1"]
    assert [batch.member_rows[g] for g in group_positions(batch.groups)][0].tolist() == [0, 1]


def test_resolved_subjects_are_one_batch_in_file_order():
    cat = catalog()
    table = D.load_subgraphs(SUBGRAPHS, cat)
    batch = D.resolve_subjects(table)
    assert batch.subject_ids == ["subj1", "subj2"]
    assert batch.member_rows.tolist() == [0, 1, 3]
    assert batch.member_weights.tolist() == [0.3, 0.05, 1.0]
    assert batch.groups.counts.tolist() == [2, 1]
    assert batch.labels.tolist() == [[0.0, 1.0], [1.0, 0.0]]
    ds = D.build_dataset(table, cat, {"subj1": "train", "subj2": "val"})
    assert np.array_equal(ds.subjects.member_rows, batch.member_rows)
    with pytest.raises(ShapeError):   # no subject is in the test split
        ds.batch(ds.indices("test"))
    with pytest.raises(InputDataError, match="^line 2: subject 'subj2' has no split assignment$"):
        D.build_dataset(table, cat, {"subj1": "train"})
    with pytest.raises(InputDataError, match="no subjects"):
        D.resolve_subjects(D.load_subgraphs("s\tluminal\tNOSUCH\n", cat, skip_empty=True))


# -------------------------------------------------------------------- config

def test_parse_config_round_trip():
    cfg = TrainConfig(learning_rate=0.002, hidden_dim=64, mode="multilabel",
                      use_subgraph_attention=False, seed=17)
    again = D.parse_config(D.serialize_config(cfg))
    assert again == cfg


def test_parse_config_partial_and_comments():
    cfg = D.parse_config("# tuning\nlearning_rate = 0.005\npatience = 3\n")
    assert cfg.learning_rate == 0.005
    assert cfg.patience == 3
    assert cfg.hidden_dim == TrainConfig().hidden_dim


def test_parse_config_rejects_unknown_and_bad_values():
    with pytest.raises(UnknownConfigKey):
        D.parse_config("learn_rate = 0.1\n")
    with pytest.raises(MalformedLine):
        D.parse_config("hidden_dim = big\n")
    with pytest.raises(MalformedLine):
        D.parse_config("no equals sign\n")
    with pytest.raises(MalformedLine):
        D.parse_config("use_subgraph_attention = yes\n")


def test_parse_config_names_the_line_of_a_bad_value():
    with pytest.raises(InvalidConfigValue) as info:
        D.parse_config("# tuning\nhidden_dim = 8\nleaky_slope = nan\n")
    assert (info.value.key, info.value.line_no) == ("leaky_slope", 3)
    assert str(info.value).startswith("line 3: leaky_slope must be finite")


# --------------------------------------------------------------- checkpoints

def trained_fixture(tmp_path):
    rng = np.random.default_rng(0)
    h = build_hypergraph([[0, 1, 2], [1, 3]])
    params = M.init_model(h.num_nodes, 6, 2, 3, rng, dropout_rate=0.25)
    config = TrainConfig(hidden_dim=6, num_layers=2, dropout_rate=0.25,
                         learning_rate=0.002, seed=5)
    ckpt = D.Checkpoint(params=params, config=config,
                        gene_names=["TP53", "BRCA1", "EGFR", "KRAS"],
                        class_vocab=["a", "b", "c"],
                        edge_names=["pathway_a", "pathway_b"], hypergraph=h)
    path = tmp_path / "model.ckpt"
    D.save_checkpoint(ckpt, path)
    return ckpt, path


def test_checkpoint_round_trip_bit_exact(tmp_path):
    ckpt, path = trained_fixture(tmp_path)
    loaded = D.load_checkpoint(path)
    assert loaded.config == ckpt.config
    assert loaded.gene_names == ckpt.gene_names
    assert loaded.class_vocab == ckpt.class_vocab
    assert loaded.edge_names == ckpt.edge_names
    assert loaded.hypergraph.edge_members == ckpt.hypergraph.edge_members
    for (n1, t1), (n2, t2) in zip(ckpt.params.named_parameters(),
                                  loaded.params.named_parameters()):
        assert n1 == n2
        assert t1.data.dtype == t2.data.dtype == np.float32
        assert np.array_equal(t1.data, t2.data)


def test_checkpoint_probe_outputs_identical(tmp_path):
    ckpt, path = trained_fixture(tmp_path)
    loaded = D.load_checkpoint(path)
    batch = M.SubgraphBatch(members=[np.array([0, 1, 3])],
                            weights=[np.array([0.5, 1.0, 2.0])],
                            labels=np.zeros((1, 3)))
    pairs = M.incidence_pairs(ckpt.hypergraph)
    a = M.subgraph_scores(pairs, ckpt.params, batch)
    b = M.subgraph_scores(M.incidence_pairs(loaded.hypergraph),
                          loaded.params, batch)
    assert np.array_equal(a, b)


def test_checkpoint_save_is_deterministic(tmp_path):
    ckpt, path = trained_fixture(tmp_path)
    other = tmp_path / "again.ckpt"
    D.save_checkpoint(ckpt, other)
    assert path.read_bytes() == other.read_bytes()


def test_checkpoint_rejects_corruption(tmp_path):
    ckpt, path = trained_fixture(tmp_path)
    raw = path.read_bytes()
    with pytest.raises(CorruptCheckpoint):
        D.load_checkpoint(write(tmp_path / "t1", raw[:-8]))  # truncated
    with pytest.raises(CorruptCheckpoint):
        D.load_checkpoint(write(tmp_path / "t2", raw + b"\x00\x00\x00\x00"))
    with pytest.raises(CorruptCheckpoint):
        D.load_checkpoint(write(tmp_path / "t3", b"not-a-checkpoint\n" + raw))
    bad = raw.replace(b"node_embeddings\t4,6", b"node_embeddings\t4,9", 1)
    with pytest.raises(CorruptCheckpoint):
        D.load_checkpoint(write(tmp_path / "t4", bad))


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 3), st.integers(1, 8), st.integers(1, 4),
       st.integers(0, 2**32 - 1))
def test_parameter_schema_round_trips(num_layers, hidden_dim, num_classes, seed):
    rng = np.random.default_rng(seed)
    h = build_hypergraph([[0, 1, 2], [1, 3]])
    params = M.init_model(h.num_nodes, hidden_dim, num_layers, num_classes, rng)
    schema = M.param_shapes(h.num_nodes, hidden_dim, num_layers, num_classes)
    assert [(n, t.data.shape) for n, t in params.named_parameters()] == schema
    for t in params.parameters():   # biases too hold nonzero bits
        t.data[...] = rng.normal(size=t.data.shape)
    config = TrainConfig(hidden_dim=hidden_dim, num_layers=num_layers)
    ckpt = D.Checkpoint(params=params, config=config,
                        gene_names=["g0", "g1", "g2", "g3"],
                        class_vocab=[f"c{k}" for k in range(num_classes)],
                        edge_names=["e0", "e1"], hypergraph=h)
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "model.ckpt"
        D.save_checkpoint(ckpt, path)
        loaded = D.load_checkpoint(path)
    assert [(n, t.data.shape) for n, t in loaded.params.named_parameters()] == schema
    assert all(a.data.dtype == b.data.dtype and a.data.tobytes() == b.data.tobytes()
               for a, b in zip(params.parameters(), loaded.params.parameters()))


class _Named:
    """Stands in for ModelParams when saving: the tensors it names are what
    the header and payload hold."""

    def __init__(self, named):
        self.named = named

    def named_parameters(self):
        return self.named


def _dropped(named):
    return [pair for pair in named if pair[0] != "head.fc2_bias"]


def _renamed(named):
    return [("layer0.ctx" if n == "layer0.context" else n, t) for n, t in named]


def _extra_layer(_):
    return M.init_model(4, 6, 3, 3, np.random.default_rng(1)).named_parameters()


def _wrong_shape(named):
    return [(n, K.parameter(np.zeros((6, 4), np.float32))
             if n == "head.out_weight" else t) for n, t in named]


def _swapped(named):
    named = list(named)
    named[1], named[2] = named[2], named[1]
    return named


@pytest.mark.parametrize("edit", [_dropped, _renamed, _extra_layer,
                                  _wrong_shape, _swapped])
def test_checkpoint_rejects_tensors_off_the_schema(tmp_path, edit):
    ckpt, _ = trained_fixture(tmp_path)
    named = edit(ckpt.params.named_parameters())
    off = D.Checkpoint(params=_Named(named), config=ckpt.config,
                       gene_names=ckpt.gene_names, class_vocab=ckpt.class_vocab,
                       edge_names=ckpt.edge_names, hypergraph=ckpt.hypergraph)
    D.save_checkpoint(off, tmp_path / "off.ckpt")
    with pytest.raises(CorruptCheckpoint, match="parameter schema"):
        D.load_checkpoint(tmp_path / "off.ckpt")


def test_checkpoint_rejects_other_version(tmp_path):
    ckpt, path = trained_fixture(tmp_path)
    current = f"version: {D.CHECKPOINT_VERSION}\n".encode()
    raw = path.read_bytes()
    assert current in raw
    raw = raw.replace(current, f"version: {D.CHECKPOINT_VERSION + 1}\n".encode(), 1)
    with pytest.raises(UnsupportedVersion):
        D.load_checkpoint(write(tmp_path / "next", raw))


def write(path, blob):
    path.write_bytes(blob)
    return path


V1_FIXTURE = pathlib.Path(__file__).parent / "data" / "v1.ckpt"


def test_version_1_checkpoint_still_loads(tmp_path):
    # tests/data/v1.ckpt was written by the version 1 writer: a [section]
    # line ends the previous section and a marker search finds the payload
    assert V1_FIXTURE.read_bytes().startswith(b"hypersub-checkpoint\nversion: 1\n")
    ckpt = D.load_checkpoint(V1_FIXTURE)
    assert ckpt.config.hidden_dim == 4 and ckpt.config.seed == 3
    assert ckpt.class_vocab == ["X", "Y"]
    assert ckpt.gene_names == ["G1", "G2", "G3", "G4", "G5", "G6"]
    assert ckpt.edge_names == ["PW_A", "PW_B", "PW_C"]
    assert ckpt.hypergraph.edge_members == ((0, 1, 2), (2, 3), (0, 4, 5))
    batch = M.SubgraphBatch(members=[np.array([0, 1]), np.array([4, 5])],
                            weights=[np.array([0.5, 1.0]), np.array([1.0, 2.0])],
                            labels=np.zeros((2, 2)))
    scores = M.subgraph_scores(M.incidence_pairs(ckpt.hypergraph), ckpt.params, batch)
    assert np.all(np.isfinite(scores)) and np.allclose(scores.sum(axis=1), 1.0)
    # re-saved, it is a current-version file with the same content
    path = tmp_path / "v2.ckpt"
    D.save_checkpoint(ckpt, path)
    assert path.read_bytes().startswith(
        f"hypersub-checkpoint\nversion: {D.CHECKPOINT_VERSION}\n".encode())
    again = D.load_checkpoint(path)
    assert again.gene_names == ckpt.gene_names and again.config == ckpt.config
    assert all(np.array_equal(a.data, b.data) for a, b in
               zip(ckpt.params.parameters(), again.params.parameters()))


_NAME = st.one_of(
    st.sampled_from(["[payload]", "[edges]", "[genes] 3", "[g1", "[", "a\rb",
                     "x y", "\x0c"]),
    st.text(st.characters(blacklist_categories=("Cs",),
                          blacklist_characters="\n\t"), min_size=1, max_size=8))


@settings(max_examples=60, deadline=None)
@given(st.lists(_NAME, min_size=4, max_size=4, unique=True),
       st.lists(_NAME, min_size=3, max_size=3, unique=True),
       st.lists(_NAME, min_size=2, max_size=2, unique=True))
def test_checkpoint_names_round_trip(genes, classes, edges):
    rng = np.random.default_rng(0)
    h = build_hypergraph([[0, 1, 2], [1, 3]])
    params = M.init_model(h.num_nodes, 3, 1, 3, rng)
    config = TrainConfig(hidden_dim=3, num_layers=1)
    ckpt = D.Checkpoint(params=params, config=config, gene_names=genes,
                        class_vocab=classes, edge_names=edges, hypergraph=h)
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "model.ckpt"
        D.save_checkpoint(ckpt, path)
        loaded = D.load_checkpoint(path)
    assert loaded.gene_names == genes
    assert loaded.class_vocab == classes
    assert loaded.edge_names == edges
    assert all(np.array_equal(a.data, b.data) for a, b in
               zip(params.parameters(), loaded.params.parameters()))


def test_checkpoint_rejects_bad_counts_and_lengths(tmp_path):
    ckpt, path = trained_fixture(tmp_path)
    raw = path.read_bytes()
    for old, new in ((b"[genes] 4", b"[genes] 5"), (b"[genes] 4", b"[genes] 3"),
                     (b"[genes] 4", b"[genes] x"), (b"[tensors] ", b"[tensor] "),
                     (b"header_bytes: ", b"header_bytes: 9"),
                     (b"header_bytes: ", b"header_bytes: -"),
                     (b"header_bytes: ", b"header_size: ")):
        assert old in raw
        with pytest.raises(CorruptCheckpoint):
            D.load_checkpoint(write(tmp_path / "bad", raw.replace(old, new, 1)))
    # the weight column, written as 1.0 and otherwise unused, must hold a
    # positive finite number; a bad one names its edge line
    length = int(raw.split(b"header_bytes: ")[1].split(b"\n")[0])
    for weight in ("2.0", "0", "-2", "inf", "nan", "x"):
        line = f"pathway_b\t{weight}\t1,3"
        edited = raw.replace(b"pathway_b\t1.0\t1,3", line.encode()).replace(
            b"header_bytes: %d" % length, b"header_bytes: %d" % (length + len(weight) - 3))
        path = write(tmp_path / "weight", edited)
        if weight == "2.0":
            assert D.load_checkpoint(path).hypergraph.edge_members == ((0, 1, 2), (1, 3))
            continue
        with pytest.raises(CorruptCheckpoint) as err:
            D.load_checkpoint(path)
        assert str(err.value) == f"bad edge line {line!r}"
