import dataclasses
import hashlib
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
from hypersub import training as T
from hypersub.errors import (CorruptCheckpoint, DuplicateSet, EmptySubgraph,
                             InputDataError, InvalidConfigValue,
                             InvalidSplitRatios, MalformedLine, ShapeError,
                             UnknownClass, UnknownConfigKey,
                             UnsupportedVersion)
from hypersub.hypergraph import Hypergraph, build_hypergraph
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


def test_stratified_split_keeps_a_train_subject_under_degenerate_ratios():
    # a class of 3 rounds to 2 val and 2 test, a class of 4 to 2 and 2: the
    # cut takes from val first, so each keeps exactly one train subject
    ids = [f"s{i}" for i in range(7)]
    labels = ["a"] * 3 + ["b"] * 4
    got = D.stratified_split(ids, labels, (0.0, 0.5, 0.5), seed=0)
    assert sorted(got) == sorted(ids)
    for key, want in (("a", ["test", "test", "train"]),
                      ("b", ["test", "test", "train", "val"])):
        assert sorted(got[i] for i, k in zip(ids, labels) if k == key) == want


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


INT_FIELDS = ["hidden_dim", "num_layers", "max_epochs", "patience", "batch_size", "seed"]


@pytest.mark.parametrize("key", INT_FIELDS)
@pytest.mark.parametrize("value", ["99999999999999999999", "9223372036854775808",
                                   "-99999999999999999999"])
def test_parse_config_names_the_line_of_an_integer_past_int64(key, value):
    with pytest.raises(InvalidConfigValue) as info:
        D.parse_config(f"# tuning\nmax_epochs = 2\n{key} = {value}\n")
    assert (info.value.key, info.value.line_no) == (key, 3)
    assert str(info.value) == f"line 3: {key} must fit a 64-bit integer, got {int(value)}"


@pytest.mark.parametrize("key", INT_FIELDS)
def test_parse_config_takes_the_largest_int64(key):
    cfg = D.parse_config(f"{key} = 9223372036854775807\n")
    assert getattr(cfg, key) == 2 ** 63 - 1


@pytest.mark.parametrize("key", ["learning_rate", "leaky_slope"])
def test_parse_config_names_the_line_of_a_float_past_float32(key):
    # float32's largest value is taken; one past it is named, with no
    # overflow warning from the comparison
    largest = float(np.finfo(np.float32).max)
    assert getattr(D.parse_config(f"{key} = {largest!r}\n"), key) == largest
    with pytest.raises(InvalidConfigValue) as info:
        D.parse_config(f"max_epochs = 2\n{key} = 1e39\n")
    assert (info.value.key, info.value.line_no) == (key, 2)
    assert "must fit float32" in str(info.value)


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


DATA = pathlib.Path(__file__).parent / "data"
V1_FIXTURE = DATA / "v1.ckpt"
V2_FIXTURE = DATA / "v2.ckpt"
V3_FIXTURE = DATA / "v3.ckpt"
# Each fixture is the file its version's writer wrote; a regenerated one is
# not a test of the old format, so its digest is pinned.
FIXTURE_SHA256 = {
    "v1.ckpt": "1096e22fc37c237bef3ef2c3483c6c59742a39599c2e02da0453fab8714b22a4",
    "v2.ckpt": "e967473707475eee144bcfae2510d7f5f96af30d0a3413ad860b0de7a3d4d041",
    "v3.ckpt": "0c19cfe656d1b1a338630698ff229344cd7d92e4590625f69661fa928057a2f7",
}
# subgraph_scores of each fixture on fixture_batch() as the code of the
# time the fixture was added computed them, exactly: an old checkpoint
# scores as it did
FIXTURE_SCORES = {
    "v1.ckpt": [[0.5056324005126953, 0.4943676292896271],
                [0.5195136666297913, 0.48048633337020874],
                [0.5200194120407104, 0.47998061776161194]],
    "v2.ckpt": [[0.0310081634670496, 0.2806612551212311, 0.5009541511535645],
                [0.011812263168394566, 0.15417441725730896, 0.2608458697795868],
                [0.1704338937997818, 0.42072948813438416, 0.8448577523231506]],
    "v3.ckpt": [[0.8682470321655273, 0.1283019483089447, 0.003450951538980007],
                [0.7977364659309387, 0.19778379797935486, 0.004479776136577129],
                [0.9820260405540466, 0.017040487378835678, 0.0009335324284620583]],
}


def fixture_batch(num_classes):
    return M.SubgraphBatch(members=[np.array([0, 1]), np.array([4, 5]), np.array([2, 3, 5])],
                           weights=[np.array([0.5, 1.0]), np.array([1.0, 2.0]),
                                    np.array([0.25, 1.0, 3.0])],
                           labels=np.zeros((3, num_classes)))


def test_fixtures_are_the_files_the_old_writers_wrote():
    for name, digest in FIXTURE_SHA256.items():
        assert hashlib.sha256((DATA / name).read_bytes()).hexdigest() == digest, name


@pytest.mark.parametrize("name", sorted(FIXTURE_SCORES))
def test_old_checkpoints_score_as_they_did(name):
    ckpt = D.load_checkpoint(DATA / name)
    batch = fixture_batch(len(ckpt.class_vocab))
    scores = M.subgraph_scores(M.incidence_pairs(ckpt.hypergraph), ckpt.params, batch)
    assert scores.tolist() == FIXTURE_SCORES[name]


def assert_same_checkpoint(a, b):
    assert (a.config, a.gene_names, a.class_vocab, a.edge_names) == \
        (b.config, b.gene_names, b.class_vocab, b.edge_names)
    assert (a.hypergraph.num_nodes, a.hypergraph.num_edges) == \
        (b.hypergraph.num_nodes, b.hypergraph.num_edges)
    for field in ("edge_of_pair", "node_of_pair"):
        x, y = getattr(a.hypergraph, field), getattr(b.hypergraph, field)
        assert x.dtype == y.dtype == np.intp and np.array_equal(x, y)
    assert [n for n, _ in a.params.named_parameters()] == \
        [n for n, _ in b.params.named_parameters()]
    assert all(x.data.dtype == y.data.dtype and x.data.tobytes() == y.data.tobytes()
               for x, y in zip(a.params.parameters(), b.params.parameters()))


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
    # re-saved, it is a current-version file with the same content
    path = tmp_path / "resaved.ckpt"
    D.save_checkpoint(ckpt, path)
    assert path.read_bytes().startswith(
        f"hypersub-checkpoint\nversion: {D.CHECKPOINT_VERSION}\n".encode())
    assert_same_checkpoint(D.load_checkpoint(path), ckpt)


def test_version_2_checkpoint_still_loads(tmp_path):
    # tests/data/v2.ckpt was written by the version 2 writer: each edge line
    # is name, weight 1.0 and the comma-separated members; G6 is in no edge
    assert V2_FIXTURE.read_bytes().startswith(b"hypersub-checkpoint\nversion: 2\n")
    ckpt = D.load_checkpoint(V2_FIXTURE)
    assert (ckpt.config.hidden_dim, ckpt.config.num_layers, ckpt.config.mode) == \
        (3, 2, "multilabel")
    assert ckpt.class_vocab == ["X", "Y", "Z"]
    assert ckpt.gene_names == ["G1", "G2", "G3", "G4", "G5", "G6"]
    assert ckpt.edge_names == ["PW_A", "PW_B", "PW_C"]
    assert ckpt.hypergraph.edge_members == ((0, 1, 2), (1, 3), (0, 4))
    path = tmp_path / "resaved.ckpt"
    D.save_checkpoint(ckpt, path)
    assert path.read_bytes().startswith(
        f"hypersub-checkpoint\nversion: {D.CHECKPOINT_VERSION}\n".encode())
    again = D.load_checkpoint(path)
    assert_same_checkpoint(again, ckpt)
    batch = fixture_batch(3)
    assert M.subgraph_scores(M.incidence_pairs(again.hypergraph), again.params,
                             batch).tolist() == FIXTURE_SCORES["v2.ckpt"]


def test_version_3_checkpoint_still_loads(tmp_path):
    # tests/data/v3.ckpt was written by the version 3 writer: each edge line
    # is name and size, and the members follow the tensors as one int32 block
    assert V3_FIXTURE.read_bytes().startswith(b"hypersub-checkpoint\nversion: 3\n")
    ckpt = D.load_checkpoint(V3_FIXTURE)
    assert (ckpt.config.hidden_dim, ckpt.config.num_layers, ckpt.config.mode,
            ckpt.config.use_subgraph_attention) == (2, 3, "multiclass", False)
    assert ckpt.class_vocab == ["X", "Y", "Z"]
    assert ckpt.gene_names == ["G1", "G2", "G3", "G4", "G5", "G6"]
    assert ckpt.edge_names == ["PW_A", "PW_B", "PW_C", "PW_D"]
    assert ckpt.hypergraph.edge_members == ((0, 1, 2), (2, 3, 4), (5,), (0, 5))
    path = tmp_path / "resaved.ckpt"
    D.save_checkpoint(ckpt, path)
    assert path.read_bytes().startswith(
        f"hypersub-checkpoint\nversion: {D.CHECKPOINT_VERSION}\n".encode())
    assert_same_checkpoint(D.load_checkpoint(path), ckpt)


# any name without a line break: a leading '[', a tab, non-ASCII text
_NAME = st.one_of(
    st.sampled_from(["[payload]", "[edges]", "[genes] 3", "[g1", "[", "a\rb",
                     "x y", "\x0c", "a\tb", "\t", "[x\t1", "gène", "Ω\t2"]),
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\n"),
            min_size=1, max_size=8))


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
                     (b"header_bytes: ", b"header_bytes: " + b"9" * 5000),
                     (b"header_bytes: ", b"header_bytes: -"),
                     (b"header_bytes: ", b"header_size: ")):
        assert old in raw
        with pytest.raises(CorruptCheckpoint):
            D.load_checkpoint(write(tmp_path / "bad", raw.replace(old, new, 1)))


@pytest.mark.parametrize("fixture", [V1_FIXTURE, V2_FIXTURE], ids=["v1", "v2"])
@pytest.mark.parametrize("extra", [1, 4, 9])
def test_versions_1_and_2_name_the_last_tensor_of_a_payload_run_past(tmp_path, fixture, extra):
    # a version 1 or 2 payload ends at its last tensor; the error says by how
    # much it runs past, as version 4's does for its last edge
    last = list(D.load_checkpoint(fixture).params.named_parameters())[-1][0]
    assert last == "head.out_bias"
    bad = write(tmp_path / "long.ckpt", fixture.read_bytes() + bytes(extra))
    with pytest.raises(CorruptCheckpoint) as err:
        D.load_checkpoint(bad)
    assert str(err.value) == f"payload runs {extra} bytes past tensor {last!r}, the last"


def test_version_2_weight_field_must_be_positive_and_finite(tmp_path):
    # the weight column of version 2, written as 1.0 and otherwise unused,
    # must hold a positive finite number; a bad one names its edge line
    raw = V2_FIXTURE.read_bytes()
    length = int(raw.split(b"header_bytes: ")[1].split(b"\n")[0])
    for weight in ("2.0", "0", "-2", "inf", "nan", "x"):
        line = f"PW_B\t{weight}\t1,3"
        edited = raw.replace(b"PW_B\t1.0\t1,3", line.encode()).replace(
            b"header_bytes: %d" % length, b"header_bytes: %d" % (length + len(weight) - 3))
        path = write(tmp_path / "weight", edited)
        if weight == "2.0":
            assert D.load_checkpoint(path).hypergraph.edge_members == ((0, 1, 2), (1, 3), (0, 4))
            continue
        with pytest.raises(CorruptCheckpoint) as err:
            D.load_checkpoint(path)
        assert str(err.value) == f"bad edge line {line!r}"


# ------------------------------------------------------- checkpoint version 3

def with_edges(raw: bytes, edge_lines=None, block=None) -> bytes:
    """A version 3 checkpoint with its edge lines, its member block, or
    both replaced; the header length and the edge count follow."""
    top, rest = raw.split(b"header_bytes: ", 1)
    length, rest = rest.split(b"\n", 1)
    header, payload = rest[:int(length)].decode(), rest[int(length):]
    lines = header.split("\n")
    at = next(i for i, line in enumerate(lines) if line.startswith("[edges] "))
    count = int(lines[at].split(" ")[1])
    old_sizes = [int(line.split("\t")[1]) for line in lines[at + 1:at + 1 + count]]
    tensors = payload[:len(payload) - 4 * sum(old_sizes)]
    if edge_lines is not None:
        lines[at:at + 1 + count] = [f"[edges] {len(edge_lines)}", *edge_lines]
    if block is None:
        block = payload[len(tensors):]
    elif not isinstance(block, bytes):
        block = np.array(block, dtype="<i4").tobytes()
    body = "\n".join(lines).encode()
    return top + b"header_bytes: %d\n" % len(body) + body + tensors + block


# the members of the version 3 fixture's edges PW_A to PW_D
_MEMBERS = [0, 1, 2, 2, 3, 4, 5, 0, 5]
_BLOCK = np.array(_MEMBERS, dtype="<i4").tobytes()
_BAD_SIZES = ("+2", "02", " 2", "2 ", "2.0", "-2", "1_1", "\u0662", "2\t2", "x")


def test_version_3_layout():
    # edge lines carry sizes; the members follow the tensors as int32
    raw = V3_FIXTURE.read_bytes()
    assert raw.startswith(b"hypersub-checkpoint\nversion: 3\n")
    assert b"[edges] 4\nPW_A\t3\nPW_B\t3\nPW_C\t1\nPW_D\t2\n[tensors] " in raw
    assert raw.endswith(_BLOCK)
    assert with_edges(raw) == raw


def _second(line: str) -> list[str]:
    """The version 3 fixture's edge lines with PW_B's replaced by ``line``."""
    return ["PW_A\t3", line, "PW_C\t1", "PW_D\t2"]


@pytest.mark.parametrize("edge_lines, block, message", [
    pytest.param(None, _MEMBERS[:-1] + [6], "edge 'PW_D' holds member 6, outside the 6 genes",
                 id="member-at-gene-count"),
    pytest.param(None, [-1] + _MEMBERS[1:], "edge 'PW_A' holds member -1, outside the 6 genes",
                 id="negative-member"),
    pytest.param(None, [0, 2, 1] + _MEMBERS[3:], "members of edge 'PW_A' do not rise strictly",
                 id="descending"),
    pytest.param(None, [0, 1, 2, 2, 3, 3, 5, 0, 5], "members of edge 'PW_B' do not rise strictly",
                 id="repeated"),
    pytest.param(None, _BLOCK[:-4], "payload truncated at the members of edge 'PW_D'",
                 id="truncated"),
    pytest.param(None, _BLOCK[:-1], "payload truncated at the members of edge 'PW_D'",
                 id="cut-mid-member"),
    pytest.param(None, _BLOCK + bytes(4),
                 "payload runs 4 bytes past the members of edge 'PW_D', the last",
                 id="trailing-bytes"),
    pytest.param(_second("PW_B\t4"), None,
                 "payload truncated at the members of edge 'PW_D'", id="sizes-past-block"),
    pytest.param(_second("PW_B\t99999999999999999999"), None,
                 "bad edge line 'PW_B\\t99999999999999999999'", id="size-past-int64"),
    # version 3 sizes are bounded as version 4's int32 size block bounds them
    pytest.param(_second("PW_B\t2147483648"), None, "bad edge line 'PW_B\\t2147483648'",
                 id="size-past-int32"),
    pytest.param(_second("PW_B\t2147483647"), None,
                 "payload truncated at the members of edge 'PW_B'", id="largest-int32-size"),
    pytest.param(_second("PW_B\t0"), None, "bad edge line 'PW_B\\t0'", id="size-0"),
    pytest.param(_second("PW_B"), None, "bad edge line 'PW_B'", id="no-size"),
    pytest.param(_second("PW_B\t"), None, "bad edge line 'PW_B\\t'", id="empty-size"),
    pytest.param(["PW_A", *_second("")[1:]], None, "bad edge line 'PW_A'",
                 id="first-line-without-size"),
    *[pytest.param(_second(f"PW_B\t{size}"), None,
                   f"bad edge line {'PW_B' + chr(9) + size!r}", id=f"size-{size!a}")
      for size in _BAD_SIZES],
])
def test_version_3_rejects_a_bad_incidence(tmp_path, edge_lines, block, message):
    bad = write(tmp_path / "bad.ckpt", with_edges(V3_FIXTURE.read_bytes(), edge_lines, block))
    with pytest.raises(CorruptCheckpoint) as err:
        D.load_checkpoint(bad)
    assert str(err.value) == message


@pytest.mark.parametrize("version", [1, 2, 3, 4])
def test_a_gene_named_twice_is_corrupt(tmp_path, version):
    # the second-to-last gene's name given to the last as well: the gene
    # index would keep one of the two rows, and subjects lose members
    if version == D.CHECKPOINT_VERSION:
        D.save_checkpoint(D.load_checkpoint(V3_FIXTURE), tmp_path / "current.ckpt")
        raw = (tmp_path / "current.ckpt").read_bytes()
    else:
        raw = (DATA / f"v{version}.ckpt").read_bytes()
    assert raw.startswith(b"hypersub-checkpoint\nversion: %d\n" % version)
    bad = write(tmp_path / "bad.ckpt", raw.replace(b"\nG6\n", b"\nG5\n", 1))
    with pytest.raises(CorruptCheckpoint) as err:
        D.load_checkpoint(bad)
    assert str(err.value) == "gene 'G5' appears twice in the genes section"


# ------------------------------------------------------- checkpoint version 4

def test_version_4_layout(tmp_path):
    # edge lines are names alone; the sizes, then the members, follow the
    # tensors as int32 blocks
    ckpt, path = trained_fixture(tmp_path)
    raw = path.read_bytes()
    assert raw.startswith(b"hypersub-checkpoint\nversion: 4\n")
    assert b"[edges] 2\npathway_a\npathway_b\n[tensors] " in raw
    tensors = b"".join(t.data.astype("<f4").tobytes() for t in ckpt.params.parameters())
    assert raw.endswith(tensors + np.array([3, 2, 0, 1, 2, 1, 3], dtype="<i4").tobytes())


def with_blocks(raw: bytes, sizes=None, members=None) -> bytes:
    """The version 4 checkpoint of trained_fixture, whose edges hold 3 and
    2 members, with its size block, its member block or both replaced by
    int32 values or raw bytes."""
    def pack(values):
        return values if isinstance(values, bytes) else np.array(values, dtype="<i4").tobytes()
    assert np.frombuffer(raw[-28:-20], dtype="<i4").tolist() == [3, 2]
    return raw[:-28] + (raw[-28:-20] if sizes is None else pack(sizes)) + \
        (raw[-20:] if members is None else pack(members))


@pytest.mark.parametrize("sizes, members, message", [
    pytest.param([3, 0], None, "edge 'pathway_b' has size 0, not a positive one", id="size-0"),
    pytest.param([-3, 2], None, "edge 'pathway_a' has size -3, not a positive one",
                 id="negative-size"),
    pytest.param([4, 2], None, "payload truncated at the members of edge 'pathway_b'",
                 id="sizes-past-block"),
    pytest.param([2**31 - 1, 2], None, "payload truncated at the members of edge 'pathway_a'",
                 id="size-past-the-file"),
    pytest.param([3, 1], None,
                 "payload runs 4 bytes past the members of edge 'pathway_b', the last",
                 id="sizes-short-of-block"),
    pytest.param(None, [0, 1, 2, 1], "payload truncated at the members of edge 'pathway_b'",
                 id="member-block-short"),
    pytest.param(None, bytes(19), "payload truncated at the members of edge 'pathway_b'",
                 id="cut-mid-member"),
    pytest.param(None, bytes(11), "payload truncated at the members of edge 'pathway_a'",
                 id="cut-in-first-edge"),
    pytest.param(None, [0, 1, 2, 1, 3, 0],
                 "payload runs 4 bytes past the members of edge 'pathway_b', the last",
                 id="trailing-member"),
    pytest.param(None, bytes(21),
                 "payload runs 1 bytes past the members of edge 'pathway_b', the last",
                 id="trailing-byte"),
    pytest.param(None, [0, 1, 2, 1, 4], "edge 'pathway_b' holds member 4, outside the 4 genes",
                 id="member-at-gene-count"),
    pytest.param(None, [0, 2, 1, 1, 3], "members of edge 'pathway_a' do not rise strictly",
                 id="descending"),
    pytest.param(None, [0, 1, 2, 3, 3], "members of edge 'pathway_b' do not rise strictly",
                 id="repeated"),
    pytest.param(b"", b"", "payload truncated at the size of edge 'pathway_a'",
                 id="no-size-block"),
    pytest.param(bytes(6), b"", "payload truncated at the size of edge 'pathway_b'",
                 id="cut-mid-size"),
])
def test_version_4_rejects_bad_blocks(tmp_path, sizes, members, message):
    _, path = trained_fixture(tmp_path)
    bad = write(tmp_path / "bad.ckpt", with_blocks(path.read_bytes(), sizes, members))
    with pytest.raises(CorruptCheckpoint) as err:
        D.load_checkpoint(bad)
    assert str(err.value) == message


def test_version_4_names_the_tensor_a_cut_falls_in(tmp_path):
    ckpt, path = trained_fixture(tmp_path)
    raw = path.read_bytes()
    named = [(name, 4 * t.data.size) for name, t in ckpt.params.named_parameters()]
    payload = 28 + sum(size for _, size in named)
    first, last = named[0][0], named[-1][0]
    for cut, name in ((payload, first), (payload - 1, first), (29, last),
                      (28 + named[-1][1], last)):
        with pytest.raises(CorruptCheckpoint) as err:
            D.load_checkpoint(write(tmp_path / "cut.ckpt", raw[:-cut]))
        assert str(err.value) == f"payload truncated at tensor {name!r}", cut


def test_a_file_that_shrinks_while_read_is_corrupt():
    with pytest.raises(CorruptCheckpoint, match="shrank"):
        D._read_into(io.BytesIO(bytes(6)), np.empty(2, "<i4"))


def test_save_refuses_a_node_index_past_int32(tmp_path):
    ckpt, _ = trained_fixture(tmp_path)
    top = 2**31 - 1
    edge = np.zeros(1, dtype=np.intp)
    fits = Hypergraph(top + 1, 1, edge, np.array([top], dtype=np.intp))
    D.save_checkpoint(dataclasses.replace(ckpt, hypergraph=fits), tmp_path / "top.ckpt")
    assert (tmp_path / "top.ckpt").read_bytes().endswith(top.to_bytes(4, "little"))
    past = Hypergraph(top + 2, 1, edge, np.array([top + 1], dtype=np.intp))
    with pytest.raises(ValueError, match="does not fit the int32 member block"):
        D.save_checkpoint(dataclasses.replace(ckpt, hypergraph=past), tmp_path / "past.ckpt")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt", "top.ckpt"]


@st.composite
def _checkpoints(draw):
    """A small checkpoint: isolated genes and one-member edges come up
    often, names are drawn from _NAME, none twice in a section, and 1-3
    layers."""
    num_genes = draw(st.integers(1, 7))
    edges = draw(st.lists(st.sets(st.integers(0, num_genes - 1), min_size=1, max_size=num_genes),
                          min_size=1, max_size=5))
    h = build_hypergraph([sorted(e) for e in edges], num_nodes=num_genes)
    layers, hidden, classes = draw(st.integers(1, 3)), draw(st.integers(1, 4)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    params = M.init_model(num_genes, hidden, layers, classes, rng)
    for t in params.parameters():
        t.data[...] = rng.normal(size=t.data.shape) * 10.0 ** rng.integers(-40, 30, size=t.data.shape)
    config = TrainConfig(hidden_dim=hidden, num_layers=layers,
                         mode=draw(st.sampled_from(["multiclass", "multilabel"])),
                         use_subgraph_attention=draw(st.booleans()),
                         seed=draw(st.integers(0, 2**31)))
    return D.Checkpoint(
        params=params, config=config,
        gene_names=draw(st.lists(_NAME, min_size=num_genes, max_size=num_genes, unique=True)),
        class_vocab=draw(st.lists(_NAME, min_size=classes, max_size=classes, unique=True)),
        edge_names=draw(st.lists(_NAME, min_size=len(edges), max_size=len(edges), unique=True)),
        hypergraph=h)


@settings(max_examples=80, deadline=None)
@given(_checkpoints())
def test_version_4_round_trip_is_bit_exact(ckpt):
    with tempfile.TemporaryDirectory() as tmp:
        path, again = pathlib.Path(tmp) / "model.ckpt", pathlib.Path(tmp) / "again.ckpt"
        D.save_checkpoint(ckpt, path)
        loaded = D.load_checkpoint(path)
        D.save_checkpoint(loaded, again)
        assert path.read_bytes() == again.read_bytes()
    assert_same_checkpoint(loaded, ckpt)
    # each tensor is an array of its own, which an Adam step updates in
    # place as it does the tensors that were saved
    assert all(p.data.flags.owndata and p.data.flags.writeable
               for p in loaded.params.parameters())
    for params in (ckpt.params.parameters(), loaded.params.parameters()):
        T.adam_step(params, [np.ones_like(p.data) for p in params], T.AdamState(),
                    learning_rate=0.01)
    assert_same_checkpoint(loaded, ckpt)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.floats(0, 1, exclude_max=True), st.integers(0, 255),
                          st.sampled_from(["set", "delete", "insert"])),
                min_size=1, max_size=3),
       st.sampled_from([None, V1_FIXTURE, V2_FIXTURE, V3_FIXTURE]))
def test_a_damaged_checkpoint_loads_or_is_input_error(tmp_path_factory, edits, source):
    # bytes changed, dropped or added anywhere in a version 4 file (None) or
    # in the version 1, 2 or 3 fixture
    tmp = tmp_path_factory.mktemp("damaged")
    raw = bytearray((source or trained_fixture(tmp)[1]).read_bytes())
    for at, value, kind in edits:
        pos = int(at * len(raw))
        if kind == "set":
            raw[pos] = value
        elif kind == "delete":
            del raw[pos]
        else:
            raw.insert(pos, value)
    try:
        D.load_checkpoint(write(tmp / "damaged.ckpt", bytes(raw)))
    except InputDataError:
        pass
