"""A fault corpus: one field of one line of an input file, or of one
checkpoint edge or config line, or one value of a checkpoint's binary
blocks, is changed, and a command runs on the result in process. Whatever
the change, the command exits 0, 2 or 3 and raises nothing, and an input
error names what is at fault: a text file's line by its number, a
checkpoint edge line by quoting it, a binary block's fault by its edge or
tensor."""

import contextlib
import io
import pathlib
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypersub import cli
from hypersub import dataio as D
from hypersub.errors import CorruptCheckpoint

from test_cli import run_process
from test_reach import FAULTS, OLD_CHECKPOINTS, PROFILE, SMALL
from test_readers import _in_grammar, reference_edge_lines

# the commands that read each input file
READERS = {"gmt": ["train"], "config": ["train"], "split": ["train", "evaluate"],
           "subgraphs": ["train", "predict", "evaluate", "interpret"]}
COPY = None   # the same field of the next line
WHOLE = -1    # the field index that stands for the whole line
# "\udcff" is written as the byte 0xff, which is not UTF-8
FIELD_VALUES = ["", " ", "#", "x", "-", "0", "-1", "2", "nan", "1e38", "1e39", "C0,C1",
                "C9", "train", "test", "g0000", "g0000:heavy", "g0000:1e39", "g0001:0", ",",
                "a\tb", "é", "\udcff", "seed", "mode", "99999999999999999999", COPY]
# edge line values keep the header UTF-8 and every line a line: no '[' to
# open a version 1 section, no character that str.splitlines breaks at
EDGE_VALUES = ["", "0", "1", "2", "-1", "+2", " 3", "2 ", "007", "x", "1.5", "nan",
               "1e3", "0x10", "١", "99999999999999999999", "9223372036854775807",
               "9223372036854775808", "1,1", "0,9", "1,,2", "a\tb", COPY]
# subjects of every class of the version 1 to 3 fixtures, whose genes are
# G1 to G6: multiclass X and Y, multilabel X, Y and Z, and multiclass X, Y
# and Z
FIXTURE_SUBJECTS = {"v1": "p1\tX\tG1:0.5,G5:2\np2\tY\tG2,G3\n",
                    "v2": "p1\tX\tG1:0.5,G5:2\np2\tY,Z\tG2,G3\n",
                    "v3": "p1\tX\tG1:0.5,G5:2\np2\tY\tG2,G3\np3\tZ\tG6\n"}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The paths of the small profile's files, the small config, a version
    4 checkpoint trained on them, and subject and split files that fit the
    version 1 to 3 fixtures."""
    tmp = tmp_path_factory.mktemp("inputs")
    assert run(["make-synthetic", *PROFILE, "--out", str(tmp)])[0] == 0
    paths = {"gmt": tmp / "synthetic.gmt", "subgraphs": tmp / "subgraphs.tsv",
             "split": tmp / "split.tsv", "config": tmp / "small.cfg"}
    paths["config"].write_text(SMALL)
    for version, text in FIXTURE_SUBJECTS.items():
        paths[f"{version}_subgraphs"], paths[f"{version}_split"] = \
            tmp / f"{version}.tsv", tmp / f"{version}.split"
        paths[f"{version}_subgraphs"].write_text(text)
        paths[f"{version}_split"].write_text(
            "".join(line.split("\t")[0] + "\ttest\n" for line in text.splitlines()))
    assert run(command_line("train", paths, tmp))[0] == 0
    paths["v4"] = tmp / "model.ckpt"
    paths["v1"], paths["v2"], paths["v3"] = OLD_CHECKPOINTS
    return paths


def run(argv):
    """The exit code of ``cli.main(argv)`` and its "error: " and
    "numerical failure: " lines."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    return code, [line for line in err.getvalue().splitlines()
                  if line.startswith(("error: ", "numerical failure: "))]


def command_line(command, paths, out, checkpoint=None, version="v4"):
    """The arguments of ``command`` on ``paths`` and ``checkpoint``, with
    the subjects and split that fit a checkpoint of ``version``."""
    prefix = "" if version == "v4" else f"{version}_"
    subjects, split = paths[f"{prefix}subgraphs"], paths[f"{prefix}split"]
    if command == "train":
        return ["train", "--gmt", str(paths["gmt"]), "--subgraphs", str(subjects),
                "--split", str(split), "--config", str(paths["config"]), "--out", str(out)]
    args = [command, "--checkpoint", str(checkpoint), "--subgraphs", str(subjects)]
    return args + {"predict": ["--out", str(out / "pred.tsv")], "evaluate": ["--split", str(split)],
                   "interpret": ["--top-k", "3", "--out", str(out)]}[command]


def mutate(lines, k, sep, field, value):
    """Line ``k`` of ``lines`` with one of its ``sep``-separated fields (or
    the whole line, for WHOLE) set to ``value``, or for COPY to the same
    field of the next line."""
    if value is COPY:
        other = lines[(k + 1) % len(lines)]
        value = other if field == WHOLE else other.split(sep)[field % len(other.split(sep))]
    if field == WHOLE:
        return value
    parts = lines[k].split(sep)
    parts[field % len(parts)] = value
    return sep.join(parts)


def names_the_line(message, texts, mutated, no):
    """Whether ``message`` names line ``no`` of the file mutated, or a
    line of that file or of the subject file that holds the subject it
    names (a subject left without a split is named at its subject line)."""
    if no in map(int, re.findall(r"\bline (\d+)\b", message)):
        return True
    named = re.search(r": line (\d+): subject '([^']*)'", message)
    return named is not None and any(
        texts[name].split("\n")[int(named[1]) - 1].startswith(named[2] + "\t")
        for name in (mutated, "subgraphs"))


@st.composite
def input_faults(draw):
    name = draw(st.sampled_from(sorted(READERS)))
    return (name, draw(st.sampled_from(READERS[name])), draw(st.integers(0, 99)),
            draw(st.integers(WHOLE, 3)), draw(st.sampled_from(FIELD_VALUES)))


@settings(max_examples=200, deadline=None)
@given(input_faults())
# each reader's fault of the reach test, put in place of the first line
@example(("gmt", "train", 0, WHOLE, FAULTS["gmt"].strip()))
@example(("subgraphs", "train", 0, WHOLE, FAULTS["subgraphs"].strip()))
@example(("split", "train", 0, WHOLE, FAULTS["split"].strip()))
@example(("config", "train", 0, WHOLE, FAULTS["config"].strip()))
# a mangled subject id in the split file leaves a subject without a split
@example(("split", "train", 5, 0, "x"))
# an integer config value past np.int64
@example(("config", "train", 0, 1, "99999999999999999999"))
# a learning rate, weight decay or penalty weight past float32, in which
# each is applied
@example(("config", "train", 0, WHOLE, "learning_rate = 1e39"))
@example(("config", "train", 0, WHOLE, "weight_decay = 1e39"))
@example(("config", "train", 0, WHOLE, "weight_decay = 1e42"))
@example(("config", "train", 0, WHOLE, "reg_weight = 1e39"))
# values just under that bound, which overflow float32 in the first epoch:
# train exits 3 naming the epoch, and warns of nothing; line 2 of the
# config is patience, so hidden_dim stays 8
@example(("config", "train", 2, WHOLE, "learning_rate = 1e37"))
@example(("config", "train", 2, WHOLE, "learning_rate = 1e38"))
@example(("config", "train", 2, WHOLE, "weight_decay = 1e38"))
@example(("config", "train", 2, WHOLE, "reg_weight = 1e38"))
def test_a_faulty_input_line_is_named(tmp_path_factory, inputs, fault):
    name, command, pick, field, value = fault
    texts = {n: inputs[n].read_text() for n in READERS}
    lines = texts[name].split("\n")
    used = [i for i, line in enumerate(lines) if line]
    i = used[pick % len(used)]
    lines[i] = mutate([lines[j] for j in used], pick % len(used),
                      "=" if name == "config" else "\t", field, value)
    texts[name] = "\n".join(lines)
    tmp = tmp_path_factory.mktemp("case")
    (tmp / name).write_bytes(texts[name].encode("utf-8", "surrogateescape"))
    code, errors = run(command_line(command, dict(inputs, **{name: tmp / name}), tmp,
                                    checkpoint=inputs["v4"]))
    assert code in (0, 2, 3)
    assert len(errors) == (code != 0)
    if code == 2:
        assert names_the_line(errors[0], texts, name, i + 1), (errors[0], lines[i])
    if code == 3:
        assert re.search(r" at epoch \d+$", errors[0]), errors


def test_an_overflow_in_training_exits_3_under_warnings_as_errors(inputs, tmp_path):
    # an interpreter that makes every RuntimeWarning an exception still
    # gets exit 3 and the epoch, not a traceback
    config = tmp_path / "overflow.cfg"
    config.write_text(SMALL + "learning_rate = 1e38\n")
    proc = run_process(command_line("train", dict(inputs, config=config), tmp_path),
                       flags=["-W", "error::RuntimeWarning"])
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.rstrip().endswith(" at epoch 1"), proc.stderr
    assert "RuntimeWarning" not in proc.stderr


def edge_line_is_bad(version, line):
    """Whether ``line`` breaks the edge line grammar of its version;
    version 4's is any name."""
    if version == "v4":
        return False
    parts = line.split("\t")
    if version == "v3":   # a size in plain decimal, within int32
        return len(parts) != 2 or not re.fullmatch("[1-9][0-9]*", parts[1]) \
            or int(parts[1]) > 2**31 - 1
    try:
        reference_edge_lines([line])
    except CorruptCheckpoint:
        return True
    return not all(map(_in_grammar, parts[2].split(",")))


def with_mutated_edge_line(raw, pick, field, value):
    """A checkpoint with one of its edge lines mutated, and that line; a
    counted header's length is kept right."""
    top, rest = raw.split(b"\n[edges]", 1)
    lines = rest.split(b"\n")
    # a counted section states its count; a version 1 section ends at '['
    count = int(lines[0]) if lines[0] else \
        next(k for k, line in enumerate(lines[1:]) if line.startswith(b"["))
    edges = [line.decode() for line in lines[1:1 + count]]
    new = mutate(edges, pick % count, "\t", field, value)
    grown = len(new.encode()) - len(lines[1 + pick % count])
    lines[1 + pick % count] = new.encode()
    head = top.split(b"\n")
    if head[1] != b"version: 1":
        head[2] = b"header_bytes: %d" % (int(head[2].split(b": ")[1]) + grown)
    return b"\n".join(head) + b"\n[edges]" + b"\n".join(lines), new


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["v1", "v2", "v3", "v4"]),
       st.sampled_from(["predict", "evaluate", "interpret"]),
       st.integers(0, 99), st.integers(WHOLE, 2), st.sampled_from(EDGE_VALUES))
@example("v3", "predict", 0, 1, "99999999999999999999,1")   # the reach test's corruption
@example("v2", "predict", 0, 2, "99999999999999999999,0")
def test_a_faulty_edge_line_is_quoted(tmp_path_factory, inputs, version, command, pick,
                                      field, value):
    raw, line = with_mutated_edge_line(inputs[version].read_bytes(), pick, field, value)
    tmp = tmp_path_factory.mktemp("case")
    (tmp / "edges.ckpt").write_bytes(raw)
    code, errors = run(command_line(command, inputs, tmp, checkpoint=tmp / "edges.ckpt",
                                    version=version))
    assert code in (0, 2)
    assert len(errors) == (code == 2)
    quoted = errors == [f"error: CorruptCheckpoint: bad edge line {line!r}"]
    assert quoted == edge_line_is_bad(version, line), (errors, line)


def with_a_name_repeated(raw, section):
    """The checkpoint ``raw`` with the name of the second line of its
    ``section`` (classes or edges) given to the first line as well, and
    that name; a counted header's length is kept right."""
    top, rest = raw.split(b"\n[%s]" % section, 1)
    count, first, second, tail = rest.split(b"\n", 3)
    name = second.partition(b"\t")[0]
    new = name + first[len(first.partition(b"\t")[0]):]
    head = top.split(b"\n")
    if head[1] != b"version: 1":
        head[2] = b"header_bytes: %d" % (int(head[2].split(b": ")[1]) + len(new) - len(first))
    return b"\n".join(head) + b"\n[%s]" % section + b"\n".join([count, new, second, tail]), \
        name.decode()


@pytest.mark.parametrize("command", ["predict", "evaluate", "interpret"])
@pytest.mark.parametrize("version", ["v1", "v2", "v3", "v4"])
@pytest.mark.parametrize("section, kind", [("classes", "class"), ("edges", "edge")])
def test_a_class_or_edge_named_twice_exits_2(tmp_path, inputs, section, kind, version,
                                            command):
    # read as is, a repeated class is two columns of one name in predict's
    # table, and a repeated edge two rows and columns of correlation.tsv
    raw, name = with_a_name_repeated(inputs[version].read_bytes(), section.encode())
    (tmp_path / "twice.ckpt").write_bytes(raw)
    code, errors = run(command_line(command, inputs, tmp_path,
                                    checkpoint=tmp_path / "twice.ckpt", version=version))
    assert code == 2
    assert errors == [f"error: CorruptCheckpoint: {kind} {name!r} appears twice "
                      f"in the {section} section"]


# a fault of the header outside its sections, for the checkpoint version it
# is made in: the edit of the file's bytes, and the message it exits 2 with
HEADER_FAULTS = {
    # the version line without its newline
    "truncated header": ("v4", lambda raw: raw.partition(b"\nheader_bytes: ")[0]),
    "missing version": ("v4", lambda raw: raw.replace(b"\nversion: ", b"\nedition: ", 1)),
    "unreadable version": ("v4", lambda raw: raw.replace(b"\nversion: 4", b"\nversion: x", 1)),
    # of the same length, so the header length still holds
    "unexpected storage declaration": ("v4", lambda raw: raw.replace(
        b"\nendian: little\n", b"\nendian: middle\n", 1)),
    "empty classes, genes, or edges section": ("v1", lambda raw: raw.replace(
        b"\n[classes]\nX\nY\n", b"\n[classes]\n", 1)),
    "missing payload marker": ("v1", lambda raw: raw.replace(
        b"\n[payload]\n", b"\n[payload]x\n", 1)),
    "expected section [classes]": ("v1", lambda raw: raw.replace(
        b"\n[classes]\n", b"\n[labels]\n", 1)),
    "unexpected trailing header content": ("v1", lambda raw: raw.replace(
        b"\n[payload]\n", b"\n[extra]\n[payload]\n", 1)),
}


@pytest.mark.parametrize("message", sorted(HEADER_FAULTS))
def test_a_faulty_checkpoint_header_exits_2(tmp_path, inputs, message):
    version, edit = HEADER_FAULTS[message]
    raw = inputs[version].read_bytes()
    assert edit(raw) != raw
    (tmp_path / "header.ckpt").write_bytes(edit(raw))
    code, errors = run(command_line("predict", inputs, tmp_path,
                                    checkpoint=tmp_path / "header.ckpt", version=version))
    assert code == 2
    assert errors == [f"error: CorruptCheckpoint: {message}"]


def with_mutated_config_line(raw, pick, field, value):
    """The checkpoint ``raw``, of version 2 or later, with one line of its
    [config] section mutated, and its header length rewritten to match."""
    magic, version, length, rest = raw.split(b"\n", 3)
    size = int(length.partition(b": ")[2])
    lines = rest[:size].decode().split("\n")
    start = next(k for k, line in enumerate(lines) if line.startswith("[config] ")) + 1
    config = lines[start:start + int(lines[start - 1].split()[1])]
    lines[start + pick % len(config)] = mutate(config, pick % len(config), "=", field, value)
    header = "\n".join(lines).encode("utf-8", "surrogateescape")
    return b"\n".join([magic, version, b"header_bytes: %d" % len(header), header + rest[size:]])


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["predict", "evaluate", "interpret"]), st.integers(0, 99),
       st.integers(WHOLE, 2), st.sampled_from(FIELD_VALUES))
# sizes whose parameter schema no reader could build, and a slope past
# float32: lines 3, 4 and 13 of the section are hidden_dim, num_layers and
# leaky_slope
@example("predict", 4, 1, " 1000000000000")
@example("predict", 3, 1, " 1099511627776")
@example("predict", 13, 1, " 1e39")
def test_a_faulty_checkpoint_config_line_exits_cleanly(tmp_path_factory, inputs, command,
                                                       pick, field, value):
    raw = with_mutated_config_line(inputs["v4"].read_bytes(), pick, field, value)
    tmp = tmp_path_factory.mktemp("case")
    (tmp / "config.ckpt").write_bytes(raw)
    code, errors = run(command_line(command, inputs, tmp, checkpoint=tmp / "config.ckpt"))
    assert code in (0, 2, 3)
    assert len(errors) == (code != 0)


# int32 values a block may be changed to, the gene counts of the version 4
# checkpoint (40) and of the version 1 to 3 fixtures (6) among them; None
# stands for the value of the block's next entry
INT32_VALUES = [-2**31, -1, 0, 1, 2, 3, 5, 6, 7, 39, 40, 41, 2**31 - 1, None]
# the payload faults of each version: a version 1 or 2 payload ends at its
# last tensor, version 3 adds a member block, version 4 a size block before it
BLOCK_KINDS = {"v1": ["truncate", "extend"], "v2": ["truncate", "extend"],
               "v3": ["members", "truncate", "extend"],
               "v4": ["sizes", "members", "truncate", "extend"]}


@st.composite
def block_faults(draw):
    """One change to the payload of a checkpoint of any version: an int32
    of its size or member block set to a value, or the payload cut short or
    extended by ``k`` bytes; with the command to run."""
    version = draw(st.sampled_from(sorted(BLOCK_KINDS)))
    kind = draw(st.sampled_from(BLOCK_KINDS[version]))
    value = draw(st.one_of(st.sampled_from(INT32_VALUES), st.integers(-2**31, 2**31 - 1)))
    return (version, kind, draw(st.integers(0, 10**6)), value,
            draw(st.sampled_from(["predict", "evaluate", "interpret"])))


def with_block_fault(raw, ckpt, fault):
    """``raw``, the file of ``ckpt``, with ``fault`` applied."""
    version, kind, pick, value, _ = fault
    edges = ckpt.hypergraph.num_edges if version == "v4" else 0   # of the size block
    pairs = ckpt.hypergraph.node_of_pair.size if version in ("v3", "v4") else 0
    tensors = sum(t.data.size for t in ckpt.params.parameters())
    payload = 4 * (tensors + edges + pairs)
    if kind == "truncate":
        return raw[:-(1 + pick % payload)]
    if kind == "extend":
        return raw + bytes([(value or 0) % 256]) * (1 + pick % 64)
    start, count = (len(raw) - 4 * (edges + pairs), edges) if kind == "sizes" else \
        (len(raw) - 4 * pairs, pairs)
    values = np.frombuffer(raw[start:], dtype="<i4")[:count].copy()
    at = pick % count
    values[at] = values[(at + 1) % count] if value is None else value
    return raw[:start] + values.tobytes() + raw[start + 4 * count:]


@settings(max_examples=200, deadline=None)
@given(block_faults())
@example(("v4", "sizes", 0, 0, "predict"))
@example(("v4", "members", 0, 40, "predict"))
@example(("v4", "truncate", 0, 0, "evaluate"))
@example(("v4", "extend", 0, 0, "interpret"))
@example(("v3", "members", 0, 6, "predict"))
@example(("v3", "truncate", 0, 0, "evaluate"))
@example(("v3", "extend", 0, 0, "interpret"))
@example(("v2", "truncate", 0, 0, "predict"))
@example(("v2", "extend", 0, 0, "evaluate"))
@example(("v1", "extend", 3, 0, "interpret"))
def test_a_faulty_payload_block_names_its_edge_or_tensor(tmp_path_factory, inputs, fault):
    version, command = fault[0], fault[-1]
    ckpt = D.load_checkpoint(inputs[version])
    raw = with_block_fault(inputs[version].read_bytes(), ckpt, fault)
    tmp = tmp_path_factory.mktemp("case")
    (tmp / "blocks.ckpt").write_bytes(raw)
    code, errors = run(command_line(command, inputs, tmp, checkpoint=tmp / "blocks.ckpt",
                                    version=version))
    assert code in (0, 2)
    assert len(errors) == (code == 2)
    if code == 2:
        named = [f"edge {name!r}" for name in ckpt.edge_names] + \
            [f"tensor {name!r}" for name, _ in ckpt.params.named_parameters()]
        assert any(n in errors[0] for n in named), errors
