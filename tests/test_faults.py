"""A fault corpus: one field of one line of an input file, or of one
checkpoint edge line, is changed, and a command runs on the result in
process. Whatever the change, the command exits 0, 2 or 3 and raises
nothing, and an input error names the line at fault: a text file's line by
its number, a checkpoint edge line by quoting it."""

import contextlib
import io
import pathlib
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypersub import cli
from hypersub.errors import CorruptCheckpoint

from test_reach import FAULTS, OLD_CHECKPOINTS, PROFILE, SMALL
from test_readers import _in_grammar, reference_edge_lines

# the commands that read each input file
READERS = {"gmt": ["train"], "config": ["train"], "split": ["train", "evaluate"],
           "subgraphs": ["train", "predict", "evaluate", "interpret"]}
COPY = None   # the same field of the next line
WHOLE = -1    # the field index that stands for the whole line
# "\udcff" is written as the byte 0xff, which is not UTF-8
FIELD_VALUES = ["", " ", "#", "x", "-", "0", "-1", "2", "nan", "1e39", "C0,C1", "C9",
                "train", "test", "g0000", "g0000:heavy", "g0000:1e39", "g0001:0", ",",
                "a\tb", "é", "\udcff", "seed", "mode", COPY]
# edge line values keep the header UTF-8 and every line a line: no '[' to
# open a version 1 section, no character that str.splitlines breaks at
EDGE_VALUES = ["", "0", "1", "2", "-1", "+2", " 3", "2 ", "007", "x", "1.5", "nan",
               "1e3", "0x10", "١", "99999999999999999999", "9223372036854775807",
               "9223372036854775808", "1,1", "0,9", "1,,2", "a\tb", COPY]
# subjects of every class of the version 1 and 2 fixtures, whose genes are
# G1 to G6: multiclass X and Y, and multilabel X, Y and Z
FIXTURE_SUBJECTS = {"v1": "p1\tX\tG1:0.5,G5:2\np2\tY\tG2,G3\n",
                    "v2": "p1\tX\tG1:0.5,G5:2\np2\tY,Z\tG2,G3\n"}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The paths of the small profile's files, the small config, a version
    3 checkpoint trained on them, and subject and split files that fit the
    version 1 and 2 fixtures."""
    tmp = tmp_path_factory.mktemp("inputs")
    assert run(["make-synthetic", *PROFILE, "--out", str(tmp)])[0] == 0
    paths = {"gmt": tmp / "synthetic.gmt", "subgraphs": tmp / "subgraphs.tsv",
             "split": tmp / "split.tsv", "config": tmp / "small.cfg"}
    paths["config"].write_text(SMALL)
    for version, text in FIXTURE_SUBJECTS.items():
        paths[f"{version}_subgraphs"], paths[f"{version}_split"] = \
            tmp / f"{version}.tsv", tmp / f"{version}.split"
        paths[f"{version}_subgraphs"].write_text(text)
        paths[f"{version}_split"].write_text("p1\ttest\np2\ttest\n")
    assert run(command_line("train", paths, tmp))[0] == 0
    paths["v3"] = tmp / "model.ckpt"
    paths["v1"], paths["v2"] = OLD_CHECKPOINTS
    return paths


def run(argv):
    """The exit code of ``cli.main(argv)`` and its "error: " lines."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    return code, [line for line in err.getvalue().splitlines() if line.startswith("error: ")]


def command_line(command, paths, out, checkpoint=None, version="v3"):
    """The arguments of ``command`` on ``paths`` and ``checkpoint``, with
    the subjects and split that fit a checkpoint of ``version``."""
    prefix = "" if version == "v3" else f"{version}_"
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
                                    checkpoint=inputs["v3"]))
    assert code in (0, 2, 3)
    assert len(errors) == (code == 2)
    if code == 2:
        assert names_the_line(errors[0], texts, name, i + 1), (errors[0], lines[i])


def edge_line_is_bad(version, line):
    """Whether ``line`` breaks the edge line grammar of its version."""
    parts = line.split("\t")
    if version == "v3":
        return len(parts) != 2 or not re.fullmatch("[1-9][0-9]*", parts[1])
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
@given(st.sampled_from(["v1", "v2", "v3"]), st.sampled_from(["predict", "evaluate", "interpret"]),
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
