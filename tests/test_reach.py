"""Every function of the package is reached by a command, or is on a short
list of names kept for another reason: the CLI runs over both config
families under a function-level profiler, and what it never entered must be
exactly that list."""

import inspect
import pathlib
import re
import sys
import types

import pytest

import hypersub
from hypersub import cli

pytestmark = pytest.mark.skipif(sys.version_info < (3, 11),
                                reason="code objects carry co_qualname from 3.11")

PACKAGE = pathlib.Path(hypersub.__file__).parent
BENCH = pathlib.Path(__file__).parents[1] / "bench"

# "module:qualname" of each function no command reaches, and why it stays
_PATCHED = "benchmark name: bench/spans.py patches it; tests compose with it"
_KEYWORD = ("benchmark name: the keyword SubgraphBatch constructor, which "
            "bench/pipeline.py and tests build batches with")
ALLOWED = {
    "dataio:SubgraphDataset.subject_ids": "benchmark name: bench/pipeline.py reads it",
    "dataio:SubgraphTable.subjects": "benchmark name: bench/pipeline.py's predict reads the records",
    "hypergraph:Hypergraph.edge_members": "benchmark name: bench/spans.py's incidences gauge",
    "hypergraph:Laplacian.nnz": "benchmark name: bench/spans.py's theta_nnz gauge",
    "kernel:add_bias": _PATCHED,
    "kernel:add_bias.<locals>.grad_fn": _PATCHED,
    "kernel:leaky_relu": _PATCHED,
    "kernel:leaky_relu.<locals>.grad_fn": _PATCHED,
    "model:SubgraphBatch.__post_init__": _KEYWORD,
    "model:SubgraphBatch.__post_init__.<locals>.per_subject": _KEYWORD,
}
# comprehensions have their own code objects only before Python 3.12, so
# they are counted with the function that holds them
_INLINE = ("<listcomp>", "<dictcomp>", "<setcomp>")

PROFILE = ["--nodes", "40", "--edges", "8", "--classes", "4",
           "--subjects", "60", "--seed", "3"]
SMALL = "hidden_dim = 8\nmax_epochs = 3\npatience = 2\n"
FAMILIES = {
    "defaults": SMALL,
    "variants": SMALL + ("mode = multilabel\nbatch_size = 16\n"
                         "monitor = classification\n"
                         "use_subgraph_attention = false\nreg_weight = 0\n"),
}
OLD_CHECKPOINTS = [pathlib.Path(__file__).parent / "data" / name
                   for name in ("v1.ckpt", "v2.ckpt", "v3.ckpt")]
# one input per reader that it rejects, with exit code 2, each at a check
# that runs only on a fault
FAULTS = {"gmt": "only one field\n",
          "subgraphs": "s0\tC0\tg0000:heavy\n",
          "split": "only one field\n",
          "config": "hidden_dim = 0\n"}


def corrupt_checkpoint(path: pathlib.Path) -> bytes:
    """The version 2 or 3 checkpoint at ``path`` with an integer past
    np.intp put before the last field of its first edge line (a member of
    version 2, the size of version 3), and its header length to match."""
    magic, version, length, rest = path.read_bytes().split(b"\n", 3)
    size = int(length.partition(b": ")[2])
    header = re.sub(rb"(\n\[edges\] \d+\n[^\n]*\t)", rb"\g<1>99999999999999999999,",
                    rest[:size], count=1)
    return b"\n".join([magic, version, b"header_bytes: %d" % len(header),
                        header + rest[size:]])


def package_functions() -> set[str]:
    """"module:qualname" of every function, lambda and generator expression
    in the package's source."""
    found = set()
    for path in PACKAGE.glob("*.py"):
        stack = [compile(path.read_text(), str(path), "exec")]
        while stack:
            code = stack.pop()
            stack += [c for c in code.co_consts if isinstance(c, types.CodeType)]
            if code.co_flags & inspect.CO_NEWLOCALS and code.co_name not in _INLINE:
                found.add(f"{path.stem}:{code.co_qualname}")
    return found


def run_commands(tmp: pathlib.Path):
    """make-synthetic, then train (with and without --split), evaluate,
    predict and interpret for each config family, then a train of the
    unregularized family on a split whose one train subject leaves genes
    unread, so its taped steps pool a restriction of the pairs, then one
    fault per reader, predict on the version 1 to 3 fixtures, and on four
    corrupt checkpoints (a bad edge line of version 3 and of version 2, a
    gene named twice, a version 4 payload cut short); each exit code as
    expected."""
    synth = tmp / "synth"
    assert cli.main(["make-synthetic", *PROFILE, "--out", str(synth)]) == 0
    gmt, subjects, split = (str(synth / n) for n in
                            ("synthetic.gmt", "subgraphs.tsv", "split.tsv"))
    for name, text in FAMILIES.items():
        config = tmp / f"{name}.cfg"
        config.write_text(text)
        for split_args in ([], ["--split", split]):
            out = tmp / name / str(len(split_args))
            assert cli.main(["train", "--gmt", gmt, "--subgraphs", subjects,
                             "--config", str(config), *split_args,
                             "--out", str(out)]) == 0
        ckpt = str(out / "model.ckpt")
        assert cli.main(["evaluate", "--checkpoint", ckpt, "--subgraphs", subjects,
                         "--split", split]) == 0
        assert cli.main(["predict", "--checkpoint", ckpt, "--subgraphs", subjects,
                         "--out", str(out / "pred.tsv")]) == 0
        assert cli.main(["interpret", "--checkpoint", ckpt, "--subgraphs", subjects,
                         "--top-k", "3", "--out", str(out)]) == 0
    narrow = tmp / "narrow.tsv"
    ids = [line.split("\t", 1)[0] for line in pathlib.Path(subjects).read_text().splitlines()]
    narrow.write_text("".join(f"{sid}\t{'val' if k else 'train'}\n"
                              for k, sid in enumerate(ids)))
    assert cli.main(["train", "--gmt", gmt, "--subgraphs", subjects,
                     "--config", str(tmp / "variants.cfg"), "--split", str(narrow),
                     "--out", str(tmp / "narrow")]) == 0

    inputs = {"gmt": gmt, "subgraphs": subjects, "split": split,
              "config": str(tmp / "defaults.cfg")}
    for reader, text in FAULTS.items():
        bad = tmp / f"bad.{reader}"
        bad.write_text(text)
        files = dict(inputs, **{reader: str(bad)})
        assert cli.main(["train", *(a for k, v in files.items() for a in (f"--{k}", v)),
                         "--out", str(tmp / "fault")]) == 2, reader
    # the readers of old versions, on the fixtures those versions wrote
    probe = tmp / "probe.tsv"
    probe.write_text("p1\t-\tG1:0.5,G5:2\n")
    for old in OLD_CHECKPOINTS:
        assert cli.main(["predict", "--checkpoint", str(old), "--subgraphs", str(probe)]) == 0
    bad = tmp / "bad.ckpt"
    v2, v3 = OLD_CHECKPOINTS[1:]
    for raw in (corrupt_checkpoint(v3), corrupt_checkpoint(v2),
                v3.read_bytes().replace(b"\nG6\n", b"\nG5\n", 1),
                (out / "model.ckpt").read_bytes()[:-4]):
        bad.write_bytes(raw)
        assert cli.main(["predict", "--checkpoint", str(bad), "--subgraphs", subjects]) == 2


def test_every_function_is_reached_or_allowed(tmp_path):
    files = {str(path) for path in PACKAGE.glob("*.py")}
    entered = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename in files:
            entered.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run_commands(tmp_path)
    finally:
        sys.setprofile(previous)
    assert sys.getprofile() is previous

    reached = {f"{pathlib.Path(c.co_filename).stem}:{c.co_qualname}" for c in entered}
    assert package_functions() - reached == set(ALLOWED)


def test_each_benchmark_name_is_one_the_benchmark_mentions():
    """An entry kept as a benchmark name names, by the last part of its
    qualname outside any ``<locals>``, something the ``bench/*.py`` sources
    mention, so it fails in the change to the benchmark that drops it."""
    text = "\n".join(path.read_text() for path in sorted(BENCH.glob("*.py")))
    assert text
    for entry, reason in ALLOWED.items():
        if reason.startswith("benchmark name"):
            name = entry.partition(":")[2].split(".<locals>")[0].rpartition(".")[2]
            assert re.search(rf"\b{re.escape(name)}\b", text), entry
