import json
import os
import pathlib
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from hypersub import cli
from hypersub import dataio as D
from hypersub import interpret as I
from hypersub import model as M
from hypersub.dataio import load_checkpoint
from hypersub.errors import NumericalDivergence
from hypersub.hypergraph import restrict_to_nodes
from hypersub.training import TrainConfig, train

PROFILE = ["--nodes", "40", "--edges", "8", "--classes", "4",
           "--subjects", "60", "--seed", "3"]
CONFIG = ("hidden_dim = 16\nnum_layers = 2\nlearning_rate = 0.01\n"
          "dropout_rate = 0.1\nmax_epochs = 6\npatience = 6\nseed = 5\n")


def run(argv):
    return cli.main(argv)


def run_process(argv, flags=()):
    """The CLI in a separate process, so an uncaught exception shows as a
    traceback in its stderr; ``flags`` go to the interpreter."""
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *flags, "-m", "hypersub.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("synth")
    assert run(["make-synthetic", *PROFILE, "--out", str(d)]) == 0
    return d


@pytest.fixture(scope="module")
def train_dir(synth_dir, tmp_path_factory):
    d = tmp_path_factory.mktemp("trained")
    cfg = d / "config.cfg"
    cfg.write_text(CONFIG)
    code = run(["train", "--gmt", str(synth_dir / "synthetic.gmt"),
                "--subgraphs", str(synth_dir / "subgraphs.tsv"),
                "--split", str(synth_dir / "split.tsv"),
                "--config", str(cfg), "--out", str(d)])
    assert code == 0
    return d


def test_make_synthetic_writes_files(synth_dir):
    for name in ("synthetic.gmt", "subgraphs.tsv", "split.tsv",
                 "planted.json", "manifest.json"):
        assert (synth_dir / name).exists()
    planted = json.loads((synth_dir / "planted.json").read_text())
    assert len(planted["classes"]) == 4
    assert set(planted["planted_edges"]) == set(planted["classes"])


def test_make_synthetic_reruns_identically(synth_dir, tmp_path):
    assert run(["make-synthetic", *PROFILE, "--out", str(tmp_path)]) == 0
    for name in ("synthetic.gmt", "subgraphs.tsv", "split.tsv", "planted.json"):
        assert (tmp_path / name).read_bytes() == (synth_dir / name).read_bytes()


def test_make_synthetic_infeasible_profile_exits_2(tmp_path, capsys):
    for flags, message in [
            (["--classes", "10"], "need at least one hyperedge per class"),
            (["--edges", "41", "--classes", "2"], "need at least one gene per hyperedge"),
            (["--subjects", "11"], "need at least three subjects per class for a split"),
            (["--noise", "1.5"], "noise must be in [0, 1]"),
            (["--noise", "-0.1"], "noise must be in [0, 1]")]:
        code = run(["make-synthetic", "--nodes", "40", "--edges", "8", "--classes", "4",
                    "--subjects", "60", *flags, "--out", str(tmp_path)])
        assert code == 2
        assert f"error: InputDataError: {message}" in capsys.readouterr().err
    assert not (tmp_path / "synthetic.gmt").exists()


def test_train_writes_artifacts(train_dir):
    for name in ("model.ckpt", "metrics.json", "split.tsv", "manifest.json"):
        assert (train_dir / name).exists()
    metrics = json.loads((train_dir / "metrics.json").read_text())
    assert metrics["seed"] == 5
    assert metrics["config"]["hidden_dim"] == 16
    assert metrics["epochs_run"] == len(metrics["train_losses"]) == 6
    assert set(metrics["metrics"]) == {"micro_f1_train", "micro_f1_val",
                                       "micro_f1_test"}
    manifest = json.loads((train_dir / "manifest.json").read_text())
    assert manifest["command"] == "train"
    assert manifest["status"] == "complete"
    assert len(manifest["inputs"]) == 3
    assert set(manifest["blas_threads"]) == set(cli._BLAS_THREAD_VARS)


def test_manifest_records_the_blas_thread_variables(synth_dir, tmp_path, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setenv("OMP_NUM_THREADS", "2")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    code = run(["make-synthetic", *PROFILE, "--out", str(tmp_path)])
    assert code == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["blas_threads"] == {"OPENBLAS_NUM_THREADS": "1",
                                        "OMP_NUM_THREADS": "2",
                                        "MKL_NUM_THREADS": None}
    assert manifest["cpu_count"] == os.cpu_count()


def test_train_rerun_is_byte_identical(synth_dir, train_dir, tmp_path):
    cfg = tmp_path / "config.cfg"
    cfg.write_text(CONFIG)
    code = run(["train", "--gmt", str(synth_dir / "synthetic.gmt"),
                "--subgraphs", str(synth_dir / "subgraphs.tsv"),
                "--split", str(synth_dir / "split.tsv"),
                "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 0
    for name in ("model.ckpt", "metrics.json", "split.tsv"):
        assert (tmp_path / name).read_bytes() == (train_dir / name).read_bytes()


def test_train_seed_flag_overrides_config(synth_dir, tmp_path, capsys):
    cfg = tmp_path / "config.cfg"
    cfg.write_text(CONFIG.replace("max_epochs = 6", "max_epochs = 2"))
    code = run(["train", "--gmt", str(synth_dir / "synthetic.gmt"),
                "--subgraphs", str(synth_dir / "subgraphs.tsv"),
                "--split", str(synth_dir / "split.tsv"),
                "--config", str(cfg), "--seed", "11", "--out", str(tmp_path)])
    assert code == 0
    assert json.loads((tmp_path / "metrics.json").read_text())["seed"] == 11
    assert "checkpoint\t" in capsys.readouterr().out


def test_train_rejects_unknown_config_key(synth_dir, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("hidden_dims = 16\n")
    code = run(["train", "--gmt", str(synth_dir / "synthetic.gmt"),
                "--subgraphs", str(synth_dir / "subgraphs.tsv"),
                "--split", str(synth_dir / "split.tsv"),
                "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 2
    assert "hidden_dims" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["learning_rate = -1", "dropout_rate = 1.5",
                                  "hidden_dim = 0", "leaky_slope = nan",
                                  "learning_rate = nan", "weight_decay = nan",
                                  "reg_weight = nan", "threshold = inf",
                                  "seed = -1",
                                  *(f"{key} = 99999999999999999999" for key in
                                    ("hidden_dim", "num_layers", "max_epochs", "patience",
                                     "batch_size", "seed"))])
def test_train_rejects_bad_config_value(synth_dir, tmp_path, capsys, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("max_epochs = 2\n" + line + "\n")
    code = run(["train", "--gmt", str(synth_dir / "synthetic.gmt"),
                "--subgraphs", str(synth_dir / "subgraphs.tsv"),
                "--split", str(synth_dir / "split.tsv"),
                "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert f"InvalidConfigValue: line 2: {line.split(' = ')[0]} must" in err
    assert not (tmp_path / "model.ckpt").exists()


def test_train_rejects_negative_seed_flag(synth_dir, tmp_path, capsys):
    cfg = tmp_path / "config.cfg"
    cfg.write_text(CONFIG)
    code = run(["train", "--gmt", str(synth_dir / "synthetic.gmt"),
                "--subgraphs", str(synth_dir / "subgraphs.tsv"),
                "--split", str(synth_dir / "split.tsv"),
                "--config", str(cfg), "--seed", "-1", "--out", str(tmp_path)])
    assert code == 2
    assert "InvalidConfigValue: seed must be non-negative" in capsys.readouterr().err


def test_train_rejects_a_seed_flag_past_int64(synth_dir, tmp_path, capsys):
    cfg = tmp_path / "config.cfg"
    cfg.write_text(CONFIG)
    code = run(["train", "--gmt", str(synth_dir / "synthetic.gmt"),
                "--subgraphs", str(synth_dir / "subgraphs.tsv"),
                "--split", str(synth_dir / "split.tsv"), "--config", str(cfg),
                "--seed", "99999999999999999999", "--out", str(tmp_path)])
    assert code == 2
    assert ("InvalidConfigValue: seed must fit a 64-bit integer, got 99999999999999999999"
            in capsys.readouterr().err)
    assert not (tmp_path / "model.ckpt").exists()


@pytest.mark.parametrize("ratios", ["a,b,c", "0.5,0.3,0.3", "0.6,0.2,nan",
                                    "inf,0.2,0.2", "-0.2,0.6,0.6",
                                    "nan,0.2,0.2"])
def test_train_rejects_bad_split_ratios(synth_dir, tmp_path, ratios):
    cfg = tmp_path / "config.cfg"
    cfg.write_text("hidden_dim = 4\nmax_epochs = 2\n")
    proc = run_process(["train", "--gmt", str(synth_dir / "synthetic.gmt"),
                        "--subgraphs", str(synth_dir / "subgraphs.tsv"),
                        f"--split-ratios={ratios}", "--config", str(cfg),
                        "--out", str(tmp_path)])
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "split-ratios" in proc.stderr or "split ratios" in proc.stderr
    assert not (tmp_path / "model.ckpt").exists()


@pytest.mark.parametrize("argv", [["make-synthetic", "--classes", "0"],
                                  ["make-synthetic", "--classes", "-1"],
                                  ["make-synthetic", "--seed", "-1"],
                                  ["interpret", "--top-k", "-1"]],
                         ids=["classes=0", "classes=-1", "seed=-1", "top-k=-1"])
def test_bad_flag_value_exits_2(synth_dir, train_dir, tmp_path, argv):
    if argv[0] == "interpret":
        argv = argv + ["--checkpoint", str(train_dir / "model.ckpt"),
                       "--subgraphs", str(synth_dir / "subgraphs.tsv")]
    proc = run_process(argv + ["--out", str(tmp_path / "out")])
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert f"InputDataError: {argv[1]} " in proc.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("case", ["noise", "missing_gmt", "cohort_lacking_a_class"])
def test_input_fault_writes_no_out_directory(synth_dir, train_dir, tmp_path, case):
    out = tmp_path / "fresh"
    if case == "noise":
        argv = ["make-synthetic", "--noise", "1.5"]
    elif case == "missing_gmt":
        argv = ["train", "--gmt", str(tmp_path / "missing.gmt"),
                "--subgraphs", str(synth_dir / "subgraphs.tsv")]
    else:
        last = load_checkpoint(train_dir / "model.ckpt").class_vocab[-1]
        lines = (synth_dir / "subgraphs.tsv").read_text().splitlines(True)
        table = tmp_path / "cohort.tsv"
        table.write_text("".join(line for line in lines if line.split("\t")[1] != last))
        argv = ["interpret", "--checkpoint", str(train_dir / "model.ckpt"),
                "--subgraphs", str(table)]
    assert run(argv + ["--out", str(out)]) == 2
    assert not out.exists()


def test_train_rejects_subject_without_positive_weight(synth_dir, tmp_path, capsys):
    lines = (synth_dir / "subgraphs.tsv").read_text().splitlines()
    sid, labels, members = lines[0].split("\t")
    zeroed = ",".join(tok.split(":")[0] + ":0" for tok in members.split(","))
    lines[0] = "\t".join([sid, labels, zeroed])
    table = tmp_path / "zero.tsv"
    table.write_text("\n".join(lines) + "\n")
    code = run(["train", "--gmt", str(synth_dir / "synthetic.gmt"),
                "--subgraphs", str(table),
                "--split", str(synth_dir / "split.tsv"), "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "MalformedLine: line 1:" in err and sid in err


def _edited_subjects(synth_dir, tmp_path, line_no, edit):
    """The make-synthetic subject file with line ``line_no``'s fields
    passed through ``edit``, and that line's subject id."""
    lines = (synth_dir / "subgraphs.tsv").read_text().splitlines()
    fields = lines[line_no - 1].split("\t")
    lines[line_no - 1] = "\t".join(edit(*fields))
    table = tmp_path / "edited.tsv"
    table.write_text("\n".join(lines) + "\n")
    return table, fields[0]


def test_train_rejects_a_weight_past_float32_at_its_line(synth_dir, tmp_path):
    # finite in float64, infinite in the float32 the model computes in
    table, sid = _edited_subjects(synth_dir, tmp_path, 4, lambda sid, labels, members: (
        sid, labels, members.replace(members.split(",")[1].split(":")[1], "1e39", 1)))
    proc = run_process(["train", "--gmt", str(synth_dir / "synthetic.gmt"),
                        "--subgraphs", str(table), "--out", str(tmp_path / "out")])
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "MalformedLine: line 4: member weight must be finite and >= 0, got 1e39" \
        in proc.stderr


@pytest.mark.parametrize("split_args", [[], ["--split"]], ids=["ratios", "split"])
def test_multiclass_train_names_an_unlabelled_subject(synth_dir, tmp_path, split_args):
    table, sid = _edited_subjects(synth_dir, tmp_path, 3,
                                  lambda sid, labels, members: (sid, "-", members))
    split_args = split_args and ["--split", str(synth_dir / "split.tsv")]
    proc = run_process(["train", "--gmt", str(synth_dir / "synthetic.gmt"),
                        "--subgraphs", str(table), *split_args,
                        "--out", str(tmp_path / "out")])
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert f"InvalidLabel: line 3: subject {sid!r} has no label" in proc.stderr
    # rejected before any split is drawn, so no stratification warning
    assert "assigning all to train" not in proc.stderr


@pytest.mark.parametrize("command", ["train", "train --split", "evaluate"])
def test_multiclass_names_a_subject_with_two_labels(synth_dir, train_dir, tmp_path, command):
    table, sid = _edited_subjects(synth_dir, tmp_path, 3,
                                  lambda sid, labels, members: (sid, "C0,C1", members))
    split = str(synth_dir / "split.tsv")
    if command == "evaluate":
        argv = ["evaluate", "--checkpoint", str(train_dir / "model.ckpt"), "--split", split]
    else:
        argv = ["train", "--gmt", str(synth_dir / "synthetic.gmt"), "--out", str(tmp_path / "out"),
                *(["--split", split] if "--split" in command else [])]
    proc = run_process([*argv, "--subgraphs", str(table)])
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert (f"InvalidLabel: line 3: subject {sid!r} carries 2 labels, "
            "and multiclass mode needs exactly one") in proc.stderr


def test_a_subject_left_out_of_the_split_is_named_with_its_line(synth_dir, tmp_path,
                                                                  capsys):
    lines = (synth_dir / "subgraphs.tsv").read_text().splitlines()
    sid = lines[4].split("\t")[0]
    split = tmp_path / "split.tsv"
    split.write_text("".join(line + "\n" for line in
                             (synth_dir / "split.tsv").read_text().splitlines()
                             if line.split("\t")[0] != sid))
    code = run(["train", "--gmt", str(synth_dir / "synthetic.gmt"),
                "--subgraphs", str(synth_dir / "subgraphs.tsv"), "--split", str(split),
                "--out", str(tmp_path / "out")])
    assert code == 2
    assert f"line 5: subject {sid!r} has no split assignment" in capsys.readouterr().err


def test_train_without_any_label_exits_2(synth_dir, tmp_path):
    rows = [line.split("\t") for line in
            (synth_dir / "subgraphs.tsv").read_text().splitlines()]
    table = tmp_path / "unlabelled.tsv"
    table.write_text("".join(f"{sid}\t-\t{members}\n" for sid, _, members in rows))
    proc = run_process(["train", "--gmt", str(synth_dir / "synthetic.gmt"),
                        "--subgraphs", str(table), "--out", str(tmp_path / "out")])
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "InvalidLabel: no subject carries a label" in proc.stderr


def test_train_split_without_val_subjects_exits_2(synth_dir, tmp_path):
    split = tmp_path / "split.tsv"
    split.write_text((synth_dir / "split.tsv").read_text().replace("\tval\n", "\ttrain\n"))
    proc = run_process(["train", "--gmt", str(synth_dir / "synthetic.gmt"),
                        "--subgraphs", str(synth_dir / "subgraphs.tsv"), "--split", str(split),
                        "--out", str(tmp_path / "out")])
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "EmptySplit: val split has no subjects" in proc.stderr


def test_train_stratifies_on_sorted_label_sets(synth_dir, tmp_path):
    # multi-label fields out of sorted order, with a repeat: each subject's
    # stratification key is its set of labels, sorted
    fields = ["C2,C0", "C0,C2", "C1", "C3,C1,C3"]
    lines = (synth_dir / "subgraphs.tsv").read_text().splitlines()
    rows = [line.split("\t") for line in lines]
    for k, row in enumerate(rows):
        row[1] = fields[k % len(fields)]
    table = tmp_path / "multi.tsv"
    table.write_text("".join("\t".join(row) + "\n" for row in rows))
    cfg = tmp_path / "config.cfg"
    cfg.write_text("hidden_dim = 4\nmax_epochs = 1\n")
    code = run(["train", "--gmt", str(synth_dir / "synthetic.gmt"),
                "--subgraphs", str(table), "--split-ratios", "0.5,0.25,0.25",
                "--mode", "multilabel", "--seed", "4", "--config", str(cfg),
                "--out", str(tmp_path / "out")])
    assert code == 0
    keys = [tuple(sorted(set(row[1].split(",")))) for row in rows]
    want = D.stratified_split([row[0] for row in rows], keys, (0.5, 0.25, 0.25), seed=4)
    assert (tmp_path / "out" / "split.tsv").read_text() == D.serialize_split(want)


@pytest.mark.parametrize("flag", ["--gmt", "--subgraphs", "--split", "--config"])
def test_non_utf8_input_exits_2(synth_dir, tmp_path, flag):
    files = {"--gmt": synth_dir / "synthetic.gmt",
             "--subgraphs": synth_dir / "subgraphs.tsv",
             "--split": synth_dir / "split.tsv", "--config": tmp_path / "config.cfg"}
    files["--config"].write_text("hidden_dim = 4\nmax_epochs = 1\n")
    bad = tmp_path / "bad.txt"
    lines = files[flag].read_bytes().splitlines(keepends=True)
    bad.write_bytes(b"".join(lines[:1]) + b"\xff" + b"".join(lines[1:]))
    files[flag] = bad
    proc = run_process(["train", *(str(a) for kv in files.items() for a in kv),
                        "--out", str(tmp_path / "out")])
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "MalformedLine: line 2: not UTF-8 text" in proc.stderr


def test_train_gmt_directory_exits_2(synth_dir, tmp_path, capsys):
    code = run(["train", "--gmt", str(synth_dir),
                "--subgraphs", str(synth_dir / "subgraphs.tsv"),
                "--split", str(synth_dir / "split.tsv"), "--out", str(tmp_path)])
    assert code == 2
    assert "Is a directory" in capsys.readouterr().err


def test_evaluate_matches_training_metrics(synth_dir, train_dir, capsys):
    code = run(["evaluate", "--checkpoint", str(train_dir / "model.ckpt"),
                "--subgraphs", str(synth_dir / "subgraphs.tsv"),
                "--split", str(train_dir / "split.tsv"),
                "--split-name", "test"])
    assert code == 0
    out = capsys.readouterr().out.strip().split("\t")
    assert out[:2] == ["micro_f1", "test"]
    want = json.loads((train_dir / "metrics.json").read_text())
    assert float(out[2]) == want["metrics"]["micro_f1_test"]


def test_evaluate_missing_split_name_exits_2(synth_dir, train_dir, tmp_path, capsys):
    only_train = tmp_path / "split.tsv"
    lines = (train_dir / "split.tsv").read_text().splitlines()
    only_train.write_text("".join(f"{ln.split(chr(9))[0]}\ttrain\n"
                                  for ln in lines))
    code = run(["evaluate", "--checkpoint", str(train_dir / "model.ckpt"),
                "--subgraphs", str(synth_dir / "subgraphs.tsv"),
                "--split", str(only_train), "--split-name", "test"])
    assert code == 2
    assert "test" in capsys.readouterr().err


def test_predict_scores_match_library(train_dir, tmp_path, capsys):
    probe = tmp_path / "probe.tsv"
    probe.write_text("p1\t-\tg0000:0.5,g0001\n")
    code = run(["predict", "--checkpoint", str(train_dir / "model.ckpt"),
                "--subgraphs", str(probe)])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    header = lines[0].split("\t")
    assert header[0] == "subject_id" and header[-1] == "predicted"
    fields = lines[1].split("\t")
    assert fields[0] == "p1"
    got = np.array([float(v) for v in fields[1:-1]])

    ckpt = load_checkpoint(train_dir / "model.ckpt")
    batch = M.SubgraphBatch(members=[np.array([0, 1])],
                            weights=[np.array([0.5, 1.0])],
                            labels=np.zeros((1, 4)))
    want = M.subgraph_scores(M.incidence_pairs(ckpt.hypergraph),
                             ckpt.params, batch)[0]
    assert np.array_equal(got, want.astype(np.float64))
    assert fields[-1] == ckpt.class_vocab[int(np.argmax(want))]


def test_predict_lists_excluded_subjects(train_dir, tmp_path, capsys):
    probe = tmp_path / "probe.tsv"
    probe.write_text("p1\t-\tg0000\nghost\t-\tNOSUCHGENE\n")
    code = run(["predict", "--checkpoint", str(train_dir / "model.ckpt"),
                "--subgraphs", str(probe), "--out", str(tmp_path / "pred.tsv")])
    assert code == 0
    text = (tmp_path / "pred.tsv").read_text()
    assert "# excluded subjects" in text
    assert "# ghost" in text
    assert text.splitlines()[1].startswith("p1\t")


def test_predict_excludes_subject_without_positive_weight(train_dir, tmp_path):
    probe = tmp_path / "probe.tsv"
    probe.write_text("p1\t-\tg0000\nnull\t-\tg0001:0,g0002:0\n")
    code = run(["predict", "--checkpoint", str(train_dir / "model.ckpt"),
                "--subgraphs", str(probe), "--out", str(tmp_path / "pred.tsv")])
    assert code == 0
    lines = (tmp_path / "pred.tsv").read_text().splitlines()
    assert lines[1].startswith("p1\t") and len(lines) == 4
    assert lines[2].startswith("# excluded subjects") and lines[3] == "# null"


def test_interpret_writes_rankings(synth_dir, train_dir, tmp_path):
    code = run(["interpret", "--checkpoint", str(train_dir / "model.ckpt"),
                "--subgraphs", str(synth_dir / "subgraphs.tsv"),
                "--top-k", "3", "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "enrichment.tsv").read_text().splitlines()
    assert lines[0].startswith("# aggregation: ")
    assert lines[2] == "class\trank\thyperedge\tscore"
    assert len(lines) == 3 + 4 * 3  # four classes, three rows each
    corr = (tmp_path / "correlation.tsv").read_text().splitlines()
    assert len(corr) == 1 + 8
    assert (tmp_path / "manifest.json").exists()


def test_interpret_without_subjects_exits_2(train_dir, tmp_path, capsys):
    empty = tmp_path / "empty.tsv"
    empty.write_text("# no subjects\n")
    code = run(["interpret", "--checkpoint", str(train_dir / "model.ckpt"),
                "--subgraphs", str(empty), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "InputDataError: no subjects" in capsys.readouterr().err


def test_interpret_on_subjects_lacking_a_class_exits_2(synth_dir, train_dir, tmp_path):
    vocab = load_checkpoint(train_dir / "model.ckpt").class_vocab
    lines = (synth_dir / "subgraphs.tsv").read_text().splitlines(True)
    # without the last class, and with the first alone: the lowest class
    # index no subject carries is named
    for name, keep, missing in (("no_last_class", lambda c: c != vocab[-1], len(vocab) - 1),
                                ("first_class_only", lambda c: c == vocab[0], 1)):
        table = tmp_path / f"{name}.tsv"
        table.write_text("".join(line for line in lines if keep(line.split("\t")[1])))
        proc = run_process(["interpret", "--checkpoint", str(train_dir / "model.ckpt"),
                            "--subgraphs", str(table), "--out", str(tmp_path / name)])
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert f"EmptyClass: no subjects carry class index {missing}" in proc.stderr


def test_evaluate_corrupt_checkpoint_exits_2(synth_dir, train_dir, tmp_path, capsys):
    broken = tmp_path / "broken.ckpt"
    broken.write_bytes((train_dir / "model.ckpt").read_bytes()[:-16])
    code = run(["evaluate", "--checkpoint", str(broken),
                "--subgraphs", str(synth_dir / "subgraphs.tsv"),
                "--split", str(train_dir / "split.tsv")])
    assert code == 2
    assert "CorruptCheckpoint" in capsys.readouterr().err


def test_predict_rejects_a_checkpoint_naming_a_gene_twice(train_dir, tmp_path, capsys):
    # the last gene renamed to the sixth: read as is, one subject's member
    # would be dropped without a word
    raw = (train_dir / "model.ckpt").read_bytes()
    assert b"\ng0039\n" in raw
    broken = tmp_path / "twice.ckpt"
    broken.write_bytes(raw.replace(b"\ng0039\n", b"\ng0005\n", 1))
    probe = tmp_path / "probe.tsv"
    probe.write_text("a\t-\tg0005:1\nb\t-\tg0000:1,g0002:1\n")
    code = run(["predict", "--checkpoint", str(broken), "--subgraphs", str(probe)])
    assert code == 2
    assert "CorruptCheckpoint: gene 'g0005' appears twice in the genes section" \
        in capsys.readouterr().err


def test_predict_non_finite_tensor_exits_2(train_dir, tmp_path, capsys):
    broken = tmp_path / "nan.ckpt"   # the last float32 is head.out_bias[-1]
    raw = (train_dir / "model.ckpt").read_bytes()
    # the int32 size and member blocks, 4 bytes an edge and a pair, follow
    # the tensors
    h = load_checkpoint(train_dir / "model.ckpt").hypergraph
    end = len(raw) - 4 * (h.num_edges + h.node_of_pair.size)
    broken.write_bytes(raw[:end - 4] + np.array([np.nan], dtype="<f4").tobytes() + raw[end:])
    probe = tmp_path / "probe.tsv"
    probe.write_text("p1\t-\tg0000\n")
    code = run(["predict", "--checkpoint", str(broken), "--subgraphs", str(probe)])
    assert code == 2
    assert "CorruptCheckpoint: tensor 'head.out_bias'" in capsys.readouterr().err


def test_failed_train_leaves_running_manifest(synth_dir, tmp_path, monkeypatch):
    def explode(dataset, h, config):
        raise NumericalDivergence("boom")
    monkeypatch.setattr(cli, "train", explode)
    code = run(["train", "--gmt", str(synth_dir / "synthetic.gmt"),
                "--subgraphs", str(synth_dir / "subgraphs.tsv"),
                "--split", str(synth_dir / "split.tsv"),
                "--out", str(tmp_path)])
    assert code == 3
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["status"] == "running"  # digests recorded pre-training
    assert len(manifest["inputs"]) == 3


def test_missing_input_file_exits_2(tmp_path, capsys):
    code = run(["train", "--gmt", str(tmp_path / "nope.gmt"),
                "--subgraphs", str(tmp_path / "nope.tsv"),
                "--out", str(tmp_path)])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_divergence_exits_3(synth_dir, tmp_path, monkeypatch, capsys):
    def explode(dataset, h, config):
        raise NumericalDivergence("non-finite gradient at epoch 1")
    monkeypatch.setattr(cli, "train", explode)
    code = run(["train", "--gmt", str(synth_dir / "synthetic.gmt"),
                "--subgraphs", str(synth_dir / "subgraphs.tsv"),
                "--split", str(synth_dir / "split.tsv"),
                "--out", str(tmp_path)])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


def test_checkpoint_catalog_names_members_only_when_read(synth_dir, train_dir):
    ckpt = load_checkpoint(train_dir / "model.ckpt")
    catalog = cli._catalog_from_checkpoint(ckpt)
    h = ckpt.hypergraph
    names = np.array(ckpt.gene_names, dtype=object)[h.node_of_pair].tolist()
    bounds = h.by_edge.offsets.tolist()
    eager = [names[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    assert len(catalog.members) == len(eager) == len(catalog.names)
    assert list(catalog.members) == eager
    assert catalog.members[-1] == eager[-1]
    with pytest.raises(IndexError):
        catalog.members[len(eager)]
    assert D.serialize_gmt(catalog) == "".join(
        f"{n}\t-\t" + "\t".join(m) + "\n" for n, m in zip(ckpt.edge_names, eager))
    assert np.array_equal(catalog.to_hypergraph().node_of_pair, h.node_of_pair)
    # the sets are the trained GMT's, whose member order is the file's
    source = D.parse_gmt((synth_dir / "synthetic.gmt").read_text())
    assert catalog.names == source.names
    assert [sorted(m) for m in catalog.members] == [sorted(m) for m in source.members]


def test_gradient_too_large_to_square_exits_3(tmp_path, capsys):
    # the make-synthetic defaults at a slope of 1e30 give finite float32
    # gradients whose squares overflow in Adam's second moment
    data = tmp_path / "data"
    assert run(["make-synthetic", "--out", str(data)]) == 0
    cfg = tmp_path / "config.cfg"
    cfg.write_text("hidden_dim = 8\nmax_epochs = 2\nleaky_slope = 1e30\n")
    code = run(["train", "--gmt", str(data / "synthetic.gmt"),
                "--subgraphs", str(data / "subgraphs.tsv"),
                "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err
    assert not (tmp_path / "out" / "model.ckpt").exists()


def test_out_env_var_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("HYPERSUB_OUT", str(tmp_path / "env_out"))
    assert run(["make-synthetic", *PROFILE]) == 0
    assert (tmp_path / "env_out" / "synthetic.gmt").exists()


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as err:
        run(["no-such-command"])
    assert err.value.code == 2


def test_interpret_runs_each_view_on_a_pass_of_its_own(synth_dir, train_dir, tmp_path,
                                                       monkeypatch):
    # the whole cohort reads every gene; one subject per class leaves genes
    # unread, so the ranking's pass runs its last layer over part of them
    lines = (synth_dir / "subgraphs.tsv").read_text().splitlines(keepends=True)
    firsts = {line.split("\t")[1]: line for line in reversed(lines)}
    part = tmp_path / "part.tsv"
    part.write_text("".join(sorted(firsts.values())))
    ckpt = load_checkpoint(train_dir / "model.ckpt")
    h = ckpt.hypergraph
    catalog = cli._catalog_from_checkpoint(ckpt)
    original = M.forward_backbone
    for subjects, unread in ((synth_dir / "subgraphs.tsv", False), (part, True)):
        table = D.load_subgraphs(subjects.read_text(), catalog,
                                 class_vocab=ckpt.class_vocab)
        dataset = D.build_dataset(table, catalog, dict.fromkeys(table.subject_ids, "train"))
        batch = dataset.batch(np.arange(len(table.subject_ids)))
        assert (batch.by_row.nonempty.size < h.num_nodes) == unread
        out = tmp_path / subjects.stem
        calls = []

        def recording(*args, **kwargs):
            calls.append((kwargs["reads"], kwargs.get("edges", False)))
            return original(*args, **kwargs)

        monkeypatch.setattr(M, "forward_backbone", recording)
        code = run(["interpret", "--checkpoint", str(train_dir / "model.ckpt"),
                    "--subgraphs", str(subjects), "--top-k", "3", "--out", str(out)])
        assert code == 0
        monkeypatch.undo()

        # the ranking's pass over the cohort's member rows without edges,
        # then the correlation's over no rows with edges
        members = restrict_to_nodes(h, batch.by_row.nonempty)
        (ranked, ranked_edges), (correlated, correlated_edges) = calls
        assert np.array_equal(ranked.edge_of_pair, members.edge_of_pair)
        assert np.array_equal(ranked.node_of_pair, members.node_of_pair)
        assert (ranked.edge_of_pair.size < h.edge_of_pair.size) == unread
        assert not ranked_edges
        assert correlated.edge_of_pair.size == 0 and correlated_edges

        # each view called as the library does writes the same bytes
        report = I.class_enrichment(ckpt.params, h, batch, ckpt.class_vocab, 3,
                                    edge_names=ckpt.edge_names)
        corr = I.hyperedge_correlation(ckpt.params, h)
        assert (out / "enrichment.tsv").read_bytes() == I.enrichment_tsv(report).encode()
        assert (out / "correlation.tsv").read_bytes() == \
            I.correlation_tsv(corr, ckpt.edge_names).encode()


# names as the text formats allow them: no tab, no \n or \r, no surrogate
_TEXT = st.text(st.characters(blacklist_categories=("Cs",),
                              blacklist_characters="\t\n\r"),
                min_size=1, max_size=6)
_BRACKETED = st.sampled_from(["[g1", "[payload]", "[edges]", "[genes] 2",
                              "[tensors", "[", "]["])
# genes and classes are comma-separated tokens, stripped; genes also carry
# ":weight"; a class "-" means unlabeled
_GENE = st.one_of(_BRACKETED, _TEXT).map(str.strip).filter(
    lambda s: s and not set(s) & set(",:"))
_CLASS = st.one_of(_BRACKETED, _TEXT).map(str.strip).filter(
    lambda s: s and s != "-" and "," not in s)
# a GMT line starting with '#' is a comment
_EDGE = st.one_of(_BRACKETED, _TEXT).filter(
    lambda s: s.strip() and not s.lstrip().startswith("#"))


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(_GENE, min_size=4, max_size=7, unique=True),
       st.lists(_EDGE, min_size=2, max_size=3, unique=True),
       st.lists(_CLASS, min_size=2, max_size=2, unique=True))
@example(["a\u2028b", "c", "d", "e"], ["s\u2028t", "u"], ["x\u2028y", "z"])
def test_names_round_trip_through_train_checkpoint_predict(genes, edges, classes):
    gmt = "".join(f"{name}\tdesc\t" + "\t".join(genes[j::len(edges)] + genes[:1]) + "\n"
                  for j, name in enumerate(edges))
    catalog = D.parse_gmt(gmt)
    assert catalog.names == edges and set(catalog.genes) == set(genes)
    subjects = "".join(f"s{i}\t{classes[i % 2]}\t{genes[i % len(genes)]}:0.5,"
                       f"{genes[(i + 1) % len(genes)]}\n" for i in range(8))
    table = D.load_subgraphs(subjects, catalog)
    split = {f"s{i}": ("train", "train", "val", "test")[i % 4] for i in range(8)}
    dataset = D.build_dataset(table, catalog, split)
    config = TrainConfig(hidden_dim=4, num_layers=1, max_epochs=2, patience=2,
                         dropout_rate=0.0, seed=1)
    params, _ = train(dataset, catalog.to_hypergraph(), config)
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/model.ckpt"
        D.save_checkpoint(D.Checkpoint(
            params=params, config=config, gene_names=catalog.genes,
            class_vocab=dataset.class_vocab, edge_names=list(catalog.names),
            hypergraph=catalog.to_hypergraph()), path)
        loaded = D.load_checkpoint(path)
        assert loaded.gene_names == catalog.genes
        assert loaded.edge_names == edges
        assert loaded.class_vocab == sorted(classes)
        assert all(np.array_equal(a.data, b.data) for a, b in
                   zip(params.parameters(), loaded.params.parameters()))

        probe = f"{tmp}/probe.tsv"
        with open(probe, "w", encoding="utf-8") as fh:
            fh.write(f"p1\t-\t{genes[0]},{genes[-1]}:2\n")
        out = f"{tmp}/pred.tsv"
        assert run(["predict", "--checkpoint", path, "--subgraphs", probe,
                    "--out", out]) == 0
        with open(out, encoding="utf-8") as fh:
            header, row = fh.read().rstrip("\n").split("\n")
        assert header.split("\t") == ["subject_id", *sorted(classes), "predicted"]
        assert row.split("\t")[0] == "p1"


def test_bracketed_gene_name_trains_and_predicts(tmp_path):
    # a gene "[g1" used to end the [genes] section of the checkpoint header
    gmt = tmp_path / "sets.gmt"
    gmt.write_text("[payload]\tx\t[g1\tg2\tg3\nB\ty\tg3\t[edges]\n")
    subjects = tmp_path / "subjects.tsv"
    subjects.write_text("".join(f"s{i}\t{'ab'[i % 2]}\t[g1:0.5,{'g2' if i % 2 else '[edges]'}\n"
                                for i in range(10)))
    cfg = tmp_path / "cfg"
    cfg.write_text("hidden_dim = 4\nmax_epochs = 2\n")
    out = tmp_path / "run"
    assert run(["train", "--gmt", str(gmt), "--subgraphs", str(subjects),
                "--split-ratios", "0.6,0.2,0.2", "--config", str(cfg),
                "--out", str(out)]) == 0
    ckpt = load_checkpoint(out / "model.ckpt")
    assert ckpt.gene_names == ["[g1", "g2", "g3", "[edges]"]
    assert ckpt.edge_names == ["[payload]", "B"]
    assert run(["predict", "--checkpoint", str(out / "model.ckpt"),
                "--subgraphs", str(subjects), "--out", str(tmp_path / "p.tsv")]) == 0
