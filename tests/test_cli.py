import json

import numpy as np
import pytest

from hypersub import cli
from hypersub import model as M
from hypersub.dataio import load_checkpoint
from hypersub.errors import NumericalDivergence

PROFILE = ["--nodes", "40", "--edges", "8", "--classes", "4",
           "--subjects", "60", "--seed", "3"]
CONFIG = ("hidden_dim = 16\nnum_layers = 2\nlearning_rate = 0.01\n"
          "dropout_rate = 0.1\nmax_epochs = 6\npatience = 6\nseed = 5\n")


def run(argv):
    return cli.main(argv)


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
    code = run(["make-synthetic", "--nodes", "40", "--edges", "8",
                "--classes", "10", "--subjects", "60", "--out", str(tmp_path)])
    assert code == 2
    assert "error:" in capsys.readouterr().err


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


def test_evaluate_corrupt_checkpoint_exits_2(synth_dir, train_dir, tmp_path, capsys):
    broken = tmp_path / "broken.ckpt"
    broken.write_bytes((train_dir / "model.ckpt").read_bytes()[:-16])
    code = run(["evaluate", "--checkpoint", str(broken),
                "--subgraphs", str(synth_dir / "subgraphs.tsv"),
                "--split", str(train_dir / "split.tsv")])
    assert code == 2
    assert "CorruptCheckpoint" in capsys.readouterr().err


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


def test_out_env_var_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("HYPERSUB_OUT", str(tmp_path / "env_out"))
    assert run(["make-synthetic", *PROFILE]) == 0
    assert (tmp_path / "env_out" / "synthetic.gmt").exists()


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as err:
        run(["no-such-command"])
    assert err.value.code == 2
