"""The byte-identity contract: the sha256 of every seeded output of one small
fixed run must equal those recorded in tests/data/golden.json.

The run is ``make-synthetic`` at test_reach.PROFILE, then ``train`` (with a
stratified split) over both of test_reach.FAMILIES, the first regularized and
the second not, each followed by ``evaluate``, ``predict`` and ``interpret``;
then ``predict`` on the version 1 to 3 fixtures. It goes in a subprocess
with one BLAS thread. Hashes depend on the numpy version and on the kernels
the CPU runs, so each entry is keyed by both; where no entry matches the
running platform, the test skips and says why.

After an intended change to a seeded output, rewrite this platform's entry
with ``PYTHONPATH=src python tests/test_golden.py --write``, which prints
each entry it changes as ``name old → new`` (``None`` for an entry added or
dropped), and record the old hash, the new one and the reason in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import platform
import subprocess
import sys
import tempfile

import numpy as np
import pytest

from test_reach import FAMILIES, OLD_CHECKPOINTS, PROFILE

HERE = pathlib.Path(__file__).resolve().parent
GOLDEN = HERE / "data" / "golden.json"
SRC = HERE.parent / "src"
# subjects over the genes G1-G6 of the version 1 to 3 fixtures
PROBE = "p1\t-\tG1:0.5,G5:2\np2\t-\tG2,G3,G4\np3\t-\tG6:1.5,G1\n"


def platform_key() -> str:
    """numpy's version, the machine, and the SIMD features numpy reports:
    those it was built for and those of its dispatch targets this CPU has."""
    try:
        from numpy._core import _multiarray_umath as simd
    except ImportError:   # numpy 1.x
        from numpy.core import _multiarray_umath as simd
    found = [f for f in simd.__cpu_dispatch__ if simd.__cpu_features__.get(f)]
    return (f"numpy {np.__version__} {platform.machine()} "
            f"baseline {','.join(simd.__cpu_baseline__)} found {','.join(found)}")


def run(tmp: pathlib.Path) -> dict[str, str]:
    """Run the fixed commands in ``tmp``: the sha256 of each seeded output,
    by name."""
    from hypersub import cli

    def call(*argv) -> bytes:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main([str(a) for a in argv]) == 0, argv
        return out.getvalue().encode("utf-8")

    synth = tmp / "synth"
    call("make-synthetic", *PROFILE, "--out", synth)
    files = {f"make-synthetic/{n}": synth / n
             for n in ("synthetic.gmt", "subgraphs.tsv", "split.tsv", "planted.json")}
    gmt, subjects = synth / "synthetic.gmt", synth / "subgraphs.tsv"
    blobs = {}
    for family, text in FAMILIES.items():
        out = tmp / family
        config = tmp / f"{family}.cfg"
        config.write_text(text)
        call("train", "--gmt", gmt, "--subgraphs", subjects, "--config", config, "--out", out)
        ckpt = out / "model.ckpt"
        blobs[f"{family}/evaluate stdout"] = call(
            "evaluate", "--checkpoint", ckpt, "--subgraphs", subjects,
            "--split", out / "split.tsv")
        call("predict", "--checkpoint", ckpt, "--subgraphs", subjects,
             "--out", out / "predict.tsv")
        call("interpret", "--checkpoint", ckpt, "--subgraphs", subjects, "--top-k", "3",
             "--out", out)
        files.update({f"{family}/{n}": out / n for n in (
            "model.ckpt", "metrics.json", "split.tsv", "predict.tsv",
            "enrichment.tsv", "correlation.tsv")})
    probe = tmp / "probe.tsv"
    probe.write_text(PROBE)
    for old in OLD_CHECKPOINTS:
        blobs[f"predict {old.name} stdout"] = call(
            "predict", "--checkpoint", old, "--subgraphs", probe)
    blobs.update((name, path.read_bytes()) for name, path in files.items())
    return {name: hashlib.sha256(blob).hexdigest() for name, blob in sorted(blobs.items())}


def hashes() -> dict[str, str]:
    """``run`` in a subprocess with one BLAS thread."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, __file__], capture_output=True, text=True,
                          env=env, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_seeded_outputs_match_the_recorded_hashes():
    key = platform_key()
    recorded = json.loads(GOLDEN.read_text())
    if key not in recorded:
        pytest.skip(f"tests/data/golden.json has no entry for {key!r}; "
                    "'PYTHONPATH=src python tests/test_golden.py --write' records one")
    assert hashes() == recorded[key]


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        recorded = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
        old, new = recorded.get(platform_key(), {}), hashes()
        for name in sorted(old.keys() | new.keys()):
            if old.get(name) != new.get(name):
                print(f"{name} {old.get(name)} → {new.get(name)}")
        recorded[platform_key()] = new
        GOLDEN.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
        print(f"wrote {GOLDEN}")
    else:
        with tempfile.TemporaryDirectory() as tmp:
            print(json.dumps(run(pathlib.Path(tmp))))
