"""Benchmark of hypersub: train, checkpoint save/load, predict and interpret
on seeded synthetic gene-set workloads.

    python3 bench/run.py --workload quick|pathways|genes|all --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout: the package is imported from ``src/`` there
and nowhere else. With ``--trace 0`` the run reports the end-to-end metrics;
with ``--trace 1`` it reports per-layer metrics from spans recorded around the
package's layer calls, and writes the spans to ``.bench_runs/``. The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
The exit code is 0 when every phase ran and every output check passed, 1 when
one failed, and 2 when the package cannot be imported.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import replace

# BLAS threads are fixed before numpy loads: one caller, one thread.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_runs"
BENCH_WORKLOADS = ("quick", "pathways", "genes")

# name -> unit; BENCHMARK.json lists the same metrics with their bounds
END_TO_END = {"setup_s": "s", "train_s": "s", "predict_subjects_per_s": "1/s",
              "ckpt_load_s": "s", "interpret_s": "s", "peak_rss_mb": "MiB"}
# per-layer metrics a traced run adds to the span metrics
TRACE_EXTRA = {"dataio.checkpoint_bytes": "bytes", "training.test_micro_f1": "ratio",
               "trace.train_s": "s", "trace.overhead_s": "s"}

# Work the package repeats that the traces make visible.
REPEAT_WORK = [
    "training.train builds Θ (hypergraph.theta) even when reg_weight is 0: "
    "hypergraph.theta_s on genes",
    "interpret.class_edge_scores reruns the backbone once per class, and "
    "hyperedge_correlation once more: interpret.backbone_passes = classes + 1",
    "model.subgraph_scores reruns the backbone for each split in the final "
    "evaluation: training.final_eval_s",
]


def import_package() -> bool:
    """Make ``import hypersub`` load this checkout's src/; False if it cannot."""
    if not (SRC / "hypersub" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(SRC))
    import hypersub
    import hypersub.dataio  # noqa: F401  (every module the benchmark drives)
    import hypersub.interpret  # noqa: F401
    return pathlib.Path(hypersub.__file__).resolve().parent == SRC / "hypersub"


def blas_threads():
    """Threads the loaded OpenBLAS reports, or None if the library cannot be
    asked (the requested count is recorded separately)."""
    import ctypes

    import numpy as np
    libs = pathlib.Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*")):
        try:
            fn = ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        return fn()
    return None


def code_digest() -> str:
    """SHA-256 over the package source and the benchmark's own code, which
    together fix what a seeded run computes."""
    h = hashlib.sha256()
    here = pathlib.Path(__file__).resolve().parent
    for path in [*sorted((SRC / "hypersub").glob("*.py")), *sorted(here.glob("*.py"))]:
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_sha() -> str:
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or pathlib.Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def environment() -> dict:
    import numpy as np
    return {"git_sha": git_sha(), "code_sha256": code_digest(),
            "python": platform.python_version(), "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0)), "blas_threads": blas_threads(),
            "blas_threads_requested": BLAS_THREADS,
            "machine": platform.machine()}


def record_sha(key: str, sha: str) -> bool:
    """Remember the checkpoint digest of (code, workload, seed); False when an
    earlier run of the same key wrote a different one."""
    path = OUT / "checkpoint_sha256.json"
    seen = json.loads(path.read_text()) if path.exists() else {}
    if seen.setdefault(key, sha) != sha:
        return False
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(seen, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return True


def measure(wl, inputs, config, seconds: float, work, ledger, report) -> list[str]:
    """End-to-end metrics into ``report``; returns the checkpoint digests."""
    import pipeline as P
    import speed

    passes = []
    with speed.Meter() as meter:
        first, s = ledger.phase("setup", P.clock, P.setup, inputs)
        started = time.perf_counter()
        while not passes or time.perf_counter() - started < seconds:
            passes.append(P.run_pass(inputs, s, config, work / "model.ckpt", ledger,
                                     rounds=(wl.rounds, 1.0), burst=wl.burst))
    for p in passes:
        P.check_pass(wl, s, p, ledger)
    samples = {k: [t for p in passes for t in getattr(p, k)]
               for k in ("setup", "ckpt_load", "predict", "interpret")}
    samples["setup"].insert(0, first)
    samples["train"] = [p.train for p in passes]
    # Each phase reports the median of its samples, each scaled to the
    # reference core speed (speed.py): the host's speed drifts by more than
    # the bounds, and the scaling takes the drift out.
    scaled = {k: [meter.scaled(*t) for t in v] for k, v in samples.items()}
    median = {k: statistics.median(v) for k, v in scaled.items()}
    report["metrics"] = {
        "setup_s": median["setup"],
        "train_s": median["train"],
        "predict_subjects_per_s": len(passes[0].batch) / median["predict"],
        "ckpt_load_s": median["ckpt_load"],
        "interpret_s": median["interpret"],
        "peak_rss_mb": passes[0].train_peak_rss_mb}
    report["test_micro_f1"] = passes[0].report.metrics["micro_f1_test"]
    report["wall_s"] = {k: [P.wall(t) for t in v] for k, v in samples.items()}
    report["scaled_s"] = scaled
    report["meter_tick_s"] = statistics.quantiles(meter.took, n=4)
    return [p.checkpoint_sha256 for p in passes]


def untraced_train(name: str, seed: int, ckpt_path) -> float:
    """Train once in a fresh process and return its train() seconds."""
    child = subprocess.run(
        [sys.executable, str(pathlib.Path(__file__).with_name("pipeline.py")),
         name, str(seed), str(ckpt_path)],
        env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True)
    if child.returncode != 0:
        raise RuntimeError(f"untraced training failed:\n{child.stderr}")
    return float(child.stdout.split()[-1])


def trace(wl, inputs, config, work, ledger, report) -> list[str]:
    """Per-layer metrics into ``report`` from one traced pass, and the
    tracing overhead against an untraced training in a fresh process;
    returns the checkpoint digests."""
    import hypersub as hs
    import pipeline as P
    import spans

    untraced_s = ledger.phase("train", untraced_train, report["workload"], report["seed"],
                              work / "untraced.ckpt")
    s = ledger.phase("setup", P.setup, inputs)
    tracer = spans.Tracer(report["run"])
    with spans.instrument(tracer, hs):
        p = P.run_pass(inputs, s, config, work / "model.ckpt", ledger,
                       span=tracer.span, rounds=(1, 0.0), burst=0.0)
    P.check_pass(wl, s, p, ledger)
    tracer.write(OUT / f"{report['run']}.spans.jsonl")
    report["metrics"] = {
        **spans.layer_metrics(tracer),
        "dataio.checkpoint_bytes": (work / "model.ckpt").stat().st_size,
        "training.test_micro_f1": p.report.metrics["micro_f1_test"],
        "trace.train_s": P.wall(p.train),
        "trace.overhead_s": P.wall(p.train) - untraced_s}
    report["self_time_in_train_s"] = spans.self_time_table(tracer, "bench.train")
    report["self_time_in_step_s"] = spans.self_time_table(
        tracer, "training.forward", "kernel.backward", "training.adam_step")
    return [P.sha256(work / "untraced.ckpt"), p.checkpoint_sha256]


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    import pipeline as P
    from workload import generate

    wl = P.WORKLOADS[name]
    config = replace(wl.config, seed=seed)
    inputs = generate(wl.shape, seed)
    ledger = P.Ledger()
    report = {"run": f"{name}-seed{seed}-trace{int(traced)}-pid{os.getpid()}",
              "workload": name, "why": wl.why, "seed": seed,
              "environment": environment(), "repeat_work": REPEAT_WORK, "metrics": {}}
    work = OUT / report["run"]
    work.mkdir(parents=True, exist_ok=True)
    try:
        if traced:
            digests = trace(wl, inputs, config, work, ledger, report)
        else:
            digests = measure(wl, inputs, config, seconds, work, ledger, report)
        ledger.check("checkpoint identical across passes", len(set(digests)) == 1)
        ledger.check("checkpoint identical to earlier runs",
                     record_sha(f"{report['environment']['code_sha256']}/{name}/{seed}",
                                digests[0]))
        report["checkpoint_sha256"] = digests[0]
    except P.PhaseFailed:
        pass
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report.update(attempted=ledger.attempted, failed=ledger.failed, notes=ledger.notes)
    (OUT / f"{report['run']}.json").write_text(json.dumps(report, indent=1, default=str) + "\n")
    return report


def result_line(report: dict, units: dict) -> str:
    correct = report["failed"] == 0 and set(report["metrics"]) >= set(units)
    return json.dumps({
        "correct": correct, "attempted": report["attempted"], "failed": report["failed"],
        "metrics": {k: {"value": report["metrics"].get(k), "unit": u} for k, u in units.items()}})


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is per workload; their
    metric lines are echoed with the workload's name in front."""
    worst, rows = 0, []
    for name in BENCH_WORKLOADS:
        proc = subprocess.run([sys.executable, str(pathlib.Path(__file__).resolve()),
                               "--workload", name, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)],
                              capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        worst = max(worst, proc.returncode)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(f"{name:9s} {line.lstrip('# ')}")
        rows.append((name, json.loads(lines[-1]) if lines else {}))
    print(json.dumps({
        "correct": worst == 0 and all(res.get("correct") for _, res in rows),
        "attempted": sum(res.get("attempted", 0) for _, res in rows),
        "failed": sum(res.get("failed", 1) for _, res in rows),
        "metrics": {f"{name}.{k}": v for name, res in rows
                    for k, v in res.get("metrics", {}).items()}}))
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*BENCH_WORKLOADS, "tiny", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not import_package():
        print(f"cannot import hypersub from {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    OUT.mkdir(exist_ok=True)
    import spans
    units = {**spans.span_units(), **TRACE_EXTRA} if args.trace else END_TO_END
    report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    attempted = max(report["attempted"], 1)
    print(f"# {args.workload} seed {args.seed}: failed_share "
          f"{report['failed'] / attempted:.4g} ({report['failed']}/{report['attempted']})"
          + "".join(f"; {n}" for n in report["notes"]))
    for k, u in units.items():
        print(f"# {k} {report['metrics'].get(k)} {u}")
    if "test_micro_f1" in report:
        print(f"# test_micro_f1 {report['test_micro_f1']} ratio (not a compared metric)")
    for where in ("train", "step"):
        for name, secs in report.get(f"self_time_in_{where}_s", [])[:8]:
            print(f"# self time in {where}: {name} {secs:.4f} s")
    line = result_line(report, units)
    print(line)
    return 0 if json.loads(line)["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
