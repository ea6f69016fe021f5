"""sentistock benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload grid_e2e --seed 0 --seconds 30 --trace 0

Run from the repository root. The benchmark generates the workload's inputs
from --seed with ``sentistock.synth`` several times (set-up), then starts a
fresh worker process (worker.py) that calls the workload's entry point back to
back for --seconds seconds and checks every call's outputs (gate.py).

With --trace 0 the last line of output is a JSON object whose metrics are the
end-to-end ones: ``wall_s`` (median time of one entry-point call), ``setup_s``
(median time to generate and write the inputs once) and ``peak_rss_mb`` (the
worker's peak resident memory). Both times are scaled by the calibration loop
timed next to each interval (calibration.py), which cancels the host's speed
drift; unscaled medians and the tail percentile are printed beside them. With
--trace 1 a traced call follows every untraced one and the metrics are the
per-layer ones (tracing.py), with raw times. ``failed``/``attempted`` count failed cells plus calls that
failed the gate against cells attempted; the process exits 1 if the gate
fails. A human-readable report precedes the JSON line, and the full result,
with the machine it ran on, goes to perfbench/.work/results/.

BLAS is pinned to one thread: on a small shared machine the batch-32 GEMMs
run faster and steadier that way, and the thread count is recorded.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from calibration import loop_seconds, scaled  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
SETUP_BATCHES = 7
SETUP_BATCH_S = 0.1
RUN_LIMIT_SECONDS = 170
COVERAGE_MIN = 0.95


def _require_sources() -> None:
    if not (ROOT / "src" / "sentistock" / "__init__.py").is_file():
        sys.exit(f"error: sentistock sources not found under {ROOT / 'src'}; "
                 "run from a full checkout of the repository")


def setup_samples(make_inputs) -> list[tuple[float, float, float]]:
    """(seconds per make_inputs() call, loop before, loop after) for SETUP_BATCHES batches.

    A batch repeats the call until it has run about SETUP_BATCH_S; every
    repeat writes the same files.
    """
    start = time.perf_counter()
    make_inputs()
    reps = max(1, math.ceil(SETUP_BATCH_S / (time.perf_counter() - start)))
    samples = []
    before = loop_seconds()
    for _ in range(SETUP_BATCHES):
        start = time.perf_counter()
        for _ in range(reps):
            make_inputs()
        per_rep = (time.perf_counter() - start) / reps
        after = loop_seconds()
        samples.append((per_rep, before, after))
        before = after
    return samples


def tail(samples: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with at least 10 samples above it."""
    n = len(samples)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


def timing_line(name: str, samples: list[tuple[float, float, float]]) -> str:
    raw = [s[0] for s in samples]
    ref = scaled(samples)
    text = f"{name:12} median {statistics.median(ref):.4f} s"
    t = tail(ref)
    text += f"  p{t[0]:.0f} {t[1]:.4f} s" if t else "  tail n/a (<11 samples)"
    return text + f"  n={len(ref)}  (unscaled median {statistics.median(raw):.4f} s)"


def report(args, workload, result: dict, setup: list, metrics: dict) -> list[str]:
    lines = [f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}",
             "machine " + "  ".join(f"{k}={v}" for k, v in result["machine"].items())]
    lines.append(timing_line("wall_s", result["wall_samples"]))
    lines.append(timing_line("setup_s", setup))
    lines.append(f"peak_rss_mb  {result['peak_rss_mb']:.1f} MiB")
    failed = result["failed_cells"] + result["failed_calls"]
    lines.append(f"failed_frac  {failed / result['cells_attempted']:.4f} "
                 f"({result['failed_cells']} failed cells + {result['failed_calls']} failed checks "
                 f"/ {result['cells_attempted']} cells attempted)")
    ref = (f"summary checked against the reference for seed {args.seed}" if result["reference_found"]
           else f"no reference for seed {args.seed}; repeat and epoch checks only")
    lines.append(f"gate         {'ok' if result['gate_ok'] else 'FAILED'} ({ref})")
    lines += [f"  problem: {p}" for p in result["problems"]]
    if result["ungated_differing"]:
        lines.append("ungated files differing between repeats: " + ", ".join(result["ungated_differing"]))
    if args.trace:
        for name, value in metrics.items():
            lines.append(f"  {name:30} {value['value']:.6g} {value['unit']}")
        layers = result["layers"]
        lines.append(f"traced wall_s split: neuralnet {layers['share.neuralnet']:.3f}  "
                     f"ingest+sentiment+mapping {layers['share.corpus']:.3f}  "
                     f"covered by layer spans {layers['trace.coverage_frac']:.3f}")
        expected = dict(workload.expected_split, coverage_frac=COVERAGE_MIN)
        for group, minimum in expected.items():
            share = layers[f"share.{group}" if group != "coverage_frac" else "trace.coverage_frac"]
            lines.append(f"  {group} {share:.3f} >= {minimum}: {'yes' if share >= minimum else 'NO'}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="sentistock benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    _require_sources()
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS, make_inputs

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    work_dir = WORK / f"run-{os.getpid()}"
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        workload = WORKLOADS[args.workload]
        setup = setup_samples(lambda: make_inputs(workload, args.seed, work_dir / "inputs"))
        command = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--work-dir", str(work_dir)]
        if args.trace:
            command += ["--spans-file", str(results_dir / f"{stem}-spans.json")]
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                              timeout=RUN_LIMIT_SECONDS - args.seconds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        sys.exit(f"error: worker exited with code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])

    measured = dict(result.get("layers", {}))
    measured.update(wall_s=statistics.median(scaled(result["wall_samples"])),
                    setup_s=statistics.median(scaled(setup)),
                    peak_rss_mb=result["peak_rss_mb"])
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in declared}
    for line in report(args, workload, result, setup, metrics):
        print(line)
    failed = result["failed_cells"] + result["failed_calls"]
    line = {"correct": bool(result["gate_ok"]), "attempted": result["cells_attempted"],
            "failed": failed, "metrics": metrics}
    with open(results_dir / f"{stem}.json", "w") as fh:
        json.dump({**line, "setup_samples": setup, **result}, fh, indent=1)
    print(json.dumps(line))
    return 0 if result["gate_ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
