"""One measured run of one workload, in a fresh process.

Started by run.py after it has generated the inputs. Prints one JSON object
as its last line of output: the wall time of every call with the calibration
loop times just before and after it, the gate's verdict,
the process's peak resident memory, the machine, and for a traced run the
per-layer metrics. Traced runs also write their spans to --spans-file.

    python3 perfbench/worker.py --workload grid_e2e --seed 0 --seconds 10 \
        --trace 0 --work-dir perfbench/.work/run-1 [--spans-file FILE]
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from sentistock import neuralnet  # noqa: E402
from calibration import loop_seconds  # noqa: E402
from gate import Gate  # noqa: E402
from tracing import Tracer, call_metrics, median_metrics, patched  # noqa: E402
from workloads import WORKLOADS, Workload, make_inputs, run_once  # noqa: E402

PROBE_BATCH = 32
PROBE_FEATURES = 8  # OHLCV plus three sentiment channels
PROBE_SECONDS = 0.5
PROBE_MIN_CALLS = 5


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, asked from the library itself."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
    }


def _timed_ms(fn) -> float:
    times = []
    deadline = time.perf_counter() + PROBE_SECONDS
    while len(times) < PROBE_MIN_CALLS or time.perf_counter() < deadline:
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def probes(workload: Workload, seed: int) -> dict[str, float]:
    """Batch-32 forward and forward+BPTT times at the workload's largest model shape."""
    lookback = max(workload.lookbacks)
    model = neuralnet.init_model(neuralnet.ModelConfig(
        hidden_units=workload.hidden_units, input_shape=(lookback, PROBE_FEATURES), seed=seed))
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.0, 1.0, (PROBE_BATCH, lookback, PROBE_FEATURES))
    y = rng.uniform(0.0, 1.0, PROBE_BATCH)
    return {
        "neuralnet.forward_b32_ms": _timed_ms(lambda: neuralnet.forward(model, X)),
        "neuralnet.loss_grad_b32_ms": _timed_ms(lambda: neuralnet.loss_and_gradients(model, X, y)),
    }


def measure(workload: Workload, seed: int, seconds: float, trace: bool, work_dir: Path,
            spans_file: Path | None) -> dict:
    inputs = make_inputs(workload, seed, work_dir / "inputs", write=False)
    out_dir = work_dir / "out"
    gate = Gate(workload, seed)
    tracer = Tracer()

    def call(traced: bool) -> float:
        shutil.rmtree(out_dir, ignore_errors=True)
        if traced:
            with patched(tracer) as tweet_loader:
                outcome = run_once(workload, inputs, out_dir, tweet_loader=tweet_loader)
            tracer.call += 1
        else:
            outcome = run_once(workload, inputs, out_dir)
        gate.check(outcome)
        return outcome.wall_s

    call(traced=False)  # warm-up; its outputs are the reference bytes for the repeats
    samples, traced_walls = [], []  # samples: (untraced wall, loop before, loop after)
    deadline = time.perf_counter() + seconds
    before = loop_seconds()
    while not samples or time.perf_counter() < deadline:
        wall = call(traced=False)
        after = loop_seconds()
        samples.append((wall, before, after))
        if trace:
            traced_walls.append(call(traced=True))
            after = loop_seconds()
        before = after
    shutil.rmtree(out_dir, ignore_errors=True)

    walls = [s[0] for s in samples]
    result = {
        "wall_samples": samples,
        "cells_attempted": gate.cells_attempted,
        "failed_cells": gate.failed_cells,
        "failed_calls": gate.failed_calls,
        "gate_ok": gate.ok,
        "problems": gate.problems[:20],
        "reference_found": gate.reference is not None,
        "ungated_differing": sorted(gate.ungated_differing),
        "machine": machine(),
    }
    if trace:
        per_call = [call_metrics([s for s in tracer.spans if s["call"] == i])
                    for i in range(tracer.call)]
        layers = median_metrics(per_call)
        layers.update(probes(workload, seed))
        layers["trace_overhead_frac"] = statistics.median(traced_walls) / statistics.median(walls) - 1
        result["layers"] = layers
        if spans_file is not None:
            with open(spans_file, "w") as fh:
                json.dump(tracer.spans, fh)
    # Peak resident memory of this process over the whole run (Linux reports KiB).
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--spans-file", type=Path)
    args = parser.parse_args(argv)
    result = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
                     args.work_dir, args.spans_file)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
