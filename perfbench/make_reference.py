"""Regenerate reference.json: each workload's summary metrics for seeds 0..N-1.

    python3 perfbench/make_reference.py [--seeds 32]

The gate compares every run's summary metrics with these values, within the
tolerance stored beside them. Regenerate only when a change is meant to move
the results, and say so with the change.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from gate import REFERENCE_FILE  # noqa: E402
from workloads import WORKLOADS, make_inputs, run_once  # noqa: E402

TOLERANCE = {"rtol": 1e-6, "atol": 1e-9, "exact": ["T"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=32)
    args = parser.parse_args(argv)
    work_dir = HERE / ".work" / f"reference-{os.getpid()}"
    reference = {}
    try:
        for name, workload in WORKLOADS.items():
            reference[name] = {}
            for seed in range(args.seeds):
                inputs = make_inputs(workload, seed, work_dir / "inputs")
                outcome = run_once(workload, inputs, work_dir / "out")
                if outcome.failed_cells:
                    sys.exit(f"error: {name} seed {seed}: {outcome.failed_cells} cells failed")
                reference[name][str(seed)] = outcome.summary
                shutil.rmtree(work_dir / "out", ignore_errors=True)
                print(f"{name} seed {seed}: {len(outcome.summary)} cells", flush=True)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    with open(REFERENCE_FILE, "w") as fh:
        json.dump({"tolerance": TOLERANCE, "workloads": reference}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
