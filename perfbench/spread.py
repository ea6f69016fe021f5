"""Run the benchmark over several seeds and report each metric's median and spread.

    python3 perfbench/spread.py --workloads train_cell grid_e2e --seeds 0-9 [--trace 0] \
        [--out perfbench/baseline.json --label "seed commit"]

Spread is the distance between the first and third quartile of the runs'
values (statistics.quantiles, n=4) as a share of their median; it is checked
against a third of each end-to-end metric's bound in BENCHMARK.json. With
--out, the medians are added to that file as one labelled point.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("0-9"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--label", default="")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    steady = True
    point = {"label": args.label, "run_seconds": spec["run_seconds"], "seeds": args.seeds,
             "trace": args.trace, "workloads": {}}
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)],
                stdout=subprocess.PIPE, text=True, cwd=ROOT)
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or not line["correct"]:
                print(proc.stdout)
                sys.exit(f"error: {workload} seed {seed} failed its gate")
            for name, metric in line["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + "  ".join(
                f"{k}={v['value']:.5g}" for k, v in line["metrics"].items()
                if k in bounds or args.trace), flush=True)
        summary = {}
        for name, vals in values.items():
            median = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median if median else 0.0
            summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread}
            bound = bounds.get(name)
            if bound is not None:
                ok = name == "setup_s" or spread < bound / 3
                steady &= ok
                print(f"  {workload} {name}: median {median:.5g}  spread {spread:.4f}  "
                      f"bound/3 {bound / 3:.4f}  {'ok' if ok else 'TOO WIDE'}")
        point["workloads"][workload] = summary
    if args.out is not None:
        trajectory = json.loads(args.out.read_text()) if args.out.exists() else {"points": []}
        trajectory["points"].append(point)
        args.out.write_text(json.dumps(trajectory, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
