"""Output gate: every call must succeed, repeat its result bytes and match the reference.

A call fails the gate when a cell failed, a cell trained other than the
configured number of epochs, a gated result (summary, loss and prediction
CSVs; for run_master the prediction and loss arrays) differs from the first
call's bytes, or the summary metrics leave the stated tolerance of the
reference values stored in ``reference.json`` for this workload and seed.
Other result files that differ between calls are recorded, not gated.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from workloads import Outcome, Workload, is_gated

REFERENCE_FILE = Path(__file__).with_name("reference.json")


def load_reference(workload: str, seed: int) -> tuple[dict | None, dict]:
    """Reference summary metrics for (workload, seed), or None, plus the tolerance."""
    with open(REFERENCE_FILE) as fh:
        blob = json.load(fh)
    return blob["workloads"].get(workload, {}).get(str(seed)), blob["tolerance"]


def _close(got, want, tolerance: dict, exact: bool) -> bool:
    if exact or isinstance(want, str) or isinstance(got, str):
        return got == want
    if math.isnan(want) or math.isnan(got):
        return math.isnan(want) and math.isnan(got)
    return math.isclose(got, want, rel_tol=tolerance["rtol"], abs_tol=tolerance["atol"])


def compare_summary(summary: dict, reference: dict, tolerance: dict) -> list[str]:
    problems = []
    if set(summary) != set(reference):
        problems.append(f"cells {sorted(summary)} != reference cells {sorted(reference)}")
    for cell in sorted(set(summary) & set(reference)):
        for field, want in reference[cell].items():
            got = summary[cell].get(field)
            if got is None or not _close(got, want, tolerance, field in tolerance["exact"]):
                problems.append(f"{cell} {field} = {got!r}, reference {want!r}")
    return problems


class Gate:
    """Checks each call of one run and counts failures against cells attempted."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.reference, self.tolerance = load_reference(workload.name, seed)
        self.first_files: dict[str, str] | None = None
        self.cells_attempted = 0
        self.failed_cells = 0
        self.failed_calls = 0
        self.problems: list[str] = []
        self.ungated_differing: set[str] = set()

    def check(self, outcome: Outcome) -> None:
        w = self.workload
        problems = []
        self.cells_attempted += w.cells
        self.failed_cells += outcome.failed_cells
        if len(outcome.records) != w.cells:
            problems.append(f"{len(outcome.records)} cells returned, {w.cells} expected")
        for cell, n in sorted(outcome.epochs.items()):
            if n != w.epochs:
                problems.append(f"{cell} trained {n} epochs, configured {w.epochs}")
        if self.first_files is None:
            self.first_files = outcome.files
            if self.reference is not None:
                problems += compare_summary(outcome.summary, self.reference, self.tolerance)
        else:
            for name in sorted(set(self.first_files) | set(outcome.files)):
                if self.first_files.get(name) == outcome.files.get(name):
                    continue
                if is_gated(name):
                    problems.append(f"{name} differs between repeats")
                else:
                    self.ungated_differing.add(name)
        if problems:
            self.failed_calls += 1
            self.problems += problems

    @property
    def failed(self) -> int:
        return self.failed_cells + self.failed_calls

    @property
    def ok(self) -> bool:
        return self.failed == 0 and self.cells_attempted > 0
