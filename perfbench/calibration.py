"""A fixed calibration loop that measures how fast the machine runs right now.

On a small shared virtual machine the speed of one core drifts by 20-35% over
tens of seconds as other tenants load the host; the same call can take 1.7 s
in one minute and 2.3 s a few minutes later. Timing this loop next to each
measured interval and scaling the interval by ``REFERENCE_S / loop time``
cancels that drift: the result reads as the time the interval would take on
a machine where the loop takes REFERENCE_S. The loop mixes interpreted
Python and small BLAS GEMMs with an elementwise ufunc, as the workloads do.
It is benchmark code and never changes with the program under test.
"""

from __future__ import annotations

import json
import re
import time

import numpy as np

REFERENCE_S = 0.04
_RNG = np.random.default_rng(0)
_A, _B = _RNG.random((32, 200)), _RNG.random((200, 800))
_X, _W = _RNG.random((32, 50)), _RNG.random((50, 200))
_LINES = [json.dumps({"id": str(i), "date": f"2020-01-{1 + i % 28:02d}",
                      "text": f"Strong growth rally #{i} @user http://x.y/{i}"}) for i in range(2000)]
_WS = re.compile(r"\s+")
_NON_ALNUM = re.compile(r"[^a-z0-9 ]")


def loop_seconds() -> float:
    """Time one pass of the calibration loop (about 40 ms on a 2-vCPU x86-64 VM).

    About half the time is interpreted Python (JSON parsing, regex cleaning,
    dict inserts, integer arithmetic), half numpy (many small ufunc and GEMM
    calls plus a few larger GEMMs).
    """
    start = time.perf_counter()
    parsed = {}
    for line in _LINES:
        record = json.loads(line)
        text = _NON_ALNUM.sub("", _WS.sub(" ", record["text"].lower()))
        parsed[record["id"]] = (record["date"], text, len(text.split()))
    total = 0
    for i in range(40_000):
        total += i * i
    for _ in range(30):
        np.tanh(_A @ _B)
    for _ in range(800):
        z = _X @ _W
        np.tanh(z[:, :50]) * _X
    return time.perf_counter() - start


def scaled(samples: list[tuple[float, float, float]]) -> list[float]:
    """Scale each (interval, loop before, loop after) by the mean of its two loop times."""
    return [t * REFERENCE_S / ((before + after) / 2) for t, before, after in samples]
