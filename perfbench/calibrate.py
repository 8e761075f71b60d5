"""Speed probes: every time the benchmark reports is scaled to one
reference speed.

On a shared host the speed of a CPU drifts as other tenants' load changes.
On a 2-vCPU x86 VM a fixed Python loop took anywhere from 16 ms to 42 ms, in
phases lasting tens of seconds; the workloads' pass times swung by up to 2x
between runs, and the start of a fresh process by more. There is no hardware
counter to count instructions instead. So the benchmark times a fixed piece
of reference work, a probe, next to the measured work, and scales each
measured time by the probe's reference time divided by the median time of
the probes nearest to it. A scaled time reads as seconds on a machine where
the probe takes its reference time. The raw times are kept in the details
of each result.

Two probes are used, each matched to the work it scales:

- `work_probe` runs in the worker between passes. It does the kinds of
  work that dominate the workload, each in about equal parts: object-heavy
  interpreted Python (building and using an argparse parser, dumping JSON),
  numpy calls on 4-element arrays, or numpy passes over arrays larger than
  the CPU caches. The kinds of work slow by different factors when the
  host is busy, so a probe that does other work than the workload tracks
  it badly.
- `startup_probe` starts a fresh interpreter that imports numpy. It scales
  set-up and fresh-process times, which are mostly process start and import.

Neither touches hvsim, so no change to hvsim can change them.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

import numpy as np

STARTUP_REF_S = 0.2
WORK_PROBE_EVERY_S = 0.25
# Probes per scale factor. One work probe varies by about 10 %; the median
# of nine, taken over about 2 s, still follows phases of tens of seconds.
# A start-up probe runs right before each sample it scales, so the two
# nearest are the ones on either side of that sample.
WORK_PROBES_PER_SCALE = 9
STARTUP_PROBES_PER_SCALE = 2

_MATRIX = np.eye(4, dtype=complex)
_VECTOR = np.full(4, 0.5, dtype=complex)
_LARGE = np.linspace(0.0, 1.0, 400_000)  # 3.2 MB, with the cumsum 6.4 MB of the peak RSS
_KEYS = _LARGE[::16].copy()


def _python_objects() -> None:
    for _ in range(4):
        parser = argparse.ArgumentParser(prog="probe")
        commands = parser.add_subparsers(dest="command")
        for name in ("a", "b", "c", "d"):
            command = commands.add_parser(name)
            command.add_argument("--format", choices=("x", "y"), default="x")
            command.add_argument("--count", type=int, default=3)
        args = parser.parse_args(["b", "--count", "7"])
        json.dumps({"k": [args.count, args.format, [1.5, 2.5]], "z": {"q": "w"}},
                   sort_keys=True, indent=2)


def _small_arrays() -> None:
    for _ in range(250):
        w = _MATRIX @ _VECTOR
        np.vdot(_VECTOR, w)
        np.linalg.norm(w)
        np.searchsorted(np.cumsum(np.abs(w) ** 2), 0.3)


def _large_arrays() -> None:
    np.searchsorted(np.cumsum(_LARGE), _KEYS)


# Each part of the work probe and its reference time, about what it takes
# when the host is quiet.
PROBE_PARTS = {
    "python_objects": (_python_objects, 0.005),
    "small_arrays": (_small_arrays, 0.0045),
    "large_arrays": (_large_arrays, 0.003),
}


def work_probe(parts) -> float:
    """Seconds the named parts of the reference work take now."""
    t0 = time.perf_counter()
    for part in parts:
        PROBE_PARTS[part][0]()
    return time.perf_counter() - t0


def work_ref_s(parts) -> float:
    return sum(PROBE_PARTS[part][1] for part in parts)


def startup_probe(env: dict) -> float:
    """Seconds to start a fresh interpreter that imports numpy."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], env=env, check=True,
                   stdin=subprocess.DEVNULL, capture_output=True, timeout=60)
    return time.perf_counter() - t0


class SpeedTrack:
    """Times of one probe against the clock, to scale measured times by."""

    def __init__(self, probe, ref_s: float, per_scale: int):
        self.probe = probe
        self.ref_s = ref_s
        self.per_scale = per_scale
        self.at = []
        self.took = []
        self._last = -float("inf")

    def sample(self) -> None:
        start = time.perf_counter()
        took = self.probe()
        self.at.append(start + took / 2)
        self.took.append(took)
        self._last = start + took

    def sample_if_due(self, every_s: float) -> None:
        if time.perf_counter() - self._last >= every_s:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """The reference time over the median time of the `per_scale`
        probes nearest to the middle of the interval."""
        middle = (start + end) / 2
        nearest = sorted(zip(self.at, self.took), key=lambda p: abs(p[0] - middle))
        return self.ref_s / statistics.median(t for _, t in nearest[:self.per_scale])
