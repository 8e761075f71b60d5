"""Per-call cost of single hvsim layers timed in isolation, for comparison
with the traced, in-context figures of `run.py --trace 1`.

    python3 perfbench/isolated.py

Run it from the root of a source checkout. Each figure is the median of
seven repeats of a tight loop, in microseconds per call, raw and scaled to
the reference speed of calibrate.py by work probes taken around the loop.
"""

from __future__ import annotations

import os
import statistics
import sys
import time
from pathlib import Path

os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from calibrate import work_probe, work_ref_s  # noqa: E402
from workloads import INTERPRETED  # noqa: E402
from hvsim import (HiddenState, PureState, haar_state, measure, pauli, predict,  # noqa: E402
                   spectral, substream, tensor, update)

REPEATS = 7


def per_call_us(fn, loops: int) -> tuple[float, float]:
    """Raw microseconds per call and the scale to the reference speed."""
    samples, probes = [], [work_probe(INTERPRETED)]
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(loops):
            fn()
        samples.append((time.perf_counter() - t0) / loops * 1e6)
        probes.append(work_probe(INTERPRETED))
    return statistics.median(samples), work_ref_s(INTERPRETED) / statistics.median(probes)


def main() -> int:
    rng = np.random.default_rng(0)
    xx = tensor(pauli("x"), pauli("x"), "XX")
    decomp = xx.spectrum()
    state = haar_state(4, rng)
    hidden = HiddenState(state, 0.4)
    amplitudes = state.amplitudes
    cases = {
        "operators.spectral (4x4)": (lambda: spectral(xx), 2000),
        "operators.weights": (lambda: decomp.weights(state), 20000),
        "model.predict": (lambda: predict(decomp, hidden), 20000),
        "model.predict + model.update": (
            lambda: update(decomp, hidden, predict(decomp, hidden)), 10000),
        "model.measure": (lambda: measure(xx, hidden, rng), 10000),
        "model.substream": (lambda: substream(0, 5, 7, 3), 5000),
        "operators.haar_state(4)": (lambda: haar_state(4, rng), 20000),
        "operators.PureState": (lambda: PureState(amplitudes), 50000),
    }
    print(f"{'layer':32s} {'raw us':>9s} {'scaled us':>10s}")
    for name, (fn, loops) in cases.items():
        raw, scale = per_call_us(fn, loops)
        print(f"{name:32s} {raw:9.1f} {raw * scale:10.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
