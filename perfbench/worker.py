"""Benchmark worker: one fresh process that imports hvsim, warms up, then
calls `hvsim.cli.main` in-process with stdout captured to a buffer.

    python3 perfbench/worker.py MODE WORKLOAD SEED SECONDS TRACE_PATH

The worker prints `ready` once hvsim is imported and each subcommand of the
workload has run once at its smallest arguments. MODE `setup` exits there.
MODE `measure` then repeats the workload's call list for SECONDS. MODE
`trace` does the same with every other pass traced, and writes the spans
to TRACE_PATH. The last line of stdout is a JSON object with the
measurements; times in it are scaled to the reference speed of
calibrate.py. run.py starts the worker with BLAS pinned to one thread and
`src` on PYTHONPATH.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import statistics
import sys
import time
import traceback

import workloads
from calibrate import (WORK_PROBE_EVERY_S, WORK_PROBES_PER_SCALE, SpeedTrack, work_probe,
                       work_ref_s)

MIN_TRACED_PASSES = 3


class Runner:
    """Runs passes over a workload's calls and checks every output."""

    def __init__(self, cli, workload: workloads.Workload):
        self.cli = cli
        self.calls = workload.calls
        self.events_per_pass = sum(call.events for call in self.calls)
        parts = workload.probe_parts
        self.speed = SpeedTrack(lambda: work_probe(parts), work_ref_s(parts),
                                WORK_PROBES_PER_SCALE)
        self.digests = {}    # argv -> sha256 of the first output
        self.verdicts = {}   # argv -> None or the reason the output is wrong
        self.output_bytes = {}
        self.attempted = 0
        self.failures = []

    def _call(self, argv) -> tuple[object, str]:
        buffer = io.StringIO()
        try:
            with contextlib.redirect_stdout(buffer):
                rc = self.cli.main(list(argv))
        except SystemExit as exc:
            rc = exc.code
        except Exception:
            traceback.print_exc()
            rc = "exception"
        return rc, buffer.getvalue()

    def warm_up(self, argvs) -> None:
        for argv in argvs:
            rc, _ = self._call(argv)
            if rc not in (0, 1):
                raise RuntimeError(f"warm-up call {' '.join(argv)} ended with {rc!r}")

    def _check(self, call, rc, text: str) -> None:
        self.attempted += 1
        if rc != 0:
            reason = f"exit code {rc!r}"
        else:
            data = text.encode("utf-8")
            digest = hashlib.sha256(data).hexdigest()
            if self.digests.setdefault(call.argv, digest) != digest:
                reason = "output differs from an earlier call with the same argv"
            else:
                if call.argv not in self.verdicts:
                    try:
                        self.verdicts[call.argv] = call.check(text)
                    except (ValueError, KeyError, TypeError) as exc:
                        self.verdicts[call.argv] = f"unreadable output: {exc!r}"
                    self.output_bytes[call.argv] = len(data)
                reason = self.verdicts[call.argv]
        if reason is not None:
            self.failures.append((" ".join(call.argv), reason))

    def _pass(self) -> dict:
        """One pass over the call list: its span on the clock and the time
        of each call."""
        clock = time.perf_counter
        call_s = []
        start = clock()
        for call in self.calls:
            t0 = clock()
            rc, text = self._call(call.argv)
            call_s.append(clock() - t0)
            self._check(call, rc, text)
        return {"start": start, "end": clock(), "call_s": call_s}

    def run_for(self, seconds: float, tracer=None) -> tuple[list, list, list]:
        """Whole passes until `seconds` have elapsed, with the speed probe
        run between passes. With a tracer, passes alternate between untraced
        and traced, so that a drift in machine speed touches both alike.
        Returns the untraced and the traced passes and the index of the
        first span of each traced pass."""
        untraced, traced, pass_starts = [], [], []
        self.speed.sample()
        begin = time.perf_counter()
        while (time.perf_counter() - begin < seconds or not untraced
               or (tracer is not None and len(traced) < MIN_TRACED_PASSES)):
            self.speed.sample_if_due(WORK_PROBE_EVERY_S)
            if tracer is None or len(traced) == len(untraced):
                untraced.append(self._pass())
                continue
            pass_starts.append(len(tracer))
            tracer.install()
            try:
                traced.append(self._pass())
            finally:
                tracer.uninstall()
        self.speed.sample()
        for record in untraced + traced:
            record["scale"] = self.speed.scale(record["start"], record["end"])
        return untraced, traced, pass_starts

    def summary(self) -> dict:
        return {
            "events_per_pass": self.events_per_pass,
            "attempted": self.attempted,
            "failed": len(self.failures),
            "failures": self.failures[:10],
            "digests": {" ".join(argv): d for argv, d in self.digests.items()},
            "output_bytes_per_pass": sum(self.output_bytes.values()),
            "work_probe_s": self.speed.took,
        }


def layer_metrics(tracer, pass_starts, scales, events_per_pass: int) -> tuple[dict, dict]:
    """Per-layer metrics from the traced passes: per pass call counts, the
    median over passes of self and inclusive time, and self time per call,
    each pass's times scaled to the reference speed. Also returns, for the
    notes, each span's inclusive microseconds per call and its self and
    inclusive shares of the traced pass time."""
    import numpy as np
    from tracer import NAMES
    totals = tracer.per_pass(pass_starts)
    calls = totals["calls"]
    scale = np.asarray(scales)[:, None]
    self_s, incl_s = totals["self_s"] * scale, totals["incl_s"] * scale
    traced_wall = statistics.median(incl_s[:, NAMES.index("cli.main")])
    metrics, inclusive, shares = {}, {}, {}
    for k, name in enumerate(NAMES):
        n = int(calls[0, k])
        metrics[f"{name}.calls"] = n
        metrics[f"{name}.self_s"] = statistics.median(self_s[:, k])
        metrics[f"{name}.incl_s"] = statistics.median(incl_s[:, k])
        metrics[f"{name}.us_per_call"] = statistics.median(self_s[:, k] / n * 1e6) if n else 0.0
        if n:
            inclusive[name] = statistics.median(incl_s[:, k] / n * 1e6)
            shares[name] = {"self": metrics[f"{name}.self_s"] / traced_wall,
                            "inclusive": metrics[f"{name}.incl_s"] / traced_wall}
    spectrum_calls = metrics["operators.spectrum.calls"]
    metrics["operators.spectrum.cache_hit_ratio"] = (
        1.0 - metrics["operators.spectral.calls"] / spectrum_calls if spectrum_calls else 0.0)
    draws = metrics["model.draw_hidden.calls"] + totals["items"][0, NAMES.index("model.draw_hidden_batch")]
    metrics["model.draws_per_event"] = float(draws / events_per_pass)
    return metrics, {"calls_repeat_across_passes": bool((calls == calls[0]).all()),
                     "inclusive_us_per_call": inclusive, "share_of_traced_pass": shares}


def scaled_pass_s(passes) -> list:
    return [sum(p["call_s"]) * p["scale"] for p in passes]


def main(argv) -> int:
    mode, name, seed, seconds, trace_path = argv[1], argv[2], int(argv[3]), float(argv[4]), argv[5]
    import numpy
    from hvsim import cli
    workload = workloads.build(name, seed)
    runner = Runner(cli, workload)
    runner.warm_up(workload.warmup)
    print("ready", flush=True)
    if mode == "setup":
        return 0
    result = {"numpy": numpy.__version__}
    if mode == "measure":
        passes, _, _ = runner.run_for(seconds)
        result["call_s"] = [c * p["scale"] for p in passes for c in p["call_s"]]
        result["call_p50_ms_by_argv"] = {
            " ".join(call.argv): statistics.median(p["call_s"][i] * p["scale"] for p in passes) * 1e3
            for i, call in enumerate(workload.calls)}
    else:
        from tracer import Tracer
        tracer = Tracer()
        passes, traced, pass_starts = runner.run_for(seconds, tracer)
        layers, details = layer_metrics(tracer, pass_starts, [p["scale"] for p in traced],
                                        runner.events_per_pass)
        layers["cli.output_bytes"] = runner.summary()["output_bytes_per_pass"]
        layers["trace.overhead_ratio"] = (statistics.median(scaled_pass_s(traced))
                                          / statistics.median(scaled_pass_s(passes)))
        tracer.save(trace_path, pass_starts)
        result.update(traced_pass_s=scaled_pass_s(traced), layers=layers, spans=len(tracer),
                      **details)
    result["pass_s"] = scaled_pass_s(passes)
    result["raw_pass_s"] = [sum(p["call_s"]) for p in passes]
    result.update(runner.summary())
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
