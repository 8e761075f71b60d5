"""hvsim benchmark driver.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: hvsim is imported from ./src, so
there is nothing to build. The workloads are defined in workloads.py and
the metrics in BENCHMARK.json; NOTES.md says why.

With --trace 0 the driver measures set-up time over several fresh workers,
then lets one worker call `hvsim.cli.main` in-process for S seconds, then
times a representative call as a fresh `python -m hvsim` process. With
--trace 1 one worker runs the workload for S seconds, tracing every other
pass, and reports per-layer metrics. Only one process runs at a
time, with BLAS pinned to one thread.

Every time is scaled to the reference speeds of calibrate.py, which removes
most of the drift in speed of a shared host. Every call's output is checked. The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics; the line before it
holds the environment and the raw figures, which are also written, with the
spans of a traced run, under .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads
from calibrate import STARTUP_PROBES_PER_SCALE, STARTUP_REF_S, SpeedTrack, startup_probe

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKER = Path(__file__).resolve().parent / "worker.py"
OUT = ROOT / ".perfbench"

SETUP_WORKERS = 4          # set-up only workers; the measuring worker adds a fifth sample
FRESH_CALLS = 7
WORKER_TIMEOUT_S = 120
FRESH_TIMEOUT_S = 30
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ, **PINNED_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_worker(mode: str, workload: str, seed: int, seconds: float,
               trace_path: Path = OUT / "trace.npz") -> tuple[float, float, dict | None]:
    """Start one worker and wait for it. Returns the clock at spawn, the
    seconds until it reported ready, and its result (None in set-up mode)."""
    cmd = [sys.executable, str(WORKER), mode, workload, str(seed), str(seconds), str(trace_path)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        ready_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        rc = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if first.strip() != "ready" or rc != 0:
        raise BenchError(f"worker {mode} {workload} exited with {rc}")
    lines = rest.strip().splitlines()
    return t0, ready_s, (json.loads(lines[-1]) if mode != "setup" else None)


def fresh_call(argv) -> tuple[float, float, int, str]:
    """Clock at start, wall time, exit code and stdout digest of
    `python -m hvsim ARGV`."""
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "hvsim", *argv], cwd=ROOT, env=child_env(),
                          stdin=subprocess.DEVNULL, capture_output=True,
                          timeout=FRESH_TIMEOUT_S)
    return (t0, time.perf_counter() - t0, done.returncode,
            hashlib.sha256(done.stdout).hexdigest())


def percentile(ordered, q: float) -> float:
    """Linear interpolation between the order statistics of sorted samples."""
    pos = q / 100 * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "hvsim").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return done.stdout.strip() or None


def environment(seed: int, numpy_version: str) -> dict:
    return {
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "blas_threads": PINNED_THREADS,
        "seed": seed,
        "argv": {name: [list(c.argv) for c in workloads.build(name, seed).calls]
                 for name in workloads.WORKLOADS},
    }


def untraced(name: str, seed: int, seconds: float) -> tuple[dict, dict, int, int]:
    workload = workloads.build(name, seed)
    env = child_env()
    speed = SpeedTrack(lambda: startup_probe(env), STARTUP_REF_S, STARTUP_PROBES_PER_SCALE)
    spawns = []
    for _ in range(SETUP_WORKERS):
        speed.sample()
        spawns.append(run_worker("setup", name, seed, seconds)[:2])
    speed.sample()
    t0, ready_s, result = run_worker("measure", name, seed, seconds)
    spawns.append((t0, ready_s))

    argv = workload.calls[workload.representative].argv
    expected = result["digests"][" ".join(argv)]
    fresh, fresh_failures = [], []
    for _ in range(FRESH_CALLS):
        speed.sample()
        t0, elapsed, rc, digest = fresh_call(argv)
        fresh.append((t0, elapsed))
        if rc != 0 or digest != expected:
            differ = ", bytes differ from the in-process call" if digest != expected else ""
            fresh_failures.append((" ".join(argv), f"fresh process: exit {rc}{differ}"))
    speed.sample()

    def scaled(samples):
        return [s * speed.scale(t, t + s) for t, s in samples]

    call_s = sorted(result.pop("call_s"))
    wall_s = statistics.median(result["pass_s"])
    metrics = {
        "setup_s": statistics.median(scaled(spawns)),
        "wall_s": wall_s,
        "events_per_s": result["events_per_pass"] / wall_s,
        "call_p50_ms": statistics.median(call_s) * 1e3,
        "fresh_call_s": statistics.median(scaled(fresh)),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    attempted = result["attempted"] + FRESH_CALLS
    failed = result["failed"] + len(fresh_failures)
    result.update(setup_samples_s=scaled(spawns), raw_setup_samples_s=[s for _, s in spawns],
                  fresh_call_samples_s=scaled(fresh), raw_fresh_call_samples_s=[s for _, s in fresh],
                  startup_probe_s=speed.took, fresh_argv=list(argv), calls_sampled=len(call_s),
                  failures=result["failures"] + fresh_failures,
                  call_percentiles_ms={q: percentile(call_s, q) * 1e3
                                       for q in (50, 75, 90, 95, 99)},
                  error_rate=failed / attempted)
    return metrics, result, attempted, failed


def traced(name: str, seed: int, seconds: float) -> tuple[dict, dict, int, int]:
    trace_path = OUT / f"trace-{name}.npz"
    _, _, result = run_worker("trace", name, seed, seconds, trace_path)
    result["trace_file"] = str(trace_path.relative_to(ROOT))
    result["error_rate"] = result["failed"] / result["attempted"]
    return result.pop("layers"), result, result["attempted"], result["failed"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "hvsim" / "__init__.py").is_file():
        print(f"error: no hvsim sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    OUT.mkdir(exist_ok=True)

    measure = traced if args.trace else untraced
    values, details, attempted, failed = measure(args.workload, args.seed, args.seconds)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    details = {"workload": args.workload, "trace": args.trace,
               "environment": environment(args.seed, details.pop("numpy")), **details}
    record = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"details": details, "result": record}, indent=1), encoding="utf-8")
    print(json.dumps(details))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
