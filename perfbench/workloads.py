"""The benchmark's four workloads and the checks on their outputs.

A workload is a fixed list of `hvsim` argument vectors. The only input that
varies between runs is the `--seed` each randomized call receives, derived
from the benchmark seed. Trial counts are fixed so that every call of a
workload lasts about the same time, and the latency percentiles reflect
jitter rather than the subcommand mix. On a 2-vCPU x86 VM with numpy 2.4 and one
BLAS thread a call takes 25-60 ms as the host's speed drifts, which puts
300-600 calls in an 18 s run.

Every call is checked. Deterministic reports must match frozen bytes;
seeded random reports are checked by meaning, never by digest, so that a
declared change of the random-stream contract is not counted as a failure.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path
from typing import Callable, NamedTuple

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

# Trial counts per call (see the module docstring for how they were chosen).
WEAK_FC_TRIALS = 28
LINE_TRIALS = 32
CHSH_SEQUENTIAL_TRIALS = 70
BORN_TRIALS = 1_000_000
CHSH_TRIALS = 280_000
BORN_CSV_TRIALS = 11_000
CHSH_CSV_TRIALS = 2_000

BORN_THETAS = ("0.4", "0.8", "1.2")
# Born checks use a 6-sigma tolerance so that a statistical false alarm is
# about 2e-9 per call rather than 1e-6 at the CLI default of 5.
BORN_TOLERANCE_SIGMA = "6"
# S is checked against 2*sqrt(2) within this many standard errors; the
# standard error of S from n trials per setting is sqrt(2/n).
S_SIGMAS = 6.0
S_QUANTUM = 2.0 * math.sqrt(2.0)

CSV_HEADER = "trial,setting,c,value"


class Call(NamedTuple):
    """One CLI call: its argv, the measurement outcomes it decides (counted
    from its arguments, not from program counters) and its output check.
    The check returns None when the output is correct, else a reason."""

    argv: tuple[str, ...]
    events: int
    check: Callable[[str], str | None]


class Workload(NamedTuple):
    calls: tuple[Call, ...]
    warmup: tuple[tuple[str, ...], ...]  # each subcommand at its smallest arguments
    representative: int                  # index of the call timed as a fresh process
    probe_parts: tuple[str, ...]         # the kinds of work that dominate (calibrate.py)


# Per-event Python objects and numpy calls on 4-element arrays.
INTERPRETED = ("python_objects", "small_arrays")
# Passes over million-element arrays, plus the Python of parsing and reporting.
BATCH = ("python_objects", "large_arrays")


def _seeds(seed: int):
    rng = random.Random(seed)
    while True:
        yield str(rng.randrange(2**31))


def _check_sweep(trials: int, permutations: int = 6):
    """weak-fc and column-product: every case passes, case count from args."""
    def check(text):
        p = json.loads(text)
        cases = trials * permutations
        if p["trials"] != trials or p["permutation_count"] != permutations:
            return f"trials/permutations {p['trials']}/{p['permutation_count']}"
        if p["cases"] != cases or p["passes"] != cases:
            return f"cases {p['cases']} passes {p['passes']}, expected {cases}"
        if p["failures"] != 0 or p["all_passed"] is not True:
            return f"{p['failures']} failures"
        return None
    return check


def _check_chsh(trials: int, mode: str):
    def check(text):
        p = json.loads(text)
        if p["mode"] != mode or p["trials_per_setting"] != trials:
            return f"mode/trials {p['mode']}/{p['trials_per_setting']}"
        s = p["s_value"]
        sigma = math.sqrt(2.0 / trials)
        if not (s > 2.0 and abs(s - S_QUANTUM) <= S_SIGMAS * sigma):
            return f"S = {s} outside 2 < S, |S - 2sqrt2| <= {S_SIGMAS} * {sigma:.4g}"
        return None
    return check


def _check_born(trials: int):
    def check(text):
        p = json.loads(text)
        if p["trials"] != trials:
            return f"trials {p['trials']}"
        if not p["max_sigma_deviation"] <= p["tolerance_sigma"] or p["pass"] is not True:
            return f"max sigma deviation {p['max_sigma_deviation']}"
        if abs(sum(p["outcome_frequencies"].values()) - 1.0) > 1e-9:
            return "outcome frequencies do not sum to 1"
        return None
    return check


def _check_csv(rows: int):
    """Header, one row per decided outcome, c in (0, 1), values +-1 within
    the 1e-9 value tolerance hvsim uses (joint eigenvalues come out of the
    eigensolver as e.g. 0.9999999999999998)."""
    def check(text):
        lines = text.splitlines()
        if not lines or lines[0] != CSV_HEADER:
            return "missing csv header"
        if len(lines) - 1 != rows:
            return f"{len(lines) - 1} csv rows, expected {rows}"
        for line in lines[1:]:
            _, _, c, value = line.split(",")
            if not 0.0 < float(c) < 1.0 or abs(abs(float(value)) - 1.0) > 1e-9:
                return f"bad csv row {line!r}"
        return None
    return check


def _check_frozen(name: str):
    expected = (EXPECTED_DIR / f"{name}.json").read_text(encoding="utf-8")

    def check(text):
        return None if text == expected else f"{name} output differs from frozen bytes"
    return check


def _sequential(seed: int) -> Workload:
    seeds = _seeds(seed)
    calls = []
    for column in (1, 2, 3):
        calls.append(Call(
            ("weak-fc", "--column", str(column), "--trials", str(WEAK_FC_TRIALS),
             "--seed", next(seeds), "--format", "json"),
            18 * WEAK_FC_TRIALS, _check_sweep(WEAK_FC_TRIALS)))
    for axis in ("column", "row"):
        for index in (1, 2, 3):
            calls.append(Call(
                ("column-product", "--axis", axis, "--index", str(index),
                 "--trials", str(LINE_TRIALS), "--seed", next(seeds), "--format", "json"),
                18 * LINE_TRIALS, _check_sweep(LINE_TRIALS)))
    calls.append(Call(
        ("chsh", "--sequential", "--trials", str(CHSH_SEQUENTIAL_TRIALS),
         "--seed", next(seeds), "--format", "json"),
        8 * CHSH_SEQUENTIAL_TRIALS, _check_chsh(CHSH_SEQUENTIAL_TRIALS, "sequential")))
    warmup = (("weak-fc", "--trials", "1", "--format", "json"),
              ("column-product", "--trials", "1", "--format", "json"),
              ("chsh", "--sequential", "--trials", "1", "--format", "json"))
    return Workload(tuple(calls), warmup, representative=3, probe_parts=INTERPRETED)


def _batch_calls(seed: int, fmt: str, born_trials: int, chsh_trials: int,
                 check_born, check_chsh) -> tuple[Call, ...]:
    seeds = _seeds(seed)
    calls = [
        Call(("born", "--theta", theta, "--trials", str(born_trials),
              "--tolerance-sigma", BORN_TOLERANCE_SIGMA,
              "--seed", next(seeds), "--format", fmt),
             born_trials, check_born)
        for theta in BORN_THETAS
    ]
    calls += [
        Call(("chsh", "--trials", str(chsh_trials), "--seed", next(seeds), "--format", fmt),
             4 * chsh_trials, check_chsh)
        for _ in range(2)
    ]
    return tuple(calls)


def _single_shot(seed: int) -> Workload:
    calls = _batch_calls(seed, "json", BORN_TRIALS, CHSH_TRIALS,
                         _check_born(BORN_TRIALS), _check_chsh(CHSH_TRIALS, "product"))
    warmup = (("born", "--trials", "1", "--format", "json"),
              ("chsh", "--trials", "1", "--format", "json"))
    return Workload(calls, warmup, representative=3, probe_parts=BATCH)


def _csv_report(seed: int) -> Workload:
    calls = _batch_calls(seed, "csv", BORN_CSV_TRIALS, CHSH_CSV_TRIALS,
                         _check_csv(BORN_CSV_TRIALS), _check_csv(4 * CHSH_CSV_TRIALS))
    warmup = (("born", "--trials", "1", "--format", "csv"),
              ("chsh", "--trials", "1", "--format", "csv"))
    # Rows are built and written one at a time in Python.
    return Workload(calls, warmup, representative=3, probe_parts=INTERPRETED)


SMALL_COMMANDS = ("table1", "pm-square", "no-go", "strong-fc", "implications")


def _small_commands(seed: int) -> Workload:
    # No randomized inputs: the seed does not change these calls. Each call
    # counts as one event, since they decide no trial-driven outcomes.
    calls = tuple(Call((name, "--format", "json"), 1, _check_frozen(name))
                  for name in SMALL_COMMANDS)
    return Workload(calls, tuple(c.argv for c in calls), representative=0,
                    probe_parts=INTERPRETED)


WORKLOADS = {
    "sequential": _sequential,
    "single_shot": _single_shot,
    "csv_report": _csv_report,
    "small_commands": _small_commands,
}


def build(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed)
