"""Shared pytest hooks and tables: acceptance verdict lines and BLAS-kernel
notes are collected and echoed in the terminal summary, so a plain `pytest`
run shows one line per criterion and says which kernels the pins were
rerun under, or why not."""

import pytest

from hvsim import consistency, experiments, model

ACCEPTANCE_LINES = []
KERNEL_LINES = []

# Seeded sequential sweeps pinned at seed 0 as tests/expected/<name>.{csv,json}.
SEEDED_SWEEPS = (
    ("weak-fc", ("weak-fc", "--trials", "5")),
    ("column-product", ("column-product", "--trials", "3")),
    ("chsh-sequential", ("chsh", "--sequential", "--trials", "20")),
)

# Single-shot statistics pinned at seed 11 as tests/expected/<name>.{csv,json}.
SINGLE_SHOTS = (
    ("born", ("born", "--theta", "0.8", "--trials", "2000", "--seed", "11")),
    ("chsh", ("chsh", "--trials", "500", "--seed", "11")),
)

# Single-shot statistics over many tally blocks, pinned at seed 11 as
# tests/expected/<name>.json only (their CSV would run to megabytes).
MULTI_BLOCK_SHOTS = (
    ("born-300000", ("born", "--theta", "0.8", "--trials", "300000", "--seed", "11")),
    ("chsh-200000", ("chsh", "--trials", "200000", "--seed", "11")),
)

# Deterministic reports pinned as perfbench/expected/<command>.json.
FROZEN_COMMANDS = ("table1", "pm-square", "no-go", "strong-fc", "implications")


class Blocks(list):
    """A sink that keeps every block of events a driver hands it, in order."""

    def __call__(self, events):
        self.append(events)

    @property
    def labels(self):
        """The labels every block carries; blocks of one run share them."""
        (labels,) = {events.labels for events in self}
        return labels


def rows_of(blocks):
    """Blocks of events as (case, label, c, value) tuples, in the order and
    with the values of their CSV rows."""
    return [row for events in blocks
            for row in zip(events.case.tolist(),
                           [events.labels[s] for s in events.setting.tolist()],
                           events.c.tolist(), events.value.tolist())]


def refuse_events(monkeypatch):
    """Make the drivers fail the test if they build a block of events, as
    none should when no sink takes them."""
    def refuse(*_):
        pytest.fail("a driver built events with no sink to take them")
    for module in (model, experiments, consistency):
        monkeypatch.setattr(module, "Events", refuse)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
    if KERNEL_LINES:
        terminalreporter.section("BLAS kernels")
        for line in KERNEL_LINES:
            terminalreporter.write_line(line)
