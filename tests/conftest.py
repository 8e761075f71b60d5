"""Shared pytest hooks and tables: acceptance verdict lines and BLAS-kernel
notes are collected and echoed in the terminal summary, so a plain `pytest`
run shows one line per criterion and says which kernels the pins were
rerun under, or why not."""

import pytest

from hvsim import consistency, experiments, model

ACCEPTANCE_LINES = []
KERNEL_LINES = []

# Every subcommand, in the order the parser lists them, and those that offer
# --format csv: the ones whose runs stream events.
COMMANDS = ("table1", "born", "pm-square", "no-go", "weak-fc", "strong-fc", "implications",
            "chsh", "column-product")
CSV_COMMANDS = ("table1", "born", "weak-fc", "chsh", "column-product")

# Seeded sequential sweeps, pinned at seed 0.
SEEDED_SWEEPS = (
    ("weak-fc", ("weak-fc", "--trials", "5")),
    ("column-product", ("column-product", "--trials", "3")),
    ("chsh-sequential", ("chsh", "--sequential", "--trials", "20")),
)

# Single-shot statistics, pinned at seed 11.
SINGLE_SHOTS = (
    ("born", ("born", "--theta", "0.8", "--trials", "2000", "--seed", "11")),
    ("chsh", ("chsh", "--trials", "500", "--seed", "11")),
)

# Single-shot statistics over many tally blocks, pinned at seed 11 in json and
# text only (their CSV would run to megabytes).
MULTI_BLOCK_SHOTS = (
    ("born-300000", ("born", "--theta", "0.8", "--trials", "300000", "--seed", "11")),
    ("chsh-200000", ("chsh", "--trials", "200000", "--seed", "11")),
)

# Sequential sweeps over many sweep blocks, pinned at seed 0 in json and text
# only: chsh --sequential at its default trials reads 25 blocks per setting and
# weak-fc at 1000 trials 2 blocks, so run_sequence's caches serve later blocks.
MULTI_BLOCK_SWEEPS = (
    ("chsh-sequential-100000", ("chsh", "--sequential")),
    ("weak-fc-1000", ("weak-fc", "--trials", "1000")),
)

# Deterministic reports at their default arguments; their json pins live in
# perfbench/expected/, which the benchmark compares with too.
FROZEN_COMMANDS = tuple((command, (command,)) for command in
                        ("table1", "pm-square", "no-go", "strong-fc", "implications"))

# Deterministic reports at other arguments.
ARGUED_COMMANDS = (
    ("implications-c0.7", ("implications", "--c", "0.7")),
    ("strong-fc-c0.7", ("strong-fc", "--c", "0.7")),
)

# Every pinned report as (pin file relative to the repo root, argv): the one
# table that the byte-for-byte checks read, which are test_cli's pin test,
# test_blas_kernels' kernel reruns and CI's installed-script check. Every call
# above is pinned in json and in text, the sweeps and single shots in csv too,
# and so is table1's csv. test_cli checks that every file under tests/expected/
# and perfbench/expected/ has exactly one row here.
PINS = (
    *((f"perfbench/expected/{name}.json", (*argv, "--format", "json"))
      for name, argv in FROZEN_COMMANDS),
    ("tests/expected/table1.csv", ("table1", "--format", "csv")),
    *((f"tests/expected/{name}.{fmt}", (*argv, "--format", fmt))
      for name, argv in SEEDED_SWEEPS + SINGLE_SHOTS for fmt in ("csv", "json")),
    *((f"tests/expected/{name}.json", (*argv, "--format", "json"))
      for name, argv in MULTI_BLOCK_SHOTS + MULTI_BLOCK_SWEEPS + ARGUED_COMMANDS),
    *((f"tests/expected/{name}.txt", (*argv, "--format", "text"))
      for name, argv in FROZEN_COMMANDS + ARGUED_COMMANDS + SEEDED_SWEEPS + SINGLE_SHOTS
      + MULTI_BLOCK_SHOTS + MULTI_BLOCK_SWEEPS),
)

# Command lines that are usage errors, each refused by argparse or by the
# library's rule for a run argument, as (argv, flag): the one table that
# test_cli's usage-error test and CI's installed-script check read. Each must
# exit 2 with a usage message, before anything is written to stdout or --out.
# A row with a flag is refused by its subcommand, which names the flag; the
# rows without one are refused by the top-level parser.
USAGE_ERRORS = (
    ((), None),
    (("unknown-command",), None),
    (("born", "--seed", "-3"), "--seed"),
    (("born", "--trials", "0"), "--trials"),
    (("born", "--theta", "inf"), "--theta"),
    (("born", "--tolerance-sigma", "-1"), "--tolerance-sigma"),
    (("strong-fc", "--c", "0"), "--c"),
    (("strong-fc", "--c", "1"), "--c"),
    (("weak-fc", "--column", "4"), "--column"),
    (("column-product", "--axis", "diagonal"), "--axis"),
    (("chsh", "--no-such-flag"), None),
    (("born", "--tolerance-sigma", "nan"), "--tolerance-sigma"),
    (("born", "--tolerance-sigma", "inf"), "--tolerance-sigma"),
    (("born", "--trials", "0", "--format", "csv"), "--trials"),
    (("weak-fc", "--trials", "0", "--format", "csv"), "--trials"),
    (("column-product", "--seed", "-1", "--format", "csv"), "--seed"),
    (("chsh", "--sequential", "--trials", "0", "--format", "csv"), "--trials"),
    (("implications", "--c", "1"), "--c"),
    *(((command, "--format", "csv"), "--format")
      for command in COMMANDS if command not in CSV_COMMANDS),
)


def usage_error_prefixes(argv, flag):
    """(usage, error): how the first stderr line and the error line of a
    USAGE_ERRORS row begin, from the parser that refuses it."""
    prog = f"hvsim {argv[0]}" if flag else "hvsim"
    return f"usage: {prog} [-h] ", f"{prog}: error: " + (f"argument {flag}: " if flag else "")

# Parametrizes a test over PINS as (pin, argv), each case named by its pin file.
PINNED = pytest.mark.parametrize("pin, argv", PINS, ids=[pin for pin, _ in PINS])


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
