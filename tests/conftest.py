"""Shared pytest hooks: collect acceptance verdict lines and echo them in the
terminal summary so a plain `pytest -v` run shows one line per criterion."""

ACCEPTANCE_LINES = []


def rows_of(events):
    """An Events record as (case, label, c, value) tuples, in the order and
    with the values of its CSV rows."""
    return list(zip(events.case.tolist(), [events.labels[s] for s in events.setting.tolist()],
                    events.c.tolist(), events.value.tolist()))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
