"""Command line front end. Every subcommand runs one library scenario and
emits its report as text or JSON, or as CSV if its scenario streams events;
the exit code states the verdict.

A CSV report is streamed: its rows are written block by block as the driver
hands each block of events to the sink, never held whole. With `--out PATH`
naming a regular file or none, it is written to a file next to PATH that
replaces PATH only once the run succeeds. A PATH naming an open descriptor
(/dev/fd/N, /dev/stdout, /dev/stderr) or the file stdout or stderr writes
to is written through a copy of that descriptor.

Exit codes: 0 when the scenario's claim holds (for strong-fc that means the
inconsistency witness appeared, which is the expected behavior), 1 when a
check fails or a library error surfaces, 2 for usage errors. A run argument
the library refuses (InvalidArgumentError) is one, reported as argparse reports
its own refusals: under the subcommand's usage line, naming the flag, with the
library's message. Each such rule fires before the first block of events, so
PATH stays unopened.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys

from .consistency import check_strong_fc, no_go_search, verify_proposition
from .errors import HvsimError, InvalidArgumentError
from .experiments import (
    _WEAK_FC_TAG,
    born_experiment,
    chsh_experiment,
    column_product_experiment,
    implications_demo,
    replay_table1,
    spin_state,
)
from .expressions import peres_mermin
from .model import CSV_HEADER, HiddenState
from .operators import amplitude_pairs, basis_ket, pauli


@functools.cache  # parse_args leaves the parser as it was, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hvsim",
        description="Deterministic hidden-variable simulator for"
                    " finite-dimensional quantum measurements.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    # main calls run(args, sink). Every runner returns (payload, passed, text):
    # payload and text build the JSON payload and the text report when called,
    # and main calls only the one its --format writes. Only a command whose
    # runner streams its events to sink (None unless --format csv) offers csv.
    # A command given a default trial count also takes a seed.
    def add_command(name: str, help_text: str, run, csv=False,
                    trials=None) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text, description=help_text)
        p.set_defaults(run=run, parser=p)  # main reports a refused run argument through p
        formats = ("text", "json", "csv") if csv else ("text", "json")
        p.add_argument("--format", choices=formats, default="text",
                       help="output format (default: text)")
        p.add_argument("--out", metavar="PATH",
                       help="write the report to PATH instead of stdout")
        if trials is not None:
            p.add_argument("--seed", type=int, default=0, help="root RNG seed (default: 0)")
            p.add_argument("--trials", type=int, default=trials,
                           help=f"number of trials (default: {trials})")
        return p

    add_command("table1", "replay the scripted three-iteration reference run", _run_table1,
                csv=True)

    born = add_command("born", "compare outcome frequencies against Born weights", _run_born,
                       csv=True, trials=100_000)
    born.add_argument("--theta", type=float, default=math.pi / 3,
                      help="spin rotation angle in radians for the"
                           " cos(theta)|0>+sin(theta)|1> state (default: pi/3)")
    born.add_argument("--tolerance-sigma", type=float, default=5.0,
                      help="per-branch sigma tolerance (default: 5)")

    add_command("pm-square", "build the observable square and verify its identities",
                _run_pm_square)
    add_command("no-go", "enumerate global +-1 assignments against the square", _run_no_go)

    weak = add_command("weak-fc", "sequential-measurement consistency sweep on one line",
                       _run_weak_fc, csv=True, trials=1000)
    weak.add_argument("--column", type=int, choices=(1, 2, 3), default=3,
                      help="which column of the square to sweep (default: 3)")

    strong = add_command("strong-fc", "single-state functional consistency probe",
                         _run_strong_fc)
    strong.add_argument("--c", type=float, default=0.4,
                        help="hidden scalar to probe at (default: 0.4)")

    impl = add_command("implications",
                       "deduction-vs-direct comparison on the diagonal triple",
                       _run_implications)
    impl.add_argument("--c", type=float, default=0.4,
                      help="hidden scalar for the initial state (default: 0.4)")

    chsh = add_command("chsh", "estimate the four-setting correlation statistic S", _run_chsh,
                       csv=True, trials=100_000)
    chsh.add_argument("--sequential", action="store_true",
                      help="measure the two sides one after the other"
                           " (slow cross-check) instead of the joint product")

    line = add_command("column-product",
                       "sequential product sweep along one line of the square",
                       _run_column_product, csv=True, trials=200)
    line.add_argument("--index", type=int, choices=(1, 2, 3), default=3,
                      help="which line to measure (default: 3)")
    line.add_argument("--axis", choices=("column", "row"), default="column",
                      help="line orientation (default: column)")

    return parser


def _ket_string(state) -> str:
    amps = state.amplitudes
    dim = amps.size
    bits = dim.bit_length() - 1
    binary = 2 ** bits == dim and dim > 1
    terms = []
    for i, z in enumerate(amps):
        if abs(z) <= 1e-9:
            continue
        name = format(i, f"0{bits}b") if binary else str(i)
        if abs(z.imag) <= 1e-9:
            coeff = f"{z.real:+.4f}"
        else:
            coeff = f"({z.real:.4f}{z.imag:+.4f}j)"
        terms.append(f"{coeff}|{name}>")
    return " ".join(terms) if terms else "0"


def _sign(v) -> str:
    return f"{int(round(v)):+d}"


def _verdict(passed: bool, note: str = "") -> str:
    word = "PASS" if passed else "FAIL"
    return f"result: {word}{f' ({note})' if note else ''}\n"


def _run_table1(args, sink):
    report = replay_table1()
    if sink is not None:
        sink(report.events)

    def text():
        lines = ["reference replay: 3 iterations, every entry matches the frozen run", ""]
        labels = [[op.label for op in row] for row in peres_mermin().grid]
        for it in report.iterations:
            record = it.record
            lines.append(f"iteration {it.index}: c={record.c_used:g},"
                         f" state {_ket_string(record.pre_state)}")
            for r in range(3):
                cells = "  ".join(f"{labels[r][c]}={_sign(it.grid[r][c])}" for c in range(3))
                lines.append(f"  {cells}")
            rows = " ".join(f"R{i + 1}={_sign(v)}" for i, v in enumerate(it.row_values))
            cols = " ".join(f"C{j + 1}={_sign(v)}" for j, v in enumerate(it.col_values))
            lines.append(f"  row products: {rows}   column products: {cols}")
            lines.append(f"  measured {record.observable_label} -> {_sign(record.value)},"
                         f" state after collapse: {_ket_string(record.post_state)}")
            lines.append("")
        return "\n".join(lines) + _verdict(True)
    return report.as_dict, True, text


@functools.cache  # operators are immutable, so one Z and its decomposition serve every call
def _born_observable():
    return pauli("z")


def _run_born(args, sink):
    state = spin_state(args.theta)
    report = born_experiment(state, _born_observable(), args.trials, args.seed,
                             args.tolerance_sigma, sink)

    def text():
        lines = [
            f"born statistics for {report.observable_label} on"
            f" cos(theta)|0>+sin(theta)|1>, theta={args.theta:g}",
            f"seed={args.seed} trials={report.trials}",
            f"{'outcome':>8} {'expected':>12} {'observed':>12}",
        ]
        for value in sorted(report.expected_probabilities):
            lines.append(f"{value:>8g} {report.expected(value):>12.6f}"
                         f" {report.frequency(value):>12.6f}")
        lines.append(f"max sigma deviation: {report.max_sigma_deviation:.3f}"
                     f" (tolerance {report.tolerance_sigma:g})")
        return "\n".join(lines) + "\n" + _verdict(report.passed)
    return lambda: {"seed": args.seed, "theta": args.theta, **report.as_dict()}, report.passed, text


def _run_pm_square(args, sink):
    square = peres_mermin()
    max_comm = max(f.max_commutator_norm for f in square.lines)
    max_identity_gap = square.identity_deviation

    def payload():
        return {
            "grid": [[op.label for op in row] for row in square.grid],
            "row_values": list(square.row_values),
            "col_values": list(square.col_values),
            "max_line_commutator_norm": max_comm,
            "max_identity_deviation": max_identity_gap,
        }

    def text():
        lines = ["two-qubit observable square"]
        for row in square.grid:
            lines.append("  " + " ".join(op.label for op in row))
        lines.append("row products: " + " ".join(_sign(v) for v in square.row_values))
        lines.append("column products: " + " ".join(_sign(v) for v in square.col_values))
        lines.append(f"max commutator norm within a line: {max_comm:.3e}")
        lines.append(f"max deviation of a line product from its scalar: {max_identity_gap:.3e}")
        return "\n".join(lines) + "\n" + _verdict(True)
    return payload, True, text


def _run_no_go(args, sink):
    result = no_go_search(peres_mermin())
    passed = result.satisfying_assignments == 0

    def text():
        lines = [
            "global +-1 assignment census over the square",
            f"assignments tested: {result.total_assignments}",
            f"satisfying all six line constraints: {result.satisfying_assignments}",
            f"meeting all row constraints (even parity): {result.parity_even_count}",
            f"meeting all column constraints (odd parity): {result.parity_odd_count}",
        ]
        return "\n".join(lines) + "\n" + _verdict(passed, "no global assignment exists")
    return result.as_dict, passed, text


def _run_weak_fc(args, sink):
    f = peres_mermin().column_expression(args.column)
    state = basis_ket(4, 0)
    summary = verify_proposition(f, state, args.trials, (args.seed, _WEAK_FC_TAG), sink=sink)

    def text():
        lines = [
            "weak functional consistency sweep",
            f"expression: {summary.expression} from state {_ket_string(state)}",
            f"seed={args.seed} trials={summary.trials}"
            f" permutations={summary.permutation_count}",
            f"cases: {summary.cases}   passes: {summary.passes}"
            f"   failures: {summary.failures}",
        ]
        return "\n".join(lines) + "\n" + _verdict(summary.all_passed)
    return (lambda: {"seed": args.seed, "column": args.column,
                     "initial_state": amplitude_pairs(state.amplitudes),
                     **summary.as_dict()}), summary.all_passed, text


def _run_strong_fc(args, sink):
    f = peres_mermin().column_expression(3)
    hidden = HiddenState(basis_ket(4, 0), args.c)
    report = check_strong_fc(f, hidden)
    witnessed = not report.holds

    def text():
        leaf_values = report.details["leaf_values"]
        lines = [
            "strong functional consistency probe",
            f"expression: {report.scenario_label} on {_ket_string(hidden.state)}"
            f" with c={args.c:g}",
            "per-leaf predictions: " + " ".join(
                f"{k}={_sign(v)}" for k, v in leaf_values.items()),
            f"predict(expression operator) = {_sign(report.lhs_value)}",
            f"expression of per-leaf predictions = {_sign(report.rhs_value)}",
            f"holds: {'yes' if report.holds else 'no'}",
        ]
        return "\n".join(lines) + "\n" + _verdict(witnessed, "inconsistency witnessed")
    return report.as_dict, witnessed, text


def _run_implications(args, sink):
    report = implications_demo(args.c)
    passed = report.post_collapse_consistent and report.non_fc_witnessed

    def text():
        mismatches = " ".join(
            f"{k}={'yes' if v else 'no'}" for k, v in report.mismatch.items())
        lines = [
            "deduction vs direct prediction on the diagonal triple",
            f"state: {_ket_string(report.initial_state)}, c={report.c:g}",
            "direct predictions: " + " ".join(
                f"{k}={v:g}" for k, v in report.direct.items()),
            f"collapse on C={report.direct['C']:g} leaves"
            f" {_ket_string(report.post_state)}",
            "deduced from the C outcome: " + " ".join(
                f"{k}={v:g}" for k, v in report.deduced.items()),
            f"mismatch with direct: {mismatches}",
            f"post-collapse predictions match the deduced values for all"
            f" {report.sampled_c_count} sampled scalars:"
            f" {'yes' if report.post_collapse_consistent else 'no'}",
        ]
        return "\n".join(lines) + "\n" + _verdict(passed)
    return report.as_dict, passed, text


def _run_chsh(args, sink):
    mode = "sequential" if args.sequential else "product"
    report = chsh_experiment(args.trials, args.seed, mode, sink)

    def text():
        target = 2.0 * math.sqrt(2.0)
        lines = [
            f"four-setting correlation statistic ({report.mode} mode)",
            f"seed={args.seed} trials per setting={report.trials_per_setting}",
            "correlators: " + " ".join(
                f"E[{k}]={v:+.6f}" for k, v in report.correlators.items()),
            f"S = {report.s_value:.6f}   classical bound 2   quantum value"
            f" 2*sqrt(2) = {target:.6f}",
        ]
        return "\n".join(lines) + "\n" + _verdict(report.exceeds_classical,
                                                  "classical bound exceeded")
    return lambda: {"seed": args.seed, **report.as_dict()}, report.exceeds_classical, text


def _run_column_product(args, sink):
    report = column_product_experiment(index=args.index, trials=args.trials,
                                       seed=args.seed, axis=args.axis, sink=sink)

    def text():
        lines = [
            f"sequential product sweep on {report.axis} {report.index}",
            f"seed={args.seed} trials={report.trials}"
            f" permutations={report.permutation_count}",
            f"forced product value: {_sign(report.forced_value)}",
            f"cases: {report.cases}   passes: {report.passes}"
            f"   failures: {report.failures}",
        ]
        return "\n".join(lines) + "\n" + _verdict(report.all_passed)
    return lambda: {"seed": args.seed, **report.as_dict()}, report.all_passed, text


def _csv_sink(write):
    """A sink that writes each block's CSV rows with `write`, the header
    before the first block's, so a run that fails before its first block
    writes nothing."""
    header = CSV_HEADER

    def sink(events):
        nonlocal header
        if header:
            write(header)
            header = ""
        for rows in events.csv_rows():
            write(rows)
    return sink


def _descriptor(path):
    """The open descriptor `path` names, or None. That is N for /dev/fd/N or
    /proc/self/fd/N, itself or through symlinks (/dev/stdin); otherwise it is
    stdout's or stderr's descriptor, stdout first, if `path` is the file that
    stream writes to (a file the shell redirected it to). Opening such a path
    by name would truncate, and staging would replace, the file the caller
    opened the descriptor on and still writes to."""
    fd_directories = {os.path.realpath(d) for d in ("/dev/fd", "/proc/self/fd")}
    link = path
    for _ in range(40):  # as many symlinks as Linux follows in one path
        head, tail = os.path.split(os.path.abspath(link))
        if tail.isdigit() and os.path.realpath(head) in fd_directories:
            return int(tail)
        if not os.path.islink(link):
            break
        link = os.path.join(head, os.readlink(link))
    for stream in (sys.stdout, sys.stderr):
        with contextlib.suppress(OSError, ValueError):  # no such file, or no descriptor
            if os.path.samestat(os.stat(path), os.fstat(stream.fileno())):
                return stream.fileno()
    return None


class _Output:
    """Where a report goes, through one handle: stdout, or PATH opened at the
    first write, so a run that fails before writing leaves PATH alone. A PATH
    naming an open descriptor, stdout's or stderr's file included, is written
    through a copy of that descriptor, at its offset and in its mode. A CSV
    report bound for a regular file, or for a new one, is staged in a file
    next to it that takes the file's mode and replaces it only once the run
    succeeds, so a run that fails mid-stream leaves PATH as it was. Any other
    PATH (the null device, a FIFO, a terminal) is written directly, as is a
    json or text report, which is written whole after the run."""

    def __init__(self, path, stage):
        self.path, self.stage, self.staged = path, stage, None
        self.handle = sys.stdout if path is None else None

    def write(self, text: str) -> None:
        """Write and flush `text`. Once the reader has gone, the rest of the
        report goes to the null device; the exit code still states the verdict."""
        if self.handle is None:
            self._open()
        try:
            self.handle.write(text)
            self.handle.flush()
        except BrokenPipeError:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, self.handle.fileno())

    def _open(self) -> None:
        fd = _descriptor(self.path)
        if fd is not None:
            sys.stdout.flush()  # what this process wrote to stdout goes first
            self.handle = os.fdopen(os.dup(fd), "w", encoding="utf-8")
            return
        target = os.path.realpath(self.path)  # through symlinks, as open() would write
        exists = os.path.exists(self.path)
        if not self.stage or exists and not os.path.isfile(target):
            self.handle = open(self.path, "w", encoding="utf-8")
            return
        if exists:
            open(target, "a").close()  # refused wherever writing PATH itself would be
        staged = f"{target}.{os.getpid()}.tmp"
        self.handle = open(staged, "x", encoding="utf-8")
        self.staged, self.target = staged, target
        if exists:
            os.chmod(staged, os.stat(target).st_mode & 0o7777)

    def commit(self) -> None:
        """Close PATH, moving a staged report into place."""
        if self.path is not None and self.handle is not None:
            self.handle.close()
        if self.staged is not None:
            os.replace(self.staged, self.target)
            self.staged = None

    def discard(self) -> None:
        """Close PATH and remove a staged report that was not committed."""
        if self.path is not None and self.handle is not None:
            with contextlib.suppress(OSError):  # a failed flush, not to be retried
                self.handle.close()
        if self.staged is not None:
            os.unlink(self.staged)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = _Output(args.out, stage=args.format == "csv")
    try:
        try:
            sink = _csv_sink(out.write) if args.format == "csv" else None
            payload, passed, text = args.run(args, sink)
            if args.format == "json":
                out.write(json.dumps(payload(), indent=2, sort_keys=True) + "\n")
            elif args.format == "text":
                out.write(text())
        except InvalidArgumentError as exc:
            args.parser.error(f"argument --{exc.argument.replace('_', '-')}: {exc}")
        except HvsimError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        out.commit()
    except OSError as exc:
        if out.path is None:
            raise
        print(f"error: cannot write {args.out}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    finally:
        out.discard()
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
