"""Exit codes and output contracts of the command line front end."""

import dataclasses
import json
import os
import re
import stat
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import hvsim
from conftest import (COMMANDS, CSV_COMMANDS, PINNED, PINS, SEEDED_SWEEPS, SINGLE_SHOTS,
                      USAGE_ERRORS, usage_error_prefixes)
from hvsim import cli, consistency, experiments, model, operators
from hvsim.cli import build_parser, main
from hvsim.errors import HiddenDrawError
from hvsim.expressions import Leaf, Scale, peres_mermin

ROOT = Path(__file__).resolve().parents[1]
EXPECTED_DIR = ROOT / "perfbench" / "expected"
SEEDED_DIR = ROOT / "tests" / "expected"
SINGLE_SHOT_CALLS = pytest.mark.parametrize(
    "name, argv", [(name, list(argv)) for name, argv in SINGLE_SHOTS])


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerdictExitCodes:
    def test_table1(self, capsys):
        code, out, err = run(capsys, "table1")
        assert code == 0
        assert "iteration 3" in out
        assert "result: PASS" in out
        assert err == ""

    def test_born(self, capsys):
        code, out, _ = run(capsys, "born", "--trials", "2000")
        assert code == 0
        assert "max sigma deviation" in out

    def test_born_fails_with_tiny_tolerance(self, capsys):
        code, out, _ = run(capsys, "born", "--trials", "2000",
                           "--tolerance-sigma", "0.001")
        assert code == 1
        assert "result: FAIL" in out

    def test_pm_square(self, capsys):
        code, out, _ = run(capsys, "pm-square")
        assert code == 0
        assert "row products: +1 +1 +1" in out
        assert "column products: +1 +1 -1" in out

    def test_no_go(self, capsys):
        code, out, _ = run(capsys, "no-go")
        assert code == 0
        assert "assignments tested: 512" in out
        assert "satisfying all six line constraints: 0" in out

    def test_weak_fc(self, capsys):
        code, out, _ = run(capsys, "weak-fc", "--trials", "5")
        assert code == 0
        assert "cases: 30   passes: 30   failures: 0" in out

    def test_strong_fc_reports_the_witness(self, capsys):
        # Exit 0 means the expected inconsistency appeared.
        code, out, _ = run(capsys, "strong-fc")
        assert code == 0
        assert "holds: no" in out
        assert "inconsistency witnessed" in out

    def test_implications(self, capsys):
        code, out, _ = run(capsys, "implications")
        assert code == 0
        assert "deduced from the C outcome" in out

    def test_chsh(self, capsys):
        code, out, _ = run(capsys, "chsh", "--trials", "2000")
        assert code == 0
        assert "classical bound exceeded" in out

    def test_column_product(self, capsys):
        code, out, _ = run(capsys, "column-product", "--trials", "5")
        assert code == 0
        assert "forced product value: -1" in out


class TestJsonOutput:
    def test_sorted_and_reproducible(self, capsys):
        code, first, _ = run(capsys, "chsh", "--trials", "500",
                             "--format", "json")
        assert code == 0
        code, second, _ = run(capsys, "chsh", "--trials", "500",
                              "--format", "json")
        assert code == 0
        assert first == second
        assert first.endswith("\n")
        payload = json.loads(first)
        assert list(payload) == sorted(payload)
        assert payload["exceeds_classical"] is True

    def test_born_payload_fields(self, capsys):
        _, out, _ = run(capsys, "born", "--trials", "1000", "--seed", "4",
                        "--format", "json")
        payload = json.loads(out)
        assert payload["seed"] == 4
        assert payload["trials"] == 1000
        assert set(payload["expected_probabilities"]) == {"-1", "1"}

    def test_no_go_payload(self, capsys):
        _, out, _ = run(capsys, "no-go", "--format", "json")
        payload = json.loads(out)
        assert payload == {
            "total_assignments": 512,
            "satisfying_assignments": 0,
            "parity_odd_count": 64,
            "parity_even_count": 64,
        }


@PINNED
def test_report_matches_its_pin(capsys, pin, argv):
    # Every pinned report byte for byte, in json, csv or text: per-event hidden
    # scalars and readings included.
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == (ROOT / pin).read_text(encoding="utf-8")


def test_every_pin_file_has_one_row():
    pins = [pin for pin, _ in PINS]
    files = {path.relative_to(ROOT).as_posix() for path in
             [*SEEDED_DIR.iterdir(), *EXPECTED_DIR.iterdir()]}
    assert len(set(pins)) == len(pins), "a pin file has two rows in PINS"
    assert files - set(pins) == set(), "pin files with no row in PINS"
    assert set(pins) - files == set(), "rows of PINS whose file is missing"


def test_product_chsh_pins_replay_on_the_scalar_path():
    # Each pinned trial replayed alone from its key through scalar predict:
    # the values must be the CSV pin's value column, and their means the
    # JSON pin's correlators.
    pinned = json.loads((SEEDED_DIR / "chsh.json").read_text(encoding="utf-8"))
    seed, trials = pinned["seed"], pinned["trials_per_setting"]
    rows = (SEEDED_DIR / "chsh.csv").read_text(encoding="utf-8").splitlines()[1:]
    state = experiments.bell_state()
    s_value = 0.0
    for k, (key, _, _, sign, joint, _) in enumerate(experiments._chsh_settings()):
        values = []
        for t in range(trials):
            (c,) = model.case_slot((seed, experiments._CHSH_PRODUCT_TAG, k, t), 1)
            values.append(model.predict(joint, model.HiddenState(state, c)))
            assert rows[k * trials + t] == f"{t},{key},{float(c)!r},{values[-1]!r}"
        assert sum(values) / trials == pinned["correlators"][key]
        s_value += sign * pinned["correlators"][key]
    assert s_value == pinned["s_value"]


def pin(name, fmt):
    """The pinned report `name`.`fmt`, from tests/expected or perfbench/expected."""
    path = SEEDED_DIR / f"{name}.{fmt}"
    return (path if path.exists() else EXPECTED_DIR / path.name).read_text(encoding="utf-8")


def weak_fc_pin(fmt):
    """The pinned bytes of `weak-fc --trials 5 --format fmt`."""
    return (SEEDED_DIR / f"weak-fc.{'txt' if fmt == 'text' else fmt}").read_bytes()


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name, argv", [(name, list(argv)) for name, argv in SEEDED_SWEEPS]
                         + [("table1", ["table1"])])
def test_seeded_reports_do_not_depend_on_block_size(capsys, monkeypatch, name, argv, fmt):
    # Each case reads a fixed slot of its stream, so running the sweeps in
    # blocks of 7 cases, and rendering their rows 7 at a time, changes no byte.
    monkeypatch.setattr(model, "TALLY_BLOCK", 7)
    monkeypatch.setattr(model, "SWEEP_BLOCK", 7)
    code, out, _ = run(capsys, *argv, "--format", fmt)
    assert code == 0
    assert out == pin(name, fmt)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@SINGLE_SHOT_CALLS
def test_single_shot_reports_do_not_depend_on_tally_block(capsys, monkeypatch, name, argv, fmt):
    # Trial t is draw t of its stream whatever the block, and integer counts
    # sum exactly, so tallying in blocks of 7 draws and rendering their rows
    # 7 at a time changes no byte.
    monkeypatch.setattr(model, "TALLY_BLOCK", 7)
    monkeypatch.setattr(model, "SWEEP_BLOCK", 7)
    code, out, _ = run(capsys, *argv, "--format", fmt)
    assert code == 0
    assert out == pin(name, fmt)


def test_stuck_uniform_source_exits_one(capsys, monkeypatch):
    # A source stuck at zero still fills every slot, with 2**-54 each; every
    # trial then reads the lowest branch, so the Born check fails.
    class Zeros:
        def random(self, size=None):
            return 0.0 if size is None else np.zeros(size)

    monkeypatch.setattr(experiments, "substream", lambda *path: Zeros())
    code, out, err = run(capsys, "born", "--trials", "200", "--format", "csv")
    assert (code, err) == (1, "")
    rows = out.splitlines()[1:]
    assert len(rows) == 200
    assert {row.split(",")[2] for row in rows} == {"5.551115123125783e-17"}
    assert float("5.551115123125783e-17") == 2.0**-54


def test_library_error_in_a_runner_exits_one(capsys, monkeypatch):
    monkeypatch.setattr(experiments, "_REFERENCE_ROW_VALUES", (1, 1, -1))
    code, out, err = run(capsys, "table1", "--format", "csv")
    assert (code, out) == (1, "")
    assert err == "error: iteration 1, row product 3: read 1.0, reference -1\n"


def _tamper(monkeypatch, iteration, field, value):
    """Make `field` of the table1 reference's iteration `iteration` (from 1)
    hold `value`. The fields are c, initial amplitudes, grid, measured cell,
    measured value and final amplitudes."""
    references = [list(reference) for reference in experiments._REFERENCE_ITERATIONS]
    references[iteration - 1][field] = value
    monkeypatch.setattr(experiments, "_REFERENCE_ITERATIONS", tuple(map(tuple, references)))


def test_a_mismatched_grid_cell_is_named(capsys, monkeypatch):
    # The grid comes from one predict_each per iteration; a wrong reference
    # cell is still reported by its iteration and position.
    grid = experiments._REFERENCE_ITERATIONS[0][2]
    assert grid[1][2] == -1
    _tamper(monkeypatch, 1, 2, (grid[0], (grid[1][0], grid[1][1], 1), grid[2]))
    code, out, err = run(capsys, "table1", "--format", "csv")
    assert (code, out) == (1, "")
    assert err == "error: iteration 1, cell (2,3): read -1.0, reference 1\n"


# A state's message gives its phase distance, here sqrt(2 - sqrt2) between
# |00> and the Bell state, matched to 8 digits so that no BLAS kernel's last
# bits matter.
@pytest.mark.parametrize("iteration, field, value, pattern", [
    (1, 0, 0.41, r"iteration 1, hidden scalar: read 0\.4, reference 0\.41"),
    (2, 1, experiments._BELL_AMPLITUDES,
     r"iteration 2, initial state: phase distance 0\.76536686\d* from the reference"),
    (3, 4, -1, r"iteration 3, measured value: read 1\.0, reference -1"),
    (1, 5, experiments._BELL_AMPLITUDES,
     r"iteration 1, final state: phase distance 0\.76536686\d* from the reference"),
], ids=["hidden-scalar", "initial-state", "measured-value", "final-state"])
def test_a_reference_entry_that_differs_is_named(capsys, monkeypatch, iteration, field, value,
                                                 pattern):
    _tamper(monkeypatch, iteration, field, value)
    code, out, err = run(capsys, "table1", "--format", "csv")
    assert (code, out) == (1, "")
    assert re.fullmatch(f"error: {pattern}\n", err), err


def test_a_measured_value_off_plus_minus_one_is_named(capsys, monkeypatch):
    # 0.6 rounds to the reference 1 but lies further than VALUE_TOL from it.
    chain = experiments.chain

    def off(ops, start, cs):
        first, *rest = chain(ops, start, cs)
        return [dataclasses.replace(first, value=0.6), *rest]
    monkeypatch.setattr(experiments, "chain", off)
    code, out, err = run(capsys, "table1", "--format", "csv")
    assert (code, out) == (1, "")
    assert err == "error: iteration 1, measured value: read 0.6, reference 1\n"


def _off_at(monkeypatch, position):
    """Make every predict_each of table1 read 0.5 at `position` of its family."""
    predict_each = experiments.predict_each

    def off(family, hidden):
        values = list(predict_each(family, hidden))
        values[position] = 0.5
        return values
    monkeypatch.setattr(experiments, "predict_each", off)


# Positions in the family: nine cells row by row, then three row and three column products.
@pytest.mark.parametrize("position, name", [(5, "cell (2,3)"), (13, "column product 2")])
def test_a_prediction_off_plus_minus_one_is_named(capsys, monkeypatch, position, name):
    _off_at(monkeypatch, position)
    code, out, err = run(capsys, "table1", "--format", "csv")
    assert (code, out) == (1, "")
    reference = {5: -1, 13: 1}[position]  # iteration 1's cell (2,3) and column product 2
    assert err == f"error: iteration 1, {name}: read 0.5, reference {reference}\n"


def test_table1_checks_fail_in_their_order(capsys, monkeypatch):
    # Entries are checked in the order the run reaches them, the predictions
    # in predict_each's family order: a row product that differs from the
    # reference is named before a column product off +-1.
    _off_at(monkeypatch, 13)
    monkeypatch.setattr(experiments, "_REFERENCE_ROW_VALUES", (1, 1, -1))
    code, out, err = run(capsys, "table1", "--format", "csv")
    assert (code, out) == (1, "")
    assert err == "error: iteration 1, row product 3: read 1.0, reference -1\n"


# Each subcommand at small arguments; chsh in both of its modes.
EVERY_COMMAND = (["table1"], ["born", "--trials", "200"], ["pm-square"], ["no-go"],
                 ["weak-fc", "--trials", "3"], ["strong-fc"], ["implications"],
                 ["chsh", "--trials", "200"], ["chsh", "--sequential", "--trials", "4"],
                 ["column-product", "--trials", "2"])


def _refuse(monkeypatch, owner, name):
    def refuse(*_args, **_kwargs):
        pytest.fail(f"{name} was called for a report not written")
    monkeypatch.setattr(owner, name, refuse)


def refuse_text(monkeypatch):
    for helper in ("_ket_string", "_sign", "_verdict"):
        _refuse(monkeypatch, cli, helper)


def refuse_payload(monkeypatch):
    reports = [kind for module in (model, experiments, consistency)
               for kind in vars(module).values()
               if isinstance(kind, type) and "as_dict" in vars(kind)]
    assert len(reports) >= 8
    for kind in reports:
        _refuse(monkeypatch, kind, "as_dict")
    _refuse(monkeypatch, cli, "amplitude_pairs")
    monkeypatch.setattr(cli, "json", SimpleNamespace())  # json.dumps fails as an AttributeError


# What each format must not build: json no text, text no payload, csv neither.
REFUSALS = {"json": (refuse_text,), "text": (refuse_payload,),
            "csv": (refuse_text, refuse_payload)}


@pytest.mark.parametrize("argv, fmt", [
    pytest.param(argv, fmt, id=f"{' '.join(argv)}-{fmt}")
    for argv in EVERY_COMMAND for fmt in REFUSALS if fmt != "csv" or argv[0] in CSV_COMMANDS])
def test_a_run_builds_only_the_report_it_writes(capsys, monkeypatch, argv, fmt):
    want = run(capsys, *argv, "--format", fmt)
    for refuse in REFUSALS[fmt]:
        refuse(monkeypatch)
    assert run(capsys, *argv, "--format", fmt) == want


def _emits_one_block_then_fails(state, obs, trials, seed, tolerance_sigma, sink=None):
    """A born driver that hands its sink one block of two events, then fails."""
    sink(model.Events(("Z",), np.arange(2), np.zeros(2, dtype=int), np.array([0.25, 0.75]),
                      np.array([-1.0, 1.0])))
    raise HiddenDrawError("the stream ran dry")


class TestMidRunError:
    """A library error after some blocks were streamed exits 1. stdout keeps
    the rows already written; an --out file is left as it was."""

    @pytest.fixture(autouse=True)
    def failing_born(self, monkeypatch):
        monkeypatch.setattr(cli, "born_experiment", _emits_one_block_then_fails)

    def test_stdout_holds_the_rows_written(self, capsys):
        code, out, err = run(capsys, "born", "--format", "csv")
        assert code == 1
        assert out == "trial,setting,c,value\n0,Z,0.25,-1.0\n1,Z,0.75,1.0\n"
        assert err == "error: the stream ran dry\n"

    def test_out_file_is_left_untouched(self, tmp_path, capsys):
        target = tmp_path / "trials.csv"
        target.write_text("an earlier report\n", encoding="utf-8")
        code, out, err = run(capsys, "born", "--format", "csv", "--out", str(target))
        assert (code, out, err) == (1, "", "error: the stream ran dry\n")
        assert target.read_text(encoding="utf-8") == "an earlier report\n"
        assert list(tmp_path.iterdir()) == [target]

    def test_out_file_is_not_created(self, tmp_path, capsys):
        target = tmp_path / "trials.csv"
        code, _, _ = run(capsys, "born", "--format", "csv", "--out", str(target))
        assert code == 1
        assert list(tmp_path.iterdir()) == []


class _Discard:
    """A stdout that keeps nothing written to it."""

    def write(self, text):
        return len(text)

    def flush(self):
        pass


@pytest.mark.parametrize("argv", [
    ("born", "--trials", "200000"),
    ("weak-fc", "--trials", "50000"),
], ids=["born", "weak-fc"])
def test_csv_memory_stays_flat_in_trials(monkeypatch, argv):
    # Streamed block by block, a run holds one block of events and one
    # SWEEP_BLOCK of rows at a time (about 3 MB), where holding every row
    # took about 20 MB for 200k born rows and 37 MB for 300k weak-fc rows.
    monkeypatch.setattr(sys, "stdout", _Discard())
    assert main([*argv[:-1], "1", "--format", "csv"]) == 0  # caches built outside the trace
    tracemalloc.start()
    try:
        assert main([*argv, "--format", "csv"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * model.TALLY_BLOCK * np.dtype(float).itemsize


class TestCsvOutput:
    def test_table1_rows_frozen(self, capsys):
        code, out, _ = run(capsys, "table1", "--format", "csv")
        assert code == 0
        assert out == ("trial,setting,c,value\n"
                       "0,ZZ,0.4,1.0\n"
                       "1,YY,0.1,-1.0\n"
                       "2,XX,0.7,1.0\n")

    def test_born_row_count(self, capsys):
        code, out, _ = run(capsys, "born", "--trials", "50", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "trial,setting,c,value"
        assert len(lines) == 51


class TestUsageErrors:
    @pytest.mark.parametrize("argv, flag", USAGE_ERRORS,
                             ids=[f"argv{i}" for i in range(len(USAGE_ERRORS))])
    def test_exit_two(self, tmp_path, capsys, argv, flag):
        # Run as it is, then with an --out PATH that exists and one that does not.
        usage_start, error_start = usage_error_prefixes(argv, flag)
        earlier = tmp_path / "earlier.txt"
        earlier.write_text("an earlier report\n", encoding="utf-8")
        new = tmp_path / "new.txt"
        for out in ((), ("--out", str(earlier)), ("--out", str(new))):
            with pytest.raises(SystemExit) as info:
                main([*argv, *out])
            captured = capsys.readouterr()
            assert info.value.code == 2
            assert captured.out == ""
            usage, *wrapped, error = captured.err.splitlines()
            assert usage.startswith(usage_start)
            assert all(line.startswith(" ") for line in wrapped)
            assert error.startswith(error_start) and len(error) > len(error_start)
        assert earlier.read_text(encoding="utf-8") == "an earlier report\n"
        assert list(tmp_path.iterdir()) == [earlier]

    def test_parser_lists_all_commands(self, capsys):
        helptext = build_parser().format_help()
        listed = re.findall(r"^    (\S+)", helptext, re.MULTILINE)  # a help line may wrap
        assert listed == list(COMMANDS)
        # Only the commands that stream events offer csv.
        for name in COMMANDS:
            with pytest.raises(SystemExit) as info:
                main([name, "--help"])
            assert info.value.code == 0
            formats = "{text,json,csv}" if name in CSV_COMMANDS else "{text,json}"
            usage = capsys.readouterr().out.splitlines()[0]
            assert usage.startswith(f"usage: hvsim {name} [-h] [--format {formats}] ")


FORMATS = ("csv", "json", "text")


class TestOutFile:
    def test_json_to_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code, out, _ = run(capsys, "no-go", "--format", "json",
                           "--out", str(target))
        assert code == 0
        assert out == ""
        payload = json.loads(target.read_text(encoding="utf-8"))
        assert payload["satisfying_assignments"] == 0

    def test_csv_to_file(self, tmp_path, capsys):
        target = tmp_path / "cases.csv"
        code, _, _ = run(capsys, "weak-fc", "--trials", "2", "--format", "csv",
                         "--out", str(target))
        assert code == 0
        lines = target.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "trial,setting,c,value"
        assert len(lines) == 13

    def test_csv_replaces_an_existing_file(self, tmp_path, capsys):
        target = tmp_path / "cases.csv"
        target.write_text("an earlier report\n", encoding="utf-8")
        code, out, _ = run(capsys, "weak-fc", "--trials", "5", "--format", "csv",
                           "--out", str(target))
        assert (code, out) == (0, "")
        assert target.read_text(encoding="utf-8") == (
            SEEDED_DIR / "weak-fc.csv").read_text(encoding="utf-8")
        assert list(tmp_path.iterdir()) == [target]

    def test_csv_keeps_the_mode_of_the_file_it_replaces(self, tmp_path, capsys):
        target = tmp_path / "cases.csv"
        target.write_text("an earlier report\n", encoding="utf-8")
        target.chmod(0o600)
        code, _, _ = run(capsys, "weak-fc", "--trials", "5", "--format", "csv",
                         "--out", str(target))
        assert code == 0
        assert stat.S_IMODE(target.stat().st_mode) == 0o600
        assert target.read_text(encoding="utf-8") == pin("weak-fc", "csv")

    @pytest.mark.parametrize("fmt", ["csv", "json", "text"])
    def test_null_device_is_written_in_place(self, capsys, monkeypatch, fmt):
        # Staged and replaced, the device itself would become a regular file.
        monkeypatch.setattr(os, "replace", lambda *_: pytest.fail("the null device was replaced"))
        code, out, err = run(capsys, "weak-fc", "--trials", "2", "--format", fmt,
                             "--out", os.devnull)
        assert (code, out, err) == (0, "", "")
        assert not os.path.isfile(os.devnull)

    def test_fifo_is_written_in_place(self, tmp_path, capsys):
        fifo = tmp_path / "cases.csv"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # so opening for writing does not block
        try:
            code, out, _ = run(capsys, "weak-fc", "--trials", "5", "--format", "csv",
                               "--out", str(fifo))
            data = os.read(reader, 1 << 16)  # the report fits the pipe's buffer
        finally:
            os.close(reader)
        assert (code, out) == (0, "")
        assert data.decode("utf-8") == pin("weak-fc", "csv")
        assert stat.S_ISFIFO(fifo.stat().st_mode)

    def test_stdout_device_streams_to_the_pipe(self):
        result = fresh("weak-fc", "--trials", "5", "--format", "csv", "--out", "/dev/stdout")
        assert (result.returncode, result.stderr) == (0, b"")
        assert result.stdout.decode("utf-8") == pin("weak-fc", "csv")

    @pytest.mark.parametrize("fmt, out", [
        *(pytest.param(fmt, "/dev/stdout", id=fmt) for fmt in FORMATS),
        *(pytest.param(fmt, "log", id=f"{fmt}-plain-name") for fmt in FORMATS),
    ])
    def test_stdout_file_opened_for_append_keeps_its_lines(self, tmp_path, fmt, out):
        # `hvsim ... --out /dev/stdout >> log`, or `--out log >> log`, appends
        # to log as it would without --out: the file behind stdout is neither
        # replaced nor truncated.
        log = tmp_path / "log"
        log.write_text("earlier line\n", encoding="utf-8")
        with open(log, "a", encoding="utf-8") as stdout:
            result = fresh("weak-fc", "--trials", "5", "--format", fmt, "--out", out,
                           stdout=stdout, cwd=tmp_path)
        assert (result.returncode, result.stderr) == (0, b"")
        assert log.read_bytes() == b"earlier line\n" + weak_fc_pin(fmt)
        assert list(tmp_path.iterdir()) == [log]

    @pytest.mark.parametrize("fmt", ["csv", "json", "text"])
    def test_stderr_file_opened_for_append_keeps_its_lines(self, tmp_path, fmt):
        # `hvsim ... --out /dev/stderr 2>> log` appends the report to log: the
        # file behind stderr is neither replaced nor truncated either.
        log = tmp_path / "log"
        log.write_text("earlier line\n", encoding="utf-8")
        with open(log, "a", encoding="utf-8") as stderr:
            result = fresh("weak-fc", "--trials", "5", "--format", fmt, "--out", "/dev/stderr",
                           stderr=stderr)
        assert (result.returncode, result.stdout) == (0, b"")
        assert log.read_bytes() == b"earlier line\n" + weak_fc_pin(fmt)
        assert list(tmp_path.iterdir()) == [log]

    @pytest.mark.parametrize("directory, fmt, unlinked", [
        *(pytest.param("/dev/fd", fmt, False, id=f"/dev/fd-{fmt}") for fmt in FORMATS),
        *(pytest.param("/dev/fd", fmt, True, id=f"/dev/fd-{fmt}-unlinked") for fmt in FORMATS),
        pytest.param("/proc/self/fd", "csv", False, id="/proc/self/fd-csv",
                     marks=pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                                              reason="no /proc/self/fd on this platform")),
    ])
    def test_inherited_descriptor_opened_for_append_keeps_its_lines(self, tmp_path,
                                                                   directory, fmt, unlinked):
        # `hvsim ... --out /dev/fd/3 3>> log` appends the report to log through
        # descriptor 3: the file behind it is neither replaced nor truncated,
        # also once log is unlinked and no name leads to it.
        log = tmp_path / "log"
        log.write_text("earlier line\n", encoding="utf-8")
        with open(log, "a", encoding="utf-8") as handle, open(log, "rb") as reader:
            if unlinked:
                log.unlink()
            fd = handle.fileno()
            result = fresh("weak-fc", "--trials", "5", "--format", fmt,
                           "--out", f"{directory}/{fd}", pass_fds=(fd,))
            written = reader.read()
        assert (result.returncode, result.stdout, result.stderr) == (0, b"", b"")
        assert written == b"earlier line\n" + weak_fc_pin(fmt)
        assert list(tmp_path.iterdir()) == ([] if unlinked else [log])

    def test_a_read_only_descriptor_is_refused_and_kept(self, tmp_path):
        # `hvsim ... --out /dev/stdin < data`: /dev/stdin links to descriptor 0,
        # which only reads, so writing fails; data is not truncated either.
        data = tmp_path / "data"
        data.write_text("input line\n", encoding="utf-8")
        with open(data, encoding="utf-8") as stdin:
            result = fresh("no-go", "--format", "json", "--out", "/dev/stdin", stdin=stdin)
        assert (result.returncode, result.stdout) == (2, b"")
        assert result.stderr.startswith(b"error: cannot write /dev/stdin: ")
        assert data.read_text(encoding="utf-8") == "input line\n"

    def test_stdout_file_keeps_what_is_written_around_the_report(self, tmp_path):
        # ( echo header; hvsim ... --out /dev/stdout; echo footer ) > log
        log = tmp_path / "log"
        with open(log, "w", encoding="utf-8") as stdout:
            stdout.write("header\n")
            stdout.flush()
            result = fresh("weak-fc", "--trials", "5", "--format", "csv",
                           "--out", "/dev/stdout", stdout=stdout)
            stdout.write("footer\n")
        assert (result.returncode, result.stderr) == (0, b"")
        assert log.read_text(encoding="utf-8") == "header\n" + pin("weak-fc", "csv") + "footer\n"

    def test_a_symlinked_path_writes_its_target(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        target.write_text("an earlier report\n", encoding="utf-8")
        link = tmp_path / "latest.json"
        link.symlink_to(target)
        code, _, _ = run(capsys, "no-go", "--format", "json", "--out", str(link))
        assert code == 0
        assert link.is_symlink()
        assert target.read_text(encoding="utf-8") == (
            EXPECTED_DIR / "no-go.json").read_text(encoding="utf-8")

    def test_unwritable_path_is_a_usage_error(self, tmp_path, capsys):
        target = tmp_path / "missing" / "report.json"
        code, out, err = run(capsys, "no-go", "--format", "json", "--out", str(target))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot write {target}: ")
        assert not target.exists()


def fresh(*argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, **run_args):
    """Run `python -m hvsim argv` in a new process on the package under test,
    capturing its stdout and stderr unless `stdout` or `stderr` names another
    file; other keywords (stdin, pass_fds) go to subprocess.run."""
    src = str(Path(hvsim.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "hvsim", *argv],
        stdout=stdout, stderr=stderr, timeout=120,
        env={**os.environ, "PYTHONPATH": path}, **run_args,
    )


def test_module_entry_point():
    result = fresh("no-go")
    assert result.returncode == 0
    assert b"satisfying all six line constraints: 0" in result.stdout


def test_line_expressions_are_decomposed_once_per_process(capsys, monkeypatch):
    # The square builds its line expressions once, and each caches its
    # operator's decomposition, so repeated sweeps compute no spectrum.
    argvs = [["weak-fc", "--column", str(j), "--trials", "2"] for j in (1, 2, 3)] + [["strong-fc"]]
    first = [run(capsys, *argv) for argv in argvs]
    computed = []
    spectral = operators.spectral
    monkeypatch.setattr(operators, "spectral",
                        lambda *args: computed.append(args) or spectral(*args))
    assert [run(capsys, *argv) for argv in argvs] == first
    assert computed == []


def test_a_repeat_call_of_every_command_decomposes_nothing(capsys, monkeypatch):
    # Every operator a command measures is built once per process and caches
    # its decomposition, so a second call of any command computes no spectrum.
    trials = ("--trials", "10")
    argvs = [["table1"], ["pm-square"], ["no-go"], ["strong-fc"], ["implications"],
             ["born", *trials], ["weak-fc", *trials], ["chsh", *trials],
             ["chsh", "--sequential", *trials], ["column-product", *trials]]
    assert {argv[0] for argv in argvs} == set(COMMANDS)
    first = [run(capsys, *argv) for argv in argvs]
    computed = []
    spectral = operators.spectral
    monkeypatch.setattr(operators, "spectral",
                        lambda *args: computed.append(args) or spectral(*args))
    counts = {}
    for argv, report in zip(argvs, first):
        before = len(computed)
        assert run(capsys, *argv) == report
        counts[" ".join(argv)] = len(computed) - before
    assert counts == dict.fromkeys(counts, 0)


def test_born_observable_is_decomposed_once_per_process(capsys, monkeypatch):
    argv = ["born", "--trials", "200", "--format", "json"]
    first = run(capsys, *argv)
    computed = []
    spectral = operators.spectral
    monkeypatch.setattr(operators, "spectral",
                        lambda *args: computed.append(args) or spectral(*args))
    assert run(capsys, *argv) == first
    run(capsys, "born", "--theta", "0.3")
    assert computed == []


def test_repeated_calls_share_no_state(capsys):
    # main reuses one parser and one square per process. No call may leave
    # state behind that changes a later call's report.
    calls = [
        ["born", "--tolerance-sigma", "nan"],
        ["weak-fc", "--column", "1"],
        ["weak-fc"],
        ["chsh", "--sequential"],
        ["chsh"],
    ]
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr().out
        result = fresh(*argv)
        assert (code, out.encode("utf-8")) == (result.returncode, result.stdout), argv
    square = peres_mermin()
    assert square is peres_mermin()
    with pytest.raises(ValueError):
        square.grid[0][0].matrix[0, 0] = 2.0
    expected = (EXPECTED_DIR / "pm-square.json").read_text(encoding="utf-8")
    cells = [op for row in square.grid for op in row] + [
        op for _, a, b, *_ in experiments._chsh_settings() for op in (a, b)]
    for op in cells:
        with pytest.raises(AttributeError):
            op.label = "Q"
        with pytest.raises(AttributeError):
            op.matrix = np.eye(op.dim)
        # Every caller shares the operator's one cached decomposition.
        decomp = op.spectrum()
        for name in ("values", "vectors", "offsets", "block_of_column", "degeneracy_tol",
                     "label"):
            with pytest.raises(AttributeError):
                setattr(decomp, name, "Q")
    for name in ("grid", "rows", "cols", "row_values", "col_values"):
        with pytest.raises(AttributeError):
            setattr(square, name, getattr(square, name)[::-1])
    assert square.column_expression(3) is square.column_expression(3)
    nodes = [Scale(2.0, Leaf(cells[0]))]
    for f in [square.row_expression(i) for i in (1, 2, 3)] + [
            square.column_expression(j) for j in (1, 2, 3)]:
        for name in ("root", "operators", "dim"):
            with pytest.raises(AttributeError):
                setattr(f, name, getattr(f, name))
        nodes += [f.root, *f.root.children]
    for node in nodes:
        for name in ("op", "children", "factor", "child"):
            if hasattr(node, name):
                with pytest.raises(AttributeError):
                    setattr(node, name, getattr(node, name))
    assert run(capsys, "pm-square", "--format", "json")[1] == expected
    no_go = (EXPECTED_DIR / "no-go.json").read_text(encoding="utf-8")
    assert run(capsys, "no-go", "--format", "json") == (0, no_go, "")
    table1 = (SEEDED_DIR / "table1.csv").read_text(encoding="utf-8")
    assert run(capsys, "table1", "--format", "csv")[1] == table1
    weak_fc = (SEEDED_DIR / "weak-fc.csv").read_text(encoding="utf-8")
    assert run(capsys, "weak-fc", "--trials", "5", "--format", "csv")[1] == weak_fc
