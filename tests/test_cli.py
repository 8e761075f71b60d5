"""Exit codes and output contracts of the command line front end."""

import json
import os
import stat
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import hvsim
from conftest import FROZEN_COMMANDS, MULTI_BLOCK_SHOTS, SEEDED_SWEEPS, SINGLE_SHOTS
from hvsim import cli, experiments, model, operators
from hvsim.cli import build_parser, main
from hvsim.errors import HiddenDrawError
from hvsim.expressions import Leaf, Scale, peres_mermin

EXPECTED_DIR = Path(__file__).resolve().parents[1] / "perfbench" / "expected"
SEEDED_DIR = Path(__file__).resolve().parent / "expected"
SEEDED_CALLS = pytest.mark.parametrize(
    "name, argv", [(name, list(argv)) for name, argv in SEEDED_SWEEPS])
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


@pytest.mark.parametrize("command", FROZEN_COMMANDS)
def test_json_matches_frozen_bytes(capsys, command):
    # The deterministic reports are pinned byte for byte.
    code, out, _ = run(capsys, command, "--format", "json")
    assert code == 0
    assert out == (EXPECTED_DIR / f"{command}.json").read_text(encoding="utf-8")


@pytest.mark.parametrize("fmt", ["csv", "json"])
@SEEDED_CALLS
def test_seeded_sequential_reports_match_frozen_bytes(capsys, name, argv, fmt):
    # The sequential sweeps at seed 0 are pinned byte for byte, per-event
    # hidden scalars and readings included.
    code, out, _ = run(capsys, *argv, "--format", fmt)
    assert code == 0
    assert out == (SEEDED_DIR / f"{name}.{fmt}").read_text(encoding="utf-8")


@pytest.mark.parametrize("fmt", ["csv", "json"])
@SINGLE_SHOT_CALLS
def test_single_shot_reports_match_frozen_bytes(capsys, name, argv, fmt):
    # Born counts and product-mode CHSH correlators, per-trial rows included.
    code, out, _ = run(capsys, *argv, "--format", fmt)
    assert code == 0
    assert out == (SEEDED_DIR / f"{name}.{fmt}").read_text(encoding="utf-8")


@pytest.mark.parametrize("name, argv", [(name, list(argv)) for name, argv in MULTI_BLOCK_SHOTS])
def test_multi_block_single_shot_reports_match_frozen_bytes(capsys, name, argv):
    # Trial counts that span several tally blocks, pinned from the code that
    # drew every trial at once.
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    assert out == (SEEDED_DIR / f"{name}.json").read_text(encoding="utf-8")


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


def test_table1_csv_matches_frozen_bytes(capsys):
    # The scripted reference run's events, c and value as the record holds them.
    code, out, _ = run(capsys, "table1", "--format", "csv")
    assert code == 0
    assert out == (SEEDED_DIR / "table1.csv").read_text(encoding="utf-8")


def pin(name, fmt):
    """The pinned report `name`.`fmt`, from tests/expected or perfbench/expected."""
    path = SEEDED_DIR / f"{name}.{fmt}"
    return (path if path.exists() else EXPECTED_DIR / path.name).read_text(encoding="utf-8")


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
    assert err.startswith("error: iteration 1: row products (1, 1, 1)")


def _emits_one_block_then_fails(cfg, state, obs, sink=None):
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

    @pytest.mark.parametrize("command", ["pm-square", "no-go", "strong-fc",
                                         "implications"])
    def test_unsupported_commands(self, capsys, monkeypatch, command):
        # Refused before the command runs, so no error of its own can
        # change the exit code.
        monkeypatch.setitem(cli._RUNNERS, command,
                            (lambda *_: pytest.fail(f"{command} ran for --format csv"), False))
        code, out, err = run(capsys, command, "--format", "csv")
        assert code == 2
        assert out == ""
        assert err == (f"error: csv output is not available for '{command}';"
                       " use --format json or text\n")


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        [],
        ["unknown-command"],
        ["born", "--seed", "-3"],
        ["born", "--trials", "0"],
        ["born", "--theta", "inf"],
        ["born", "--tolerance-sigma", "-1"],
        ["strong-fc", "--c", "0"],
        ["strong-fc", "--c", "1"],
        ["weak-fc", "--column", "4"],
        ["column-product", "--axis", "diagonal"],
        ["chsh", "--no-such-flag"],
        ["born", "--tolerance-sigma", "nan"],
        ["born", "--tolerance-sigma", "inf"],
    ])
    def test_exit_two(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        capsys.readouterr()

    def test_parser_lists_all_commands(self):
        parser = build_parser()
        helptext = parser.format_help()
        for name in ("table1", "born", "pm-square", "no-go", "weak-fc",
                     "strong-fc", "implications", "chsh", "column-product"):
            assert name in helptext


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

    @pytest.mark.parametrize("fmt", ["csv", "json", "text"])
    def test_stdout_file_opened_for_append_keeps_its_lines(self, tmp_path, fmt):
        # `hvsim ... --out /dev/stdout >> log` appends to log as it would
        # without --out: the file behind stdout is neither replaced nor truncated.
        argv = ("weak-fc", "--trials", "5", "--format", fmt)
        log = tmp_path / "log"
        log.write_text("earlier line\n", encoding="utf-8")
        with open(log, "a", encoding="utf-8") as stdout:
            result = fresh(*argv, "--out", "/dev/stdout", stdout=stdout)
        assert (result.returncode, result.stderr) == (0, b"")
        assert log.read_bytes() == b"earlier line\n" + fresh(*argv).stdout
        assert list(tmp_path.iterdir()) == [log]

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


def fresh(*argv, stdout=subprocess.PIPE):
    """Run `python -m hvsim argv` in a new process on the package under test,
    capturing its stdout unless `stdout` names another file."""
    src = str(Path(hvsim.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "hvsim", *argv],
        stdout=stdout, stderr=subprocess.PIPE, timeout=120,
        env={**os.environ, "PYTHONPATH": path},
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
