"""Command-line interface: exit codes, report shape, determinism."""

import csv
import io
import json
import os
import subprocess
import sys
from argparse import ArgumentParser
from pathlib import Path

import pytest

from ucplab import __version__, interference
from ucplab.cli import build_parser, main
from ucplab.interference import CorridorPoint
from ucplab.search import classify

SRC = Path(__file__).resolve().parents[1] / "src"

PEAK_RSS_SCRIPT = """
import resource, sys
from ucplab.cli import main
code = main(sys.argv[1:])
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
sys.exit(code)
"""


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_verify_passes_and_reports(capsys):
    code, out = run(capsys, "verify", "--algebra", "C", "--dim", "3", "--trials", "20", "--seed", "7")
    assert code == 0
    report = json.loads(out)
    assert report["version"] == __version__
    assert report["config"]["algebra"] == "C"
    assert report["passed"] is True
    assert all(c["pass"] for c in report["checks"])
    ids = {c["id"] for c in report["checks"]}
    assert any(i.startswith("algebra-laws.") for i in ids)
    assert any(i.startswith("compression-lemmas.") for i in ids)
    assert "third-order-vanishing.dense_max" in ids


def test_verify_fails_on_impossible_tolerance(capsys):
    code, out = run(capsys, "verify", "--algebra", "R", "--dim", "2", "--trials", "5", "--tol", "1e-30")
    assert code == 1
    assert json.loads(out)["passed"] is False


@pytest.mark.parametrize("algebra", ["R", "C", "H"])
def test_verify_runs_every_check_at_dimension_one(capsys, algebra):
    def check_ids(dim):
        code, out = run(capsys, "verify", "--algebra", algebra, "--dim", dim, "--trials", "3")
        assert code == 0
        return [c["id"] for c in json.loads(out)["checks"]]

    ids = check_ids("1")
    assert "multiplication-map.spectrum" in ids
    assert ids == check_ids("2")


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--algebra", "O", "--dim", "4"),
        ("verify", "--trials", "0"),
        ("verify", "--tol", "0"),
        ("i3", "--algebra", "Q"),
        ("verify", "--format", "csv"),
        ("classify",),
        ("classify", "--logic", "no-such-logic.txt"),
        ("search", "--max-atoms", "-1"),
        ("search", "--max-atoms", "3", "--blocks", "0"),
        ("search", "--max-atoms", "3", "--block-size-min", "1"),
        ("search", "--max-atoms", "4", "--block-size-min", "3", "--block-size-max", "2"),
        ("verify", "--seed", "-1"),
        ("corridor", "--seed", "-1"),
        ("i3", "--seed", "-1"),
    ],
)
def test_usage_errors_exit_two(argv):
    with pytest.raises(SystemExit) as err:
        main(list(argv))
    assert err.value.code == 2


@pytest.mark.parametrize("command", ["verify", "corridor", "i3"])
@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_non_finite_tolerance_is_usage_error(command, tol):
    with pytest.raises(SystemExit) as err:
        main([command, "--algebra", "R", "--dim", "2", "--trials", "3", "--tol", tol])
    assert err.value.code == 2


def test_corridor_csv_shape(capsys):
    code, out = run(capsys, "corridor", "--algebra", "C", "--dim", "2", "--trials", "5", "--seed", "3")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["p", "q", "lower_ok", "upper_ok", "model", "seed", "trial"]
    assert len(rows) == 6  # header + trials
    # row 0 is the exact boundary configuration
    assert float(rows[1][0]) == 0.5 and float(rows[1][1]) == 1.0
    assert [r[4] for r in rows[1:]] == ["C2"] * 5
    assert all(r[2] == "True" and r[3] == "True" for r in rows[1:])


def test_octonionic_2x2_model_verifies_and_stays_in_the_corridor(capsys):
    # H_2(O) is a Jordan algebra; it runs every check of H_2(H) but the
    # associative anticommutator form, as H_3(O) does
    code, out = run(capsys, "verify", "--algebra", "O", "--dim", "2", "--trials", "200")
    report = json.loads(out)
    assert code == 0 and report["passed"] is True
    assert all(c["pass"] and c["tolerance"] == 1e-9 for c in report["checks"])
    _, out = run(capsys, "verify", "--algebra", "H", "--dim", "2", "--trials", "3")
    quaternion_ids = [c["id"] for c in json.loads(out)["checks"]]
    quaternion_ids.remove("event-symmetry.anticommutator_form")
    assert [c["id"] for c in report["checks"]] == quaternion_ids
    code, out = run(capsys, "corridor", "--algebra", "O", "--dim", "2", "--trials", "500", "--seed", "3")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert len(rows) == 500
    assert float(rows[0][0]) == 0.5 and float(rows[0][1]) == 1.0
    assert all(r[2:5] == ["True", "True", "O2"] for r in rows)


def csv_oracle(rows, model, seed):
    """The corridor CSV as `csv.writer` writes it."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["p", "q", "lower_ok", "upper_ok", "model", "seed", "trial"])
    writer.writerows((r.p, r.q, r.lower_ok, r.upper_ok, model, seed, i) for i, r in enumerate(rows))
    return buffer.getvalue()


def record_corridor_rows(monkeypatch):
    """Wrap the corridor samplers so that the rows they hand the CLI are listed."""
    rows = []

    def recorded(original, many):
        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            rows.extend(result if many else [result])
            return result

        return wrapper

    for name, many in (("corridor_sample", False), ("corridor_samples", True)):
        monkeypatch.setattr(interference, name, recorded(getattr(interference, name), many))
    return rows


EDGE_ROWS = [
    CorridorPoint(0.0, 0.0, True, True),
    CorridorPoint(1e-300, 0.1 + 0.2, False, True),
    CorridorPoint(0.1 + 0.2, 1e-300, True, False),
    CorridorPoint(-0.0, 1.0, False, False),
    CorridorPoint(0.5, 5e-324, True, True),
]


@pytest.mark.parametrize("classical", [False, True])
def test_corridor_csv_matches_csv_writer_on_edge_rows(monkeypatch, capsys, classical):
    monkeypatch.setattr(interference, "corridor_samples", lambda *args, **kwargs: EDGE_ROWS)
    rows = record_corridor_rows(monkeypatch)
    flags = ["--classical"] if classical else []
    trials = len(EDGE_ROWS) + (0 if classical else 1)
    argv = ["corridor", "--algebra", "H", "--dim", "2", "--trials", str(trials), "--seed", "4"]
    code, out = run(capsys, *argv, *flags)
    assert code == 1  # some edge rows leave the corridor
    assert rows[-len(EDGE_ROWS):] == EDGE_ROWS and len(rows) == trials
    assert out == csv_oracle(rows, "H2", 4)


@pytest.mark.parametrize("classical", [False, True])
@pytest.mark.parametrize("model", ["R2", "R3", "C2", "C3", "C4", "H2", "H3", "O3"])
def test_corridor_csv_matches_csv_writer_on_every_model(monkeypatch, tmp_path, model, classical):
    rows = record_corridor_rows(monkeypatch)
    out = tmp_path / "corridor.csv"
    flags = ["--classical"] if classical else []
    argv = ["corridor", "--algebra", model[0], "--dim", model[1:], "--trials", "2000", "--seed", "0"]
    assert main([*argv, *flags, "--out", str(out)]) == 0
    assert len(rows) == 2000
    assert out.read_bytes() == csv_oracle(rows, model, 0).encode()


def test_corridor_single_trial(capsys):
    code, out = run(capsys, "corridor", "--algebra", "R", "--dim", "2", "--trials", "1")
    assert code == 0
    assert len(out.strip().splitlines()) == 2  # header + one data row


def test_corridor_classical_diagonal(capsys):
    code, out = run(capsys, "corridor", "--algebra", "C", "--dim", "3", "--trials", "50", "--classical")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert all(abs(float(p) - float(q)) <= 1e-12 for p, q, *_ in rows)


def test_corridor_json_format(capsys):
    code, out = run(capsys, "corridor", "--trials", "3", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["command"] == "corridor"
    assert len(report["rows"]) == 3


def test_i3_report(capsys):
    code, out = run(capsys, "i3", "--algebra", "H", "--dim", "3", "--trials", "50")
    assert code == 0
    report = json.loads(out)
    assert report["max_dense_norm"] <= 1e-9
    assert report["passed"] is True


def test_i3_octonions_looser_tolerance(capsys):
    code, out = run(capsys, "i3", "--algebra", "O", "--dim", "3", "--trials", "50", "--tol", "1e-8")
    assert code == 0
    assert json.loads(out)["max_dense_norm"] <= 1e-8


def test_i3_dimension_one_degenerate(capsys):
    code, out = run(capsys, "i3", "--algebra", "R", "--dim", "1", "--trials", "5")
    assert code == 0
    assert json.loads(out)["max_dense_norm"] == 0.0


def test_main_builds_its_parser_once(capsys, monkeypatch):
    # every call shares the one parser, and a parse leaves nothing behind
    # that changes the next call's output
    built = []
    original = ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        original(self, *args, **kwargs)

    main(["search", "--max-atoms", "3"])  # the parser exists from here on
    first = capsys.readouterr().out
    monkeypatch.setattr(ArgumentParser, "__init__", counted)
    assert main(["search", "--max-atoms", "3"]) == 0
    assert capsys.readouterr().out == first
    assert build_parser() is build_parser()
    assert built == []


def test_search_summary_lines(capsys):
    code, out = run(capsys, "search", "--max-atoms", "3")
    assert code == 0
    summary = dict(line.split(": ") for line in out.strip().splitlines())
    assert summary["enumerated"] == "1"
    assert summary["ucp"] == "1"


def test_search_zero_atoms(capsys):
    code, out = run(capsys, "search", "--max-atoms", "0")
    assert code == 0
    summary = dict(line.split(": ") for line in out.strip().splitlines())
    assert summary["enumerated"] == "0"


def test_search_writes_jsonl(tmp_path, capsys):
    out_file = tmp_path / "records.jsonl"
    code, _ = run(capsys, "search", "--max-atoms", "5", "--blocks", "2", "--out", str(out_file))
    assert code == 0
    assert len(out_file.read_text().strip().splitlines()) == 5


def test_classify_exits_zero_on_a_ucp_logic(tmp_path, capsys):
    path = tmp_path / "boolean.txt"
    path.write_text("# one block\nblock: 1 2 3\n")
    code, out = run(capsys, "classify", "--logic", str(path))
    assert code == 0
    assert out == json.dumps(classify([(1, 2, 3)]), sort_keys=True) + "\n"


def test_classify_rejects_a_malformed_logic_file(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("block: 0 1\n")
    with pytest.raises(SystemExit) as err:
        main(["classify", "--logic", str(path)])
    assert err.value.code == 2


def test_outputs_to_file(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    code, printed = run(capsys, "i3", "--trials", "10", "--out", str(out_file))
    assert code == 0
    assert printed == ""
    assert json.loads(out_file.read_text())["command"] == "i3"


def test_byte_identical_reruns(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        main(["corridor", "--algebra", "H", "--dim", "2", "--trials", "20", "--seed", "5", "--out", str(path)])
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_verify_octonions_stays_in_bounded_memory(tmp_path):
    # the dense batteries keep a few (trials, 27, 27) matrices alive at once,
    # about 130 MB at 1000 trials; the bound catches a per-trial stack of
    # basis images or another trials-sized copy of the operators
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    argv = ["verify", "--algebra", "O", "--dim", "3", "--trials", "1000", "--tol", "1e-8"]
    done = subprocess.run(
        [sys.executable, "-c", PEAK_RSS_SCRIPT, *argv, "--out", str(tmp_path / "report.json")],
        capture_output=True,
        text=True,
        env=env,
    )
    assert done.returncode == 0, done.stderr
    peak_mb = int(done.stdout.split()[-1]) / 1024  # ru_maxrss is in KiB on Linux
    assert peak_mb < 200, f"peak RSS {peak_mb:.0f} MB"


def test_corridor_octonions_stays_in_bounded_memory(tmp_path):
    # corridor_samples draws and evaluates its trials in chunks of
    # CORRIDOR_CHUNK; unchunked, 50 000 trials took about 530 MB
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    argv = ["corridor", "--algebra", "O", "--dim", "3", "--trials", "50000"]
    done = subprocess.run(
        [sys.executable, "-c", PEAK_RSS_SCRIPT, *argv, "--out", str(tmp_path / "corridor.csv")],
        capture_output=True,
        text=True,
        env=env,
    )
    assert done.returncode == 0, done.stderr
    peak_mb = int(done.stdout.split()[-1]) / 1024  # ru_maxrss is in KiB on Linux
    assert peak_mb < 200, f"peak RSS {peak_mb:.0f} MB"
