"""Self-tests of the benchmark at tiny sizes (--trials 2, --max-atoms 3).

Run with:  python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys

import pytest

import run
import spans
import workloads
from workloads import ROOT, WORKLOADS, Tally

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(autouse=True)
def scratch_workdir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path / "work")
    monkeypatch.setattr(run, "SETUP_PROBES", 1)


def tiny_run(capsys, name, traced):
    assert run.run_workload(name, seed=5, seconds=0, traced=traced, tiny=True) == 0
    lines = capsys.readouterr().out.splitlines()
    return lines, json.loads(lines[-1])


def test_metric_tables_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == spans.PER_LAYER
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("traced", [False, True])
def test_tiny_run_prints_every_metric_with_its_unit(capsys, name, traced):
    lines, result = tiny_run(capsys, name, traced)
    expected = spans.PER_LAYER if traced else run.END_TO_END
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {key: m["unit"] for key, m in result["metrics"].items()} == expected
    for key, unit in expected.items():
        assert any(line.startswith(f"{key} = ") and line.endswith(f" {unit}") for line in lines)
    assert any(line.startswith("fail_ratio = 0.0 ") for line in lines)


def test_traced_run_writes_spans_with_parents(capsys):
    _, result = tiny_run(capsys, "search-scan", traced=True)
    record = json.loads((run.WORK / "spans-search-scan-seed5.json").read_text())
    by_id = {s["id"]: s for s in record["spans"]}
    assert record["metrics"] == result["metrics"]
    for span in record["spans"]:
        assert set(span) == {"id", "name", "start", "end", "parent", "run"}
        assert span["start"] <= span["end"]
        if span["parent"] is not None:
            parent = by_id[span["parent"]]
            assert parent["run"] == span["run"]
            assert parent["start"] <= span["start"] and span["end"] <= parent["end"]
    names = {s["name"] for s in record["spans"]}
    assert {"cli.main", "search.run_search", "interference.finite_I3_scan"} <= names
    assert result["metrics"]["search.scan_ratio"]["value"] == 1.0


def _public_attributes():
    from ucplab import cli, finite, interference, jordan, search

    modules = (cli, finite, interference, jordan, search, finite.FiniteLogic)
    return {(m.__name__, k): v for m in modules for k, v in vars(m).items() if callable(v)}


def test_untraced_run_installs_no_wrapper(capsys, monkeypatch):
    workloads.import_program()
    before = _public_attributes()

    def refuse(self):
        raise AssertionError("untraced run installed wrappers")

    monkeypatch.setattr(spans.Tracer, "install", refuse)
    for name in WORKLOADS:
        tiny_run(capsys, name, traced=False)
    assert _public_attributes() == before


def test_traced_run_restores_every_attribute(capsys):
    workloads.import_program()
    before = _public_attributes()
    tiny_run(capsys, "verify-models", traced=True)
    tiny_run(capsys, "search-enumerate", traced=True)
    assert _public_attributes() == before


def _tiny_outputs(name, tmp_path):
    ucplab = workloads.import_program()
    calls = WORKLOADS[name](0, tiny=True)
    results = workloads.run_calls(ucplab.cli, calls, tmp_path)
    assert workloads.check_calls(calls, results, tmp_path).failed == 0
    return calls, results


def test_residual_above_tolerance_is_a_failure(tmp_path):
    calls, results = _tiny_outputs("verify-models", tmp_path)
    path = tmp_path / calls[0].out
    report = json.loads(path.read_text())
    report["checks"][0]["residual"] = 2 * report["checks"][0]["tolerance"]
    path.write_text(json.dumps(report))
    tally = workloads.check_calls(calls, results, tmp_path)
    assert tally.failed == 1


def test_flipped_jsonl_byte_is_a_failure(tmp_path):
    calls, results = _tiny_outputs("search-scan", tmp_path)
    path = tmp_path / calls[0].out
    data = bytearray(path.read_bytes())
    data[10] ^= 1
    path.write_bytes(bytes(data))
    tally = workloads.check_calls(calls, results, tmp_path)
    assert tally.failed == 1


def test_wrong_summary_and_exit_code_are_failures(tmp_path):
    calls, results = _tiny_outputs("search-scan", tmp_path)
    _, stdout = results[0]
    tally = workloads.check_calls(calls, [(1, stdout.replace("ucp: 1", "ucp: 2"))], tmp_path)
    assert tally.failed == 2


def test_classical_row_off_the_diagonal_is_a_failure(tmp_path):
    calls, results = _tiny_outputs("corridor-large", tmp_path)
    classical = next(c for c in calls if "--classical" in c.argv)
    path = tmp_path / classical.out
    header, first, *rest = path.read_text().splitlines()
    p, q, *tail = first.split(",")
    path.write_text("\n".join([header, ",".join([p, repr(float(q) + 1e-9), *tail]), *rest]) + "\n")
    tally = Tally()
    classical.check(tally, path, "")
    assert tally.failed == 1


def test_checkout_without_program_exits_nonzero_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    command = [sys.executable, "perfbench/run.py", "--workload", "search-scan",
               "--seed", "0", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
