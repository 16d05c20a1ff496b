"""Enumeration, classification and determinism of the finite-logic search."""

import json

import pytest

from ucplab import finite
from ucplab.search import SearchConfig, classify, enumerate_logics, run_search


def test_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(max_atoms=-1)
    with pytest.raises(ValueError):
        SearchConfig(max_atoms=3, max_blocks=0)
    with pytest.raises(ValueError):
        SearchConfig(max_atoms=3, block_size_min=1)
    with pytest.raises(ValueError):
        SearchConfig(max_atoms=5, block_size_min=4, block_size_max=3)


def test_enumerate_three_atoms_single_boolean():
    logics = enumerate_logics(SearchConfig(max_atoms=3))
    assert logics == [(3, ((1, 2, 3),))]


def test_enumerate_five_atoms_two_blocks_hand_count():
    # Boolean blocks of size 3, 4, 5 plus the one genuine two-block pasting.
    logics = enumerate_logics(SearchConfig(max_atoms=5, max_blocks=2))
    assert [blocks for _, blocks in logics] == [
        ((1, 2, 3),),
        ((1, 2, 3, 4),),
        ((1, 2, 3), (1, 4, 5)),
        ((1, 2, 3, 4, 5),),
    ]


def test_enumerate_dedups_relabelings():
    # {1,2,3},{3,4,5} and {1,2,3},{1,4,5} are the same logic up to renaming.
    logics = enumerate_logics(SearchConfig(max_atoms=5, max_blocks=2, block_size_max=3))
    pastings = [b for _, b in logics if len(b) == 2]
    assert pastings == [((1, 2, 3), (1, 4, 5))]


def test_enumerate_zero_atoms_is_empty():
    assert enumerate_logics(SearchConfig(max_atoms=0)) == []


def test_classify_boolean():
    record = classify([(1, 2, 3)])
    assert record["os_pass"] and record["uc1_pass"] and record["uc2_pass"]
    assert record["n_states"] == 3
    assert record["scan"]["max_abs_i2"] == "0"
    assert record["scan"]["max_abs_i3"] == "0"


def test_classify_solves_each_conditional_polytope_once(monkeypatch):
    calls = []
    original = finite.polytope_vertices

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(finite, "polytope_vertices", counted)
    record = classify([(1, 2, 3, 4)])
    assert "scan" in record
    # the state polytope, then one conditional polytope for each of the 4
    # vertex states and the 8 events that contain its atom
    assert len(calls) == 1 + 4 * 8


def test_classify_pasting_short_circuits_at_uc2():
    record = classify([(1, 2, 3), (3, 4, 5)])
    assert record["os_pass"] and record["uc1_pass"]
    assert record["uc2_pass"] is False
    assert record["failure"]["stage"] == "UC2-uniqueness"
    assert record["failure"]["details"]  # two conditional states are named
    assert "scan" not in record


def test_classify_uc1_failure():
    record = classify([(1, 2, 3, 4), (1, 2)])
    assert record["os_pass"]
    assert record["uc1_pass"] is False
    assert record["failure"]["stage"] == "UC1"


def test_classify_os_failure():
    record = classify([(1, 2, 5), (2, 3, 6), (1, 3, 4)])
    assert record["os_pass"] is False
    assert record["failure"]["stage"]


def test_run_search_summary_and_jsonl(tmp_path):
    out = tmp_path / "records.jsonl"
    records, summary = run_search(SearchConfig(max_atoms=5, max_blocks=2), out_path=str(out))
    assert summary == {
        "enumerated": 4,
        "os_fail": 0,
        "uc1_fail": 0,
        "uc2_fail": 1,
        "skipped": 0,
        "ucp": 3,
    }
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 5  # four records plus the summary line
    for line in lines[:-1]:
        record = json.loads(line)
        assert set(record) >= {"blocks", "n_atoms", "n_events", "os_pass"}
    assert json.loads(lines[-1]) == {"summary": summary}


def test_run_search_is_deterministic(tmp_path):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    run_search(SearchConfig(max_atoms=5, max_blocks=2), out_path=str(a))
    run_search(SearchConfig(max_atoms=5, max_blocks=2), out_path=str(b))
    assert a.read_bytes() == b.read_bytes()
