"""Enumeration, classification and determinism of the finite-logic search."""

import hashlib
import itertools
import json
import re
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ucplab import finite, search
from ucplab.cli import build_parser, main
from ucplab.search import SearchConfig, classify, enumerate_logics, run_search


def _canonical_form(blocks, n_atoms):
    """Lexicographically least relabeling of the block hypergraph."""
    best = None
    for perm in itertools.permutations(range(1, n_atoms + 1)):
        relabel = {i + 1: perm[i] for i in range(n_atoms)}
        form = tuple(sorted(tuple(sorted(relabel[a] for a in b)) for b in blocks))
        if best is None or form < best:
            best = form
    return best


def oracle_enumerate(config):
    """Reference enumeration: the full n! canonical form of every candidate
    combination, deduplicated with a set of the forms seen."""
    top = config.block_size_max or config.max_atoms
    seen = set()
    results = []
    for n in range(config.block_size_min, config.max_atoms + 1):
        atoms = range(1, n + 1)
        sizes = range(config.block_size_min, min(top, n) + 1)
        candidates = [tuple(c) for s in sizes for c in itertools.combinations(atoms, s)]
        for count in range(1, config.max_blocks + 1):
            for combo in itertools.combinations(candidates, count):
                if set().union(*map(set, combo)) != set(atoms):
                    continue
                if any(len(set(a) & set(b)) > 1 for a, b in itertools.combinations(combo, 2)):
                    continue
                form = _canonical_form(combo, n)
                if form not in seen:
                    seen.add(form)
                    results.append((n, form))
    results.sort()
    return results


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


ORACLE_CONFIGS = [
    SearchConfig(5, 3, 2, 3),
    SearchConfig(5, 4, 2, 2),
    SearchConfig(6, 2, 2, 4),
    SearchConfig(6, 3),
]


@pytest.mark.parametrize("config", ORACLE_CONFIGS, ids=str)
def test_enumerate_matches_canonical_form_oracle(config):
    assert enumerate_logics(config) == oracle_enumerate(config)


# sha256 of json.dumps(enumerate_logics(config)), beyond the reach of the
# oracle above.  The 8- and 9-atom digests were computed with the n! scan
# over every relabeling, the larger ones with the orderly generator that
# decided leastness atom by atom, before the block-by-block least test
PINNED_ENUMERATIONS = {
    SearchConfig(8, 4, 3, 3): (
        13,
        "e466d72e87a891f8c863bfa3378f40d1dafd28741a5766e1d3d57da0d918c4c7",
    ),
    SearchConfig(9, 4, 3, 3): (
        19,
        "1385d993f18aa219f5ad02f191045293b70e47190f679c8689bc8286e05d1026",
    ),
    SearchConfig(10, 5, 3, 3): (
        54,
        "2355720d82bbf7402c9d9c98805058a91f791462da1ad3a442872ecb2d344953",
    ),
    SearchConfig(12, 6, 3, 3): (
        288,
        "992fb4eaa14eda80522690285f72aba75071af43a980a498e051865211b299bb",
    ),
    SearchConfig(13, 5, 4, 4): (
        37,
        "15613097542b4303fd2f6436ec6d5b2be8081a80b0ea890bc8209fee10bee48c",
    ),
}


@pytest.mark.parametrize("config", PINNED_ENUMERATIONS, ids=str)
def test_enumeration_is_pinned(config):
    logics = enumerate_logics(config)
    count, digest = PINNED_ENUMERATIONS[config]
    assert len(logics) == count
    assert hashlib.sha256(json.dumps(logics).encode()).hexdigest() == digest


@st.composite
def _block_lists(draw):
    # sorted forms of distinct blocks; they need not cover every atom,
    # as the prefixes the enumeration tests often do not
    n_atoms = draw(st.integers(1, 6))
    block = st.lists(st.integers(1, n_atoms), min_size=1, max_size=n_atoms, unique=True)
    blocks = draw(st.lists(block.map(lambda b: tuple(sorted(b))), max_size=5, unique=True))
    return tuple(sorted(blocks)), n_atoms


@settings(max_examples=200, deadline=None)
@given(_block_lists())
def test_least_test_matches_the_canonical_form(case):
    form, n_atoms = case
    assert search._is_least(form, n_atoms) == (_canonical_form(form, n_atoms) == form)


@settings(max_examples=200, deadline=None)
@given(_block_lists())
def test_a_least_form_meets_its_atoms_in_label_order(case):
    # the lemma behind the enumeration's first-occurrence pruning: reading
    # the least relabeling block by block, each new atom is the next label
    form, n_atoms = case
    covered = set()
    for block in _canonical_form(form, n_atoms):
        covered |= set(block)
        assert covered == set(range(1, len(covered) + 1))


def _star(size, count):
    """count blocks of size atoms that share atom 1 and nothing else."""
    return tuple((1, *range(2 + (size - 1) * i, 2 + (size - 1) * (i + 1))) for i in range(count))


def _disjoint(size, count):
    """count blocks of size atoms that share no atom."""
    return tuple(tuple(range(1 + size * i, 1 + size * (i + 1))) for i in range(count))


# forms on which many unplaced blocks tie with the next block of the form,
# too large for the n! scan but with known answers: a star or a set of
# disjoint blocks of one size is least, and Wright's pentagon labeled
# around its cycle is not, as its least form starts (1, 2, 3), (1, 4, 5)
SYMMETRIC_FORMS = {
    "star of 6 triples": (_star(3, 6), 13, True),
    "6 disjoint triples": (_disjoint(3, 6), 18, True),
    "7 disjoint pairs": (_disjoint(2, 7), 14, True),
    "star of 8 pairs": (_star(2, 8), 9, True),
    "pentagon relabeled": (((1, 2, 3), (1, 9, 10), (3, 4, 5), (5, 6, 7), (7, 8, 9)), 10, False),
}


@pytest.mark.parametrize("name", SYMMETRIC_FORMS)
def test_least_test_on_symmetric_forms(name):
    form, n_atoms, least = SYMMETRIC_FORMS[name]
    assert search._is_least(form, n_atoms) is least


def test_enumerate_zero_atoms_is_empty():
    assert enumerate_logics(SearchConfig(max_atoms=0)) == []


def test_classify_boolean():
    record = classify([(1, 2, 3)])
    assert record["os_pass"] and record["uc1_pass"] and record["uc2_pass"]
    assert record["n_states"] == 3
    assert record["scan"]["max_abs_i2"] == "0"
    assert record["scan"]["max_abs_i3"] == "0"


def _count_solves(monkeypatch):
    calls = []
    original = finite.polytope_vertices

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(finite, "polytope_vertices", counted)
    return calls


def test_classify_solves_each_conditional_polytope_once(monkeypatch):
    calls = _count_solves(monkeypatch)
    record = classify([(1, 2, 3, 4)])
    assert "scan" in record
    # the state polytope, then one solve for each of the 15 nonzero events.
    # Each solve's right-hand-side columns are the conditional polytopes of
    # the vertex states in the event and of the barycentre; each of the 4
    # vertex states lies in 8 events.
    assert len(calls) == 1 + 15
    assert sum(len(columns) - 1 for _, columns, _ in calls[1:]) == 4 * 8
    # in a Boolean block every atom is below e or orthogonal to it, so each
    # conditional is pinned or zero at every atom and no unknown is left
    assert [n for _, _, n in calls] == [4] + [0] * 15


PENTAGON = [(1, 2, 3), (3, 4, 5), (5, 6, 7), (7, 8, 9), (9, 10, 1)]
PENTAGON_TEXT = "block: 1 2 3\nblock: 3 4 5\nblock: 5 6 7\nblock: 7 8 9\nblock: 9 10 1\n"
PENTAGON_SHA256 = "5d98eefc7a0945515f39bf577f03ae7f0ed827fe43d0cdfab2cc073879f5a615"


def test_classify_pentagon_record_is_pinned():
    # Wright's pentagon, a Greechie pasting of five 3-atom blocks in a cycle
    record = classify(PENTAGON)
    digest = hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()
    assert digest == PENTAGON_SHA256
    assert record["failure"]["stage"] == "UC2-uniqueness"
    assert len(record["failure"]["details"]) == finite.MAX_UC2_FAILURES


def test_classify_pentagon_stops_at_the_fifth_uc2_failure(monkeypatch):
    # a solve per (event, vertex) pair would take 137 for this logic
    calls = _count_solves(monkeypatch)
    classify(PENTAGON)
    assert len(calls) - 1 <= 3  # the state polytope is the first call


def test_cli_classify_logic_file_reproduces_the_record(tmp_path, capsys):
    path = tmp_path / "pentagon.txt"
    path.write_text(PENTAGON_TEXT)
    assert main(["classify", "--logic", str(path)]) == 1
    line = capsys.readouterr().out
    assert line == json.dumps(classify(PENTAGON), sort_keys=True) + "\n"
    assert hashlib.sha256(line[:-1].encode()).hexdigest() == PENTAGON_SHA256
    out = tmp_path / "record.json"
    assert main(["classify", "--logic", str(path), "--out", str(out)]) == 1
    assert out.read_text() == line


def test_cli_classify_builds_the_logic_once(monkeypatch, tmp_path, capsys):
    path = tmp_path / "pentagon.txt"
    path.write_text(PENTAGON_TEXT)
    builds = []
    init = finite.FiniteLogic.__init__

    def counted_init(self, *args):
        builds.append(args)
        init(self, *args)

    monkeypatch.setattr(finite.FiniteLogic, "__init__", counted_init)
    assert main(["classify", "--logic", str(path)]) == 1
    assert len(builds) == 1
    assert hashlib.sha256(capsys.readouterr().out[:-1].encode()).hexdigest() == PENTAGON_SHA256


@pytest.mark.parametrize("limit", ["MAX_SCAN_EVENTS", "MAX_UC2_VERTICES"])
def test_oversized_logic_is_skipped_before_uc2(monkeypatch, tmp_path, capsys, limit):
    # Boolean-3 has 8 events and 3 vertex states; a limit below the event
    # count marks it oversized as soon as it is built, one below the vertex
    # count after UC1, and UC2 and the scan never run
    monkeypatch.setattr(search, limit, 2)
    record = classify([(1, 2, 3)])
    if limit == "MAX_SCAN_EVENTS":
        assert record == {"blocks": [[1, 2, 3]], "n_atoms": 3, "n_events": 8, "skipped": "size"}
    else:
        assert record["os_pass"] and record["uc1_pass"]
        assert record["skipped"] == "size"
        assert "uc2_pass" not in record and "scan" not in record
    _, summary = run_search(SearchConfig(max_atoms=3, max_blocks=1))
    assert summary["enumerated"] == summary["skipped"] == 1
    assert summary["ucp"] == 0
    path = tmp_path / "boolean.txt"
    path.write_text("block: 1 2 3\n")
    assert main(["classify", "--logic", str(path)]) == 1
    assert capsys.readouterr().out == json.dumps(record, sort_keys=True) + "\n"


def test_too_many_events_are_skipped_before_the_event_tables(monkeypatch):
    # one 12-atom block has 4096 events; its sum tables would hold one entry
    # per orthogonal pair, 3^12 = 531 441, so the size check must come first
    def tables(self):
        raise AssertionError("tables() built for an oversized logic")

    monkeypatch.setattr(finite.FiniteLogic, "tables", tables)
    record = classify([tuple(range(1, 13))])
    assert record == {
        "blocks": [list(range(1, 13))],
        "n_atoms": 12,
        "n_events": 4096,
        "skipped": "size",
    }


def test_a_large_atom_label_costs_no_quadratic_table(monkeypatch):
    # atoms 3..199999 lie in no block, and the block list is rejected from
    # its atoms alone: no elimination runs, and a row per label up to
    # 200000 would be a 200001 x 200001 table
    monkeypatch.setattr(finite, "rref", lambda *args: pytest.fail("rref called"))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="atom 3 is in no block"):
            classify([(1, 2), (2, 200000)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


# one malformed block list of each kind, and what its error names
MALFORMED = {
    "no blocks": ([], "no blocks"),
    "empty block": ([(1, 2), ()], "empty block"),
    "repeated atom": ([(1, 2), (2, 3, 2)], r"repeated atom in block \(2, 2, 3\)"),
    "atom 0": ([(0, 1, 2)], r"atom 0 of block \(0, 1, 2\) is below 1"),
    "gap": ([(1, 2), (2, 4)], "atom 3 is in no block"),
}


@pytest.mark.parametrize("kind", MALFORMED)
def test_a_malformed_block_list_is_rejected_before_a_logic_is_built(
    monkeypatch, tmp_path, capsys, kind
):
    # read, built or classified, each kind raises ValueError; the command
    # reports it as a usage error, exit 2, without building a logic
    blocks, match = MALFORMED[kind]
    text = "".join([f"block: {' '.join(map(str, b))}\n" for b in blocks])
    with pytest.raises(ValueError, match=match):
        finite.FiniteLogic(blocks)
    with pytest.raises(ValueError, match=match):
        finite.read_blocks(text)
    with pytest.raises(ValueError, match=match):
        classify(blocks)
    path = tmp_path / "malformed.txt"
    path.write_text(text)
    monkeypatch.setattr(search, "FiniteLogic", lambda *args: pytest.fail("logic built"))
    with pytest.raises(SystemExit) as exit_:
        main(["classify", "--logic", str(path)])
    assert exit_.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and re.search(match, err)


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


def test_classify_fails_a_logic_without_states(tmp_path, capsys):
    # the block relations of these blocks are inconsistent and collapse every
    # event into 0 = 1: one event and no state, which is not UCP
    record = classify([(1,), (1, 2), (2,)])
    assert record == {
        "blocks": [[1], [1, 2], [2]],
        "n_atoms": 2,
        "n_events": 1,
        "os_pass": True,
        "n_states": 0,
        "uc1_pass": False,
        "failure": {"stage": "UC1", "witness": "logic admits no states"},
    }
    path = tmp_path / "stateless.txt"
    path.write_text("block: 1\nblock: 1 2\nblock: 2\n")
    assert main(["classify", "--logic", str(path)]) == 1
    assert capsys.readouterr().out == json.dumps(record, sort_keys=True) + "\n"


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


# sha256 of `ucplab search ... --out` for each argument string
PINNED_JSONL = {
    "--max-atoms 3": "d6da1155a714cdde07df6e035fef091aa280072dc9b9c81d346b44fd11baf616",
    "--max-atoms 4 --blocks 2": "d3352ca02a7b1e7ae4273dff4c18b18afd75a3aa16dc2263e03ee8ef170bb4cc",
    "--max-atoms 5 --blocks 2": "c5cca0902d2f1dcd599a1c0604f3612831fc6e04a142d66a499c60ba43f7efaf",
    "--max-atoms 6 --blocks 4 --block-size-min 2 --block-size-max 2": (
        "5f7ac5ce60e878a82f5e351c874a51ef9abc20463edfcc53e5b74f22615592f3"
    ),
    # 6 classes: 1 fails OS, 4 fail UC2, 1 has unique conditionals
    "--max-atoms 7 --blocks 3 --block-size-max 3": (
        "27bcef035bcbe9b543e3a469f21597e9b8c5c82cfef8108fed1ca4bed8c1380d"
    ),
    # 54 classes: 32 fail OS3, 20 fail UC2-uniqueness, 2 are UCP (both Boolean)
    "--max-atoms 10 --blocks 5 --block-size-min 3 --block-size-max 3": (
        "5b2d8d0c160b8e998ff85364c5d125ca6c463a959460200299f287fc9c1dc33a"
    ),
}


WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tier1.yml"


def test_workflow_digests_are_the_pinned_ones():
    # the numpy-free CI job copies digests from this file; a re-pin must
    # update both sides.  Plain `re`: the CI test job installs no PyYAML.
    text = WORKFLOW.read_text()
    digests = re.findall(r"\b[0-9a-f]{64}\b", text)
    assert len(digests) >= 3
    pinned = {*PINNED_JSONL.values(), *[d for _, d in PINNED_ENUMERATIONS.values()], PENTAGON_SHA256}
    for digest in digests:
        assert digest in pinned
    # the job writes the pentagon file that PENTAGON_SHA256 is the record of
    assert "printf '" + PENTAGON_TEXT.replace("\n", "\\n") + "'" in text


def _search_config(args):
    """The `SearchConfig` of a `ucplab search` argument string."""
    parsed = build_parser().parse_args(["search", *args.split()])
    return SearchConfig(
        parsed.max_atoms, parsed.blocks, parsed.block_size_min, parsed.block_size_max
    )


def _weights(row):
    """The weight vector of a state row (W, W w_1, ..., W w_n)."""
    return tuple(Fraction(v, row[0]) for v in row[1:])


@pytest.mark.parametrize("args", PINNED_JSONL)
def test_solver_rows_are_the_state_rows_of_their_weights(args):
    # the exact layer keeps every state as an integer row; each must be the
    # `state_row` of its weights, so in lowest terms.  Conditionals are
    # checked below 10 atoms, where all of them take 3 s.
    for n_atoms, blocks in enumerate_logics(_search_config(args)):
        logic = finite.FiniteLogic(blocks)
        states = logic.vertex_values()[0]
        assert [_weights(row) for row in states] == logic.state_vertices()
        assert states == [logic.state_row(w) for w in logic.state_vertices()]
        if n_atoms >= 10:
            continue
        for e in logic.events:
            at_vertices, at_barycentre = logic.event_conditionals(e)
            for cond in [*at_vertices.values(), at_barycentre or []]:
                assert cond == [logic.state_row(_weights(row)) for row in cond]


@pytest.mark.parametrize("args", PINNED_JSONL)
def test_search_jsonl_digest_is_pinned(tmp_path, capsys, args):
    out = tmp_path / "records.jsonl"
    assert main(["search", *args.split(), "--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED_JSONL[args]
    # over the full state polytope every UCP logic found so far is Boolean
    records = [json.loads(line) for line in out.read_text().splitlines()[:-1]]
    ucp = [r for r in records if r.get("uc2_pass")]
    assert ucp and all(r["n_events"] == 2 ** r["n_states"] for r in ucp)


def _pinned_configs():
    """Every configuration pinned or oracle-checked in this module."""
    yield from map(_search_config, PINNED_JSONL)
    yield from PINNED_ENUMERATIONS
    yield from ORACLE_CONFIGS


def _pasting_event_count(n_atoms, blocks):
    """Events of the pasting of the blocks: 0, 1, each atom, each atom's
    complement, and each other subset of a block."""
    inner = {
        frozenset(s)
        for b in blocks
        for size in range(2, len(b) - 1)
        for s in itertools.combinations(b, size)
    }
    return 2 + 2 * n_atoms + len(inner)


def _has_3_loop(blocks):
    """Three blocks that meet pairwise in three distinct atoms."""
    return any(
        len({x, y, z}) == 3
        for a, b, c in itertools.combinations(map(set, blocks), 3)
        for x in a & b
        for y in b & c
        for z in c & a
    )


def test_os3_fails_exactly_on_proper_pastings_with_a_3_loop():
    # Greechie's loop lemma (J. Combin. Theory A 10, 1971): blocks that meet
    # in at most one atom and form no loop of order 3 paste to an
    # orthomodular poset, and a 3-loop breaks OS3.  The lab identifies events
    # whose functionals agree, so the lemma speaks only of the block lists
    # where it keeps every event of the pasting.  This oracle shares no code
    # with the OS3 walk of `check_os_axioms`.
    tally = {True: 0, False: 0}
    for config in _pinned_configs():
        for n_atoms, blocks in enumerate_logics(config):
            logic = finite.FiniteLogic(blocks)
            if len(logic.events) != _pasting_event_count(n_atoms, blocks):
                continue
            loop = _has_3_loop(blocks)
            report = finite.check_os_axioms(logic)
            assert report.passed != loop, (blocks, report)
            assert report.passed or report.axiom == "OS3", (blocks, report)
            tally[loop] += 1
    # both sides of the lemma are reached: 459 proper pastings, counted once
    # per configuration; 2-atom blocks give none
    assert tally == {True: 307, False: 152}
