"""Exact rational checks on finite block-pasted logics."""

import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ucplab import finite
from ucplab.finite import (
    CheckReport,
    FiniteLogic,
    SumUndefinedError,
    check_os_axioms,
    check_uc1,
    check_uc2,
    conditional_state_vertices,
    conditional_table,
    polytope_vertices,
    rref,
)
from ucplab.search import SearchConfig, enumerate_logics

F = Fraction
BOOLEAN3 = [(1, 2, 3)]
BOOLEAN4 = [(1, 2, 3, 4)]
PASTED = [(1, 2, 3), (3, 4, 5)]
TRIANGLE = [(1, 2, 5), (2, 3, 6), (1, 3, 4)]
SQUARE = [(1, 2), (2, 3), (3, 4), (4, 1)]  # a 4-cycle of 2-atom blocks
REPEATED_ATOM = [(1, 1)]
PENTAGON = [(1, 2, 3), (3, 4, 5), (5, 6, 7), (7, 8, 9), (9, 10, 1)]  # Wright's pentagon


def _weights(row):
    """The weight vector of a state row (W, W w_1, ..., W w_n)."""
    return tuple(F(v, row[0]) for v in row[1:])


def _dot(row, state):
    return sum(k * s for k, s in zip(row, state))


def _state_row(weights):
    """`FiniteLogic.state_row` of a weight vector, on the Boolean logic of its atoms."""
    return FiniteLogic([range(1, len(weights) + 1)]).state_row(weights)


def representatives(logic):
    """{event: its representatives}, from `event_by_atoms` on every subset of
    every block; each event's stored atoms must be its least representative,
    fewest atoms first, then the least sorted tuple."""
    reps = {e: set() for e in logic.events}
    for b in logic.blocks:
        for r in range(len(b) + 1):
            for sub in combinations(b, r):
                reps[logic.event_by_atoms(sub)].add(frozenset(sub))
    for e, sets in reps.items():
        assert e.atoms == min([tuple(sorted(s)) for s in sets], key=lambda t: (len(t), t))
    return reps


def test_rref_exactness():
    rows, pivots = rref([[2, 4], [1, 2]])
    assert rows == [[2, 4]]
    assert pivots == [0]


def test_polytope_vertices_simplex():
    # w1 + w2 + w3 = 1, w >= 0: the three unit vectors.
    verts = polytope_vertices([[1, 1, 1]], [[1, 1]], 3)[0]
    assert verts == [(1, 0, 0, 1), (1, 0, 1, 0), (1, 1, 0, 0)]
    assert verts == [_state_row(_weights(v)) for v in verts]


def test_polytope_vertices_inconsistent_system_is_empty():
    assert polytope_vertices([[1, 1], [1, 1]], [[1, 1, 2]], 2)[0] == []


def test_polytope_vertices_negative_only_solution_is_empty():
    # w1 + w2 = 1 and w1 = 2 force w2 = -1.
    assert polytope_vertices([[1, 1], [1, 0]], [[1, 1, 2]], 2)[0] == []


def test_polytope_vertices_rank_zero_is_the_origin():
    origin = [(1, 0, 0, 0)]
    assert polytope_vertices([], [[1]], 3)[0] == origin
    assert polytope_vertices([[0, 0, 0]], [[1, 0]], 3)[0] == origin
    assert polytope_vertices([[0, 0, 0]], [[5, 0]], 3)[0] == origin


def test_polytope_vertices_degenerate_vertex_once_and_sorted():
    # w1 + w2 = 1, w1 + w3 = 1: supports {1, 2} and {1, 3} both give
    # (1, 0, 0) and are tried before {2, 3}, which gives (0, 1, 1).
    verts = polytope_vertices([[1, 1, 0], [1, 0, 1]], [[1, 1, 1]], 3)[0]
    assert verts == [(1, 0, 1, 1), (1, 1, 0, 0)]
    # the order is by weights, not by rows: w1 + 2 w2 = 1 has (0, 1/2) first
    assert polytope_vertices([[1, 2]], [[1, 1]], 2)[0] == [(2, 0, 1), (1, 1, 0)]


def test_polytope_vertices_solves_many_columns_at_once():
    # the one-column cases above as right-hand sides (c, c b) of one matrix:
    # degenerate, inconsistent, negative-only and zero (rank 2, so not the
    # origin here), and b = (2/3, 1) given with c = 3
    rows = [[1, 1, 0], [1, 0, 1]]
    columns = [[1, 1, 1], [1, 1, 2], [1, -1, 1], [1, 0, 0], [1, 2, 3], [3, 2, 3]]
    together = polytope_vertices(rows, columns, 3)
    assert together == [polytope_vertices(rows, [b], 3)[0] for b in columns]
    assert together[0] == [(1, 0, 1, 1), (1, 1, 0, 0)]
    assert together[2] == [] and together[3] == [(1, 0, 0, 0)]
    # b = (2/3, 1): w = (0, 2/3, 1) or (2/3, 0, 1/3), both in lowest terms
    assert together[5] == [(3, 0, 2, 3), (3, 2, 0, 1)]
    assert [[_weights(v) for v in vs] for vs in together[5:]] == [
        [(F(0), F(2, 3), F(1)), (F(2, 3), F(0), F(1, 3))]
    ]
    # every vertex row is the state row of its weights, sorted by weights
    for vertices in together:
        weights = [_weights(v) for v in vertices]
        assert weights == sorted(weights)
        assert vertices == [_state_row(w) for w in weights]
    # an inconsistent column next to consistent ones of the same matrix
    rows = [[1, 1], [1, 1]]
    columns = [[1, 1, 2], [1, 1, 1], [1, 2, 2]]
    assert polytope_vertices(rows, columns, 2) == [
        [],
        [(1, 0, 1), (1, 1, 0)],
        [(1, 0, 2), (1, 2, 0)],
    ]
    # rank zero: every column is the origin
    assert polytope_vertices([], [[1], [2]], 3) == [[(1, 0, 0, 0)]] * 2


def test_boolean_logic_structure():
    logic = FiniteLogic(BOOLEAN3)
    assert len(logic.events) == 8  # all subsets of three atoms
    assert logic.zero_event.label() == "{}"
    assert logic.one_event == logic.event_by_atoms({1, 2, 3})
    e = logic.event_by_atoms({1})
    assert logic.complement(e) == logic.event_by_atoms({2, 3})
    assert logic.orthogonal(e, logic.event_by_atoms({2}))
    assert not logic.orthogonal(e, e)
    total = logic.sum(e, logic.event_by_atoms({2, 3}))
    assert total == logic.one_event


@pytest.mark.parametrize("blocks", [BOOLEAN3, PASTED, TRIANGLE, SQUARE], ids=str)
def test_every_lookup_returns_the_event_at_its_position(blocks):
    # an event is identified by its position: each lookup hands back the one
    # object stored in `events`, so identity is equality within a logic
    logic = FiniteLogic(blocks)
    events = logic.events
    assert [e.index for e in events] == list(range(len(events)))
    assert logic.zero_event is events[logic.zero_event.index]
    assert logic.one_event is events[logic.one_event.index]
    for e, reps in representatives(logic).items():
        assert reps and all(logic.event_by_atoms(rep) is e for rep in reps)
        assert logic.event_by_atoms(e.atoms) is e
        assert logic.complement(e) is events[logic.complement(e).index]
        for f in events:
            try:
                total = logic.sum(e, f)
            except SumUndefinedError:
                continue
            assert total is events[total.index]


def test_events_of_two_logics_are_distinct():
    # equal blocks build equal tables, but no event is shared between logics
    first, second = FiniteLogic(BOOLEAN3), FiniteLogic(BOOLEAN3)
    assert first.key_rows == second.key_rows
    assert all(e != f for e, f in zip(first.events, second.events))
    assert len({*first.events, *second.events}) == 2 * len(first.events)


def test_boolean_logic_passes_everything():
    logic = FiniteLogic(BOOLEAN3)
    assert check_os_axioms(logic).passed
    assert check_uc1(logic).passed
    assert check_uc2(logic).passed
    assert len(logic.state_vertices()) == 3


def test_boolean_conditional_oracle():
    # uniform state conditioned on {1,2} puts weight 1/2 on each of 1, 2.
    logic = FiniteLogic(BOOLEAN3)
    uniform = (F(1, 3), F(1, 3), F(1, 3))
    e = logic.event_by_atoms({1, 2})
    verts = conditional_state_vertices(logic, uniform, e)
    assert verts == [(F(1, 2), F(1, 2), F(0))]


def test_pasted_logic_identifications():
    # {1,2} and {4,5} are the same event: both are complements of atom 3.
    logic = FiniteLogic(PASTED)
    assert len(logic.events) == 12
    assert logic.event_by_atoms({1, 2}) == logic.event_by_atoms({4, 5})
    assert logic.event_by_atoms({1, 2, 3}) == logic.one_event
    assert logic.complement(logic.event_by_atoms({3})) == logic.event_by_atoms({1, 2})


def test_pasted_logic_passes_os_and_uc1():
    logic = FiniteLogic(PASTED)
    assert check_os_axioms(logic).passed
    assert check_uc1(logic).passed
    assert len(logic.state_vertices()) == 5


def test_pasted_logic_fails_uc2_uniqueness():
    # Conditioning a vertex state on atom {1} pins the weights of block
    # one only; w4 + w5 = 1 stays free, so the conditional is not unique.
    logic = FiniteLogic(PASTED)
    report = check_uc2(logic)
    assert not report.passed
    assert report.axiom == "UC2-uniqueness"
    bad = [d for d in report.details if not d["unique"]]
    assert bad and all(d["exists"] for d in report.details)
    assert len(bad[0]["witnesses"]) == 2  # two distinct conditional states named


def test_uc1_failure_witness():
    # A block with a strict sub-block: atoms 3 and 4 get weight zero in
    # every state, so the states cannot separate them.
    logic = FiniteLogic([(1, 2, 3, 4), (1, 2)])
    assert check_os_axioms(logic).passed
    report = check_uc1(logic)
    assert not report.passed
    # atom 3 carries weight zero in every state, so it collapses onto the
    # zero event as far as the states can tell
    assert "{3}" in report.witness and "{}" in report.witness


def test_os_failure_triangle():
    # Greechie triangle: three blocks pairwise sharing an atom admit no
    # orthocomplemented sum structure.
    logic = FiniteLogic([(1, 2, 5), (2, 3, 6), (1, 3, 4)])
    report = check_os_axioms(logic)
    assert not report.passed


def test_os_failure_repeated_atom_block():
    report = check_os_axioms(FiniteLogic(REPEATED_ATOM))
    assert not report.passed


def oracle_os_axioms(logic):
    """The six orthogonality-space axioms as direct loops over the public
    `orthogonal`, `sum` and `complement`, triple loops for OS3 and OS6."""

    def fail(axiom, witness):
        return CheckReport(False, axiom, witness)

    for b in logic.raw_blocks:
        if len(b) == 0:
            return fail("structure", "empty block")
        if len(set(b)) != len(b):
            return fail("structure", f"repeated atom in block {b}: a nonzero event would be orthogonal to itself")
    if not logic.blocks:
        return fail("structure", "no blocks")
    covered = {a for b in logic.blocks for a in b}
    if covered != set(range(1, logic.n + 1)):
        return fail("structure", "atoms not covered by any block")

    events = logic.events
    one = logic.one_event
    zero = logic.zero_event

    for e in events:
        for f in events:
            if logic.orthogonal(e, f) != logic.orthogonal(f, e):
                return fail("OS1", f"{e.label()} vs {f.label()}")

    for e in events:
        for f in events:
            if logic.orthogonal(e, f):
                try:
                    s1 = logic.sum(e, f)
                    s2 = logic.sum(f, e)
                except SumUndefinedError as exc:
                    return fail("OS2", f"{e.label()} + {f.label()}: {exc}")
                if s1 != s2:
                    return fail("OS2", f"{e.label()} + {f.label()} not commutative")

    for g in events:
        for e in events:
            if not logic.orthogonal(g, e):
                continue
            for f in events:
                if not (logic.orthogonal(g, f) and logic.orthogonal(e, f)):
                    continue
                ef = logic.sum(e, f)
                ge = logic.sum(g, e)
                if not logic.orthogonal(g, ef):
                    return fail("OS3", f"{g.label()} not orthogonal to {e.label()}+{f.label()}")
                if not logic.orthogonal(f, ge):
                    return fail("OS3", f"{f.label()} not orthogonal to {g.label()}+{e.label()}")
                if logic.sum(g, ef) != logic.sum(ge, f):
                    return fail("OS3", f"associativity at {g.label()},{e.label()},{f.label()}")

    for e in events:
        if not logic.orthogonal(zero, e) or logic.sum(e, zero) != e:
            return fail("OS4", e.label())

    for e in events:
        partners = [d for d in events if logic.orthogonal(e, d) and logic.sum(e, d) == one]
        if len(partners) != 1:
            return fail("OS5", f"{e.label()} has {len(partners)} complements")

    for e in events:
        for f in events:
            solvable = any(logic.orthogonal(e, d) and logic.sum(e, d) == f for d in events)
            if solvable != logic.orthogonal(e, logic.complement(f)):
                return fail("OS6", f"{e.label()}, {f.label()}")

    return CheckReport(True)


OS_ORACLE_LOGICS = [
    *(blocks for _, blocks in enumerate_logics(SearchConfig(6, 4, 2, 2))),
    *(blocks for _, blocks in enumerate_logics(SearchConfig(7, 3, 3, 3))),
    TRIANGLE,
    REPEATED_ATOM,
    PENTAGON,
]


@pytest.mark.parametrize("blocks", OS_ORACLE_LOGICS, ids=str)
def test_os_check_matches_triple_loop_oracle(blocks):
    logic = FiniteLogic(blocks)
    report, expected = check_os_axioms(logic), oracle_os_axioms(logic)
    assert (report.passed, report.axiom, report.witness) == (
        expected.passed,
        expected.axiom,
        expected.witness,
    )


def assert_tables_match_the_representatives(logic):
    """orthogonal: disjoint representatives inside one block; sum: the event
    with their union as a representative, one for all such unions;
    complement: the rest of a block around a representative."""
    reps = representatives(logic)
    owner = {s: e for e, sets in reps.items() for s in sets}
    for e in logic.events:
        for f in logic.events:
            unions = {
                owner[s | t]
                for s in reps[e]
                for t in reps[f]
                if not s & t and any(s | t <= set(b) for b in logic.blocks)
            }
            assert logic.orthogonal(e, f) == bool(unions)
            if unions:
                assert unions == {logic.sum(e, f)}
            else:
                with pytest.raises(SumUndefinedError):
                    logic.sum(e, f)
        rest = {owner[frozenset(b) - s] for s in reps[e] for b in logic.blocks if s <= set(b)}
        assert rest == {logic.complement(e)}


@pytest.mark.parametrize("blocks", [BOOLEAN3, PASTED, TRIANGLE, SQUARE, PENTAGON], ids=str)
def test_position_tables_match_the_representatives(blocks):
    assert_tables_match_the_representatives(FiniteLogic(blocks))


def _compact(blocks):
    """The blocks with their atoms renumbered 1..k in order, so they cover."""
    label = {a: i for i, a in enumerate(sorted({a for b in blocks for a in b}), start=1)}
    return [tuple(label[a] for a in b) for b in blocks]


# any block list: blocks of 1-4 distinct atoms over at most 7, overlapping
# in any number of atoms, repeated or nested
ANY_BLOCKS = st.lists(
    st.lists(st.integers(1, 7), min_size=1, max_size=4, unique=True), min_size=1, max_size=4
).map(_compact)


@settings(max_examples=150, deadline=None)
@given(ANY_BLOCKS)
def test_os_proofs_hold_on_any_block_list(blocks):
    # check_os_axioms tests only OS3's two orthogonalities; its docstring
    # proves the rest for every block list, and the oracle tests all six
    logic = FiniteLogic(blocks)
    report, expected = check_os_axioms(logic), oracle_os_axioms(logic)
    assert (report.passed, report.axiom, report.witness) == (
        expected.passed,
        expected.axiom,
        expected.witness,
    )
    assert report.axiom in ("", "OS3")
    assert_tables_match_the_representatives(logic)


def test_os_check_sums_each_orthogonal_pair_at_most_once(monkeypatch):
    # OS3 reads the position tables, built once by one walk over the blocks;
    # a loop that asked `orthogonal` or `sum` per triple would make far more
    # calls
    calls = []
    for name in ("sum", "orthogonal", "tables"):
        original = getattr(FiniteLogic, name)

        def counted(self, *args, _original=original, _name=name):
            calls.append(_name)
            return _original(self, *args)

        monkeypatch.setattr(FiniteLogic, name, counted)
    logic = FiniteLogic(BOOLEAN4)
    assert check_os_axioms(logic).passed
    assert calls == ["tables"]
    pairs = sum(logic.orthogonal(e, f) for e in logic.events for f in logic.events)
    assert pairs == 3**4  # each atom in e, in f or in neither


@pytest.mark.parametrize("atom", [0, -1, 4])
def test_event_by_atoms_rejects_atoms_outside_the_logic(atom):
    # 0 would read the constant slot c0 (the unit event), -1 the last atom's
    # slot, and 4 would index past the row
    logic = FiniteLogic(BOOLEAN3)
    with pytest.raises(KeyError, match="is not an event of this logic"):
        logic.event_by_atoms({atom})
    with pytest.raises(KeyError):
        logic.event_by_atoms({1, atom})


def test_sum_undefined_for_non_orthogonal():
    logic = FiniteLogic(BOOLEAN3)
    e = logic.event_by_atoms({1, 2})
    with pytest.raises(SumUndefinedError):
        logic.sum(e, logic.event_by_atoms({2}))


def test_conditional_table_boolean():
    logic = FiniteLogic(BOOLEAN3)
    table = conditional_table(logic)
    e = logic.event_by_atoms({1})
    verts = logic.state_vertices()
    for vi, v in enumerate(verts):
        if logic.evaluate(v, e) > 0:
            assert table[(e.index, vi)] == (1, 1, 0, 0)


@pytest.mark.parametrize("blocks", [BOOLEAN3, BOOLEAN4, PASTED, TRIANGLE, SQUARE], ids=str)
def test_cached_tables_match_direct_evaluation(blocks):
    logic = FiniteLogic(blocks)
    verts = logic.state_vertices()
    values = logic.vertex_values()
    _, numerators, scales = values
    assert [[F(p, scale) for p, scale in zip(row, scales)] for row in numerators] == [
        [logic.evaluate(v, e) for v in verts] for e in logic.events
    ]
    cached = [logic.event_conditionals(e) for e in logic.events]
    conditionals = {
        (e.index, vi): cond
        for e, (by_vertex, _) in zip(logic.events, cached)
        for vi, cond in by_vertex.items()
    }
    expected = {
        (e.index, vi): [logic.state_row(w) for w in conditional_state_vertices(logic, v, e)]
        for e in logic.events
        for vi, v in enumerate(verts)
        if logic.evaluate(v, e) > 0
    }
    assert conditionals == expected
    assert list(conditionals) == list(expected)  # event-then-vertex order
    unique = {key: cond[0] for key, cond in expected.items() if len(cond) == 1}
    table = conditional_table(logic)
    assert table == unique and list(table) == list(unique)
    assert logic.vertex_values() is values
    assert all(logic.event_conditionals(e) is c for e, c in zip(logic.events, cached))


def definition_conditionals(logic, e):
    """What `event_conditionals(e)` must return, solved from the definition:
    a conditional of mu under e is a state nu with nu(f) = mu(f) / mu(e) for
    every sub-event f of e, the events orthogonal to e' in `tables`.  Each f
    adds its key-row equation k_f . w = K nu(f) - k0_f over all n atoms,
    scaled by the numerator mu_e of mu(e), to the block rows."""
    verts = logic.state_vertices()
    if not verts:
        return {}, None
    orth, _, comp = logic.tables()
    subs = [row for f, row in enumerate(logic.key_rows) if orth[f][comp[e.index]]]
    rows = logic.block_rows() + [list(row[1:]) for row in subs]
    mean = [sum(v[a] for v in verts) / len(verts) for a in range(logic.n)]
    states = [logic.state_row(v) for v in verts] + [logic.state_row(mean)]
    assert logic._barycentre() == states[-1]
    at, columns = [], []
    for i, state in enumerate(states):
        pe = _dot(logic.key_rows[e.index], state)
        if pe > 0:
            at.append(i)
            columns.append(
                [pe] * (len(logic.blocks) + 1)
                + [logic.key_scale * _dot(row, state) - row[0] * pe for row in subs]
            )
    if not at:
        return {}, None
    *at_vertices, at_barycentre = polytope_vertices(rows, columns, logic.n)
    assert at[-1] == len(verts)  # the barycentre is in e where a vertex is
    return dict(zip(at, at_vertices)), at_barycentre


def assert_conditionals_match_the_definition(logic):
    for e in logic.events:
        assert logic.event_conditionals(e) == definition_conditionals(logic, e)


@pytest.mark.parametrize("blocks", [BOOLEAN3, BOOLEAN4, PASTED, TRIANGLE, SQUARE], ids=str)
def test_conditionals_match_the_definition(blocks):
    assert_conditionals_match_the_definition(FiniteLogic(blocks))


# the configurations of PINNED_JSONL in test_search.py below 10 atoms
PINNED_CONFIGS = [
    SearchConfig(3),
    SearchConfig(4, 2),
    SearchConfig(5, 2),
    SearchConfig(6, 4, 2, 2),
    SearchConfig(7, 3, 3, 3),
]


@pytest.mark.parametrize("config", PINNED_CONFIGS, ids=str)
def test_conditionals_of_the_pinned_searches_match_the_definition(config):
    for n_atoms, blocks in enumerate_logics(config):
        assert_conditionals_match_the_definition(FiniteLogic(blocks, n_atoms))


@settings(max_examples=100, deadline=None)
@given(ANY_BLOCKS, st.integers(0, 2))
def test_conditionals_of_any_block_list_match_the_definition(blocks, unused):
    # `unused` atoms past the blocks lie in no block; many lists fail OS3
    n_atoms = max(a for b in blocks for a in b) + unused
    assert_conditionals_match_the_definition(FiniteLogic(blocks, n_atoms))


STATELESS = [(1,), (1, 2), (2,)]  # inconsistent relations collapse every event into one
NESTED = [(1, 2), (2,)]  # the unit is {2} and {1, 2}; (1, 2) sorts first by tuple alone


def reduced_key_rows(blocks, n_atoms=None):
    """(K, key rows, {subset: position}, names) of a block list, each block
    subset reduced on its own: its 0/1 functional (0, 1_s) is reduced in
    Fractions by each `rref` row r of the relations -1 + sum_b w = 0 in turn,
    vec - (vec[p] / r[p]) r at r's pivot p.  K is the lcm of the reduced
    functionals' denominators, the rows are K times them, sorted, and each
    event is named by its representative with the fewest atoms, then the
    least tuple."""
    blocks = [tuple(sorted(set(b))) for b in blocks]
    n = n_atoms if n_atoms is not None else max([a for b in blocks for a in b], default=0)
    basis, pivots = rref([[-1] + [int(a in b) for a in range(1, n + 1)] for b in blocks])
    functional = {}
    for b in blocks:
        for r in range(len(b) + 1):
            for sub in combinations(b, r):
                vec = [F(int(a in sub)) for a in range(n + 1)]
                for row, p in zip(basis, pivots):
                    factor = vec[p] / row[p]
                    vec = [v - factor * w for v, w in zip(vec, row)]
                functional[sub] = tuple(vec)
    scale = math.lcm(*[v.denominator for vec in functional.values() for v in vec])
    rows = sorted({tuple(int(v * scale) for v in vec) for vec in functional.values()})
    position = {row: i for i, row in enumerate(rows)}
    event_of, names = {}, {}
    for sub, vec in sorted(functional.items(), key=lambda item: (len(item[0]), item[0])):
        i = position[tuple(int(v * scale) for v in vec)]
        event_of[frozenset(sub)] = i
        names.setdefault(i, sub)
    return scale, rows, event_of, [names[i] for i in range(len(rows))]


def assert_events_match_the_reduction(blocks, n_atoms=None):
    logic = FiniteLogic(blocks, n_atoms)
    scale, rows, event_of, names = reduced_key_rows(blocks, n_atoms)
    assert logic.key_scale == scale
    assert logic.key_rows == rows
    assert logic._event_of == event_of
    assert [e.atoms for e in logic.events] == names


@pytest.mark.parametrize(
    "blocks",
    [BOOLEAN3, BOOLEAN4, PASTED, TRIANGLE, SQUARE, PENTAGON, STATELESS, NESTED, REPEATED_ATOM],
    ids=str,
)
def test_atom_rows_sum_to_the_reduced_rows_of_every_subset(blocks):
    assert_events_match_the_reduction(blocks)


@pytest.mark.parametrize("config", PINNED_CONFIGS, ids=str)
def test_atom_rows_sum_to_the_reduced_rows_on_the_pinned_searches(config):
    for n_atoms, blocks in enumerate_logics(config):
        assert_events_match_the_reduction(blocks, n_atoms)


@settings(max_examples=150, deadline=None)
@given(ANY_BLOCKS, st.integers(0, 2))
def test_atom_rows_sum_to_the_reduced_rows_on_any_block_list(blocks, unused):
    # nested and repeated blocks; `unused` atoms lie in no block
    assert_events_match_the_reduction(blocks, max(a for b in blocks for a in b) + unused)


def test_an_event_with_every_atom_pinned_is_solved_without_elimination(monkeypatch):
    # on the triangle of 2-atom blocks the only state is (1/2, 1/2, 1/2),
    # and {1} = {2} = {3} is one event, its own complement, so every atom
    # is pinned to mu(a) / mu({1}) = 1.  No unknown is left, yet every
    # block then sums to 2: there is no conditional.
    logic = FiniteLogic([(1, 2), (1, 3), (2, 3)])
    e = logic.event_by_atoms({1})
    assert logic.vertex_values()[0] == [(2, 1, 1, 1)]
    assert definition_conditionals(logic, e) == ({0: []}, [])
    solves = []
    original = finite.polytope_vertices

    def counted(rows, columns, n):
        solves.append(n)
        return original(rows, columns, n)

    monkeypatch.setattr(finite, "polytope_vertices", counted)
    monkeypatch.setattr(finite, "rref", lambda *args: pytest.fail("rref called"))
    assert logic.event_conditionals(e) == ({0: []}, [])
    assert solves == [0]


def test_polytope_vertices_without_unknowns_eliminates_nothing(monkeypatch):
    monkeypatch.setattr(finite, "rref", lambda *args: pytest.fail("rref called"))
    columns = [[1, 0, 0], [3, 0, 1], [2, -1, 0], [5]]
    assert polytope_vertices([[], []], columns, 0) == [[(1,)], [], [], [(1,)]]


@pytest.mark.parametrize("blocks", [BOOLEAN3, BOOLEAN4, PASTED, TRIANGLE, SQUARE], ids=str)
def test_barycentre_verdict_matches_random_interior_states(blocks):
    # check_uc2's interior claim: where a conditional exists at every vertex
    # state, uniqueness at the barycentre of the state vertices is
    # uniqueness at every state in the relative interior.  Without that
    # hypothesis it can fail: on the triangle, {1,5} has a conditional
    # exactly where w4 >= w2, so at the barycentre but not at every
    # interior state, and at one vertex it has none.
    logic = FiniteLogic(blocks)
    verts = logic.state_vertices()
    rng = random.Random(sum(map(sum, blocks)))
    verdicts = set()
    for e in logic.events:
        at_vertices, at_barycentre = logic.event_conditionals(e)
        if not at_vertices or not all(at_vertices.values()):
            continue
        unique = len(at_barycentre) == 1
        verdicts.add(unique)
        for _ in range(20):
            weights = [F(rng.randint(1, 9)) for _ in verts]
            total = sum(weights)
            mu = tuple(sum(w * v[a] for w, v in zip(weights, verts)) / total for a in range(logic.n))
            assert (len(conditional_state_vertices(logic, mu, e)) == 1) == unique
    assert verdicts == ({False, True} if blocks in (PASTED, TRIANGLE) else {True})


def test_uc2_interior_stage_is_reported_after_every_vertex_passes(monkeypatch):
    # no logic built so far fails only at the barycentre, so feed check_uc2
    # a second conditional there
    logic = FiniteLogic(BOOLEAN3)
    solve = logic.event_conditionals
    e = logic.event_by_atoms({1, 2})
    second = (1, 0, 0, 1)

    def split_barycentre(f):
        at_vertices, at_barycentre = solve(f)
        return at_vertices, (at_barycentre + [second] if f == e else at_barycentre)

    monkeypatch.setattr(logic, "event_conditionals", split_barycentre)
    report = check_uc2(logic)
    assert not report.passed
    assert report.axiom == "UC2-interior"
    assert report.witness == "event {1,2}, barycentre state"
    # only failing states are recorded, and every vertex passes
    assert report.details == [
        {
            "event": [1, 2],
            "state_vertex": "barycentre",
            "exists": True,
            "unique": False,
            "conditional": None,
            "witnesses": [["1/2", "1/2", "0"], ["0", "0", "1"]],
        }
    ]


@pytest.mark.parametrize(
    "blocks, n_atoms, atom",
    [
        ([(0, 1, 2)], None, 0),  # would have been the constant slot c0
        ([(-1, 1, 2)], None, -1),  # would have been the last atom's slot
        ([(1, 2, 5)], 3, 5),  # past the declared atom count
    ],
)
def test_atoms_outside_the_logic_are_rejected(blocks, n_atoms, atom):
    with pytest.raises(ValueError, match=rf"atom {atom} of block \({blocks[0][0]}, "):
        FiniteLogic(blocks, n_atoms)


def test_evaluate_rejects_a_weight_vector_of_the_wrong_length():
    logic = FiniteLogic(BOOLEAN3)
    e = logic.event_by_atoms({1})
    assert logic.evaluate((F(1), F(0), F(0)), e) == 1
    for weights in [(F(1),), (F(1), F(0), F(0), F(0))]:
        with pytest.raises(ValueError, match="3 atom weights"):
            logic.evaluate(weights, e)
        with pytest.raises(ValueError, match="3 atom weights"):
            conditional_state_vertices(logic, weights, e)


def test_weights_that_are_not_a_state_are_rejected():
    # a negative weight, or a block whose weights do not sum to 1, is no
    # state: without the check the first gave "no conditional" and the
    # second a conditional (1/2, 1/2, 0) and mu(unit) = 3
    logic = FiniteLogic(BOOLEAN3)
    e = logic.event_by_atoms({1, 2})
    with pytest.raises(ValueError, match="not a state: atom 2 has weight -1 < 0"):
        conditional_state_vertices(logic, (F(2), F(-1), F(0)), e)
    with pytest.raises(ValueError, match=r"not a state: the weights of block \(1, 2, 3\) do not"):
        conditional_state_vertices(logic, (F(1), F(1), F(1)), e)
    with pytest.raises(ValueError, match="do not sum to 1"):
        logic.evaluate((F(1), F(1), F(1)), logic.one_event)


def test_weights_that_are_not_exact_rationals_are_rejected():
    # without the check a float weight failed with AttributeError on
    # `denominator`
    logic = FiniteLogic(BOOLEAN3)
    e = logic.event_by_atoms({1, 2})
    floats = (0.5, 0.5, 0.0)
    with pytest.raises(ValueError, match=r"exact rationals .*atom 1 has 0\.5"):
        logic.evaluate(floats, logic.one_event)
    with pytest.raises(ValueError, match="exact rationals"):
        conditional_state_vertices(logic, floats, e)
    with pytest.raises(ValueError, match="exact rationals"):
        logic.state_row((F(1, 2), F(1, 2), 0.0))
    assert logic.evaluate((1, 0, 0), e) == 1
    assert logic.evaluate((F(1, 2), 0, F(1, 2)), e) == F(1, 2)
    assert logic.state_row((F(1, 2), 0, F(1, 2))) == (2, 1, 0, 1)


def test_text_roundtrip():
    logic = FiniteLogic(PASTED)
    text = logic.to_text()
    again = FiniteLogic.from_text(text + "# trailing comment\n")
    assert finite.read_blocks(text) == PASTED
    assert again.blocks == logic.blocks
    assert len(again.events) == len(logic.events)


def test_from_text_rejects_garbage():
    with pytest.raises(ValueError):
        FiniteLogic.from_text("not a block line")
    with pytest.raises(ValueError):
        FiniteLogic.from_text("block: 0 1")
