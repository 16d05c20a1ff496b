"""Exact rational checks on finite block-pasted logics."""

from fractions import Fraction

import pytest

from ucplab.finite import (
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

F = Fraction
BOOLEAN3 = [(1, 2, 3)]
PASTED = [(1, 2, 3), (3, 4, 5)]


def test_rref_exactness():
    rows, pivots = rref([[F(2), F(4)], [F(1), F(2)]])
    assert rows == [[F(1), F(2)]]
    assert pivots == [0]


def test_polytope_vertices_simplex():
    # w1 + w2 + w3 = 1, w >= 0: the three unit vectors.
    verts = polytope_vertices([[F(1), F(1), F(1)]], [F(1)], 3)
    assert verts == [
        (F(0), F(0), F(1)),
        (F(0), F(1), F(0)),
        (F(1), F(0), F(0)),
    ]


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
    report = check_os_axioms(FiniteLogic([(1, 1)]))
    assert not report.passed


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
            assert table[(e.key, vi)] == (F(1), F(0), F(0))


def test_cached_tables_match_direct_evaluation():
    logic = FiniteLogic(PASTED)
    verts = logic.state_vertices()
    values = logic.event_values()
    assert values == {e.key: tuple(logic.evaluate(v, e) for v in verts) for e in logic.events}
    conditionals = logic.conditional_vertices()
    expected = {
        (e.key, vi): conditional_state_vertices(logic, v, e)
        for e in logic.events
        for vi, v in enumerate(verts)
        if logic.evaluate(v, e) > 0
    }
    assert conditionals == expected
    assert list(conditionals) == list(expected)  # event-then-vertex order
    assert logic.event_values() is values and logic.conditional_vertices() is conditionals


def test_text_roundtrip():
    logic = FiniteLogic(PASTED)
    text = logic.to_text()
    again = FiniteLogic.from_text(text + "# trailing comment\n")
    assert again.blocks == logic.blocks
    assert len(again.events) == len(logic.events)


def test_from_text_rejects_garbage():
    with pytest.raises(ValueError):
        FiniteLogic.from_text("not a block line")
    with pytest.raises(ValueError):
        FiniteLogic.from_text("block: 0 1")
