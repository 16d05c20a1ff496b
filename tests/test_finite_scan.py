"""The exact interference scan of `finite` against nested-loop oracles.

This module imports only the standard library, pytest, hypothesis and the
exact layer, so it runs where numpy is not installed.
"""

import gc
import random
import re
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ucplab.finite import FiniteLogic, _sorkin_level, conditional_table, finite_I3_scan


def test_finite_scan_boolean_exact_zero():
    report = finite_I3_scan(FiniteLogic([(1, 2, 3)]))
    assert report["max_abs_i2"] == Fraction(0)
    assert report["max_abs_i3"] == Fraction(0)
    assert (report["pairs"], report["triples"]) == (14, 15)


def test_finite_scan_frees_the_logic_without_the_cycle_collector():
    # a reference cycle from the scan would keep the logic and its exact
    # tables alive until the next collection, across a whole search
    logic = FiniteLogic([(1, 2, 3, 4)])
    gc.disable()
    try:
        finite_I3_scan(logic)
        ref = weakref.ref(logic)
        del logic
        assert ref() is None
    finally:
        gc.enable()


def test_finite_scan_pasted_regression():
    # UC2-uniqueness fails on this logic, so its table lacks the
    # conditionals that are not unique, and I2 and I3 are not defined there:
    # the scan refuses the table instead of reporting over what is left
    with pytest.raises(ValueError, match=r"no conditional under event \{1\} at vertex state 3"):
        finite_I3_scan(FiniteLogic([(1, 2, 3), (3, 4, 5)]))


def test_finite_scan_rejects_a_table_with_a_missing_conditional():
    logic = FiniteLogic([(1, 2, 3)])
    table = conditional_table(logic)
    for gi, vi in table:
        incomplete = {key: row for key, row in table.items() if key != (gi, vi)}
        label = re.escape(logic.events[gi].label())
        with pytest.raises(ValueError, match=rf"under event {label} at vertex state {vi},"):
            finite_I3_scan(logic, incomplete)


def oracle_I3_scan(logic, conditionals):
    """The scan as nested loops over Fraction values: re-evaluates every term."""
    verts = logic.state_vertices()
    events = logic.events

    def term(g, vi, mu, f):
        pg = logic.evaluate(mu, g)
        if pg == 0:
            return Fraction(0)
        nu = conditionals[(g.index, vi)]  # a state row (W, W w_1, ..., W w_n)
        return pg * logic.evaluate([Fraction(v, nu[0]) for v in nu[1:]], f)

    def scan_tuples(tuples):
        best = Fraction(0)
        witness = None
        for parts, groups in tuples:
            for vi, mu in enumerate(verts):
                for f in events:
                    total = Fraction(0)
                    for sign, g in groups:
                        total += sign * term(g, vi, mu, f)
                    if abs(total) > abs(best):
                        best = total
                        witness = {
                            "events": [list(p.atoms) for p in parts],
                            "f": list(f.atoms),
                            "state_vertex": vi,
                            "value": str(total),
                        }
        return best, witness

    pair_tuples, triple_tuples = oracle_tuples(logic)
    max_i2, wit_i2 = scan_tuples(pair_tuples)
    max_i3, wit_i3 = scan_tuples(triple_tuples)
    return {
        "max_abs_i2": max_i2,
        "i2_witness": wit_i2,
        "max_abs_i3": max_i3,
        "i3_witness": wit_i3,
        "pairs": len(pair_tuples),
        "triples": len(triple_tuples),
        "vertex_states": len(verts),
    }


def oracle_tuples(logic):
    """(pairs, triples) of mutually orthogonal events as nested loops, each a
    (parts, signed groups) with the groups of I2 and I3 written out."""
    events = logic.events
    pair_tuples = []
    for i, e1 in enumerate(events):
        for e2 in events[i:]:
            if logic.orthogonal(e1, e2):
                pair_tuples.append(((e1, e2), [(1, logic.sum(e1, e2)), (-1, e1), (-1, e2)]))
    triple_tuples = []
    for i, e1 in enumerate(events):
        for j, e2 in enumerate(events[i:], start=i):
            if not logic.orthogonal(e1, e2):
                continue
            s12 = logic.sum(e1, e2)
            for e3 in events[j:]:
                if not (logic.orthogonal(e1, e3) and logic.orthogonal(e2, e3)):
                    continue
                if not logic.orthogonal(s12, e3):
                    continue
                groups = [
                    (1, logic.sum(s12, e3)),
                    (-1, s12),
                    (-1, logic.sum(e1, e3)),
                    (-1, logic.sum(e2, e3)),
                    (1, e1),
                    (1, e2),
                    (1, e3),
                ]
                triple_tuples.append(((e1, e2, e3), groups))
    return pair_tuples, triple_tuples


def perturbed_table(logic, seed):
    """A complete table: every (g, v) with mu_v(g) > 0 sent to a random vertex state row."""
    rng = random.Random(seed)
    states, numerators, _ = logic.vertex_values()
    return {
        (gi, vi): rng.choice(states)
        for gi, row in enumerate(numerators)
        for vi, p in enumerate(row)
        if p > 0
    }


def assert_scan_matches_oracle(logic, table):
    """The scan equals the oracle on a complete table and refuses an incomplete one."""
    if table.keys() == perturbed_table(logic, 0).keys():
        assert finite_I3_scan(logic, table) == oracle_I3_scan(logic, table)
    else:
        with pytest.raises(ValueError, match="no conditional under event"):
            finite_I3_scan(logic, table)


ORACLE_LOGICS = {
    "boolean3": [(1, 2, 3)],
    "boolean4": [(1, 2, 3, 4)],
    "pasting": [(1, 2, 3), (3, 4, 5)],
    "triangle": [(1, 2, 3), (3, 4, 5), (5, 6, 1)],
    "square": [(1, 2), (2, 3), (3, 4), (4, 1)],
    # inconsistent block relations collapse every event into 0 = 1, so the
    # logic has one event and no vertex state
    "stateless": [(1,), (1, 2), (2,)],
    # a triple (a, b, c) of this logic has a + b after c in event order, so
    # the I3 walk must sort the key of I2(a + b, c)
    "sum_after_c": [(5, 1, 2), (3, 2), (4,), (1, 3)],
}


@pytest.mark.parametrize("name", ORACLE_LOGICS)
def test_finite_scan_matches_oracle(name):
    logic = FiniteLogic(ORACLE_LOGICS[name])
    tables = [conditional_table(logic)] + [perturbed_table(logic, seed) for seed in range(2)]
    for table in tables:
        assert_scan_matches_oracle(logic, table)


@pytest.mark.parametrize("name", ORACLE_LOGICS)
def test_sorkin_level_rows_are_the_signed_subset_sums(name):
    # random level-1 vectors, some of them the shared zero and some rows the
    # shared zero row; every row of I2 and I3 must be the signed sum of the
    # oracle's written-out groups, in the oracle's walk order
    logic = FiniteLogic(ORACLE_LOGICS[name])
    rng = random.Random(name)
    n_vertices, zero = 3, [0, 0, 0]
    zero_row = [zero] * n_vertices
    y = {}
    for g in range(len(logic.events)):
        # a nonzero first entry keeps a drawn vector distinct from zero
        row = [
            zero
            if rng.random() < 0.3
            else [rng.choice([-2, -1, 1, 2]), *rng.choices(range(-2, 3), k=2)]
            for _ in range(n_vertices)
        ]
        y[(g,)] = zero_row if rng.random() < 0.2 else row
    sums, _ = logic.tables()
    width = len(logic.events)
    later = [[j for j in range(i, width) if j in sums[i]] for i in range(width)]
    pairs = dict(_sorkin_level(y, later, sums, zero, zero_row))
    triples = dict(_sorkin_level(pairs, later, sums, zero, zero_row))
    for level, tuples in zip((pairs, triples), oracle_tuples(logic)):
        assert list(level) == [tuple(e.index for e in parts) for parts, _ in tuples]
        for (_, groups), row in zip(tuples, level.values()):
            expected = [
                [sum(sign * y[(g.index,)][vi][c] for sign, g in groups) for c in range(3)]
                for vi in range(n_vertices)
            ]
            assert row == expected
            assert all(x is zero for x in row if not any(x))
            assert (row is zero_row) == (not any(map(any, row)))


def test_finite_scan_oracle_cases_reach_signed_witnesses():
    # The real tables give zeros everywhere; the perturbed ones must exercise
    # the signed maxima and the witness values.
    logic = FiniteLogic(ORACLE_LOGICS["boolean4"])
    reports = [finite_I3_scan(logic, perturbed_table(logic, seed)) for seed in range(2)]
    assert any(r["max_abs_i2"] < 0 for r in reports)
    assert any(r["max_abs_i3"] < 0 and r["i3_witness"]["value"].startswith("-") for r in reports)


def _compact(blocks):
    """The blocks with their atoms renumbered 1..k in order, so they cover."""
    label = {a: i for i, a in enumerate(sorted({a for b in blocks for a in b}), start=1)}
    return [tuple(label[a] for a in b) for b in blocks]


# small block lists: 1-3 blocks of 1-4 distinct atoms over at most 5, with
# overlaps, nesting and OS3 failures
SMALL_BLOCKS = st.lists(
    st.lists(st.integers(1, 5), min_size=1, max_size=4, unique=True), min_size=1, max_size=3
).map(_compact)


@settings(max_examples=12, deadline=None)
@given(SMALL_BLOCKS)
def test_finite_scan_matches_oracle_on_small_block_lists(blocks):
    logic = FiniteLogic(blocks)
    for table in (conditional_table(logic), perturbed_table(logic, 0)):
        assert_scan_matches_oracle(logic, table)
