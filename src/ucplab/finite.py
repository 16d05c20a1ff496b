"""Finite combinatorial logics with exact rational states.

A logic is given by atoms 1..n and maximal Boolean blocks.  Events are the
sums of atoms inside a block together with all complements; they are kept
as affine functionals c0 + sum_a c_a w_a on atom-weight vectors, reduced
modulo the block-normalization relations (each block sums to one).  That
reduction performs exactly the identifications of the block pasting, e.g.
the complement of a shared atom is one event no matter which block computes
it.  All arithmetic is exact rational so equality, UC1 and UC2 are hard
yes/no answers.

The arithmetic runs on Python integers, never on fixed-width ones.  `rref`
is the one elimination: it reduces the relation rows once, and each atom's
functional is read off them, the atom itself unless it is a pivot.  K =
`key_scale`, the lcm of the atoms' denominators, scales each to an int row,
and the row (k0, k1..kn) of an event in `key_rows` is the sum of the atom
rows of any of its representatives, because the reduction is linear in the
atom set.  k0 is always 0: every relation row has -1 in column 0, so `rref`
pivots on the constant first and no atom's functional keeps one.  A state's
weights w are scaled by their own lcm W to the row (W, W w_1..W w_n) of
`state_row`, so mu(e) = (k0 W + sum_a k_a W w_a) / (K W) is one integer
dot product.  Every exact state in the layer is such a row, from the
solver (`polytope_vertices`, in lowest terms) through the conditional
table to the scan.  A conditional under an event e is set up on the
atoms alone (`_conditional_vertex_lists`): each atom below e is pinned to
mu(a) / mu(e), each other atom orthogonal to e is zero, and only the rest
are unknowns of the block rows, so within a Boolean block nothing is left
to eliminate.  Elimination is fraction-free (`rref`), and a
`Fraction` is built only where a value is reported: the weight vectors of
`state_vertices`, `conditional_state_vertices` and a UC2 failure, an event
value (`evaluate`) and the scan's maxima.  An event is identified by its
position in `events` alone: `FiniteLogic.tables` fills orthogonality, sums
and complements by position from one walk over the block subsets, and the
axiom checks, the conditional table and the scan key on positions.

This module is the exact layer and imports only the standard library, so
`search` and the `search` / `classify` commands run without numpy.  It owns
the exact interference scan `finite_I3_scan`.  The scan works in state
coordinates: each interference term is k_f . y for an integer vector y of
the n + 1 coordinates of a state row, so a tuple of events is one signed
sum of such vectors, and only a nonzero sum is dotted with the E event
rows.  Every order is built from the order below by one step of Sorkin's
recursion I_(k+1)(a, b, ...) = I_k(a + b, ...) - I_k(a, ...) - I_k(b, ...)
(`_sorkin_level`): I1 is the vector y of each event, I2 the level above it
and I3 the next.  It takes only a complete conditional table, as a logic
that passes UC2 has.

Text format, one block per line::

    # comment
    block: 1 2 3
    block: 3 4 5
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

# check_uc2 stops after this many failing (event, vertex) pairs; a search
# record keeps no more.
MAX_UC2_FAILURES = 5

# Tuples and star-arguments are built from lists here, never from generators:
# CPython gives `tuple(generator)` and `f(*generator)` a 10-slot tuple and
# shrinks it, so every call strands one tuple on the free list of the shrunk
# size, up to 2000 per size (about 1 MB of peak RSS over a search).


# ---------------------------------------------------------------------------
# exact linear algebra
# ---------------------------------------------------------------------------


def rref(rows, limit=None):
    """Fraction-free reduced row echelon form of integer rows; returns
    (nonzero integer rows, pivot column indices).

    Pivot row r is d_r > 0 times the reduced row, with 0 in the other pivot
    columns.  Elimination replaces a row by d * row - a * pivot row and
    divides it by the gcd of its entries, so each row stays a positive
    multiple of the row that `Fraction` elimination would give and has the
    same zeros.  With `limit`, pivots are taken only in the first `limit`
    columns, so the rows past the rank are zero there but may be nonzero
    after them.
    """
    rows = [list(r) for r in rows]
    pivots = []
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols if limit is None else min(limit, ncols)):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        if rows[r][c] < 0:
            rows[r] = [-v for v in rows[r]]
        top = rows[r]
        d = top[c]
        for i in range(len(rows)):
            a = rows[i][c]
            if i != r and a:
                row = [d * v - a * w for v, w in zip(rows[i], top)]
                g = math.gcd(*row)
                rows[i] = [v // g for v in row] if g > 1 else row
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r] + [row for row in rows[r:] if any(row)], pivots


def polytope_vertices(eq_rows, rhs_columns, n):
    """Vertices of {w in Q^n : w >= 0, eq_rows @ w = b}, exactly, for each
    right-hand side b in `rhs_columns`; one vertex list per column.

    All rows are integer, in the format of `FiniteLogic.state_row`: b is
    given as (c, c b_1, ..., c b_m) for some c > 0, and each vertex w comes
    back as (W, W w_1, ..., W w_n) in lowest terms, sorted by weights.

    Basic-solution enumeration over column supports; fine for n <= ~12.
    [A | c b for each column] is row-reduced once with pivots only in A's n
    columns, and a column is inconsistent iff it is nonzero in a row below
    the rank.  Each support S then takes one `rref` of the integer rows
    [A_S | the consistent columns]: S is a basis iff A_S has full rank, a
    test all columns share, and it gives a vertex of column b iff b's
    entries are >= 0, the pivots being positive.  Pivot row i then reads
    d_i w_i = t_i / c, so with L the lcm of the d_i the vertex is
    (L c, (L / d_i) t_i on S, 0 elsewhere) divided by its gcd.  With n = 0
    there is nothing to eliminate: each column has the vertex (1,) if its b
    is zero and none otherwise.
    """
    if n == 0:
        # the one point of Q^0 solves exactly the columns whose b is zero
        return [[] if any(b[1:]) else [(1,)] for b in rhs_columns]
    width = len(rhs_columns)
    reduced, pivots = rref(
        [list(row) + [b[i + 1] for b in rhs_columns] for i, row in enumerate(eq_rows)], limit=n
    )
    rank = len(pivots)
    live = [j for j in range(width) if all(row[n + j] == 0 for row in reduced[rank:])]
    if not live:
        return [[] for _ in range(width)]
    verts = [set() for _ in range(width)]
    tails = [[row[n + j] for j in live] for row in reduced[:rank]]
    for support in combinations(range(n), rank):
        sub, sub_pivots = rref(
            [[row[c] for c in support] + tail for row, tail in zip(reduced[:rank], tails)],
            limit=rank,
        )
        if len(sub_pivots) < rank:
            continue
        scale = math.lcm(*[row[i] for i, row in enumerate(sub)])
        for k, j in enumerate(live, start=rank):
            if all(row[k] >= 0 for row in sub):
                full = [0] * n
                for c, i, row in zip(support, range(rank), sub):
                    full[c] = row[k] * (scale // row[i])
                first = scale * rhs_columns[j][0]
                g = math.gcd(first, *full)
                verts[j].add((first // g, *[v // g for v in full]))
    lists = []
    for forms in verts:
        # weights compared over one common denominator sort as the weights do
        common = math.lcm(*[form[0] for form in forms])
        lists.append(sorted(forms, key=lambda form: [v * (common // form[0]) for v in form[1:]]))
    return lists


# ---------------------------------------------------------------------------
# the logic itself
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class FiniteEvent:
    """An event of one logic: its position in `events`, its only identity,
    and its name, the representative with the fewest atoms and then the
    least sorted tuple.  Lookups return that one object, so events compare
    and hash by identity; the functional is `key_rows[index]`."""

    atoms: tuple  # the least representative, sorted
    index: int  # position in the logic's `events`

    def label(self) -> str:
        return "{" + ",".join(map(str, self.atoms)) + "}"


class SumUndefinedError(ValueError):
    pass


_MISSING = object()


def _cached(method):
    """A `FiniteLogic` method whose result is computed on the first call and
    then kept in self._cache under (method name, arguments)."""

    @functools.wraps(method)
    def cached(self, *args):
        slot = (method.__name__, args)
        value = self._cache.get(slot, _MISSING)
        if value is _MISSING:
            value = self._cache[slot] = method(self, *args)
        return value

    return cached


def _dot(row, state):
    """Integer dot product of an event row (k0, k1..kn) with a state row (W, W w_1..W w_n)."""
    return sum(map(operator.mul, row, state))


def _weights(state):
    """The atom weights (w_1, ..., w_n) of a state row (W, W w_1, ..., W w_n)."""
    return tuple([Fraction(v, state[0]) for v in state[1:]])


def _subsets(atoms):
    """Every subset of `atoms` as a tuple, by size; sorted atoms give sorted tuples."""
    return [sub for r in range(len(atoms) + 1) for sub in combinations(atoms, r)]


class FiniteLogic:
    """Orthogonality space derived from atom blocks.

    The events, their integer `key_rows` and `_event_of` are built with the
    logic, from one `rref` of the block relations and one row per atom: a
    walk over the block subsets by size, then tuple, sums each subset's row
    from its prefix's and its last atom's, and the first subset to reach an
    event names it.  Every other exact quantity (the position tables of
    orthogonality, sums and complements, state vertices, the vertex-value
    and conditional tables) comes from a `_cached` method: it is computed on
    first use and kept on the logic.
    """

    def __init__(self, blocks, n_atoms=None):
        self.raw_blocks = [tuple(b) for b in blocks]
        atoms = {a for b in self.raw_blocks for a in b}
        self.n = n_atoms if n_atoms is not None else (max(atoms) if atoms else 0)
        for b in self.raw_blocks:
            for a in b:
                if not 1 <= a <= self.n:
                    raise ValueError(f"atom {a} of block {b} is outside 1..{self.n}")
        self.blocks = [tuple(sorted(set(b))) for b in self.raw_blocks]
        self._cache = {}
        # Modulo the relations an atom that is not a pivot is itself, and the
        # pivot atom a of a reduced row r with pivot entry d is
        # -(r - d w_a) / d: the form (d, -r with entry a set to 0), in lowest
        # terms because `rref` keeps its rows primitive.  The constant's row
        # (pivot 0) names no atom.
        reduced, pivots = rref([[-1] + row for row in self.block_rows()])
        pivot_rows = {a: row for row, a in zip(reduced, pivots) if a}
        self.key_scale = math.lcm(*[row[a] for a, row in pivot_rows.items()])
        atom_rows = [[0] * (self.n + 1) for _ in range(self.n + 1)]
        for a in range(1, self.n + 1):
            atom_rows[a][a] = self.key_scale
        for a, row in pivot_rows.items():
            atom_rows[a] = [-(self.key_scale // row[a]) * v for v in row]
            atom_rows[a][a] = 0
        # a subset's row is its prefix's plus its last atom's; the events are
        # numbered in the sorted order of their rows
        row_of, least = {}, {}
        subsets = {sub for b in self.blocks for sub in _subsets(b)}
        for sub in sorted(subsets, key=lambda sub: (len(sub), sub)):
            if sub:
                row = tuple([v + w for v, w in zip(row_of[sub[:-1]], atom_rows[sub[-1]])])
            else:
                row = tuple([0] * (self.n + 1))
            row_of[sub] = row
            least.setdefault(row, sub)
        self.key_rows = sorted(least)
        position = {row: i for i, row in enumerate(self.key_rows)}
        self._event_of = {frozenset(sub): position[row] for sub, row in row_of.items()}
        self.events = [FiniteEvent(least[row], i) for i, row in enumerate(self.key_rows)]

    # -- basic structure -------------------------------------------------------

    @property
    def zero_event(self) -> FiniteEvent:
        return self.events[self._event_of[frozenset()]]

    @property
    def one_event(self) -> FiniteEvent:
        """The event of every whole block, since 1_b reduces to the unit."""
        if not self.blocks:
            raise SumUndefinedError("logic has no unit event (no blocks?)")
        return self.events[self._event_of[frozenset(self.blocks[0])]]

    def event_by_atoms(self, atoms) -> FiniteEvent:
        """The event that `atoms`, a subset of some block, represents (`_event_of`)."""
        i = self._event_of.get(frozenset(atoms))
        if i is None:
            raise KeyError(f"{sorted(atoms)} is not an event of this logic")
        return self.events[i]

    @_cached
    def tables(self):
        """(orth, sums, comp), indexed by position in `events`, from one walk
        over the pairs of disjoint subsets s and t of each block b: events i
        of s and j of t are orthogonal, sums[i][j] is the event of s | t (None
        where no such s and t exist) and comp[i] the event of b - s.

        Neither depends on which s, t or b the walk meets, because the key row
        is linear in the atom set: s | t has the row key_rows[i] + key_rows[j],
        and b - s the row of 1_b - 1_s, which is unit - key_rows[i] because
        1_b reduces to the unit, and distinct events have distinct rows.
        """
        width, event_of = len(self.events), self._event_of
        orth = [[False] * width for _ in range(width)]
        sums = [[None] * width for _ in range(width)]
        comp = [None] * width
        for b in self.blocks:
            for s in map(frozenset, _subsets(b)):
                i, rest = event_of[s], frozenset(b) - s
                comp[i] = event_of[rest]
                for t in map(frozenset, _subsets(rest)):
                    j = event_of[t]
                    orth[i][j] = True
                    sums[i][j] = event_of[s | t]
        return orth, sums, comp

    def complement(self, e: FiniteEvent) -> FiniteEvent:
        return self.events[self.tables()[2][e.index]]

    def orthogonal(self, e: FiniteEvent, f: FiniteEvent) -> bool:
        """Orthogonal iff disjoint representatives fit in one block."""
        return self.tables()[0][e.index][f.index]

    def sum(self, e: FiniteEvent, f: FiniteEvent) -> FiniteEvent:
        """e + f for orthogonal events."""
        s = self.tables()[1][e.index][f.index]
        if s is None:
            raise SumUndefinedError("events are not orthogonal")
        return self.events[s]

    # -- exact values -----------------------------------------------------------

    def state_row(self, weights):
        """(W, W w_1, ..., W w_n) for an atom-weight vector w of ints and
        Fractions, with W the lcm of its denominators: mu(events[i]) =
        _dot(key_rows[i], row) / (K W).  Any other weight, a float among
        them, raises ValueError."""
        if len(weights) != self.n:
            raise ValueError(f"a state of this logic has {self.n} atom weights, not {len(weights)}")
        for a, w in enumerate(weights, start=1):
            if not isinstance(w, (int, Fraction)):
                raise ValueError(
                    f"weights must be exact rationals (int or Fraction): atom {a} has {w!r}"
                )
        scale = math.lcm(*[w.denominator for w in weights])
        return (scale, *[w.numerator * (scale // w.denominator) for w in weights])

    def _checked_state_row(self, weights):
        """`state_row`, a format conversion of any exact weights, of weights
        that are a state: none negative and each block's summing to 1; else
        ValueError."""
        state = self.state_row(weights)
        for a, w in enumerate(weights, start=1):
            if w < 0:
                raise ValueError(f"not a state: atom {a} has weight {w} < 0")
        for b in self.blocks:
            if sum([state[a] for a in b]) != state[0]:
                raise ValueError(f"not a state: the weights of block {b} do not sum to 1")
        return state

    def evaluate(self, weights, e: FiniteEvent) -> Fraction:
        """mu(e) for an atom-weight state vector (1-based atoms)."""
        state = self._checked_state_row(weights)
        return Fraction(_dot(self.key_rows[e.index], state), self.key_scale * state[0])

    # -- states ---------------------------------------------------------------

    def block_rows(self):
        """The 0/1 atom rows of the blocks; a state has weight sum 1 on each."""
        rows = []
        for b in self.blocks:
            row = [0] * self.n
            for a in b:
                row[a - 1] = 1
            rows.append(row)
        return rows

    @_cached
    def state_vertices(self):
        """Vertices of the state polytope, as atom-weight vectors."""
        return [_weights(state) for state in self.vertex_values()[0]]

    @_cached
    def vertex_values(self):
        """(state rows, numerators, scales): the vertices of the state
        polytope as `state_row`s, and mu_v(events[i]) == numerators[i][v] /
        scales[v]."""
        states = polytope_vertices(self.block_rows(), [[1] * (len(self.blocks) + 1)], self.n)[0]
        numerators = [tuple([_dot(row, s) for s in states]) for row in self.key_rows]
        return states, numerators, [self.key_scale * s[0] for s in states]

    @_cached
    def event_conditionals(self, e: FiniteEvent):
        """Conditional states under e of the vertex states and their barycentre.

        Returns ({vertex index v: conditional-state vertices of v}, the
        conditional-state vertices of the barycentre of all state vertices),
        with an entry for every vertex state v with mu_v(e) > 0, each vertex
        a `state_row`.  The conditional polytopes of one event share their
        constraint matrix and differ only in the right-hand side, so all of
        them come from one `polytope_vertices` call.  An event that is zero
        at every vertex makes no call and returns ({}, None).
        """
        states, numerators, _ = self.vertex_values()
        positive = [vi for vi, p in enumerate(numerators[e.index]) if p > 0]
        if not positive:
            return {}, None
        *at_vertices, at_barycentre = _conditional_vertex_lists(
            self, e, [states[vi] for vi in positive] + [self._barycentre()]
        )
        return dict(zip(positive, at_vertices)), at_barycentre

    @_cached
    def _barycentre(self):
        """The mean of the state vertices, as a `state_row` in lowest terms."""
        states = self.vertex_values()[0]
        # the mean of the rows w_v / W_v over a common scale L = lcm(W_v)
        common = math.lcm(*[s[0] for s in states])
        row = [len(states) * common] + [
            sum([s[a] * (common // s[0]) for s in states]) for a in range(1, self.n + 1)
        ]
        g = math.gcd(*row)
        return tuple([v // g for v in row])

    # -- serialization ----------------------------------------------------------

    def to_text(self) -> str:
        return "\n".join("block: " + " ".join(map(str, b)) for b in self.raw_blocks) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "FiniteLogic":
        return cls(read_blocks(text))


def read_blocks(text: str) -> list:
    """The blocks of a block file, one `block: 1 2 3` line each, as tuples of atoms."""
    blocks = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if not line.startswith("block:"):
            raise ValueError(f"unrecognized line: {line!r}")
        atoms = [int(tok) for tok in line[len("block:"):].split()]
        if any(a < 1 for a in atoms):
            raise ValueError("atom indices are 1-based")
        blocks.append(tuple(atoms))
    return blocks


# ---------------------------------------------------------------------------
# axiom checkers
# ---------------------------------------------------------------------------


@dataclass
class CheckReport:
    passed: bool
    axiom: str = ""
    witness: str = ""
    details: list = field(default_factory=list)


def check_os_axioms(logic: FiniteLogic) -> CheckReport:
    """The orthogonality-space axioms of a block pasting.

    After the "structure" checks only OS3 can fail, and only by its two
    orthogonality tests: for pairwise orthogonal g, e and f, g must be
    orthogonal to e + f and f to g + e.  They read the position tables of
    `FiniteLogic.tables`, walking the events in order, so the first failure
    names the same witness as a walk over the public `orthogonal` / `sum` /
    `complement`.  `oracle_os_axioms` in the tests keeps all six axioms as
    such walks, and agrees.

    The rest holds for any list of nonempty blocks of distinct atoms,
    however they overlap or nest.  Write r(e) for the key row of event e.
    Distinct events have distinct rows.  The row of an atom set is linear
    in it, so r(s | t) = r(s) + r(t) for disjoint s and t, and r(b) = r(1)
    for every block b, because 1_b reduces to the unit.  `tables` walks the
    disjoint subsets s and t of each block b: e and f are orthogonal iff it
    meets representatives of them, e + f is the event of s | t, e' of b - s.

    OS1, symmetry: the walk visits (s, t) and (t, s), as s lies in b - t.
    OS2, a well-defined, commutative sum: every such join s | t has the row
    r(e) + r(f), so all joins are the one event stored at (e, f) and, as
    t | s = s | t, at (f, e).
    OS3, associativity: once g is orthogonal to e + f and f to g + e, both
    g + (e + f) and (g + e) + f have the row r(g) + r(e) + r(f).
    OS4, zero: the empty set represents 0, is disjoint from every
    representative s of e, and {} | s = s lies inside a block; so 0 is
    orthogonal to e, and e + 0 has the row r(e).
    OS5, a unique complement: for a representative s of e inside a block b,
    b - s is disjoint from s and their join b has the row r(1), so e has a
    partner; any partner d has r(d) = r(1) - r(e), so it is the only one,
    the event of b - s for every such s and b, `complement(e)`.
    OS6, e + d = f is solvable iff e is orthogonal to f': if e + d = f by a
    join s | t inside a block b, then b - (s | t) has the row r(1) - r(f),
    so it represents f', and it is disjoint from s with its union with s
    inside b.  Conversely, take disjoint representatives s of e and u of f'
    inside a block b, and d the event of b - s - u.  Then d is orthogonal
    to e, since s | (b - s - u) = b - u lies inside b, and
    r(e + d) = r(b - u) = r(1) - r(f') = r(f).
    """

    def fail(axiom, witness):
        return CheckReport(False, axiom, witness)

    def name(i):
        return logic.events[i].label()

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

    orth, sums, _ = logic.tables()
    positions = range(len(logic.events))
    neighbours = [[j for j in positions if row[j]] for row in orth]
    for g in positions:
        for e in neighbours[g]:
            ge = sums[g][e]
            for f in neighbours[g]:
                if not orth[e][f]:
                    continue
                if not orth[g][sums[e][f]]:
                    return fail("OS3", f"{name(g)} not orthogonal to {name(e)}+{name(f)}")
                if not orth[f][ge]:
                    return fail("OS3", f"{name(f)} not orthogonal to {name(g)}+{name(e)}")
    return CheckReport(True)


def check_uc1(logic: FiniteLogic) -> CheckReport:
    """Do the states separate every pair of distinct events?

    Two events agree on every state iff their integer value rows over the
    vertex states are equal; the first such pair in `combinations` order is
    reported.  A logic with no state fails, even one whose events have all
    collapsed into 0 = 1.
    """
    events = logic.events
    if not logic.vertex_values()[0]:
        return CheckReport(False, "UC1", "logic admits no states")
    # pair each event with the first event of equal values; the least such
    # pair (i, j), i < j, is the first in `combinations` order
    first = {}
    clashes = [(first.setdefault(row, j), j) for j, row in enumerate(logic.vertex_values()[1])]
    clash = min(((i, j) for i, j in clashes if i != j), default=None)
    if clash is not None:
        e, f = (events[k] for k in clash)
        witness = f"events {e.label()} and {f.label()} agree on every state"
        return CheckReport(False, "UC1", witness)
    return CheckReport(True, "UC1", "")


def _conditional_vertex_lists(logic: FiniteLogic, e: FiniteEvent, states):
    """Conditional-state vertex lists under e of each state, in one solve;
    states and conditionals are `FiniteLogic.state_row`s.

    A conditional of mu under e is a state nu with nu(f) = mu(f) / mu(e)
    for every sub-event f of e, that is every f orthogonal to e'.  Split
    the atoms into P, those a with {a} orthogonal to e' (so {a} <= e); Z,
    those not in P with {a} orthogonal to e; and R, the rest, an atom in no
    block among them.  Then the conditionals are exactly the points with
    nu >= 0, every block summing to 1, nu(a) = mu(a) / mu(e) on P and
    nu(a) = 0 on Z:

    - A sub-event f is orthogonal to e', so some block b holds disjoint
      representatives s of f and u of e'.  Each atom a of s is disjoint
      from u inside b, so {a} is orthogonal to e' and a is in P.  The key
      row is linear in the atom set, so nu(f) and mu(f) are the sums of nu
      and mu over s: f's equation follows from the pins on P, and each pin
      is itself the equation of a sub-event {a}.
    - nu(e) = 1 follows too, since e's representative b - u lies in P.
    - An atom a of Z then has nu(a) + nu(e) = nu({a} + e) <= 1, so nu(a) = 0.

    So the solve has one row per block over the columns R alone.  With
    mu_e and s the integer numerators of mu(e) and of the state row, so
    mu(a) / mu(e) = K s[a] / mu_e, block b has the right-hand side
    1 - sum over b & P of K s[a] / mu_e, handed to `polytope_vertices` as
    the column (mu_e, mu_e - K sum_{a in b & P} s[a] per block).  A vertex
    (V, V w over R) is written back as (V mu_e, K V s[a] on P, mu_e V w on
    R, 0 on Z) in lowest terms.  The P and Z coordinates are the same at
    every vertex of one state, so they keep the sorted order.  Where R is
    empty, as at every event of a Boolean block, `polytope_vertices` has no
    unknown to solve for, but the pins can still break a block sum, and then
    no conditional exists.
    """
    orth, _, comp = logic.tables()
    below, beside = orth[comp[e.index]], orth[e.index]
    pinned, free = [], []
    for a in range(1, logic.n + 1):
        i = logic._event_of.get(frozenset((a,)))
        if i is not None and below[i]:
            pinned.append(a)
        elif i is None or not beside[i]:
            free.append(a)
    pins = [[a for a in b if a in pinned] for b in logic.blocks]
    rows = [[row[a - 1] for a in free] for row in logic.block_rows()]
    scale, key = logic.key_scale, logic.key_rows[e.index]
    columns = []
    for state in states:
        pe = _dot(key, state)
        if pe <= 0:
            raise ValueError("conditioning needs mu(e) > 0")
        columns.append([pe] + [pe - scale * sum([state[a] for a in pin]) for pin in pins])
    lists = polytope_vertices(rows, columns, len(free))
    for state, (pe, *_), vertices in zip(states, columns, lists):
        for k, vertex in enumerate(vertices):
            full = [0] * (logic.n + 1)
            full[0] = vertex[0] * pe
            for a in pinned:
                full[a] = scale * state[a] * vertex[0]
            for a, w in zip(free, vertex[1:]):
                full[a] = w * pe
            g = math.gcd(*full)
            vertices[k] = tuple([v // g for v in full])
    return lists


def conditional_state_vertices(logic: FiniteLogic, weights, e: FiniteEvent):
    """Vertices of the set of conditional states of `weights` under e.

    A conditional state nu must satisfy nu(f) = mu(f) / mu(e) for every
    sub-event f of e.  Returns the exact vertex list of atom-weight vectors
    (empty: none exists; a single vertex: the conditional probability is
    unique).  Weights that are not a state raise ValueError.
    """
    (cond,) = _conditional_vertex_lists(logic, e, [logic._checked_state_row(weights)])
    return [_weights(row) for row in cond]


def _uc2_detail(e, state, cond):
    """The record of a state with no conditional under e, or with more than one."""
    return {
        "event": list(e.atoms),
        "state_vertex": state,
        "exists": bool(cond),
        "unique": False,
        "conditional": None,
        "witnesses": [[str(x) for x in _weights(c)] for c in cond[:2]],
    }


def check_uc2(logic: FiniteLogic) -> CheckReport:
    """Existence and uniqueness of conditionals at every state.

    Walks the events in order and, for each event e, the vertex states v
    with mu_v(e) > 0, adding a `details` entry for each (event, vertex)
    pair without exactly one conditional.  The first such pair names the
    stage, UC2-existence or UC2-uniqueness.  The walk stops once
    MAX_UC2_FAILURES pairs have failed, so later pairs are never solved.

    Uniqueness at the vertices alone says nothing about a mixed state: its
    conditional polytope contains the mixtures of its parts' conditionals
    but can be larger.  So when every vertex passes, each event is also
    solved at the barycentre beta of the state vertices, and a second
    conditional there fails the logic with stage UC2-interior, with a
    `details` entry whose state_vertex is "barycentre".  One state per
    event suffices:

    Claim.  If a conditional under e exists at every vertex v with
    v(e) > 0, then it is unique at every state mu with mu(e) > 0 iff it is
    unique at beta.
    Proof.  Existence at every state follows by mixing the vertex
    conditionals (the mixture identity).  Take mu with mu(e) > 0 and two
    conditionals nu1 != nu2.  beta averages all vertices, so it lies in
    the relative interior of the state polytope, and beta = a mu +
    (1 - a) mu' for some state mu' and some a in (0, 1].  With nu' a
    conditional of mu' (any state if mu'(e) = 0), each
    (a mu(e) nu_k + (1 - a) mu'(e) nu') / beta(e) is a conditional of beta,
    and the two differ because a mu(e) > 0.  The converse is mu = beta.
    """
    details = []
    interior = None
    for e in logic.events:
        at_vertices, at_barycentre = logic.event_conditionals(e)
        for vi, cond in at_vertices.items():
            if len(cond) == 1:
                continue
            details.append(_uc2_detail(e, vi, cond))
            if len(details) == 1:
                axiom = "UC2-uniqueness" if cond else "UC2-existence"
                witness = f"event {e.label()}, vertex state {vi}"
            if len(details) == MAX_UC2_FAILURES:
                return CheckReport(False, axiom, witness, details)
        if interior is None and at_barycentre is not None and len(at_barycentre) != 1:
            interior = e, at_barycentre
    if details:
        return CheckReport(False, axiom, witness, details)
    if interior is not None:
        e, cond = interior
        details.append(_uc2_detail(e, "barycentre", cond))
        return CheckReport(False, "UC2-interior", f"event {e.label()}, barycentre state", details)
    return CheckReport(True, "", "", details)


def conditional_table(logic: FiniteLogic):
    """conditionals[(event index, vertex index)] -> the conditional's `state_row`.

    Read from the cached `event_conditionals`, in event then vertex order.
    Only defined where the conditional exists uniquely; call after check_uc2
    passed.
    """
    return {
        (e.index, vi): cond[0]
        for e in logic.events
        for vi, cond in logic.event_conditionals(e)[0].items()
        if len(cond) == 1
    }


# ---------------------------------------------------------------------------
# exact interference scan
# ---------------------------------------------------------------------------


def _largest_entry(key_rows, x):
    """(f, k_f . x) for the first event position f with the largest |k_f . x|."""
    totals = [_dot(k, x) for k in key_rows]
    sizes = list(map(abs, totals))
    f = sizes.index(max(sizes))
    return f, totals[f]


def _witness(events, found, scale):
    """The witness record of a (parts, f, vertex, value) found by the scan, or None."""
    if found is None:
        return None
    parts, f, vi, value = found
    return {
        "events": [list(events[p].atoms) for p in parts],
        "f": list(events[f].atoms),
        "state_vertex": vi,
        "value": str(Fraction(value, scale)),
    }


def _sorkin_level(level, later, sums, zero, zero_row):
    """(tuple, row) for each tuple of I_(k+1), from `level`, the rows of I_k,
    by Sorkin's recursion

        I_(k+1)(a, b, *rest) = I_k(a + b, *rest) - I_k(a, *rest) - I_k(b, *rest).

    `level` maps sorted k-tuples of event positions, in walk order, to rows:
    one integer vector per vertex state, the shared `zero` where it is zero,
    and the shared `zero_row` where every vector is.  The walk extends each
    tuple t by every l in later[t[-1]], the positions l >= t[-1] orthogonal
    to t[-1], so the new tuples are sorted and in walk order too.  It keeps
    (a, b, *rest) = t + (l,) only if all three terms are keys of `level`,
    the first one sorted: every orthogonal pair a <= b for I2, and for I3
    every triple whose c is orthogonal to a, b and a + b (without OS3 an
    event orthogonal to each of two can fail to be orthogonal to their sum).
    """
    for t in level:
        for l in later[t[-1]]:
            key = t + (l,)
            a, b, *rest = key
            p = level.get(tuple(sorted([sums[a][b], *rest])))
            q = level.get((a, *rest))
            r = level.get((b, *rest))
            if p is None or q is None or r is None:
                continue
            if p is zero_row and q is zero_row and r is zero_row:
                yield key, zero_row
                continue
            row = []
            for u, v, w in zip(p, q, r):
                if u is zero and v is zero and w is zero:
                    row.append(zero)
                    continue
                x = [i - j - k for i, j, k in zip(u, v, w)]
                row.append(x if any(x) else zero)
            yield key, zero_row if all(x is zero for x in row) else row


def finite_I3_scan(logic: FiniteLogic, conditionals=None) -> dict:
    """Exact second- and third-order interference over a finite logic.

    Sweeps every vertex state, every event f and every pair/triple of
    mutually orthogonal events; each term mu(f|g) mu(g) is mu(g) nu_g(f)
    with nu_g the conditional, or zero when mu(g) = 0.

    `conditionals` maps (event position, vertex index) to the `state_row`
    nu_row of the conditional, as `conditional_table` does.  It must be
    complete, as on a UCP logic: a missing (g, v) with mu_v(g) > 0 raises
    ValueError, since I2 and I3 are not defined without it.

    The scan works in state coordinates, in Python integers.  With
    K = `FiniteLogic.key_scale`, mu_v(g) = p / (K W_v) from
    `FiniteLogic.vertex_values` and nu(f) = k_f . nu_row / (K W_nu), the
    term is p (k_f . nu_row) / D with D = K W_v K W_nu.  Times S, the lcm of
    all such D, it is k_f . y with

        y[g][v] = (S / D) p nu_row,

    an integer vector of the n + 1 state coordinates, and a shared zero
    vector where mu_v(g) = 0.  So a tuple at vertex v has S I_k(f) = k_f . x
    for one integer vector x.  Where x = 0 every f gives 0, which cannot
    beat the running maximum (the comparison is strict), so the E dot
    products are skipped.  The rows y are level 1, keyed (g,), and
    `_sorkin_level` builds I2 from them and I3 from the I2 rows:

        I2(a + b, c) = y[a+b+c] - y[a+b] - y[c]
        - I2(a, c)   =          - y[a+c] + y[a] + y[c]
        - I2(b, c)   =          - y[b+c] + y[b] + y[c]

    sum to the seven terms of I3.  A vector that sums to zero is the one
    shared zero object, and a tuple that is zero at every vertex the one
    shared zero row, so on a UCP logic, where every I2 row is zero, a
    triple's row costs three identity tests.  `pairs` and `triples` are the sizes of the
    two levels.  Only the reported maxima and witness values are
    `Fraction(value, S)`; S is positive and shared, so the maxima and the
    first configuration in walk order with the largest |value|, which wins,
    do not depend on it.
    """
    if conditionals is None:
        conditionals = conditional_table(logic)
    events, key_rows = logic.events, logic.key_rows
    states, numerators, scales = logic.vertex_values()

    zero = [0] * (logic.n + 1)
    zero_row = [zero] * len(states)
    exact = []  # exact[g][v]: (D, p, nu_row), or zero where mu_v(g) = 0
    for gi, row in enumerate(numerators):
        terms = []
        for vi, p in enumerate(row):
            if p == 0:
                terms.append(zero)
                continue
            nu_row = conditionals.get((gi, vi))
            if nu_row is None:
                raise ValueError(
                    f"no conditional under event {events[gi].label()} at vertex state {vi},"
                    " where the event has positive probability"
                )
            terms.append((scales[vi] * logic.key_scale * nu_row[0], p, nu_row))
        exact.append(terms)
    scale = math.lcm(*[t[0] for terms in exact for t in terms if t is not zero])
    level = {}
    for g, terms in enumerate(exact):
        row = [t if t is zero else [(scale // t[0]) * t[1] * c for c in t[2]] for t in terms]
        level[(g,)] = zero_row if all(t is zero for t in terms) else row

    orth, sums, _ = logic.tables()
    later = [[j for j in range(i, len(events)) if line[j]] for i, line in enumerate(orth)]
    found = []  # (best, witness, size) of I2, then of I3
    for _ in range(2):
        best, witness, rows = 0, None, {}
        for t, row in _sorkin_level(level, later, sums, zero, zero_row):
            rows[t] = row
            if row is zero_row:
                continue
            for vi, x in enumerate(row):
                if x is zero:
                    continue
                f, value = _largest_entry(key_rows, x)
                if abs(value) > abs(best):
                    best, witness = value, (t, f, vi, value)
        found.append((Fraction(best, scale), _witness(events, witness, scale), len(rows)))
        level = rows
    (best2, witness2, pairs), (best3, witness3, triples) = found
    return {
        "max_abs_i2": best2,
        "i2_witness": witness2,
        "max_abs_i3": best3,
        "i3_witness": witness3,
        "pairs": pairs,
        "triples": triples,
        "vertex_states": len(states),
    }
