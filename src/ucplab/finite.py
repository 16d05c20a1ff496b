"""Finite combinatorial logics with exact rational states.

A logic is given by atoms 1..n and maximal Boolean blocks.  Events are the
sums of atoms inside a block together with all complements; they are kept
as affine functionals c0 + sum_a c_a w_a on atom-weight vectors, reduced
modulo the block-normalization relations (each block sums to one).  That
reduction performs exactly the identifications of the block pasting, e.g.
the complement of a shared atom is one event no matter which block computes
it.  All arithmetic is exact rational so equality, UC1 and UC2 are hard
yes/no answers.

Text format, one block per line::

    # comment
    block: 1 2 3
    block: 3 4 5
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

ZERO = Fraction(0)
ONE = Fraction(1)
# check_uc2 stops after this many failing (event, vertex) pairs; a search
# record keeps no more.
MAX_UC2_FAILURES = 5


# ---------------------------------------------------------------------------
# exact linear algebra
# ---------------------------------------------------------------------------


def rref(rows, limit=None):
    """Reduced row echelon form; returns (nonzero rows, pivot column indices).

    With `limit`, pivots are taken only in the first `limit` columns, so the
    rows past the rank are zero there but may be nonzero after them.
    """
    rows = [list(r) for r in rows]
    pivots = []
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols if limit is None else min(limit, ncols)):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        if rows[r][c] != 1:
            inv = ONE / rows[r][c]
            rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [v - factor * p if p else v for v, p in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r] + [row for row in rows[r:] if any(row)], pivots


def reduce_mod(vec, basis_rows, pivots):
    """Canonical representative of vec modulo the row space."""
    vec = list(vec)
    for row, p in zip(basis_rows, pivots):
        if vec[p] != 0:
            factor = vec[p]
            vec = [v - factor * r for v, r in zip(vec, row)]
    return tuple(vec)


def polytope_vertices(eq_rows, rhs_columns, n):
    """Vertices of {w in Q^n : w >= 0, eq_rows @ w = b}, exactly, for each
    right-hand side b in `rhs_columns`; one sorted vertex list per column.

    Basic-solution enumeration over column supports; fine for n <= ~12.
    [A | b_1 ... b_k] is row-reduced once with pivots only in A's n columns,
    and a column is inconsistent iff it is nonzero in a row below the rank.
    Each support S then takes one `rref` of [A_S | the consistent columns]:
    S is a basis iff A_S reduces to the identity, a test all columns share,
    and it gives a vertex of column b iff b's reduced entries are >= 0.
    """
    width = len(rhs_columns)
    reduced, pivots = rref(
        [list(row) + [b[i] for b in rhs_columns] for i, row in enumerate(eq_rows)], limit=n
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
        for k, j in enumerate(live, start=rank):
            if all(row[k] >= 0 for row in sub):
                full = [ZERO] * n
                for c, row in zip(support, sub):
                    full[c] = row[k]
                verts[j].add(tuple(full))
    return [sorted(v) for v in verts]


# ---------------------------------------------------------------------------
# the logic itself
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FiniteEvent:
    """An event class: reduced affine functional plus its atom-set reps."""

    key: tuple  # (c0, c1..cn) reduced mod block relations
    reps: frozenset  # frozensets of atoms, each inside some block

    def __eq__(self, other):
        return isinstance(other, FiniteEvent) and self.key == other.key

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash(self.key))

    def __hash__(self):
        return self._hash

    @property
    def canonical_rep(self):
        return min(self.reps, key=lambda s: (len(s), tuple(sorted(s))))

    def label(self) -> str:
        rep = sorted(self.canonical_rep)
        return "{" + ",".join(map(str, rep)) + "}"


class SumUndefinedError(ValueError):
    pass


def _cached(method):
    """A `FiniteLogic` method whose result is computed on the first call and
    then kept in self._cache under (method name, arguments)."""

    @functools.wraps(method)
    def cached(self, *args):
        slot = (method.__name__, args)
        if slot not in self._cache:
            self._cache[slot] = method(self, *args)
        return self._cache[slot]

    return cached


class FiniteLogic:
    """Orthogonality space derived from atom blocks.

    Every exact quantity (event keys, complements, orthogonality, sums,
    state vertices, the event-value and conditional tables) comes from a
    `_cached` method: it is computed on first use and kept on the logic.
    """

    def __init__(self, blocks, n_atoms=None):
        self.raw_blocks = [tuple(b) for b in blocks]
        atoms = {a for b in self.raw_blocks for a in b}
        self.n = n_atoms if n_atoms is not None else (max(atoms) if atoms else 0)
        self.blocks = [tuple(sorted(set(b))) for b in self.raw_blocks]
        rows = [[-ONE] + row for row in self.block_rows()[0]]
        self._basis, self._pivots = rref(rows)
        self._cache = {}
        self._events = {}
        for b in self.blocks:
            bset = frozenset(b)
            for r in range(len(b) + 1):
                for sub in combinations(sorted(bset), r):
                    self._add_event(frozenset(sub))
        self.events = sorted(self._events.values(), key=lambda e: e.key)

    # -- construction helpers ------------------------------------------------

    @_cached
    def _functional(self, atom_set):
        vec = [ZERO] * (self.n + 1)
        for a in atom_set:
            vec[a] = ONE
        return reduce_mod(vec, self._basis, self._pivots)

    def _add_event(self, atom_set):
        key = self._functional(atom_set)
        ev = self._events.get(key)
        if ev is None:
            self._events[key] = FiniteEvent(key, frozenset([atom_set]))
        else:
            self._events[key] = FiniteEvent(key, ev.reps | {atom_set})

    # -- basic structure -------------------------------------------------------

    @property
    def zero_event(self) -> FiniteEvent:
        return self._events[self._functional(frozenset())]

    @property
    def one_event(self) -> FiniteEvent:
        one_key = reduce_mod([ONE] + [ZERO] * self.n, self._basis, self._pivots)
        ev = self._events.get(one_key)
        if ev is None:
            raise SumUndefinedError("logic has no unit event (no blocks?)")
        return ev

    def event_by_atoms(self, atoms) -> FiniteEvent:
        key = self._functional(frozenset(atoms))
        ev = self._events.get(key)
        if ev is None:
            raise KeyError(f"{sorted(atoms)} is not an event of this logic")
        return ev

    @_cached
    def complement(self, e: FiniteEvent) -> FiniteEvent:
        key = reduce_mod([ONE - e.key[0]] + [-c for c in e.key[1:]], self._basis, self._pivots)
        ev = self._events.get(key)
        if ev is None:
            raise KeyError("complement is not an event (broken logic)")
        return ev

    def _joins(self, e, f):
        """Unions of disjoint representatives of e and f that fit in one block."""
        for s in e.reps:
            for t in f.reps:
                u = s | t
                if not s & t and any(u.issubset(b) for b in self.blocks):
                    yield u

    @_cached
    def orthogonal(self, e: FiniteEvent, f: FiniteEvent) -> bool:
        """Orthogonal iff disjoint representatives fit in one block."""
        return next(self._joins(e, f), None) is not None

    @_cached
    def sum(self, e: FiniteEvent, f: FiniteEvent) -> FiniteEvent:
        """e + f for orthogonal events; must be independent of representatives."""
        keys = {self._functional(u) for u in self._joins(e, f)}
        if not keys:
            raise SumUndefinedError("events are not orthogonal")
        if len(keys) > 1:
            raise SumUndefinedError("sum depends on the representatives")
        return self._events[keys.pop()]

    def evaluate(self, weights, e: FiniteEvent) -> Fraction:
        """mu(e) for an atom-weight state vector (1-based atoms)."""
        return e.key[0] + sum(c * w for c, w in zip(e.key[1:], weights))

    # -- states ---------------------------------------------------------------

    def block_rows(self):
        rows, rhs = [], []
        for b in self.blocks:
            row = [ZERO] * self.n
            for a in b:
                row[a - 1] = ONE
            rows.append(row)
            rhs.append(ONE)
        return rows, rhs

    @_cached
    def state_vertices(self):
        """Vertices of the state polytope."""
        rows, rhs = self.block_rows()
        return polytope_vertices(rows, [rhs], self.n)[0]

    @_cached
    def event_values(self):
        """{event key: (mu_v(e) for each vertex state v)}."""
        verts = self.state_vertices()
        return {e.key: tuple(self.evaluate(v, e) for v in verts) for e in self.events}

    @_cached
    def event_conditionals(self, e: FiniteEvent):
        """Conditional states under e of the vertex states and their barycentre.

        Returns ({vertex index v: conditional-state vertices of v}, the
        conditional-state vertices of the barycentre of all state vertices),
        with an entry for every vertex state v with mu_v(e) > 0.  The
        conditional polytopes of one event share their constraint matrix
        and differ only in the right-hand side, so all of them come from one
        `polytope_vertices` call.  An event that is zero at every vertex
        makes no call and returns ({}, None).
        """
        verts = self.state_vertices()
        positive = [vi for vi, p in enumerate(self.event_values()[e.key]) if p > 0]
        if not positive:
            return {}, None
        barycentre = tuple(sum(w) / len(verts) for w in zip(*verts))
        *at_vertices, at_barycentre = _conditional_vertex_lists(
            self, e, [verts[vi] for vi in positive] + [barycentre]
        )
        return dict(zip(positive, at_vertices)), at_barycentre

    def sub_events(self, e: FiniteEvent):
        """{f : f orthogonal to e'} = the events below e."""
        ec = self.complement(e)
        return [f for f in self.events if self.orthogonal(f, ec)]

    # -- serialization ----------------------------------------------------------

    def to_text(self) -> str:
        return "\n".join("block: " + " ".join(map(str, b)) for b in self.raw_blocks) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "FiniteLogic":
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
        return cls(blocks)


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
    """Exhaustive check of the six orthogonality-space axioms."""

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

    # OS1 symmetry is structural (orthogonal() is symmetric); verify anyway.
    for e in events:
        for f in events:
            if logic.orthogonal(e, f) != logic.orthogonal(f, e):
                return fail("OS1", f"{e.label()} vs {f.label()}")

    # OS2: commutativity and well-definedness of the sum.
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

    # OS3: associativity of orthogonal sums.
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

    # OS4: zero behaves.
    for e in events:
        if not logic.orthogonal(zero, e) or logic.sum(e, zero) != e:
            return fail("OS4", e.label())

    # OS5: unique complement summing to one.
    for e in events:
        partners = [
            d for d in events if logic.orthogonal(e, d) and logic.sum(e, d) == one
        ]
        if len(partners) != 1:
            return fail("OS5", f"{e.label()} has {len(partners)} complements")

    # OS6: e + d = f solvable iff e is orthogonal to f'.
    for e in events:
        for f in events:
            solvable = any(
                logic.orthogonal(e, d) and logic.sum(e, d) == f for d in events
            )
            if solvable != logic.orthogonal(e, logic.complement(f)):
                return fail("OS6", f"{e.label()}, {f.label()}")

    return CheckReport(True)


def check_uc1(logic: FiniteLogic) -> CheckReport:
    """Do the states separate every pair of distinct events?"""
    values = logic.event_values()
    events = logic.events
    if len(events) > 1 and not logic.state_vertices():
        return CheckReport(False, "UC1", "logic admits no states")
    for e, f in combinations(events, 2):
        if values[e.key] == values[f.key]:
            witness = f"events {e.label()} and {f.label()} agree on every state"
            return CheckReport(False, "UC1", witness)
    return CheckReport(True, "UC1", "")


def _conditional_vertex_lists(logic: FiniteLogic, e: FiniteEvent, states):
    """Conditional-state vertex lists under e of each atom-weight state, in one solve."""
    subs = logic.sub_events(e)
    rows, rhs = logic.block_rows()
    rows += [list(f.key[1:]) for f in subs]
    columns = []
    for weights in states:
        pe = logic.evaluate(weights, e)
        if pe <= 0:
            raise ValueError("conditioning needs mu(e) > 0")
        columns.append(rhs + [logic.evaluate(weights, f) / pe - f.key[0] for f in subs])
    return polytope_vertices(rows, columns, logic.n)


def conditional_state_vertices(logic: FiniteLogic, weights, e: FiniteEvent):
    """Vertices of the set of conditional states of `weights` under e.

    A conditional state nu must satisfy nu(f) = mu(f) / mu(e) for every
    sub-event f of e.  Returns the exact vertex list (empty: none exists;
    a single vertex: the conditional probability is unique).
    """
    return _conditional_vertex_lists(logic, e, [weights])[0]


def _uc2_detail(e, state, cond):
    unique = len(cond) == 1
    return {
        "event": sorted(e.canonical_rep),
        "state_vertex": state,
        "exists": len(cond) >= 1,
        "unique": unique,
        "conditional": [str(x) for x in cond[0]] if unique else None,
        "witnesses": [[str(x) for x in c] for c in cond[:2]] if not unique else None,
    }


def check_uc2(logic: FiniteLogic) -> CheckReport:
    """Existence and uniqueness of conditionals at every state.

    Walks the events in order and, for each event e, the vertex states v
    with mu_v(e) > 0, adding one `details` entry per (event, vertex) pair.
    The first pair without exactly one conditional names the stage,
    UC2-existence or UC2-uniqueness.  The walk stops once MAX_UC2_FAILURES
    pairs have failed, so on such a logic `details` ends at the last of
    them and later pairs are never solved.

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
    failures = 0
    interior = None
    for e in logic.events:
        at_vertices, at_barycentre = logic.event_conditionals(e)
        for vi, cond in at_vertices.items():
            details.append(_uc2_detail(e, vi, cond))
            if len(cond) == 1:
                continue
            failures += 1
            if failures == 1:
                axiom = "UC2-uniqueness" if cond else "UC2-existence"
                witness = f"event {e.label()}, vertex state {vi}"
            if failures == MAX_UC2_FAILURES:
                return CheckReport(False, axiom, witness, details)
        if interior is None and at_barycentre is not None and len(at_barycentre) != 1:
            interior = e, at_barycentre
    if failures:
        return CheckReport(False, axiom, witness, details)
    if interior is not None:
        e, cond = interior
        details.append(_uc2_detail(e, "barycentre", cond))
        return CheckReport(False, "UC2-interior", f"event {e.label()}, barycentre state", details)
    return CheckReport(True, "", "", details)


def conditional_table(logic: FiniteLogic):
    """conditionals[(event key, vertex index)] -> conditional weight vector.

    Read from the cached `event_conditionals`, in event then vertex order.
    Only defined where the conditional exists uniquely; call after check_uc2
    passed.
    """
    return {
        (e.key, vi): cond[0]
        for e in logic.events
        for vi, cond in logic.event_conditionals(e)[0].items()
        if len(cond) == 1
    }
