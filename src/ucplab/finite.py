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

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

ZERO = Fraction(0)
ONE = Fraction(1)


# ---------------------------------------------------------------------------
# exact linear algebra
# ---------------------------------------------------------------------------


def rref(rows):
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    rows = [list(r) for r in rows]
    pivots = []
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = ONE / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [v - factor * p for v, p in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return [rows[i] for i in range(r)], pivots


def reduce_mod(vec, basis_rows, pivots):
    """Canonical representative of vec modulo the row space."""
    vec = list(vec)
    for row, p in zip(basis_rows, pivots):
        if vec[p] != 0:
            factor = vec[p]
            vec = [v - factor * r for v, r in zip(vec, row)]
    return tuple(vec)


def solve_unique(matrix, rhs):
    """Exact solution of matrix @ x = rhs; None unless it is unique."""
    ncols = len(matrix[0]) if matrix else 0
    aug = [list(row) + [b] for row, b in zip(matrix, rhs)]
    reduced, pivots = rref(aug)
    for row in reduced:
        if all(v == 0 for v in row[:-1]) and row[-1] != 0:
            return None  # inconsistent
    if len([p for p in pivots if p < ncols]) < ncols:
        return None  # underdetermined
    sol = [ZERO] * ncols
    for row, p in zip(reduced, pivots):
        if p < ncols:
            sol[p] = row[-1]
    return sol


def polytope_vertices(eq_rows, eq_rhs, n):
    """Vertices of {w in Q^n : w >= 0, eq_rows @ w = eq_rhs}, exactly.

    Basic-solution enumeration over column supports; fine for n <= ~12.
    """
    reduced, pivots = rref([list(r) + [b] for r, b in zip(eq_rows, eq_rhs)])
    for row in reduced:
        if all(v == 0 for v in row[:-1]) and row[-1] != 0:
            return []
    rank = len([p for p in pivots if p < n])
    if any(p == n for p in pivots):
        return []
    matrix = [row[:n] for row in reduced]
    rhs = [row[n] for row in reduced]
    if rank == 0:
        return [tuple([ZERO] * n)] if all(b == 0 for b in rhs) else []
    seen = set()
    verts = []
    for support in combinations(range(n), rank):
        sub = [[row[c] for c in support] for row in matrix]
        sol = solve_unique(sub, rhs)
        if sol is None or any(v < 0 for v in sol):
            continue
        full = [ZERO] * n
        for c, v in zip(support, sol):
            full[c] = v
        key = tuple(full)
        if key not in seen:
            seen.add(key)
            verts.append(key)
    return sorted(verts)


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


class FiniteLogic:
    """Orthogonality space derived from atom blocks.

    Every exact quantity (event keys, complements, orthogonality, sums,
    state vertices, the event-value and conditional tables) is computed on
    first use and cached on the logic.
    """

    def __init__(self, blocks, n_atoms=None):
        self.raw_blocks = [tuple(b) for b in blocks]
        atoms = {a for b in self.raw_blocks for a in b}
        self.n = n_atoms if n_atoms is not None else (max(atoms) if atoms else 0)
        self.blocks = [tuple(sorted(set(b))) for b in self.raw_blocks]
        rows = []
        for b in self.blocks:
            row = [Fraction(-1)] + [ZERO] * self.n
            for a in b:
                row[a] = ONE
            rows.append(row)
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

    def _once(self, compute, *args):
        """compute(*args), computed on the first call and then cached."""
        slot = (compute.__name__, args)
        if slot not in self._cache:
            self._cache[slot] = compute(*args)
        return self._cache[slot]

    def _functional(self, atom_set):
        return self._once(self._reduce, atom_set)

    def _reduce(self, atom_set):
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

    def complement(self, e: FiniteEvent) -> FiniteEvent:
        return self._once(self._complement, e)

    def _complement(self, e):
        key = tuple(
            reduce_mod(
                [ONE - e.key[0]] + [-c for c in e.key[1:]], self._basis, self._pivots
            )
        )
        ev = self._events.get(key)
        if ev is None:
            raise KeyError("complement is not an event (broken logic)")
        return ev

    def orthogonal(self, e: FiniteEvent, f: FiniteEvent) -> bool:
        """Orthogonal iff disjoint representatives fit in one block."""
        return self._once(self._orthogonal, e, f)

    def _orthogonal(self, e, f):
        for s in e.reps:
            for t in f.reps:
                if s & t:
                    continue
                u = s | t
                if any(u <= set(b) for b in self.blocks):
                    return True
        return False

    def sum(self, e: FiniteEvent, f: FiniteEvent) -> FiniteEvent:
        """e + f for orthogonal events; must be independent of representatives."""
        return self._once(self._sum, e, f)

    def _sum(self, e, f):
        keys = set()
        for s in e.reps:
            for t in f.reps:
                if s & t:
                    continue
                u = s | t
                if any(u <= set(b) for b in self.blocks):
                    keys.add(self._functional(u))
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

    def state_vertices(self):
        """Vertices of the state polytope (cached)."""
        return self._once(self._state_vertices)

    def _state_vertices(self):
        rows, rhs = self.block_rows()
        return polytope_vertices(rows, rhs, self.n)

    def event_values(self):
        """{event key: (mu_v(e) for each vertex state v)} (cached)."""
        return self._once(self._event_values)

    def _event_values(self):
        verts = self.state_vertices()
        return {e.key: tuple(self.evaluate(v, e) for v in verts) for e in self.events}

    def conditional_vertices(self):
        """{(event key, vertex index): conditional-state vertices} (cached).

        One entry, in event then vertex order, for every event e and vertex
        state v with mu_v(e) > 0 (so never the zero event); the list is
        `conditional_state_vertices(self, v, e)`.
        """
        return self._once(self._conditional_vertices)

    def _conditional_vertices(self):
        values = self.event_values()
        return {
            (e.key, vi): conditional_state_vertices(self, v, e)
            for e in self.events
            for vi, v in enumerate(self.state_vertices())
            if values[e.key][vi] > 0
        }

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

    def to_dict(self):
        return {
            "pass": self.passed,
            "axiom": self.axiom,
            "witness": self.witness,
            "details": self.details,
        }


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


def conditional_state_vertices(logic: FiniteLogic, weights, e: FiniteEvent):
    """Vertices of the set of conditional states of `weights` under e.

    A conditional state nu must satisfy nu(f) = mu(f) / mu(e) for every
    sub-event f of e.  Returns the exact vertex list (empty: none exists;
    a single vertex: the conditional probability is unique).
    """
    pe = logic.evaluate(weights, e)
    if pe <= 0:
        raise ValueError("conditioning needs mu(e) > 0")
    rows, rhs = logic.block_rows()
    for f in logic.sub_events(e):
        rows.append(list(f.key[1:]))
        rhs.append(logic.evaluate(weights, f) / pe - f.key[0])
    return polytope_vertices(rows, rhs, logic.n)


def check_uc2(logic: FiniteLogic) -> CheckReport:
    """Existence and uniqueness of conditionals at every vertex state."""
    details = []
    ok = True
    axiom = ""
    witness = ""
    for (key, vi), cond in logic.conditional_vertices().items():
        e = logic._events[key]
        exists = len(cond) >= 1
        unique = len(cond) == 1
        details.append(
            {
                "event": sorted(e.canonical_rep),
                "state_vertex": vi,
                "exists": exists,
                "unique": unique,
                "conditional": [str(x) for x in cond[0]] if unique else None,
                "witnesses": [[str(x) for x in c] for c in cond[:2]] if not unique else None,
            }
        )
        if ok and not (exists and unique):
            ok = False
            axiom = "UC2-existence" if not exists else "UC2-uniqueness"
            witness = f"event {e.label()}, vertex state {vi}"
    return CheckReport(ok, axiom, witness, details)


def conditional_table(logic: FiniteLogic):
    """conditionals[(event key, vertex index)] -> conditional weight vector.

    Only defined where the conditional exists uniquely; call after check_uc2
    passed.
    """
    return {key: cond[0] for key, cond in logic.conditional_vertices().items() if len(cond) == 1}
