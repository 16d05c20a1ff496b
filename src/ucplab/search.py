"""Enumeration and classification of small block-pasted event logics.

A logic is described by its maximal Boolean blocks over atoms 1..n.  The
enumeration produces pastings where distinct blocks overlap in at most one
atom (so no block contains another), one representative per atom-relabeling
class, in a deterministic order.  It is an orderly generator: a
depth-first walk over sorted block tuples that keeps only tuples that are
their own least relabeling, which a backtracking search over partial
relabelings decides, so no class is built twice and no loop over all n!
relabelings runs.  The overlap rule does not keep atoms distinct: in
[[1,2],[1,3]] atoms 2 and 3 are both the complement of atom 1, so the
logic is a Boolean algebra with 4 events and 2 states.  Such collapsed
pastings stay in the output.  Each logic is then pushed through the axiom
checkers, the two unique-conditional properties and, where those hold
everywhere, the exact interference scan.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

from .finite import (
    FiniteLogic,
    check_os_axioms,
    check_uc1,
    check_uc2,
    conditional_table,
    finite_I3_scan,
)

MAX_SCAN_EVENTS = 64
MAX_UC2_VERTICES = 200


@dataclass(frozen=True)
class SearchConfig:
    max_atoms: int
    max_blocks: int = 2
    block_size_min: int = 3
    block_size_max: int | None = None

    def __post_init__(self):
        if self.max_atoms < 0 or self.max_blocks < 1:
            raise ValueError("max_atoms must be >= 0 and max_blocks positive")
        if self.block_size_min < 2:
            raise ValueError("blocks need at least two atoms")
        top = self.block_size_max
        if top is not None and top < self.block_size_min:
            raise ValueError("block_size_max below block_size_min")


def _is_least(form, n_atoms):
    """Is the sorted block tuple its own lexicographically least relabeling?

    Backtracks over relabelings, giving labels 1, 2, ... to one atom at a
    time.  With labels 1..k given, a block's image is its known labels
    followed by labels above k for its other atoms, so known + (k+1, k+2,
    ...) is a lower bound of every completed image of that block, and the
    sorted list of these bounds is a lower bound of every completed image
    of the form.  A branch whose bound is >= form holds no smaller image
    and is dropped; the form is not least once a complete labeling gives a
    smaller image.  Atoms that lie in the same blocks are interchangeable,
    so each step tries one atom per set of blocks.
    """
    form = list(form)
    blocks_of = [[] for _ in range(n_atoms + 1)]
    for i, block in enumerate(form):
        for a in block:
            blocks_of[a].append(i)
    blocks_of = [tuple(where) for where in blocks_of]
    return not _smaller_below(form, blocks_of, [[] for _ in form], [True] * (n_atoms + 1), 0)


def _smaller_below(form, blocks_of, known, free, depth):
    """Does some completion of the labels 1..depth give an image < form?

    known[i] lists the labels given to block i's atoms, in the order given,
    which is ascending; free[a] says atom a has no label yet (entry 0 is
    unused, as is blocks_of[0]).
    """
    bound = sorted(
        [
            tuple(part + list(range(depth + 1, depth + 1 + len(block) - len(part))))
            for part, block in zip(known, form)
        ]
    )
    if bound >= form:
        return False
    if depth == len(free) - 1:
        return True
    label = depth + 1
    tried = set()
    for atom in range(1, len(free)):
        where = blocks_of[atom]
        if not free[atom] or where in tried:
            continue
        tried.add(where)
        free[atom] = False
        for i in where:
            known[i].append(label)
        found = _smaller_below(form, blocks_of, known, free, label)
        for i in where:
            known[i].pop()
        free[atom] = True
        if found:
            return True
    return False


def _bits(atoms):
    """The set of atoms as a bit mask."""
    return sum([1 << a for a in atoms])


def enumerate_logics(config: SearchConfig):
    """All admissible pastings, one per isomorphism class, sorted.

    Admissible: every atom lies in some block, no two blocks share more
    than one atom, no block contains another.  Yields (n_atoms, blocks)
    with blocks in canonical form, the least relabeling of the class.

    Orderly generation (Read 1978, McKay 1998): for each n, the candidate
    blocks are sorted in tuple order, and a depth-first walk extends a
    block tuple only by a later candidate that shares at most one atom with
    each chosen block, so every node is a sorted form.  A node that is not
    its own least relabeling is dropped with everything below it; each
    covering node with at most `max_blocks` blocks is kept.  The least form
    of a class is a node, so this keeps exactly one form per class:

    Claim.  Every prefix of a least form is least.
    Proof.  Let F = (B1 < ... < Bk), with distinct blocks, and
    P = (B1, ..., B(k-1)), and suppose a relabeling pi has
    Q = sorted(pi(P)) < P, first differing at place i, Q[i] < P[i].
    Insert X = pi(Bk) into Q to get sorted(pi(F)).  If X > Q[i], the first
    i + 1 entries are those of Q, which are below F's.  Otherwise X lands
    at some place j <= i with X < Q[j] <= P[j] = F[j] and the entries
    before it equal F's.  Either way pi(F) < F.  Induction on k covers
    shorter prefixes.
    """
    top = config.block_size_max or config.max_atoms
    results = []
    for n in range(config.block_size_min, config.max_atoms + 1):
        atoms = range(1, n + 1)
        sizes = range(config.block_size_min, min(top, n) + 1)
        candidates = sorted([c for s in sizes for c in itertools.combinations(atoms, s)])
        masks = [_bits(c) for c in candidates]
        everything = _bits(atoms)

        stack = [((), [], 0, 0)]
        while stack:
            form, chosen, covered, start = stack.pop()
            for j in range(start, len(candidates)):
                mask = masks[j]
                if any([(mask & c).bit_count() > 1 for c in chosen]):
                    continue
                grown = form + (candidates[j],)
                if not _is_least(grown, n):
                    continue
                if covered | mask == everything:
                    results.append((n, grown))
                if len(grown) < config.max_blocks:
                    stack.append((grown, [*chosen, mask], covered | mask, j + 1))
    results.sort()
    return results


def classify(blocks, n_atoms=None) -> dict:
    """Run the checker chain on one logic, short-circuiting on failure.

    Stages: state-space axioms, vertex separation (UC1), unique
    conditionals (UC2: at the vertex states, then at their barycentre),
    exact interference scan.  Oversized logics get a skip marker instead of
    the expensive stages: one with more than MAX_SCAN_EVENTS events as soon
    as it is built, before the sum tables of the axiom checks, and one
    with more than MAX_UC2_VERTICES vertex states after UC1.  A UC2 failure
    keeps the details of the failing states that `check_uc2` collected, at
    most `finite.MAX_UC2_FAILURES` of them.
    """
    logic = FiniteLogic(blocks, n_atoms)
    record = {
        "blocks": [sorted(b) for b in blocks],
        "n_atoms": logic.n,
        "n_events": len(logic.events),
    }
    if len(logic.events) > MAX_SCAN_EVENTS:
        record["skipped"] = "size"
        return record
    os_report = check_os_axioms(logic)
    record["os_pass"] = os_report.passed
    if not os_report.passed:
        record["failure"] = {"stage": os_report.axiom, "witness": os_report.witness}
        return record
    record["n_states"] = len(logic.state_vertices())
    uc1 = check_uc1(logic)
    record["uc1_pass"] = uc1.passed
    if not uc1.passed:
        record["failure"] = {"stage": "UC1", "witness": uc1.witness}
        return record
    if record["n_states"] > MAX_UC2_VERTICES:
        record["skipped"] = "size"
        return record
    uc2 = check_uc2(logic)
    record["uc2_pass"] = uc2.passed
    if not uc2.passed:
        record["failure"] = {"stage": uc2.axiom, "witness": uc2.witness, "details": uc2.details}
        return record
    scan = finite_I3_scan(logic, conditional_table(logic))
    record["scan"] = {
        "max_abs_i2": str(scan["max_abs_i2"]),
        "max_abs_i3": str(scan["max_abs_i3"]),
        "i2_witness": scan["i2_witness"],
        "i3_witness": scan["i3_witness"],
        "pairs": scan["pairs"],
        "triples": scan["triples"],
    }
    return record


def run_search(config: SearchConfig, out_path=None):
    """Classify every enumerated logic; optionally stream JSONL records.

    Returns (records, summary); the summary counts logics by the deepest
    stage they reached.
    """
    records = []
    summary = {
        "enumerated": 0,
        "os_fail": 0,
        "uc1_fail": 0,
        "uc2_fail": 0,
        "skipped": 0,
        "ucp": 0,
    }
    for n_atoms, blocks in enumerate_logics(config):
        record = classify(blocks, n_atoms)
        records.append(record)
        summary["enumerated"] += 1
        if record.get("skipped"):
            summary["skipped"] += 1
        elif not record["os_pass"]:
            summary["os_fail"] += 1
        elif not record.get("uc1_pass", False):
            summary["uc1_fail"] += 1
        elif not record.get("uc2_pass", False):
            summary["uc2_fail"] += 1
        else:
            summary["ucp"] += 1
    if out_path is not None:
        with open(out_path, "w", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
            handle.write(json.dumps({"summary": summary}, sort_keys=True) + "\n")
    return records, summary
