"""The benchmark's workloads: the CLI calls each one makes and how each output is checked.

Every workload is a fixed list of `ucplab` command lines run in-process through
`ucplab.cli.main`, one after another (a closed loop with one caller).  Each call
writes its report to a file, and a checker reads that file back and counts the
checks it makes, so a run can report how many checks were attempted and failed.

Nothing in this module imports numpy or ucplab at import time: the runner pins
the BLAS thread count first and times the import as part of set-up.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import sys
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

MODELS = ("R2", "R3", "C2", "C3", "C4", "H2", "H3", "O3")

# The octonionic model accumulates more rounding in its batteries.
VERIFY_TOL = {"O3": "1e-8"}
DEFAULT_TOL = "1e-9"
CLASSICAL_TOL = 1e-12

# Sizes are chosen so that a run of 25 s repeats a pass several times and
# reports the median pass, while the workload's dominant layer keeps more
# than half of the pass.  Enumeration dominates a short search only with
# two-atom blocks: 6-atom searches with 3-atom blocks spend about half their
# time classifying, and the 7-atom one takes 20-29 s.
VERIFY_TRIALS = 10
CORRIDOR_TRIALS = 2000
CLASSICAL_TRIALS = 200
SEARCH_SCAN = ("search", "--max-atoms", "4", "--blocks", "2")
SEARCH_ENUMERATE = (
    "search", "--max-atoms", "6", "--blocks", "4", "--block-size-min", "2", "--block-size-max", "2"
)
SEARCH_TINY = ("search", "--max-atoms", "3", "--blocks", "2")

_SUMMARY_ZERO = {"enumerated": 0, "os_fail": 0, "uc1_fail": 0, "uc2_fail": 0, "skipped": 0, "ucp": 0}

# sha256 of the search JSONL and its summary counts.  The search has no
# randomness, so these hold for every benchmark seed.
SEARCH_REFERENCE = {
    SEARCH_SCAN: (
        "d3352ca02a7b1e7ae4273dff4c18b18afd75a3aa16dc2263e03ee8ef170bb4cc",
        {**_SUMMARY_ZERO, "enumerated": 2, "ucp": 2},
    ),
    SEARCH_ENUMERATE: (
        "5f7ac5ce60e878a82f5e351c874a51ef9abc20463edfcc53e5b74f22615592f3",
        {**_SUMMARY_ZERO, "enumerated": 17, "os_fail": 3, "uc2_fail": 6, "ucp": 8},
    ),
    SEARCH_TINY: (
        "d6da1155a714cdde07df6e035fef091aa280072dc9b9c81d346b44fd11baf616",
        {**_SUMMARY_ZERO, "enumerated": 1, "ucp": 1},
    ),
}


@dataclass
class Tally:
    """Checks attempted and failed, with the first few failures described."""

    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    def add(self, other):
        self.attempted += other.attempted
        self.failed += other.failed
        self.failures.extend(other.failures[: 20 - len(self.failures)])


@dataclass(frozen=True)
class Call:
    """One CLI invocation: its arguments, its output file and its checker."""

    argv: tuple
    out: str
    check: Callable  # (tally, output path, captured stdout) -> None


# ---------------------------------------------------------------------------
# checkers
# ---------------------------------------------------------------------------


def check_verify(tally, path, stdout, tol):
    """Every residual of a `verify` report is at or below the requested tolerance."""
    report = json.loads(Path(path).read_text(encoding="utf-8"))
    tally.check(bool(report["checks"]), f"{path}: no checks")
    for item in report["checks"]:
        ok = item["pass"] and item["tolerance"] == tol and item["residual"] <= tol
        tally.check(ok, f"{path}: {item['id']} residual {item['residual']!r} > {tol}")


def _close(a, b):
    return abs(a - b) <= CLASSICAL_TOL


def check_corridor(tally, path, stdout, trials, classical):
    """Every row lies in the corridor; row 0 saturates it; classical rows have q = p."""
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    tally.check(len(rows) == trials, f"{path}: {len(rows)} rows, expected {trials}")
    if not classical:
        first = rows[0] if rows else {"p": "nan", "q": "nan"}
        saturated = _close(float(first["p"]), 0.5) and _close(float(first["q"]), 1.0)
        tally.check(saturated, f"{path}: first row is not the saturating point (1/2, 1)")
    for row in rows:
        ok = row["lower_ok"] == "True" and row["upper_ok"] == "True"
        if classical:
            ok = ok and _close(float(row["p"]), float(row["q"]))
        tally.check(ok, f"{path}: row {row['trial']} fails the corridor check")


def check_search(tally, path, stdout, argv):
    """The JSONL matches its stored digest and the printed summary its counts."""
    digest, counts = SEARCH_REFERENCE[argv]
    actual = hashlib.sha256(Path(path).read_bytes()).hexdigest()
    tally.check(actual == digest, f"{path}: sha256 {actual} != {digest}")
    printed = dict(line.split(": ", 1) for line in stdout.splitlines() if ": " in line)
    for key, value in counts.items():
        tally.check(printed.get(key) == str(value), f"{path}: {key} {printed.get(key)} != {value}")


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def _model_flags(model, trials, seed):
    return ("--algebra", model[0], "--dim", model[1:], "--trials", str(trials), "--seed", str(seed))


def verify_calls(seed, tiny):
    trials = 2 if tiny else VERIFY_TRIALS
    calls = []
    for m in MODELS:
        tol = VERIFY_TOL.get(m, DEFAULT_TOL)
        argv = ("verify",) + _model_flags(m, trials, seed) + ("--tol", tol)
        calls.append(Call(argv, f"verify-{m}.json", partial(check_verify, tol=float(tol))))
    return calls


def corridor_calls(seed, tiny):
    trials, classical_trials = (2, 2) if tiny else (CORRIDOR_TRIALS, CLASSICAL_TRIALS)
    calls = []
    for m in MODELS:
        argv = ("corridor",) + _model_flags(m, trials, seed)
        check = partial(check_corridor, trials=trials, classical=False)
        calls.append(Call(argv, f"corridor-{m}.csv", check))
        argv = ("corridor",) + _model_flags(m, classical_trials, seed) + ("--classical",)
        check = partial(check_corridor, trials=classical_trials, classical=True)
        calls.append(Call(argv, f"corridor-classical-{m}.csv", check))
    return calls


def _search_calls(full):
    def calls(seed, tiny):
        # The search has no randomness: the seed is recorded, not used.
        argv = SEARCH_TINY if tiny else full
        return [Call(argv, "search.jsonl", partial(check_search, argv=argv))]

    return calls


WORKLOADS = {
    "verify-models": verify_calls,
    "corridor-large": corridor_calls,
    "search-scan": _search_calls(SEARCH_SCAN),
    "search-enumerate": _search_calls(SEARCH_ENUMERATE),
}


# ---------------------------------------------------------------------------
# running calls
# ---------------------------------------------------------------------------


def import_program():
    """Import ucplab from this checkout's src/, never from an installed copy."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import ucplab.cli

    origin = Path(ucplab.__file__).resolve().parent.parent
    if origin != SRC.resolve():
        raise ImportError(f"ucplab imported from {origin}, expected {SRC}")
    return ucplab


def invoke(cli, argv):
    """Run `ucplab <argv>` in-process; return (exit code, captured stdout)."""
    buffer = io.StringIO()
    try:
        with contextlib.redirect_stdout(buffer):
            code = cli.main(list(argv))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    return code, buffer.getvalue()


def run_calls(cli, calls, outdir):
    """Run every call, writing outputs into outdir; return the captured results.

    Only this function belongs inside a timed region; checking is separate.
    """
    outdir.mkdir(parents=True, exist_ok=True)
    return [invoke(cli, call.argv + ("--out", str(outdir / call.out))) for call in calls]


def check_calls(calls, results, outdir):
    tally = Tally()
    for call, (code, stdout) in zip(calls, results):
        tally.check(code == 0, f"{' '.join(call.argv)}: exit code {code}")
        path = outdir / call.out
        if path.exists():
            call.check(tally, path, stdout)
        else:
            tally.check(False, f"{path}: not written")
    return tally
