"""Spans around the public functions of each ucplab module, and the per-layer metrics.

The program is not edited: `Tracer.install` replaces module and class attributes
with timing wrappers, and `Tracer.uninstall` puts the originals back.  A wrapper
must sit on the attribute its caller looks up at call time:

- `cli` calls the batteries as `interference.<name>` / `jordan.<name>`, so those
  are wrapped on their modules;
- `cli` imported `run_search`, and `search` imported the `finite` checkers and
  `finite_I3_scan`, by name, so those are wrapped on the importing module;
- `finite` calls its own `polytope_vertices` and `conditional_state_vertices`
  through module globals, and `FiniteLogic.__init__` / `state_vertices` are
  wrapped on the class.

Each span records name, start, end, parent span and run id (one run per
`cli.main` call).  Spans stay in memory until the benchmark writes them out.
"""

from __future__ import annotations

import functools
import weakref
from collections import Counter, defaultdict
from time import perf_counter

from workloads import MODELS

PER_MODEL = (
    "interference.lemma_suite",
    "interference.t_structure_battery",
    "interference.i3_basis_norm_max",
    "interference.symmetry_battery",
    "jordan.property_battery",
    "interference.corridor_samples",
)
BUSY = ("cli.main",) + tuple(f"{base}.{m}" for base in PER_MODEL for m in MODELS) + (
    "interference.corridor_samples.classical",
    "interference.finite_I3_scan",
    "finite.check_uc2",
    "finite.conditional_table",
    "finite.FiniteLogic",
    "finite.check_os_axioms",
    "finite.check_uc1",
    "finite.state_vertices",
    "search.enumerate_logics",
)
SELF = ("cli.main", "search.classify")
CALLS = (
    "interference.finite_I3_scan",
    "finite.conditional_state_vertices",
    "finite.polytope_vertices",
)
COUNTS = (
    "interference.finite_I3_scan.pairs",
    "interference.finite_I3_scan.triples",
    "finite.events",
    "finite.vertex_states",
    "search.logics_enumerated",
    "search.logics_scanned",
)

# name -> unit of every per-layer metric, in report order.
PER_LAYER = {
    **{f"{name}.s": "s" for name in BUSY},
    **{f"{name}.self_s": "s" for name in SELF},
    **{f"{name}.calls": "count" for name in CALLS},
    **{name: "count" for name in COUNTS},
    "search.scan_ratio": "ratio",
    "trace.overhead_s": "s",
}


def _model(args, kwargs):
    desc = args[0]
    if kwargs.get("classical"):
        return ".classical"
    return f".{desc.level}{desc.n}"


class Tracer:
    """Installs timing wrappers, records spans and counts, derives layer metrics."""

    def __init__(self):
        self.spans = []  # dicts: id, name, start, end, parent, run
        self.counts = Counter()
        self._stack = []
        self._run = 0
        self._patches = []
        self._counted_logics = weakref.WeakSet()

    # -- wrappers --------------------------------------------------------------

    def _wrap(self, owner, attr, name, suffix=None, after=None):
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not self._stack:
                self._run += 1
            span = {
                "id": len(self.spans),
                "name": name + suffix(args, kwargs) if suffix else name,
                "parent": self._stack[-1] if self._stack else None,
                "run": self._run,
            }
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span["end"] = perf_counter()
                self._stack.pop()
            if after:
                after(args, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def install(self):
        from ucplab import cli, finite, interference, jordan, search

        counts = self.counts

        def scanned(args, result):
            counts["interference.finite_I3_scan.pairs"] += result["pairs"]
            counts["interference.finite_I3_scan.triples"] += result["triples"]

        def enumerated(args, result):
            counts["search.logics_enumerated"] += len(result)

        def searched(args, result):
            records, _summary = result
            counts["search.logics_scanned"] += sum("scan" in r for r in records)

        def built(args, result):
            counts["finite.events"] += len(args[0].events)

        def vertices(args, result):
            if args[0] not in self._counted_logics:
                self._counted_logics.add(args[0])
                counts["finite.vertex_states"] += len(result)

        self._wrap(cli, "main", "cli.main")
        self._wrap(jordan, "property_battery", "jordan.property_battery", _model)
        for name in (
            "lemma_suite",
            "t_structure_battery",
            "i3_basis_norm_max",
            "symmetry_battery",
            "corridor_samples",
        ):
            self._wrap(interference, name, f"interference.{name}", _model)
        self._wrap(interference, "saturating_configuration", "interference.saturating_configuration")
        self._wrap(interference, "corridor_sample", "interference.corridor_sample")
        self._wrap(cli, "run_search", "search.run_search", after=searched)
        self._wrap(search, "enumerate_logics", "search.enumerate_logics", after=enumerated)
        self._wrap(search, "classify", "search.classify")
        for name in ("check_os_axioms", "check_uc1", "check_uc2", "conditional_table"):
            self._wrap(search, name, f"finite.{name}")
        self._wrap(search, "finite_I3_scan", "interference.finite_I3_scan", after=scanned)
        self._wrap(finite, "conditional_state_vertices", "finite.conditional_state_vertices")
        self._wrap(finite, "polytope_vertices", "finite.polytope_vertices")
        self._wrap(finite.FiniteLogic, "__init__", "finite.FiniteLogic", after=built)
        self._wrap(finite.FiniteLogic, "state_vertices", "finite.state_vertices", after=vertices)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- derived metrics -----------------------------------------------------------

    def busy(self):
        """name -> summed duration of its spans (no wrapped function calls itself)."""
        total = defaultdict(float)
        for span in self.spans:
            total[span["name"]] += span["end"] - span["start"]
        return total

    def self_time(self):
        """name -> summed span duration minus the time its child spans cover."""
        own = defaultdict(float)
        for span in self.spans:
            duration = span["end"] - span["start"]
            own[span["name"]] += duration
            if span["parent"] is not None:
                own[self.spans[span["parent"]]["name"]] -= duration
        return own

    def layer_metrics(self, overhead_s):
        busy = self.busy()
        own = self.self_time()
        calls = Counter(span["name"] for span in self.spans)
        enumerated = self.counts["search.logics_enumerated"]
        scanned = self.counts["search.logics_scanned"]
        values = {
            **{f"{name}.s": busy[name] for name in BUSY},
            **{f"{name}.self_s": own[name] for name in SELF},
            **{f"{name}.calls": calls[name] for name in CALLS},
            **{name: self.counts[name] for name in COUNTS},
            "search.scan_ratio": scanned / enumerated if enumerated else 0.0,
            "trace.overhead_s": overhead_s,
        }
        return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}
