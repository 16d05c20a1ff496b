"""Command-line interface.

Subcommands:
  verify    run the full identity battery for one matrix model
  corridor  sample the conditional-probability corridor to CSV
  i3        sweep the dense matrix of the third-order map over random triples
  search    enumerate and classify small block-pasted finite logics
  classify  classify one finite logic read from a block file

Exit codes: 0 all checks pass, 1 a check failed, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from . import __version__
from .finite import read_blocks
from .levels import LEVELS
from .search import SearchConfig, classify, run_search

# The dense modules `jordan` and `interference` import numpy, so only the
# dense subcommands (verify, corridor, i3) import them, when they run;
# `search` and `classify` never load numpy.


def _add_model_flags(parser, default_trials):
    parser.add_argument("--algebra", choices=LEVELS, default="C")
    parser.add_argument("--dim", type=int, default=3)
    parser.add_argument("--trials", type=int, default=default_trials)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--tol", type=float, default=1e-9)
    parser.add_argument("--out", default=None)


def _descriptor(parser, args):
    from .jordan import AlgebraDescriptor

    if args.trials < 1:
        parser.error("--trials must be at least 1")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (math.isfinite(args.tol) and args.tol > 0):
        parser.error("--tol must be a positive finite number")
    try:
        return AlgebraDescriptor(args.algebra, args.dim)
    except Exception as exc:
        parser.error(str(exc))


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _report(args, payload):
    return {
        "version": __version__,
        "config": {
            "algebra": args.algebra,
            "dim": args.dim,
            "trials": args.trials,
            "seed": args.seed,
            "tol": args.tol,
        },
        **payload,
    }


def cmd_verify(parser, args):
    from . import interference, jordan

    desc = _descriptor(parser, args)
    tol = args.tol
    checks = []

    def record(group, residuals):
        for name, residual in sorted(residuals.items()):
            checks.append(
                {
                    "id": f"{group}.{name}",
                    "residual": residual,
                    "tolerance": tol,
                    "pass": residual <= tol,
                }
            )

    record("algebra-laws", jordan.property_battery(desc, args.trials, args.seed))
    record("compression-lemmas", interference.lemma_suite(desc, args.trials, args.seed + 1))
    record("event-symmetry", interference.symmetry_battery(desc, args.trials, args.seed + 2))
    record(
        "multiplication-map", interference.t_structure_battery(desc, args.trials, args.seed + 3)
    )
    record(
        "third-order-vanishing",
        {"dense_max": interference.i3_basis_norm_max(desc, args.trials, args.seed + 4)},
    )

    ok = all(c["pass"] for c in checks)
    report = _report(args, {"command": "verify", "passed": ok, "checks": checks})
    _emit(json.dumps(report, indent=2, sort_keys=True) + "\n", args.out)
    return 0 if ok else 1


def cmd_corridor(parser, args):
    from . import interference

    desc = _descriptor(parser, args)
    rows = []
    trial = 0
    if not args.classical and desc.n >= 2:
        mu, e, f = interference.saturating_configuration(desc)
        rows.append(interference.corridor_sample(mu, e, f, tol=args.tol))
        trial = 1
    remaining = args.trials - trial
    if remaining > 0:
        rows.extend(
            interference.corridor_samples(
                desc, remaining, seed=args.seed, classical=args.classical, tol=args.tol
            )
        )
    ok = all(r.lower_ok and r.upper_ok for r in rows)
    model = f"{args.algebra}{args.dim}"
    if args.format == "json":
        payload = [
            {
                "p": r.p,
                "q": r.q,
                "lower_ok": r.lower_ok,
                "upper_ok": r.upper_ok,
                "model": model,
                "seed": args.seed,
                "trial": i,
            }
            for i, r in enumerate(rows)
        ]
        report = _report(args, {"command": "corridor", "passed": ok, "rows": payload})
        _emit(json.dumps(report, indent=2, sort_keys=True) + "\n", args.out)
    else:
        # The bytes of `csv.writer` in its default dialect: every field is a
        # float repr, a bool, the model name or an int, none of which needs
        # quoting, and each row ends in \r\n.
        lines = ["p,q,lower_ok,upper_ok,model,seed,trial\r\n"]
        lines += [
            f"{r.p!r},{r.q!r},{r.lower_ok},{r.upper_ok},{model},{args.seed},{i}\r\n"
            for i, r in enumerate(rows)
        ]
        _emit("".join(lines), args.out)
    return 0 if ok else 1


def cmd_i3(parser, args):
    from . import interference

    desc = _descriptor(parser, args)
    worst = interference.i3_basis_norm_max(desc, args.trials, args.seed)
    ok = worst <= args.tol
    report = _report(
        args,
        {
            "command": "i3",
            "passed": ok,
            "max_dense_norm": worst,
            "check": "third-order map vanishes on random orthogonal triples",
        },
    )
    _emit(json.dumps(report, indent=2, sort_keys=True) + "\n", args.out)
    return 0 if ok else 1


def cmd_search(parser, args):
    try:
        config = SearchConfig(
            max_atoms=args.max_atoms,
            max_blocks=args.blocks,
            block_size_min=args.block_size_min,
            block_size_max=args.block_size_max,
        )
    except ValueError as exc:
        parser.error(str(exc))
    records, summary = run_search(config, out_path=args.out)
    lines = [f"{key}: {value}" for key, value in summary.items()]
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def cmd_classify(parser, args):
    try:
        with open(args.logic, encoding="utf-8") as handle:
            blocks = read_blocks(handle.read())
    except (OSError, ValueError) as exc:
        parser.error(f"--logic {args.logic}: {exc}")
    record = classify(blocks)
    _emit(json.dumps(record, sort_keys=True) + "\n", args.out)
    return 0 if "scan" in record else 1


@functools.cache
def build_parser():
    """The one parser of this process; parsing leaves it unchanged, so every `main` shares it."""
    parser = argparse.ArgumentParser(
        prog="ucplab",
        description="numerical verification lab for conditional-probability logics",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the identity battery for one model")
    _add_model_flags(p_verify, default_trials=100)

    p_corr = sub.add_parser("corridor", help="sample the probability corridor")
    _add_model_flags(p_corr, default_trials=1000)
    p_corr.add_argument("--classical", action="store_true")
    p_corr.add_argument("--format", choices=("json", "csv"), default="csv")

    p_i3 = sub.add_parser("i3", help="sweep the third-order map on random triples")
    _add_model_flags(p_i3, default_trials=1000)

    p_search = sub.add_parser("search", help="enumerate and classify finite logics")
    p_search.add_argument("--max-atoms", type=int, required=True)
    p_search.add_argument("--blocks", type=int, default=2)
    p_search.add_argument("--block-size-min", type=int, default=3)
    p_search.add_argument("--block-size-max", type=int, default=None)
    p_search.add_argument("--out", default=None)

    p_classify = sub.add_parser("classify", help="classify one finite logic from a block file")
    p_classify.add_argument("--logic", required=True, help="block file, one 'block: 1 2 3' per line")
    p_classify.add_argument("--out", default=None)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "verify": cmd_verify,
        "corridor": cmd_corridor,
        "i3": cmd_i3,
        "search": cmd_search,
        "classify": cmd_classify,
    }
    return handlers[args.command](parser, args)


if __name__ == "__main__":
    sys.exit(main())
