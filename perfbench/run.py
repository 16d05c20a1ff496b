"""Benchmark for ucplab: time whole CLI workloads, check their outputs, trace the layers.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all   # every workload, one process each

Workloads are listed in workloads.py and explained in README.md.  With
`--trace 0` the last line of stdout is a JSON object holding the end-to-end
metrics; with `--trace 1` it holds the per-layer metrics of spans.py.  The
lines before it name every metric with its unit, the checks' fail ratio and
the run's provenance.  Run outputs and span files go to `.perfbench/` at the
root of the checkout.
"""

import os

# Pin BLAS and OpenMP to one thread before anything imports numpy.  The
# program's own UCPLAB_THREADS knob changes nothing and is left unset.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
os.environ.pop("UCPLAB_THREADS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import ROOT, WORKLOADS, Tally  # noqa: E402

WORK = ROOT / ".perfbench"
SETUP_PROBES = 8  # extra processes that only set up, for a median set-up time
END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "UCPLAB_THREADS")


def set_up(name, seed):
    """Import ucplab and warm it up with the tiny form of the workload's calls.

    The warm-up fills the multiplication-table cache, builds the Hermitian
    bases and makes the first call of every code path the workload takes.
    """
    start = time.perf_counter()
    ucplab = workloads.import_program()
    calls = WORKLOADS[name](seed, tiny=True)
    workloads.run_calls(ucplab.cli, calls, WORK / name / f"warmup-{os.getpid()}")
    return ucplab, time.perf_counter() - start


def probe_setup(name, seed):
    """Set-up seconds of a fresh process, as that process measured it."""
    command = [sys.executable, __file__, "--setup-probe", "--workload", name, "--seed", str(seed)]
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=170, check=True
    )
    return float(done.stdout.split()[-1])


def timed_pass(ucplab, calls, outdir):
    """Run the calls once; time them; then check what they wrote."""
    wall0, cpu0 = time.perf_counter(), time.process_time()
    results = workloads.run_calls(ucplab.cli, calls, outdir)
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    return wall, cpu, workloads.check_calls(calls, results, outdir), results


def measure(ucplab, calls, workdir, seconds):
    """Repeat whole passes while the next one fits in `seconds` (at least one)."""
    walls, cpus, tally = [], [], Tally()
    start = time.perf_counter()
    while True:
        wall, cpu, checks, _ = timed_pass(ucplab, calls, workdir)
        walls.append(wall)
        cpus.append(cpu)
        tally.add(checks)
        if time.perf_counter() - start + wall > seconds:
            return walls, cpus, tally


def trace(ucplab, calls, workdir):
    """One untraced and one traced pass; their outputs must match byte for byte."""
    plain_wall, _, tally, plain = timed_pass(ucplab, calls, workdir / "untraced")
    tracer = Tracer()
    tracer.install()
    try:
        traced_wall, _, checks, traced = timed_pass(ucplab, calls, workdir / "traced")
    finally:
        tracer.uninstall()
    tally.add(checks)
    for call, a, b in zip(calls, plain, traced):
        same = (workdir / "untraced" / call.out).read_bytes() == (
            workdir / "traced" / call.out
        ).read_bytes()
        tally.check(same and a == b, f"{call.out}: traced output differs from untraced")
    return tracer, tracer.layer_metrics(traced_wall - plain_wall), tally


def provenance():
    import numpy

    # Stop git at the checkout: a checkout that is not a repository gets "unknown".
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
        )
        revision = git.stdout.strip() if git.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        revision = "unknown"
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git": revision,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def run_workload(name, seed, seconds, traced, tiny=False):
    """Set up, measure (or trace) one workload and print its metrics; return the exit code."""
    workdir = WORK / name
    try:
        ucplab, own_setup = set_up(name, seed)
    except ImportError as exc:
        print(f"cannot import ucplab from {workloads.SRC}: {exc}", file=sys.stderr)
        return 2
    calls = WORKLOADS[name](seed, tiny=tiny)
    info = provenance()
    print("provenance: " + json.dumps(info, sort_keys=True))
    try:
        if traced:
            tracer, metrics, tally = trace(ucplab, calls, workdir)
            spans_path = WORK / f"spans-{name}-seed{seed}.json"
            record = {"provenance": info, "metrics": metrics, "spans": tracer.spans}
            spans_path.write_text(json.dumps(record) + "\n", encoding="utf-8")
            print(f"spans: {spans_path}")
        else:
            setups = [own_setup] + [probe_setup(name, seed) for _ in range(SETUP_PROBES)]
            walls, cpus, tally = measure(ucplab, calls, workdir, seconds)
            values = {
                "wall_s": statistics.median(walls),
                "cpu_s": statistics.median(cpus),
                "setup_s": statistics.median(setups),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            metrics = {key: {"value": values[key], "unit": unit} for key, unit in END_TO_END.items()}
            print(f"passes: {len(walls)}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for key, metric in metrics.items():
        print(f"{key} = {metric['value']} {metric['unit']}")
    print(f"fail_ratio = {tally.failed / tally.attempted} ratio ({tally.failed}/{tally.attempted} checks)")
    for failure in tally.failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def run_all(args):
    """Each workload in its own process, then every metric by name and unit."""
    results = {}
    for name in WORKLOADS:
        command = [
            sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            sys.stderr.write(done.stderr)
            print(f"{name}: exit code {done.returncode}, no result", file=sys.stderr)
            return done.returncode or 1
        results[name] = json.loads(lines[-1])
    for name, result in results.items():
        ratio = result["failed"] / result["attempted"]
        fields = [f"{key}={m['value']:.6g} {m['unit']}" for key, m in result["metrics"].items()]
        fields.append(f"fail_ratio={ratio} ratio ({result['failed']}/{result['attempted']} checks)")
        print(f"{name}: " + ", ".join(fields))
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        try:
            _, seconds = set_up(args.workload, args.seed)
        finally:
            shutil.rmtree(WORK / args.workload / f"warmup-{os.getpid()}", ignore_errors=True)
        print(seconds)
        return 0
    return run_workload(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
