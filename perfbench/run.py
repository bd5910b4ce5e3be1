"""Benchmark of the ``liecoh`` command line, run from the repository root.

    python3 perfbench/run.py --workload profile-heis --seed 1 --seconds 25 --trace 0

One process runs one workload: it imports ``liecoh`` from ``src`` (as the
tests do), generates the run's inputs from the seed, then calls
``liecoh.cli.main(argv)`` on one job after another, in one thread, until
``--seconds`` have passed.  Every output is checked by the oracle after
the timed part.  ``--trace 1`` runs each job once plain and once with
the layers wrapped, and reports per-layer metrics instead of the
end-to-end ones.  ``--workload all`` runs every workload in a fresh
process of its own and prints all their metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Without a
``src/liecoh`` package next to this directory the script exits with
code 2 and prints no result.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
RUN_DIR = os.path.join(HERE, "_run")

# Set-up (import plus input generation) is repeated and its median
# reported, because one import takes only about a tenth of a second.
SETUP_REPEATS = 5
# Inputs generated per second of run: several times the rate any
# workload reaches at the seed commit, so a faster program still finds
# fresh inputs for the whole run.
POOL_JOBS_PER_SECOND = 12
# The tail percentile must leave at least this many samples above it.
TAIL_BEYOND = 10

E2E_UNITS = {
    "jobs_per_s": "1/s",
    "job_s_p50": "s",
    "job_s_tail": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class SetupError(Exception):
    """The checkout has no usable ``liecoh`` package."""


def import_liecoh():
    """Import ``liecoh`` afresh from this checkout's ``src``."""
    for name in [m for m in sys.modules if m == "liecoh" or m.startswith("liecoh.")]:
        del sys.modules[name]
    if not os.path.isfile(os.path.join(SRC, "liecoh", "cli.py")):
        raise SetupError(f"no liecoh package under {SRC}")
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    package = importlib.import_module("liecoh")
    importlib.import_module("liecoh.cli")
    if not os.path.abspath(package.__file__).startswith(SRC + os.sep):
        raise SetupError(f"imported liecoh from {package.__file__}, not from {SRC}")
    return package


def set_up(workload: str, seed: int, pool: int):
    """Import the package and generate the run's inputs, several times.

    Returns the last package and job list with the median set-up time;
    the first set-up is timed from the start of the process.
    """
    times = []
    for attempt in range(SETUP_REPEATS):
        start = PROCESS_START if attempt == 0 else time.perf_counter()
        package = import_liecoh()
        jobs = workloads.generate(workload, seed, pool, os.path.join(RUN_DIR, workload))
        times.append(time.perf_counter() - start)
    return package, jobs, statistics.median(times)


def run_job(cli, argv) -> tuple[int | None, str, float]:
    """One CLI call with its output captured; returns (code, stdout, seconds)."""
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a crash is a failed job, not a failed run
        out = io.StringIO(f"{type(exc).__name__}: {exc}")
        code = None
    return code, out.getvalue(), time.perf_counter() - start


def tail(samples: list[float]) -> tuple[float, int, int]:
    """The highest whole percentile with TAIL_BEYOND samples above it.

    Returns (value, percentile, samples beyond), by the nearest-rank rule.
    With too few samples it falls back to the maximum.
    """
    ordered = sorted(samples)
    n = len(ordered)
    for p in range(99, 0, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= TAIL_BEYOND:
            return ordered[rank - 1], p, n - rank
    return ordered[-1], 100, 0


def measure(package, jobs, seconds: float, tracer=None):
    """Run jobs until ``seconds`` have passed.

    Returns a list of (job index, traced, code, output, seconds).  With a
    tracer each job runs twice, plain and traced, alternating which
    goes first.
    """
    cli = package.cli
    records = []
    deadline = time.perf_counter() + seconds
    for index, job in enumerate(jobs):
        if records and time.perf_counter() >= deadline:
            break
        modes = [False] if tracer is None else [index % 2 == 1, index % 2 == 0]
        for traced in modes:
            gc.collect()
            if traced:
                tracer.begin(index)
            code, out, elapsed = run_job(cli, job.argv)
            if traced:
                elapsed = tracer.end()
            records.append((index, traced, code, out, elapsed))
    return records


def check(package, jobs, records) -> list[str]:
    """Oracle verdicts for every record; returns the failure reasons."""
    judge = oracle.Oracle(package)
    verdicts: dict[tuple[int, str], str | None] = {}
    failures = []
    for index, traced, code, out, _ in records:
        key = (index, out)
        if key not in verdicts:
            verdicts[key] = judge.check(jobs[index], code, out)
        if verdicts[key] is not None:
            argv = " ".join(jobs[index].argv)
            failures.append(f"job {index} ({argv}): {verdicts[key]}")
    return failures


def end_to_end(records, failures, setup_s: float) -> tuple[dict, list[str]]:
    times = [elapsed for *_, elapsed in records]
    good = len(records) - len(failures)
    value, p, beyond = tail(times)
    metrics = {
        "jobs_per_s": good / sum(times),
        "job_s_p50": statistics.median(times),
        "job_s_tail": value,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
    }
    notes = {
        "job_s_p50": f"N={len(times)}",
        "job_s_tail": f"p{p}, N={len(times)}, {beyond} beyond",
        "setup_s": f"median of {SETUP_REPEATS} set-ups",
    }
    lines = [
        f"{name} {metrics[name]!r} {E2E_UNITS[name]}"
        + (f" ({notes[name]})" if name in notes else "")
        for name in E2E_UNITS
    ]
    out = {name: {"value": metrics[name], "unit": E2E_UNITS[name]} for name in E2E_UNITS}
    return out, lines


def per_layer(tracer, records) -> tuple[dict, list[str]]:
    traced = [elapsed for _, is_traced, *_, elapsed in records if is_traced]
    plain = [elapsed for _, is_traced, *_, elapsed in records if not is_traced]
    jobs = len(traced)
    total = sum(traced)
    totals = tracer.self_times()
    counts = tracer.counts
    metrics: dict[str, tuple[float, str]] = {}
    for name in tracing.SELF_TIME_METRICS:
        seconds = tracing.metric_self_time(totals, name)
        metrics[name] = (seconds / jobs, "s")
        metrics[name[:-1] + "share"] = (seconds / total, "ratio")  # x_s -> x_share
    for name in ("cochain.assemble_cols", "cochain.nnz", "scalars.allocs",
                 "linalg.rank_nnz_in", "linalg.dense_cells", "lie_algebra.jacobi_triples"):
        metrics[name] = (counts[name] / jobs, "count")
    cols = counts["cochain.assemble_cols"]
    adds = counts["linalg.span_adds"]
    metrics["cochain.zero_col_ratio"] = (counts["cochain.zero_cols"] / cols if cols else 0.0, "ratio")
    metrics["linalg.span_useful_ratio"] = (counts["linalg.span_useful"] / adds if adds else 0.0, "ratio")
    out_bytes = [len(out.encode()) for _, is_traced, _, out, _ in records if not is_traced]
    metrics["cli.output_bytes"] = (sum(out_bytes) / len(out_bytes), "bytes")
    metrics["trace.overhead"] = (statistics.median(traced) / statistics.median(plain) - 1, "ratio")
    lines = [f"{name} {value!r} {unit}" for name, (value, unit) in metrics.items()]
    lines.append(f"traced jobs {jobs}, traced seconds {total!r}, spans {len(tracer.spans)}")
    ranked = sorted(totals.items(), key=lambda item: -item[1])
    lines += [f"  self {name} {value / total:.4f}" for name, value in ranked[:12]]
    out = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    return out, lines


def run_one(args) -> int:
    pool = max(8, math.ceil(args.seconds * POOL_JOBS_PER_SECOND))
    try:
        package, jobs, setup_s = set_up(args.workload, args.seed, pool)
    except (SetupError, ImportError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    tracer = tracing.Tracer(package) if args.trace else None
    records = measure(package, jobs, args.seconds, tracer)
    failures = check(package, jobs, records)
    if tracer is None:
        metrics, lines = end_to_end(records, failures, setup_s)
    else:
        metrics, lines = per_layer(tracer, records)
        os.makedirs(RUN_DIR, exist_ok=True)
        tracer.write(os.path.join(RUN_DIR, f"spans-{args.workload}.csv.gz"), PROCESS_START)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(records)} jobs, {len(failures)} failed")
    for line in lines:
        print(line)
    print(f"failed_ratio {len(failures) / len(records)!r} ({len(failures)}/{len(records)})")
    for reason in failures[:20]:
        print(f"FAILED {reason}")
    result = {
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in a fresh process; metrics named workload.metric."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in workloads.WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        child = subprocess.run(argv, capture_output=True, text=True,
                               timeout=args.seconds * 4 + 120)
        sys.stdout.write(child.stdout)
        if child.returncode != 0:
            sys.stderr.write(child.stderr)
            return child.returncode
        result = json.loads(child.stdout.splitlines()[-1])
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, value in result["metrics"].items():
            metrics[f"{name}.{metric}"] = value
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
