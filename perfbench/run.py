"""The repository's benchmark: three workloads, end-to-end and per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload honest-scale --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace
1`` is a separate traced run that reports the per-layer metrics.  Either
way every op's output is checked, the metrics are printed by name with
their unit, and the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``perfbench/README.md`` lists
the workloads and metrics.

``--steadiness`` runs two sets of untraced runs of the same code and prints,
per workload and metric, both medians and quartiles and whether they agree
within the bound ``BENCHMARK.json`` fixes::

    python3 perfbench/run.py --steadiness --runs 5 --workload serve-durable
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Any

from bench_common import ROOT, BenchmarkError, emit_result, load_spec, require_program

WORKLOADS = ("honest-scale", "adversarial-hijack", "serve-durable")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    if name == "serve-durable":
        import serve_load

        runner = serve_load.run_traced if trace else serve_load.run_untraced
        return runner(seed, seconds)
    import protocol_load

    runner = protocol_load.run_traced if trace else protocol_load.run_untraced
    return runner(name, seed, seconds)


def measure(args: argparse.Namespace) -> int:
    try:
        require_program()
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    failures, problems = result["failures"], result["problems"]
    for message in (failures + problems)[:20]:
        print(f"FAILED: {message}", file=sys.stderr)
    print(
        f"{args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}: "
        f"{result['attempted']} ops, {len(failures)} failed, "
        f"{len(problems)} run-level problems"
    )
    emit_result(
        correct=not failures and not problems,
        attempted=result["attempted"],
        failed=len(failures),
        values=result["values"],
        trace=bool(args.trace),
    )
    return 0


# ----------------------------------------------------------------------
# Steadiness mode
# ----------------------------------------------------------------------
def environment() -> dict[str, Any]:
    """Commit, hardware label, core count and interpreter/numpy versions."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    label = "unknown"
    smoke = ROOT / "benchmarks" / "smoke_e10.py"
    if smoke.is_file():
        spec = importlib.util.spec_from_file_location("smoke_e10", smoke)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        label = module.hardware_label()
    import numpy

    return {
        "commit": commit,
        "hardware": label,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def _one_run(workload: str, seed: int, seconds: float) -> dict[str, Any]:
    done = subprocess.run(
        [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
         "--seconds", f"{seconds:g}", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchmarkError(f"{workload} seed {seed} failed:\n{done.stderr[-2000:]}")
    return json.loads(lines[-1])


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def steadiness(args: argparse.Namespace) -> int:
    """Set 1 and set 2: the same runs of the same code, one after the other.

    Two sets of one commit differ only by noise, so a gap between their
    medians in either direction beyond the bound is a disagreement, as is a
    spread (the quartile range as a share of the median, ``setup_s``
    excepted) beyond it, or any run whose ops did not all pass their checks.
    """
    spec = load_spec()
    workloads = args.workload_list or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    runs: dict[tuple[int, str], list[dict[str, Any]]] = {}
    for set_index in (0, 1):
        for workload in workloads:
            for k in range(args.runs):
                start = time.perf_counter()
                result = _one_run(workload, args.seed + k, seconds)
                runs.setdefault((set_index, workload), []).append(result)
                print(f"set {set_index + 1} {workload} seed {args.seed + k}: "
                      f"correct={result['correct']} failed={result['failed']} "
                      f"({time.perf_counter() - start:.1f} s)",
                      file=sys.stderr, flush=True)
    report: dict[str, Any] = {"environment": environment(), "seconds": seconds,
                              "runs_per_set": args.runs, "workloads": {}}
    all_ok = True
    for workload in workloads:
        set1, set2 = runs[(0, workload)], runs[(1, workload)]
        correct = all(r["correct"] for r in set1 + set2)
        rows = {}
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sets = []
            for results in (set1, set2):
                values = [r["metrics"][name]["value"] for r in results]
                q1, median, q3 = _quartiles(values)
                sets.append({"median": median, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / median if median else 0.0,
                             "values": values})
            spread_ok = name == "setup_s" or all(s["spread"] <= bound for s in sets)
            change = (sets[1]["median"] - sets[0]["median"]) / sets[0]["median"]
            agree = abs(change) <= bound
            rows[name] = {"bound": bound, "sets": sets, "change": change,
                          "spread_ok": spread_ok, "agree": agree}
            all_ok = all_ok and spread_ok and agree
        all_ok = all_ok and correct
        report["workloads"][workload] = {"correct": correct, "metrics": rows}
    for workload, entry in report["workloads"].items():
        print(f"{workload} (all runs correct: {entry['correct']})")
        for name, row in entry["metrics"].items():
            cells = "  ".join(
                f"set {i + 1} median {s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}] "
                f"spread {100 * s['spread']:.1f}%" for i, s in enumerate(row["sets"])
            )
            verdict = "agree" if row["agree"] and row["spread_ok"] else "DISAGREE"
            print(f"  {name:<18} {cells}  change {100 * row['change']:+.1f}%  "
                  f"bound {100 * row['bound']:.0f}% -> {verdict}")
    print(json.dumps(report))
    return 0 if all_ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", dest="workload_list",
                        choices=WORKLOADS, default=None)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", action="store_true",
                        help="run two sets of untraced runs and compare them")
    parser.add_argument("--runs", type=int, default=5, help="runs per set and workload")
    args = parser.parse_args(argv)
    if args.steadiness:
        try:
            require_program()
            return steadiness(args)
        except BenchmarkError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    if not args.workload_list or len(args.workload_list) != 1:
        parser.error("name exactly one --workload")
    args.workload = args.workload_list[0]
    if args.seconds is None:
        args.seconds = float(load_spec()["run_seconds"])
    return measure(args)


if __name__ == "__main__":
    raise SystemExit(main())
