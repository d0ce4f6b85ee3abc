"""The two protocol workloads: honest-scale and adversarial-hijack.

One op is one :func:`repro.scenarios.engine.execute` of a fixed spec on one
instance seed, run in a closed loop in this process.  The instance seeds
derive from the workload seed; the loop visits them in order and wraps
around, so seeds early in the list repeat and their rows are compared.

* ``honest-scale`` is E10's n=1024 point: 1024 honest players, 2048
  objects, B=8 planted clusters of diameter 256, practical constants and
  the sequential diameter search.  Its time goes to SmallRadius' batched
  base repetition, ``cluster`` and oracle block probes; it never enters the
  adversary path or ``serve``.
* ``adversarial-hijack`` is the registry's ``hijack-coalition``: any
  dishonest player forces SmallRadius onto its per-subset loop, so this is
  the adversarial path (Theorem 14's setting).
"""

from __future__ import annotations

import dataclasses
import statistics
import subprocess
import sys
import time
from typing import Any

import numpy as np
from repro.analysis.reporting import percentile

from bench_common import BenchmarkError, child_env, peak_rss_mb
from layer_trace import PERF_KERNELS, Tally, install_program_hooks, serve_imported
from layer_trace import span_profile

#: Distinct instance seeds per run.  Op time differs by instance, so each
#: run's median spans many; the window cycles past the end of the list, so
#: the first seeds repeat and their rows are checked.
N_INSTANCES = {"honest-scale": 16, "adversarial-hijack": 10}
#: Child processes that each repeat the whole set-up; setup_s is their median.
SETUP_SAMPLES = 7
#: Theorem 5's constant: SmallRadius error is at most 5 D.
THEOREM5_FACTOR = 5
#: A traced op's spans may exceed its wall clock by at most this much
#: (clock reads on either side of the span bookkeeping).
SPAN_SLACK_S = 0.002


def workload_spec(name: str, warmup: bool = False):
    """The scenario spec one op executes (or its small warm-up variant)."""
    from repro.scenarios.registry import get_scenario
    from repro.scenarios.spec import PopulationSpec, ProtocolSpec, ScenarioSpec

    if name == "honest-scale":
        n, objects, diameter = (128, 256, 32) if warmup else (1024, 2048, 256)
        return ScenarioSpec(
            name="honest-scale",
            description="E10's n=1024 point as a scenario spec",
            population=PopulationSpec(
                n_players=n, n_objects=objects, generator="planted",
                params={"n_clusters": 8, "diameter": diameter},
            ),
            protocol=ProtocolSpec(name="calculate-preferences", budget=8),
        )
    if name == "adversarial-hijack":
        spec = get_scenario("hijack-coalition")
        if warmup:
            spec = dataclasses.replace(spec, population=PopulationSpec(
                n_players=32, n_objects=64, generator="planted",
                params={"n_clusters": 4, "diameter": 8},
            ))
        return spec
    raise BenchmarkError(f"unknown protocol workload {name!r}")


def instance_seeds(workload: str, seed: int) -> list[int]:
    state = np.random.SeedSequence([seed, len(workload)]).generate_state(
        N_INSTANCES[workload]
    )
    return [int(value) for value in state]


def set_up(workload: str, seed: int) -> dict[str, Any]:
    """Everything before the first timed op: the spec, the instance seeds
    and a warm-up.

    The warm-up runs the same protocol on a small instance, which loads
    every lazily imported module and code path without timing a full op.
    """
    from repro.scenarios import engine

    engine.execute(workload_spec(workload, warmup=True), seed)
    return {"spec": workload_spec(workload), "seeds": instance_seeds(workload, seed)}


def measure_setup(workload: str, seed: int) -> float:
    """Median wall time of fresh interpreters doing the whole set-up."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, __file__, workload, str(seed)],
            env=child_env(), capture_output=True, text=True, timeout=120,
        )
        samples.append(time.perf_counter() - start)
        if done.returncode != 0:
            raise BenchmarkError(f"set-up child failed:\n{done.stderr}")
    return statistics.median(samples)


def check_row(row: dict, spec: Any) -> list[str]:
    """The output checks of one op; returns the violations found.

    ``planted_D`` is the diameter the spec plants every cluster with, not
    a value taken from the row under test.
    """
    problems = []
    n_objects = spec.population.n_objects
    planted_D = spec.population.params["diameter"]
    if row["n_objects"] != n_objects:
        problems.append(f"n_objects {row['n_objects']} != {n_objects}")
    if row["planted_D"] != planted_D:
        problems.append(f"planted_D {row['planted_D']} != the spec's {planted_D}")
    if row["max_probes"] > n_objects:
        problems.append(f"max_probes {row['max_probes']} > n_objects {n_objects}")
    if row["degraded"] != 0:
        problems.append(f"degraded = {row['degraded']}")
    if row["honest_max_error"] > THEOREM5_FACTOR * planted_D:
        problems.append(
            f"honest_max_error {row['honest_max_error']} > "
            f"{THEOREM5_FACTOR} * planted_D {planted_D}"
        )
    return problems


class _OpLog:
    """Latencies, first rows per seed and failures of one run."""

    def __init__(self, inputs: dict[str, Any]) -> None:
        self.inputs = inputs
        self.rows: dict[int, dict] = {}
        self.latencies: list[float] = []
        self.traced_latencies: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, instance_seed: int, run: Any, wall_s: float, traced: bool) -> None:
        self.attempted += 1
        problems = check_row(run.row, self.inputs["spec"])
        first = self.rows.setdefault(instance_seed, run.row)
        if first != run.row:
            problems.append("row differs from an earlier op on the same seed")
        if problems:
            self.failures.append(f"seed {instance_seed}: " + "; ".join(problems))
        (self.traced_latencies if traced else self.latencies).append(wall_s)

    def fail(self, instance_seed: int, error: BaseException) -> None:
        self.attempted += 1
        self.failures.append(f"seed {instance_seed}: {type(error).__name__}: {error}")


def _execute(spec: Any, instance_seed: int):
    from repro.scenarios import engine

    start = time.perf_counter()
    run = engine.execute(spec, instance_seed)
    return run, time.perf_counter() - start


def _closed_loop(log: _OpLog, seconds: float, traced_op=None) -> None:
    """Run ops until the window closes.

    An untraced loop also runs until every seed ran once and one repeated,
    so the row metrics average the same instances whatever the machine's
    speed, and the repeat check always runs.  With ``traced_op`` set, each
    seed runs untraced and then traced, back to back, so both halves see
    the same inputs.
    """
    spec, seeds = log.inputs["spec"], log.inputs["seeds"]
    deadline = time.perf_counter() + seconds
    cover = len(seeds) + 1 if traced_op is None else 1
    index = 0
    while index < cover or time.perf_counter() < deadline:
        instance_seed = seeds[index % len(seeds)]
        index += 1
        try:
            run, wall = _execute(spec, instance_seed)
            log.record(instance_seed, run, wall, traced=False)
            if traced_op is not None:
                run, wall = traced_op(spec, instance_seed)
                log.record(instance_seed, run, wall, traced=True)
        except Exception as error:  # noqa: BLE001 - a failed op is counted, not fatal
            log.fail(instance_seed, error)


def run_untraced(workload: str, seed: int, seconds: float) -> dict[str, Any]:
    setup_s = measure_setup(workload, seed)
    inputs = set_up(workload, seed)
    log = _OpLog(inputs)
    window_start = time.perf_counter()
    _closed_loop(log, seconds)
    window_s = time.perf_counter() - window_start
    rows = [log.rows[s] for s in inputs["seeds"] if s in log.rows]
    if not log.latencies or not rows:
        raise BenchmarkError("no op completed: " + "; ".join(log.failures[:3]))
    values = {
        "throughput_per_s": len(log.latencies) / window_s,
        "p50_ms": percentile(log.latencies, 50) * 1e3,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "probes_per_player": statistics.fmean(r["max_probes"] for r in rows),
        "honest_error": statistics.fmean(r["honest_mean_error"] for r in rows),
    }
    return {"values": values, "attempted": log.attempted, "failures": log.failures,
            "problems": []}


def run_traced(workload: str, seed: int, seconds: float) -> dict[str, Any]:
    """Per-layer metrics: each seed runs untraced, then inside a telemetry
    window with the board/oracle/strategy hooks enabled."""
    from repro.obs.runtime import collecting

    inputs = set_up(workload, seed)
    tally = Tally(spans=True)
    install_program_hooks(tally)
    log = _OpLog(inputs)
    per_op: list[dict[str, float]] = []
    reconcile: list[str] = []

    def traced_op(spec: Any, instance_seed: int):
        tally.reset()
        tally.enabled = True
        try:
            with collecting() as telemetry:
                run, wall = _execute(spec, instance_seed)
        finally:
            tally.enabled = False
        report = telemetry.report()
        metrics, problems = _layer_metrics(report, tally, run, wall)
        per_op.append(metrics)
        reconcile.extend(f"seed {instance_seed}: {p}" for p in problems)
        return run, wall

    _closed_loop(log, seconds, traced_op=traced_op)
    if not per_op or not log.latencies:
        raise BenchmarkError("no traced op completed: " + "; ".join(log.failures[:3]))
    values = {name: statistics.fmean(m[name] for m in per_op) for name in per_op[0]}
    untraced = percentile(log.latencies, 50)
    values["obs.overhead_pct"] = (
        100.0 * (percentile(log.traced_latencies, 50) - untraced) / untraced
    )
    values.update(zero_serve_metrics())
    if serve_imported():
        reconcile.append("a protocol workload imported repro.serve")
    if tally.missing:
        print(f"warning: hooks not installed: {tally.missing}", file=sys.stderr)
    return {
        "values": values,
        "attempted": log.attempted,
        "failures": log.failures,
        "problems": reconcile,
    }


def _layer_metrics(report: Any, tally: Tally, run: Any, wall_s: float):
    """One traced op's per-layer metrics and its reconciliation problems."""
    spans = span_profile(report.spans)
    counters = report.counters

    def self_ms(*names: str) -> float:
        return 1e3 * sum(spans.get(name, {}).get("self_s", 0.0) for name in names)

    def calls(name: str) -> float:
        return float(spans.get(name, {}).get("calls", 0))

    hits = counters.get("oracle.memo_hits", 0)
    misses = counters.get("oracle.memo_misses", 0)
    metrics = {
        "scenarios.prepare_ms": 1e3 * tally.seconds["scenarios.prepare"],
        "core.calculate_preferences.self_ms": self_ms("calculate_preferences"),
        "core.diameter.self_ms": self_ms("diameter"),
        "core.diameter.iterations": calls("diameter"),
        "core.cluster.self_ms": self_ms("cluster"),
        "core.share_work.self_ms": self_ms("share_work"),
        "core.robust.self_ms": self_ms("core.robust"),
        "protocols.small_radius.self_ms": self_ms("small_radius"),
        "protocols.small_radius.calls": calls("small_radius"),
        "protocols.zero_radius.self_ms": self_ms("zero_radius"),
        "protocols.zero_radius.calls": calls("zero_radius"),
        "protocols.select.self_ms": self_ms("select", "select.estimate"),
        "protocols.select.calls": calls("select"),
        "protocols.tournament.self_ms": self_ms("select.tournament"),
        "players.strategy_report_ms": 1e3 * tally.seconds["players.strategy_report"],
        "players.strategy_report_calls": float(tally.calls["players.strategy_report"]),
        "simulation.oracle_ms": 1e3 * tally.seconds["simulation.oracle"],
        "simulation.oracle_calls": float(tally.calls["simulation.oracle"]),
        "simulation.oracle_probes": float(counters.get("oracle.probes", 0)),
        "simulation.oracle_requests": float(counters.get("oracle.requests", 0)),
        "simulation.oracle_memo_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "simulation.board_ms": 1e3 * tally.seconds["simulation.board"],
        "simulation.board_calls": float(tally.calls["simulation.board"]),
        "simulation.board_cells": float(counters.get("board.cells", 0)),
        "simulation.board_dedup_dropped": float(counters.get("board.dedup_dropped", 0)),
    }
    for kernel in PERF_KERNELS:
        timer = report.timers.get(f"perf.{kernel}", {})
        metrics[f"perf.{kernel}_ms"] = 1e3 * float(timer.get("total_s", 0.0))
        metrics[f"perf.{kernel}_calls"] = float(timer.get("calls", 0))

    # Reconciliation: every span's self time is non-negative, the spans fit
    # inside the op's wall clock, and what they leave over is unattributed.
    problems = []
    total_self = 0.0
    for name, entry in spans.items():
        total_self += entry["self_s"]
        if entry["self_s"] < -SPAN_SLACK_S:
            problems.append(f"span {name!r} has negative self time {entry['self_s']:.6f}s")
    unattributed = wall_s - total_self
    if unattributed < -SPAN_SLACK_S:
        problems.append(f"spans sum to {total_self:.6f}s, more than the op's {wall_s:.6f}s")
    metrics["unattributed_ms"] = 1e3 * unattributed
    probes = run.context.oracle.total_probes()
    if counters.get("oracle.probes", 0) != probes:
        problems.append(
            f"span oracle.probes {counters.get('oracle.probes', 0)} != oracle total {probes}"
        )
    return metrics, problems


def zero_serve_metrics() -> dict[str, float]:
    """The serve and load-generator metrics, which protocol runs never touch."""
    from serve_load import SERVE_LAYER_METRICS

    return {name: 0.0 for name in SERVE_LAYER_METRICS}


if __name__ == "__main__":
    # Set-up child: a fresh interpreter doing exactly the parent's set-up.
    from bench_common import require_program

    require_program()
    set_up(sys.argv[1], int(sys.argv[2]))
