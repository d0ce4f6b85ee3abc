"""Run ``python -m repro serve`` with the benchmark's layer hooks installed.

Usage: ``python3 perfbench/serve_launcher.py TALLY.json serve [serve args]``.
The hooks (:mod:`layer_trace`) are installed before the server starts;
after the server shuts down gracefully (SIGTERM) the tallies, the server's
recovery stats and the sessions' own counters and kernel timers are
written to ``TALLY.json``.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path

from bench_common import require_program


def main(argv: list[str]) -> int:
    require_program()
    from layer_trace import Tally, install_program_hooks, install_serve_hooks

    tally = Tally(spans=False)
    install_program_hooks(tally, skip_inside="serve.durability.recovery")
    registry = install_serve_hooks(tally)
    tally.enabled = True

    from repro.scenarios.cli import main as repro_main

    code = repro_main(argv[1:])

    counters: Counter = Counter()
    timers: dict[str, dict[str, float]] = {}
    for session in registry["sessions"]:
        report = session.telemetry.report()
        baseline = registry["baselines"].get(id(session))
        counters.update(report.counters)
        if baseline is not None:
            counters.subtract(baseline.counters)
        for name, timer in report.timers.items():
            before = baseline.timers.get(name, {}) if baseline is not None else {}
            total = timers.setdefault(name, {"calls": 0, "total_s": 0.0})
            total["calls"] += timer.get("calls", 0) - before.get("calls", 0)
            total["total_s"] += timer.get("total_s", 0.0) - before.get("total_s", 0.0)
    server = registry["server"]
    Path(argv[0]).write_text(json.dumps({
        "seconds": dict(tally.seconds),
        "calls": dict(tally.calls),
        "request_s": tally.samples.get("serve.request", []),
        "recovery_stats": dict(server.recovery_stats) if server is not None else {},
        "counters": dict(counters),
        "timers": timers,
        "missing": tally.missing,
    }))
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
