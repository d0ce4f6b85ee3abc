"""Shared helpers for the benchmark: paths, statistics and the result line.

The benchmark runs from the root of a checkout (``python3 perfbench/run.py``)
and imports the program straight from ``src/``, the repository's import
convention, so nothing is installed.  Every file it writes lives under
``.perfbench_tmp/`` in the checkout and is removed before it exits.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"
TMP_ROOT = ROOT / ".perfbench_tmp"


class BenchmarkError(RuntimeError):
    """The benchmark itself cannot run (missing program, server will not start)."""


def require_program() -> None:
    """Make ``repro`` importable from ``src/`` or stop with a clear error.

    In a directory holding only the benchmark files there is no program to
    measure; the caller exits non-zero without printing a result.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchmarkError(f"no program to measure: {SRC / 'repro'} is missing")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict[str, str]:
    """Environment for child interpreters: ``src/`` first on the import path."""
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + existing if existing else "")
    return env


def load_spec() -> dict[str, Any]:
    return json.loads(SPEC_PATH.read_text())


def make_tmp_dir(kind: str) -> Path:
    """A fresh scratch directory inside the checkout (caller removes it)."""
    path = TMP_ROOT / f"{kind}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def remove_tmp_dir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        TMP_ROOT.rmdir()  # only succeeds once no other run uses it
    except OSError:
        pass


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set size (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchmarkError(f"/proc/{pid}/status has no VmHWM line")


def emit_result(
    correct: bool,
    attempted: int,
    failed: int,
    values: dict[str, float],
    trace: bool,
) -> None:
    """Print every metric by name with its unit, then the JSON result line.

    The metric set is exactly the ``end_to_end`` list of ``BENCHMARK.json``
    (untraced runs) or its ``per_layer`` list (traced runs); a metric the
    workload failed to produce is a benchmark bug and raises.
    """
    declared = load_spec()["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise BenchmarkError(f"workload did not produce metrics {missing}")
    metrics = {
        m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
        for m in declared
    }
    for name, metric in metrics.items():
        print(f"  {name:<44} {metric['value']:>14.6g} {metric['unit']}")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    }), flush=True)
