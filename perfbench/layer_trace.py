"""Per-layer timing for traced runs, installed from outside the program.

The program's own telemetry window (:func:`repro.obs.runtime.collecting`)
already gives stage spans, counters and ``perf.*`` kernel timers, but it
only *counts* board, oracle and player calls.  This module times them by
wrapping the public methods of :class:`BulletinBoard` and
:class:`ProbeOracle` and the ``report`` method of every adversary strategy
at class level, and opens a span around each outermost call so the stage
that made the call loses that time from its self time.  It also wraps the
scenario engine's ``prepare`` and ``robust_calculate_preferences`` (the
robust wrapper has no span of its own).

For the server, :func:`install_serve_hooks` adds wrappers around framing,
the session ops, the journal, checkpoints and recovery; those only tally
(no spans), because session worker threads collect into the sessions' own
telemetry.

Nothing in ``src/`` changes: every hook is installed at run time by the
benchmark, and a hook whose target no longer exists is reported rather
than failing the run.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Iterator

#: ``repro.perf`` kernels that carry a ``perf.<name>`` timer.
PERF_KERNELS: tuple[str, ...] = (
    "pack_bits",
    "packed_gather_columns",
    "packed_hamming",
    "packed_majority",
    "packed_majority_tall",
    "packed_masked_majority",
    "packed_pair_vote",
    "packed_scatter_columns",
    "packed_unique_rows",
    "pairwise_hamming",
)


class Tally:
    """Thread-safe per-category call counts and cumulative seconds.

    ``enabled`` gates every wrapper: while it is false a wrapped call costs
    one attribute read.  ``spans`` makes each outermost call also open a
    program span named after its category.
    """

    def __init__(self, spans: bool) -> None:
        self.spans = spans
        self.enabled = False
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.missing: list[str] = []
        self._lock = threading.Lock()
        self._depth = threading.local()

    def add(self, key: str, seconds: float, calls: int = 1) -> None:
        with self._lock:
            self.seconds[key] += seconds
            self.calls[key] += calls

    def sample(self, key: str, seconds: float) -> None:
        with self._lock:
            self.samples[key].append(seconds)

    def reset(self) -> None:
        with self._lock:
            self.seconds.clear()
            self.calls.clear()
            self.samples.clear()

    def enter(self, key: str) -> bool:
        """Mark ``key`` active on this thread; false when already inside it."""
        if getattr(self._depth, key, False):
            return False
        setattr(self._depth, key, True)
        return True

    def leave(self, key: str) -> None:
        setattr(self._depth, key, False)

    def inside(self, key: str) -> bool:
        return bool(getattr(self._depth, key, False))


def _timed(
    tally: Tally, key: str, fn: Callable[..., Any], skip_inside: str | None = None
) -> Callable[..., Any]:
    """Wrap ``fn`` so its outermost calls on each thread feed ``key``.

    Calls made while this thread is inside ``skip_inside`` are not counted
    (session ops re-executed by recovery replay belong to recovery).
    """
    from repro.obs import runtime as obs

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if (
            not tally.enabled
            or (skip_inside is not None and tally.inside(skip_inside))
            or not tally.enter(key)
        ):
            return fn(*args, **kwargs)
        start = time.perf_counter()
        try:
            if tally.spans:
                with obs.span(key):
                    return fn(*args, **kwargs)
            return fn(*args, **kwargs)
        finally:
            tally.add(key, time.perf_counter() - start)
            tally.leave(key)

    return wrapper


def _patch(
    tally: Tally, owner: Any, attr: str, key: str, skip_inside: str | None = None
) -> None:
    """Replace ``owner.attr`` with a timed wrapper, keeping its descriptor kind."""
    raw = inspect.getattr_static(owner, attr, None)
    if raw is None:
        tally.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
        return
    if isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(_timed(tally, key, raw.__func__, skip_inside)))
    elif isinstance(raw, staticmethod):
        setattr(owner, attr, staticmethod(_timed(tally, key, raw.__func__, skip_inside)))
    else:
        setattr(owner, attr, _timed(tally, key, raw, skip_inside))


def _public_methods(cls: type) -> list[str]:
    return [
        name for name, value in vars(cls).items()
        if not name.startswith("_") and inspect.isfunction(value)
    ]


def install_program_hooks(tally: Tally, skip_inside: str | None = None) -> None:
    """Time board, oracle and strategy calls plus the engine's entry points."""
    import repro.players.adversaries as adversaries
    from repro.players.base import ReportingStrategy
    from repro.scenarios import engine
    from repro.simulation.board import BulletinBoard
    from repro.simulation.oracle import ProbeOracle

    for name in _public_methods(BulletinBoard):
        _patch(tally, BulletinBoard, name, "simulation.board", skip_inside)
    for name in _public_methods(ProbeOracle):
        _patch(tally, ProbeOracle, name, "simulation.oracle", skip_inside)
    for value in vars(adversaries).values():
        if (
            inspect.isclass(value)
            and issubclass(value, ReportingStrategy)
            and value.__module__ == adversaries.__name__
            and "report" in vars(value)
        ):
            _patch(tally, value, "report", "players.strategy_report")
    _patch(tally, engine, "prepare", "scenarios.prepare")
    _patch(tally, engine, "robust_calculate_preferences", "core.robust")


def install_serve_hooks(tally: Tally) -> dict[str, Any]:
    """Wrap the serve layer inside a server process (tally only, no spans).

    Returns a registry the caller reads at shutdown: the live
    :class:`PreferenceServer` (for its recovery stats), every
    :class:`Session` created (for their counters and kernel timers) and,
    per session, the counters its recovery replay left (``baselines``),
    which the caller subtracts so only served requests count.
    """
    import repro.serve.server as server_mod
    from repro.serve.durability import SessionCheckpoint, SessionJournal
    from repro.serve.session import Session

    registry: dict[str, Any] = {"server": None, "sessions": [], "baselines": {}}

    for attr, key in (
        ("encode_frame", "serve.protocol.encode"),
        ("decode_frame", "serve.protocol.decode"),
    ):
        if hasattr(server_mod, attr):
            original = getattr(server_mod, attr)
            if attr == "encode_frame":
                def encode(frame: Any, _orig: Callable = original) -> bytes:
                    data = _orig(frame)
                    tally.add("serve.protocol.bytes_out", 0.0, len(data))
                    return data
                setattr(server_mod, attr, _timed(tally, key, encode))
            else:
                setattr(server_mod, attr, _timed(tally, key, original))
        else:
            tally.missing.append(f"repro.serve.server.{attr}")
    recovery = "serve.durability.recovery"
    for op in ("probe", "report", "board"):
        _patch(tally, Session, f"op_{op}", f"serve.session.{op}", skip_inside=recovery)
    _patch(tally, SessionJournal, "record_op", "serve.durability.record_op")
    _patch(tally, SessionCheckpoint, "write", "serve.durability.checkpoint")
    _patch(tally, SessionCheckpoint, "restore", recovery)
    _patch(tally, Session, "_replay", recovery)
    if hasattr(Session, "_replay"):
        timed_replay = Session._replay

        @functools.wraps(timed_replay)
        def replay(self: Any, *args: Any, **kwargs: Any) -> Any:
            try:
                return timed_replay(self, *args, **kwargs)
            finally:
                registry["baselines"][id(self)] = self.telemetry.report()

        Session._replay = replay
    _patch(tally, server_mod.PreferenceServer, "_recover_sessions", recovery)

    original_init = Session.__init__

    @functools.wraps(original_init)
    def session_init(self: Any, *args: Any, **kwargs: Any) -> None:
        original_init(self, *args, **kwargs)
        registry["sessions"].append(self)

    Session.__init__ = session_init

    server_init = server_mod.PreferenceServer.__init__

    @functools.wraps(server_init)
    def capture_server(self: Any, *args: Any, **kwargs: Any) -> None:
        server_init(self, *args, **kwargs)
        registry["server"] = self

    server_mod.PreferenceServer.__init__ = capture_server

    serve_request = getattr(server_mod.PreferenceServer, "_serve_request", None)
    if serve_request is None:
        tally.missing.append("PreferenceServer._serve_request")
    else:
        @functools.wraps(serve_request)
        async def timed_request(self: Any, *args: Any, **kwargs: Any) -> None:
            start = time.perf_counter()
            try:
                await serve_request(self, *args, **kwargs)
            finally:
                tally.sample("serve.request", time.perf_counter() - start)

        server_mod.PreferenceServer._serve_request = timed_request
    return registry


# ----------------------------------------------------------------------
# Span trees (the dict form of repro.obs TraceReport.spans)
# ----------------------------------------------------------------------
def iter_self_times(root: dict[str, Any]) -> Iterator[tuple[dict[str, Any], float]]:
    """Every span under the synthetic root with its self time in seconds.

    A span's self time is its wall time minus its children's wall time.
    The root itself is never entered, so it is skipped.
    """
    stack = list(root.get("children", []))
    while stack:
        node = stack.pop()
        children = node.get("children", [])
        yield node, node["wall_s"] - sum(child["wall_s"] for child in children)
        stack.extend(children)


def span_profile(root: dict[str, Any]) -> dict[str, dict[str, float]]:
    """Per span name: summed self seconds, inclusive seconds and calls."""
    profile: dict[str, dict[str, float]] = defaultdict(
        lambda: {"self_s": 0.0, "wall_s": 0.0, "calls": 0}
    )
    for node, self_s in iter_self_times(root):
        entry = profile[node["name"]]
        entry["self_s"] += self_s
        entry["wall_s"] += node["wall_s"]
        entry["calls"] += node["n_calls"]
    return dict(profile)


def serve_imported() -> bool:
    return any(name == "repro.serve" or name.startswith("repro.serve.")
               for name in sys.modules)
