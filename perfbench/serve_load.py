"""The serve-durable workload: an open loop against a restarted server.

``python -m repro serve --state-dir`` runs in its own process.  Before
timing, and untimed, the benchmark boots it on an empty state dir, opens
``N_SESSIONS`` ``zero-radius-exact`` sessions, fills them with journaled
reports and probes (enough to pass one checkpoint), and SIGKILLs it.  The
timed part starts with a restart: ``setup_s`` is the median, over
``RESTARTS`` SIGKILL/restart cycles, of the time from launching the server
to every recovered session answering a board read.  Then one asyncio
thread on ``N_CONNECTIONS`` connections sends a pre-generated mix of
journaled writes (``probe``, ``report``) and reads (``board``) at a fixed
offered rate, well under saturation, whatever the replies do (an open
loop).  Latency is timed from each request's *due* time, so a stall also
charges the requests queued behind it.

Each session's requests travel on one connection, and the server executes
a connection's requests for a session in arrival order, so every reply has
one exact expected value: probe answers equal the ground truth the client
rebuilds with ``engine.prepare``, and board reads equal the majority of the
reporters' true rows (all reports are true rows, posted in full during the
fill, so the timed reports re-post values the board already holds).
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import select
import selectors
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np
from repro.analysis.reporting import percentile

from bench_common import (
    ROOT,
    BenchmarkError,
    child_env,
    make_tmp_dir,
    peak_rss_mb,
    remove_tmp_dir,
)
from layer_trace import PERF_KERNELS

HERE = Path(__file__).resolve().parent
SCENARIO = "zero-radius-exact"
N_SESSIONS = 4
N_CONNECTIONS = 2
#: Well under saturation: at 800/s the server used ~78% of a core on a
#: 2-core host and saturated whenever the host's steal time rose.
RATE_PER_S = 400.0
MIX = (("probe", 0.70), ("board", 0.15), ("report", 0.15))
OBJECTS_PER_OP = 4
N_CHANNELS = 4
REPORTERS_PER_CHANNEL = 24
#: Fill probes per session: with the fill reports this passes the default
#: 256-op checkpoint, so recovery loads a checkpoint and replays a tail.
FILL_PROBES = 320
FILL_IN_FLIGHT = 16
#: Per-session queue limit asked for at ``open`` (the server default is
#: 32).  At 100 requests/s per session, 32 sheds after a 320 ms stall of
#: the session worker, which a checkpoint's fsync on a busy disk or a burst
#: of steal time can cause; 256 lets such a stall show as latency instead
#: of refused requests.
MAX_PENDING = 256
RESTARTS = 5
START_TIMEOUT_S = 60.0
REPLY_TIMEOUT_S = 10.0
#: The generator, not the server, fell behind (the run is invalid, not
#: slow) when its own p99 send lateness is over this share of the p99
#: latency it measured, or it sent below this share of the offered rate.
MAX_LATENESS_SHARE = 0.5
MIN_SEND_RATE_SHARE = 0.98
SHED_CODES = ("overloaded", "quota-exceeded")
#: Layer times measured inside a request may exceed its wall time only by
#: clock-read noise.
UNATTRIBUTED_SLACK_MS = 0.01

SERVE_LAYER_METRICS: tuple[str, ...] = (
    "serve.protocol.encode_ms",
    "serve.protocol.decode_ms",
    "serve.protocol.frames",
    "serve.protocol.bytes_out",
    "serve.session.probe_ms",
    "serve.session.report_ms",
    "serve.session.board_ms",
    "serve.server.overhead_ms",
    "serve.durability.record_op_ms",
    "serve.durability.appends",
    "serve.durability.checkpoint_ms",
    "serve.durability.checkpoints",
    "serve.durability.recovery_ms",
    "serve.durability.ops_replayed",
    "serve.durability.checkpoint_loads",
    "serve.sheds",
    "serve.client.p99_ms",
    "loadgen.lateness_p99_ms",
    "loadgen.offered_per_s",
    "loadgen.achieved_per_s",
)

#: Protocol-stage metrics the server never produces in this mix.
_PROTOCOL_ONLY_METRICS: tuple[str, ...] = (
    "scenarios.prepare_ms",
    "core.calculate_preferences.self_ms",
    "core.diameter.self_ms",
    "core.diameter.iterations",
    "core.cluster.self_ms",
    "core.share_work.self_ms",
    "core.robust.self_ms",
    "protocols.small_radius.self_ms",
    "protocols.small_radius.calls",
    "protocols.zero_radius.self_ms",
    "protocols.zero_radius.calls",
    "protocols.select.self_ms",
    "protocols.select.calls",
    "protocols.tournament.self_ms",
    "players.strategy_report_ms",
    "players.strategy_report_calls",
)


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
@dataclass
class Request:
    session: int
    op: str
    params: dict[str, Any]
    expect: Any
    offset_s: float = 0.0
    rid: int = 0
    line: bytes = b""
    due: float = 0.0
    sent: float = 0.0
    recv: float = 0.0
    result: Any = None
    problem: str | None = None
    shed: bool = False
    done: asyncio.Future | None = field(default=None, repr=False)


@dataclass
class ServeInputs:
    truth: list[np.ndarray]
    reporters: list[list[np.ndarray]]
    majority: list[list[np.ndarray]]
    session_seeds: list[int]
    fill: list[list[Request]]
    timed: list[Request]


def _channel(index: int) -> str:
    return f"bench/{index}"


def make_inputs(seed: int, seconds: float) -> ServeInputs:
    """Every request of the run, generated from ``seed`` before any timing."""
    from repro.scenarios import engine
    from repro.serve.session import build_spec

    rng = np.random.default_rng([seed, 15])
    spec = build_spec(SCENARIO)
    n_players = spec.population.n_players
    n_objects = spec.population.n_objects
    session_seeds = [int(s) for s in rng.integers(0, 2**31 - 1, N_SESSIONS)]
    truth, reporters, majority, fill = [], [], [], []
    for index, session_seed in enumerate(session_seeds):
        matrix = engine.prepare(spec, session_seed).context.oracle.ground_truth()
        matrix = np.asarray(matrix, dtype=np.uint8)
        truth.append(matrix)
        chosen = [
            np.sort(rng.choice(n_players, REPORTERS_PER_CHANNEL, replace=False))
            for _ in range(N_CHANNELS)
        ]
        reporters.append(chosen)
        # The board's majority rule: ties go to 1.
        majority.append([
            (2 * matrix[players].sum(axis=0) >= players.size).astype(np.uint8)
            for players in chosen
        ])
        requests = [
            Request(index, "report", {
                "channel": _channel(c), "player": int(p),
                "objects": list(range(n_objects)), "values": matrix[p].tolist(),
            }, n_objects)
            for c, players in enumerate(chosen) for p in players
        ]
        for _ in range(FILL_PROBES):
            requests.append(_probe(rng, index, matrix))
        fill.append(requests)

    kinds = [kind for kind, _ in MIX]
    weights = np.array([share for _, share in MIX])
    n_timed = int(RATE_PER_S * seconds)
    sessions = rng.integers(0, N_SESSIONS, n_timed)
    ops = rng.choice(len(kinds), n_timed, p=weights / weights.sum())
    timed = []
    for i in range(n_timed):
        session, kind = int(sessions[i]), kinds[int(ops[i])]
        matrix = truth[session]
        if kind == "probe":
            request = _probe(rng, session, matrix)
        elif kind == "board":
            c = int(rng.integers(N_CHANNELS))
            request = Request(session, "board", {"channel": _channel(c)},
                              (c, majority[session][c]))
        else:
            c = int(rng.integers(N_CHANNELS))
            player = int(rng.choice(reporters[session][c]))
            objects = _objects(rng, matrix.shape[1])
            request = Request(session, "report", {
                "channel": _channel(c), "player": player, "objects": objects,
                "values": matrix[player, objects].tolist(),
            }, len(objects))
        request.offset_s = i / RATE_PER_S
        timed.append(request)
    return ServeInputs(truth, reporters, majority, session_seeds, fill, timed)


def _objects(rng: np.random.Generator, n_objects: int) -> list[int]:
    return [int(o) for o in rng.choice(n_objects, OBJECTS_PER_OP, replace=False)]


def _probe(rng: np.random.Generator, session: int, matrix: np.ndarray) -> Request:
    player = int(rng.integers(matrix.shape[0]))
    objects = _objects(rng, matrix.shape[1])
    return Request(session, "probe", {"player": player, "objects": objects},
                   matrix[player, objects].tolist())


# ----------------------------------------------------------------------
# The server process
# ----------------------------------------------------------------------
def _die_with_parent() -> None:
    """Child pre-exec: ask the kernel to SIGKILL the server if we die."""
    import ctypes

    try:
        ctypes.CDLL(None, use_errno=True).prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG
    except (OSError, AttributeError):
        pass


class ServerProcess:
    """One ``repro serve --state-dir`` process (plain or under the launcher)."""

    def __init__(self, state_dir: Path, log_path: Path, tally_path: Path | None) -> None:
        serve_args = ["serve", "--state-dir", str(state_dir), "--port", "0"]
        if tally_path is None:
            self.argv = [sys.executable, "-m", "repro", *serve_args]
        else:
            self.argv = [sys.executable, str(HERE / "serve_launcher.py"),
                         str(tally_path), *serve_args]
        self.log_path = log_path
        self.proc: subprocess.Popen | None = None
        self.address: tuple[str, int] | None = None

    def start(self) -> None:
        with open(self.log_path, "ab") as log:
            self.proc = subprocess.Popen(
                self.argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                stderr=log, stdin=subprocess.DEVNULL, preexec_fn=_die_with_parent,
            )
        fd = self.proc.stdout.fileno()
        buffer = b""
        deadline = time.monotonic() + START_TIMEOUT_S
        while b"listening on " not in buffer or not buffer.endswith(b"\n"):
            remaining = deadline - time.monotonic()
            ready, _, _ = select.select([fd], [], [], max(0.0, remaining))
            chunk = os.read(fd, 4096) if ready else b""
            if not chunk:
                self.kill()
                raise BenchmarkError(
                    f"server did not start: {self.log_path.read_text()[-2000:]}"
                )
            buffer += chunk
        line = buffer[buffer.index(b"listening on "):].split(b"\n", 1)[0]
        host, port = line.decode().split()[-1].rsplit(":", 1)
        self.address = (host, int(port))

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.proc.pid)

    def kill(self) -> None:
        self._end(signal.SIGKILL)

    def stop(self) -> None:
        """Graceful SIGTERM (journals flushed, launcher tallies written)."""
        self._end(signal.SIGTERM)

    def _end(self, signum: int) -> None:
        proc = self.proc
        if proc is None:
            return
        if proc.poll() is None:
            proc.send_signal(signum)
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=30)
        proc.stdout.close()


# ----------------------------------------------------------------------
# The client
# ----------------------------------------------------------------------
class Client:
    """Raw NDJSON client: many requests in flight, replies matched by id."""

    def __init__(self, stats: dict[str, Any]) -> None:
        self.stats = stats
        self.pending: dict[int, Request] = {}
        self.connections: list[tuple[asyncio.StreamReader, asyncio.StreamWriter]] = []
        self.readers: list[asyncio.Task] = []

    async def connect(self, address: tuple[str, int]) -> None:
        for _ in range(N_CONNECTIONS):
            reader, writer = await asyncio.open_connection(
                *address, limit=16 * 1024 * 1024
            )
            self.connections.append((reader, writer))
            self.readers.append(asyncio.create_task(self._read(reader)))

    async def close(self) -> None:
        for _, writer in self.connections:
            writer.close()
        for task in self.readers:
            task.cancel()
        for task in self.readers:
            try:
                await task
            except (asyncio.CancelledError, ConnectionError):
                pass
        for _, writer in self.connections:
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass

    def encode(self, request: Request, names: list[str] | None) -> None:
        """Serialise ``request``; ``names`` maps session indices to names
        (``None`` for server-level ops such as ``open`` and ``ping``)."""
        self.stats["next_id"] += 1
        request.rid = self.stats["next_id"]
        frame = {"id": request.rid, "op": request.op, "params": request.params}
        if names is not None:
            frame["session"] = names[request.session]
        request.line = json.dumps(frame, separators=(",", ":")).encode() + b"\n"

    def send(self, request: Request, connection: int | None = None) -> None:
        request.sent = time.perf_counter()
        self.pending[request.rid] = request
        index = request.session % N_CONNECTIONS if connection is None else connection
        self.connections[index][1].write(request.line)

    async def call(self, request: Request) -> Request:
        """Send one request and wait for its reply (closed loop)."""
        request.done = asyncio.get_running_loop().create_future()
        request.due = time.perf_counter()
        self.send(request)
        try:
            await asyncio.wait_for(asyncio.shield(request.done), REPLY_TIMEOUT_S)
        except asyncio.TimeoutError:
            self.pending.pop(request.rid, None)
            request.recv = time.perf_counter()
            request.problem = f"{request.op}: no reply within {REPLY_TIMEOUT_S}s"
        return request

    async def _read(self, reader: asyncio.StreamReader) -> None:
        while True:
            line = await reader.readline()
            if not line:
                return
            now = time.perf_counter()
            frame = json.loads(line)
            request = self.pending.pop(frame.get("id"), None)
            if request is None:
                continue  # a stream event, or a request already timed out
            request.recv = now
            request.problem = self._verify(request, frame)
            if request.done is not None and not request.done.done():
                request.done.set_result(request)

    def _verify(self, request: Request, frame: dict[str, Any]) -> str | None:
        from repro.serve.protocol import decode_array

        if not frame.get("ok"):
            error = frame.get("error") or {}
            if error.get("code") in SHED_CODES:
                request.shed = True
            return f"{request.op}: error frame {error.get('code')}: {error.get('message')}"
        result = request.result = frame["result"]
        if request.op == "probe":
            key = (request.session, request.params["player"])
            used = self.stats["probes_used"]
            used[key] = max(used.get(key, 0), int(result["probes_used"]))
            if result.get("values") != request.expect:
                return f"probe answer {result.get('values')} != truth {request.expect}"
        elif request.op == "report":
            if result.get("posted") != request.expect:
                return f"report posted {result.get('posted')} != {request.expect}"
        elif request.op == "board":
            channel, expected = request.expect
            majority = decode_array(result["majority"])
            support = decode_array(result["support"])
            self.stats["board_seen"][(request.session, channel)] = majority
            if not np.array_equal(majority, expected):
                return f"board majority of channel {channel} differs from the model"
            if not np.all(support == REPORTERS_PER_CHANNEL):
                return f"board support of channel {channel} is not {REPORTERS_PER_CHANNEL}"
        return None




# ----------------------------------------------------------------------
# Phases
# ----------------------------------------------------------------------
async def _fill_phase(
    address: tuple[str, int], inputs: ServeInputs, stats: dict[str, Any]
) -> tuple[list[str], list[Request]]:
    """Open the sessions and run every fill op; returns names and requests."""
    client = Client(stats)
    await client.connect(address)
    try:
        names = []
        for seed in inputs.session_seeds:
            request = Request(0, "open", {
                "scenario": SCENARIO, "seed": seed, "max_pending": MAX_PENDING,
            }, None)
            client.encode(request, None)
            await client.call(request)
            if request.problem is not None:
                raise BenchmarkError(f"cannot open a session: {request.problem}")
            names.append(request.result["session"])

        async def fill(requests: list[Request]) -> None:
            gate = asyncio.Semaphore(FILL_IN_FLIGHT)

            async def one(request: Request) -> None:
                async with gate:
                    client.encode(request, names)
                    await client.call(request)

            await asyncio.gather(*(one(request) for request in requests))

        await asyncio.gather(*(fill(requests) for requests in inputs.fill))
        return names, [request for requests in inputs.fill for request in requests]
    finally:
        await client.close()


async def _first_replies(
    address: tuple[str, int], inputs: ServeInputs, names: list[str],
    stats: dict[str, Any],
) -> tuple[float, list[Request]]:
    """A board read on every recovered session; returns when the last one
    answered, plus the requests (a ping checking the recovery path last)."""
    client = Client(stats)
    await client.connect(address)
    try:
        reads = [
            Request(s, "board", {"channel": _channel(0)}, (0, inputs.majority[s][0]))
            for s in range(N_SESSIONS)
        ]
        for request in reads:
            client.encode(request, names)
        await asyncio.gather(*(client.call(request) for request in reads))
        ready = max(request.recv for request in reads)
        ping = Request(0, "ping", {}, None)
        client.encode(ping, None)
        await client.call(ping)
        if ping.problem is None:
            recovery = ping.result.get("recovery", {})
            expected = {"sessions_recovered": N_SESSIONS, "sessions_skipped": 0,
                        "checkpoint_loads": N_SESSIONS, "checkpoint_fallbacks": 0}
            wrong = {k: recovery.get(k) for k, v in expected.items() if recovery.get(k) != v}
            if wrong:
                ping.problem = f"restart did not recover by checkpoint: {wrong}"
        return ready, reads + [ping]
    finally:
        await client.close()


async def _open_loop(
    address: tuple[str, int], requests: list[Request], names: list[str],
    stats: dict[str, Any],
) -> dict[str, float]:
    """Send ``requests`` on their schedule, whatever the replies do."""
    client = Client(stats)
    await client.connect(address)
    # A collector pause in the generator would delay sends and replies and
    # be charged to the server; the window allocates no reference cycles.
    gc.collect()
    gc.disable()
    try:
        for request in requests:
            client.encode(request, names)
        base = requests[0].offset_s
        t0 = time.perf_counter() + 0.05
        for request in requests:
            request.due = t0 + request.offset_s - base
            delay = request.due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            client.send(request)
            writer = client.connections[request.session % N_CONNECTIONS][1]
            if writer.transport.get_write_buffer_size() > 1 << 20:
                await writer.drain()
        last_sent = time.perf_counter()
        deadline = last_sent + REPLY_TIMEOUT_S
        while client.pending and time.perf_counter() < deadline:
            await asyncio.sleep(0.005)
        for request in client.pending.values():
            request.problem = f"{request.op}: no reply within {REPLY_TIMEOUT_S}s"
        return {"t0": t0, "last_sent": last_sent}
    finally:
        gc.enable()
        await client.close()


def _summarise(requests: list[Request], clock: dict[str, float]) -> dict[str, float]:
    """Client-side latency, throughput and generator-health figures."""
    ok = [r for r in requests if r.problem is None]
    latencies = [r.recv - r.due for r in ok]
    lateness = [r.sent - r.due for r in requests]
    t0 = clock["t0"]
    return {
        "p50_ms": percentile(latencies, 50) * 1e3 if ok else float("nan"),
        "p99_ms": percentile(latencies, 99) * 1e3 if ok else float("nan"),
        "throughput_per_s": len(ok) / (max(r.recv for r in ok) - t0) if ok else 0.0,
        "lateness_p99_ms": percentile(lateness, 99) * 1e3,
        "offered_per_s": RATE_PER_S,
        "achieved_per_s": len(requests) / (clock["last_sent"] - t0 + 1.0 / RATE_PER_S),
        "sheds": float(sum(r.shed for r in requests)),
    }


def _generator_problems(summary: dict[str, float]) -> list[str]:
    problems = []
    if summary["lateness_p99_ms"] > MAX_LATENESS_SHARE * summary["p99_ms"]:
        problems.append(
            f"invalid run: the generator fell behind (p99 lateness "
            f"{summary['lateness_p99_ms']:.2f} ms is over {MAX_LATENESS_SHARE:.0%} "
            f"of the p99 latency {summary['p99_ms']:.2f} ms)"
        )
    if summary["achieved_per_s"] < MIN_SEND_RATE_SHARE * RATE_PER_S:
        problems.append(
            f"invalid run: the generator sent {summary['achieved_per_s']:.1f}/s "
            f"of the {RATE_PER_S:.0f}/s offered"
        )
    return problems


def _print_loadgen(label: str, summary: dict[str, float]) -> None:
    print(
        f"{label}: offered {summary['offered_per_s']:.0f}/s, sent "
        f"{summary['achieved_per_s']:.1f}/s, replied {summary['throughput_per_s']:.1f}/s, "
        f"p50 {summary['p50_ms']:.3f} ms, p99 {summary['p99_ms']:.3f} ms, "
        f"generator lateness p99 {summary['lateness_p99_ms']:.3f} ms, "
        f"sheds {summary['sheds']:.0f}", flush=True,
    )


def _problems(requests: list[Request]) -> list[str]:
    return [r.problem for r in requests if r.problem is not None]


def _run_client(coroutine: Any) -> Any:
    """Run one client phase on a ``select()``-based event loop.

    The default epoll selector rounds every timer up to a whole
    millisecond, which would make the generator send each request up to
    1 ms late; ``select()`` takes microsecond timeouts, and the client has
    only a few sockets to watch.
    """
    def loop_factory() -> asyncio.AbstractEventLoop:
        return asyncio.SelectorEventLoop(selectors.SelectSelector())

    with asyncio.Runner(loop_factory=loop_factory) as runner:
        return runner.run(coroutine)


class _Run:
    """State shared by the untraced and traced flows: inputs, the scratch
    state dir and the one live server process."""

    def __init__(self, seed: int, seconds: float) -> None:
        self.tmp = make_tmp_dir("serve")
        self.state_dir = self.tmp / "state"
        self.log = self.tmp / "server.log"
        self.stats: dict[str, Any] = {
            "next_id": 0, "probes_used": {}, "board_seen": {},
        }
        self.server: ServerProcess | None = None
        self.inputs = make_inputs(seed, seconds)
        self.names: list[str] = []
        self.checked: list[Request] = []

    def boot_and_fill(self) -> None:
        self._start(None)
        self.names, fill = _run_client(_fill_phase(self.server.address, self.inputs, self.stats))
        self.checked += fill
        self.server.kill()

    def restart(self, tally_path: Path | None = None) -> float:
        """SIGKILL any live server, start a new one on the state dir, and
        return the seconds until every recovered session has answered."""
        if self.server is not None:
            self.server.kill()
        start = time.perf_counter()
        self._start(tally_path)
        ready, requests = _run_client(
            _first_replies(self.server.address, self.inputs, self.names, self.stats)
        )
        self.checked += requests
        return ready - start

    def load(self, requests: list[Request]) -> dict[str, float]:
        clock = _run_client(_open_loop(self.server.address, requests, self.names, self.stats))
        return _summarise(requests, clock)

    def _start(self, tally_path: Path | None) -> None:
        self.server = ServerProcess(self.state_dir, self.log, tally_path)
        self.server.start()

    def close(self) -> None:
        if self.server is not None:
            self.server.kill()
        remove_tmp_dir(self.tmp)

    def session_figures(self) -> tuple[dict[str, float], list[str]]:
        """probes_per_player and honest_error as the service replied them.

        ``probes_per_player``: mean over the probed players of every
        session of the probe count the server last reported for that
        player.  ``honest_error``: mean over
        report channels of the Hamming distance (bits) between the board
        majority the server last replied, checked or not, and each
        reporter's true row.  A correct server replies the model's majority,
        so both repeat exactly for a seed; a wrong reply fails its op and
        moves the figure.  A channel with no board reply is a run problem.
        """
        inputs, seen = self.inputs, self.stats["board_seen"]
        errors, unread = [], []
        for s in range(N_SESSIONS):
            for c in range(N_CHANNELS):
                if (s, c) not in seen:
                    unread.append(f"session {s} channel {c}")
                    continue
                rows = inputs.truth[s][inputs.reporters[s][c]]
                errors.append(float(np.mean(np.sum(rows != seen[(s, c)], axis=1))))
        problems = [f"no board reply for {', '.join(unread)}"] if unread else []
        figures = {
            "probes_per_player": statistics.fmean(self.stats["probes_used"].values()),
            "honest_error": statistics.fmean(errors) if errors else float("nan"),
        }
        return figures, problems


def run_untraced(seed: int, seconds: float) -> dict[str, Any]:
    run = _Run(seed, seconds)
    try:
        run.boot_and_fill()
        restarts = [run.restart() for _ in range(RESTARTS)]
        summary = run.load(run.inputs.timed)
        rss = run.server.peak_rss_mb()
        run.server.stop()
        _print_loadgen("serve-durable", summary)
        figures, figure_problems = run.session_figures()
        values = {
            "throughput_per_s": summary["throughput_per_s"],
            "p50_ms": summary["p50_ms"],
            "setup_s": statistics.median(restarts),
            "peak_rss_mb": rss,
            **figures,
        }
        requests = run.checked + run.inputs.timed
        return {
            "values": values,
            "attempted": len(requests),
            "failures": _problems(requests),
            "problems": _generator_problems(summary) + figure_problems,
        }
    finally:
        run.close()


def run_traced(seed: int, seconds: float) -> dict[str, Any]:
    """Half the window against a plain server, half against the launcher's
    hooked server (restarted on the same state dir); the p50 difference is
    the tracing overhead."""
    run = _Run(seed, seconds)
    timed = run.inputs.timed
    half = len(timed) // 2
    tally_path = run.tmp / "tally.json"
    try:
        run.boot_and_fill()
        run.restart()
        plain = run.load(timed[:half])
        run.restart(tally_path)
        hooked = run.load(timed[half:])
        run.server.stop()
        _print_loadgen("serve-durable untraced half", plain)
        _print_loadgen("serve-durable traced half", hooked)
        dump = json.loads(tally_path.read_text())
        values = _layer_metrics(dump, plain, hooked)
        requests = run.checked + timed
        problems = _generator_problems(plain) + _generator_problems(hooked)
        if values["unattributed_ms"] < -UNATTRIBUTED_SLACK_MS:
            problems.append(
                f"server-side layer times exceed the request wall time by "
                f"{-values['unattributed_ms']:.4f} ms per request"
            )
        if dump["missing"]:
            print(f"warning: hooks not installed: {dump['missing']}", file=sys.stderr)
        return {
            "values": values,
            "attempted": len(requests),
            "failures": _problems(requests),
            "problems": problems,
        }
    finally:
        run.close()


def _layer_metrics(
    dump: dict[str, Any], plain: dict[str, float], hooked: dict[str, float]
) -> dict[str, float]:
    """Per-request means from the launcher's tallies (recovery: per restart)."""
    seconds, calls = dump["seconds"], dump["calls"]
    counters, timers = dump["counters"], dump["timers"]
    request_s = dump["request_s"]
    n = max(1, len(request_s))

    def per_ms(key: str) -> float:
        return 1e3 * seconds.get(key, 0.0) / n

    def per_call(key: str, source: dict[str, Any] = calls) -> float:
        return source.get(key, 0) / n

    requests, probes = counters.get("oracle.requests", 0), counters.get("oracle.probes", 0)
    values = {name: 0.0 for name in _PROTOCOL_ONLY_METRICS}
    values.update({
        "serve.protocol.encode_ms": per_ms("serve.protocol.encode"),
        "serve.protocol.decode_ms": per_ms("serve.protocol.decode"),
        "serve.protocol.frames": per_call("serve.protocol.encode"),
        "serve.protocol.bytes_out": per_call("serve.protocol.bytes_out"),
        "serve.session.probe_ms": per_ms("serve.session.probe"),
        "serve.session.report_ms": per_ms("serve.session.report"),
        "serve.session.board_ms": per_ms("serve.session.board"),
        "serve.server.overhead_ms": hooked["p50_ms"] - 1e3 * percentile(request_s, 50),
        "serve.durability.record_op_ms": per_ms("serve.durability.record_op"),
        "serve.durability.appends": per_call("serve.durability.record_op"),
        "serve.durability.checkpoint_ms": per_ms("serve.durability.checkpoint"),
        "serve.durability.checkpoints": per_call("serve.durability.checkpoint"),
        "serve.durability.recovery_ms": 1e3 * seconds.get("serve.durability.recovery", 0.0),
        "serve.durability.ops_replayed": float(dump["recovery_stats"].get("ops_replayed", 0)),
        "serve.durability.checkpoint_loads": float(
            dump["recovery_stats"].get("checkpoint_loads", 0)
        ),
        "serve.sheds": hooked["sheds"] / n,
        "serve.client.p99_ms": hooked["p99_ms"],
        "loadgen.lateness_p99_ms": hooked["lateness_p99_ms"],
        "loadgen.offered_per_s": hooked["offered_per_s"],
        "loadgen.achieved_per_s": hooked["achieved_per_s"],
        "simulation.oracle_ms": per_ms("simulation.oracle"),
        "simulation.oracle_calls": per_call("simulation.oracle"),
        "simulation.oracle_probes": probes / n,
        "simulation.oracle_requests": requests / n,
        "simulation.oracle_memo_hit_rate": 1.0 - probes / requests if requests else 0.0,
        "simulation.board_ms": per_ms("simulation.board"),
        "simulation.board_calls": per_call("simulation.board"),
        "simulation.board_cells": per_call("board.cells", counters),
        "simulation.board_dedup_dropped": per_call("board.dedup_dropped", counters),
        "obs.overhead_pct": 100.0 * (hooked["p50_ms"] - plain["p50_ms"]) / plain["p50_ms"],
    })
    for kernel in PERF_KERNELS:
        timer = timers.get(f"perf.{kernel}", {})
        values[f"perf.{kernel}_ms"] = 1e3 * timer.get("total_s", 0.0) / n
        values[f"perf.{kernel}_calls"] = timer.get("calls", 0) / n
    measured = sum(values[name] for name in (
        "serve.protocol.encode_ms", "serve.protocol.decode_ms",
        "serve.session.probe_ms", "serve.session.report_ms", "serve.session.board_ms",
        "serve.durability.record_op_ms", "serve.durability.checkpoint_ms",
    ))
    values["unattributed_ms"] = 1e3 * statistics.fmean(request_s) - measured
    return values
