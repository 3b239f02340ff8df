"""serve-mixed: open-loop ``POST /count`` reads with concurrent edits
against a ``python -m repro serve`` process.

The load generator is this process: one asyncio thread, a pool of
keep-alive read connections and one connection for edits.  Reads arrive
as a seeded Poisson process, each carrying 16 hub-skewed pairs; one
32-edge ``POST /edits`` batch is due every 0.25 s.
Every request is timed from its due time, so a stall also charges the
requests queued behind it; a 503, a timeout or any other non-200 answer
counts as failed and as an infinite latency.  A refused edit batch is left
out of the replay; after an edit batch whose outcome is unknown (no answer,
or a server error) no further edits are sent.

After the load, the edit batches are replayed in order through a
:class:`~repro.core.dynamic.DynamicCounter` and every response is checked
bit-exactly against ``GraphSession.count_pairs`` at the epoch it was
answered from.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import signal
import subprocess
import sys
import time

import numpy as np

from perfbench import host
from perfbench.metrics import CorrectnessError, Outcome, median, percentile
from perfbench.tracer import Hooks, Tracer, group_by_root

DATASET, SCALE = "lj", 1.0
READ_RATE = 400.0  # offered reads per second in the main phase
PAIRS_PER_READ = 16
NUM_HUBS = 8  # left endpoints come from the top-degree vertices
PAYLOADS = 512  # distinct read payloads, cycled
EDIT_PERIOD_S = 0.25
# The mix of ``_mixed_batch`` in benchmarks/bench_dynamic.py: half fresh
# random insertions, half deletions of existing edges.
EDIT_BATCH = 32
EDIT_DELETES = EDIT_BATCH // 2
P99_LIMIT_MS = 20.0  # read_max_rps: highest rate with read p99 within this
# Read connections: enough that a request rarely waits for one, so a slow
# moment of the host cannot turn the generator into the bottleneck (with 2,
# 2 of 10 runs queued behind the pool and read p50 rose to 12-24 ms).
READ_CONNECTIONS = 8
TIMEOUT_S = 5.0
SETUP_REPEATS = 5  # a server start is short and noisy: take the median of 5
# Shares of --seconds: the main phase at READ_RATE, and each rung of the
# read_max_rps ladder (rates in multiples of READ_RATE).
MAIN_SHARE, RUNG_SHARE = 0.6, 0.1
LADDER = (1.5, 2.0, 2.5, 3.0)
REPLAY_BATCHES = 200  # read payloads replayed for engine.session.count_pairs_ms


# --------------------------------------------------------------------- #
# inputs
# --------------------------------------------------------------------- #
def make_inputs(graph, seed: int, num_batches: int):
    """Seeded read payload pairs and edit batches for ``graph``.

    Returns ``(pairs, edits)``: ``pairs`` is ``(PAYLOADS, PAIRS_PER_READ,
    2)`` int64, ``edits`` a list of ``num_batches`` ``(insert, delete)``
    arrays.  Deletions are drawn without replacement over all batches, so
    each removes an edge that is still present (while the graph has
    enough edges).
    """
    rng = np.random.default_rng([seed, 1])
    deg = np.diff(graph.offsets)
    hubs = np.argsort(deg, kind="stable")[-NUM_HUBS:]
    n = graph.num_vertices
    u = hubs[rng.integers(0, len(hubs), size=(PAYLOADS, PAIRS_PER_READ))]
    v = rng.integers(0, n, size=(PAYLOADS, PAIRS_PER_READ))
    pairs = np.stack([u, v], axis=2).astype(np.int64)

    src = graph.edge_sources()
    upper = np.flatnonzero(src < graph.dst)
    doomed = np.resize(rng.permutation(upper), num_batches * EDIT_DELETES)
    edits = []
    for pick in doomed.reshape(num_batches, EDIT_DELETES):
        ins = rng.integers(0, n, size=(EDIT_BATCH - EDIT_DELETES, 2))
        ins = ins[ins[:, 0] != ins[:, 1]]
        dels = np.stack([src[pick], graph.dst[pick]], axis=1).astype(np.int64)
        edits.append((ins.astype(np.int64), dels))
    return pairs, edits


def poisson_schedule(rng, rate: float, seconds: float) -> np.ndarray:
    """Arrival offsets (s) of a Poisson process of ``rate`` over ``seconds``."""
    gaps = rng.exponential(1.0 / rate, size=int(rate * seconds * 1.5) + 16)
    times = np.cumsum(gaps)
    return times[times < seconds]


# --------------------------------------------------------------------- #
# server process
# --------------------------------------------------------------------- #
class ServerProcess:
    """``python -m repro serve`` on an ephemeral port."""

    def __init__(self):
        env = dict(os.environ)
        src = os.path.join(host.ROOT, "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        self.log = open(os.path.join(host.BUILD_DIR, "server.log"), "ab")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1", "--port", "0"],
            cwd=host.ROOT, env=env, stdout=subprocess.PIPE, stderr=self.log,
        )
        line = self.proc.stdout.readline().decode()
        if not line.startswith("serving on "):
            self.stop()
            raise RuntimeError(f"repro serve did not start: {line!r}")
        self.port = int(line.rsplit(":", 1)[1])

    @property
    def pid(self) -> int:
        return self.proc.pid

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=10)
        self.proc.stdout.close()
        self.log.close()


# --------------------------------------------------------------------- #
# HTTP client
# --------------------------------------------------------------------- #
class Connection:
    """One keep-alive HTTP/1.1 connection (asyncio streams)."""

    def __init__(self, port: int):
        self.port = port
        self.reader = self.writer = None

    async def open(self) -> "Connection":
        self.reader, self.writer = await asyncio.open_connection("127.0.0.1", self.port)
        return self

    async def request(self, method: bytes, path: bytes, body: bytes = b""):
        """Returns ``(status, raw JSON body bytes)``."""
        self.writer.write(
            method + b" " + path + b" HTTP/1.1\r\nHost: bench\r\n"
            b"Content-Type: application/json\r\nContent-Length: "
            + str(len(body)).encode() + b"\r\n\r\n" + body
        )
        head = await self.reader.readuntil(b"\r\n\r\n")
        length = 0
        for line in head.split(b"\r\n")[1:]:
            if line.lower().startswith(b"content-length:"):
                length = int(line.split(b":", 1)[1])
        data = await self.reader.readexactly(length)
        return int(head.split(b" ", 2)[1]), data

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except OSError:
                pass


#: Markers in :attr:`LoadGenerator.edit_epochs` for a failed edit batch.
REFUSED, UNKNOWN = "refused", "unknown"


class LoadGenerator:
    """Open-loop reads over a pool of keep-alive connections, plus edits
    serialized over one connection of their own (a writer does not hold
    up readers' connections)."""

    def __init__(self, port: int, key: str, pairs: np.ndarray, edits: list):
        self.port = port
        self.payloads = [
            json.dumps({"graph": key, "pairs": p.tolist()}).encode() for p in pairs
        ]
        self.edit_payloads = [
            json.dumps({"graph": key, "insert": i.tolist(), "delete": d.tolist()}).encode()
            for i, d in edits
        ]
        self.next_edit = 0
        #: Per sent batch: the server's epoch after it, REFUSED or UNKNOWN.
        self.edit_epochs: list = []
        self.edits_stopped = False  # set after an edit of unknown outcome
        #: (payload index, raw response body); parsed after the load.
        self.responses: list[tuple[int, bytes]] = []
        self._reads: asyncio.Queue | None = None  # idle read connections
        self._writes: asyncio.Queue | None = None  # the edit connection
        self._edit_lock: asyncio.Lock | None = None
        self._next_read = 0

    async def open(self) -> None:
        self._reads, self._writes = asyncio.Queue(), asyncio.Queue()
        self._edit_lock = asyncio.Lock()
        for _ in range(READ_CONNECTIONS):
            self._reads.put_nowait(await Connection(self.port).open())
        self._writes.put_nowait(await Connection(self.port).open())

    async def close(self) -> None:
        for pool in (self._reads, self._writes):
            while not pool.empty():
                await pool.get_nowait().close()

    async def _send(self, pool: asyncio.Queue, method: bytes, path: bytes, body: bytes):
        conn = await pool.get()
        try:
            return await asyncio.wait_for(conn.request(method, path, body), TIMEOUT_S)
        except (asyncio.TimeoutError, OSError, asyncio.IncompleteReadError) as exc:
            # The connection is in an unknown state: replace it.
            await conn.close()
            conn = await Connection(self.port).open()
            return None, repr(exc)
        finally:
            pool.put_nowait(conn)

    async def get(self, path: bytes) -> dict:
        status, body = await self._send(self._reads, b"GET", path, b"")
        if status != 200:
            raise RuntimeError(f"GET {path.decode()} -> {status}: {body}")
        return json.loads(body)

    async def _read(self, due: float, reads: list) -> None:
        idx = self._next_read % len(self.payloads)
        self._next_read += 1
        status, body = await self._send(self._reads, b"POST", b"/count", self.payloads[idx])
        done = time.perf_counter()
        if status == 200:
            self.responses.append((idx, body))
            reads.append((due, done - due))
        else:
            reads.append((due, math.inf))

    async def _edit(self, due: float, edits: list) -> None:
        # One edit connection, FIFO waiters: batches apply in send order.
        async with self._edit_lock:
            if self.edits_stopped:
                return
            body = self.edit_payloads[self.next_edit]
            self.next_edit += 1
            status, resp = await self._send(self._writes, b"POST", b"/edits", body)
            if status == 200:
                self.edit_epochs.append(json.loads(resp)["epoch"])
                edits.append(time.perf_counter() - due)
                return
            edits.append(math.inf)
            if status is not None and (400 <= status < 500 or status == 503):
                # Rejected before it was applied: the replay skips it.
                self.edit_epochs.append(REFUSED)
            else:
                # No answer, or a server error part-way: the server may or
                # may not have applied it.  Stop editing so the replay can
                # settle it from the epochs the reads report.
                self.edit_epochs.append(UNKNOWN)
                self.edits_stopped = True

    async def phase(self, rng, rate: float, seconds: float, with_edits: bool = True) -> dict:
        """One open-loop phase.  Returns ``reads`` as (due time, latency)
        pairs, edit latencies, and how late the generator issued each
        request (all in seconds)."""
        arrivals = [(float(t), 0) for t in poisson_schedule(rng, rate, seconds)]
        if with_edits:
            n_edits = int(seconds / EDIT_PERIOD_S)
            arrivals += [((k + 0.5) * EDIT_PERIOD_S, 1) for k in range(n_edits)]
        arrivals.sort()
        reads, edits, late, tasks = [], [], [], []
        start = time.perf_counter() + 0.01
        for offset, kind in arrivals:
            due = start + offset
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            late.append(time.perf_counter() - due)
            coro = self._read(due, reads) if kind == 0 else self._edit(due, edits)
            tasks.append(asyncio.ensure_future(coro))
        for task in tasks:
            await task
        return {"reads": reads, "edits": edits, "late": late, "rate": rate}


def latencies(phase: dict) -> list[float]:
    return [lat for _, lat in phase["reads"]]


def tally(phases: list[dict]) -> tuple[int, int]:
    """(attempted, failed) operations over ``phases``; a failed read or
    edit is one answered with anything but 200 (or not at all)."""
    attempted = sum(len(p["reads"]) + len(p["edits"]) for p in phases)
    failed = sum(
        1 for p in phases for t in latencies(p) + p["edits"] if math.isinf(t)
    )
    return attempted, failed


def _passes(phase: dict) -> bool:
    p99 = percentile(latencies(phase), 99.0)["value"]
    return p99 is not None and bool(p99 * 1e3 <= P99_LIMIT_MS)


def _ms(seconds):
    return None if seconds is None else seconds * 1e3


async def max_rate_ladder(gen: LoadGenerator, rng, main: dict, probe_s: float):
    """``read_max_rps``: the highest rung of :data:`LADDER` (multiples of
    the main-phase rate, edits included) whose read p99 stays within
    :data:`P99_LIMIT_MS`.  Failures count as infinite latency, so a
    growing backlog or a refusal fails the rung.  0 when even the main
    phase misses the limit.
    """
    if not _passes(main):
        return 0.0, []
    best, rungs = main["rate"], []
    for factor in LADDER:
        phase = await gen.phase(rng, main["rate"] * factor, probe_s)
        rungs.append(phase)
        if not _passes(phase):
            break
        best = phase["rate"]
    return best, rungs


# --------------------------------------------------------------------- #
# verification by replay
# --------------------------------------------------------------------- #
def replay(graph, pairs, edits, edit_epochs, responses, tracer=None):
    """Replay the sent edit batches and check every response bit-exactly
    against ``count_pairs`` at its epoch.  Returns the replay telemetry.

    A :data:`REFUSED` batch is skipped.  An :data:`UNKNOWN` batch is the
    last one sent; it is replayed only if a read reports the epoch it
    would have produced.
    """
    from repro.core.dynamic import DynamicCounter
    from repro.engine.session import GraphSession

    flat_u = pairs[:, :, 0].ravel()
    flat_v = pairs[:, :, 1].ravel()
    by_epoch: dict[int, list] = {}
    for idx, raw in responses:
        body = json.loads(raw)
        by_epoch.setdefault(body["epoch"], []).append((idx, body["counts"]))

    def check(epoch: int, g) -> None:
        if epoch not in by_epoch:
            return
        with GraphSession(g) as s:
            expected = s.count_pairs(flat_u, flat_v).reshape(pairs.shape[:2])
        for idx, counts in by_epoch.pop(epoch):
            if counts != expected[idx].tolist():
                raise CorrectnessError(
                    f"serve-mixed: read {idx} at epoch {epoch} answered "
                    f"{counts}, replay expects {expected[idx].tolist()}"
                )

    check(0, graph)
    counter = DynamicCounter(graph)
    epoch, modes = 0, []
    try:
        for k, server_epoch in enumerate(edit_epochs):
            if server_epoch == REFUSED:
                continue
            if server_epoch == UNKNOWN:
                if epoch + 1 not in by_epoch:
                    break  # never seen: whether it applied does not matter
                server_epoch = epoch + 1
            ins, dels = edits[k]
            if tracer is not None:
                tracer.enabled = True
            result = counter.apply(insertions=ins, deletions=dels)
            if result.inserted + result.deleted:
                epoch += 1
                g = counter.materialize()
            else:
                g = None
            if tracer is not None:
                tracer.enabled = False
            modes.append(result.mode)
            if epoch != server_epoch:
                raise CorrectnessError(
                    f"serve-mixed: edit batch {k} left the server at epoch "
                    f"{server_epoch}, replay at {epoch}"
                )
            if g is not None:
                check(epoch, g)
        final = counter.materialize()
    finally:
        counter.close()
    if by_epoch:
        raise CorrectnessError(
            f"serve-mixed: responses at epochs {sorted(by_epoch)} never produced by the edits"
        )
    return {"recounts": modes.count("recount"), "final_graph": final}


# --------------------------------------------------------------------- #
# the workload
# --------------------------------------------------------------------- #
def _setup_once(seed: int, path: str):
    """Generate the graph, start a server and make it warm.

    Returns ``(seconds, graph load seconds, server, graph key)``.
    """
    from repro.graph import datasets
    from repro.graph.io import write_edge_list

    t0 = time.perf_counter()
    graph = datasets.load_dataset(DATASET, SCALE, seed=seed, cache=False)
    write_edge_list(graph, path)
    t1 = time.perf_counter()
    server = ServerProcess()
    try:
        key = asyncio.run(_load_and_warm(server.port, path))
    except BaseException:
        server.stop()
        raise
    return time.perf_counter() - t0, t1 - t0, server, key


async def _load_and_warm(port: int, path: str):
    conn = await Connection(port).open()
    try:
        status, info = await conn.request(
            b"POST", b"/graphs", json.dumps({"path": path}).encode()
        )
        if status != 200:
            raise RuntimeError(f"POST /graphs -> {status}: {info}")
        key = json.loads(info)["graph"]
        body = json.dumps({"graph": key, "pairs": [[0, 1]]}).encode()
        status, warm = await conn.request(b"POST", b"/count", body)
        if status != 200:
            raise RuntimeError(f"warm-up POST /count -> {status}: {warm}")
        return key
    finally:
        await conn.close()


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    from repro.graph.io import read_edge_list

    out = Outcome()
    path = os.path.join(host.BUILD_DIR, f"serve-{DATASET}-{seed}.txt")
    # Every phase sends edits: at most one batch per EDIT_PERIOD_S of the run.
    num_batches = int(seconds / EDIT_PERIOD_S) + len(LADDER) + 1
    setups, loads, server = [], [], None
    for _ in range(SETUP_REPEATS):
        if server is not None:
            server.stop()
        elapsed, load_s, server, key = _setup_once(seed, path)
        setups.append(elapsed)
        loads.append(load_s)
    try:
        graph = read_edge_list(path)  # exactly what the server loaded
        pairs, edits = make_inputs(graph, seed, num_batches)
        load = asyncio.run(
            _drive(server.port, key, pairs, edits, seed, seconds, trace)
        )
        peak = host.peak_rss_mb(server.pid)
    finally:
        server.stop()
        os.remove(path)
    gen, main = load["gen"], load["main"]

    tracer = Tracer()
    with Hooks(tracer) as hooks:
        telemetry = replay(graph, pairs, edits, gen.edit_epochs, gen.responses, tracer)
        untraced, traced = _replay_reads(telemetry["final_graph"], pairs, tracer)

    reads = latencies(main)
    out.attempted, out.failed = tally([main] + load["rungs"])
    p50, p99 = percentile(reads, 50.0), percentile(reads, 99.0)
    e50 = percentile(main["edits"], 50.0)
    late = percentile(main["late"], 99.0)
    out.e2e = {
        "setup_s": median(setups),
        "peak_rss_mb": peak,
        "latency_p50_ms": _ms(p50["value"]),
    }
    out.note("setup_s", median(setups), "s", len(setups))
    out.note("peak_rss_mb", peak, "MB")
    out.note("fail_ratio", out.failed / max(1, out.attempted), "ratio", out.attempted)
    out.note("read_p50_ms", _ms(p50["value"]), "ms", p50["n"])
    out.note("read_p99_ms", _ms(p99["value"]), "ms", p99["n"])
    out.note("edit_p50_ms", _ms(e50["value"]), "ms", e50["n"])
    if not trace:
        out.note("read_max_rps", load["max_rate"], "1/s", len(load["rungs"]) + 1)
        out.detail["read_max_rps"].update(
            p99_limit_ms=P99_LIMIT_MS,
            rungs=[{"rate": p["rate"], "p99_ms": _ms(percentile(latencies(p), 99.0)["value"]),
                    "n": len(p["reads"])} for p in [main] + load["rungs"]],
        )
    out.note("read_rate_offered", READ_RATE, "1/s")
    out.note("loadgen.late_p99_ms", late["value"] * 1e3, "ms", late["n"])

    layers = out.layers
    layers["graph.load_ms"] = median(loads) * 1e3
    layers["loadgen.late_p99_ms"] = late["value"] * 1e3
    overhead = 100.0 * (median(traced) / median(untraced) - 1.0)
    layers["trace.overhead_pct"] = overhead
    out.note("trace.overhead_pct", overhead, "%", len(traced))
    if trace:
        _serve_layers(out, load["stats"], p50["value"] * 1e3)
        for metric, root in (
            ("dynamic.apply_ms", "dynamic.apply"),
            ("dynamic.materialize_ms", "dynamic.materialize"),
            ("engine.session.count_pairs_ms", "engine.session.count_pairs"),
        ):
            groups = group_by_root(tracer.spans, root)
            layers[metric] = median([g["total"] for g in groups]) * 1e3 if groups else 0.0
        layers["dynamic.recounts"] = telemetry["recounts"]
        tracer.write_chrome(os.path.join(host.BUILD_DIR, f"trace-serve-mixed-{seed}.json"))
    out.mark_missing(hooks.missing)
    return out


def _replay_reads(graph, pairs, tracer):
    """Time ``count_pairs`` on single read payloads, alternately traced."""
    from repro.engine.session import GraphSession

    untraced, traced = [], []
    with GraphSession(graph) as s:
        for i in range(REPLAY_BATCHES):
            p = pairs[i % len(pairs)]
            on = i % 2 == 1
            tracer.enabled = on
            t0 = time.perf_counter()
            s.count_pairs(p[:, 0], p[:, 1])
            (traced if on else untraced).append(time.perf_counter() - t0)
            tracer.enabled = False
    return untraced, traced


def _serve_layers(out, stats: dict, read_p50_ms: float) -> None:
    before, after = stats["before"], stats["after"]
    layers = out.layers
    try:
        batches = after["batches"] - before["batches"]
        layers["serve.server_p50_ms"] = after["latency_ms"]["p50_ms"]
        layers["serve.server_p99_ms"] = after["latency_ms"]["p99_ms"]
        layers["serve.batches"] = batches
        layers["serve.batch_pairs_mean"] = (
            (after["pairs"] - before["pairs"]) / batches if batches else 0.0
        )
        layers["serve.queue_depth_max"] = after["queue_depth"]["max"]
        layers["serve.rejected"] = after["rejected"] - before["rejected"]
        layers["serve.dispatch_kernel_ms"] = (
            (after["kernel_seconds"] - before["kernel_seconds"]) / batches * 1e3
            if batches else 0.0
        )
        layers["serve.http_overhead_ms"] = read_p50_ms - after["latency_ms"]["p50_ms"]
        layers["kernels.unattributed_ms"] = layers["serve.http_overhead_ms"]
    except KeyError as exc:
        out.mark_missing({"serve": f"GET /stats lacks {exc}"})


async def _drive(port, key, pairs, edits, seed, seconds, trace) -> dict:
    gen = LoadGenerator(port, key, pairs, edits)
    await gen.open()
    try:
        rng = np.random.default_rng([seed, 2])
        # No warm-up phase (set-up already sent a read), so the server's
        # lifetime /stats percentiles cover the main phase alone.
        before = await gen.get(b"/stats")
        main = await gen.phase(rng, READ_RATE, seconds * MAIN_SHARE)
        after = await gen.get(b"/stats")
        if trace:  # per-layer metrics need no capacity search
            max_rate, rungs = None, []
        else:
            max_rate, rungs = await max_rate_ladder(gen, rng, main, seconds * RUNG_SHARE)
    finally:
        await gen.close()
    return {"gen": gen, "main": main, "max_rate": max_rate, "rungs": rungs,
            "stats": {"before": before, "after": after}}
