"""In-process workloads: warm all-edge counts and warm clique-4 counts.

Each run generates several graphs from the seed, computes each one's
reference answer once with the ``merge`` backend/runner, sets a session up
for each (``setup_s`` is the median), then repeats the warm operation,
cycling through the sessions, for the run's seconds.  Every answer is
compared bit-exactly with its reference between operations, outside the
timed region.
"""

from __future__ import annotations

import math
import os
import statistics
import time
from dataclasses import dataclass

import numpy as np

from perfbench import host
from perfbench.metrics import CorrectnessError, Outcome, median, percentile
from perfbench.tracer import Hooks, Tracer, group_by_root

#: Operations after an untraced loop, alternately traced, that give the
#: result record its ``trace.overhead_pct``.
TRACE_TAIL_OPS = 4

#: Runs of the compiled bitmap backend behind ``compiled.best_count_ms``.
COMPILED_RUNS = 5

#: Span names whose self time counts as kernel time.
KERNEL_SPANS = (
    "kernels.cover", "kernels.gallop", "kernels.bitmap",
    "kernels.matmul", "kernels.mirror", "kernels.reverse_offsets",
)


@dataclass(frozen=True)
class InProcessSpec:
    """One in-process workload: dataset stand-in, scale, operation, and
    how many stand-ins a run generates from its seed (``graphs``).

    The timed loop cycles through the run's graphs and ``latency_p50_ms``
    averages their per-graph medians, so a run's figure does not hang on
    one draw of the generator: the cost of one stand-in varies from seed
    to seed by about ±6% for the all-edge counts and ±8% for clique-4.
    """

    name: str
    dataset: str
    scale: float
    motif: str | None  # None: session.count(); else count_motif(motif)
    graphs: int


COUNT_SKEWED = InProcessSpec("count-skewed", "tw", 1.0, None, graphs=3)
COUNT_UNIFORM = InProcessSpec("count-uniform", "fr", 1.0, None, graphs=3)
MOTIF_CLIQUE = InProcessSpec("motif-clique", "wi", 0.5, "clique-4", graphs=6)


class _Op:
    """The workload's warm operation on each of the run's sessions, checked
    bit-exactly against that session's reference answer."""

    def __init__(self, spec: InProcessSpec):
        self.spec = spec
        self.sessions: list = []
        self.references: list = []

    def add(self, session, reference) -> None:
        self.sessions.append(session)
        self.references.append(reference)

    def __call__(self, j: int):
        session = self.sessions[j]
        if self.spec.motif is None:
            return session.count()
        return session.count_motif(self.spec.motif)

    def check(self, result, j: int) -> None:
        reference = self.references[j]
        if self.spec.motif is None:
            if not np.array_equal(result.counts, reference):
                diff = int(np.count_nonzero(result.counts != reference))
                raise CorrectnessError(
                    f"{self.spec.name}: {diff} edge counts differ from merge"
                )
        elif result.total != reference:
            raise CorrectnessError(
                f"{self.spec.name}: {self.spec.motif} total {result.total} "
                f"!= merge runner {reference}"
            )

    @property
    def root_span(self) -> str:
        return (
            "engine.session.count" if self.spec.motif is None
            else "engine.session.count_motif"
        )


def reference_answer(spec: InProcessSpec, graph):
    """The ``merge`` answer the timed operations must reproduce."""
    from repro.engine.session import GraphSession

    with GraphSession(graph) as session:
        if spec.motif is None:
            return session.count(backend="merge").counts
        return session.count_motif(spec.motif, backend="merge").total


def timed_loop(op: _Op, seconds: float, tracer: Tracer | None = None,
               speed: host.HostSpeed | None = None):
    """Repeat ``op`` for ``seconds``, cycling through its sessions.

    Returns ``(untraced, traced, failed)``; the latency lists hold
    ``(session index, seconds)``.  At least two cycles run, however short
    ``seconds`` is.  With a tracer every second cycle is traced, so traced
    and untraced latencies interleave under the same conditions and cover
    every session.  A failed operation (a :class:`~repro.errors.ReproError`)
    is recorded as an infinite latency.  With ``speed``, a calibration
    sample precedes every operation.
    """
    from repro.errors import ReproError

    untraced, traced, failed = [], [], 0
    deadline = time.perf_counter() + seconds
    i, cycle = 0, len(op.sessions)
    while i < 2 * cycle or time.perf_counter() < deadline:
        j = i % cycle
        if speed is not None:
            speed.sample()
        on = tracer is not None and (i // cycle) % 2 == 1
        if on:
            tracer.enabled = True
        t0 = time.perf_counter()
        try:
            result = op(j)
            dt = time.perf_counter() - t0
        except ReproError:
            result, dt = None, math.inf
        finally:
            if on:
                tracer.enabled = False
        if result is None:
            failed += 1
        else:
            op.check(result, j)
        (traced if on else untraced).append((j, dt))
        i += 1
    return untraced, traced, failed


def _total_builds(op: _Op) -> int:
    return sum(
        s.builds for session in op.sessions for s in session.artifact_stats().values()
    )


def _seconds(timed) -> list[float]:
    return [dt for _, dt in timed]


def run(spec: InProcessSpec, seed: int, seconds: float, trace: bool) -> Outcome:
    from repro.engine.session import GraphSession
    from repro.graph import datasets
    from repro.plan.planner import clear_plan_cache

    out = Outcome()
    graph_seeds = [seed * spec.graphs + j for j in range(spec.graphs)]
    references = [
        reference_answer(spec, datasets.load_dataset(spec.dataset, spec.scale, seed=gs, cache=False))
        for gs in graph_seeds
    ]

    # Set-up: generate each graph and make its session warm.
    op = _Op(spec)
    speed = host.HostSpeed()
    host.reset_peak_rss()
    setups, loads, edges = [], [], []
    for gs, reference in zip(graph_seeds, references):
        clear_plan_cache()
        speed.sample(3)
        t0 = time.perf_counter()
        graph = datasets.load_dataset(spec.dataset, spec.scale, seed=gs, cache=False)
        t1 = time.perf_counter()
        op.add(GraphSession(graph), reference)
        first = op(len(op.sessions) - 1)
        setups.append(time.perf_counter() - t0)
        loads.append(t1 - t0)
        edges.append(graph.num_directed_edges)
        op.check(first, len(op.sessions) - 1)

    builds0 = _total_builds(op)
    tracer = Tracer()
    if trace:
        with Hooks(tracer) as hooks:
            untraced, traced, failed = timed_loop(op, seconds, tracer, speed)
    else:
        untraced, traced, failed = timed_loop(op, seconds, speed=speed)
    builds_in_loop = _total_builds(op) - builds0
    peak = host.peak_rss_mb()
    tail_untraced = []
    if not trace:
        with Hooks(tracer) as hooks:
            for i in range(TRACE_TAIL_OPS):
                tracer.enabled = i % 2 == 1
                t0 = time.perf_counter()
                result = op(0)
                (traced if tracer.enabled else tail_untraced).append((0, time.perf_counter() - t0))
                tracer.enabled = False
                op.check(result, 0)

    out.attempted = len(untraced) + len(traced) + len(tail_untraced)
    out.failed = failed
    p50 = percentile(_seconds(untraced), 50.0)
    p90 = percentile(_seconds(untraced), 90.0)
    per_graph = [
        median([dt for j, dt in untraced if j == g]) for g in range(len(op.sessions))
    ]
    latency = statistics.fmean(per_graph)
    out.e2e = {
        "setup_s": median(setups) * speed.factor(),
        "peak_rss_mb": peak,
        "latency_p50_ms": _ms(latency) * speed.factor(),
    }
    name = "count" if spec.motif is None else "clique"
    speed.note(out)
    out.note("graphs", len(op.sessions), "count")
    out.note("setup_s", median(setups), "s", len(setups))
    out.note("peak_rss_mb", peak, "MB")
    out.note("fail_ratio", failed / max(1, out.attempted), "ratio", out.attempted)
    out.note("latency_p50_ms", _ms(latency), "ms", len(untraced))
    out.detail["latency_p50_ms"]["per_graph_ms"] = [_ms(t) for t in per_graph]
    out.note(f"{name}_p50_ms", _ms(p50["value"]), "ms", p50["n"])
    out.note(f"{name}_p90_ms", _ms(p90["value"]), "ms", p90["n"])
    if spec.motif is None:
        ok = [(j, dt) for j, dt in untraced if math.isfinite(dt)]
        edges_per_s = sum(edges[j] for j, _ in ok) / sum(_seconds(ok)) if ok else None
        out.note("edges_per_s", edges_per_s, "1/s", len(ok))

    layers = out.layers
    layers["graph.load_ms"] = _ms(median(loads))
    layers["engine.session.builds_in_loop"] = builds_in_loop
    base = untraced if trace else tail_untraced
    overhead = 100.0 * (median(_seconds(traced)) / median(_seconds(base)) - 1.0)
    layers["trace.overhead_pct"] = overhead
    out.note("trace.overhead_pct", overhead, "%", len(traced))
    out.note("loadgen.late_p99_ms", 0.0, "ms")  # closed loop: nothing is due
    if trace:
        _layer_metrics(out, spec, op, tracer, p50["value"])
        tracer.write_chrome(os.path.join(host.BUILD_DIR, f"trace-{spec.name}-{seed}.json"))
    if spec.motif is not None:  # after the layer metrics: it builds plans
        for session in op.sessions:
            _check_clique3(session)
    out.mark_missing(hooks.missing)
    for session in op.sessions:
        session.close()
    return out


def _check_clique3(session) -> None:
    """Reconciliation identity: clique-3 total == triangle_count()."""
    c3 = session.count_motif("clique-3").total
    tri = session.count().triangle_count()
    if c3 != tri:
        raise CorrectnessError(f"clique-3 total {c3} != triangle_count() {tri}")


def _layer_metrics(out, spec, op, tracer, count_p50_s) -> None:
    """Per-layer values from the traced operations and session telemetry;
    a per-graph value is the median over the run's graphs."""
    layers = out.layers
    groups = group_by_root(tracer.spans, op.root_span)

    def self_ms(name: str) -> float:
        return _ms(median([g["self"].get(name, 0.0) for g in groups])) or 0.0

    for span in KERNEL_SPANS:
        if span + "_ms" in layers:
            layers[span + "_ms"] = self_ms(span)
    if groups:
        layers["kernels.kernel_share"] = median(
            [sum(g["self"].get(s, 0.0) for s in KERNEL_SPANS) / g["total"] for g in groups]
        )
        layers["kernels.unattributed_ms"] = self_ms(op.root_span)
    else:  # the root hook is missing: nothing to attribute against
        layers["kernels.unattributed_ms"] = None

    if spec.motif is None:
        _plan_metrics(out, op, groups)
        _compiled_metrics(out, op, count_p50_s)
    else:
        _motif_metrics(out, op, spec, self_ms("motif.runner"))

    # Artifact build times last: the compiled run builds the upper-edge index.
    try:
        profiles = [s.profile()["artifacts"] for s in op.sessions]
    except (AttributeError, KeyError) as exc:
        out.mark_missing({"engine.session": f"profile(): {exc!r}"})
        return
    for metric, artifact in (
        ("fingerprint_ms", "fingerprint"),
        ("upper_edges_ms", "upper_edges"),
        ("plan_build_ms", "plan"),  # one per (skew, cover) configuration
        ("oriented_dag_ms", "oriented_dag"),
    ):
        layers["engine.session." + metric] = 1e3 * median([
            sum(
                row["last_build_seconds"] for name, row in profile.items()
                if name == artifact or name.startswith(artifact + ":")
            )
            for profile in profiles
        ])


def _plan_metrics(out, op, groups) -> None:
    layers = out.layers
    try:
        plans = [s.plan() for s in op.sessions]
        predicted = {
            bucket: median([p.buckets()[i].predicted_ns for p in plans])
            for i, bucket in enumerate(b.name for b in plans[0].buckets())
        }
        sizes = {
            "cover": [p.num_cover_edges for p in plans],
            "gallop": [len(p.gallop_edges) for p in plans],
            "bitmap": [len(p.bitmap_edges) for p in plans],
            "matmul": [len(p.matmul_edges) for p in plans],
        }
    except AttributeError as exc:
        out.mark_missing({"plan": f"{exc!r}"})
        return
    for bucket, values in sizes.items():
        layers[f"plan.{bucket}_edges"] = int(median(values))
    for bucket in ("gallop", "bitmap"):
        measured_ns = median([g["self"].get(f"kernels.{bucket}", 0.0) for g in groups])
        measured_ns = (measured_ns or 0.0) * 1e9
        layers[f"plan.{bucket}_model_ratio"] = (
            predicted[bucket] / measured_ns if measured_ns > 0 else 0.0
        )


def _compiled_metrics(out, op, count_p50_s) -> None:
    from repro.errors import AlgorithmError

    times = []
    try:
        for i in range(COMPILED_RUNS):
            j = i % len(op.sessions)
            t0 = time.perf_counter()
            result = op.sessions[j].count(backend="bitmap-compiled")
            times.append(time.perf_counter() - t0)
            op.check(result, j)
    except AlgorithmError as exc:  # no compiled provider on this host
        out.mark_missing({"compiled": str(exc)})
        return
    best = median(times)
    out.layers["compiled.best_count_ms"] = _ms(best)
    out.layers["compiled.default_over_best"] = count_p50_s / best


def _motif_metrics(out, op, spec, runner_ms) -> None:
    """DAG size and runner time of the timed clique count.  The gallop /
    bitmap split of :func:`plan_cliques` describes the ``hybrid`` runner
    only: with any other runner behind ``backend="auto"`` the split is not
    executed, so both bucket metrics are 0 and the record says why."""
    try:
        from repro.motif.clique import plan_cliques
        from repro.motif.spec import get_motif

        runner = get_motif(spec.motif).default_backend
        k = int(spec.motif.split("-")[1])
        plans = [plan_cliques(s.graph, k, dag=s.oriented_dag()) for s in op.sessions]
    except (ImportError, AttributeError, KeyError) as exc:
        out.mark_missing({"motif": f"{exc!r}"})
        return
    out.layers["motif.clique_dag_edges"] = int(median([p.dag_edges for p in plans]))
    out.detail["motif.clique_runner"] = {"runner": runner}
    if runner == "hybrid":
        for field in ("gallop_edges", "bitmap_edges"):
            out.layers[f"motif.clique_{field}"] = int(median([getattr(p, field) for p in plans]))
    else:
        out.detail["motif.clique_runner"]["not_exercised"] = (
            f"runner {runner!r} does not bucket DAG edges: "
            "motif.clique_gallop_edges and motif.clique_bitmap_edges are 0"
        )
    out.layers["motif.clique_runner_ms"] = runner_ms


def _ms(seconds):
    return None if seconds is None else seconds * 1e3
