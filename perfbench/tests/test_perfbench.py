"""The benchmark's own tests: run with ``python3 -m pytest perfbench/tests``."""

from __future__ import annotations

import asyncio
import json
import os

import numpy as np
import pytest

from perfbench import counting, metrics, run, serving
from perfbench.tracer import Hooks, Tracer, group_by_root

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

#: Test-sized stand-ins for the real workloads (same code paths).
SMALL = {
    "count-skewed": counting.InProcessSpec("count-skewed", "tw", 0.05, None, graphs=3),
    "motif-clique": counting.InProcessSpec("motif-clique", "wi", 0.05, "clique-4", graphs=2),
}


@pytest.fixture(scope="module")
def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(autouse=True)
def _build_dir(tmp_path, monkeypatch):
    from perfbench import host

    monkeypatch.setattr(host, "BUILD_DIR", str(tmp_path))


# --------------------------------------------------------------------- #
# seeded inputs
# --------------------------------------------------------------------- #
def test_seeded_generation_is_deterministic():
    from repro.core.result import graph_fingerprint
    from repro.graph.datasets import load_dataset

    g1 = load_dataset("lj", 0.05, seed=7, cache=False)
    g2 = load_dataset("lj", 0.05, seed=7, cache=False)
    assert graph_fingerprint(g1) == graph_fingerprint(g2)
    assert graph_fingerprint(g1) != graph_fingerprint(load_dataset("lj", 0.05, seed=8, cache=False))

    pairs1, edits1 = serving.make_inputs(g1, 7, 20)
    pairs2, edits2 = serving.make_inputs(g2, 7, 20)
    assert np.array_equal(pairs1, pairs2)
    assert all(
        np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        for a, b in zip(edits1, edits2)
    )
    pairs3, _ = serving.make_inputs(g1, 8, 20)
    assert not np.array_equal(pairs1, pairs3)

    s1 = serving.poisson_schedule(np.random.default_rng([7, 2]), 400.0, 2.0)
    s2 = serving.poisson_schedule(np.random.default_rng([7, 2]), 400.0, 2.0)
    assert np.array_equal(s1, s2) and 600 < len(s1) < 1000


# --------------------------------------------------------------------- #
# metric names and sample counts
# --------------------------------------------------------------------- #
def test_workloads_match_benchmark_json(benchmark_json):
    assert [w["name"] for w in benchmark_json["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(SMALL))
@pytest.mark.parametrize("trace", [False, True])
def test_printed_metrics_match_benchmark_json(workload, trace, benchmark_json):
    out = counting.run(SMALL[workload], seed=3, seconds=0.05, trace=trace)
    section = "per_layer" if trace else "end_to_end"
    catalog = {m["name"]: m["unit"] for m in benchmark_json[section]}
    values = out.layers if trace else out.e2e
    line = metrics.final_line(True, out.attempted, out.failed, values, catalog)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == catalog
    assert all(isinstance(v["value"], (int, float)) for v in line["metrics"].values())
    assert line["attempted"] >= 2 * SMALL[workload].graphs and line["failed"] == 0
    assert out.missing == {}


def test_percentiles_carry_sample_counts():
    assert metrics.percentile([3.0, 1.0, 2.0], 50.0) == {"value": 2.0, "n": 3}
    assert metrics.percentile([], 99.0) == {"value": None, "n": 0}
    assert metrics.percentile([1.0, float("inf")], 99.0)["value"] == float("inf")

    out = counting.run(SMALL["count-skewed"], seed=3, seconds=0.05, trace=False)
    for name in ("count_p50_ms", "count_p90_ms", "edges_per_s", "setup_s", "fail_ratio"):
        assert out.detail[name]["n"] >= 1, name


# --------------------------------------------------------------------- #
# the correctness gate
# --------------------------------------------------------------------- #
class _CorruptingSession:
    """Test double: a session whose counts are off by one on one edge."""

    def __init__(self, reference):
        self.reference = reference

    def count(self):
        class Result:
            counts = self.reference.copy()

        Result.counts[0] += 1
        return Result


def test_corrupted_answer_trips_the_gate():
    reference = np.arange(10, dtype=np.int64)
    op = counting._Op(SMALL["count-skewed"])
    op.add(_CorruptingSession(reference), reference)
    with pytest.raises(metrics.CorrectnessError):
        counting.timed_loop(op, seconds=0.01)


def test_wrong_answer_aborts_the_run(monkeypatch, capsys, tmp_path):
    monkeypatch.setenv("REPRO_COMPILED_CACHE", str(tmp_path))

    def wrong(*_args):
        raise metrics.CorrectnessError("edge counts differ")

    monkeypatch.setattr(run, "run_workload", wrong)
    code = run.main(["--workload", "count-skewed", "--seed", "1", "--seconds", "1"])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0 and last["correct"] is False


def test_replay_catches_a_corrupted_response():
    from repro.graph.datasets import load_dataset

    graph = load_dataset("lj", 0.05, seed=5, cache=False)
    pairs, edits = serving.make_inputs(graph, 5, 4)
    from repro.engine.session import GraphSession

    with GraphSession(graph) as s:
        good = s.count_pairs(pairs[0, :, 0], pairs[0, :, 1]).tolist()
    ok = json.dumps({"epoch": 0, "counts": good}).encode()
    serving.replay(graph, pairs, edits, [], [(0, ok)])
    bad = json.dumps({"epoch": 0, "counts": [good[0] + 1] + good[1:]}).encode()
    with pytest.raises(metrics.CorrectnessError):
        serving.replay(graph, pairs, edits, [], [(0, bad)])


# --------------------------------------------------------------------- #
# refused requests
# --------------------------------------------------------------------- #
def _every_second_read(head: bytes, n: int) -> bool:
    return head.startswith(b"POST /count") and n % 2 == 1


async def _refusing_server(state, refuse=_every_second_read):
    """Answers with 503 where ``refuse(request head, request number)``
    holds (by default every second POST /count), everything else 200."""

    async def handle(reader, writer):
        while True:
            try:
                head = await reader.readuntil(b"\r\n\r\n")
            except (asyncio.IncompleteReadError, ConnectionError):
                break
            length = 0
            for line in head.split(b"\r\n")[1:]:
                if line.lower().startswith(b"content-length:"):
                    length = int(line.split(b":", 1)[1])
            await reader.readexactly(length)
            state["n"] += 1
            if refuse(head, state["n"]):
                status, body = b"503 Service Unavailable", b'{"error": "overloaded"}'
            else:
                status, body = b"200 OK", b'{"epoch": 0, "counts": [0]}'
            writer.write(b"HTTP/1.1 " + status + b"\r\nContent-Length: "
                         + str(len(body)).encode() + b"\r\n\r\n" + body)
            await writer.drain()
        writer.close()

    return await asyncio.start_server(handle, "127.0.0.1", 0)


def test_refused_request_counts_as_failed():
    async def go():
        server = await _refusing_server({"n": 0})
        port = server.sockets[0].getsockname()[1]
        gen = serving.LoadGenerator(port, "k", np.zeros((4, 1, 2), dtype=np.int64), [])
        await gen.open()
        try:
            return await gen.phase(np.random.default_rng(0), 200.0, 0.3, with_edits=False)
        finally:
            await gen.close()
            server.close()
            await server.wait_closed()

    phase = asyncio.run(go())
    attempted, failed = serving.tally([phase])
    assert attempted == len(phase["reads"]) > 10
    assert 0 < failed < attempted
    assert not serving._passes(phase)  # a refusal misses every latency limit


def test_refused_edit_counts_as_failed_and_is_not_replayed():
    from repro.graph.datasets import load_dataset

    graph = load_dataset("lj", 0.05, seed=5, cache=False)
    pairs, edits = serving.make_inputs(graph, 5, 4)

    async def go():
        server = await _refusing_server(
            {"n": 0}, lambda head, n: head.startswith(b"POST /edits")
        )
        port = server.sockets[0].getsockname()[1]
        gen = serving.LoadGenerator(port, "k", pairs, edits)
        await gen.open()
        try:
            phase = await gen.phase(np.random.default_rng(0), 20.0, 0.6)
        finally:
            await gen.close()
            server.close()
            await server.wait_closed()
        return gen, phase

    gen, phase = asyncio.run(go())
    assert gen.edit_epochs == [serving.REFUSED, serving.REFUSED]
    attempted, failed = serving.tally([phase])
    assert failed == 2 and attempted == len(phase["reads"]) + 2
    serving.replay(graph, pairs, edits, gen.edit_epochs, [])


def test_replay_settles_an_edit_of_unknown_outcome():
    from repro.core.dynamic import DynamicCounter
    from repro.engine.session import GraphSession
    from repro.graph.datasets import load_dataset

    graph = load_dataset("lj", 0.05, seed=5, cache=False)
    pairs, edits = serving.make_inputs(graph, 5, 4)
    counter = DynamicCounter(graph)
    counter.apply(insertions=edits[0][0], deletions=edits[0][1])
    with GraphSession(counter.materialize()) as s:
        after = s.count_pairs(pairs[0, :, 0], pairs[0, :, 1]).tolist()
    counter.close()
    seen = json.dumps({"epoch": 1, "counts": after}).encode()
    serving.replay(graph, pairs, edits, [serving.UNKNOWN], [(0, seen)])  # it applied
    serving.replay(graph, pairs, edits, [serving.UNKNOWN], [])  # no read saw it
    wrong = json.dumps({"epoch": 1, "counts": [after[0] + 1] + after[1:]}).encode()
    with pytest.raises(metrics.CorrectnessError):
        serving.replay(graph, pairs, edits, [serving.UNKNOWN], [(0, wrong)])


# --------------------------------------------------------------------- #
# tracing
# --------------------------------------------------------------------- #
def test_missing_hook_marks_only_its_layer_missing():
    from repro.engine.session import GraphSession

    original = GraphSession.count
    hooks = (
        ("kernels", "kernels.gone", "repro.kernels.batch", "no_such_kernel"),
        ("engine.session", "engine.session.count", "repro.engine.session", "GraphSession.count"),
    )
    with Hooks(Tracer(), hooks=hooks, motif_hook=None) as h:
        assert GraphSession.count is not original
    assert GraphSession.count is original
    assert set(h.missing) == {"kernels"}

    out = metrics.Outcome()
    out.layers["kernels.gallop_ms"] = 1.0
    out.layers["kernels.unattributed_ms"] = 2.0
    out.layers["plan.gallop_edges"] = 3
    out.mark_missing(h.missing)
    assert out.layers["kernels.gallop_ms"] is None
    assert out.layers["kernels.unattributed_ms"] == 2.0
    assert out.layers["plan.gallop_edges"] == 3


def test_self_time_subtracts_children():
    clock = iter([0.0, 1.0, 3.0, 4.0, 5.0, 10.0]).__next__
    tracer = Tracer(clock=clock)
    root = tracer.begin("root")      # 0
    child = tracer.begin("child")    # 1
    tracer.end(child)                # 3
    child = tracer.begin("child")    # 4
    tracer.end(child)                # 5
    tracer.end(root)                 # 10
    (group,) = group_by_root(tracer.spans, "root")
    assert group["total"] == 10.0
    assert group["self"]["child"] == 3.0
    assert group["self"]["root"] == 7.0
