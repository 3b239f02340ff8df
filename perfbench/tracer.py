"""In-memory span tracer wrapped around the public functions of each layer.

The benchmark records spans from its own files: :class:`Hooks` swaps a
timing wrapper in for each public function named in :data:`HOOKS` and
restores the original on exit, so nothing under ``src/`` changes.  A hook
whose module or attribute no longer exists (a refactor renamed it) is
skipped and its layer reported missing; the other hooks still install.

Each span records its name, start, end and parent.  A span's self time is
its duration minus the durations of its child spans (children run nested
inside the parent on the same thread, so they never overlap each other).
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict

#: (layer, span name, module, attribute path): the calls whose spans feed
#: a per-layer metric.  A ``Class.method`` path wraps the method on the
#: class.  The plan executor imports its kernels by name, so they are
#: wrapped in the executor's namespace; everything else is looked up
#: through its module at call time.  Time inside a root call but outside
#: every wrapped child is the unattributed remainder.
HOOKS = (
    ("engine.session", "engine.session.count", "repro.engine.session", "GraphSession.count"),
    ("engine.session", "engine.session.count_motif", "repro.engine.session", "GraphSession.count_motif"),
    ("engine.session", "engine.session.count_pairs", "repro.engine.session", "GraphSession.count_pairs"),
    ("kernels", "kernels.cover", "repro.plan.coveredge", "probe_cover_counts"),
    ("kernels", "kernels.gallop", "repro.plan.executor", "count_edges_galloping"),
    ("kernels", "kernels.bitmap", "repro.plan.executor", "count_edges_bitmap"),
    ("kernels", "kernels.matmul", "repro.plan.executor", "count_all_edges_matmul"),
    ("kernels", "kernels.mirror", "repro.plan.executor", "symmetric_assign"),
    ("kernels", "kernels.reverse_offsets", "repro.kernels.batch", "reverse_edge_offsets"),
    ("dynamic", "dynamic.apply", "repro.core.dynamic", "DynamicCounter.apply"),
    ("dynamic", "dynamic.materialize", "repro.core.dynamic", "DynamicCounter.materialize"),
)

#: Motif runners live in a registry dict, not a module attribute.
MOTIF_HOOK = ("motif", "motif.runner", "clique-4")


class Tracer:
    """Spans kept in memory; recording only while ``enabled``."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.enabled = False
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = self.clock()
        self._stack.pop()

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(idx)

        return traced

    def write_chrome(self, path: str) -> None:
        """Chrome trace-event JSON ("X" events, microseconds)."""
        events = [
            {
                "name": name, "ph": "X", "pid": 0, "tid": 0,
                "ts": start * 1e6, "dur": (end - start) * 1e6,
                "args": {"parent": parent},
            }
            for name, start, end, parent in self.spans
            if end is not None
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events}, fh)


def _resolve(module: str, path: str):
    """(owner object, attribute name) for ``module`` + ``a.b`` path."""
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    if not hasattr(owner, attr):
        raise AttributeError(f"{module}.{path} not found")
    return owner, attr


class Hooks:
    """Install :data:`HOOKS` around ``tracer`` for the ``with`` body.

    ``missing`` maps each layer with an unresolvable hook to the reason;
    resolving never raises.
    """

    def __init__(self, tracer: Tracer, hooks=HOOKS, motif_hook=MOTIF_HOOK):
        self.tracer = tracer
        self.hooks = hooks
        self.motif_hook = motif_hook
        self.missing: dict[str, str] = {}
        self._restore: list = []

    def __enter__(self) -> "Hooks":
        for layer, name, module, path in self.hooks:
            try:
                owner, attr = _resolve(module, path)
            except (ImportError, AttributeError) as exc:
                self.missing.setdefault(layer, f"{type(exc).__name__}: {exc}")
                continue
            if isinstance(owner, type) and attr in vars(owner):
                original = vars(owner)[attr]  # the function, not a bound method
            else:
                original = getattr(owner, attr)
            setattr(owner, attr, self.tracer.wrap(original, name))
            self._restore.append((setattr, owner, attr, original))
        if self.motif_hook is not None:
            self._wrap_motif_runners()
        return self

    def _wrap_motif_runners(self) -> None:
        layer, name, motif = self.motif_hook
        try:
            from repro.motif.spec import get_motif

            runners = get_motif(motif).runners
        except Exception as exc:  # noqa: BLE001 - any failure means "missing"
            self.missing.setdefault(layer, f"{type(exc).__name__}: {exc}")
            return
        for key, original in list(runners.items()):
            runners[key] = self.tracer.wrap(original, name)
            self._restore.append((dict.__setitem__, runners, key, original))

    def __exit__(self, *exc) -> None:
        for setter, owner, attr, original in reversed(self._restore):
            setter(owner, attr, original)
        self._restore.clear()


def group_by_root(spans: list[list], root: str) -> list[dict]:
    """Per top-level ``root`` span: its total seconds, and the summed self
    seconds of every span name inside it (the root included).

    Self time = duration minus the durations of direct children.
    """
    child_sum = defaultdict(float)
    for name, start, end, parent in spans:
        if parent >= 0 and end is not None:
            child_sum[parent] += end - start
    top = []
    for i, (name, start, end, parent) in enumerate(spans):
        anc = i
        while spans[anc][3] >= 0:
            anc = spans[anc][3]
        top.append(anc)
    groups: dict[int, dict] = {}
    for i, (name, start, end, parent) in enumerate(spans):
        r = top[i]
        if spans[r][0] != root or end is None:
            continue
        g = groups.setdefault(
            r, {"total": spans[r][2] - spans[r][1], "self": defaultdict(float)}
        )
        g["self"][name] += (end - start) - child_sum[i]
    return [groups[r] for r in sorted(groups)]
