"""Host facts for the result record: provenance, memory, output paths."""

from __future__ import annotations

import os
import platform
import statistics
import subprocess
import time

#: Environment variables that silently reroute ``backend="auto"``.
ROUTING_ENV = ("REPRO_COMPILED", "REPRO_SHARD_BUDGET")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Build outputs and run artifacts (compiled kernels, edge lists, traces).
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")


def git_sha() -> str:
    """HEAD of the checkout, or ``"unknown"`` outside a git repository."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def provenance(seed: int) -> dict:
    import numpy as np

    from repro import compiled

    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "compiled_provider": compiled.provider(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": seed,
        "env": {name: os.environ.get(name) for name in ROUTING_ENV},
    }


def _status_kb(pid: int | str, field: str) -> float | None:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith(field + ":"):
                    return float(line.split()[1])
    except OSError:
        return None
    return None


def reset_peak_rss() -> bool:
    """Restart this process's peak-RSS counter (Linux ``clear_refs``)."""
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as fh:
            fh.write("5")
    except OSError:
        return False
    return True


def peak_rss_mb(pid: int | str = "self") -> float | None:
    """Peak resident set size of ``pid`` in MiB (``VmHWM``)."""
    kb = _status_kb(pid, "VmHWM")
    if kb is None and pid == "self":
        import resource

        kb = float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    return None if kb is None else kb / 1024.0


class HostSpeed:
    """How fast this host runs right now, from a fixed calibration loop.

    The CPU speed of a shared host drifts (±20% over seconds to minutes on
    the 2-CPU VM this benchmark was written on), which moves every time a
    run measures.  Sampling the same small Python + NumPy loop throughout
    a run and scaling the run's times by ``REFERENCE_S / median(sample)``
    expresses them at one reference speed, so runs made minutes apart
    compare; a code change still moves the scaled time, the calibration
    loop does not depend on the program.
    """

    #: Calibration seconds at the reference speed (about this host's).
    REFERENCE_S = 0.004

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(20190805)
        self._sortable = rng.random(100_000)
        self._table = rng.random(1 << 20).astype(np.float32)
        self._index = rng.integers(0, 1 << 20, size=1 << 18)
        self.samples: list[float] = []

    def sample(self, repeats: int = 1) -> None:
        import numpy as np

        for _ in range(repeats):
            t0 = time.perf_counter()
            x = 0
            for i in range(20_000):
                x += i * i % 7
            np.sort(self._sortable)
            self._table[self._index].sum()
            self.samples.append(time.perf_counter() - t0)

    def factor(self) -> float:
        """Reference seconds per measured second in this run."""
        return self.REFERENCE_S / statistics.median(self.samples)

    def note(self, out) -> None:
        """Add the run's speed factor to the result record."""
        out.note("host_speed_factor", self.factor(), "ratio", len(self.samples))
        out.detail["host_speed_factor"]["calibration_ms"] = (
            statistics.median(self.samples) * 1e3
        )
