"""Shared plumbing of the benchmark: paths, host facts, statistics, stderr.

Nothing here touches the program under test beyond locating its sources;
the workload modules drive the public entry points.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

#: Root of the checkout the benchmark runs from (the parent of perfbench/).
ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
#: Scratch space for span spools and captured stderr; listed in .gitignore.
SCRATCH = ROOT / ".bench_tmp"


def prepare_environment() -> None:
    """Put ``src`` on the import path and keep temporary files in the checkout."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"perfbench: no program sources under {SRC}; run it from the "
            "root of a full checkout"
        )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    SCRATCH.mkdir(exist_ok=True)
    os.environ["TMPDIR"] = str(SCRATCH)
    tempfile.tempdir = str(SCRATCH)


# ----------------------------------------------------------------------
# provenance
# ----------------------------------------------------------------------
def _git_commit() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_digest() -> str:
    """SHA-256 over ``src/**/*.py`` (path and bytes), for checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def provenance(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """Host, toolchain and source identity recorded with every result."""
    import numpy

    try:
        affinity = sorted(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        affinity = list(range(os.cpu_count() or 1))
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "affinity_cores": affinity,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
    }


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def median(values: list[float]) -> float:
    return float(statistics.median(values))


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile (numpy's default), ``q`` in [0, 100]."""
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def children_peak_rss_mb() -> float:
    """Largest resident set of any child process reaped so far (MiB)."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------
@dataclass
class Outcome:
    """Counts of checked operations and the metrics one run produced."""

    attempted: int = 0
    failed: int = 0
    metrics: dict[str, float] = field(default_factory=dict)
    #: Human-readable lines printed before the result line.
    notes: list[str] = field(default_factory=list)
    #: Run counts and other facts recorded with the provenance.
    facts: dict = field(default_factory=dict)

    def check(self, ok: bool, what: str) -> bool:
        """Count one attempted operation; a false ``ok`` is a failure."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(f"FAILED: {what}")
        return ok

    def put(self, name: str, value: float) -> None:
        self.metrics[name] = float(value)


def result_line(outcome: Outcome, specs: list[dict]) -> str:
    """The final stdout line: exactly the keys the benchmark contract fixes.

    ``specs`` are the metric entries of ``BENCHMARK.json`` (name and unit).
    """
    missing = [s["name"] for s in specs if s["name"] not in outcome.metrics]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    return json.dumps(
        {
            "correct": outcome.failed == 0,
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "metrics": {
                s["name"]: {"value": outcome.metrics[s["name"]], "unit": s["unit"]}
                for s in specs
            },
        }
    )


# ----------------------------------------------------------------------
# stderr capture
# ----------------------------------------------------------------------
class StderrCapture:
    """Redirect fd 2 to a file for the whole run and count tracebacks.

    Worker processes and the ``resource_tracker`` inherit fd 2 when they
    start, so the capture must span every fit, not each fit separately:
    a tracker started inside a per-fit capture would keep writing to that
    fit's file after it was closed.  The file is opened ``O_APPEND`` so
    every process's writes land at its end.  :meth:`close` restores fd 2
    and replays the captured text there, so nothing is hidden.
    """

    def __init__(self) -> None:
        self._path = SCRATCH / f"stderr-{os.getpid()}.log"
        fd = os.open(self._path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC | os.O_APPEND)
        sys.stderr.flush()
        self._saved = os.dup(2)
        os.dup2(fd, 2)
        os.close(fd)

    def tracebacks(self) -> int:
        """``Traceback`` lines written to fd 2 so far."""
        sys.stderr.flush()
        return self._path.read_bytes().count(b"Traceback")

    def close(self) -> None:
        sys.stderr.flush()
        os.dup2(self._saved, 2)
        os.close(self._saved)
        text = self._path.read_bytes()
        self._path.unlink()
        if text:
            os.write(2, text)
