"""Shared plumbing for the grasschan benchmark: processes, statistics, tallies.

The benchmark runs the program from source: ``src/`` of the checkout that
holds this directory goes on ``PYTHONPATH`` for child processes and on
``sys.path`` for in-process work.  Nothing is installed.
"""

from __future__ import annotations

import bisect
import contextlib
import hashlib
import io
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TMP = ROOT / ".bench_tmp"

NPROC = len(os.sched_getaffinity(0))  # before prepare_environment pins the CPU
# One BLAS/OpenMP thread (never more than nproc) in this process and every
# child: the kernels are small matrices, and one thread on one CPU keeps a
# run from contending with itself.
BLAS_THREADS = 1
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
CHILD_TIMEOUT_S = 150.0


def prepare_environment():
    """Pin one CPU and BLAS threads, expose ``src/``; call before numpy is imported.

    Children inherit the CPU, so the speed sampler times the CPU the work
    runs on.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    for var in THREAD_VARS:
        os.environ[var] = str(min(BLAS_THREADS, NPROC))
    path = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


class SpeedSampler:
    """Times a fixed pure-Python loop every 0.2 s on the benchmark's CPU.

    On a shared host the CPU speed can switch between two levels about 1.4x
    apart every second or so, and the share of slow time differs from run
    to run.  ``scaled`` reports a time interval at a reference speed: its
    length times the reference loop time over the mean loop time of the
    samples taken during it (at least the three nearest).  The loop's
    thread CPU time does not count time the thread waits for the CPU, and
    the loop holds the CPU for under 1% of the run.
    """

    PERIOD_S = 0.2
    REFERENCE_LOOP_S = 1.5e-3
    MIN_SAMPLES = 3

    def __init__(self):
        self.at: list[float] = []
        self.loop_s: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _take(self):
        at, start = time.perf_counter(), time.thread_time()
        acc = 0
        for i in range(20_000):
            acc += i * i % 7
        self.loop_s.append(time.thread_time() - start)
        self.at.append(at)

    def _sample(self):
        self._take()
        while not self._stop.wait(self.PERIOD_S):
            self._take()

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        return False

    def factor(self, start: float | None = None, end: float | None = None) -> float:
        """Reference over measured loop time, during [start, end] or the whole run."""
        loops = self.loop_s
        if start is not None:
            lo, hi = bisect.bisect_left(self.at, start), bisect.bisect_right(self.at, end)
            while hi - lo < min(self.MIN_SAMPLES, len(self.at)):
                # widen towards the nearer neighbouring sample
                if lo > 0 and (hi >= len(self.at) or start - self.at[lo - 1] <= self.at[hi] - end):
                    lo -= 1
                else:
                    hi += 1
            loops = self.loop_s[lo:hi]
        return self.REFERENCE_LOOP_S / statistics.fmean(loops)

    def scaled(self, start: float, end: float) -> float:
        return (end - start) * self.factor(start, end)


# ---------------------------------------------------------------------------
# Running the program
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    """One call of the program: start and end times, exit code, captured streams."""

    start: float
    end: float
    returncode: int
    stdout: str
    stderr: str

    @property
    def wall_s(self) -> float:
        return self.end - self.start


def run_python(args: list[str]) -> Outcome:
    """Run ``python <args>`` in the checkout and wait for it to end."""
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, *args],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    ) as proc:
        try:
            out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
            err += f"\nbenchmark: killed after {CHILD_TIMEOUT_S} s"
        except BaseException:  # interrupted or terminated: take the child down too
            proc.kill()
            raise
    return Outcome(start, time.perf_counter(), proc.returncode, out, err)


def run_cli(args: list[str], tracer=None) -> Outcome:
    """One ``grasschan`` command: a fresh process, or ``cli.main`` under a tracer."""
    if tracer is None:
        return run_python(["-m", "grasschan", *args])
    from grasschan import cli

    clear_program_caches()
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), tracer.op(args[0]):
        try:
            code = cli.main(args)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # the command line would print this traceback and exit 1
            traceback.print_exc(file=err)
            code = 1
    return Outcome(start, time.perf_counter(), code, out.getvalue(), err.getvalue())


def clear_program_caches():
    """Empty every ``functools`` cache in the package.

    A fresh process starts with empty caches; clearing them before each
    in-process command keeps the traced run's work equal to the untraced one.
    """
    from grasschan import capacity, channels, cli, fock, verify

    for module in (capacity, channels, cli, fock, verify):
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def probe(code: str, repeats: int = 3) -> list[tuple[float, float]]:
    """(start, end) of ``repeats`` fresh interpreters running ``code``."""
    intervals = []
    for _ in range(repeats):
        outcome = run_python(["-c", code])
        if outcome.returncode != 0:
            raise RuntimeError(f"probe {code!r} failed: {outcome.stderr.strip()}")
        intervals.append((outcome.start, outcome.end))
    return intervals


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


# ---------------------------------------------------------------------------
# Statistics and tallies
# ---------------------------------------------------------------------------


def median(values) -> float:
    return float(statistics.median(values))


def durations(intervals) -> list[float]:
    return [end - start for start, end in intervals]


def tail(values) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and that percentile.

    With ten or fewer samples no such percentile exists; the maximum is
    returned with percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return float(ordered[-1]), 100.0
    return float(ordered[n - 11]), 100.0 * (n - 10) / n


@dataclass
class Tally:
    """Operations attempted, failed (no output to check, or a wrong one) and wrong."""

    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    problems: list = field(default_factory=list)

    def record(self, label: str, answered: bool, problems: list[str]):
        """``answered``: the operation gave an output to check (for a command,
        usually exit code 0).  Problems with that output make it wrong; an
        operation without one failed."""
        self.attempted += 1
        if answered and not problems:
            return
        self.failed += 1
        if answered:
            self.wrong += 1
        self.problems.append({"op": label, "answered": answered, "problems": problems[:3]})

    @property
    def correct(self) -> bool:
        return self.wrong == 0

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def close_enough(printed: float, reference: float) -> bool:
    """Agreement at the 12 printed decimals.

    Rounding to 12 decimals contributes 5e-13; the Unruh series certifies
    its remainder below 1e-12; the rest covers float evaluation error.
    """
    return abs(printed - reference) <= 2e-12 + 1e-12 * abs(reference)


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------


def provenance(seed: int, workload: str, trace: bool) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "mpmath": _version("mpmath"),
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
        "machine": platform.machine(),
    }


def _version(package: str) -> str | None:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _source_digest() -> str:
    """Digest of the package sources, which names the program without git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "grasschan").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()
