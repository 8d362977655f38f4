"""``cli`` workload: sequential ``python -m grasschan`` one-shots and sweeps.

Interpreter start plus ``import grasschan`` dominates each one-shot; in the
sweeps the bigint block weights, the closed forms and the Unruh series are
on the critical path.  The one-shots cover the closed forms' whole domain,
including two inputs that fail today (``capacity quantum`` above d ~ 1030
overflows; ``capacity unruh`` at d >= 800, z >= 0.9 spins to the series cap
and raises ConvergenceError).  They stay in every round, count as failed
and are timed in ``round_s`` only, so that a failure that comes sooner
cannot pass for a faster op class.
"""

from __future__ import annotations

import math
import random
import re
import time
from dataclasses import dataclass
from functools import partial
from typing import Callable

import reference
from common import TMP, Tally, close_enough, durations, median, probe, run_cli, tail

VALUE_LINE = re.compile(r"-?\d+\.\d{12}\n")
CSV_HEADER = "family,d,param_name,param,base,value"
SPIN = "unruh-large-d"  # today the series spins to its term cap here
# Grid size of the closed-form sweeps: the d = 1000 points are most of their
# time, so a fixed count keeps heavy_op_s from following the seed.
CLOSED_FORM_POINTS = 20


@dataclass
class Op:
    label: str
    args: list[str]
    check: Callable[[str], list[str]]  # stdout -> problems
    is_sweep: bool
    slot: str | None  # the op-class metric it counts in; None for known failures


def _log_int(rng: random.Random, lo: int, hi: int) -> int:
    return int(round(math.exp(rng.uniform(math.log(lo), math.log(hi)))))


def _fmt(x: float) -> str:
    return f"{x:.12f}"


def _check_value(expected: Callable[[], float], stdout: str) -> list[str]:
    if not VALUE_LINE.fullmatch(stdout):
        return [f"output {stdout[:60]!r} is not one 12-decimal value"]
    printed, ref = float(stdout), expected()
    if not close_enough(printed, ref):
        return [f"printed {printed!r}, reference {ref!r}"]
    return []


def _one_shot(label: str, expected: Callable[[], float], *args, fails: bool = False) -> Op:
    argv = ["capacity", *[a if isinstance(a, str) else repr(a) for a in args]]
    return Op(label, argv, partial(_check_value, expected), is_sweep=False,
              slot=None if fails else "light_op_s")


def one_shots(rng: random.Random) -> list[Op]:
    """One of each capacity kind, plus the two inputs known to fail."""

    def base():
        return rng.choice(("2", "d"))

    ops = []
    d, r, b = _log_int(rng, 2, 1000), rng.uniform(0.0, 1.5), base()
    ops.append(_one_shot("quantum-r", partial(reference.quantum, d, r, b),
                         "quantum", "--d", str(d), "--r", r, "--base", b))
    d, w, b = _log_int(rng, 2, 1000), rng.uniform(0.0, 1.0), base()
    ops.append(_one_shot("quantum-w", partial(reference.quantum_w, d, w, b),
                         "quantum", "--d", str(d), "--w", w, "--base", b))
    d, r, b = _log_int(rng, 2, 1000), rng.uniform(0.0, 1.5), base()
    ops.append(_one_shot("classical", partial(reference.classical, d, r, b),
                         "classical", "--d", str(d), "--r", r, "--base", b))
    d, z, b = _log_int(rng, 2, 100), rng.uniform(0.05, 0.99), base()
    ops.append(_one_shot("unruh", partial(reference.unruh, d, z, b),
                         "unruh", "--d", str(d), "--z", z, "--base", b))
    d, z, b = _log_int(rng, 2, 1000), rng.uniform(0.01, 1.0), base()
    ops.append(_one_shot("unruh-approx", partial(reference.unruh_approx, d, z, b),
                         "unruh-approx", "--d", str(d), "--z", z, "--base", b))
    d = _log_int(rng, 2, 1000)
    ops.append(_one_shot("ratio", partial(reference.ratio, d), "ratio", "--d", str(d)))
    # known to fail today: the README promises no dimension cap
    d, r, b = _log_int(rng, 1100, 10000), rng.uniform(0.0, 1.5), base()
    ops.append(_one_shot("quantum-r-large-d", partial(reference.quantum, d, r, b),
                         "quantum", "--d", str(d), "--r", r, "--base", b, fails=True))
    d, z, b = rng.randint(800, 1000), rng.uniform(0.9, 0.95), base()
    ops.append(_one_shot(SPIN, partial(reference.unruh, d, z, b),
                         "unruh", "--d", str(d), "--z", z, "--base", b, fails=True))
    return ops


SWEEP_REFERENCE = {
    ("grassmann-q", "r"): reference.quantum,
    ("grassmann-q", "w"): reference.quantum_w,
    ("grassmann-c", "r"): reference.classical,
    ("unruh-q", "z"): reference.unruh,
}


def _check_sweep(path, family, param, ds, grid, base, sampled, stdout) -> list[str]:
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != CSV_HEADER:
        return [f"bad CSV header {lines[:1]!r}"]
    rows = [line.split(",") for line in lines[1:]]
    keys = [(d, x) for d in ds for x in grid] if grid else [(d, float(d)) for d in ds]
    if len(rows) != len(keys):
        return [f"{len(rows)} CSV rows, expected {len(keys)}"]
    name = param if grid else "d"
    for row, (d, x) in zip(rows, keys):
        if row[:5] != [family, str(d), name, _fmt(x), base]:
            return [f"row {row[:5]} out of (d, param) order or schema, expected d={d} {name}={_fmt(x)}"]
    problems = []
    for i in sampled:
        d, x = keys[i]
        ref = reference.ratio(d) if not grid else SWEEP_REFERENCE[family, param](d, x, base)
        if not close_enough(float(rows[i][5]), ref):
            problems.append(f"row {i} value {rows[i][5]}, reference {ref!r}")
    return problems


def _sweep(rng, label, family, param, ds, start, stop, points, base, samples) -> Op:
    ds = sorted(set(ds))
    path = TMP / f"{label}.csv"
    argv = ["sweep", "--family", family, "--d", ",".join(map(str, ds))]
    if family == "ratio":
        grid = []
        n_rows = len(ds)
    else:
        argv += ["--param", param, "--start", repr(start), "--stop", repr(stop), "--points", str(points)]
        grid = [start + i * (stop - start) / (points - 1) for i in range(points)]
        n_rows = len(ds) * points
    argv += ["--base", base, "--out", str(path)]
    sampled = sorted(rng.sample(range(n_rows), min(samples, n_rows)))
    check = partial(_check_sweep, path, family, param, ds, grid, base, sampled)
    return Op(label, argv, check, is_sweep=True,
              slot="mid_op_s" if family == "unruh-q" else "heavy_op_s")


def sweeps(rng: random.Random) -> list[Op]:
    """Closed-form sweeps span d = 2..1000; two Unruh sweeps reach z ~ 0.999.

    The Unruh sweeps (up to about 10^5 series terms a point) fill
    ``mid_op_s``; the closed-form sweeps, which reach d = 1000, are the
    slowest calls that succeed and fill ``heavy_op_s``.
    """

    def ds():
        return [2, _log_int(rng, 10, 200), 1000]

    def base():
        return rng.choice(("2", "d"))

    return [
        _sweep(rng, "sweep-q-r", "grassmann-q", "r", ds(), 0.0, rng.uniform(1.2, 1.5),
               CLOSED_FORM_POINTS, base(), 2),
        _sweep(rng, "sweep-q-w", "grassmann-q", "w", ds(), 0.0, 1.0,
               CLOSED_FORM_POINTS, base(), 2),
        _sweep(rng, "sweep-c-r", "grassmann-c", "r", ds(), 0.0, rng.uniform(1.2, 1.5),
               CLOSED_FORM_POINTS, base(), 2),
        *(_sweep(rng, f"sweep-unruh-{i}", "unruh-q", "z",
                 [2, _log_int(rng, 5, 20), rng.randint(30, 50)], 0.0, rng.uniform(0.998, 0.999),
                 rng.randint(30, 50), base(), 1) for i in (1, 2)),
        _sweep(rng, "sweep-ratio", "ratio", "d",
               [2, *(_log_int(rng, 3, 999) for _ in range(6)), 1000], 0.0, 0.0, 0, "d", 8),
    ]


def setup(seed: int):
    """Cold start of the package: fresh interpreters importing it."""
    return probe("import grasschan"), None


def run(state, seed: int, seconds: float, tracer=None):
    rng = random.Random(seed)
    tally = Tally()
    classes = {"light_op_s": [], "mid_op_s": [], "heavy_op_s": []}
    one_shot_at, sweep_at, rounds = [], [], []
    rows = 0
    started = time.perf_counter()
    while True:
        ops = one_shots(rng) + sweeps(rng)
        rng.shuffle(ops)
        rounds.append([])
        for op in ops:
            if op.is_sweep:
                TMP.joinpath(f"{op.label}.csv").unlink(missing_ok=True)
            outcome = run_cli(op.args, tracer)
            exited_ok = outcome.returncode == 0
            problems = op.check(outcome.stdout) if exited_ok else outcome.stderr.splitlines()[-1:]
            tally.record(op.label, exited_ok, problems)
            interval = (outcome.start, outcome.end)
            rounds[-1].append(interval)
            if op.slot is not None:
                classes[op.slot].append(interval)
            if op.is_sweep:
                sweep_at.append(interval)
                if exited_ok:
                    rows += len(TMP.joinpath(f"{op.label}.csv").read_text().splitlines()) - 1
            else:
                one_shot_at.append(interval)
        if tracer is not None or time.perf_counter() - started >= seconds:
            break
    all_calls = durations(one_shot_at)
    call_tail, call_tail_pct = tail(all_calls)
    detail = {
        "capacity_call_s_p50": (median(all_calls), "s"),
        "capacity_call_s_tail": (call_tail, "s"),
        "capacity_call_tail_percentile": (call_tail_pct, "%"),
        "capacity_calls": (len(all_calls), "count"),
        "sweep_points_per_s": (rows / sum(durations(sweep_at)), "1/s"),
        "sweep_calls": (len(sweep_at), "count"),
        "rounds": (len(rounds), "count"),
    }
    return tally, classes, rounds, detail
