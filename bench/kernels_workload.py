"""``kernels`` workload: an in-process loop over the library's heavy kernels.

It drives the Fock isometry, Kraus assembly, Kraus application and the
JSON wire format at sizes ``verify`` never reaches (output dimension up to
255, with 255 Kraus operators).  Import and the channel caches behind
``coherent_information`` are paid in set-up, so a start-up change leaves
this workload unchanged.  Writing beside reading exposes a change that
speeds one up at the other's cost.
"""

from __future__ import annotations

import contextlib
import math
import random
import time

import numpy as np

import reference
from common import TMP, Tally, durations, median, run_python, tail

BUILD_DIMENSIONS = range(2, 9)
BUILDS_PER_ROUND = 10
CI_CALLS_PER_ROUND = {6: 150, 8: 3}
JSON_PER_ROUND = 1
CI_R_VALUES = {6: 2, 8: 1}  # cached (d, r) channel pairs per dimension
JSON_D = 8

SETUP_CODE = """
import numpy as np
from grasschan import verify
for d, r in {pairs!r}:
    verify.coherent_information(d, r, np.eye(d) / d)
"""


def _pairs(seed: int) -> list[tuple[int, float]]:
    rng = random.Random(seed)
    # r <= pi/4: the maximally mixed input is optimal, which the checks use
    return [(d, rng.uniform(0.1, math.pi / 4)) for d, n in CI_R_VALUES.items() for _ in range(n)]


def setup(seed: int):
    """Import plus channel-cache warm-up, timed in three fresh interpreters.

    The same set-up then runs in this process, and the maximally mixed
    input is evaluated for every cached pair, to be checked against the
    unclamped closed form.
    """
    pairs = _pairs(seed)
    intervals = []
    for _ in range(3):
        outcome = run_python(["-c", SETUP_CODE.format(pairs=pairs)])
        if outcome.returncode != 0:
            raise RuntimeError(f"kernels set-up failed: {outcome.stderr.strip()}")
        intervals.append((outcome.start, outcome.end))
    from grasschan import verify

    mixed = {}
    for d, r in pairs:
        mixed[d, r] = verify.coherent_information(d, r, np.eye(d) / d)
    return intervals, mixed


def _random_density(rng: np.random.Generator, d: int) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _completeness_gap(ch) -> float:
    acc = sum(k.conj().T @ k for k in ch.kraus)
    return float(np.abs(acc - np.eye(ch.in_dim)).max())


def _build_pass(rng: random.Random, tally: Tally):
    from grasschan import channels

    rs = [rng.uniform(0.05, 1.5) for _ in BUILD_DIMENSIONS]
    start = time.perf_counter()
    try:
        built = [
            (channels.grassmann_channel(d, r), channels.complementary_channel(d, r))
            for d, r in zip(BUILD_DIMENSIONS, rs)
        ]
    except Exception as exc:
        tally.record("build", False, [repr(exc)])
        return None
    interval = (start, time.perf_counter())
    problems = []
    for d, pair in zip(BUILD_DIMENSIONS, built):
        for ch in pair:
            if ch.out_dim != 2**d - 1 or ch.in_dim != d:
                problems.append(f"{ch.label}: dims {ch.in_dim}->{ch.out_dim}")
            elif (gap := _completeness_gap(ch)) > 1e-10:
                problems.append(f"{ch.label}: sum K^dag K - I = {gap:.3g}")
    tally.record("build", True, problems)
    return interval


def _coherent_info(nprng, state, d, call, tally):
    from grasschan import verify

    r = [r for dd, r in state if dd == d][call % CI_R_VALUES[d]]
    rho = _random_density(nprng, d)
    start = time.perf_counter()
    try:
        value = verify.coherent_information(d, r, rho)
    except Exception as exc:
        tally.record(f"ci-d{d}", False, [repr(exc)])
        return None
    interval = (start, time.perf_counter())
    bound = state[d, r]
    problems = [] if value <= bound + 1e-9 else [f"I_c={value!r} beats I_c(I/d)={bound!r}"]
    tally.record(f"ci-d{d}", True, problems)
    return interval


def _json_roundtrip(rng: random.Random, tally: Tally):
    from grasschan import channels

    r = rng.uniform(0.05, 1.5)
    ch = channels.grassmann_channel(JSON_D, r)
    path = TMP / "channel.json"
    start = time.perf_counter()
    try:
        channels.dump_channel_json(ch, "grassmann", JSON_D, r, path)
        back = channels.load_channel_json(path)
    except Exception as exc:
        tally.record("json", False, [repr(exc)])
        return None
    interval = (start, time.perf_counter())
    same = (
        (back.in_dim, back.out_dim, back.blocks) == (ch.in_dim, ch.out_dim, ch.blocks)
        and len(back.kraus) == len(ch.kraus)
        and all(np.array_equal(a, b) for a, b in zip(back.kraus, ch.kraus))
    )
    tally.record("json", True, [] if same else ["channel changed in the JSON round trip"])
    return interval


def _op(tracer, label: str):
    return tracer.op(label) if tracer is not None else contextlib.nullcontext()


def check_mixed(state) -> list[str]:
    """I_c(I/d) equals the unclamped closed form for r <= pi/4."""
    problems = []
    for (d, r), value in state.items():
        ref = reference.quantum_unclamped(d, r)
        if abs(value - ref) > 1e-9:
            problems.append(f"I_c(I/{d}) at r={r!r}: {value!r}, closed form {ref!r}")
    return problems


def run(state, seed: int, seconds: float, tracer=None):
    rng = random.Random(seed)
    nprng = np.random.default_rng(seed)
    tally = Tally()
    tally.record("ci-mixed", True, check_mixed(state))
    build_at, json_at, rounds = [], [], []
    ci_at = {d: [] for d in CI_CALLS_PER_ROUND}
    started = time.perf_counter()
    while True:
        ops = ["build"] * BUILDS_PER_ROUND + ["json"] * JSON_PER_ROUND
        for d, calls in CI_CALLS_PER_ROUND.items():
            ops += [d] * calls
        rng.shuffle(ops)  # every class samples the whole round
        rounds.append([])
        for op in ops:
            with _op(tracer, op if isinstance(op, str) else f"ci-d{op}"):
                if op == "build":
                    at, interval = build_at, _build_pass(rng, tally)
                elif op == "json":
                    at, interval = json_at, _json_roundtrip(rng, tally)
                else:
                    at = ci_at[op]
                    interval = _coherent_info(nprng, state, op, len(at), tally)
            if interval is not None:
                at.append(interval)
                rounds[-1].append(interval)
        if tracer is not None or time.perf_counter() - started >= seconds:
            break
    ci6 = durations(ci_at[6])
    ci6_tail, ci6_pct = tail(ci6)
    classes = {"light_op_s": ci_at[6], "mid_op_s": build_at, "heavy_op_s": json_at}
    detail = {
        "channel_build_s": (median(durations(build_at)), "s"),
        "coherent_info_d6_s_p50": (median(ci6), "s"),
        "coherent_info_d6_s_tail": (ci6_tail, "s"),
        "coherent_info_d6_tail_percentile": (ci6_pct, "%"),
        "coherent_info_d6_calls": (len(ci6), "count"),
        "coherent_info_d8_s_p50": (median(durations(ci_at[8])), "s"),
        "json_roundtrip_d8_s": (median(durations(json_at)), "s"),
        "rounds": (len(rounds), "count"),
    }
    return tally, classes, rounds, detail
