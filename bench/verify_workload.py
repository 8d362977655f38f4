"""``verify`` workload: sequential ``grasschan verify --suite all`` calls.

Each round runs d = 2 (three times) and 3 (once) below and above r = pi/4,
so the degradable suite sees both outcomes, and d = 4 once below, in
shuffled order.  Over 95% of the time is
Powell objective evaluations (coherent information or Holevo chi through
``apply_kraus`` and ``eigvalsh``); import and the closed forms are under
5%.  r stays well away from pi/4, where the degradability boundary is
numerically ambiguous.
"""

from __future__ import annotations

import json
import random
import time

from common import Tally, durations, median, probe, run_cli

# Powell's evaluation count, and so the wall time, swings with r; narrow
# bands on each side of pi/4 ~ 0.785 keep runs comparable across seeds.
BELOW, ABOVE = (0.5, 0.6), (1.0, 1.1)
# d = 4 costs three times d = 3, so it runs once, below pi/4, where the
# capacity oracles have a positive closed form to meet.  A d = 2 call now
# and then takes half as long again as the rest (Powell's restarts follow
# the CLI seed), so d = 2, the cheapest, runs three times on each side.
ROUND = ((2, (BELOW, ABOVE) * 3), (3, (BELOW, ABOVE)), (4, (BELOW,)))
SLOTS = {2: "light_op_s", 3: "mid_op_s", 4: "heavy_op_s"}


def setup(seed: int):
    """Cold start of the package: fresh interpreters importing it."""
    return probe("import grasschan"), None


def check(doc, d: int, r: float, seed: int) -> list[str]:
    problems = []
    if doc.get("pass") is not True:
        failing = [rep.get("check") for rep in doc.get("reports", []) if not rep.get("pass")]
        problems.append(f"pass is {doc.get('pass')!r}, failing checks {failing}")
    params = doc.get("params", {})
    if params.get("d") != d or params.get("r") != r:
        problems.append(f"report params {params} do not echo d={d}, r={r}")
    if params.get("seed") != seed:
        problems.append(f"report seed {params.get('seed')} is not {seed}")
    return problems


def record(tally: Tally, outcome, d: int, r: float, seed: int):
    """Tally one verify call.

    ``verify`` exits 1 exactly when its report says ``"pass": false``, so a
    report is checked whatever the exit code: one that does not pass is a
    wrong answer.  A call that prints no report failed.
    """
    label = f"verify-d{d}"
    try:
        doc = json.loads(outcome.stdout)
    except json.JSONDecodeError:
        doc = None
    if not isinstance(doc, dict):
        tally.record(label, False, outcome.stderr.splitlines()[-1:] or [f"no report: {outcome.stdout[:60]!r}"])
        return
    problems = check(doc, d, r, seed)
    if outcome.returncode != 0 and not problems:
        problems.append(f"exit code {outcome.returncode} with a passing report")
    tally.record(label, True, problems)


def run(state, seed: int, seconds: float, tracer=None):
    rng = random.Random(seed)
    tally = Tally()
    classes = {slot: [] for slot in SLOTS.values()}
    rounds = []
    started = time.perf_counter()
    while True:
        calls = [(d, side) for d, sides in ROUND for side in sides]
        rng.shuffle(calls)  # every dimension samples the whole round
        rounds.append([])
        for d, side in calls:
            r, cli_seed = rng.uniform(*side), rng.randrange(1, 1_000_000)
            args = ["verify", "--suite", "all", "--d", str(d), "--r", repr(r),
                    "--seed", str(cli_seed)]
            outcome = run_cli(args, tracer)
            record(tally, outcome, d, r, cli_seed)
            interval = (outcome.start, outcome.end)
            classes[SLOTS[d]].append(interval)
            rounds[-1].append(interval)
        if tracer is not None or time.perf_counter() - started >= seconds:
            break
    detail = {f"verify_d{d}_s": (median(durations(classes[slot])), "s") for d, slot in SLOTS.items()}
    detail.update({f"verify_d{d}_calls": (len(classes[slot]), "count") for d, slot in SLOTS.items()})
    return tally, classes, rounds, detail
