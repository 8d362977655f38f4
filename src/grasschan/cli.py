"""Command-line front door: capacities, sweeps, verification, channel dumps.

Exit codes: 0 success, 1 domain, runtime or arithmetic error, 2 usage error.
All numeric output uses 12 fixed decimal places with a ``.`` separator so
identical invocations produce byte-identical files.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import capacity
from .errors import ConvergenceError, DomainError

# argparse's choices, without importing verify: "all", then the names of verify.SUITES
SUITES = ("all", "degradable", "covariance", "complementary-spectra", "wolf-eisert",
          "werner-holevo", "factorization", "oracle-q", "oracle-c", "ppt", "rate")

TOL = 1e-12  # the Unruh series' certified remainder: the capacity --tol default, and every sweep's

# (capacity kind, parameter) -> closed form at (d, x, base, tol).  The entries look their
# functions up when they run, so monkeypatching and span tracing see every call.  Quantum
# tries --w before --r; a kind's last parameter is the one a missing-value error names.
CLOSED_FORMS = {
    ("quantum", "w"): lambda d, x, base, tol: capacity.quantum_capacity_grassmann_w(d, x, base),
    ("quantum", "r"): lambda d, x, base, tol: capacity.quantum_capacity_grassmann(d, x, base),
    ("classical", "r"): lambda d, x, base, tol: capacity.classical_capacity_grassmann(d, x, base),
    ("unruh", "z"): lambda d, x, base, tol: capacity.quantum_capacity_unruh(d, x, tol, base),
    ("unruh-approx", "z"): lambda d, x, base, tol: capacity.unruh_capacity_approx(d, x, base),
    ("ratio", "d"): lambda d, x, base, tol: capacity.capacity_ratio(d),
}
# sweep family -> the capacity kind it plots
SWEEP_KINDS = {"grassmann-q": "quantum", "grassmann-c": "classical", "unruh-q": "unruh",
               "ratio": "ratio"}


def _fmt(x: float) -> str:
    return f"{x:.12f}"


def run_sweep(family: str, ds: list[int], param_name: str, start: float, stop: float,
              points: int, base: str) -> list[str]:
    """CSV lines of a family's closed form over ds and a linear grid; ratio has one row per d."""
    if family not in SWEEP_KINDS:
        raise DomainError(f"unknown family {family!r}")
    if not ds:
        raise DomainError("need at least one dimension")
    kind = SWEEP_KINDS[family]
    if kind == "ratio":
        if any(d < 2 for d in ds):
            raise DomainError("capacity ratio needs d >= 2")
        param_name = "d"
    else:
        if (kind, param_name) not in CLOSED_FORMS:
            raise DomainError(f"family {family} does not sweep over {param_name!r}")
        if points < 2:
            raise DomainError(f"need at least 2 grid points, got {points}")
        if not start < stop:
            raise DomainError(f"empty grid: start {start} must be below stop {stop}")
        if param_name == "r" and stop >= math.pi / 2:
            raise DomainError("r grids must stay strictly below pi/2")
        if param_name in ("w", "z") and start < 0.0:
            raise DomainError(f"{param_name} grids start at 0")
        if param_name == "w" and stop > 1.0:
            raise DomainError("w grids must stay within [0, 1]")
        if param_name == "z" and stop >= 1.0:
            raise DomainError("z grids must stay strictly below 1")
        grid = start + np.arange(points) * (stop - start) / (points - 1)
        if not np.all(np.diff(grid) > 0.0):
            raise DomainError("sweep grid must be strictly increasing in the parameter")
    lines = ["family,d,param_name,param,base,value"]
    for d in sorted(set(ds)):
        for x in [float(d)] if kind == "ratio" else grid.tolist():
            result = CLOSED_FORMS[kind, param_name](d, x, base, TOL)
            value = result.value if isinstance(result, capacity.UnruhCapacity) else result
            if not math.isfinite(value):
                raise DomainError(f"non-finite value at d={d}, {param_name}={x}")
            lines.append(f"{family},{d},{param_name},{_fmt(x)},{base},{_fmt(value)}")
    return lines


def _cmd_capacity(args) -> int:
    capacity._check_tol(args.tol)  # every kind takes --tol, though only unruh reads it
    params = [p for kind, p in CLOSED_FORMS if kind == args.kind]
    param = next((p for p in params if getattr(args, p) is not None), None)
    if param is None:
        raise DomainError(f"{args.kind} capacity needs --{params[-1]}")
    x = getattr(args, param)
    result = CLOSED_FORMS[args.kind, param](args.d, x, args.base, args.tol)
    payload = {"d": args.d, param: x, "value": result, "base": args.base}
    if isinstance(result, capacity.UnruhCapacity):
        payload.update(value=result.value, terms=result.terms, remainder=result.remainder)
    if args.kind == "ratio":
        del payload["base"]  # r_d is a ratio of capacities: no log base
    if args.json:
        import json  # only JSON output needs it, so plain one-shots skip its import
    print(json.dumps(payload) if args.json else _fmt(payload["value"]))
    return 0


def _cmd_sweep(args) -> int:
    ds = [int(x) for x in args.d.split(",")]
    lines = run_sweep(args.family, ds, args.param, args.start, args.stop, args.points, args.base)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
    return 0


def _cmd_verify(args) -> int:
    if args.d < 1:
        raise DomainError(f"dimension d={args.d} must be at least 1")
    capacity._check_r(args.r)  # every suite takes --r, though not every suite reads it
    capacity._check_tol(args.tol)
    import json

    from . import verify  # only this command needs it, so the others skip its import

    reports = verify.suite_reports(args.suite, args.d, args.r, args.seed, args.tol)
    all_pass = all(rep.passed for rep in reports)
    doc = {
        "suite": args.suite,
        "params": {"d": args.d, "r": args.r, "seed": args.seed, "tol": args.tol},
        "pass": all_pass,
        "reports": [rep.to_json_dict() for rep in reports],
    }
    print(json.dumps(doc, allow_nan=False))  # a non-finite value is an error, not invalid JSON
    return 0 if all_pass else 1


def _cmd_dump_channel(args) -> int:
    from . import channels  # only this command builds a channel

    ch = channels.grassmann_channel(args.d, args.r)
    channels.dump_channel_json(ch, "grassmann", args.d, args.r, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="grasschan", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    cap = sub.add_parser("capacity", help="evaluate a closed-form capacity")
    cap.add_argument("kind", choices=dict.fromkeys(k for k, _ in CLOSED_FORMS))
    cap.add_argument("--d", type=int, required=True)
    cap.add_argument("--r", type=float, default=None)
    cap.add_argument("--w", type=float, default=None)
    cap.add_argument("--z", type=float, default=None)
    cap.add_argument("--base", choices=("2", "d"), default="d")
    cap.add_argument("--tol", type=float, default=TOL)
    cap.add_argument("--json", action="store_true")
    cap.set_defaults(func=_cmd_capacity)

    sweep = sub.add_parser("sweep", help="write a capacity curve CSV")
    sweep.add_argument("--family", choices=SWEEP_KINDS, required=True)
    sweep.add_argument("--d", required=True, help="comma-separated dimensions, e.g. 2,5,10")
    sweep.add_argument("--param", choices=("r", "w", "z"), default="r")
    sweep.add_argument("--start", type=float, default=0.0)
    sweep.add_argument("--stop", type=float, default=1.5)
    sweep.add_argument("--points", type=int, default=100)
    sweep.add_argument("--base", choices=("2", "d"), default="d")
    sweep.add_argument("--out", required=True)
    sweep.set_defaults(func=_cmd_sweep)

    ver = sub.add_parser("verify", help="run a verification suite")
    ver.add_argument("--suite", choices=SUITES, required=True)
    ver.add_argument("--d", type=int, default=3)
    ver.add_argument("--r", type=float, default=0.5)
    ver.add_argument("--seed", type=int, default=7)
    ver.add_argument("--tol", type=float, default=1e-9)
    ver.set_defaults(func=_cmd_verify)

    dump = sub.add_parser("dump-channel", help="write a channel as JSON")
    dump.add_argument("--d", type=int, required=True)
    dump.add_argument("--r", type=float, required=True)
    dump.add_argument("--out", required=True)
    dump.set_defaults(func=_cmd_dump_channel)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ArithmeticError, ConvergenceError, MemoryError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
