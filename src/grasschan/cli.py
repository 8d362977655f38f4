"""Command-line front door: capacities, sweeps, verification, channel dumps.

Exit codes: 0 success, 1 domain, runtime or consistency error, 2 usage
error.  All numeric output uses 12 fixed decimal places with a ``.``
separator so identical invocations produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import capacity, channels
from .errors import ConvergenceError, DomainError

SUITES = (
    "all",
    "degradable",
    "covariance",
    "wolf-eisert",
    "werner-holevo",
    "factorization",
    "oracle-q",
    "oracle-c",
    "ppt",
    "rate",
)

FAMILIES = ("grassmann-q", "grassmann-c", "unruh-q", "ratio")


def _fmt(x: float) -> str:
    return f"{x:.12f}"


@dataclass
class SweepConfig:
    family: str
    ds: list[int]
    param_name: str
    start: float
    stop: float
    points: int
    base: str
    out: str

    def validate(self):
        if self.family not in FAMILIES:
            raise DomainError(f"unknown family {self.family!r}")
        if not self.ds:
            raise DomainError("need at least one dimension")
        if self.family == "ratio":
            if any(d < 2 for d in self.ds):
                raise DomainError("capacity ratio needs d >= 2")
            return
        if self.points < 2:
            raise DomainError(f"need at least 2 grid points, got {self.points}")
        if not self.start < self.stop:
            raise DomainError(f"empty grid: start {self.start} must be below stop {self.stop}")
        if self.param_name == "r" and self.stop >= math.pi / 2:
            raise DomainError("r grids must stay strictly below pi/2")
        if self.param_name in ("w", "z") and self.start < 0.0:
            raise DomainError(f"{self.param_name} grids start at 0")
        if self.param_name == "w" and self.stop > 1.0:
            raise DomainError("w grids must stay within [0, 1]")
        if self.param_name == "z" and self.stop >= 1.0:
            raise DomainError("z grids must stay strictly below 1")
        allowed = {"grassmann-q": ("r", "w"), "grassmann-c": ("r",), "unruh-q": ("z",)}
        if self.param_name not in allowed[self.family]:
            raise DomainError(f"family {self.family} does not sweep over {self.param_name!r}")


def _sweep_value(family: str, d: int, param_name: str, value: float, base: str) -> float:
    if family == "grassmann-q" and param_name == "r":
        return capacity.quantum_capacity_grassmann(d, value, base)
    if family == "grassmann-q" and param_name == "w":
        return capacity.quantum_capacity_grassmann_w(d, value, base)
    if family == "grassmann-c":
        return capacity.classical_capacity_grassmann(d, value, base)
    if family == "unruh-q":
        return capacity.quantum_capacity_unruh(d, value, base=base).value
    raise DomainError(f"cannot evaluate family {family!r} at {param_name}={value}")


def run_sweep(cfg: SweepConfig) -> list[str]:
    cfg.validate()
    ds = sorted(set(cfg.ds))
    lines = ["family,d,param_name,param,base,value"]
    if cfg.family == "ratio":
        param_name = "d"
        for d in ds:
            value = capacity.capacity_ratio(d)
            lines.append(f"{cfg.family},{d},{param_name},{_fmt(float(d))},{cfg.base},{_fmt(value)}")
        return lines

    grid = cfg.start + np.arange(cfg.points) * (cfg.stop - cfg.start) / (cfg.points - 1)
    if not np.all(np.diff(grid) > 0.0):
        raise DomainError("sweep grid must be strictly increasing in the parameter")
    for d in ds:
        for param in grid.tolist():
            value = _sweep_value(cfg.family, d, cfg.param_name, param, cfg.base)
            if not math.isfinite(value):
                raise DomainError(f"non-finite value at d={d}, {cfg.param_name}={param}")
            lines.append(
                f"{cfg.family},{d},{cfg.param_name},{_fmt(param)},{cfg.base},{_fmt(value)}"
            )
    return lines


def _cmd_capacity(args) -> int:
    base = args.base
    if args.kind == "quantum":
        if args.w is not None:
            value = capacity.quantum_capacity_grassmann_w(args.d, args.w, base)
            payload = {"d": args.d, "w": args.w, "value": value, "base": base}
        else:
            value = capacity.quantum_capacity_grassmann(args.d, _require_r(args), base)
            payload = {"d": args.d, "r": args.r, "value": value, "base": base}
    elif args.kind == "classical":
        value = capacity.classical_capacity_grassmann(args.d, _require_r(args), base)
        payload = {"d": args.d, "r": args.r, "value": value, "base": base}
    elif args.kind == "unruh":
        if args.z is None:
            raise DomainError("unruh capacity needs --z")
        result = capacity.quantum_capacity_unruh(args.d, args.z, tol=args.tol, base=base)
        value = result.value
        payload = {"d": args.d, "z": args.z, "value": value, "base": base}
        payload.update(terms=result.terms, remainder=result.remainder)
    elif args.kind == "unruh-approx":
        if args.z is None:
            raise DomainError("unruh approximation needs --z")
        value = capacity.unruh_capacity_approx(args.d, args.z, base)
        payload = {"d": args.d, "z": args.z, "value": value, "base": base}
    else:  # ratio
        value = capacity.capacity_ratio(args.d)
        payload = {"d": args.d, "value": value}
    if args.json:
        print(json.dumps(payload))
    else:
        print(_fmt(value))
    return 0


def _require_r(args) -> float:
    if args.r is None:
        raise DomainError(f"{args.kind} capacity needs --r")
    return args.r


def _cmd_sweep(args) -> int:
    cfg = SweepConfig(
        family=args.family,
        ds=[int(x) for x in args.d.split(",")],
        param_name=args.param,
        start=args.start,
        stop=args.stop,
        points=args.points,
        base=args.base,
        out=args.out,
    )
    lines = run_sweep(cfg)
    with open(cfg.out, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
    return 0


def _suite_reports(suite: str, d: int, r: float, seed: int, tol: float) -> list:
    """Reports for one suite at a single (d, r) point.

    In ``all`` mode, checks whose dimension caps exclude the requested d are
    skipped; requesting such a check explicitly raises instead.  The
    werner-holevo/ppt checks floor d at 2 (their channel family needs it),
    and so does the rate check (its gap vanishes at d=1).
    """
    from . import verify  # only this command needs it, so the others skip its import

    reports = []
    if suite == "degradable" or (suite == "all" and d in verify.DEGRADABLE_DS):
        reports.append(verify.check_degradable(d, r, tol=tol))
    if suite in ("all", "covariance"):
        reports.append(verify.check_covariance(d, r, trials=20, tol=1e-9, seed=seed))
    if suite in ("all", "wolf-eisert"):
        for k in range(1, d + 1):
            reports.append(verify.check_wolf_eisert_form(d, k, trials=50, seed=seed))
    if suite in ("all", "werner-holevo"):
        reports.append(verify.check_werner_holevo(max(d, 2)))
    if suite in ("all", "factorization"):
        reports.append(verify.check_factorization(r, tol=1e-12))
    if suite == "oracle-q" or (suite == "all" and d <= verify.ORACLE_Q_MAX_D):
        value, _, stats = verify.optimize_coherent_information(d, r, restarts=4, seed=seed)
        closed = capacity.quantum_capacity_grassmann(d, r)
        gap = abs(max(0.0, value) - closed)
        reports.append(
            verify.VerificationReport(
                check="oracle-q",
                params={"d": d, "r": r, "seed": seed},
                passed=gap < 1e-6,
                worst_residual=gap,
                trials=[{"optimized": value, "closed_form": closed, **stats}],
            )
        )
    if suite == "oracle-c" or (suite == "all" and d <= verify.ORACLE_C_MAX_D):
        value, _, stats = verify.optimize_holevo(d, r, ensemble_size=d + 1, restarts=3, seed=seed)
        closed = capacity.classical_capacity_grassmann(d, r)
        reports.append(
            verify.VerificationReport(
                check="oracle-c",
                params={"d": d, "r": r, "seed": seed},
                passed=value <= closed + 1e-6 and value >= closed - 1e-4,
                worst_residual=abs(value - closed),
                trials=[{"optimized": value, "closed_form": closed, **stats}],
            )
        )
    if suite in ("all", "ppt"):
        dd = max(d, 2)
        wh = channels.werner_holevo(dd)
        pt_min = verify.check_ppt(channels.choi_matrix(wh), dd)
        threshold = -1.0 / (dd * dd - 1)
        below = verify.check_ppt(channels.transpose_depolarizing(dd, threshold - 1e-3), dd)
        above = verify.check_ppt(channels.transpose_depolarizing(dd, threshold + 1e-3), dd)
        reports.append(
            verify.VerificationReport(
                check="ppt",
                params={"d": dd},
                passed=pt_min < -1e-6 and below < -1e-12 and above > 1e-12,
                worst_residual=pt_min,
                trials=[{"wh_pt_min": pt_min, "below_threshold": below, "above_threshold": above}],
            )
        )
    if suite in ("all", "rate"):
        reports.append(verify.check_approximation_rate(max(d, 2)))
    return reports


def _cmd_verify(args) -> int:
    if args.d < 1:
        raise DomainError(f"dimension d={args.d} must be at least 1")
    if not math.isfinite(args.r):
        raise DomainError(f"squeezing parameter r={args.r} is not finite")
    if not 0.0 < args.tol < math.inf:
        raise DomainError(f"tolerance {args.tol} must be positive and finite")
    reports = _suite_reports(args.suite, args.d, args.r, args.seed, args.tol)
    all_pass = all(rep.passed for rep in reports)
    doc = {
        "suite": args.suite,
        "params": {"d": args.d, "r": args.r, "seed": args.seed, "tol": args.tol},
        "pass": all_pass,
        "reports": [rep.to_json_dict() for rep in reports],
    }
    print(json.dumps(doc))
    return 0 if all_pass else 1


def _cmd_dump_channel(args) -> int:
    ch = channels.grassmann_channel(args.d, args.r)
    channels.dump_channel_json(ch, "grassmann", args.d, args.r, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="grasschan", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    cap = sub.add_parser("capacity", help="evaluate a closed-form capacity")
    cap.add_argument("kind", choices=("quantum", "classical", "unruh", "unruh-approx", "ratio"))
    cap.add_argument("--d", type=int, required=True)
    cap.add_argument("--r", type=float, default=None)
    cap.add_argument("--w", type=float, default=None)
    cap.add_argument("--z", type=float, default=None)
    cap.add_argument("--base", choices=("2", "d"), default="d")
    cap.add_argument("--tol", type=float, default=1e-12)
    cap.add_argument("--json", action="store_true")
    cap.set_defaults(func=_cmd_capacity)

    sweep = sub.add_parser("sweep", help="write a capacity curve CSV")
    sweep.add_argument("--family", choices=FAMILIES, required=True)
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
