"""Benchmark of the grasschan toolkit; see bench/README.md.

    python3 bench/run.py --workload {cli,verify,kernels} --seed N --seconds S --trace {0,1}

Run from anywhere inside a checkout that holds ``src/grasschan``.  With
``--trace 0`` the last stdout line is one JSON object carrying every
end-to-end metric of BENCHMARK.json; with ``--trace 1`` one round runs
in-process with every public function traced and the object carries the
per-layer metrics instead.  The line before it holds provenance and the
workload's own named metrics.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import statistics
import sys

import common

WORKLOADS = ("cli", "verify", "kernels")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def workload_module(name: str):
    if name == "cli":
        import cli_workload as module
    elif name == "verify":
        import verify_workload as module
    else:
        import kernels_workload as module
    return module


def per_layer(tracer, names: list[str], interp_s: float, import_s: float) -> dict:
    import spans

    self_s, calls = tracer.layer_totals()
    fixed = {
        "cli.interp_s": interp_s,
        "cli.import_s": import_s,
        "channels.json.dump_s": self_s.get("channels.json.dump", 0.0),
        "channels.json.load_s": self_s.get("channels.json.load", 0.0),
        "trace.spans": len(tracer.code),
        "trace.overhead_s": len(tracer.code) * spans.overhead_per_span_s(),
    }
    values = {}
    for name in names:
        if name in fixed:
            values[name] = fixed[name]
        elif name in spans.COUNTED:
            values[name] = tracer.counts.get(name, 0)
        elif name.endswith(".self_s"):
            values[name] = self_s.get(name[: -len(".self_s")], 0.0)
        elif name.endswith(".calls"):
            values[name] = calls.get(name[: -len(".calls")], 0)
        else:
            raise KeyError(f"no measurement behind per-layer metric {name!r}")
    return values


def op_metrics(speed, setup_at, classes, rounds, scaled: bool) -> dict:
    """``setup_s`` and the op-class metrics, at the sampler's reference speed or raw.

    ``setup_s`` is the median set-up; an op class is the mean time of its
    operations, which moves in proportion to the share of slow CPU time
    where a median jumps by the whole step (see ``common.SpeedSampler``);
    ``round_s`` is the mean over rounds of the summed time of a round's
    operations, so the benchmark's own checks stay out of it.
    """
    length = speed.scaled if scaled else (lambda start, end: end - start)
    values = {"setup_s": statistics.median(length(*iv) for iv in setup_at)}
    for name, intervals in classes.items():
        values[name] = statistics.fmean(length(*iv) for iv in intervals)
    values["round_s"] = statistics.fmean(sum(length(*iv) for iv in ops) for ops in rounds)
    return values


def timed_run(module, args, spec, speed):
    setup_at, state = module.setup(args.seed)
    tally, classes, rounds, detail = module.run(state, args.seed, args.seconds)
    values = op_metrics(speed, setup_at, classes, rounds, scaled=True)
    values["peak_rss_mb"] = common.peak_rss_mb(children=args.workload != "kernels")
    raw = op_metrics(speed, setup_at, classes, rounds, scaled=False)
    detail.update({f"{name}.raw": (value, "s") for name, value in raw.items()})
    return tally, detail, values, spec["end_to_end"]


def traced_run(module, args, spec, speed):
    import spans

    _, state = module.setup(args.seed)
    interp_s = common.median(common.durations(common.probe("pass")))
    import_s = common.median(common.durations(common.probe("import grasschan"))) - interp_s
    tracer = spans.Tracer()
    tracer.install()
    try:
        tally, _, _, detail = module.run(state, args.seed, args.seconds, tracer)
    finally:
        tracer.uninstall()
    wanted = spec["per_layer"]
    values = per_layer(tracer, [m["name"] for m in wanted], interp_s, import_s)
    factor = speed.factor()  # times at the reference speed of the whole run
    for m in wanted:
        if m["unit"] == "s":
            values[m["name"]] *= factor
    out_dir = common.ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"spans-{args.workload}.tsv.gz")
    return tally, detail, values, wanted


def main(argv=None) -> int:
    args = parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so a running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (common.SRC / "grasschan" / "__init__.py").is_file():
        print(f"error: no program sources under {common.SRC}", file=sys.stderr)
        return 2
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    common.prepare_environment()
    module = workload_module(args.workload)
    common.TMP.mkdir(exist_ok=True)
    try:
        with common.SpeedSampler() as speed:
            run_mode = traced_run if args.trace else timed_run
            tally, detail, values, wanted = run_mode(module, args, spec, speed)
    finally:
        shutil.rmtree(common.TMP, ignore_errors=True)

    detail["error_rate"] = (tally.error_rate, "ratio")
    detail["speed_factor"] = (speed.factor(), "ratio")
    detail["speed_samples"] = (len(speed.loop_s), "count")
    print(json.dumps({
        "provenance": common.provenance(args.seed, args.workload, bool(args.trace)),
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in detail.items()},
        "problems": tally.problems[:10],
    }))
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
