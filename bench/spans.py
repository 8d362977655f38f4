"""In-memory span tracing of the package's public functions.

A traced run replaces each public function listed in ``LAYERS`` by a
wrapper in every module namespace that holds it (``verify`` imports
``apply_kraus`` from ``channels``, ``channels`` imports ``block_weights``
from ``capacity``), so calls are timed wherever they come from.  A span
records name, start, end, parent span and op id; spans stay in memory
until the run ends.  A layer's self time is its spans' duration minus the
time covered by their child spans.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import os
import time
from array import array

from grasschan import capacity, channels, cli, fock, verify
from grasschan.errors import ConvergenceError

MODULES = (cli, capacity, channels, fock, verify)

# layer name -> (module, public functions in the layer)
LAYERS = {
    "cli.run_sweep": (cli, ("run_sweep",)),
    "capacity.closed_form": (
        capacity,
        (
            "quantum_capacity_grassmann",
            "quantum_capacity_grassmann_unclamped",
            "quantum_capacity_grassmann_w",
            "classical_capacity_grassmann",
            "capacity_ratio",
            "unruh_capacity_approx",
        ),
    ),
    "capacity.block_weights": (capacity, ("block_weights",)),
    "capacity.unruh": (capacity, ("quantum_capacity_unruh",)),
    "fock.isometry_apply": (fock, ("isometry_apply",)),
    "fock.exterior_power": (fock, ("exterior_power",)),
    "fock.dense_oracle": (fock, ("squeezing_unitary", "factored_squeezing_unitary")),
    "channels.build": (
        channels,
        ("grassmann_channel", "complementary_channel", "grassmann_block"),
    ),
    "channels.apply_kraus": (channels, ("apply_kraus",)),
    "channels.transfer_matrix": (channels, ("transfer_matrix",)),
    "channels.choi_matrix": (channels, ("choi_matrix",)),
    "channels.json.dump": (channels, ("dump_channel_json",)),
    "channels.json.load": (channels, ("load_channel_json",)),
    "verify.entropy": (verify, ("von_neumann_entropy",)),
    "verify.coherent_information": (verify, ("coherent_information",)),
    "verify.holevo_quantity": (verify, ("holevo_quantity",)),
    "verify.optimize": (verify, ("optimize_coherent_information", "optimize_holevo")),
}
CHECKS = (
    "degradable",
    "covariance",
    "wolf_eisert_form",
    "werner_holevo",
    "factorization",
    "ppt",
    "approximation_rate",
)
for _check in CHECKS:
    LAYERS[f"verify.check.{_check}"] = (verify, (f"check_{_check}",))

OP_SPAN = "op"


def _count_unruh_terms(tracer, args, kwargs, result, exc):
    if isinstance(exc, ConvergenceError):  # the loop ran to its cap
        tracer.count("capacity.unruh.terms", capacity.UNRUH_MAX_TERMS)
    elif exc is None:
        tracer.count("capacity.unruh.terms", result.terms)


def _count_kraus_ops(tracer, args, kwargs, result, exc):
    tracer.count("channels.apply_kraus.kraus_ops", len(args[0]))


def _count_json_bytes(tracer, args, kwargs, result, exc):
    if exc is None:
        tracer.count("channels.json.bytes", os.path.getsize(args[4]))


def _count_rows(tracer, args, kwargs, result, exc):
    if exc is None:
        tracer.count("cli.rows", len(result) - 1)


COUNTED = ("capacity.unruh.terms", "channels.apply_kraus.kraus_ops", "channels.json.bytes", "cli.rows")
COUNTERS = {
    "quantum_capacity_unruh": _count_unruh_terms,
    "apply_kraus": _count_kraus_ops,
    "dump_channel_json": _count_json_bytes,
    "run_sweep": _count_rows,
}


class Tracer:
    """Span recorder; ``install`` wraps the package, ``uninstall`` restores it."""

    def __init__(self):
        self.names: list[str] = []
        self.layer_of: dict[int, str] = {}
        self._name_code: dict[str, int] = {}
        self.code = array("i")
        self.parent = array("i")
        self.op_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._op = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _code(self, name: str, layer: str | None) -> int:
        code = self._name_code.get(name)
        if code is None:
            code = self._name_code[name] = len(self.names)
            self.names.append(name)
            if layer is not None:
                self.layer_of[code] = layer
        return code

    def _open(self, code: int) -> int:
        idx = len(self.code)
        self.code.append(code)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op_id.append(self._op)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, amount: int):
        self.counts[name] = self.counts.get(name, 0) + int(amount)

    @contextlib.contextmanager
    def op(self, label: str):
        """Root span of one benchmark operation; children share its op id."""
        self._op += 1
        idx = self._open(self._code(f"{OP_SPAN}.{label}", None))
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, fn, name: str, layer: str | None):
        code = self._code(name, layer)
        counter = COUNTERS.get(fn.__name__)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(code)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                self._close(idx)
                if counter is not None:
                    counter(self, args, kwargs, result, exc)

        return traced

    # -- installation ------------------------------------------------------

    def install(self):
        for layer, (module, names) in LAYERS.items():
            for fname in names:
                original = getattr(module, fname)
                wrapper = self.wrap(original, f"{module.__name__}.{fname}", layer)
                for namespace in MODULES:
                    for attr, value in list(vars(namespace).items()):
                        if value is original:
                            self._saved.append((namespace, attr, original))
                            setattr(namespace, attr, wrapper)

    def uninstall(self):
        while self._saved:
            namespace, attr, original = self._saved.pop()
            setattr(namespace, attr, original)

    # -- results -----------------------------------------------------------

    def layer_totals(self) -> tuple[dict[str, float], dict[str, int]]:
        """Self seconds per layer, and calls entering each layer from outside it."""
        n = len(self.code)
        covered = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        for i in range(n):
            layer = self.layer_of.get(self.code[i])
            if layer is None:
                continue
            self_s[layer] = self_s.get(layer, 0.0) + (self.end[i] - self.start[i]) - covered[i]
            p = self.parent[i]
            if p < 0 or self.layer_of.get(self.code[p]) != layer:
                calls[layer] = calls.get(layer, 0) + 1
        return self_s, calls

    def write(self, path):
        """Spans as gzipped tab-separated ``name start end parent op`` lines."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("name\tstart\tend\tparent\top\n")
            for i in range(len(self.code)):
                fh.write(
                    f"{self.names[self.code[i]]}\t{self.start[i]:.9f}\t{self.end[i]:.9f}"
                    f"\t{self.parent[i]}\t{self.op_id[i]}\n"
                )


def overhead_per_span_s(repeats: int = 20000) -> float:
    """Traced minus untraced time of one call, from a no-op timed both ways."""

    def noop():
        return None

    samples = []
    for _ in range(5):
        traced = Tracer().wrap(noop, "noop", "noop")
        t0 = time.perf_counter()
        for _ in range(repeats):
            noop()
        t1 = time.perf_counter()
        for _ in range(repeats):
            traced()
        t2 = time.perf_counter()
        samples.append(((t2 - t1) - (t1 - t0)) / repeats)
    return sorted(samples)[len(samples) // 2]
