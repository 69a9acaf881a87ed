"""Per-layer tracing of qpaste from outside the package.

``Tracer.install`` rebinds every ``qpaste.*`` module attribute that is one
of the listed public functions, plus a few methods on their classes, to a
wrapper that counts calls and accumulates busy and self time.  Coarse
functions also record a span (name, start, end, parent span, task id);
hot ones only count, since a span per call would swamp the work.  A name
a later version no longer has is skipped and reads as 0 calls.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from math import comb

LAYERS = ("pauli", "gf2", "stabilizer", "verification", "kl", "pasting", "catalog", "files", "cli")

# (layer, public function, records a span)
FUNCTIONS = (
    ("cli", "main", True),
    ("files", "loads", True),
    ("files", "dumps", True),
    ("catalog", "builtin", True),
    ("catalog", "hamming_class", True),
    ("catalog", "perfect", True),
    ("pasting", "augment", True),
    ("pasting", "can_paste", True),
    ("pasting", "locate_xz_generators", True),
    ("pasting", "paste", True),
    ("stabilizer", "validate", True),
    ("stabilizer", "syndrome", False),
    ("stabilizer", "contains", False),
    ("verification", "verify_distance3", True),
    ("verification", "distance", True),
    ("verification", "enumerate_errors", True),
    ("verification", "hamming_bound", False),
    ("verification", "best_k", False),
    ("kl", "codewords", True),
    ("kl", "kl_check", True),
    ("kl", "apply_pauli", False),
    ("pauli", "parse_pauli", False),
    ("pauli", "commutes", False),
    ("pauli", "multiply", False),
)
# (layer, class, method, metric name): counted on every call.
METHODS = (
    ("pauli", "PauliOperator", "__post_init__", "pauli.PauliOperator.constructed"),
    ("stabilizer", "StabilizerCode", "__init__", "stabilizer.StabilizerCode.constructed"),
    ("gf2", "Eliminator", "add", "gf2.Eliminator.add.calls"),
    ("gf2", "Eliminator", "solve", "gf2.Eliminator.solve.calls"),
)
# Functions whose first argument is a code: distinct codes are counted per task.
PER_CODE = ("stabilizer.validate", "verification.verify_distance3")


def _code_key(obj) -> int:
    try:
        return hash(obj)
    except TypeError:
        return id(obj)


class Tracer:
    def __init__(self, task: str = "-"):
        self.task = task
        self.stats: dict[str, list] = {}  # name -> [calls, busy_s, self_s]
        self.codes: dict[str, set] = {name: set() for name in PER_CODE}
        self.candidates = 0
        self.spans: list[list] = []  # [name, start, end, parent index, task]
        self._stack: list[list] = []  # [child seconds, span index for children]
        self._undo: list[tuple] = []

    def install(self) -> None:
        for layer in LAYERS:
            try:
                importlib.import_module(f"qpaste.{layer}")
            except ImportError:
                pass
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "qpaste"]
        for layer, attr, span in FUNCTIONS:
            fn = getattr(sys.modules.get(f"qpaste.{layer}"), attr, None)
            if fn is None:
                continue
            wrapper = self._wrap(f"{layer}.{attr}", fn, span)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self._rebind(module, key, wrapper)
        for layer, cls_name, method, name in METHODS:
            cls = getattr(sys.modules.get(f"qpaste.{layer}"), cls_name, None)
            fn = vars(cls).get(method) if isinstance(cls, type) else None
            if fn is not None:
                self._rebind(cls, method, self._wrap(name, fn, False))

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()

    def _rebind(self, owner, key: str, value) -> None:
        self._undo.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def _wrap(self, name: str, fn, span: bool):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        codes = self.codes.get(name)
        stack, spans, clock = self._stack, self.spans, time.perf_counter
        depth = [0]
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if codes is not None and args:
                codes.add((tracer.task, _code_key(args[0])))
            parent = stack[-1][1] if stack else None
            if span:
                index = len(spans)
                spans.append([name, 0.0, 0.0, parent, tracer.task])
            frame = [0.0, index if span else parent]
            stack.append(frame)
            depth[0] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth[0] -= 1
                elapsed = end - start
                stat[0] += 1
                if not depth[0]:  # inclusive time once, however deep the recursion
                    stat[1] += elapsed
                stat[2] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                if span:
                    spans[index][1:3] = start, end
            if name == "verification.distance":
                tracer._count_candidates(args, kwargs, result)
            return result

        return wrapper

    def _count_candidates(self, args, kwargs, result) -> None:
        """Search space the input fixes: sum of C(n, w) 3^w up to the weight found."""
        max_weight = args[1] if len(args) > 1 else kwargs.get("max_weight")
        top = result if result is not None else max_weight
        n = args[0].n
        self.candidates += sum(comb(n, w) * 3**w for w in range(1, top + 1))

    def summary(self) -> dict:
        return {
            "stats": self.stats,
            "codes": {name: len(keys) for name, keys in self.codes.items()},
            "candidates": self.candidates,
            "spans": len(self.spans),
        }

    def dump(self, path: str, **extra) -> None:
        with open(path, "w") as fh:
            json.dump({**self.summary(), "span_list": self.spans, **extra}, fh)


def merge(summaries: list[dict]) -> dict:
    """Add up the summaries of several traced processes."""
    out: dict = {"stats": {}, "codes": {}, "candidates": 0, "spans": 0}
    for s in summaries:
        for name, values in s["stats"].items():
            acc = out["stats"].setdefault(name, [0, 0.0, 0.0])
            for i, v in enumerate(values):
                acc[i] += v
        for name, count in s["codes"].items():
            out["codes"][name] = out["codes"].get(name, 0) + count
        out["candidates"] += s["candidates"]
        out["spans"] += s["spans"]
    return out


def layer_metrics(summary: dict) -> dict[str, float]:
    """Per-layer metric values by name, from a (merged) summary."""
    stats = summary["stats"]
    out: dict[str, float] = {}
    for name, (calls, busy, self_s) in stats.items():
        if name.endswith((".constructed", ".calls")):
            out[name] = calls
            continue
        out[f"{name}.calls"] = calls
        out[f"{name}.busy_s"] = busy
        out[f"{name}.self_s"] = self_s
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(v[2] for k, v in stats.items() if k.split(".")[0] == layer)
    for name in PER_CODE:
        distinct = summary["codes"].get(name, 0)
        out[f"{name}.calls_per_distinct_code"] = stats.get(name, [0])[0] / distinct if distinct else 0.0
    busy = stats.get("verification.distance", [0, 0.0])[1]
    out["verification.distance.candidates"] = summary["candidates"]
    out["verification.distance.candidates_per_s"] = summary["candidates"] / busy if busy else 0.0
    out["trace.spans"] = summary["spans"]
    return out
