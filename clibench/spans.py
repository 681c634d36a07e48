"""In-memory span tracer for the multipres layers.

``Tracer.install`` wraps public functions of the library in every
``multipres`` module namespace that holds them, which is where their callers
look them up (``from .metrics import bottleneck`` binds a name in the
caller's module, ``kernels.rank`` reads a module attribute).  Each call
records a span (name, start, end, parent span, operation id, size).
``Tracer.remove`` puts the original objects back.  Self time is a span's
duration minus the durations of its direct children, scaled by the factor
of the operation it ran in.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter


def _bars(args, result):
    return args[0].total() + args[1].total()


def _columns(args, result):
    return len(args[0])


def _basis(args, result):
    return len(args[1])


def _accepted(args, result):
    return int(bool(result))


# (module, function, size or outcome recorded per call)
FUNCTIONS = [
    ("metrics", "matching_distance", None),
    ("metrics", "sample_lines", None),
    ("metrics", "bottleneck_at_most", _accepted),
    ("metrics", "bottleneck", _bars),
    ("metrics", "verify_interleaving", None),
    ("metrics", "rank_lower_bound", None),
    ("fibered", "restrict", None),
    ("fibered", "barcode", None),
    ("presentation", "betti_and_grid", None),
    ("presentation", "minimize", None),
    ("functors", "simplify_with_witness", None),
    ("functors", "merge_with_witness", None),
    ("functors", "grid_align", None),
    ("kernels", "reduce_pivots", _columns),
    ("kernels", "echelonize", _columns),
    ("kernels", "residual", _basis),
    ("kernels", "rank", _columns),
    ("fio", "parse_fpres", None),
    ("fio", "serialize_fpres", None),
]
METHODS = [
    ("presentation", "Presentation", "hilbert"),
    ("presentation", "Presentation", "rank_between"),
]
ROOT = "cli"


class Tracer:
    def __init__(self):
        # span: [name, start, end, parent index, operation id, size]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.op = -1

    def _wrap(self, name, fn, size):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self.op, 0]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if size is not None:
                span[5] = size(args, result)
            return result

        return traced

    def call(self, op_id, fn, *args):
        """Run fn(*args) as the root span of operation op_id."""
        self.op = op_id
        return self._wrap(ROOT, fn, None)(*args)

    def install(self) -> None:
        pkg = {name: mod for name, mod in sys.modules.items()
               if name.startswith("multipres") and not name.startswith("multipres._")}
        for module, fname, size in FUNCTIONS:
            original = getattr(pkg[f"multipres.{module}"], fname)
            wrapped = self._wrap(f"{module}.{fname}", original, size)
            for mod in pkg.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapped)
        for module, cls_name, meth in METHODS:
            cls = getattr(pkg[f"multipres.{module}"], cls_name)
            original = cls.__dict__[meth]
            self._patched.append((cls, meth, original))
            setattr(cls, meth, self._wrap(f"{module}.{meth}", original, None))

    def remove(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def clear(self) -> None:
        self.spans.clear()

    def summary(self, factors: list[float]) -> dict[str, dict[str, float]]:
        """Per span name: calls, self_s (seconds) and summed size.

        factors[op] scales the self times of operation op, as the runner
        scales that operation's time to nominal machine speed.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op, size in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "self_s": 0.0, "size": 0})
        for (name, start, end, parent, op, size), kids in zip(self.spans, child):
            row = out[name]
            row["calls"] += 1
            row["self_s"] += (end - start - kids) * factors[op]
            row["size"] += size
        return out

    def dump(self, path: Path) -> None:
        fields = ["name", "start", "end", "parent", "op", "size"]
        with path.open("w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(fields, span))) + "\n")
