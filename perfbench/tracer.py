"""Span tracer for the ``toricdual`` layers, installed from outside the package.

Each public function of a layer module is replaced by a wrapper that records
one span per call: (name, start, end, parent span, operation id), with
start and end in CPU seconds of the process.  Callers
often hold their own reference (``from .intlinalg import rational_rank``),
so the wrapper is bound under every name, in every ``toricdual`` module,
that refers to the original function; otherwise calls from other layers
would bypass it.  Spans stay in memory until the run writes them out.
"""

import functools
import gzip
import importlib
import inspect
import json
import sys
from time import process_time

PACKAGE = "toricdual"
LAYERS = ("cli", "engine", "gale", "configuration", "intlinalg", "ratlp", "oracle")


def max_bits(rows):
    return max((abs(int(x)).bit_length() for row in rows for x in row), default=0)


# Largest entry size of the outputs named here, kept as "<layer>.<metric>".
OBSERVERS = {
    "gale.gale_dual": ("gale.max_bits", lambda out: max_bits(out.matrix.tolist())),
    "configuration.reduce_configuration": (
        "configuration.reduced_max_bits",
        lambda out: max_bits(out.weights.tolist()),
    ),
}


class Tracer:
    def __init__(self):
        self.names = []
        self.spans = []  # [name index, start, end, parent index, op id]
        self.stack = [-1]
        self.op_id = -1
        self.maxima = {}
        self.active = True  # False while the benchmark checks outputs
        self._bindings = []

    def _wrap(self, name, fn):
        ix = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self.stack
        observer = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = [ix, 0.0, 0.0, stack[-1], self.op_id]
            stack.append(len(spans))
            spans.append(span)
            span[1] = process_time()
            try:
                out = fn(*args, **kwargs)
                if observer is not None:
                    key, measure = observer
                    self.maxima[key] = max(self.maxima.get(key, 0), measure(out))
                return out
            finally:
                span[2] = process_time()
                stack.pop()

        return traced

    def install(self):
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, val in vars(mod).items():
                if inspect.isfunction(val) and val.__module__ == mod.__name__ and not attr.startswith("_"):
                    wrappers[id(val)] = (val, self._wrap(f"{layer}.{attr}", val))
        for modname, mod in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
                    self._bindings.append((mod, attr, val))

    def uninstall(self):
        for mod, attr, val in self._bindings:
            setattr(mod, attr, val)
        self._bindings.clear()

    def summary(self):
        """Per-name ``[calls, total seconds, self seconds]``.

        Self time is a span's duration minus the durations of its direct
        children; spans nest because calls run on one thread.
        """
        child = [0.0] * len(self.spans)
        for ix, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for k, (ix, start, end, _, _) in enumerate(self.spans):
            acc = out.setdefault(self.names[ix], [0, 0.0, 0.0])
            acc[0] += 1
            acc[1] += end - start
            acc[2] += end - start - child[k]
        return out

    def dump(self, path, extra=None):
        doc = {"names": self.names, "spans": self.spans, "maxima": self.maxima}
        doc.update(extra or {})
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh)


def merge_summaries(into, other):
    for name, (calls, total, self_s) in other.items():
        acc = into.setdefault(name, [0, 0.0, 0.0])
        acc[0] += calls
        acc[1] += total
        acc[2] += self_s
    return into
