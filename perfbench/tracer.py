"""In-memory span tracer for the benchmark's traced run.

`install` wraps, from outside the package, every public function of each
`oppmix` module, plus the `Field` element operations and `Subspace.bit_rows`.
Each call becomes a span: name, start, end, parent span and a size.  The
size summarises the return value: 0 for None or False, len() of a sized
result, otherwise 1.  A generator gets one span per next(); its size is 1
when the call yielded and 0 when it finished.

The Field element operations are leaves and run about 18 million times on
the oddq-spectral workload, so they get no spans of their own.  They are
folded instead: each span keeps the summed duration of the operations called
directly under it, and each operation keeps its call count and total time.
That is all a leaf contributes to the layer metrics.

Spans stay in memory and are written out once, when the job ends.
"""

from __future__ import annotations

import array
import functools
import importlib
import inspect
import json
import time
from dataclasses import dataclass

LAYERS = ("gf", "exactnum", "linalg", "spectrum", "forms", "oracle", "bounds", "cli")
FIELD_OPS = ("dot", "mul", "add", "sub", "inv", "conj")


def _size(x) -> int:
    if x is None or x is False:
        return 0
    if isinstance(x, (str, bytes, tuple, list, dict)):
        return len(x)
    return 1


class Tracer:
    """Span store: parallel arrays indexed by span id, plus the folded leaves."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name = array.array("H")
        self.parent = array.array("i")
        self.start = array.array("q")
        self.end = array.array("q")
        self.size = array.array("q")
        self.fold_ns = array.array("q")  # time in folded operations called directly
        self.stack = [-1]
        self.folded: dict = {}  # folded operation -> [calls, ns]

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        """fn with a span around each call (each next(), for a generator function)."""
        nid = self._id(name)
        names, parents, starts, ends, sizes = self.name, self.parent, self.start, self.end, self.size
        fold_ns, stack = self.fold_ns, self.stack
        clock = time.perf_counter_ns

        # The span bookkeeping is written out in both wrappers, not shared
        # through a helper, because it runs millions of times per job.
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def generator(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    i = len(names)
                    names.append(nid)
                    parents.append(stack[-1])
                    sizes.append(0)
                    fold_ns.append(0)
                    ends.append(0)
                    stack.append(i)
                    starts.append(clock())
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        ends[i] = clock()
                        stack.pop()
                    sizes[i] = 1
                    yield item

            return generator

        @functools.wraps(fn)
        def call(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            sizes.append(0)
            fold_ns.append(0)
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            sizes[i] = _size(result)
            return result

        return call

    def fold(self, name: str, fn):
        """fn with its calls counted and timed, charged to the calling span, without spans."""
        totals = self.folded[name] = [0, 0]
        fold_ns, stack = self.fold_ns, self.stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def call(*args):
            t0 = clock()
            result = fn(*args)
            dt = clock() - t0
            totals[0] += 1
            totals[1] += dt
            if stack[-1] >= 0:
                fold_ns[stack[-1]] += dt
            return result

        return call

    def dump(self, path: str, **meta) -> None:
        """Write the spans: one JSON header line, then the raw arrays."""
        header = dict(meta, names=self.names, count=len(self.name), folded=self.folded)
        with open(path, "wb") as f:
            f.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.start, self.end, self.size, self.fold_ns):
                arr.tofile(f)


@dataclass
class Spans:
    """One job's trace as read back from disk."""

    meta: dict
    names: list
    folded: dict  # folded operation -> [calls, ns]
    name: array.array
    parent: array.array
    start: array.array
    end: array.array
    size: array.array
    fold_ns: array.array


def load(path: str) -> Spans:
    with open(path, "rb") as f:
        header = json.loads(f.readline())
        n = header.pop("count")
        arrays = []
        for code in ("H", "i", "q", "q", "q", "q"):
            arr = array.array(code)
            arr.fromfile(f, n)
            arrays.append(arr)
    names, folded = header.pop("names"), header.pop("folded")
    return Spans(header, names, folded, *arrays)


def install(tracer: Tracer) -> None:
    """Route every traced oppmix callable through `tracer`, in every module that holds it."""
    package = importlib.import_module("oppmix")
    modules = [importlib.import_module(f"oppmix.{layer}") for layer in LAYERS]
    wrapped = {}
    for mod in modules:
        layer = mod.__name__.rsplit(".", 1)[1]
        for attr, obj in vars(mod).items():
            if (
                attr.startswith("_")
                or inspect.isclass(obj)
                or not callable(obj)
                or getattr(obj, "__module__", None) != mod.__name__
            ):
                continue
            wrapped[id(obj)] = (obj, tracer.wrap(f"{layer}.{attr}", obj))
    for mod in [package, *modules]:
        for attr, obj in list(vars(mod).items()):
            hit = wrapped.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])
    gf, linalg = modules[LAYERS.index("gf")], modules[LAYERS.index("linalg")]
    for op in FIELD_OPS:
        setattr(gf.Field, op, tracer.fold(f"gf.Field.{op}", getattr(gf.Field, op)))
    linalg.Subspace.bit_rows = tracer.wrap("linalg.Subspace.bit_rows", linalg.Subspace.bit_rows)
