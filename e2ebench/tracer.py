"""Outside-in tracer for chibound.

Nothing under src/ changes. ``install`` swaps every public function of every
imported chibound module, matched by identity, in every chibound module
namespace that holds it; harness, machinery, certificates and
counterexamples bind ``chromatic_number`` by name, so swapping it only in
``coloring`` would miss most calls. The five kernel entry points of
``chibound._kernels`` and ``Graph.__init__`` are swapped too. The kernel
implementation modules are left alone: their internal calls are the kernel
layer's own work.

A wrapper records a span (op, name, start, end, parent) only while the
tracer is active, which the benchmark turns on around its ops and off
around its correctness checks. Self time is kept from a span stack: a
span's duration minus the time its child spans cover.
"""

import functools
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

KERNEL_ENTRY_POINTS = ("k_color", "greedy_clique", "max_clique", "find_embedding", "count_embeddings")
KERNEL_IMPLEMENTATIONS = ("chibound._kernels.pykernels", "chibound._kernels._ckernels")


def layer_of(module_name):
    """``chibound.coloring`` -> ``coloring``; ``chibound._kernels`` -> ``kernels``."""
    return module_name.split(".")[1].lstrip("_")


class Tracer:
    def __init__(self, observers=None):
        # name -> fn(args, result), called after each traced call of name
        self.observers = observers or {}
        self.spans = []
        self.keep_spans = True  # off after the first traced pass, to bound memory
        self.stack = []
        self.calls = Counter()
        self.busy = defaultdict(float)  # name -> summed span duration
        self.self_time = defaultdict(float)  # name -> summed self time
        self.active = False
        self.op = -1
        self._saved = []

    # ------------------------------------------------------------ recording

    def _call(self, name, fn, args, kwargs):
        frame = [len(self.spans), 0.0]  # span index, time covered by children
        parent = self.stack[-1][0] if self.stack else -1
        if self.keep_spans:
            self.spans.append(None)
        self.stack.append(frame)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self.stack.pop()
            duration = end - start
            if self.keep_spans:
                self.spans[frame[0]] = (self.op, name, start, end, parent)
            self.calls[name] += 1
            self.busy[name] += duration
            self.self_time[name] += duration - frame[1]
            if self.stack:
                self.stack[-1][1] += duration
        observer = self.observers.get(name)
        if observer is not None:
            observer(args, result)
        return result

    def run_op(self, op_index, fn):
        """Run one benchmark op as a root span named ``bench.op``."""
        self.op = op_index
        self.active = True
        try:
            return self._call("bench.op", fn, (), {})
        finally:
            self.active = False

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            return self._call(name, fn, args, kwargs)

        return traced

    # ------------------------------------------------------------- swapping

    def install(self):
        """Swap chibound's public functions for tracing wrappers."""
        modules = [m for n, m in list(sys.modules.items()) if n.startswith("chibound.") and m is not None]
        namespaces = [sys.modules["chibound"]] + [m for m in modules if m.__name__ not in KERNEL_IMPLEMENTATIONS]
        wrappers = {}  # id(original) -> (original, wrapper)
        for mod in namespaces:
            if mod.__name__ == "chibound":
                continue
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer_of(mod.__name__)}.{attr}", obj))
        kernels = sys.modules["chibound._kernels"]
        for attr in KERNEL_ENTRY_POINTS:
            obj = getattr(kernels, attr)
            wrappers[id(obj)] = (obj, self._wrap(f"kernels.{attr}", obj))
        for mod in namespaces:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        graph_cls = sys.modules["chibound.graphs"].Graph
        init = graph_cls.__init__
        self._saved.append((graph_cls, "__init__", init))
        graph_cls.__init__ = self._wrap("graphs.Graph", init)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -------------------------------------------------------------- reading

    def reset(self):
        """Forget counters (spans are kept until written out)."""
        self.calls.clear()
        self.busy.clear()
        self.self_time.clear()

    def layer_self(self, layer):
        return sum(t for name, t in self.self_time.items() if name.split(".")[0] == layer)

    def layer_calls(self, layer, prefix=""):
        head = f"{layer}.{prefix}"
        return sum(c for name, c in self.calls.items() if name.startswith(head))

    def write_spans(self, path):
        """One tab-separated line per span: op, name, start, end, parent
        (parent is a line index, -1 for a root). Times in seconds."""
        with open(path, "w") as fh:
            fh.write("op\tname\tstart\tend\tparent\n")
            for op, name, start, end, parent in self.spans:
                fh.write(f"{op}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")
