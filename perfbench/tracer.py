"""Outside-in tracer: wraps every public function of the ``relphase``
modules, from the benchmark's files, so that no file of the program
changes.

A span opens at each entry into a layer (a ``relphase`` module) from a
different layer, so ``factorize`` calling ``factorize`` stays one span.
While the package is imported, a span named after a layer alone times that
module's body, and the third-party modules it loads go to a span named
``import``.
Spans are kept in memory as ``[name, start, end, parent]`` and handed to the
caller when the operation ends.  Counters read the arguments and return
values seen by the wrappers; counters named ``*.out_bytes`` keep the largest
single result, the others are sums.
"""

import builtins
import contextlib
import importlib.util
import sys
import time

LAYERS = ("cli", "fock", "blocks", "spin", "factorize", "twirl", "lattice")

COUNTERS = (
    "blocks.out_bytes",
    "blocks.reachable",
    "blocks.stored",
    "factorize.reports",
    "factorize.to_blocks_in_report",
    "twirl.rank1_updates",
    "twirl.out_bytes",
    "twirl.nonzero",
    "twirl.entries",
    "lattice.out_bytes",
    "lattice.reduced_in_bytes",
    "lattice.reduced_out_bytes",
)


class Tracer:
    def __init__(self):
        self.spans = []
        self.open = []
        self.functions = []
        self.counts = dict.fromkeys(COUNTERS, 0)

    def begin(self, name: str) -> int:
        parent = self.open[-1] if self.open else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self.open.append(len(self.spans) - 1)
        return self.open[-1]

    def end(self, index: int):
        self.spans[index][2] = time.perf_counter()
        self.open.pop()

    def current_layer(self):
        return self.spans[self.open[-1]][0].split(".")[0] if self.open else None

    @contextlib.contextmanager
    def module_imports(self, package):
        """While active, the first import of a module opens a span: one named
        after its layer for a module of ``package``, one named ``import``
        for any other."""
        original = builtins.__import__

        def traced_import(name, globals=None, locals=None, fromlist=(), level=0):
            target = name
            if level:
                target = importlib.util.resolve_name("." * level + name, globals["__package__"])
            module, _, _ = target[len(package) + 1:].partition(".")
            layer = module if target.startswith(package + ".") and module in LAYERS else "import"
            if target in sys.modules or layer == self.current_layer():
                return original(name, globals, locals, fromlist, level)
            index = self.begin(layer)
            try:
                return original(name, globals, locals, fromlist, level)
            finally:
                self.end(index)

        builtins.__import__ = traced_import
        try:
            yield
        finally:
            builtins.__import__ = original

    def install(self, package):
        """Replace every public function of every loaded ``relphase.*`` module
        by a wrapper, in every module namespace that holds it, the
        package's re-exports included."""
        modules = [m for n, m in sys.modules.items() if n == package or n.startswith(package + ".")]
        wrappers = {}
        for module in modules:
            layer = module.__name__.rpartition(".")[2]
            if layer not in LAYERS:
                continue
            for name, value in vars(module).items():
                if (
                    callable(value)
                    and not isinstance(value, type)
                    and not name.startswith("_")
                    and getattr(value, "__module__", None) == module.__name__
                ):
                    wrappers[id(value)] = self._wrap(value, layer)
        for module in modules:
            for name, value in list(vars(module).items()):
                if id(value) in wrappers:
                    setattr(module, name, wrappers[id(value)])

    def _wrap(self, function, layer):
        name = f"{layer}.{function.__name__}"

        def wrapper(*args, **kwargs):
            index = self.begin(name) if self.current_layer() != layer else None
            self.functions.append(function.__name__)
            try:
                result = function(*args, **kwargs)
            finally:
                self.functions.pop()
                if index is not None:
                    self.end(index)
            self._observe(function.__name__, args, kwargs, result)
            return result

        wrapper.__name__ = function.__name__
        return wrapper

    def _observe(self, name, args, kwargs, result):
        counts = self.counts
        if name == "to_blocks":
            out_bytes = sum(v.nbytes for v in result.vectors)
            counts["blocks.out_bytes"] = max(counts["blocks.out_bytes"], out_bytes)
            counts["blocks.reachable"] += len(args[0]) * len(args[0][0])
            counts["blocks.stored"] += sum(v.size for v in result.vectors)
            if "factorization_fidelity" in self.functions:
                counts["factorize.to_blocks_in_report"] += 1
        elif name == "factorization_fidelity":
            counts["factorize.reports"] += 1
        elif name in ("twirl_single_mode", "twirl_two_mode"):
            prior = args[1] if len(args) > 1 else kwargs["prior"]
            counts["twirl.rank1_updates"] += len(getattr(prior, "angles", ()))
            counts["twirl.out_bytes"] = max(counts["twirl.out_bytes"], result.matrix.nbytes)
            counts["twirl.nonzero"] += int((result.matrix != 0).sum())
            counts["twirl.entries"] += result.matrix.size
        elif name == "twirl_displacement":
            counts["lattice.out_bytes"] = max(counts["lattice.out_bytes"], result.matrix.nbytes)
        elif name == "reduced_relative":
            rho = args[0] if args else kwargs["rho"]
            counts["lattice.reduced_in_bytes"] += rho.matrix.nbytes
            counts["lattice.reduced_out_bytes"] += result.matrix.nbytes
