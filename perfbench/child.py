"""Run one benchmark operation in this fresh interpreter and report it.

    python3 perfbench/child.py '<json spec>'

The spec names the operation (``{"cli": [...]}`` for a ``python -m
relphase`` invocation, ``{"lib": name, "params": {...}}`` for a library
call), the workload seed and whether to trace.  The last line of standard
output is one JSON object: exit code, import and compute time, this
process's peak RSS, the operation's output text and, when traced, its
spans and counters.  Only this process ran the operation, so its
``ru_maxrss`` belongs to it.
"""

import contextlib
import io
import json
import math
import os
import resource
import runpy
import sys
import time
import traceback

PACKAGE = "relphase"


def balanced_case(rp, np, seed, alpha):
    """Balanced product construction at phi_r = 0 against the normalized
    exact state on its own grid."""
    approx = rp.approx_product_balanced(alpha, 0.0)
    exact = rp.two_mode_coherent(alpha, alpha, approx.shape[0] - 1, approx.shape[1] - 1)
    exact = exact / np.linalg.norm(exact)
    return {
        "pure_fidelity": min(float(abs(np.vdot(exact, approx)) ** 2), 1.0),
        "twirled_hs_distance": rp.twirled_hs_distance(exact, approx),
        "relative_state_overlap": rp.relative_state_overlap(exact, math.sqrt(2) * alpha),
    }


def two_mode_twirl(rp, np, seed, alpha, n_max, prior):
    """Twirl the normalized two-mode coherent state under one prior; score it
    with a seeded block-basis commutant observable."""
    state = rp.two_mode_coherent(alpha, alpha, n_max, n_max)
    state = state / np.linalg.norm(state)
    rho = rp.twirl_two_mode(state, rp.parse_prior(prior))
    observable = rp.random_commutant_observable(2 * n_max, seed, "block")
    return {
        "commutant": rp.expectation(observable, rho),
        "purity": rp.purity(rho),
        "trace": float(np.trace(rho.matrix).real),
    }


LIBRARY = {"balanced_case": balanced_case, "two_mode_twirl": two_mode_twirl}


def openblas_threads(np):
    """Thread count of the OpenBLAS bundled with numpy, or None if absent."""
    import ctypes
    import glob

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def environment(np):
    import platform

    import scipy

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "openblas_threads": openblas_threads(np),
    }


def run(spec):
    report = {"exit": 0, "error": None, "output": ""}
    tracer = None
    imports = contextlib.nullcontext()
    if spec["trace"]:
        import numpy  # noqa: F401  -- loaded first, so traced import time leaves it out

        from tracer import Tracer

        tracer = Tracer()
        root = tracer.begin("op")
        before = set(sys.modules)
        imports = tracer.module_imports(PACKAGE)
    with imports:
        start = time.perf_counter()
        import numpy as np

        import relphase as rp

        imported = time.perf_counter()
        if tracer:
            report["import_modules"] = len(set(sys.modules) - before)
            if "cli" in spec:
                import relphase.cli  # noqa: F401  -- loaded before wrapping, so main is traced
    if not os.path.realpath(rp.__file__).startswith(os.path.realpath(spec["src"]) + os.sep):
        raise RuntimeError(f"imported {rp.__file__}, not the package under {spec['src']}")
    if tracer:
        tracer.install(PACKAGE)

    buffer = io.StringIO()
    try:
        with contextlib.redirect_stdout(buffer):
            if "cli" in spec:
                sys.argv = [PACKAGE, *spec["cli"], "--seed", str(spec["seed"])]
                try:
                    runpy.run_module(PACKAGE, run_name="__main__", alter_sys=True)
                except SystemExit as stop:
                    report["exit"] = stop.code if isinstance(stop.code, int) else 1
            else:
                values = LIBRARY[spec["lib"]](rp, np, spec["seed"], **spec["params"])
                print(json.dumps(values, sort_keys=True))
    except Exception:
        report["exit"] = 1
        report["error"] = traceback.format_exc()
    done = time.perf_counter()

    report["output"] = buffer.getvalue()
    report["import_s"] = imported - start
    report["compute_s"] = done - imported
    report["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer:
        tracer.end(root)
        report["spans"] = tracer.spans
        report["counts"] = tracer.counts
    if spec["env"]:
        report["env"] = environment(np)
    return report


def main():
    spec = json.loads(sys.argv[1])
    report = run(spec)
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
