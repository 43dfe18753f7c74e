#!/usr/bin/env python3
"""Wall time and peak memory of relphase at the sizes of the Baseline table
in ROADMAP.md, one case per fresh interpreter.

    python3 tools/bench.py [NAME ...] > BENCH_<n>.json

With arguments, only the cases whose name holds one of them as a
substring run (``python3 tools/bench.py hs_distance "CLI way-demo"``);
with none, every case runs.

Every case runs in a child ``python -c`` that imports relphase from the
``src/`` next to this file and reads its own peak resident memory from
VmHWM in ``/proc/self/status``, so it needs Linux.  ``ru_maxrss`` is not
used: a child started by ``subprocess`` inherits the parent's high-water
mark.  A library case times the call alone, after the imports and the input
state are built; a process case (the CLI runs, ``python -c pass`` and the
test suite) is timed from here, interpreter start included.  The cases run
one after another, so no two children hold memory at once.

The output is a JSON list of rows ``{case, size, wall_s, peak_rss_mb,
numpy, python}``; a case whose child fails (a size an older version
refuses) gives ``{case, size, error, numpy, python}`` with the last line of
its stderr.  Progress goes to stderr.
"""

import json
import os
import platform
import subprocess
import sys
import time
from importlib.metadata import version
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Runs in the child: ``setup`` untimed, then ``timed``, then the last stdout
# line reports the wall time of ``timed``, VmHWM in kB (KiB) and ``size``, if
# the case sets it.
CHILD = """\
import json, re, time
size = None
{setup}
start = time.perf_counter()
{timed}
wall_s = time.perf_counter() - start
status = open("/proc/self/status").read()
peak_kb = int(re.search(r"VmHWM:\\s+(\\d+) kB", status).group(1))
print(json.dumps([wall_s, peak_kb, size]))
"""

VON_MISES = "from relphase import parse_prior\nprior = parse_prior('vonmises:4')"

PAIR = """\
import numpy as np
from relphase import QuditPairState, reduced_relative, shift_prior
from relphase import twirl_displacement, twirled_relative
d = {d}
rng = np.random.default_rng(0)
grid = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
state = QuditPairState(grid / np.linalg.norm(grid), view="relative")
prior = shift_prior("vonmises:4", d)"""

TWO_MODE = """\
import numpy as np
from relphase import default_cutoff, twirl_two_mode, two_mode_coherent
n_max = default_cutoff({alpha})
state = two_mode_coherent({alpha}, {alpha}, n_max, n_max)
state = state / np.linalg.norm(state)
""" + VON_MISES

# 600 of the 2415 block-ket entries are nonzero: the rest are the
# structural zeros of a rectangular grid
RECTANGLE = """\
import numpy as np
from relphase import twirl_two_mode, two_mode_coherent
state = two_mode_coherent(1, 4, 9, 59)
state = state / np.linalg.norm(state)
""" + VON_MISES

# two alpha = 2 twirls of 2415 x 2415 under vonmises:4: the exact state
# and the balanced product construction on the same grid
TWIRL_PAIR = """\
import numpy as np
from relphase import approx_product_balanced, hs_distance, parse_prior, twirl_two_mode
from relphase import two_mode_coherent
prior = parse_prior("vonmises:4")
approx = approx_product_balanced(2.0, 0.0)
exact = two_mode_coherent(2.0, 2.0, approx.shape[0] - 1, approx.shape[1] - 1)
rho = twirl_two_mode(exact / np.linalg.norm(exact), prior)
sigma = twirl_two_mode(approx, prior)
"""

# the ROADMAP Baseline pair: two states 1e-9 apart in |beta|, at a
# distance of 4.73150747232548e-10
NEAR_PAIR = """\
import numpy as np
from relphase import twirled_hs_distance, two_mode_coherent
a = two_mode_coherent(2, 1.5, 20, 18)
b = two_mode_coherent(2, 1.5 + 1e-9, 20, 18)
a, b = a / np.linalg.norm(a), b / np.linalg.norm(b)
"""

SCORE = TWO_MODE + """
from relphase import expectation, random_commutant_observable
rho = twirl_two_mode(state, prior)"""

# a seeded ket nonzero at every n up to the cutoff: the dense build skips
# the rows where psi is 0, and the tail of coherent_vector(1.0, 2000)
# underflows to 0 from n = 313 on
SINGLE_MODE = """\
import numpy as np
from relphase import twirl_single_mode
rng = np.random.default_rng(0)
psi = rng.standard_normal({n} + 1) + 1j * rng.standard_normal({n} + 1)
psi = psi / np.linalg.norm(psi)
""" + VON_MISES

# a seeded single-mode ket of n entries under the uniform prior, whose
# purity and fidelity read lag 0 alone
UNIFORM_KET = """\
import numpy as np
from relphase import UNIFORM, fidelity_pure_mixed, purity, twirl_single_mode
rng = np.random.default_rng(0)
psi = rng.standard_normal({n}) + 1j * rng.standard_normal({n})
psi = psi / np.linalg.norm(psi)
rho = twirl_single_mode(psi, UNIFORM)
"""

# the balanced |alpha| = 4 grid of the benchmark's balanced case (67 x 67)
BALANCED = """\
import numpy as np
from relphase import approx_product_balanced, relative_state_overlap, twirled_hs_distance
from relphase import two_mode_coherent
approx = approx_product_balanced(4.0, 0.0)
exact = two_mode_coherent(4.0, 4.0, approx.shape[0] - 1, approx.shape[1] - 1)
exact = exact / np.linalg.norm(exact)
z = np.sqrt(2) * 4.0
"""

# a 22 x 2001 grid, rows of about half a chunk: the window shape of a
# factorize sweep at |alpha| = 1 and |beta| = 40
TALL_THIN = """\
import numpy as np
from relphase import approx_product, relative_state_overlap, relative_target
from relphase import twirled_hs_distance, two_mode_coherent
exact = two_mode_coherent(1, 40, 21, 2000)
exact = exact / np.linalg.norm(exact)
approx = approx_product(1, 40, 21, 2000)
z = relative_target(1, 40)
"""

SUITE = """\
import pytest

class Count:
    def pytest_collection_finish(self, session):
        self.tests = len(session.items)

count = Count()
assert pytest.main(["-q", "-p", "no:cacheprovider", "tests"], plugins=[count]) == 0
size = f"{count.tests} tests"
"""


def call(case, size, setup, timed):
    return {"case": case, "size": size, "setup": setup, "timed": timed, "process": False}


def process(case, size, code):
    return {"case": case, "size": size, "setup": "", "timed": code, "process": True}


def cli(*argv):
    argv = [*argv, "--out", os.devnull]
    return (
        f"from relphase.cli import main\ncode = main({argv!r})\nassert code == 0, f'exit {{code}}'"
    )


CASES = [
    process("tier-1 suite", "tests/", SUITE),
    process("python -c pass", "-", "pass"),
    process("import numpy; import relphase", "cold start", "import numpy\nimport relphase"),
    process(
        "CLI contract-overlap", "1 point", cli("contract-overlap", "--z", "1", "--n-grid", "25")
    ),
    *(
        call(
            "factorization_fidelity(1, b)",
            f"b = {b}",
            "from relphase import factorization_fidelity",
            f"factorization_fidelity(1, {b})",
        )
        for b in (32, 64, 100, 300, 1000, 3000, 19063)
    ),
    *(
        call(
            "twirl_two_mode(...).matrix, vonmises:4",
            f"alpha = {alpha}",
            TWO_MODE.format(alpha=alpha),
            "twirl_two_mode(state, prior).matrix",
        )
        for alpha in (1, 2)
    ),
    call(
        "twirl_two_mode(...).matrix, vonmises:4",
        "10 x 60 grid",
        RECTANGLE,
        "twirl_two_mode(state, prior).matrix",
    ),
    call(
        "purity(twirl_two_mode(...)), vonmises:4",
        "alpha = 3",
        TWO_MODE.format(alpha=3) + "\nfrom relphase import purity",
        "purity(twirl_two_mode(state, prior))",
    ),
    call(
        "fidelity_pure_mixed(psi, twirl_two_mode(...)), vonmises:4",
        "alpha = 3",
        TWO_MODE.format(alpha=3)
        + "\nfrom relphase import fidelity_pure_mixed\npsi = twirl_two_mode(state, prior).psi",
        "fidelity_pure_mixed(psi, twirl_two_mode(state, prior))",
    ),
    call(
        "expectation(random_commutant_observable(2 n_max, 0, block), rho), vonmises:4",
        "alpha = 2",
        SCORE.format(alpha=2),
        "expectation(random_commutant_observable(2 * n_max, 0, 'block'), rho)",
    ),
    call(
        "expectation(obs, rho), block commutant, vonmises:4",
        "alpha = 3, 328350 entries",
        SCORE.format(alpha=3) + "\nobs = random_commutant_observable(2 * n_max, 0, 'block')",
        "expectation(obs, rho)",
    ),
    call(
        "twirl_single_mode(...).matrix, vonmises:4",
        "n = 2000, seeded ket",
        SINGLE_MODE.format(n=2000),
        "twirl_single_mode(psi, prior).matrix",
    ),
    *(
        call(f"{read}(twirl_single_mode(...)), uniform", f"n = {n}, seeded ket",
             UNIFORM_KET.format(n=n), timed)
        for n in (50001, 200001)
        for read, timed in (("purity", "purity(rho)"),
                            ("fidelity_pure_mixed", "fidelity_pure_mixed(psi, rho)"))
    ),
    *(
        call(kernel, size, setup, timed)
        for size, setup in (
            ("67 x 67 grid", BALANCED),
            ("two_mode_coherent(1, 40, 21, 2000)", TALL_THIN),
        )
        for kernel, timed in (
            ("twirled_hs_distance", "twirled_hs_distance(exact, approx)"),
            ("relative_state_overlap", "relative_state_overlap(exact, z)"),
        )
    ),
    call("hs_distance(rho, sigma), vonmises:4", "alpha = 2, 2415 x 2415", TWIRL_PAIR,
         "hs_distance(rho, sigma)"),
    call("twirled_hs_distance", "two_mode_coherent(2, 1.5, 20, 18), |beta| + 1e-9", NEAR_PAIR,
         "twirled_hs_distance(a, b)"),
    *(
        call(
            "reduced_relative(twirl_displacement(...)), vonmises:4",
            f"d = {d}",
            PAIR.format(d=d),
            "reduced_relative(twirl_displacement(state, prior))",
        )
        for d in (31, 61, 101)
    ),
    call("twirled_relative", "d = 101", PAIR.format(d=101), "twirled_relative(state, prior)"),
    call(
        "sum_gate",
        "d = 1001",
        PAIR.format(d=1001) + "\nfrom relphase import sum_gate",
        "sum_gate(state)",
    ),
    *(
        call(
            "purity(twirl_displacement(...)), vonmises:4",
            f"d = {d}",
            PAIR.format(d=d) + "\nfrom relphase import purity",
            "purity(twirl_displacement(state, prior))",
        )
        for d in (61, 101, 1001, 2895)
    ),
    *(
        call(
            "hs_distance of two pair twirls, vonmises:4 and uniform",
            f"d = {d}",
            PAIR.format(d=d) + "\nfrom relphase import hs_distance\nflat = shift_prior('uniform', d)",
            "hs_distance(twirl_displacement(state, prior), twirl_displacement(state, flat))",
        )
        for d in (1001, 2895)
    ),
    call(
        "contraction_overlap(2, N)",
        "N = 10^6",
        "from relphase import contraction_overlap",
        "contraction_overlap(2, 10**6)",
    ),
    call(
        "contraction_overlap(1e6, N)",
        "N = 2^24",
        "from relphase import contraction_overlap",
        "contraction_overlap(1e6, 2**24)",
    ),
    process(
        "CLI twirl-demo --n-max 2895 --n-observables 1 --prior uniform",
        "n_max = 2895",
        cli("twirl-demo", "--n-max", "2895", "--n-observables", "1", "--prior", "uniform"),
    ),
    process(
        "CLI twirl-demo --n-max 2895",
        "4 default priors",
        cli("twirl-demo", "--n-max", "2895"),
    ),
    process("CLI way-demo --dim-list 1001", "d = 1001", cli("way-demo", "--dim-list", "1001")),
    process(
        "CLI factorize-sweep --alpha 1 --beta-list 3000",
        "b = 3000",
        cli("factorize-sweep", "--alpha", "1", "--beta-list", "3000"),
    ),
    process(
        "CLI factorize-sweep --alpha 4 --beta-list 8,16,32",
        "b = 8, 16, 32",
        cli("factorize-sweep", "--alpha", "4", "--beta-list", "8,16,32"),
    ),
]


def run(case, versions) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    script = CHILD.format(setup=case["setup"], timed=case["timed"])
    start = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-c", script], cwd=ROOT, env=env, capture_output=True, text=True
    )
    elapsed = time.perf_counter() - start
    if result.returncode != 0:
        # a size that a version refuses is a result too: keep its message
        error = result.stderr.strip().splitlines()[-1]
        print(f"bench: {case['case']} ({case['size']}) failed: {error}", file=sys.stderr)
        return {"case": case["case"], "size": case["size"], "error": error, **versions}
    wall_s, peak_kb, size = json.loads(result.stdout.splitlines()[-1])
    return {
        "case": case["case"],
        "size": size or case["size"],
        "wall_s": elapsed if case["process"] else wall_s,
        "peak_rss_mb": peak_kb * 1024 / 1e6,
        **versions,
    }


def main():
    versions = {"numpy": version("numpy"), "python": platform.python_version()}
    names = sys.argv[1:]
    rows = []
    for case in CASES:
        if names and not any(name in case["case"] for name in names):
            continue
        print(f"bench: {case['case']} ({case['size']})", file=sys.stderr)
        rows.append(run(case, versions))
    print("[\n" + ",\n".join(json.dumps(row) for row in rows) + "\n]")


if __name__ == "__main__":
    main()
