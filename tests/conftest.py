import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

# CLI tests start ``python -m relphase`` in subprocesses, which must import
# the package from this checkout as the test process does.
os.environ["PYTHONPATH"] = os.pathsep.join(
    path for path in (str(SRC), os.environ.get("PYTHONPATH")) if path
)

HAS_VMHWM = os.path.exists("/proc/self/status")


@pytest.fixture(scope="session")
def oracle():
    """Frozen brute-force values; regenerate with tools/make_fixtures.py."""
    return json.loads((FIXTURES / "oracle.json").read_text())


def random_state_vector(rng, dim):
    vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return vec / np.linalg.norm(vec)


def random_density_matrix(rng, dim):
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = raw @ raw.conj().T
    return rho / np.trace(rho).real


def cli_peak_mb(*args) -> float:
    """Peak resident memory in MB of one CLI run in a fresh interpreter.

    VmHWM is the peak of the process's own address space after exec;
    ru_maxrss would also count the parent's pages shared before exec.
    """
    script = (
        "import re, sys\n"
        "from relphase.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "status = open('/proc/self/status').read()\n"
        "print(re.search(r'VmHWM:\\s+(\\d+) kB', status).group(1))\n"
        "sys.exit(code)\n"
    )
    result = subprocess.run([sys.executable, "-c", script, *args], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return int(result.stdout) * 1024 / 1e6  # kB here means KiB
