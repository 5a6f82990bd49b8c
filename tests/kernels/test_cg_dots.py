"""CG's dot products: the same bits on every host, on one core.

``repro.cg.solver._dot_slab`` and ``_norm_diff_slab`` sum ``u @ v`` over
chunks of at most ``DOT_CHUNK`` elements.  OpenBLAS threads a ``ddot``
longer than that, and a threaded dot both uses a second core in a serial
cell and sums in an order that depends on the host's CPU count.  Held
here:

* a class-A length dot gives the same ``float.hex()`` in process and in
  a child process limited to one BLAS thread;
* up to ``DOT_CHUNK`` elements the chunked dot is bitwise ``u @ v``, so
  every class S and W slab keeps its bits;
* many class-A length dots keep process CPU time near wall time.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.cg import solver
from repro.cg.params import cg_params

#: Process CPU time over wall time allowed for single-threaded calls.
ONE_CORE_CPU_PER_WALL = 1.3

#: The CG class A vector length, above OpenBLAS's ddot threading cutoff.
N_CLASS_A = cg_params("A").na

_DOTS_SCRIPT = """
import json, sys
import numpy as np
from repro.cg import solver
n, seed = int(sys.argv[1]), int(sys.argv[2])
u, v = np.random.default_rng(seed).standard_normal((2, n))
print(json.dumps([solver._dot_slab(0, n, u, v).hex(),
                  solver._norm_diff_slab(0, n, u, v).hex()]))
"""


def _dots(n, seed):
    u, v = np.random.default_rng(seed).standard_normal((2, n))
    return [solver._dot_slab(0, n, u, v).hex(),
            solver._norm_diff_slab(0, n, u, v).hex()]


def test_class_a_dots_do_not_depend_on_blas_threads():
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   [src, os.environ.get("PYTHONPATH", "")]))
    child = subprocess.run(
        [sys.executable, "-c", _DOTS_SCRIPT, str(N_CLASS_A), "5"],
        env=env, capture_output=True, text=True, check=True)
    assert json.loads(child.stdout) == _dots(N_CLASS_A, 5)


@pytest.mark.parametrize("n", [0, 1, 7, 1400, solver.DOT_CHUNK - 1,
                               solver.DOT_CHUNK])
def test_up_to_one_chunk_is_bitwise_blas_dot(n):
    u, v = np.random.default_rng(n).standard_normal((2, n))
    assert solver._chunked_dot(u, v).hex() == float(u @ v).hex()


def test_class_a_dots_run_on_one_core():
    u, v = np.random.default_rng(3).standard_normal((2, N_CLASS_A))
    solver._dot_slab(0, N_CLASS_A, u, v)
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for _ in range(2000):
        solver._dot_slab(0, N_CLASS_A, u, v)
        solver._norm_diff_slab(0, N_CLASS_A, u, v)
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    assert cpu <= ONE_CORE_CPU_PER_WALL * wall, (cpu, wall)
