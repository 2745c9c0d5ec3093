"""The g-table's thread pool: results independent of the thread count, safe
for concurrent callers and forked children, and OpenBLAS pinned to one
thread only once a call has blocks for the pool."""

import json
import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from paulient import _threads
from paulient.entpower import _pauli_g_table, pauli_entangling_power
from paulient.operators import Bipartition, haar_random_unitary
from paulient.spinchain import run_sweep_experiment


@pytest.fixture
def thread_limit():
    """set_thread_limit for one test; every core again afterwards."""
    yield _threads.set_thread_limit
    _threads.set_thread_limit(None)


_BLAS_PROBE = """
import ctypes, json
import numpy as np
from paulient import _threads
from paulient.entpower import pauli_entangling_power
from paulient.operators import Bipartition, haar_random_unitary

GETTERS = ("openblas_get_num_threads", "openblas_get_num_threads64_",
           "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_")

def counts():
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh
                        if "openblas" in line.rsplit("/", 1)[-1].lower()})
    out = []
    for path in paths:
        lib = ctypes.CDLL(path)
        out += [getattr(lib, name)() for name in GETTERS if hasattr(lib, name)][:1]
    return out

_threads.set_thread_limit(2)
rng = np.random.default_rng(0)
before = counts()
pauli_entangling_power(haar_random_unitary(32, rng), Bipartition(2, 3))  # one block
single = counts()
pauli_entangling_power(haar_random_unitary(64, rng), Bipartition(3, 3))  # two blocks
pooled = counts()
import scipy.linalg  # loads scipy's OpenBLAS build after the first pooled call
late = counts()
pauli_entangling_power(haar_random_unitary(64, rng), Bipartition(3, 3))
print(json.dumps([before, single, pooled, late, counts()]))
"""


class TestThreadPool:
    def test_g_table_independent_of_thread_count(self, thread_limit):
        # blocks of 2^17 // d^2 pairs: N = 6 has 2 blocks, N = 7 five (36 pairs
        # in blocks of 8, the last one ragged), N = 8 sixty-eight; a limit of
        # 16 is cut to what the memory budget allows
        rng = np.random.default_rng(505)
        for n_a, n_b in [(3, 3), (3, 4), (4, 3), (4, 4)]:
            bp = Bipartition(n_a, n_b)
            u = haar_random_unitary(bp.d, rng)
            thread_limit(1)
            one = _pauli_g_table(u, bp)
            for limit in (None, 2, 16):
                thread_limit(limit)
                assert np.array_equal(one, _pauli_g_table(u, bp)), (n_a, n_b, limit)

    def test_memory_budget_caps_threads(self, thread_limit):
        # without the budget, sixteen threads' buffers and slots take about
        # 78 MiB at 4|4; with it, one call stays where the one-thread kernel was
        thread_limit(16)
        u = haar_random_unitary(256, np.random.default_rng(508))
        tracemalloc.start()
        try:
            pauli_entangling_power(u, Bipartition(4, 4))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 21.5 * 2**20

    def test_concurrent_callers_get_equal_values(self, thread_limit):
        # more block threads than cores and a short switch interval, so the
        # callers' blocks interleave on the shared pool
        thread_limit(4)
        bp = Bipartition(3, 4)
        u = haar_random_unitary(bp.d, np.random.default_rng(506))
        want = pauli_entangling_power(u, bp).value
        start = threading.Barrier(3)
        values = [None] * 3

        def call(i):
            start.wait()
            values[i] = pauli_entangling_power(u, bp).value

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            callers = [threading.Thread(target=call, args=(i,)) for i in range(3)]
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=120.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        assert values == [want] * 3

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_child_forked_after_pool_finishes_exact_call(self, thread_limit):
        thread_limit(2)
        bp = Bipartition(3, 4)
        u = haar_random_unitary(bp.d, np.random.default_rng(507))
        want = pauli_entangling_power(u, bp).value  # creates the pool in this process
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:  # child: never return into the test runner
            try:
                os.close(read_end)
                os.write(write_end, repr(pauli_entangling_power(u, bp).value).encode())
            finally:
                os._exit(0)
        os.close(write_end)
        with os.fdopen(read_end) as fh:
            deadline = time.monotonic() + 120.0
            while os.waitpid(pid, os.WNOHANG) == (0, 0):
                if time.monotonic() > deadline:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
                    pytest.fail("forked child did not finish its exact P_E call")
                time.sleep(0.05)
            assert float(fh.read()) == want

    def test_sweep_rows_independent_of_worker_count(self):
        kw = dict(mode="exact", max_steps=30, seed=11)
        one = run_sweep_experiment("xyz", [0.0, 1.0], 6, workers=1, **kw)
        two = run_sweep_experiment("xyz", [0.0, 1.0], 6, workers=2, **kw)
        assert one == two

    @pytest.mark.skipif(not Path("/proc/self/maps").exists(), reason="needs /proc/self/maps")
    def test_openblas_pinned_by_multi_block_calls_only(self):
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, OPENBLAS_NUM_THREADS="2",
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", _BLAS_PROBE], env=env, check=True,
                             capture_output=True, text=True, timeout=300)
        before, single, pooled, late, after = json.loads(out.stdout.splitlines()[-1])
        if not before:
            pytest.skip("no OpenBLAS library is loaded")
        assert single == before
        assert pooled == [1] * len(before)
        assert after == [1] * len(late)
