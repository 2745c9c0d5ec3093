"""The P_E thread pool: g-table blocks and sampled strings give results
independent of the thread count, the pool is safe for concurrent callers and
forked children, an early stop leaves no call running, and OpenBLAS is pinned
to one thread only once a call has tasks for the pool."""

import json
import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest

from paulient import _threads
from paulient.entpower import _pauli_entangling_power, _pauli_g_table, pauli_entangling_power
from paulient.operators import Bipartition, haar_random_unitary
from paulient.paulis import _SectorLayout
from paulient.spinchain import (
    HamiltonianPropagator,
    XYZModel,
    build_hamiltonian,
    run_sweep_experiment,
)


@pytest.fixture
def thread_limit():
    """set_thread_limit for one test; every core again afterwards."""
    yield _threads.set_thread_limit
    _threads.set_thread_limit(None)


_BLAS_PROBE = """
import ctypes, json, sys
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
if sys.argv[1] == "exact":
    small = lambda: pauli_entangling_power(haar_random_unitary(32, rng), Bipartition(2, 3))
    large = lambda: pauli_entangling_power(haar_random_unitary(64, rng), Bipartition(3, 3))
elif sys.argv[1] == "sectors":  # diagonal, so two parity sectors: one block of each q
    phases = lambda d: np.diag(np.exp(2j * np.pi * rng.random(d)))
    small = lambda: pauli_entangling_power(phases(32), Bipartition(2, 3))
    large = lambda: pauli_entangling_power(phases(64), Bipartition(3, 3))
else:  # a sampled call below the size floor of the pool, and one at it
    small = lambda: pauli_entangling_power(haar_random_unitary(128, rng), Bipartition(3, 4),
                                           mode="sampled", rng=rng, n_samples=4)
    large = lambda: pauli_entangling_power(haar_random_unitary(256, rng), Bipartition(4, 4),
                                           mode="sampled", rng=rng, n_samples=4)
before = counts()
small()  # one block, or strings below the floor
single = counts()
large()  # two blocks, or strings at the floor
pooled = counts()
import scipy.linalg  # loads scipy's OpenBLAS build after the first pooled call
late = counts()
large()
print(json.dumps([before, single, pooled, late, counts()]))
"""


def _xyz_unitary(n_sites: int) -> np.ndarray:
    model = XYZModel(n_sites=n_sites, j_z=0.3)
    return HamiltonianPropagator(build_hamiltonian(model)).unitary_at(2.0)


class TestThreadPool:
    def test_g_table_independent_of_thread_count(self, thread_limit):
        # a Haar U takes blocks of 2^17 // d^2 pairs: N = 6 has 2 blocks, N = 7
        # five (36 pairs in blocks of 8, the last one ragged), N = 8
        # sixty-eight.  An XYZ U_t takes blocks of 2^18 // d^2 pairs of one
        # q = par(k1) ^ par(k2): N = 6 one of each q, N = 7 three, N = 8
        # thirty-four, so blocks of both q run on the pool at once.  A limit
        # of 16 is cut to what the memory budget allows.
        rng = np.random.default_rng(505)
        for n_a, n_b in [(3, 3), (3, 4), (4, 3), (4, 4)]:
            bp = Bipartition(n_a, n_b)
            for u in (haar_random_unitary(bp.d, rng), _xyz_unitary(bp.n_qubits)):
                layout = _SectorLayout.find(u)
                thread_limit(1)
                one = _pauli_g_table(u, bp, layout)
                for limit in (None, 2, 16):
                    thread_limit(limit)
                    assert np.array_equal(one, _pauli_g_table(u, bp, layout)), (n_a, n_b, limit)

    def test_memory_budget_caps_threads(self, thread_limit):
        # without the budget, sixteen threads' buffers and slots take about
        # 78 MiB at 4|4; with it, one call stays where the one-thread kernel was
        thread_limit(16)
        u = haar_random_unitary(256, np.random.default_rng(508))
        _threads._drop_kept_sets()  # a cold call makes its buffer sets
        tracemalloc.start()
        try:
            pauli_entangling_power(u, Bipartition(4, 4))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 21.5 * 2**20

    def test_memory_budget_caps_threads_with_sectors(self, thread_limit):
        # an XYZ U_t: sets of 4 MiB and slots of 0.5 MiB give four threads
        # at 4|4 within the same budget; 19.3-20.6 MiB measured
        thread_limit(16)
        u = _xyz_unitary(8)
        _threads._drop_kept_sets()
        tracemalloc.start()
        try:
            pauli_entangling_power(u, Bipartition(4, 4))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 21.5 * 2**20

    def test_concurrent_callers_get_equal_values(self, thread_limit):
        # more pool threads than cores and a short switch interval, so the
        # callers' blocks and sampled strings interleave on the shared pool
        thread_limit(4)
        bp, bp8 = Bipartition(3, 4), Bipartition(4, 4)
        u = haar_random_unitary(bp.d, np.random.default_rng(506))
        u8 = haar_random_unitary(bp8.d, np.random.default_rng(509))

        def both():
            est = pauli_entangling_power(u8, bp8, mode="sampled",
                                         rng=np.random.default_rng(7), n_samples=12)
            return pauli_entangling_power(u, bp).value, est.value

        want = both()
        start = threading.Barrier(3)
        values = [None] * 3

        def call(i):
            start.wait()
            values[i] = both()

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

    def test_sampled_independent_of_thread_count(self, thread_limit, monkeypatch):
        # the strings of one call run on the pool in draw order, so value,
        # count, standard error and the caller's next draw are those of one
        # thread; BLAS is pinned first, so every string runs on one BLAS thread
        thread_limit(2)
        pauli_entangling_power(haar_random_unitary(64, np.random.default_rng(0)),
                               Bipartition(3, 3))
        pooled = _threads._blas_pinned and _threads.available_cores() >= 2
        ordered_map = _threads.ordered_map
        used = []

        def spy(fn, items, threads):
            used.append(threads)
            return ordered_map(fn, items, threads)

        monkeypatch.setattr(_threads, "ordered_map", spy)
        for n_a, n_b in [(4, 4), (4, 5), (5, 4)]:
            bp = Bipartition(n_a, n_b)
            u = _xyz_unitary(bp.n_qubits)
            # min_samples 8 and the rule fires past it; 20 strings fixed
            for kw in (dict(sem_target=1.5e-3, min_samples=8), dict(n_samples=20)):
                seen, used[:] = [], []
                for limit in (1, 2, 16):
                    thread_limit(limit)
                    rng = np.random.default_rng(41)
                    est = _pauli_entangling_power(u, bp, _SectorLayout.find(u), "sampled",
                                                  rng=rng, **kw)
                    seen.append((est.value, est.n_samples, est.sem, int(rng.integers(1 << 62))))
                assert seen[1] == seen[0] and seen[2] == seen[0], (n_a, n_b, kw)
                assert "n_samples" in kw or seen[0][1] > 8
                assert used[:2] == [1, 2 if pooled else 1]
                # at N = 9 the budget, not the limit of 16, caps the threads:
                # it fits five buffer sets of this U_t's two parity sectors
                # (3.6 MiB each; two 8.5 MiB sets without sectors)
                assert bp.n_qubits < 9 or used[2] == (5 if pooled else 1)

    def test_ordered_map_close_waits_for_running_calls(self, thread_limit):
        thread_limit(2)
        if _threads.threads_for(2) < 2:
            pytest.skip("the pool cannot be used here")
        lock = threading.Lock()
        running = [0]

        def slow(i):
            with lock:
                running[0] += 1
            time.sleep(0.2)
            with lock:
                running[0] -= 1
            return i

        results = _threads.ordered_map(slow, range(100), 2)
        assert next(results) == 0
        results.close()
        assert running[0] == 0

    def test_buffered_map_threads_follow_the_budget(self, thread_limit, monkeypatch):
        # a set of 1000 + 24 bytes: nine fit 10 000 bytes, three when each
        # result takes 1000 and two results are held besides one per thread
        thread_limit(16)
        pooled = _threads.threads_for(2) == 2
        made = []

        def new_set():
            made.append((np.empty(125), np.empty(3, dtype=np.int64)))
            return made[-1]

        for n_tasks, result_bytes, budget, want in [
                (100, 0, 10_000, 9), (5, 0, 10_000, 5), (100, 1000, 10_000, 3),
                (100, 0, 1000, 1), (1, 0, 10_000, 1)]:
            monkeypatch.setattr(_threads, "BUFFER_BUDGET", budget)
            made[:] = []
            _threads._drop_kept_sets()  # each call makes its sets
            threads, results = _threads.buffered_map(lambda i, b: i, range(3), n_tasks,
                                                     new_set, result_bytes)
            assert list(results) == [0, 1, 2]
            assert threads == (want if pooled else 1), (n_tasks, result_bytes, budget)
            assert len(made) == threads

    def test_buffered_map_lends_each_set_to_one_call(self, thread_limit, monkeypatch):
        thread_limit(4)
        monkeypatch.setattr(_threads, "BUFFER_BUDGET", 1 << 20)
        made = []
        lock = threading.Lock()
        held, clashes = set(), []

        def new_set():
            made.append((np.empty(8),))
            return made[-1]

        _threads._drop_kept_sets()

        def fn(i, buffers):
            assert any(buffers is s for s in made)
            with lock:
                clashes.append(id(buffers) in held)
                held.add(id(buffers))
            time.sleep(0.002 * (i % 3))  # later items may finish first
            with lock:
                held.discard(id(buffers))
            return i * i

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads, results = _threads.buffered_map(fn, range(60), 60, new_set)
            assert list(results) == [i * i for i in range(60)]
        finally:
            sys.setswitchinterval(interval)
        assert len(made) == threads and not any(clashes)

    def test_buffered_map_keeps_the_last_layouts_sets(self, thread_limit):
        # the next call with the same shapes and dtypes borrows the last
        # call's sets and makes none beyond its probe; a call of another
        # layout takes none of them, and only its own sets are kept after it
        thread_limit(4)
        made = []

        def maker(size):
            def new_set():
                made.append((np.empty(size), np.empty(3, dtype=np.int64)))
                return made[-1]
            return new_set

        def lent(size):
            seen = []
            threads, results = _threads.buffered_map(
                lambda i, b: seen.append(b) or i, range(12), 12, maker(size))
            assert list(results) == list(range(12))
            return threads, seen

        _threads._drop_kept_sets()
        threads, seen = lent(8)
        first = made[:]
        assert len(first) == threads
        made[:] = []
        _, seen = lent(8)
        assert len(made) == 1  # the probe, never lent
        assert all(any(b is s for s in first) for b in seen)
        made[:] = []
        _, seen = lent(16)
        assert not any(b is s for b in seen for s in first)
        assert len(_threads._kept) == len(made) and all(
            any(k is s for s in made) for k in _threads._kept)

    def test_running_map_keeps_its_sets_from_other_calls(self, thread_limit):
        # sets taken by a map that has not ended are never lent to a second
        # call; they are kept again once the map is closed
        thread_limit(2)
        made = []

        def new_set():
            made.append((np.empty(8),))
            return made[-1]

        _threads._drop_kept_sets()
        _, results = _threads.buffered_map(lambda i, b: b, range(4), 4, new_set)
        list(results)
        _, running = _threads.buffered_map(lambda i, b: b, range(4), 4, new_set)
        held = next(running)
        assert any(held is s for s in made[:-1])  # a kept set, not the probe
        _, other = _threads.buffered_map(lambda i, b: b, range(4), 4, new_set)
        assert not any(b is held for b in other)
        running.close()
        assert any(k is held for k in _threads._kept)

    def test_warm_call_traces_less_than_a_cold_one(self, thread_limit):
        # an exact N = 8 call on an XYZ U_t right after one of the same layout
        # fills the kept sets in place of tracing new ones
        thread_limit(2)
        u, bp = _xyz_unitary(8), Bipartition(4, 4)
        peaks = []
        for cold in (True, False):
            if cold:
                _threads._drop_kept_sets()
            tracemalloc.start()
            try:
                pauli_entangling_power(u, bp)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        set_bytes = sum(a.nbytes for a in _threads._kept[0])
        assert peaks[0] - peaks[1] >= set_bytes

    @pytest.mark.skipif(not Path("/proc/self/maps").exists(), reason="needs /proc/self/maps")
    def test_openblas_pinned_by_multi_block_calls_only(self):
        # exact: one block does not pin, two do, and a U with parity sectors
        # pins where a U without them does; sampled: strings below the pool's
        # size floor do not pin, strings at it do
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, OPENBLAS_NUM_THREADS="2",
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        for kind in ("exact", "sectors", "sampled"):
            out = subprocess.run([sys.executable, "-c", _BLAS_PROBE, kind], env=env, check=True,
                                 capture_output=True, text=True, timeout=300)
            before, single, pooled, late, after = json.loads(out.stdout.splitlines()[-1])
            if not before:
                pytest.skip("no OpenBLAS library is loaded")
            assert single == before, kind
            assert pooled == [1] * len(before), kind
            assert after == [1] * len(late), kind

    @pytest.mark.skipif(not Path("/proc/self/maps").exists(), reason="needs /proc/self/maps")
    def test_maps_read_again_only_after_an_import(self, thread_limit, monkeypatch):
        thread_limit(2)
        opened = []  # paths _threads opens
        monkeypatch.setattr(_threads, "open", lambda path, *args: opened.append(path)
                            or open(path, *args), raising=False)
        u = haar_random_unitary(64, np.random.default_rng(0))
        pauli_entangling_power(u, Bipartition(3, 3))  # two blocks: pooled
        opened.clear()
        pauli_entangling_power(u, Bipartition(3, 3))
        assert opened == []
        monkeypatch.setitem(sys.modules, "paulient_probe_import", types.ModuleType("probe"))
        pauli_entangling_power(u, Bipartition(3, 3))
        assert opened == ["/proc/self/maps"]
