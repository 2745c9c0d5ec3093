"""The thread pool that P_E runs on: the pair blocks of exact P_E's g-table,
and the drawn strings of a sampled P_E call from N = 8 on.

There is one ThreadPoolExecutor per process, created on the first call that
has tasks for more than one thread, with one thread per core this process
may run on.  Pooled work comes in through buffered_map: each task of a call
borrows a buffer set of its own, and the sets of one call and its unsummed
results share one memory budget, BUFFER_BUDGET, which caps the threads by
the sizes (read off the buffers themselves) as well as by the cores.  The
sets of the most recent call are kept and lent to the next call whose sets
have the same shapes and dtypes (a spin-chain sweep asks for the same ones at
every step), so that call writes into memory already mapped in place of
faulting in fresh pages.  A call takes the kept sets out under the module
lock and puts its own back when its map ends or is closed: a set is never
lent to two running calls, and between calls the process holds at most one
layout's sets, within BUFFER_BUDGET.  Nothing is kept by input value; a
kept set is only scratch, which every task overwrites before reading.  The
blocks' GEMMs are small (inner dimension 16 at N = 8) and run no faster on
two BLAS threads than on one, and a sampled string gains more from a second
string in parallel than from a second BLAS thread, while OpenBLAS threads
left spinning after a GEMM take the cores the pool needs.  So every call
that uses the pool first sets each OpenBLAS library loaded since the last
such call to one thread, for the rest of the process (a library is mapped
by an import, so the maps are read again only once sys.modules has changed;
scipy's OpenBLAS build, for one, is mapped only when a magic search or a
thermodynamic MPU call first imports scipy).
Where that cannot be done (another BLAS, or no /proc/self/maps to find the
libraries), every call runs on its caller's thread.

A process forked after the pool exists gets a fresh one on first use; the
inherited executor's threads do not exist in the child, and the child drops
the kept sets, which a thread of the parent may have been lending.
"""

from __future__ import annotations

import ctypes
import os
import queue
import sys
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Callable, Iterable, Iterator, TypeVar

T = TypeVar("T")
R = TypeVar("R")

# thread-count setters exported by the OpenBLAS builds numpy and scipy ship
_OPENBLAS_SETTERS = (
    "openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "scipy_openblas_set_num_threads64_",
)

# bytes that the buffer sets and unsummed results of one buffered_map call
# may take together; a call uses fewer threads where more would not fit
BUFFER_BUDGET = 20 << 20

_lock = threading.Lock()
_pool: ThreadPoolExecutor | None = None
_blas_seen: set[str] = set()  # OpenBLAS paths already set (or tried)
_blas_pinned = False  # whether any of them took the setting
_modules_at_read = -1  # len(sys.modules) when /proc/self/maps was last read
_limit: int | None = None  # set by set_thread_limit; None means every core
_kept: list[tuple] = []  # the buffer sets of the most recent buffered_map call
_kept_key: tuple = ()  # the (shape, dtype) of each array of a kept set


def available_cores() -> int:
    """Cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without affinity masks
        return os.cpu_count() or 1


def set_thread_limit(limit: int | None) -> None:
    """Cap the P_E threads of this process (None: every core).  A sweep
    gives each of its worker processes a share of the cores this way."""
    global _limit
    _limit = limit


def _pin_openblas() -> bool:
    """Set each loaded OpenBLAS library not seen before to one thread; True
    if any library so far took the setting."""
    global _blas_pinned, _modules_at_read
    if len(sys.modules) == _modules_at_read:
        return _blas_pinned
    _modules_at_read = len(sys.modules)
    try:
        with open("/proc/self/maps", "rb") as fh:
            maps = fh.read().decode(errors="replace")
    except OSError:
        return _blas_pinned
    paths = {line.split()[-1] for line in maps.splitlines()
             if "openblas" in line.rsplit("/", 1)[-1].lower()}
    for path in sorted(paths - _blas_seen):
        _blas_seen.add(path)
        try:
            lib = ctypes.CDLL(path)  # already mapped, so nothing new is loaded
        except OSError:
            continue
        setter = next((getattr(lib, name) for name in _OPENBLAS_SETTERS
                       if hasattr(lib, name)), None)
        if setter is not None:
            setter.argtypes = [ctypes.c_int]
            setter.restype = None
            setter(1)
            _blas_pinned = True
    return _blas_pinned


def threads_for(n_tasks: int) -> int:
    """Threads a call with n_tasks independent tasks should use: one per
    task, up to the cores or the limit.  Every answer above 1 first sets the
    OpenBLAS libraries loaded since the last one to one thread; the first
    also creates the pool."""
    global _pool
    cores = available_cores() if _limit is None else _limit
    if min(n_tasks, cores) < 2:
        return 1
    with _lock:
        if not _pin_openblas():
            return 1
        if _pool is None:
            _pool = ThreadPoolExecutor(max_workers=available_cores(),
                                       thread_name_prefix="paulient")
    return min(n_tasks, cores)


def ordered_map(fn: Callable[[T], R], items: Iterable[T], threads: int) -> Iterator[R]:
    """fn over items, results in item order.  With threads > 1 (an answer of
    threads_for) the calls run on the pool, at most threads + 1 submitted and
    not yet taken, so at most threads + 2 results are held at once, the
    caller's included; otherwise they run lazily on the caller's thread.
    Items are drawn on the caller's thread, at most threads + 1 ahead of the
    result last taken.  Closing the iterator early (or an exception in fn)
    cancels the calls not yet started and waits for the running ones, so no
    call of fn is left running once it returns."""
    if threads < 2:
        yield from map(fn, items)
        return
    pending: deque = deque()
    try:
        for item in items:
            if len(pending) == threads + 1:
                yield pending.popleft().result()
            pending.append(_pool.submit(fn, item))
        while pending:
            yield pending.popleft().result()
    finally:
        for future in pending:
            future.cancel()
        wait(pending)


def _take_kept(key: tuple) -> list[tuple]:
    """The kept sets if they have the given key, else none; either way the
    keep-list is emptied, so no other call can take them, and sets of another
    layout are freed before the calling map makes its own."""
    global _kept, _kept_key
    with _lock:
        sets, same = _kept, _kept_key == key
        _kept, _kept_key = [], ()
    return sets if same else []


def _keep(key: tuple, sets: list[tuple]) -> None:
    """Keep a finished call's sets for the next call, in place of any kept."""
    global _kept, _kept_key
    with _lock:
        _kept, _kept_key = sets, key


def _drop_kept_sets() -> None:
    """Empty the keep-list, so the next buffered_map call makes its sets."""
    _take_kept(())  # no buffer set has the empty key


def buffered_map(fn: Callable[[T, tuple], R], items: Iterable[T], n_tasks: int,
                 new_set: Callable[[], tuple], result_bytes: int = 0) -> tuple[int, Iterator[R]]:
    """(threads, ordered_map of fn(item, buffers) over items).  new_set()
    returns one buffer set, a tuple of arrays, whose nbytes sizes every set;
    one set per thread and the threads + 2 results of result_bytes that
    ordered_map may hold fit BUFFER_BUDGET.  The call lends `threads` sets:
    the kept ones where the last call's sets had the same shapes and dtypes,
    new ones from new_set() for the rest; each call of fn borrows one that no
    running call holds, and fn must write a buffer before it reads it."""
    first = new_set()  # np.empty: no page is touched where a kept set serves
    key = tuple((a.shape, a.dtype.str) for a in first)
    set_bytes = sum(a.nbytes for a in first)
    threads = threads_for(min(n_tasks, (BUFFER_BUDGET - 2 * result_bytes)
                              // (set_bytes + result_bytes)))
    sets = (_take_kept(key) + [first])[:threads]
    sets += [new_set() for _ in range(threads - len(sets))]
    del first
    free: queue.SimpleQueue = queue.SimpleQueue()
    for buffers in sets:
        free.put(buffers)

    def borrowing(item: T) -> R:
        buffers = free.get()
        try:
            return fn(item, buffers)
        finally:
            free.put(buffers)

    def lending() -> Iterator[R]:
        try:
            yield from ordered_map(borrowing, items, threads)
        finally:  # ordered_map has waited for every running call of fn
            _keep(key, sets)

    return threads, lending()


def _forget_pool_in_child() -> None:
    global _lock, _pool
    _lock = threading.Lock()
    _pool = None
    _drop_kept_sets()


os.register_at_fork(after_in_child=_forget_pool_in_child)
