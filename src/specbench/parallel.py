"""An ordered map over worker processes, shared by the run matrix and the
stationarity screen.

``SPECBENCH_WORKERS=N`` sets the worker count; unset or blank, it is the
number of CPUs this process may use. A value that is not a positive
integer raises ConfigError. Workers are forked where the platform can
fork, and each sets its OpenBLAS to one thread as it starts;
:func:`blas_threads` does the same for a block of this process's work.
"""
from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from typing import Callable, Iterable, Iterator, Mapping

from .errors import ConfigError

__all__ = ["blas_threads", "ordered_map", "set_blas_threads", "worker_count"]

# A forked worker starts with numpy and this package already imported; a
# forkserver or spawned one imports them again.
_CONTEXT = (multiprocessing.get_context("fork")
            if "fork" in multiprocessing.get_all_start_methods() else None)

# thread setters and getters of the OpenBLAS builds numpy (64-bit ints)
# and scipy load
_OPENBLAS_THREADS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
)


def worker_count() -> int:
    """``SPECBENCH_WORKERS`` if set, else the CPUs this process may use."""
    text = os.environ.get("SPECBENCH_WORKERS", "").strip()
    if not text:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    if not text.isdecimal() or int(text) < 1:
        raise ConfigError(f"SPECBENCH_WORKERS must be a positive integer, got {text!r}")
    return int(text)


def set_blas_threads(threads: int | Mapping[str, int]) -> dict[str, int]:
    """Set every OpenBLAS loaded in this process to ``threads`` threads, or
    each to ``threads[path]`` where it maps library paths to counts (paths
    it lacks are left alone); return each one's previous count by path.

    Where none is found it does nothing and returns ``{}``. A pool worker
    sets one thread as it starts: the worker is forked after OpenBLAS
    started its threads, so ``OPENBLAS_NUM_THREADS`` would come too late,
    and workers sharing the CPUs with BLAS threads of their own
    oversubscribe them.
    """
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return {}
    previous = {}
    for lib in libs:
        count = threads if isinstance(threads, int) else threads.get(lib)
        handle = ctypes.CDLL(lib)
        for setter_name, getter_name in _OPENBLAS_THREADS:
            setter = getattr(handle, setter_name, None)
            getter = getattr(handle, getter_name, None)
            if setter is not None and getter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_int
                setter.argtypes, setter.restype = [ctypes.c_int], None
                previous[lib] = getter()
                if count is not None:
                    setter(count)
                break
    return previous


@contextmanager
def blas_threads(threads: int) -> Iterator[None]:
    """Run the block with every loaded OpenBLAS on ``threads`` threads, and
    give each its own count back afterwards, however the block ends."""
    previous = set_blas_threads(threads)
    try:
        yield
    finally:
        set_blas_threads(previous)


def ordered_map(
    fn: Callable, items: Iterable, count: int | None = None, chunksize: int = 1
) -> Iterator:
    """``map(fn, items)`` over ``min(worker_count(), count)`` worker
    processes, results in input order; ``count`` defaults to ``len(items)``.

    With one worker or at most one item it maps in this process, taking
    each item when the loop asks for its result and leaving this process's
    BLAS threads as they are. A pool takes every item before the first
    result is back; ``fn`` and the items must pickle, and ``chunksize``
    items go to a worker at a time. The worker count is read, and a bad
    ``SPECBENCH_WORKERS`` raised, when this is called.

    The result is a generator. A caller that stops early closes it: the
    pool then drops the chunks no worker has started, waits for those
    that have, and stops its workers.
    """
    workers = min(worker_count(), len(items) if count is None else count)
    if workers <= 1:
        return (fn(item) for item in items)
    return _pooled(fn, items, workers, chunksize)


def _pooled(fn: Callable, items: Iterable, workers: int, chunksize: int) -> Iterator:
    with ProcessPoolExecutor(max_workers=workers, mp_context=_CONTEXT,
                             initializer=set_blas_threads, initargs=(1,)) as pool:
        try:
            yield from pool.map(fn, items, chunksize=chunksize)
        finally:
            pool.shutdown(cancel_futures=True)
