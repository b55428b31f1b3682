"""An ordered map over worker processes, shared by the run matrix and the
stationarity screen.

``SPECBENCH_WORKERS=N`` sets the worker count; unset or blank, it is the
number of CPUs this process may use. A value that is not a positive
integer raises ConfigError. Workers are forked where the platform can
fork, and each pins its OpenBLAS to one thread as it starts.
"""
from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Iterable, Iterator

from .errors import ConfigError

__all__ = ["ordered_map", "worker_count"]

# A forked worker starts with numpy and this package already imported; a
# forkserver or spawned one imports them again.
_CONTEXT = (multiprocessing.get_context("fork")
            if "fork" in multiprocessing.get_all_start_methods() else None)

# thread setters of the OpenBLAS builds numpy (64-bit ints) and scipy load
_OPENBLAS_SETTERS = ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads")


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


def pin_blas_threads() -> None:
    """Set every OpenBLAS loaded in this process to one thread; a no-op
    where none is found. A pool worker calls it as it starts: the worker
    is forked after OpenBLAS started its threads, so ``OPENBLAS_NUM_THREADS``
    would come too late, and workers sharing the CPUs with BLAS threads of
    their own oversubscribe them."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in _OPENBLAS_SETTERS:
            setter = getattr(handle, symbol, None)
            if setter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                setter(1)
                break


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
                             initializer=pin_blas_threads) as pool:
        try:
            yield from pool.map(fn, items, chunksize=chunksize)
        finally:
            pool.shutdown(cancel_futures=True)
