"""A second lane for one solve, and the BLAS thread pin it needs.

A :class:`Lane` runs a task beside the calling thread: on one worker thread
when it has one, else inline, before the caller's own part.  Its tasks are
elementwise numpy passes on halves of the arrays, and whole norms and inner
products; no task calls a public tslto function.  A public function that
takes a ``lane`` runs on the calling thread, as often as without one, and
hands half of its own passes over.  So each value comes from the same
arithmetic either way, and a tracer that wraps the public functions sees
the same calls on one thread.

:func:`solve_lane` gives a solve its lane.  At or above ``LANE_MIN_ENTRIES``
entries it holds OpenBLAS to one thread (:func:`blas_threads`): with its
default two threads, OpenBLAS's worker spins on the second core between
calls, and a second lane gains nothing.  It starts the worker thread only
where there is a core for it (:func:`usable_cpus`), outside
``multiprocessing`` children (a ``tslto grid --jobs`` worker already has a
process per core) and when the pin is in force.
"""

import concurrent.futures
import ctypes
import os
import sys
import threading
from contextlib import contextmanager
from functools import cache, partial

import numpy as np

# Break-even tensor size for the lane: below it a solve runs inline, with
# BLAS untouched.  Measured on 2 cores (Xeon, numpy 2.4.6, OpenBLAS 0.3.31),
# 8-iteration solves at 10 % anomalies and 30 % missing, lane against the
# unpinned inline path, 5 interleaved rounds of 4 instances: the lane lost
# every round at 50^3 to 60^3 and 4 of 5 at 70^3, was even at 72^3 to 75^3,
# and won every round from 78^3 on (8 % at 80^3, 22 % at 100^3).  Tensors
# that fit in cache gain less from a second core than the pin and the
# hand-offs cost.
LANE_MIN_ENTRIES = 400_000


def usable_cpus():
    """CPUs this process may run on: its affinity set where the platform
    has one (a container or `taskset` narrows it), else all of the host's."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


@cache
def _openblas():
    """(getter, setter) of the thread count of the OpenBLAS that numpy
    bundles, or None when none is found."""
    here = os.path.dirname(np.__file__)
    for folder in (os.path.join(here, os.pardir, "numpy.libs"),
                   os.path.join(here, ".dylibs")):
        names = os.listdir(folder) if os.path.isdir(folder) else []
        for name in sorted(n for n in names if "openblas" in n):
            try:
                lib = ctypes.CDLL(os.path.join(folder, name))
            except OSError:
                continue
            for prefix in ("scipy_openblas", "openblas"):
                for suffix in ("64_", ""):
                    get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                    put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
                    if get is not None and put is not None:
                        get.restype, get.argtypes = ctypes.c_int, []
                        put.restype, put.argtypes = None, [ctypes.c_int]
                        return get, put
    return None


def _in_multiprocessing_child():
    # a child started by multiprocessing has imported it; a process that
    # has not is no child of it, and does not pay for the import (0.6 MB)
    mp = sys.modules.get("multiprocessing")
    return mp is not None and mp.parent_process() is not None


# The count is process-wide, so pins that overlap, from one thread or
# several, share one: the first entry saves the count and sets it, and the
# last exit restores it.
_pin_lock = threading.Lock()
_pin_depth = 0
_pin_saved = None


@contextmanager
def blas_threads(n):
    """Hold OpenBLAS to n threads inside the block, and restore its count on
    exit, also on error.  Yields whether the pin is in force (False when no
    OpenBLAS is found).  Pins may overlap: while one holds, another leaves
    the count as it found it, and the count is restored when the last one
    exits."""
    global _pin_depth, _pin_saved
    found = _openblas()
    if found is None:
        yield False
        return
    get, put = found
    with _pin_lock:
        if _pin_depth == 0:
            _pin_saved = get()
            put(n)
        _pin_depth += 1
    try:
        yield True
    finally:
        with _pin_lock:
            _pin_depth -= 1
            if _pin_depth == 0:
                put(_pin_saved)


class Lane:
    """Runs tasks beside the calling thread: on `pool`, a one-worker
    executor, or inline when there is none."""

    def __init__(self, pool=None):
        self._pool = pool

    def both(self, side, main):
        """Run side() on the lane and main() here; returns both values.

        Returns only once both are done, also when one raises: the caller's
        next step reads what the side task wrote.
        """
        if self._pool is None:
            return side(), main()
        future = self._pool.submit(side)
        try:
            out = main()
        except BaseException:
            future.exception()  # waits for the side task
            raise
        return future.result(), out

    def halves(self, task, n):
        """task(part) for the halves of range(n), as slices: the first on
        the lane, the second here.  Inline, task(slice(0, n)) once."""
        if self._pool is None:
            task(slice(0, n))
            return
        cut = n // 2
        self.both(partial(task, slice(0, cut)), partial(task, slice(cut, n)))

    def split(self, task, *arrays, **params):
        """task(*arrays, **params) for an elementwise task, in two halves.

        The arrays are of one size; the task gets the same flat half of
        each.  Inline, or when an array is not column-major, it gets the
        arrays whole, here.
        """
        if self._pool is None or not all(a.flags.f_contiguous for a in arrays):
            task(*arrays, **params)
            return
        flat = [a.ravel(order="F") for a in arrays]  # views
        self.halves(lambda part: task(*(a[part] for a in flat), **params),
                    flat[0].size)


INLINE = Lane()


@contextmanager
def solve_lane(entries):
    """The lane of a solve on a tensor of `entries` entries, for the block.

    Below ``LANE_MIN_ENTRIES`` it is :data:`INLINE` and BLAS is untouched.
    Above, BLAS is held to one thread for the block, and the lane has a
    worker thread when the process may use two CPUs, is not a
    ``multiprocessing`` child, and the pin is in force.
    """
    if entries < LANE_MIN_ENTRIES:
        yield INLINE
        return
    with blas_threads(1) as pinned:
        if not pinned or usable_cpus() < 2 or _in_multiprocessing_child():
            yield INLINE
            return
        with concurrent.futures.ThreadPoolExecutor(
                1, thread_name_prefix="tslto-lane") as pool:
            yield Lane(pool)
