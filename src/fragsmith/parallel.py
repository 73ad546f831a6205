"""Order-preserving fan-out of per-item work over the usable CPUs.

``ordered_map(fn, items)`` returns what ``fn(items)`` returns: ``fn``
maps a list of items to a list of results of the same length. With two
or more usable CPUs and enough items, contiguous chunks of ``items`` run
in forked worker processes and their results are concatenated in input
order, so the caller gets the same list either way. ``fn`` travels to
the workers by pickle: it must be a module-level function or a
``functools.partial`` of one, and its results and exceptions must
pickle. An exception raised for the earliest failing item reaches the
caller with its type and message.

The worker count is the number of CPUs this process may run on, capped
so that each worker gets at least ``MIN_CHUNK`` items. Restricting the
process to one CPU (``taskset -c 0 fragsmith ...``) runs everything in
process, and so does a caller that runs other threads or is itself a
daemonic process.
"""

from __future__ import annotations

import os

# Fewest items per worker. Measured on a 2-CPU VM (Python 3.11): starting
# and joining two forked workers costs 10-19 ms; on one CPU, a corpus line
# in `preprocess` takes ~0.5 ms, a library row in `build` ~1.0 ms and an
# `eval` pair ~2.1 ms. Below 2 * MIN_CHUNK items the pool would save little
# or nothing, and one-item inputs never pay for it.
MIN_CHUNK = 32
# A few chunks per worker, so one that drew cheap items takes another
# chunk instead of idling while the others finish.
CHUNKS_PER_WORKER = 4


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def ordered_map(fn, items: list) -> list:
    """``fn(items)``, computed over contiguous chunks of ``items`` in
    worker processes when that pays; see the module docstring.

    A worker that dies raises ``BrokenProcessPool``. Every worker has
    exited when this returns or raises.
    """
    workers = min(usable_cpus(), len(items) // MIN_CHUNK)
    if workers < 2:
        return fn(items)
    # Imported here: the serial path above must not pay ~25 ms for them.
    import multiprocessing
    import threading

    # Forking a process that runs other threads can copy a lock another
    # thread holds, and a daemonic process may not start children: such
    # callers keep the work in process.
    if (
        "fork" not in multiprocessing.get_all_start_methods()
        or threading.active_count() > 1
        or multiprocessing.current_process().daemon
    ):
        return fn(items)
    from concurrent.futures import ProcessPoolExecutor

    n = workers * CHUNKS_PER_WORKER
    bounds = [len(items) * i // n for i in range(n + 1)]
    chunks = [items[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
        # map yields in submission order and cancels the chunks not yet
        # started when one raises.
        return [result for part in pool.map(fn, chunks) for result in part]
