"""Pin numpy's OpenBLAS to one thread, through stdlib ``ctypes``.

The inference lanes in :mod:`repro.fl.training` shard their batches over
Python threads, one per core.  OpenBLAS's own worker threads would then
oversubscribe the cores (measured 0.87–0.95× of serial on a 2-core x86
host), so a lane pins BLAS to one thread for its whole duration.

The library pinned is the OpenBLAS numpy links — in a wheel install the
copy bundled in ``numpy.libs`` — found among the shared objects mapped into
this process (``/proc/self/maps``).  Other copies may be mapped too (scipy
bundles its own), and pinning those does nothing for numpy's matmuls.  The
control is OpenBLAS's ``openblas_set_num_threads_local``, which returns the
previous count.  In the OpenBLAS numpy ships that count is process-wide
(the "local" refers to the save/restore idiom), so :func:`single_threaded`
reference-counts its pin: overlapping lanes on several threads restore the
original count exactly once, when the last one leaves.

Without Linux's ``/proc``, without OpenBLAS, or with an OpenBLAS too old to
export the control, :func:`numpy_blas_path` is None and every function here
is a no-op; the lanes then run their batches on the calling thread.
"""

from __future__ import annotations

import ctypes
import functools
import os
import threading
from contextlib import contextmanager
from typing import Callable, Iterator, List, Optional, Tuple

import numpy as np

__all__ = ["numpy_blas_path", "single_threaded", "blas_threads"]

_SYMBOL = "openblas_set_num_threads_local"

_PIN_LOCK = threading.Lock()
_PIN = {"depth": 0, "saved": 0}


def _mapped_openblas() -> List[str]:
    """Paths of every mapped shared object named like OpenBLAS, in map order."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    except OSError:
        return []
    paths: List[str] = []
    for line in lines:
        fields = line.split(None, 5)
        if len(fields) < 6:
            continue
        path = fields[5].strip()
        if "openblas" in os.path.basename(path).lower() and path not in paths:
            paths.append(path)
    return paths


def _numpy_openblas(paths: List[str]) -> Optional[str]:
    """The OpenBLAS numpy links: its bundled copy, else an unbundled one."""
    numpy_dir = os.path.dirname(np.__file__)
    bundled = (numpy_dir + ".libs" + os.sep, os.path.join(numpy_dir, ".libs") + os.sep)
    for path in paths:
        if path.startswith(bundled):
            return path
    # No wheel copy: numpy was built against a system OpenBLAS.  Copies
    # bundled by other wheels (``scipy.libs``) are never numpy's.
    for path in paths:
        if ".libs" + os.sep not in path:
            return path
    return None


@functools.lru_cache(maxsize=None)
def _control() -> Tuple[Optional[str], Optional[Callable[[int], int]]]:
    path = _numpy_openblas(_mapped_openblas())
    if path is None:
        return None, None
    try:
        setter = getattr(ctypes.CDLL(path), _SYMBOL)
    except (OSError, AttributeError):
        return None, None
    setter.argtypes = [ctypes.c_int]
    setter.restype = ctypes.c_int
    return path, setter


def numpy_blas_path() -> Optional[str]:
    """Path of the OpenBLAS numpy links, or None without thread control."""
    return _control()[0]


@contextmanager
def single_threaded() -> Iterator[None]:
    """Run the block with numpy's BLAS on one thread, then restore the count.

    Reentrant and safe to overlap across threads: the first entrant saves
    the previous count and the last one out restores it.
    """
    setter = _control()[1]
    if setter is None:
        yield
        return
    with _PIN_LOCK:
        if _PIN["depth"] == 0:
            _PIN["saved"] = setter(1)
        _PIN["depth"] += 1
    try:
        yield
    finally:
        with _PIN_LOCK:
            _PIN["depth"] -= 1
            if _PIN["depth"] == 0:
                setter(_PIN["saved"])


def blas_threads() -> Optional[int]:
    """numpy's current BLAS thread count, or None without thread control."""
    setter = _control()[1]
    if setter is None:
        return None
    with _PIN_LOCK:
        count = setter(1)
        setter(count)
    return count
