"""Keep numpy's OpenBLAS on the calling thread for small dense kernels.

Every matrix this package factors or multiplies has at most a few hundred
rows.  OpenBLAS still splits such LU factorizations, matrix products and
larger matrix-vector products over every core.  At these sizes that saves
little or nothing, and its workers then spin on the other cores for a while
after each call.  The closed loop solves one horizon QP per step, so on a
2-CPU host the controller kept both cores busy and its step time depended
on what else the host ran.

:func:`serial` limits OpenBLAS to one thread for the duration of a call and
restores the previous count on return.  Where numpy does not bundle OpenBLAS
(another BLAS, or a system library) it does nothing.  The count is process
wide, so concurrent callers may see each other's setting; that costs speed,
never correctness.
"""

from __future__ import annotations

import ctypes
import functools
from pathlib import Path

import numpy as np


@functools.cache
def _openblas_threads():
    """``(get, set)`` for the thread count of the OpenBLAS bundled with numpy,
    or None when numpy bundles none."""
    root = Path(np.__file__).parent
    for lib_path in sorted([*root.parent.glob("numpy.libs/*openblas*"),
                            *root.glob(".dylibs/*openblas*")]):
        try:
            lib = ctypes.CDLL(str(lib_path))
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""),
                               ("openblas", "64_"), ("openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                return get, set_
    return None


def serial(fn):
    """Decorate ``fn`` to run its BLAS and LAPACK calls on the calling thread."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        threads = _openblas_threads()
        if threads is None:
            return fn(*args, **kwargs)
        get, set_ = threads
        previous = get()
        set_(1)
        try:
            return fn(*args, **kwargs)
        finally:
            set_(previous)

    return wrapper
