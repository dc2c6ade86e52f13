"""Optional numba acceleration for the numeric kernels.

Kernels in :mod:`quantgym.kernels` are written once, in njit-compatible
numpy, and compiled when numba is importable. Set ``QUANTGYM_NUMBA=0``
(or ``false``/``off``/``no``) to force the pure-numpy path; the flag is
read once at import time. ``tests/test_kernels.py`` checks that the two
paths agree when numba is installed.
"""
from __future__ import annotations

import os


def _flag_enabled() -> bool:
    raw = os.environ.get("QUANTGYM_NUMBA", "1").strip().lower()
    return raw not in ("0", "false", "off", "no")


NUMBA_ENABLED = False
if _flag_enabled():
    try:
        from numba import njit as _njit

        NUMBA_ENABLED = True
    except ImportError:  # pragma: no cover - exercised via env flag instead
        NUMBA_ENABLED = False


def maybe_njit(func=None, **options):
    """Return ``numba.njit`` when enabled, otherwise the function unchanged.

    Usable bare (``@maybe_njit``) or with options
    (``@maybe_njit(cache=True)``).
    """
    if func is not None:
        return _njit(func) if NUMBA_ENABLED else func

    def wrap(f):
        return _njit(**options)(f) if NUMBA_ENABLED else f

    return wrap


def python_impl(func):
    """The uncompiled callable behind a kernel (for tests)."""
    return getattr(func, "py_func", func)
