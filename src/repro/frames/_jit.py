"""Optional numba acceleration for the columnar frame kernels.

The data-plane kernels (:mod:`repro.frames.stack`) are written twice: a
vectorised numpy path that every environment runs, and tight per-element
loops that numba can compile to machine code when it happens to be
installed.  numba is **never** a dependency of this package — the decorator
below degrades to a no-op, the loop kernels simply stay unused, and the
numpy path serves production (the data-plane benchmark's gates are
asserted numpy-only).

This mirrors the ``jit_ifnumba`` idiom of rosettasciio's stream-to-sparse
readers: decorate unconditionally, dispatch on :data:`HAS_NUMBA` at the call
site.
"""

from __future__ import annotations

__all__ = ["HAS_NUMBA", "jit_ifnumba"]

try:  # pragma: no cover - exercised only where numba is installed
    import numba

    HAS_NUMBA = True
except ImportError:
    numba = None
    HAS_NUMBA = False


def jit_ifnumba(*args, **kwargs):
    """``numba.njit`` when numba is importable, identity otherwise.

    Usable both bare (``@jit_ifnumba``) and with keyword options
    (``@jit_ifnumba(cache=True)``).  Without numba the decorated function is
    returned unchanged, so callers gating on :data:`HAS_NUMBA` never pay an
    interpreted per-element loop by accident.
    """
    if args and callable(args[0]) and not kwargs:
        func = args[0]
        if HAS_NUMBA:  # pragma: no cover - numba-only branch
            return numba.njit(cache=True)(func)
        return func

    def decorator(func):
        if HAS_NUMBA:  # pragma: no cover - numba-only branch
            return numba.njit(*args, **kwargs)(func)
        return func

    return decorator
