"""Kernel backend selection.

The hot kernels (canonical labeling, matching search, claw detection, the
tight-cut subset scan) exist twice: a Cython extension (ckernel) and a pure
Python twin (pykernel) with the same results.  Callers use the functions
defined here, which choose the backend per call.  The compiled backend is used
when importable; set MATCHCOV_KERNEL=py or =c to force one.
"""

import os

from . import pykernel as _py

_choice = os.environ.get("MATCHCOV_KERNEL", "").strip().lower()

if _choice == "py":
    _impl = _py
elif _choice == "c":
    from . import ckernel as _impl  # raises if the extension was not built
elif _choice == "":
    try:
        from . import ckernel as _impl
    except ImportError:
        _impl = _py
else:
    raise ImportError(f"MATCHCOV_KERNEL must be 'c' or 'py', got {_choice!r}")

BACKEND = _impl.BACKEND_NAME

# The compiled kernel packs vertex sets into machine words and matchings into
# two 64-bit words; fall back to the Python twin beyond those widths.
_C_MAX_CANON_N = 16
_C_MAX_MATCH_N = 32
_C_MAX_EDGES = 128


def canon_auto(n, adj):
    if _impl is not _py and n > _C_MAX_CANON_N:
        return _py.canon_auto(n, adj)
    return _impl.canon_auto(n, adj)


def enumerate_pms(n, eu, ev, cap=0):
    if _impl is not _py and (n > _C_MAX_MATCH_N or len(eu) > _C_MAX_EDGES):
        return _py.enumerate_pms(n, eu, ev, cap)
    return _impl.enumerate_pms(n, eu, ev, cap)


def count_pms(n, eu, ev, cap=0):
    if _impl is not _py and (n > _C_MAX_MATCH_N or len(eu) > _C_MAX_EDGES):
        return _py.count_pms(n, eu, ev, cap)
    return _impl.count_pms(n, eu, ev, cap)


def is_claw_free(n, adj):
    if _impl is not _py and n > 64:
        return _py.is_claw_free(n, adj)
    return _impl.is_claw_free(n, adj)


def first_tight_cut(eu, ev, pms, subsets):
    if _impl is not _py and len(eu) > _C_MAX_EDGES:
        return _py.first_tight_cut(eu, ev, pms, subsets)
    return _impl.first_tight_cut(eu, ev, pms, subsets)
