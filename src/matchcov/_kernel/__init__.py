"""Kernel backend selection.

The hot kernels (canonical labeling, matching search) exist twice: a
hand-written C extension (ckernel.c) and a pure Python twin (pykernel) with
the same results.  Callers use the functions defined here, which choose the
backend per call.  The compiled backend is used when importable; set
MATCHCOV_KERNEL=py or =c to force one.  is_claw_free exists only in Python:
the census asks it once per brick, 2,102 times to n=8, at 5-9 us per call
against about 0.4 us in C (one 2-vCPU virtual machine), so a C twin would
save 10-20 ms of that census.  first_tight_cut (the odd-subset tight-cut
scan) exists only in Python and has no caller, and count_pms is
len(enumerate_pms(...)) with no caller; both stay only because the
benchmark's layer tracer names them.

root_pretest is the root refinement (pykernel.root_colors: the degree
coloring refined to an equitable partition, where canon_auto's search
starts) stopped as soon as it decides where vertex n-1 lies, which lets
generation reject a child before labeling it, and accept a top-level child
unlabeled when its new vertex is alone in the last root cell (see
generate.py); only a child whose new vertex shares that cell is refined to
the end.  It has no compiled twin.  A Python pretest costs about two to
three C labelings (the root refinement and generation labeling lines of
benchmarks/bench_kernels.py, on the children of the census's generation to
n=8, one 2-vCPU virtual machine: about 10 us per pretest against 4-5 us per
C canon_auto), so under the compiled kernel it returns None and
generation labels every child that the max-degree pretest passes.  A C twin
would save both: the labelings of rejected children, and those of the
top-level children the census never keys.
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
# two 64-bit words, and raises ValueError beyond those widths; send such
# inputs to the Python twin instead.
_C_MAX_CANON_N = 16
_C_MAX_MATCH_N = 32
_C_MAX_EDGES = 128


def root_pretest(n, adj, top_level):
    """pykernel.root_pretest under the Python kernel, else None (no
    information)."""
    return _py.root_pretest(n, adj, top_level) if _impl is _py else None


def canon_auto(n, adj, colors=None):
    """colors: pykernel.root_colors(n, adj), as root_pretest hands them on,
    or None.  The compiled kernel computes its own, and so does its Python
    fallback, since root_pretest gave it none."""
    if _impl is _py:
        return _py.canon_auto(n, adj, colors)
    if n > _C_MAX_CANON_N:
        return _py.canon_auto(n, adj)
    return _impl.canon_auto(n, adj)


def enumerate_pms(n, eu, ev):
    if _impl is not _py and (n > _C_MAX_MATCH_N or len(eu) > _C_MAX_EDGES):
        return _py.enumerate_pms(n, eu, ev)
    return _impl.enumerate_pms(n, eu, ev)


def count_pms(n, eu, ev):
    return len(enumerate_pms(n, eu, ev))


def is_claw_free(n, adj):
    return _py.is_claw_free(n, adj)


def first_tight_cut(eu, ev, pms, subsets):
    return _py.first_tight_cut(eu, ev, pms, subsets)
