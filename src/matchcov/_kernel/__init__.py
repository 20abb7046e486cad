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

canonical_child is canonical deletion, the one decision generation asks of
the kernel per child.  Only under the Python kernel does it start with the
root pretest (pykernel.root_pretest), which has no compiled twin, since a
Python pretest costs more than a C labeling: over the 4,730 children of
the census's generation to n=8, the canonical child line of
benchmarks/bench_kernels.py reads 165-181 ms under the Python kernel,
87-101 ms of it in the 1,470 labelings (the generation labeling line), and
20-22 ms under the compiled kernel, which labels all of them.  The census
keys line, the 1,502 top-level bricks generation leaves unlabeled, reads
83-92 ms under the Python kernel and 4-5 ms under the compiled one (eight
runs on one 2-vCPU virtual machine, at the benchmark's reference speed).  A
C twin of the pretest would save the labelings of rejected children and of
the top-level children the census never keys.
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


def canonical_child(n, adj, top_level):
    """Canonical deletion of the child with neighbor bitmasks adj, whose
    vertex n-1 was just added (McKay, "Isomorph-free exhaustive
    generation", J. Algorithms 1998): None when it rejects vertex n-1, else
    (gens, perm), the automorphism generators and canonical perm of the
    labeling that kept it, or (None, None) for a top-level child kept
    unlabeled.  It labels through this module's canon_auto.

    Canonical deletion deletes the vertex at the last canonical position,
    and the child is kept only when vertex n-1 lies in that vertex's orbit.
    The labeling's search starts from the root cells (pykernel.root_cells:
    the degree cells refined to an equitable partition), and refinement and
    individualization only split cells without reordering them, so the last
    canonical vertex and its orbit lie in the last root cell, among the
    vertices of maximum degree (McKay's rule, as in nauty's geng: test a
    cheap invariant the canonical labeling respects before running it).  So a child whose vertex n-1 lies elsewhere
    can be rejected unlabeled.  On the top level, a child whose vertex n-1
    is alone in the last root cell can be kept unlabeled: the last canonical
    position lies in that cell, so it holds n-1.  Both are exact.  The top
    level is no parent, so it needs no generators, and the census labels
    only the children it keys (Graph.canonical_perm).

    Under the Python kernel, pykernel.root_pretest stops the root
    refinement as soon as one of the two holds, and otherwise hands the
    root cells on to canon_auto, which does not refine them again.  Under
    the compiled kernel every child is labeled.
    """
    cells = None
    if _impl is _py:
        cells = _py.root_pretest(n, adj, top_level)
        if cells is False:
            return None
        if cells is True:
            return None, None
    _, perm, orbits, gens = canon_auto(n, adj, cells)
    if orbits[n - 1] != orbits[perm[n - 1]]:
        return None
    return gens, perm


def canon_auto(n, adj, cells=None):
    """cells: pykernel.root_cells(adj), as canonical_child hands them on, or
    None.  The compiled kernel computes its own, and so does its Python
    fallback, since canonical_child gave it none."""
    if _impl is _py:
        return _py.canon_auto(n, adj, cells)
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
