"""ckernel.c must still be the translation of ckernel.pyx.

Cython cannot run here, so the generated C is checked against its source
through the comments Cython leaves in it: each `/* "matchcov/_kernel/ckernel.pyx":N`
comment quotes a few source lines around line N and flags line N itself with
`# <<<<<<<<<<<<<<`.  An edited .pyx line that the C quotes, or a new
definition without a regenerated .c, breaks the check.
"""

import re
from pathlib import Path

KERNEL = Path(__file__).resolve().parents[1] / "src" / "matchcov" / "_kernel"
MARKER = re.compile(r'\s*/\* "matchcov/_kernel/ckernel\.pyx":(\d+)')
FLAG = "             # <<<<<<<<<<<<<<"


def _quoted_lines(c_lines):
    """(line number, quoted text) for each .pyx line quoted in the C source,
    and the flagged line numbers, one per marker."""
    quoted = []
    flagged = []
    for i, line in enumerate(c_lines):
        mark = MARKER.fullmatch(line)
        if not mark:
            continue
        block = []
        for text in c_lines[i + 1:]:
            if text.lstrip().startswith("*/"):
                break
            block.append(text.lstrip()[2:])    # drop the " * " prefix
        at = next(k for k, text in enumerate(block) if text.endswith(FLAG))
        block[at] = block[at][:-len(FLAG)]
        n = int(mark.group(1))
        flagged.append(n)
        quoted.extend((n - at + k, text) for k, text in enumerate(block))
    return quoted, flagged


def test_c_source_quotes_the_pyx_it_was_generated_from():
    pyx = (KERNEL / "ckernel.pyx").read_text().splitlines()
    quoted, flagged = _quoted_lines((KERNEL / "ckernel.c").read_text().splitlines())
    assert flagged
    stale = [(n, text) for n, text in quoted
             if n > len(pyx) or pyx[n - 1].rstrip() != text.rstrip()]
    assert not stale, f"ckernel.c quotes lines that ckernel.pyx no longer has: {stale[:3]}"
    top_level = [n for n, line in enumerate(pyx, start=1)
                 if line.startswith(("def ", "cdef class ", "cdef inline "))]
    missing = sorted(set(top_level) - set(flagged))
    assert not missing, f"ckernel.pyx definitions absent from ckernel.c: lines {missing}"
