"""Build script: compiles the kernel extension when possible.

The extension matchcov._kernel.ckernel is built from the hand-written C
source src/matchcov/_kernel/ckernel.c, so a C compiler is all it needs.  The
package is fully functional without it (the pure-Python twin in
matchcov._kernel.pykernel is selected at import time), so a failed build
degrades to a source-only install instead of aborting.

In-place build for running from the source tree (PYTHONPATH=src):

    python setup.py build_ext --inplace
"""

import sys

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext
from setuptools.errors import CCompilerError, ExecError, PlatformError

kernel = Extension("matchcov._kernel.ckernel", ["src/matchcov/_kernel/ckernel.c"])


class OptionalBuildExt(build_ext):
    """build_ext that warns and skips the kernel when it cannot be compiled."""

    def run(self):
        # no compiler, or a compile or link error
        try:
            super().run()
        except (CCompilerError, ExecError, PlatformError) as exc:
            print(f"warning: building without the compiled kernel ({exc})", file=sys.stderr)


setup(ext_modules=[kernel], cmdclass={"build_ext": OptionalBuildExt})
