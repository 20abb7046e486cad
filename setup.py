"""Build script: compiles the kernel extension when possible.

With Cython the extension is built from ckernel.pyx; without it, from the
committed C translation ckernel.c, so an offline machine with only a C
compiler still gets the compiled kernel.  The package is fully functional
without the extension (the pure-Python twin in matchcov._kernel.pykernel is
selected at import time), so a failed extension build degrades to a
source-only install instead of aborting.

In-place build for running from the source tree (PYTHONPATH=src):

    python setup.py build_ext --inplace
"""

import sys

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext
from setuptools.errors import CCompilerError, ExecError, PlatformError

kernel = Extension("matchcov._kernel.ckernel", ["src/matchcov/_kernel/ckernel.pyx"])
try:
    from Cython.Build import cythonize

    ext_modules = cythonize([kernel], language_level="3")
except Exception:  # no Cython, or it failed on the .pyx: compile the C file
    kernel.sources = ["src/matchcov/_kernel/ckernel.c"]
    ext_modules = [kernel]


class OptionalBuildExt(build_ext):
    """build_ext that warns and skips the kernel when it cannot be compiled."""

    def run(self):
        # no compiler, or a compile or link error
        try:
            super().run()
        except (CCompilerError, ExecError, PlatformError) as exc:
            print(f"warning: building without the compiled kernel ({exc})", file=sys.stderr)


setup(ext_modules=ext_modules, cmdclass={"build_ext": OptionalBuildExt})
