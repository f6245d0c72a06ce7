"""Build script: compiles the hot-loop kernels to a C extension.

With Cython installed the extension is generated from the .pyx; without it
the shipped _kernels_cy.c is compiled directly.  If compiling fails too,
the package installs with the pure-Python fallback only."""

import sys

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext

try:
    from Cython.Build import cythonize

    ext_modules = cythonize(
        [Extension("sbmchroma._kernels_cy", ["src/sbmchroma/_kernels_cy.pyx"])],
        language_level=3,
    )
except Exception as exc:  # noqa: BLE001 - any Cython problem falls back to the shipped C
    print(f"sbmchroma: Cython unavailable ({exc}); "
          "compiling the shipped _kernels_cy.c", file=sys.stderr)
    ext_modules = [Extension("sbmchroma._kernels_cy",
                             ["src/sbmchroma/_kernels_cy.c"])]


class OptionalBuildExt(build_ext):
    """A failed compile leaves the pure-Python kernels in place."""

    def run(self):
        try:
            super().run()
        except Exception as exc:  # noqa: BLE001 - no compiler, headers, ...
            print(f"sbmchroma: compiled kernels disabled ({exc}); "
                  "using the pure-Python fallback", file=sys.stderr)


setup(ext_modules=ext_modules, cmdclass={"build_ext": OptionalBuildExt})
