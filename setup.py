"""Build script: compiles the hot-loop kernels, src/sbmchroma/_kernels_c.c,
to a C extension.  If compiling fails, the package installs with the
pure-Python fallback only."""

import sys

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class OptionalBuildExt(build_ext):
    """A failed compile leaves the pure-Python kernels in place."""

    def build_extensions(self):
        # no fused multiply-add: the kernels' bounds must round like the
        # pure-Python ones, or the two backends prune differently
        if self.compiler.compiler_type == "unix":
            for ext in self.extensions:
                ext.extra_compile_args.append("-ffp-contract=off")
        super().build_extensions()

    def run(self):
        try:
            super().run()
        except Exception as exc:  # noqa: BLE001 - no compiler, headers, ...
            print(f"sbmchroma: compiled kernels disabled ({exc}); "
                  "using the pure-Python fallback", file=sys.stderr)


setup(ext_modules=[Extension("sbmchroma._kernels_c",
                             ["src/sbmchroma/_kernels_c.c"])],
      cmdclass={"build_ext": OptionalBuildExt})
