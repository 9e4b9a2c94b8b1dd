"""Build script. The kernel extension is compiled from the tracked
src/chibound/_kernels/_ckernels.c, which Cython generates from
_ckernels.pyx; building needs only a C compiler. The extension is optional:
when it cannot be compiled the package installs pure-Python only and
selects the fallback kernels at import time.

Build in place for development:

    python setup.py build_ext --inplace

After editing _ckernels.pyx, regenerate the C file (needs Cython):

    cython src/chibound/_kernels/_ckernels.pyx
"""

from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension(
            "chibound._kernels._ckernels",
            ["src/chibound/_kernels/_ckernels.c"],
            optional=True,
        )
    ]
)
