"""Build script. The kernel extension is compiled from
src/chibound/_kernels/_ckernels.c, written by hand against the CPython API
as the twin of pykernels.py; building needs only a C compiler. The
extension is optional: when it cannot be compiled the package installs
pure-Python only and selects the fallback kernels at import time.

Build in place for development:

    python setup.py build_ext --inplace
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
