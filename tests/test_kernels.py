import hashlib
from pathlib import Path

import chibound._kernels

KERNELS = Path(chibound._kernels.__file__).parent


def test_generated_c_matches_pyx():
    """_ckernels.c is generated from _ckernels.pyx by Cython and tracked;
    _ckernels.pyx.sha256 records the pyx it was generated from."""
    recorded = (KERNELS / "_ckernels.pyx.sha256").read_text().split()[0]
    actual = hashlib.sha256((KERNELS / "_ckernels.pyx").read_bytes()).hexdigest()
    assert actual == recorded, (
        "_ckernels.pyx changed since _ckernels.c was generated: regenerate _ckernels.c "
        "with Cython (python setup.py build_ext --inplace), then record the "
        "new hash (cd src/chibound/_kernels && sha256sum _ckernels.pyx > _ckernels.pyx.sha256)"
    )
