"""The compiled kernels under AddressSanitizer and UBSan.

A child pytest builds a sanitized twin of _ckernels.c, as the
compiled_kernels fixture builds any twin, and runs the kernel tests that
call the compiled entry points most: backend parity, bad masks, the
pinned budget outcomes and the every-budget reference checks. Tier-1
compares the twin's results with pykernels, but a read past an array
that happens to return the right bits shows only here.
"""

import os
import re
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FLAGS = "-fsanitize=address,undefined -fno-sanitize-recover=all"
# the pure-Python halves of the parametrized tests run no C, so they are left out
SUBSET = ("(backends_agree or reject_bad_masks or budget_outcomes_are_pinned or match_reference_at_every_budget)"
          " and not python")
REPORT = re.compile(r"ERROR: AddressSanitizer|runtime error:|SUMMARY: \w+Sanitizer")


def runtime(name):
    """The path of the compiler's sanitizer runtime name, or None."""
    cc = (sysconfig.get_config_var("CC") or "cc").split()[0]
    if shutil.which(cc) is None:
        return None
    path = subprocess.run([cc, f"-print-file-name={name}"], capture_output=True, text=True).stdout.strip()
    return path if os.path.isabs(path) and os.path.exists(path) else None


def test_compiled_kernels_pass_under_sanitizers(tmp_path):
    libs = [runtime("libasan.so"), runtime("libubsan.so")]
    if None in libs:
        pytest.skip("the compiler has no libasan or libubsan")
    # the package without any built extension, so that the child's
    # compiled_kernels builds the sanitized twin instead of importing one
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("*.so", "*.pyd", "__pycache__"))
    env = dict(
        os.environ,
        CFLAGS=FLAGS,
        LDFLAGS=FLAGS,
        LD_PRELOAD=" ".join(libs),
        ASAN_OPTIONS="detect_leaks=0",
        PYTHONPATH=str(tmp_path / "src"),
    )
    # --capture=sys leaves the child's file descriptor 2 alone, so a
    # report that aborts it is written where this test reads it
    child = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--capture=sys", "-p", "no:cacheprovider",
         "--basetemp", str(tmp_path / "child"), "tests/test_kernels.py", "-k", SUBSET],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    output = child.stdout + child.stderr
    assert child.returncode == 0 and not REPORT.search(output), output[-4000:]
