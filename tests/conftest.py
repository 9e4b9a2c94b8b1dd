"""Fixtures shared across test modules."""

import importlib.util
import os
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def compiled_kernels(tmp_path):
    """The compiled kernel module: the importable one, or else one that
    setup.py builds from the tracked _ckernels.c into tmp_path. That build
    fails if the compiler prints any diagnostic for _ckernels.c."""
    try:
        from chibound._kernels import _ckernels

        return _ckernels
    except ImportError:
        pass
    cc = (sysconfig.get_config_var("CC") or "cc").split()[0]
    if shutil.which(cc) is None:
        pytest.skip(f"compiled kernels unavailable and no C compiler ({cc})")
    # the compiler needs no preloaded runtime, such as the sanitizers that
    # test_sanitizers.py preloads, and runs twice as slow with one
    env = {k: v for k, v in os.environ.items() if k != "LD_PRELOAD"}
    build = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--build-lib", str(tmp_path),
         "--build-temp", str(tmp_path / "temp")],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    built = tmp_path / "chibound" / "_kernels" / ("_ckernels" + sysconfig.get_config_var("EXT_SUFFIX"))
    assert built.exists(), build.stdout + build.stderr
    diagnostics = [line for line in build.stderr.splitlines() if "_ckernels.c:" in line]
    assert not diagnostics, "\n".join(diagnostics)
    spec = importlib.util.spec_from_file_location("chibound._kernels._ckernels", built)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def ckernels(tmp_path_factory):
    return compiled_kernels(tmp_path_factory.mktemp("ckernels"))


@pytest.fixture
def spy_k_color(monkeypatch):
    """A function that wraps _kernels.k_color for the test and calls
    record(adj, k) for every k each call tries, in order. A call sweeps k
    from the larger of its k and the greedy clique size up to the k it
    returns: the colour count of a colouring, the k of a budget stop, or
    its k_max (by default k) when every k fails."""
    from chibound import _kernels

    def install(record):
        k_color = _kernels.k_color

        def spy(adj, k, node_budget=0, k_max=None):
            status, payload = result = k_color(adj, k, node_budget, k_max)
            if status == 0:
                last = max(payload, default=0)
            else:
                last = payload if status == 2 else k if k_max is None else k_max
            for tried in range(max(k, len(_kernels.greedy_clique(adj))), last + 1):
                record(adj, tried)
            return result

        monkeypatch.setattr(_kernels, "k_color", spy)

    return install
