#!/usr/bin/env python3
"""Time whole survey sweeps of the harness on one kernel backend.

A sweep runs every survey config of e2ebench (six named graphs and 48
sparse random graphs, each under all six per-graph checks, plus three
counterexample checks) through harness.run_experiment with an output
directory, one config at a time, in this interpreter. After one untimed
warm-up sweep it times --repeat sweeps, then counts the calls one more
sweep makes to the k_color kernel entry point. A
k_color call is one k-sweep: a chromatic number costs one call, however
many k it tries. It prints one JSON object.

Usage, from the root of a checkout; PYTHONPATH picks the chibound to time:

    PYTHONPATH=src python benchmarks/bench_survey.py --backend py --repeat 5

--backend c builds the tracked C kernels with setup.py into a temporary
directory, as tests/test_kernels.py does, and loads them from there.
"""

import argparse
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import sysconfig
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_built_c_kernels(build_dir):
    """Build the C kernels into build_dir and register them as
    chibound._kernels._ckernels, so importing chibound selects them.
    Returns the module."""
    subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--build-lib", str(build_dir),
         "--build-temp", str(build_dir / "temp")],
        cwd=ROOT, check=True, capture_output=True,
    )
    built = build_dir / "chibound" / "_kernels" / ("_ckernels" + sysconfig.get_config_var("EXT_SUFFIX"))
    spec = importlib.util.spec_from_file_location("chibound._kernels._ckernels", built)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[spec.name] = module
    return module


def count_kernel_calls(kernels, names):
    """Wrap the named entry points of the kernels module with call
    counters. Returns the dict of counts, which grows as calls are made."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*a, _fn=getattr(kernels, name), _name=name, **kw):
            calls[_name] += 1
            return _fn(*a, **kw)

        setattr(kernels, name, counted)
    return calls


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--backend", choices=("py", "c"), default="py")
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        if args.backend == "c":
            load_built_c_kernels(tmp / "build")
        os.environ["CHIBOUND_KERNELS"] = args.backend
        import chibound
        from chibound import _kernels, harness

        sys.path.insert(0, str(ROOT / "e2ebench"))
        from workloads import SURVEY_FIXED, SURVEY_POOL, survey_configs

        configs = [harness.ExperimentConfig.from_dict(c) for c in survey_configs(SURVEY_FIXED + SURVEY_POOL)]

        def sweep():
            start = time.perf_counter()
            for i, config in enumerate(configs):
                harness.run_experiment(config, output_dir=str(tmp / f"op{i:02d}"))
            return time.perf_counter() - start

        sweep()
        times = [sweep() for _ in range(args.repeat)]

        calls = count_kernel_calls(_kernels, ("k_color",))
        sweep()

    print(json.dumps({
        "backend": chibound.KERNEL_BACKEND,
        "package": str(Path(chibound.__file__).parent),
        "python": platform.python_version(),
        "configs": len(configs),
        "sweep_s": [round(t, 4) for t in times],
        "median_s": round(statistics.median(times), 4),
        "calls_per_sweep": calls,
    }))


if __name__ == "__main__":
    main()
