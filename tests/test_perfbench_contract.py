"""The benchmark harness in perfbench/ still attaches to this qsmkit.

perfbench reads qsmkit names from outside (the kernels it wraps, the names
of its machine facts); a change that drops one of them fails here rather
than in every benchmark unit. The harness files are loaded by path, unedited.
"""

import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_tracer_attaches():
    tracer = _load("tracer").Tracer()
    wrapped = {original.__name__ for _, _, original, _ in tracer._swaps}
    assert {"rfftn", "irfftn", "weighted_sin_residual", "residual_and_cost"} <= wrapped


def test_machine_facts():
    facts = _load("workloads").machine_facts()
    assert facts["numba_active"] is False
    assert facts["fft_workers"] >= 1
