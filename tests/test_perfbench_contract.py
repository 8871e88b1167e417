"""The benchmark harness in perfbench/ still attaches to this qsmkit.

perfbench reads qsmkit names from outside (the kernels it wraps, the names
of its machine facts); a change that drops one of them fails here rather
than in every benchmark unit. The harness files are loaded by path, unedited.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

from qsmkit import PhantomSpec, ScalarVolume, Shape, VolumeGrid, _accel, core, simulate

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
    assert {"rfftn", "irfftn", "weighted_sin_residual", "residual_and_cost", "rasterize_shapes"} <= wrapped


def test_accel_only_names_kernels_that_live_with_their_callers():
    # perfbench reads these names from _accel; their code stays in ndi and simulate
    names = {name for name in vars(_accel) if not name.startswith("__")}
    assert names == {"residual_and_cost", "trig_cost", "weighted_sin_residual", "rasterize_shapes", "USING_NUMBA"}
    for name in names - {"USING_NUMBA"}:
        assert getattr(_accel, name).__module__ in ("qsmkit.ndi", "qsmkit.simulate")


def test_machine_facts():
    facts = _load("workloads").machine_facts()
    assert facts["numba_active"] is False
    assert facts["fft_workers"] >= 1


def test_tracer_sees_calls_through_deferred_scipy_imports():
    # core imports scipy.fft on first use; the swapped scipy.fft attributes must still be called
    tracer = _load("tracer").Tracer()
    grid = VolumeGrid((8, 8, 8))
    tracer.install()
    try:
        with tracer.window() as window:
            core.irfft3(core.rfft3(np.ones(grid.dims)), grid.dims)
            core.mask_erode(ScalarVolume(grid, np.ones(grid.dims)), 1.5)
    finally:
        tracer.uninstall()
    assert window.metrics["core.fft.calls"] == 2
    assert window.metrics["core.mask_erode.calls"] == 1


def test_traced_phantom_records_one_rasterize_call():
    # the tracer swaps the rasterizer in simulate too, where make_phantom calls it by its global name
    tracer = _load("tracer").Tracer()
    spec = PhantomSpec((Shape("sphere", (0.0, 0.0, 0.0), (2.0,), 0.1), Shape("cuboid", (1, 0, 0), (2, 2, 2), 0.2)))
    tracer.install()
    try:
        with tracer.window() as window:
            simulate.make_phantom(VolumeGrid((8, 8, 8)), spec)
    finally:
        tracer.uninstall()
    assert window.metrics["simulate.phantom.calls"] == 1
    assert window.metrics["accel.rasterize.calls"] == 1
