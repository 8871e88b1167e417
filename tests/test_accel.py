"""The numba kernels and their pure-numpy fallbacks must agree."""

import subprocess
import sys

import numpy as np
import pytest

from qsmkit import _accel

from conftest import child_env


@pytest.fixture
def arrays():
    rng = np.random.default_rng(71)
    field = rng.standard_normal((24, 24, 24))
    phase = rng.standard_normal((24, 24, 24))
    w2 = rng.uniform(0.0, 2.0, (24, 24, 24))
    return field, phase, w2


def test_numba_is_active_by_default():
    assert _accel.USING_NUMBA or _accel.NUMBA_DISABLED


def test_weighted_sin_residual_paths_agree(arrays):
    field, phase, w2 = arrays
    a = _accel.weighted_sin_residual(field, phase, w2)
    b = _accel.weighted_sin_residual_numpy(field, phase, w2)
    assert np.allclose(a, b, rtol=1e-14, atol=1e-15)


def test_trig_cost_paths_agree(arrays):
    field, phase, w2 = arrays
    a = _accel.trig_cost(field, phase, w2)
    b = _accel.trig_cost_numpy(field, phase, w2)
    assert a == pytest.approx(b, rel=1e-12)


def test_residual_and_cost_paths_agree(arrays):
    field, phase, w2 = arrays
    resid_a, cost_a = _accel.residual_and_cost(field, phase, w2)
    resid_b, cost_b = _accel.residual_and_cost_numpy(field, phase, w2)
    assert np.allclose(resid_a, resid_b, rtol=1e-14, atol=1e-15)
    assert cost_a == pytest.approx(cost_b, rel=1e-12)
    # the fused kernel matches its two single-purpose siblings
    assert np.allclose(resid_a, _accel.weighted_sin_residual(field, phase, w2), rtol=1e-14)
    assert cost_a == pytest.approx(_accel.trig_cost(field, phase, w2), rel=1e-12)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_residual_and_cost_numpy_same_bits_for_every_thread_count(monkeypatch, threads):
    rng = np.random.default_rng(73)
    field = rng.standard_normal((48, 48, 48))
    phase = rng.standard_normal((48, 48, 48))
    w2 = rng.uniform(0.0, 2.0, (48, 48, 48))
    # large enough for the trig to be split across two threads
    assert field.size >= 2 * _accel._CHUNK
    monkeypatch.setenv("QSM_THREADS", threads)
    resid, cost = _accel.residual_and_cost_numpy(field, phase, w2)
    d = field - phase
    assert resid.tobytes() == (w2 * np.sin(d)).tobytes()
    assert cost == float(np.sum(2.0 * w2 * (1.0 - np.cos(d))))


def test_rasterize_paths_agree():
    rng = np.random.default_rng(72)
    xs = np.linspace(-8, 8, 17)
    ys = np.linspace(-6, 6, 13)
    zs = np.linspace(-8, 8, 11)
    kinds = np.array([0, 1, 2, 0], dtype=np.int64)
    centers = rng.uniform(-5, 5, (4, 3))
    sizes = np.abs(rng.uniform(1, 4, (4, 3))) + 0.5
    axes = np.array([0, 2, 0, 1], dtype=np.int64)
    chis = rng.standard_normal(4)
    a = _accel.rasterize_shapes(xs, ys, zs, kinds, centers, sizes, axes, chis, 0.25)
    b = _accel.rasterize_shapes_numpy(xs, ys, zs, kinds, centers, sizes, axes, chis, 0.25)
    assert np.array_equal(a, b)


def test_rasterize_empty_shape_list():
    xs = np.linspace(-2, 2, 5)
    out = _accel.rasterize_shapes(
        xs, xs, xs,
        np.empty(0, dtype=np.int64), np.empty((0, 3)), np.empty((0, 3)),
        np.empty(0, dtype=np.int64), np.empty(0), 0.7,
    )
    assert np.all(out == 0.7)


def test_disable_flag_selects_numpy_path():
    code = (
        "import qsmkit._accel as a; "
        "assert not a.USING_NUMBA; "
        "assert a.weighted_sin_residual is a.weighted_sin_residual_numpy; "
        "assert a.residual_and_cost is a.residual_and_cost_numpy; "
        "print('numpy fallback active')"
    )
    env = child_env(QSM_DISABLE_NUMBA="1")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "numpy fallback active" in proc.stdout


def test_solver_matches_between_paths(tmp_path):
    """End-to-end: a short NDI run agrees between numba and numpy kernels."""
    script = tmp_path / "run.py"
    script.write_text(
        """
import numpy as np
from qsmkit import *
from qsmkit.core import voxel_coords

g = VolumeGrid((16, 16, 16))
xs, ys, zs = voxel_coords(g)
r2 = xs[:, None, None]**2 + ys[None, :, None]**2 + zs[None, None, :]**2
chi = ScalarVolume(g, np.where(r2 <= 4.0**2, 0.1, 0.0))
ones = ScalarVolume(g, np.ones(g.dims))
ds = simulate_acquisition(chi, ones, [Orientation((0.0, 0.0, 1.0))], NoiseSpec(0.01, 3))
res = ndi_reconstruct(ds, NdiConfig(max_iters=30, lam=0.001))
np.save(__import__("sys").argv[1], res.chi.data)
"""
    )
    out_nb = tmp_path / "nb.npy"
    out_np = tmp_path / "np.npy"
    subprocess.run([sys.executable, str(script), str(out_nb)], check=True, env=child_env())
    subprocess.run(
        [sys.executable, str(script), str(out_np)],
        check=True,
        env=child_env(QSM_DISABLE_NUMBA="1"),
    )
    a, b = np.load(out_nb), np.load(out_np)
    assert np.allclose(a, b, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_weighted_sin_residual_numpy_same_bits_for_every_thread_count(monkeypatch, threads):
    rng = np.random.default_rng(74)
    field = rng.standard_normal((48, 48, 48))
    phase = rng.standard_normal((48, 48, 48))
    w2 = rng.uniform(0.0, 2.0, (48, 48, 48))
    assert field.size >= 2 * _accel._CHUNK
    monkeypatch.setenv("QSM_THREADS", threads)
    resid = _accel.weighted_sin_residual_numpy(field, phase, w2)
    assert resid.tobytes() == (w2 * np.sin(field - phase)).tobytes()
