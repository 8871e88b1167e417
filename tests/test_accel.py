"""The voxelwise kernels: same bits as their plain expressions for every thread count."""

import numpy as np
import pytest

from qsmkit import _accel


@pytest.mark.parametrize("threads", ["1", "2"])
def test_residual_and_cost_numpy_same_bits_for_every_thread_count(monkeypatch, threads):
    rng = np.random.default_rng(73)
    field = rng.standard_normal((48, 48, 48))
    phase = rng.standard_normal((48, 48, 48))
    w2 = rng.uniform(0.0, 2.0, (48, 48, 48))
    # large enough for the trig to be split across two threads
    assert field.size >= 2 * _accel._CHUNK
    monkeypatch.setenv("QSM_THREADS", threads)
    resid, cost = _accel.residual_and_cost(field, phase, w2)
    d = field - phase
    assert resid.tobytes() == (w2 * np.sin(d)).tobytes()
    assert cost == float(np.sum(2.0 * w2 * (1.0 - np.cos(d))))


def test_rasterize_empty_shape_list():
    xs = np.linspace(-2, 2, 5)
    out = _accel.rasterize_shapes(
        xs, xs, xs,
        np.empty(0, dtype=np.int64), np.empty((0, 3)), np.empty((0, 3)),
        np.empty(0, dtype=np.int64), np.empty(0), 0.7,
    )
    assert np.all(out == 0.7)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_weighted_sin_residual_numpy_same_bits_for_every_thread_count(monkeypatch, threads):
    rng = np.random.default_rng(74)
    field = rng.standard_normal((48, 48, 48))
    phase = rng.standard_normal((48, 48, 48))
    w2 = rng.uniform(0.0, 2.0, (48, 48, 48))
    assert field.size >= 2 * _accel._CHUNK
    monkeypatch.setenv("QSM_THREADS", threads)
    resid = _accel.weighted_sin_residual(field, phase, w2)
    assert resid.tobytes() == (w2 * np.sin(field - phase)).tobytes()
