"""The voxelwise kernels: same bits as their plain expressions for every thread count."""

import numpy as np
import pytest

from qsmkit import _accel, core


def test_residual_and_cost_numpy_same_bits_for_every_thread_count(threads):
    rng = np.random.default_rng(73)
    field = rng.standard_normal((48, 48, 48))
    phase = rng.standard_normal((48, 48, 48))
    w2 = rng.uniform(0.0, 2.0, (48, 48, 48))
    # large enough for the trig to be split across two threads
    assert field.size >= 2 * core._CHUNK
    # computed first: the kernel writes the residual over field
    d = field - phase
    expected = (w2 * np.sin(d), float(np.sum(2.0 * w2 * (1.0 - np.cos(d)))))
    resid, cost = _accel.residual_and_cost(field, phase, w2)
    assert resid is field
    assert resid.tobytes() == expected[0].tobytes()
    assert cost == expected[1]


def test_rasterize_empty_shape_list():
    xs = np.linspace(-2, 2, 5)
    out = _accel.rasterize_shapes((xs, xs, xs), (), 0.7)
    assert np.all(out == 0.7)


def test_weighted_sin_residual_numpy_same_bits_for_every_thread_count(threads):
    rng = np.random.default_rng(74)
    field = rng.standard_normal((48, 48, 48))
    phase = rng.standard_normal((48, 48, 48))
    w2 = rng.uniform(0.0, 2.0, (48, 48, 48))
    assert field.size >= 2 * core._CHUNK
    expected = w2 * np.sin(field - phase)
    resid = _accel.weighted_sin_residual(field, phase, w2)
    assert resid is field
    assert resid.tobytes() == expected.tobytes()


def test_residual_kernels_refuse_a_field_they_cannot_write_over():
    phase = w2 = np.zeros((4, 4, 4))
    for field in (np.zeros((4, 4, 4), dtype=np.float32), np.zeros((4, 4, 8))[:, :, ::2]):
        with pytest.raises(ValueError, match="overwritten"):
            _accel.weighted_sin_residual(field, phase, w2)
        with pytest.raises(ValueError, match="overwritten"):
            _accel.residual_and_cost(field, phase, w2)
