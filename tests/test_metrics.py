import numpy as np
import pytest

from qsmkit import (
    Acquisition,
    L2Config,
    NoiseSpec,
    OrientationDataset,
    ScalarVolume,
    SsimConfig,
    TkdConfig,
    VolumeGrid,
    data_consistency,
    dipole_kernel,
    l2_closedform,
    nrmse,
    simulate_acquisition,
    ssim3d,
    tkd,
)
from qsmkit import core
from qsmkit.core import voxel_coords

from conftest import EZ, ones_volume, random_volume, rot_x


def _structured(g):
    xs, ys, zs = voxel_coords(g)
    r2 = xs[:, None, None] ** 2 + ys[None, :, None] ** 2 + zs[None, None, :] ** 2
    return ScalarVolume(g, np.where(r2 <= 6.0**2, 0.1, 0.0) + 0.01 * np.cos(xs)[:, None, None])


def test_nrmse_trivials(grid16):
    ref = _structured(grid16)
    mask = ones_volume(grid16)
    assert nrmse(ref, ref, mask) == 0.0
    assert nrmse(ScalarVolume.zeros(grid16), ref, mask) == 1.0
    neg = ScalarVolume(grid16, -ref.data)
    assert nrmse(neg, ref, mask) == pytest.approx(2.0, abs=1e-13)


def test_nrmse_mean_invariance(grid16):
    ref = _structured(grid16)
    mask = ones_volume(grid16)
    shifted = ScalarVolume(grid16, ref.data + 0.37)
    assert nrmse(shifted, ref, mask) < 1e-14


def test_nrmse_error_scale_covariance(grid16):
    rng = np.random.default_rng(51)
    ref = _structured(grid16)
    mask = ones_volume(grid16)
    e = rng.standard_normal(grid16.dims)
    e -= e.mean()
    base = nrmse(ScalarVolume(grid16, ref.data + e), ref, mask)
    scaled = nrmse(ScalarVolume(grid16, ref.data + 2.5 * e), ref, mask)
    assert scaled == pytest.approx(2.5 * base, rel=1e-12)


def test_nrmse_zero_reference_rejected(grid16):
    mask = ones_volume(grid16)
    with pytest.raises(ValueError):
        nrmse(ones_volume(grid16), ScalarVolume.full(grid16, 3.0), mask)  # constant ref


def test_ssim_identity_is_exactly_one():
    g = VolumeGrid((24, 24, 24))
    ref = _structured(g)
    assert ssim3d(ref, ref, ones_volume(g)) == 1.0


def test_ssim_penalizes_scaling():
    g = VolumeGrid((24, 24, 24))
    ref = _structured(g)
    doubled = ScalarVolume(g, 2.0 * ref.data)
    assert ssim3d(doubled, ref, ones_volume(g)) < 1.0


def test_ssim_noise_vs_structure_is_low():
    g = VolumeGrid((32, 32, 32))
    rng = np.random.default_rng(52)
    ref = _structured(g)
    spread = float(ref.data.max() - ref.data.min())
    noise = ScalarVolume(g, spread * rng.standard_normal(g.dims))
    assert abs(ssim3d(noise, ref, ones_volume(g))) < 0.1


def test_ssim_symmetric_with_fixed_range():
    g = VolumeGrid((24, 24, 24))
    rng = np.random.default_rng(53)
    a = random_volume(g, rng)
    b = random_volume(g, rng)
    cfg = SsimConfig(dynamic_range=4.0)
    assert ssim3d(a, b, ones_volume(g), cfg) == ssim3d(b, a, ones_volume(g), cfg)


def test_ssim_errors():
    small = VolumeGrid((5, 5, 5))
    with pytest.raises(ValueError):
        ssim3d(ones_volume(small), ones_volume(small), ones_volume(small))
    g = VolumeGrid((16, 16, 16))
    flat = ScalarVolume.full(g, 1.0)
    with pytest.raises(ValueError):
        ssim3d(flat, flat, ones_volume(g))  # zero dynamic range
    mask = ScalarVolume.zeros(g)
    with pytest.raises(ValueError):
        ssim3d(_structured(g), _structured(g), mask)
    with pytest.raises(ValueError):
        SsimConfig(window=6)
    with pytest.raises(ValueError):
        SsimConfig(k1=0.0)


def test_data_consistency_trivials(grid16):
    chi = _structured(grid16)
    ds = simulate_acquisition(chi, ones_volume(grid16), [EZ, rot_x(25)], NoiseSpec(0.0, 0))
    assert data_consistency(chi, ds) < 1e-10
    assert data_consistency(ScalarVolume.zeros(grid16), ds) == 1.0


def test_data_consistency_orientation_permutation(grid16):
    chi = _structured(grid16)
    ds = simulate_acquisition(chi, ones_volume(grid16), [EZ, rot_x(25)], NoiseSpec(0.01, 1))
    swapped = OrientationDataset(entries=(ds.entries[1], ds.entries[0]), mask=ds.mask)
    a = data_consistency(ScalarVolume.zeros(grid16), ds)
    b = data_consistency(ScalarVolume.zeros(grid16), swapped)
    assert a == pytest.approx(b, rel=1e-12)


def test_data_consistency_zero_phase_rejected(grid16):
    zeros = ScalarVolume.zeros(grid16)
    ds = OrientationDataset(
        entries=(Acquisition(zeros, ones_volume(grid16), EZ),), mask=ones_volume(grid16)
    )
    with pytest.raises(ValueError):
        data_consistency(zeros, ds)


def test_tkd_beats_l2_on_data_consistency():
    g = VolumeGrid((32, 32, 32))
    xs, ys, zs = voxel_coords(g)
    r2 = xs[:, None, None] ** 2 + ys[None, :, None] ** 2 + zs[None, None, :] ** 2
    chi = ScalarVolume(g, np.where(r2 <= 6.0**2, 0.1, 0.0))
    ds = simulate_acquisition(chi, ones_volume(g), [EZ], NoiseSpec(0.001, 2))
    kernel = dipole_kernel(g, EZ)
    phase = ds.entries[0].phase
    assert data_consistency(tkd(phase, kernel, TkdConfig(0.2)), ds) < data_consistency(
        l2_closedform(phase, kernel, L2Config(0.1)), ds
    )


@pytest.mark.parametrize(
    "dims, spacing", [((64, 64, 64), (1.0, 1.0, 1.0)), ((48, 47, 45), (0.8, 1.2, 1.0))]
)
def test_ssim_same_bits_for_every_thread_count(threads, monkeypatch, dims, spacing):
    g = VolumeGrid(dims, spacing)
    # large enough for every filter pass to be split across two threads
    assert g.n_voxels >= 2 * core._CHUNK
    rng = np.random.default_rng(43)
    x = random_volume(g, rng)
    ref = ScalarVolume(g, x.data + 0.5 * rng.standard_normal(dims))
    mask = ScalarVolume(g, (rng.random(dims) > 0.3).astype(float))
    got = ssim3d(x, ref, mask)
    monkeypatch.setenv("QSM_THREADS", "1")
    assert np.float64(got).tobytes() == np.float64(ssim3d(x, ref, mask)).tobytes()
