import numpy as np
import pytest
from scipy import stats

from qsmkit import (
    CosmosConfig,
    NoiseSpec,
    PhantomSpec,
    ScalarVolume,
    Shape,
    VolumeGrid,
    cosmos,
    make_phantom,
    nrmse,
    simulate_acquisition,
)
from qsmkit.core import voxel_coords
from qsmkit.simulate import wrap_phase

from conftest import EZ, ones_volume, rot_x


def test_empty_phantom_is_background():
    g = VolumeGrid((8, 8, 8))
    assert np.all(make_phantom(g, PhantomSpec()).data == 0)
    assert np.all(make_phantom(g, PhantomSpec(background=0.3)).data == 0.3)


def test_sphere_voxel_count_close_to_analytic():
    g = VolumeGrid((64, 64, 64))
    radius = 8.0
    phantom = make_phantom(
        g, PhantomSpec(shapes=(Shape("sphere", (0.0, 0.0, 0.0), (radius,), 0.1),))
    )
    count = int(np.sum(phantom.data == 0.1))
    analytic = 4.0 / 3.0 * np.pi * radius**3
    assert abs(count - analytic) <= 0.02 * analytic


def test_overlapping_shapes_last_wins():
    g = VolumeGrid((16, 16, 16))
    spec = PhantomSpec(
        shapes=(
            Shape("cuboid", (0.0, 0.0, 0.0), (8.0, 8.0, 8.0), 1.0),
            Shape("cuboid", (2.0, 0.0, 0.0), (8.0, 8.0, 8.0), 2.0),
        )
    )
    phantom = make_phantom(g, spec).data
    xs, _, _ = voxel_coords(g)
    ix = int(np.argmin(np.abs(xs - 0.0)))  # inside both cuboids
    assert phantom[ix, 8, 8] == 2.0
    ix_left = int(np.argmin(np.abs(xs + 3.5)))  # only in the first
    assert phantom[ix_left, 8, 8] == 1.0


def test_cylinder_rasterization():
    g = VolumeGrid((32, 32, 32))
    spec = PhantomSpec(shapes=(Shape("cylinder", (0.0, 0.0, 0.0), (5.0, 20.0), 1.0, axis="y"),))
    phantom = make_phantom(g, spec).data
    count = int(phantom.sum())
    analytic = np.pi * 5.0**2 * 20.0
    assert abs(count - analytic) <= 0.10 * analytic
    xs, ys, zs = voxel_coords(g)
    iy_in = int(np.argmin(np.abs(ys - 9.0)))
    iy_out = int(np.argmin(np.abs(ys - 11.0)))
    assert phantom[16, iy_in, 16] == 1.0
    assert phantom[16, iy_out, 16] == 0.0


def test_shape_validation():
    with pytest.raises(ValueError, match="size"):
        Shape("sphere", (0, 0, 0), (-2.0,), 0.1)
    with pytest.raises(ValueError):
        Shape("blob", (0, 0, 0), (1.0,), 0.1)
    with pytest.raises(ValueError):
        Shape("cylinder", (0, 0, 0), (1.0, 2.0), 0.1, axis="w")
    with pytest.raises(ValueError):
        Shape("cuboid", (0, 0, 0), (1.0, 2.0), 0.1)
    with pytest.raises(ValueError):
        NoiseSpec(sigma=-0.1)
    for center, size, chi in [((np.nan, 0, 0), (2.0,), 0.1), ((0, np.inf, 0), (2.0,), 0.1),
                              ((0, 0, 0), (np.nan,), 0.1), ((0, 0, 0), (np.inf,), 0.1),
                              ((0, 0, 0), (2.0,), np.nan)]:
        with pytest.raises(ValueError, match="finite"):
            Shape("sphere", center, size, chi)


def _sphere_chi(g):
    xs, ys, zs = voxel_coords(g)
    r2 = xs[:, None, None] ** 2 + ys[None, :, None] ** 2 + zs[None, None, :] ** 2
    return ScalarVolume(g, np.where(r2 <= 6.0**2, 0.05, 0.0))


def test_sigma_zero_returns_clean_wrapped_phase():
    g = VolumeGrid((16, 16, 16))
    chi = _sphere_chi(g)
    mag = ScalarVolume(g, np.full(g.dims, 2.0))
    ds = simulate_acquisition(chi, mag, [EZ], NoiseSpec(0.0, 123))
    from qsmkit import dipole_kernel, forward_field

    clean = forward_field(chi, dipole_kernel(g, EZ)).data
    entry = ds.entries[0]
    assert np.allclose(entry.phase.data, wrap_phase(clean), atol=1e-12)
    assert np.allclose(entry.magnitude.data, 2.0, rtol=1e-12)
    assert np.all(ds.mask.data == 1.0)  # default mask: magnitude > 0


def test_phase_noise_std_high_snr_limit():
    # phase std ~ sigma/W for W >> sigma
    g = VolumeGrid((128, 128, 64))
    chi = ScalarVolume.zeros(g)
    mag = ScalarVolume(g, np.full(g.dims, 10.0))
    ds = simulate_acquisition(chi, mag, [EZ], NoiseSpec(0.1, 7))
    phase = ds.entries[0].phase.data
    assert phase.size >= 1_000_000
    assert np.std(phase) == pytest.approx(0.01, rel=0.05)


def test_zero_magnitude_gives_uniform_phase():
    g = VolumeGrid((128, 128, 64))
    chi = ScalarVolume.zeros(g)
    mag = ScalarVolume.zeros(g)
    mask = ones_volume(g)
    ds = simulate_acquisition(chi, mag, [EZ], NoiseSpec(0.5, 99), mask=mask)
    phase = ds.entries[0].phase.data.ravel()
    assert phase.min() > -np.pi and phase.max() <= np.pi
    ks = stats.kstest(phase, stats.uniform(loc=-np.pi, scale=2 * np.pi).cdf)
    assert ks.statistic < 0.01


def test_determinism_bit_identical():
    g = VolumeGrid((16, 16, 16))
    chi = _sphere_chi(g)
    mag = ones_volume(g)
    orients = [EZ, rot_x(20)]
    a = simulate_acquisition(chi, mag, orients, NoiseSpec(0.05, 5))
    b = simulate_acquisition(chi, mag, orients, NoiseSpec(0.05, 5))
    for ea, eb in zip(a.entries, b.entries):
        assert np.array_equal(ea.phase.data, eb.phase.data)
        assert np.array_equal(ea.magnitude.data, eb.magnitude.data)


def test_orientation_noise_streams_decorrelated():
    g = VolumeGrid((128, 128, 64))
    chi = ScalarVolume.zeros(g)
    mag = ScalarVolume(g, np.full(g.dims, 10.0))
    ds = simulate_acquisition(chi, mag, [EZ, EZ], NoiseSpec(0.1, 11))
    p0 = ds.entries[0].phase.data.ravel()
    p1 = ds.entries[1].phase.data.ravel()
    assert not np.array_equal(p0, p1)
    corr = np.corrcoef(p0, p1)[0, 1]
    assert abs(corr) < 0.01


def test_wrapping_exercised_for_strong_sources():
    g = VolumeGrid((32, 32, 32))
    xs, ys, zs = voxel_coords(g)
    r2 = xs[:, None, None] ** 2 + ys[None, :, None] ** 2 + zs[None, None, :] ** 2
    chi = ScalarVolume(g, np.where(r2 <= 6.0**2, 60.0, 0.0))
    from qsmkit import dipole_kernel, forward_field

    clean = forward_field(chi, dipole_kernel(g, EZ)).data
    assert np.abs(clean).max() > np.pi  # the clean field does wrap
    ds = simulate_acquisition(chi, ones_volume(g), [EZ], NoiseSpec(0.0, 0))
    phase = ds.entries[0].phase.data
    assert phase.min() > -np.pi and phase.max() <= np.pi


def test_noiseless_multi_orientation_cosmos_recovery():
    g = VolumeGrid((32, 32, 32))
    chi = _sphere_chi(g)
    mag = ones_volume(g)
    orients = [EZ, rot_x(30), rot_x(-30)]
    ds = simulate_acquisition(chi, mag, orients, NoiseSpec(0.0, 0))
    rec = cosmos(ds, CosmosConfig(eps=1e-6))
    assert nrmse(rec, chi, ds.mask) < 1e-6
