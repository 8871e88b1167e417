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
    dipole_kernel,
    forward_field,
    make_phantom,
    nrmse,
    simulate_acquisition,
)
from qsmkit.core import voxel_coords
from qsmkit.simulate import rasterize_shapes, wrap_phase

from conftest import EZ, brute_phantom, ones_volume, rot_x


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


def _dyadic_specs():
    # dyadic spacings with half-integer centres and sizes: every coordinate, offset and square
    # is exact, so voxels on a boundary are decided by the containment rule and not by rounding
    grids = [VolumeGrid((12, 10, 9), (0.5, 1.0, 2.0)), VolumeGrid((9, 8, 11), (2.0, 0.5, 1.0)),
             VolumeGrid((10, 10, 10), (1.0, 1.0, 1.0))]
    fixed = PhantomSpec(background=0.25, shapes=(
        Shape("cuboid", (0.0, 0.0, 0.0), (4.0, 5.0, 6.0), 1.0),
        Shape("sphere", (0.5, 0.0, 2.0), (2.0,), 2.0),
        Shape("cylinder", (0.0, 1.5, -2.0), (1.5, 3.0), 3.0, axis="x"),
        Shape("cylinder", (-1.0, 0.0, 0.0), (2.0, 4.0), 4.0, axis="y"),
        Shape("cylinder", (1.0, -1.0, 0.0), (1.0, 7.0), 5.0, axis="z"),
        Shape("sphere", (0.0, 0.0, 0.0), (0.5,), -1.0),
    ))
    yield from ((grid, fixed) for grid in grids)
    rng = np.random.default_rng(20261019)

    def half(lo, hi):  # a multiple of 0.5 in [lo, hi]
        return float(rng.integers(2 * lo, 2 * hi + 1)) / 2

    for _ in range(12):
        shapes = []
        for _ in range(int(rng.integers(1, 6))):
            kind = str(rng.choice(["sphere", "cylinder", "cuboid"]))
            size = tuple(half(1, 6) for _ in range({"sphere": 1, "cylinder": 2, "cuboid": 3}[kind]))
            center = tuple(half(-4, 4) for _ in range(3))
            shapes.append(Shape(kind, center, size, half(-4, 4), axis=str(rng.choice(list("xyz")))))
        yield grids[int(rng.integers(len(grids)))], PhantomSpec(tuple(shapes), half(-1, 1))


@pytest.mark.parametrize("grid, spec", list(_dyadic_specs()))
def test_make_phantom_equals_brute_force_containment(grid, spec):
    assert np.array_equal(make_phantom(grid, spec).data, brute_phantom(grid, spec))


def test_shape_on_a_voxel_centre_boundary_contains_it():
    # the oracle comparison above relies on boundaries being inclusive: check one directly
    g = VolumeGrid((9, 9, 9), (0.5, 1.0, 2.0))
    xs, ys, zs = voxel_coords(g)
    spec = PhantomSpec((Shape("sphere", (0.0, 0.0, 0.0), (2.0,), 1.0),
                        Shape("cuboid", (0.0, 0.0, 0.0), (1.0, 1.0, 4.0), 2.0)))
    data = make_phantom(g, spec).data
    assert xs[8] == 2.0 and data[8, 4, 4] == 1.0  # on the sphere's surface
    assert zs[3] == -2.0 and data[4, 4, 3] == 2.0  # on both surfaces: the cuboid, last, wins
    assert ys[5] == 1.0 and data[4, 5, 4] == 1.0  # outside the cuboid in y, inside the sphere


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
    for seed in (1.5, True):
        with pytest.raises(ValueError, match="seed"):
            NoiseSpec(sigma=0.1, seed=seed)
    assert NoiseSpec(sigma=0.1, seed=np.int64(7)).seed == 7
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


def _plain_acquisition(chi, magnitude, orientations, noise):
    """(phase, modulus) per orientation from the signal model as whole-volume expressions."""
    out = []
    for r, orientation in enumerate(orientations):
        clean = forward_field(chi, dipole_kernel(chi.grid, orientation)).data
        signal = magnitude.data * np.exp(1j * clean)
        if noise.sigma > 0:
            key = np.array([np.uint64(noise.seed), np.uint64(r)], dtype=np.uint64)
            eta = np.random.Generator(np.random.Philox(key=key)).normal(0.0, noise.sigma, size=(2,) + chi.grid.dims)
            signal = signal + eta[0] + 1j * eta[1]
        phase = np.angle(signal)
        phase[phase <= -np.pi] = np.pi
        out.append((phase, np.abs(signal)))
    return out


@pytest.mark.parametrize("sigma, masked", [(0.05, False), (0.0, True)], ids=["noise", "clean-zero-outside-mask"])
def test_acquisition_keeps_the_plain_expressions_bits(threads, sigma, masked):
    # 48x40x36 holds over 2 * _CHUNK voxels, so with 2 threads the signal pass runs in two slabs
    g = VolumeGrid((48, 40, 36), (1.0, 0.9, 1.1))
    # a strong source: outside the sphere the field passes pi/2, where cos < 0 turns signed zeros into pi
    chi = ScalarVolume(g, 400.0 * _sphere_chi(g).data + 0.02 * np.random.default_rng(3).standard_normal(g.dims))
    mag = _sphere_chi(g) if masked else ScalarVolume(g, np.full(g.dims, 0.8))
    mask = ScalarVolume(g, (mag.data > 0).astype(float))
    orients = [EZ, rot_x(30), EZ]  # the repeated orientation draws from its own stream
    ds = simulate_acquisition(chi, mag, orients, NoiseSpec(sigma, 17), mask=mask if masked else None)
    expected = _plain_acquisition(chi, mag, orients, NoiseSpec(sigma, 17))
    for entry, (phase, modulus) in zip(ds.entries, expected):
        assert entry.phase.data.tobytes() == phase.tobytes()  # bytes: -0.0 and 0.0 differ
        assert entry.magnitude.data.tobytes() == modulus.tobytes()
    if masked:  # the signed zeros outside the mask give phases of pi as well as 0
        outside = np.concatenate([e.phase.data[mask.data == 0] for e in ds.entries])
        assert np.any(outside == np.pi) and np.any(outside == 0.0)


def test_rasterize_empty_shape_list():
    xs = np.linspace(-2, 2, 5)
    out = rasterize_shapes((xs, xs, xs), (), 0.7)
    assert np.all(out == 0.7)
