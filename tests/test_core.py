import importlib
import os
import pkgutil
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from qsmkit import (
    Acquisition,
    ComplexVolume,
    GridMismatchError,
    NdiConfig,
    NoiseSpec,
    Orientation,
    OrientationDataset,
    PhantomSpec,
    ScalarVolume,
    Shape,
    SmvConfig,
    VolumeGrid,
    cosmos,
    fft3,
    forward_field,
    freq_coords,
    ifft3,
    l2_closedform,
    laplacian_unwrap,
    make_phantom,
    mask_erode,
    ndi_reconstruct,
    simulate_acquisition,
    smv_filter,
    tkd,
)
import qsmkit
from qsmkit import core, metrics
from qsmkit.core import ball_offsets, fft_workers, frequency_axes, rfft3, spectral_apply
from qsmkit.dipole import dipole_kernel
from qsmkit.ndi import _half_norm2
from qsmkit.preprocess import sphere_kernel_spectrum

from conftest import EZ, brute_erode, naive_dft3, naive_idft3, ones_volume, random_volume, rot_x


# ---------------------------------------------------------------- types


def test_grid_validation():
    with pytest.raises(ValueError):
        VolumeGrid((0, 4, 4))
    with pytest.raises(ValueError):
        VolumeGrid((4, 4, 4), (1.0, 0.0, 1.0))
    for spacing in [(1.0, np.nan, 1.0), (np.inf, 1.0, 1.0)]:
        with pytest.raises(ValueError, match="finite"):
            VolumeGrid((4, 4, 4), spacing)
    with pytest.raises(ValueError):
        VolumeGrid((4, 4))
    for dims in [(8.7, 8, 8), (8, 8.0, 8), (True, 8, 8)]:
        with pytest.raises(ValueError, match="integers"):
            VolumeGrid(dims)
    assert VolumeGrid((np.int64(8), np.int32(7), 6)).dims == (8, 7, 6)
    g = VolumeGrid((4, 5, 6), (1.0, 0.5, 2.0))
    assert g.n_voxels == 120
    assert g.compatible(VolumeGrid((4, 5, 6), (1.0, 0.5, 2.0)))
    assert not g.compatible(VolumeGrid((4, 5, 6), (1.0, 0.5, 2.5)))
    with pytest.raises(GridMismatchError):
        g.require_compatible(VolumeGrid((4, 5, 7)))


def test_volume_validation(grid8):
    with pytest.raises(ValueError):
        ScalarVolume(grid8, np.zeros((8, 8, 7)))
    bad = np.zeros(grid8.dims)
    bad[1, 2, 3] = np.nan
    with pytest.raises(ValueError):
        ScalarVolume(grid8, bad)
    flat = np.arange(512, dtype=float)
    v = ScalarVolume(grid8, flat)  # x-fastest linear order
    assert v.data[1, 0, 0] == 1.0
    assert v.data[0, 1, 0] == 8.0
    with pytest.raises(ValueError):
        v.data[0, 0, 0] = 5.0  # volumes are immutable


def test_volume_copies_input(grid8):
    arr = np.zeros(grid8.dims)
    v = ScalarVolume(grid8, arr)
    arr[0, 0, 0] = 7.0
    assert v.data[0, 0, 0] == 0.0


def test_library_results_are_read_only_c_contiguous_float64():
    # these volumes keep the array the library made instead of a copy; it must still be one
    # the volume alone can read, in the layout and type a caller's array is copied into
    g = VolumeGrid((12, 10, 8), (1.0, 1.2, 0.9))
    chi = make_phantom(g, PhantomSpec((Shape("sphere", (0.0, 0.0, 0.0), (3.0,), 0.1),)))
    mask = ones_volume(g)
    dataset = simulate_acquisition(chi, mask, [EZ, rot_x(30)], NoiseSpec(0.01, 3))
    kernel = dipole_kernel(g, EZ)
    unwrapped = laplacian_unwrap(dataset.entries[0].phase, mask)
    tissue, _ = smv_filter(unwrapped, mask, SmvConfig(2.0, 0.05))
    volumes = [chi, forward_field(chi, kernel), tkd(unwrapped, kernel), l2_closedform(unwrapped, kernel),
               cosmos(dataset), unwrapped, tissue, ndi_reconstruct(dataset, NdiConfig(max_iters=2)).chi]
    volumes += [v for entry in dataset.entries for v in (entry.phase, entry.magnitude)]
    for v in volumes:
        assert v.data.dtype == np.float64 and v.data.flags.c_contiguous and not v.data.flags.writeable
        with pytest.raises(ValueError):
            v.data[0, 0, 0] = 1.0


def test_orientation_validation():
    with pytest.raises(ValueError):
        Orientation((0.0, 0.0, 2.0))
    with pytest.raises(ValueError, match="3 components"):
        Orientation((1.0, 0.0))
    with pytest.raises(ValueError):
        Orientation.from_vector((0.0, 0.0, 0.0))
    o = Orientation.from_vector((3.0, 0.0, 4.0))
    assert o.b == (0.6, 0.0, 0.8)
    for b in [(np.nan, 0.0, 1.0), (np.inf, 0.0, 1.0), (0.0, np.nan, np.nan)]:
        with pytest.raises(ValueError, match="unit-norm"):
            Orientation(b)
        with pytest.raises(ValueError, match="direction"):
            Orientation.from_vector(b)


def test_dataset_validation(grid8):
    ones = ones_volume(grid8)
    entry = Acquisition(ones, ones, EZ)
    with pytest.raises(ValueError):
        OrientationDataset(entries=(), mask=ones)
    neg = ScalarVolume(grid8, -np.ones(grid8.dims))
    with pytest.raises(ValueError):
        OrientationDataset(entries=(Acquisition(ones, neg, EZ),), mask=ones)
    half = ScalarVolume(grid8, np.full(grid8.dims, 0.5))
    with pytest.raises(ValueError):
        OrientationDataset(entries=(entry,), mask=half)
    other = ones_volume(VolumeGrid((8, 8, 9)))
    with pytest.raises(GridMismatchError):
        OrientationDataset(entries=(Acquisition(other, other, EZ),), mask=ones)
    ds = OrientationDataset(entries=(entry, entry), mask=ones)
    assert ds.n_orientations == 2


# ---------------------------------------------------------------- fft


def test_fft3_constant(grid8):
    spec = fft3(ScalarVolume.full(grid8, 2.5)).data
    assert spec[0, 0, 0] == pytest.approx(2.5 * 512, rel=1e-14)
    spec_flat = spec.ravel().copy()
    spec_flat[0] = 0
    assert np.abs(spec_flat).max() < 1e-10 * 2.5 * 512


def test_fft3_impulse(grid8):
    impulse = np.zeros(grid8.dims)
    impulse[0, 0, 0] = 1.0
    spec = fft3(ScalarVolume(grid8, impulse)).data
    assert np.allclose(spec, 1.0, atol=1e-13)


def test_fft3_matches_naive_dft():
    rng = np.random.default_rng(11)
    g = VolumeGrid((8, 8, 8))
    v = random_volume(g, rng)
    expected = naive_dft3(v.data)
    got = fft3(v).data
    assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)


def test_ifft3_matches_naive_and_roundtrip():
    rng = np.random.default_rng(12)
    g = VolumeGrid((8, 8, 8))
    spec = ComplexVolume(g, rng.standard_normal(g.dims) + 1j * rng.standard_normal(g.dims))
    expected = naive_idft3(spec.data)
    got = ifft3(spec).data
    assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)

    v = random_volume(g, rng)
    back = ifft3(fft3(v)).data
    assert np.linalg.norm(back - v.data) <= 1e-12 * np.linalg.norm(v.data)


def test_ifft3_trivials(grid8):
    ones_spec = ComplexVolume(grid8, np.ones(grid8.dims, dtype=complex))
    out = ifft3(ones_spec).data
    assert out[0, 0, 0] == pytest.approx(1.0, rel=1e-13)
    rest = out.ravel().copy()
    rest[0] = 0
    assert np.abs(rest).max() < 1e-13

    zero = ComplexVolume(grid8, np.zeros(grid8.dims, dtype=complex))
    assert np.all(ifft3(zero).data == 0)


def test_fft_adjoint_identity(grid16):
    rng = np.random.default_rng(13)
    x = random_volume(grid16, rng)
    y = ComplexVolume(grid16, rng.standard_normal(grid16.dims) + 1j * rng.standard_normal(grid16.dims))
    lhs = np.vdot(fft3(x).data, y.data)
    rhs = np.vdot(x.data, grid16.n_voxels * ifft3(y).data)
    assert abs(lhs - rhs) <= 1e-10 * abs(lhs)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_parseval(grid16, seed):
    v = random_volume(grid16, np.random.default_rng(seed))
    lhs = np.linalg.norm(fft3(v).data) ** 2
    rhs = grid16.n_voxels * np.linalg.norm(v.data) ** 2
    assert abs(lhs - rhs) <= 1e-10 * rhs


def test_fft_linearity(grid8):
    rng = np.random.default_rng(14)
    v1, v2 = random_volume(grid8, rng), random_volume(grid8, rng)
    a, b = 1.7, -0.3
    combo = fft3(ScalarVolume(grid8, a * v1.data + b * v2.data)).data
    parts = a * fft3(v1).data + b * fft3(v2).data
    assert np.linalg.norm(combo - parts) <= 1e-12 * np.linalg.norm(parts)

    s1, s2 = fft3(v1), fft3(v2)
    combo_inv = ifft3(ComplexVolume(grid8, a * s1.data + b * s2.data)).data
    parts_inv = a * ifft3(s1).data + b * ifft3(s2).data
    assert np.linalg.norm(combo_inv - parts_inv) <= 1e-12 * np.linalg.norm(parts_inv)


# ---------------------------------------------------------------- frequencies


def test_freq_coords_examples():
    g = VolumeGrid((8, 8, 8))
    assert freq_coords(g, "x", 0) == 0.0
    assert freq_coords(g, "x", 1) == 0.125
    assert freq_coords(g, "x", 7) == -0.125
    with pytest.raises(ValueError):
        freq_coords(g, "x", 8)
    with pytest.raises(ValueError):
        freq_coords(g, "x", -1)
    for index in (1.5, 1.0, True, False):
        with pytest.raises(ValueError, match="not an integer"):
            freq_coords(g, "x", index)


@pytest.mark.parametrize("n", [7, 8, 12])
def test_freq_coords_odd_symmetry(n):
    g = VolumeGrid((n, n, n), (0.7, 0.7, 0.7))
    for idx in range(1, (n + 1) // 2):
        assert freq_coords(g, "y", idx) == -freq_coords(g, "y", n - idx)


def test_frequency_axes_match_freq_coords():
    g = VolumeGrid((6, 9, 4), (1.0, 0.5, 2.0))
    axes = frequency_axes(g)
    for ax, name in enumerate("xyz"):
        for idx in range(g.dims[ax]):
            assert axes[ax][idx] == freq_coords(g, name, idx) == freq_coords(g, ax, idx)
            assert freq_coords(g, np.int64(ax), idx) == axes[ax][idx]


@pytest.mark.parametrize("axis", ["w", "", "X", "xy", 3, 5, -1, 1.0, None, True, False])
def test_freq_coords_refuses_other_axes(axis):
    with pytest.raises(ValueError, match="axis must be x, y, z, 0, 1 or 2"):
        freq_coords(VolumeGrid((8, 8, 8)), axis, 1)


def test_outer_sum_adds_in_axis_order():
    rng = np.random.default_rng(16)
    x, y, z = (rng.normal(size=n) for n in (5, 4, 3))
    lattice = core.outer_sum(x, y, z)
    assert lattice.shape == (5, 4, 3) and lattice.flags.c_contiguous
    assert lattice.tobytes() == np.add.outer(np.add.outer(x, y), z).tobytes()


def test_require_binary_mask_returns_the_inside_voxels(grid16):
    rng = np.random.default_rng(17)
    mask = ScalarVolume(grid16, (rng.random(grid16.dims) > 0.4).astype(float))
    inside = core.require_binary_mask(mask)
    assert inside.dtype == bool and np.array_equal(inside, mask.data == 1.0)
    with pytest.raises(ValueError):  # the mask remembers it, so it must stay as it is
        inside[0, 0, 0] = not inside[0, 0, 0]
    half = ScalarVolume(grid16, 0.5 * mask.data)
    for _ in range(3):  # a remembered refusal is still a refusal
        with pytest.raises(ValueError, match="binary"):
            core.require_binary_mask(half)


def test_require_binary_mask_scans_a_mask_once(grid8):
    ufuncs = []

    class Counted(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            ufuncs.append(ufunc.__name__)
            return getattr(ufunc, method)(*(np.asarray(x) for x in inputs), **kwargs)

    binary = (np.random.default_rng(23).random(grid8.dims) > 0.5).astype(float)
    for values, refused in ((binary, False), (0.5 * binary, True)):
        mask = ScalarVolume(grid8, values)
        object.__setattr__(mask, "data", mask.data.view(Counted))  # sees each ufunc on the samples
        ufuncs.clear()
        answers, scans = [], []
        for _ in range(3):
            try:
                answers.append(core.require_binary_mask(mask))
            except ValueError:
                answers.append(None)
            scans.append(len(ufuncs))
        assert scans[0] > 0 and scans[1] == scans[2] == scans[0]
        assert (answers[0] is None) == refused and answers[1] is answers[0] and answers[2] is answers[0]


# ---------------------------------------------------------------- erosion


def test_mask_erode_radius_zero_is_identity(grid16):
    rng = np.random.default_rng(15)
    mask = ScalarVolume(grid16, (rng.random(grid16.dims) > 0.4).astype(float))
    assert np.array_equal(mask_erode(mask, 0.0).data, mask.data)


def test_mask_erode_all_ones_16_cube():
    g = VolumeGrid((16, 16, 16))
    eroded = mask_erode(ones_volume(g), 2.0).data
    expected = np.zeros(g.dims)
    expected[2:14, 2:14, 2:14] = 1.0
    assert np.array_equal(eroded, expected)
    assert np.array_equal(eroded, brute_erode(np.ones(g.dims), g.spacing, 2.0))


def test_mask_erode_random_vs_brute():
    g = VolumeGrid((10, 9, 8), (1.0, 1.5, 0.8))
    rng = np.random.default_rng(16)
    mask = (rng.random(g.dims) > 0.3).astype(float)
    got = mask_erode(ScalarVolume(g, mask), 1.6).data
    assert np.array_equal(got, brute_erode(mask, g.spacing, 1.6))


@pytest.mark.parametrize("spacing, radius", [(1.3, 9.1), (0.65, 4.55), (0.55, 8.25), (1.1, 16.5)])
def test_ball_keeps_its_axis_tips_when_radius_over_spacing_rounds_down(spacing, radius):
    # radius / spacing is just under k, yet the offset k passes the ball's own (k*s)^2 <= r^2 test
    k = round(radius / spacing)
    assert np.floor(radius / spacing) == k - 1 and (k * spacing) ** 2 <= radius * radius
    ball = ball_offsets((spacing,) * 3, radius)
    c = ball.shape[0] // 2
    assert ball[c + k, c, c] and ball[c, c - k, c] and ball[c, c, c + k]
    g = VolumeGrid((2 * k + 3,) * 3, (spacing,) * 3)
    centre = g.dims[0] // 2
    mask = np.ones(g.dims)
    assert mask_erode(ScalarVolume(g, mask), radius).data[centre, centre, centre] == 1.0
    mask[centre + k, centre, centre] = 0.0
    assert mask_erode(ScalarVolume(g, mask), radius).data[centre, centre, centre] == 0.0
    # the SMV sphere holds the same voxels as the erosion stencil
    sphere = core.irfft3(sphere_kernel_spectrum(g, radius), g.dims)
    assert np.count_nonzero(sphere > 0.5 * sphere.max()) == np.count_nonzero(ball)


def test_mask_erode_edge_cases(grid8):
    zeros = ScalarVolume.zeros(grid8)
    assert np.all(mask_erode(zeros, 3.0).data == 0)
    with pytest.raises(ValueError):
        mask_erode(ScalarVolume(grid8, np.full(grid8.dims, 0.3)), 1.0)
    with pytest.raises(ValueError):
        mask_erode(zeros, -1.0)


def test_mask_erode_monotone_and_composition():
    g = VolumeGrid((12, 12, 12))
    rng = np.random.default_rng(17)
    big = (rng.random(g.dims) > 0.25).astype(float)
    small = big * (rng.random(g.dims) > 0.2)
    eroded_small = mask_erode(ScalarVolume(g, small), 1.5).data
    eroded_big = mask_erode(ScalarVolume(g, big), 1.5).data
    assert np.all(eroded_small <= eroded_big)

    r1, r2 = 1.0, 1.8
    composed = mask_erode(mask_erode(ScalarVolume(g, big), r2), r1).data
    bound = mask_erode(ScalarVolume(g, big), max(r1, r2)).data
    assert np.all(composed <= bound)


@pytest.mark.parametrize("radius", [float("inf"), float("nan")])
def test_mask_erode_rejects_non_finite_radius(grid8, radius):
    with pytest.raises(ValueError, match="finite"):
        mask_erode(ones_volume(grid8), radius)


@pytest.mark.parametrize(
    "dims, spacing, radius",
    [((4, 128, 128), (1.0, 1.0, 1.0), 5.0), ((48, 47, 45), (0.8, 1.2, 1.0), 3.0)],
    ids=["slabs-thinner-than-halo", "anisotropic-odd"],
)
def test_mask_erode_same_bits_for_every_thread_count(threads, dims, spacing, radius):
    g = VolumeGrid(dims, spacing)
    # large enough that a pass on for_slabs would use two threads
    assert g.n_voxels >= 2 * core._CHUNK
    rng = np.random.default_rng(31)
    inside = np.ones(dims, dtype=bool)
    inside[1:-1, 1:-1, 1:-1] = rng.random((dims[0] - 2, dims[1] - 2, dims[2] - 2)) > 0.002
    got = mask_erode(ScalarVolume(g, inside.astype(float)), radius).data
    want = ndimage.binary_erosion(inside, structure=ball_offsets(spacing, radius), border_value=0)
    assert got.tobytes() == want.astype(np.float64).tobytes()


def test_mask_erode_with_two_radii_in_turn_matches_binary_erosion(threads):
    # the mask keeps one erosion: each change of radius must erode afresh
    g = VolumeGrid((48, 47, 45), (0.8, 1.2, 1.0))
    inside = np.random.default_rng(29).random(g.dims) > 0.002
    mask = ScalarVolume(g, inside.astype(float))
    for radius in (3.0, 1.5, 3.0, 1.5):
        want = ndimage.binary_erosion(inside, structure=ball_offsets(g.spacing, radius), border_value=0)
        assert mask_erode(mask, radius).data.tobytes() == want.astype(np.float64).tobytes()


def test_mask_erode_again_with_the_same_radius_runs_no_erosion_step(monkeypatch, grid16):
    steps = []
    step = core._erode_step
    monkeypatch.setattr(core, "_erode_step", lambda a, axis: steps.append(axis) or step(a, axis))
    mask = ones_volume(grid16)
    first = mask_erode(mask, 2.0)
    assert steps
    taken = len(steps)
    assert mask_erode(mask, 2.0) is first and len(steps) == taken


def test_mask_erode_threaded_vs_brute(threads):
    g = VolumeGrid((32, 48, 48))
    assert g.n_voxels >= 2 * core._CHUNK
    mask = (np.random.default_rng(17).random(g.dims) > 0.05).astype(float)
    got = mask_erode(ScalarVolume(g, mask), 1.6).data
    assert np.array_equal(got, brute_erode(mask, g.spacing, 1.6))


@pytest.mark.parametrize("radius", [1e9, 1e300])
def test_mask_erode_radius_past_the_extent_gives_zeros(grid8, radius):
    # the stencil would need (2 * radius + 1)^3 entries; the result needs none
    got = mask_erode(ones_volume(grid8), radius).data
    assert got.tobytes() == np.zeros(grid8.dims).tobytes()


@pytest.mark.parametrize(
    "dims, spacing, radius",
    [((8, 8, 8), (1.0, 1.0, 1.0), 7.99), ((6, 9, 12), (2.0, 1.0, 0.5), 5.99)],
    ids=["cube", "anisotropic"],
)
def test_mask_erode_radius_just_under_the_extent_matches_binary_erosion(dims, spacing, radius):
    g = VolumeGrid(dims, spacing)
    reach = [int(np.floor(radius / s)) for s in spacing]
    assert all(r < n for r, n in zip(reach, dims)) and min(n - r for r, n in zip(reach, dims)) == 1
    inside = np.ones(dims, dtype=bool)
    got = mask_erode(ScalarVolume(g, inside.astype(float)), radius).data
    want = ndimage.binary_erosion(inside, structure=ball_offsets(spacing, radius), border_value=0)
    assert got.tobytes() == want.astype(np.float64).tobytes()


@st.composite
def _erosion_cases(draw):
    """A grid of 1-24 voxels per axis at 0.5-2 mm, a radius of 0-6 mm (often a
    whole number of voxels along one axis, where dist^2 ties the radius), and a
    random, all-ones or empty mask over the volume or confined to a random
    sub-box."""
    dims = draw(st.tuples(*[st.integers(1, 24)] * 3))
    spacing = draw(st.tuples(*[st.floats(0.5, 2.0)] * 3))
    step = draw(st.sampled_from(spacing))
    whole_voxels = st.integers(0, 12).map(lambda m: m * step).filter(lambda r: r <= 6.0)
    radius = draw(st.floats(0.0, 6.0) | whole_voxels)
    holes = draw(st.sampled_from([0.0, 0.005, 0.05, 0.3, 1.0]))
    inside = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random(dims) >= holes
    if draw(st.booleans()):  # confined to a random sub-box
        lo = [draw(st.integers(0, n - 1)) for n in dims]
        box = tuple(slice(a, draw(st.integers(a + 1, n))) for a, n in zip(lo, dims))
        confined = np.zeros(dims, dtype=bool)
        confined[box] = inside[box]
        inside = confined
    return VolumeGrid(dims, spacing), radius, inside


@settings(max_examples=600, deadline=None)
@given(case=_erosion_cases())
def test_mask_erode_equals_binary_erosion(case):
    g, radius, inside = case
    got = mask_erode(ScalarVolume(g, inside.astype(float)), radius).data
    want = ndimage.binary_erosion(inside, structure=ball_offsets(g.spacing, radius), border_value=0)
    assert got.tobytes() == want.astype(np.float64).tobytes()


def test_fft_workers_reads_qsm_threads(monkeypatch):
    monkeypatch.setenv("QSM_THREADS", "3")
    assert fft_workers() == 3
    for auto in ("0", "00", "-0", " 0 ", ""):
        monkeypatch.setenv("QSM_THREADS", auto)
        assert fft_workers() == (os.cpu_count() or 1), auto
    for value in ("abc", "-2", "-1"):
        monkeypatch.setenv("QSM_THREADS", value)
        with pytest.raises(ValueError, match="QSM_THREADS"):
            fft_workers()


@pytest.mark.parametrize("dims", [(48, 40, 36), (33, 28, 40), (4, 128, 130), (7, 5, 3)])
def test_for_slabs_hands_fn_the_same_rows_of_every_array_once_in_order(threads, dims):
    a = np.arange(np.prod(dims), dtype=np.float64).reshape(dims)
    arrays = (a, np.empty(dims, dtype=np.complex128), np.empty(dims[0]), np.empty((2,) + dims)[1])
    row = a[0].size
    slabs = []

    def fn(*views):
        lo = int(views[0].flat[0]) // row  # a holds its flat index
        for view, array in zip(views, arrays, strict=True):
            rows = array[lo : lo + len(views[0])]
            assert view.base is not None and view.ctypes.data == rows.ctypes.data
            assert view.shape == rows.shape and view.strides == rows.strides
        slabs.append((lo, lo + len(views[0]), threading.current_thread()))

    core.for_slabs(fn, *arrays)
    slabs.sort(key=lambda s: s[0])
    bounds = [lo for lo, _, _ in slabs] + [slabs[-1][1]]
    assert bounds[0] == 0 and bounds[-1] == dims[0]
    assert all(hi == lo for (_, hi, _), (lo, _, _) in zip(slabs, slabs[1:]))  # each row once
    assert slabs[0][2] is threading.current_thread()  # the first slab runs on the caller
    split = a.size >= 2 * core._CHUNK
    assert len(slabs) == (int(threads) if split else 1)
    grain = -(-core._CHUNK // row)
    assert all(lo % grain == 0 and hi - lo >= grain for lo, hi, _ in slabs[:-1])


def test_for_slabs_refuses_arrays_with_another_first_axis():
    with pytest.raises(ValueError, match="first-axis length"):
        core.for_slabs(lambda *views: None, np.zeros((4, 3)), np.zeros((3, 4)))


def test_ssim_x_lines_filtered_on_swapped_slabs_keep_the_bits_of_one_correlate1d(threads, monkeypatch):
    data = np.random.default_rng(37).standard_normal((40, 48, 36))
    assert data.size >= 2 * core._CHUNK
    calls = []
    window_lines = metrics._window_lines

    def recording(src, out, *axes):
        calls.append(axes)
        return window_lines(src, out, *axes)

    monkeypatch.setattr(metrics, "_window_lines", recording)
    got = metrics._local_mean(data)
    want = data
    for axis in range(3):
        want = ndimage.correlate1d(want, metrics._WEIGHTS, axis=axis, mode="constant")
    assert got.tobytes() == want.tobytes()
    # x lines on views with y first, then y and z lines together on x slabs; each axis once per thread
    assert calls == [(1,)] * int(threads) + [(1, 2)] * int(threads)


# ------------------------------------------------------- spectral core


grids = st.builds(
    VolumeGrid,
    st.tuples(*[st.integers(2, 12)] * 3),
    st.tuples(*[st.floats(0.5, 2.0)] * 3),
)
directions = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
    lambda v: np.linalg.norm(v) > 0.1
)


@settings(max_examples=40, deadline=None)
@given(grid=grids, direction=directions, seed=st.integers(0, 2**32 - 1))
def test_spectral_apply_with_dipole_symbol_is_self_adjoint(grid, direction, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(grid.dims)
    y = rng.standard_normal(grid.dims)
    half = dipole_kernel(grid, Orientation.from_vector(direction)).half
    lhs = float(np.sum(spectral_apply(x, half) * y))
    rhs = float(np.sum(x * spectral_apply(y, half)))
    assert abs(lhs - rhs) <= 1e-12 * np.linalg.norm(x) * np.linalg.norm(y)


@settings(max_examples=40, deadline=None)
@given(grid=grids, seed=st.integers(0, 2**32 - 1))
def test_half_spectrum_norm_is_parseval(grid, seed):
    x = np.random.default_rng(seed).standard_normal(grid.dims)
    assert _half_norm2(rfft3(x), grid.dims) == pytest.approx(float(np.sum(x * x)), rel=1e-12)


def test_every_exported_name_resolves_and_star_import_runs():
    # the README's example starts with `from qsmkit import *`, which fails on a stale __all__ name
    modules = [qsmkit, *(importlib.import_module(f"qsmkit.{m.name}") for m in pkgutil.iter_modules(qsmkit.__path__))]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.__all__ names {name!r}, which it lacks"
        namespace = {}
        exec(f"from {module.__name__} import *", namespace)
        assert set(getattr(module, "__all__", ())) <= set(namespace)
