import os
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
import scipy.fft
from scipy import ndimage

from qsmkit import (
    Acquisition,
    L2Config,
    NoiseSpec,
    Orientation,
    OrientationDataset,
    ScalarVolume,
    TkdConfig,
    VolumeGrid,
    data_consistency,
    dipole_kernel,
    l2_closedform,
    mask_erode,
    nrmse,
    simulate_acquisition,
    ssim3d,
    tkd,
)
from qsmkit import core, metrics
from qsmkit.core import voxel_coords
from qsmkit.dipole import forward_field
from qsmkit.metrics import K1, K2, SIGMA, WINDOW

from conftest import EZ, ones_volume, random_volume, rot_x, rot_y


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
    with pytest.raises(ValueError, match="reference is constant inside the mask"):
        nrmse(ones_volume(grid16), ScalarVolume.full(grid16, 3.0), mask)  # constant ref


def test_nrmse_refuses_a_constant_reference_whose_mean_rounds(grid8):
    # the in-mask mean of 512 samples of 0.05 rounds, so the mean-removed norm is 1.6e-16, not 0
    x = random_volume(grid8, np.random.default_rng(0))
    with pytest.raises(ValueError, match="reference is constant inside the mask"):
        nrmse(x, ScalarVolume.full(grid8, 0.05), ones_volume(grid8))


@pytest.mark.filterwarnings("error")  # the mean of an empty selection warns before it is nan
def test_nrmse_refuses_an_empty_mask(grid16):
    with pytest.raises(ValueError, match="mask is empty"):
        nrmse(_structured(grid16), _structured(grid16), ScalarVolume.zeros(grid16))


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
    # b holds a's samples in another order: the same in-mask range, so the same c1 and c2 both ways
    g = VolumeGrid((24, 24, 24))
    rng = np.random.default_rng(53)
    a = random_volume(g, rng)
    b = ScalarVolume(g, rng.permutation(a.data.ravel()).reshape(g.dims))
    assert ssim3d(a, b, ones_volume(g)) == ssim3d(b, a, ones_volume(g))


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
    # a finite range whose c1 = (K1 * range)**2 overflows
    wide = ScalarVolume(g, 1e200 * _structured(g).data)
    with pytest.raises(ValueError, match="dynamic_range"):
        ssim3d(wide, wide, ones_volume(g))  # the range taken from the reference


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


def _per_orientation_data_consistency(chi, dataset):
    """data_consistency as one forward_field per orientation, each transforming chi again."""
    inside = dataset.mask.data > 0.5
    resid2 = norm2 = 0.0
    for entry in dataset.entries:
        predicted = forward_field(chi, dipole_kernel(dataset.grid, entry.orientation)).data
        resid2 += float(np.sum((predicted[inside] - entry.phase.data[inside]) ** 2))
        norm2 += float(np.sum(entry.phase.data[inside] ** 2))
    return float(np.sqrt(resid2) / np.sqrt(norm2))


def _random_dataset(g, rng, orientations):
    mask = ScalarVolume(g, (rng.random(g.dims) > 0.3).astype(float))
    entries = [Acquisition(random_volume(g, rng), ones_volume(g), b) for b in orientations]
    return OrientationDataset(entries=tuple(entries), mask=mask)


@pytest.mark.parametrize("dims, spacing", [
    ((64, 64, 64), (1.0, 1.0, 1.0)), ((48, 40, 36), (0.8, 1.2, 1.0)), ((33, 28, 21), (1.0, 1.0, 1.0)),
])
def test_data_consistency_has_the_bits_of_one_forward_field_per_orientation(threads, dims, spacing):
    g = VolumeGrid(dims, spacing)
    rng = np.random.default_rng(61)
    dataset = _random_dataset(g, rng, [EZ, rot_x(30), rot_y(-20)])
    chi = random_volume(g, rng, 0.1)
    assert data_consistency(chi, dataset) == _per_orientation_data_consistency(chi, dataset)


@pytest.mark.parametrize("n_orientations", [1, 3])
def test_data_consistency_transforms_chi_once(monkeypatch, n_orientations):
    g = VolumeGrid((16, 12, 10))
    rng = np.random.default_rng(62)
    dataset = _random_dataset(g, rng, [EZ, rot_x(30), rot_y(-20)][:n_orientations])
    chi = random_volume(g, rng)
    calls = []
    for name in ("rfftn", "irfftn"):
        original = getattr(scipy.fft, name)
        monkeypatch.setattr(scipy.fft, name, lambda *a, _f=original, _n=name, **k: calls.append(_n) or _f(*a, **k))
    data_consistency(chi, dataset)
    assert calls == ["rfftn"] + ["irfftn"] * n_orientations


def test_data_consistency_refuses_an_empty_mask():
    g = VolumeGrid((8, 8, 8))
    phase = random_volume(g, np.random.default_rng(58))
    ds = OrientationDataset(entries=(Acquisition(phase, ones_volume(g), EZ),), mask=ScalarVolume.zeros(g))
    with pytest.raises(ValueError, match="mask is empty"):
        data_consistency(phase, ds)


def test_nrmse_and_ssim_refuse_values_whose_sums_overflow(grid16):
    # the suite turns a RuntimeWarning into an error, so an overflow must be refused before numpy warns
    signs = np.where(np.random.default_rng(59).random(grid16.dims) < 0.5, -1.0, 1.0)
    huge = ScalarVolume(grid16, 1e308 * signs)
    small = _structured(grid16)
    for x, ref in [(huge, huge), (small, huge), (huge, small)]:
        with pytest.raises(ValueError, match="NRMSE overflows"):
            nrmse(x, ref, ones_volume(grid16))
    with pytest.raises(ValueError, match="dynamic_range inf .* overflows"):
        ssim3d(small, huge, ones_volume(grid16))
    fits = ScalarVolume(grid16, 1e153 * signs)  # c1 and c2 are finite: the second moments' products overflow
    with pytest.raises(ValueError, match="SSIM overflows"):
        ssim3d(fits, fits, ones_volume(grid16))


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


def _full_grid_ssim(x, ref, mask):
    """ssim3d with every filter pass over the whole volume."""
    half = WINDOW // 2
    dims = x.shape
    valid = np.zeros(dims, dtype=bool)
    valid[half : dims[0] - half, half : dims[1] - half, half : dims[2] - half] = True
    valid &= mask > 0.5
    rv = ref[mask > 0.5]
    drange = float(rv.max() - rv.min())
    c1 = (K1 * drange) ** 2
    c2 = (K2 * drange) ** 2
    taps = np.arange(WINDOW, dtype=np.float64) - half
    weights = np.exp(-(taps**2) / (2.0 * SIGMA**2))
    weights /= weights.sum()

    def local_mean(data):
        for axis in range(3):
            data = ndimage.correlate1d(data, weights, axis=axis, mode="constant")
        return data[valid]

    mu_a = local_mean(x)
    mu_b = local_mean(ref)
    var_a = local_mean(x * x) - mu_a * mu_a
    var_b = local_mean(ref * ref) - mu_b * mu_b
    cov = local_mean(x * ref) - mu_a * mu_b
    ssim_map = ((2.0 * mu_a * mu_b + c1) * (2.0 * cov + c2)) / (
        (mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2)
    )
    return float(ssim_map.mean())


@st.composite
def _ssim_cases(draw):
    """Volumes of 7-24 voxels per axis with a mask of random density, confined
    to a random sub-box, of one scored voxel and one outside the scored region
    (so the reference's in-mask range is not 0), or on the faces of the scored region."""
    dims = draw(st.tuples(*[st.integers(7, 24)] * 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["density", "sub-box", "one voxel", "valid border"]))
    mask = np.zeros(dims, dtype=bool)
    if kind == "density":
        mask = rng.random(dims) < draw(st.floats(0.01, 1.0))
    elif kind == "sub-box":
        lo = [draw(st.integers(0, n - 1)) for n in dims]
        box = tuple(slice(a, draw(st.integers(a + 1, n))) for a, n in zip(lo, dims))
        mask[box] = rng.random(mask[box].shape) < 0.7
    elif kind == "one voxel":
        mask[tuple(draw(st.integers(3, n - 4)) for n in dims)] = True
        mask[0, 0, 0] = True  # no window around it fits in the volume
    else:
        axis = draw(st.integers(0, 2))
        face = draw(st.sampled_from([3, dims[axis] - 4]))
        np.moveaxis(mask, axis, 0)[face] = rng.random(np.moveaxis(mask, axis, 0)[face].shape) < 0.5
        mask[3, 3, 3] = mask[-4, -4, -4] = True
    x = rng.standard_normal(dims)
    ref = x + draw(st.floats(0.0, 2.0)) * rng.standard_normal(dims)
    return VolumeGrid(dims), x, ref, mask.astype(float)


@settings(max_examples=200, deadline=None)
@given(case=_ssim_cases())
def test_ssim_equals_the_full_grid_formula(case):
    g, x, ref, mask = case
    volumes = ScalarVolume(g, x), ScalarVolume(g, ref), ScalarVolume(g, mask)
    if not np.any(mask[3:-3, 3:-3, 3:-3]):
        with pytest.raises(ValueError, match="full SSIM window"):
            ssim3d(*volumes)
        return
    assume(np.ptp(ref[mask > 0.5]) > 0)
    got = ssim3d(*volumes)
    assert np.float64(got).tobytes() == np.float64(_full_grid_ssim(x, ref, mask)).tobytes()


def test_ssim_filters_only_the_box_of_the_scored_voxels(monkeypatch):
    g = VolumeGrid((32, 32, 32))
    mask = np.zeros(g.dims)
    mask[11:21, 11:21, 11:21] = 1.0  # its scored voxels grow by 3 per side to 16^3
    rng = np.random.default_rng(44)
    x, ref = random_volume(g, rng), random_volume(g, rng)
    shapes = []
    window_lines = metrics._window_lines

    def recording(src, out, *axes):
        shapes.extend([np.shape(src)] * len(axes))  # one pass per axis
        return window_lines(src, out, *axes)

    monkeypatch.setattr(metrics, "_window_lines", recording)
    ssim3d(x, ref, ScalarVolume(g, mask))
    assert len(shapes) == 15 and set(shapes) == {(16, 16, 16)}


# signed zeros, subnormals, the ends of the normal range, and samples near 1e300
_EXTREMES = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, -1e-300, 1e300, -1e300])


@st.composite
def _window_inputs(draw):
    dims = draw(st.tuples(*[st.integers(7, 24)] * 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1.0, 0.0, 1e-300, 1e-310, 1e300, -1e300, None]))  # 0: random signed zeros
    data = np.full(dims, rng.choice(_EXTREMES)) if scale is None else scale * rng.standard_normal(dims)
    spots = rng.integers(0, data.size, draw(st.integers(0, data.size)))
    data.flat[spots] = rng.choice(_EXTREMES, spots.size)
    return data


@settings(max_examples=150, deadline=None)
@given(data=_window_inputs(), threads=st.sampled_from(["1", "2"]), block=st.sampled_from([1, 300, 1 << 15]))
def test_local_mean_has_the_bits_of_three_correlate1d_calls(data, threads, block):
    # slabs of at least 64 voxels, so two threads cut these small boxes; blocks of one row and more
    with mock.patch.dict(os.environ, {"QSM_THREADS": threads}), mock.patch.object(core, "_CHUNK", 64), \
            mock.patch.object(metrics, "_BLOCK", block), np.errstate(over="ignore", invalid="ignore"):
        got = metrics._local_mean(data)
        want = data
        for axis in range(3):
            want = ndimage.correlate1d(want, metrics._WEIGHTS, axis=axis, mode="constant")
    assert got.tobytes() == want.tobytes()


def _consistency_of_a_1e300_chi():
    g = VolumeGrid((8, 8, 8))
    rng = np.random.default_rng(63)
    dataset = _random_dataset(g, rng, [EZ])
    return data_consistency(random_volume(g, rng, 1e300), dataset)


@pytest.mark.parametrize("compute, message", [
    (_consistency_of_a_1e300_chi, "data consistency overflows the float64 range"),
    (lambda: dipole_kernel(VolumeGrid((4, 4, 4), (1e300,) * 3), rot_x(30)), "spacing .1e.300"),
    (lambda: dipole_kernel(VolumeGrid((4, 4, 4), (1e-300,) * 3), rot_x(30)), "spacing .1e-300"),
], ids=["data-consistency-chi-1e300", "kernel-spacing-1e300", "kernel-spacing-1e-300"])
def test_library_result_past_the_float_range_is_refused(compute, message):
    # neither is reachable from float32 NIfTI inputs; a warning here is an error, as pyproject sets
    with pytest.raises(ValueError, match=message):
        compute()


# ---------------------------------------------- fuzz of the metric entry points

_SCALES = st.one_of(st.just(0.0), st.builds(lambda sign, exponent: sign * 10.0**exponent,
                                            st.sampled_from([1.0, -1.0]), st.floats(-300.0, 300.0)))
# each refusal names the input it cannot score
_REFUSALS = {
    nrmse: r"mask is empty|NRMSE reference is constant inside the mask|NRMSE overflows the float64 range",
    ssim3d: r"volume \(.*\) smaller than one 7\^3 SSIM window|mask has no voxel with a full SSIM window"
            r"|SSIM c1 .* from dynamic_range .* must be positive and finite|SSIM overflows the float64 range",
    data_consistency: r"mask is empty|data consistency overflows the float64 range"
                      r"|dataset phase is identically zero inside the mask",
    mask_erode: r"^$",  # none: every radius drawn is finite and >= 0
}


@st.composite
def _metric_inputs(draw):
    """A grid of 1-12 voxels per axis at 1e-3 to 1e3 mm, a full, empty, one-voxel or random mask, and
    volumes at scales from 0 to +-1e300."""
    grid = VolumeGrid(draw(st.tuples(*[st.integers(1, 12)] * 3)), draw(st.tuples(*[st.floats(1e-3, 1e3)] * 3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["full", "empty", "one voxel", "random"]))
    mask = np.zeros(grid.dims)
    if kind == "full":
        mask[...] = 1.0
    elif kind == "one voxel":
        mask[tuple(rng.integers(0, n) for n in grid.dims)] = 1.0
    elif kind == "random":
        mask = (rng.random(grid.dims) < draw(st.floats(0.0, 1.0))).astype(float)
    x, ref, chi, phase = (random_volume(grid, rng, draw(_SCALES)) for _ in range(4))
    b = Orientation.from_vector(rng.standard_normal(3))
    entry = Acquisition(phase, ScalarVolume(grid, np.abs(rng.standard_normal(grid.dims))), b)
    dataset = OrientationDataset((entry,), ScalarVolume(grid, mask))
    radius = draw(st.floats(0.0, 13.0)) * grid.spacing[draw(st.integers(0, 2))]
    return x, ref, ScalarVolume(grid, mask), chi, dataset, radius


@settings(max_examples=300, deadline=None)
@given(case=_metric_inputs())
def test_metric_entry_points_give_a_finite_result_or_name_the_input(case):
    x, ref, mask, chi, dataset, radius = case
    calls = [(nrmse, (x, ref, mask)), (ssim3d, (x, ref, mask)), (data_consistency, (chi, dataset)),
             (mask_erode, (mask, radius))]
    for fn, args in calls:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                result = fn(*args)
            except ValueError as err:
                assert re.search(_REFUSALS[fn], str(err)), (fn.__name__, err)
                continue
        values = result.data if fn is mask_erode else np.float64(result)
        assert np.all(np.isfinite(values)), (fn.__name__, result)
