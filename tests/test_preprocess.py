import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qsmkit import (
    ScalarVolume,
    SmvConfig,
    VolumeGrid,
    dipole_kernel,
    forward_field,
    laplacian_unwrap,
    smv_filter,
)
from qsmkit import core
from qsmkit.core import rfft3, spectral_apply, voxel_coords
from qsmkit.preprocess import _laplacian_symbol, sphere_kernel_spectrum
from qsmkit.simulate import wrap_phase

from conftest import EZ, ones_volume


def _centered_r2(g):
    xs, ys, zs = voxel_coords(g)
    return xs[:, None, None] ** 2 + ys[None, :, None] ** 2 + zs[None, None, :] ** 2


def _eroded_box_mask(dims, margin):
    m = np.zeros(dims)
    m[margin:-margin, margin:-margin, margin:-margin] = 1.0
    return m > 0.5


def _rms_after_mean_alignment(got, truth, inside):
    diff = got - truth
    diff = diff - diff[inside].mean()
    return float(np.sqrt(np.mean(diff[inside] ** 2)))


def test_unwrap_constant_phase_is_zero():
    g = VolumeGrid((32, 32, 32))
    out = laplacian_unwrap(ScalarVolume(g, np.full(g.dims, 1.2)), ones_volume(g))
    assert np.abs(out.data).max() < 1e-12


def test_unwrap_smooth_bump():
    g = VolumeGrid((64, 64, 64))
    bump = 0.5 * np.exp(-_centered_r2(g) / (2 * 8.0**2))
    out = laplacian_unwrap(ScalarVolume(g, wrap_phase(bump)), ones_volume(g))
    rms = _rms_after_mean_alignment(out.data, bump, _eroded_box_mask(g.dims, 3))
    assert rms < 1e-3


def test_unwrap_output_zero_mean_inside_mask():
    g = VolumeGrid((32, 32, 32))
    mask = ScalarVolume(g, (_centered_r2(g) <= 10.0**2).astype(float))
    bump = 0.8 * np.exp(-_centered_r2(g) / (2 * 5.0**2))
    out = laplacian_unwrap(ScalarVolume(g, wrap_phase(bump)), mask)
    assert abs(out.data[mask.data > 0.5].mean()) < 1e-12


def test_unwrap_4pi_quadratic():
    g = VolumeGrid((64, 64, 64))
    r2 = _centered_r2(g)
    truth = 4 * np.pi * (1.0 - r2 / float(r2.max()))
    wrapped = wrap_phase(truth)
    assert np.abs(truth).max() > 2 * np.pi  # genuinely wrapped input
    out = laplacian_unwrap(ScalarVolume(g, wrapped), ones_volume(g))
    rms = _rms_after_mean_alignment(out.data, truth, _eroded_box_mask(g.dims, 3))
    assert rms < 1e-2


def test_unwrap_invariant_to_2pi_offsets():
    g = VolumeGrid((32, 32, 32))
    rng = np.random.default_rng(31)
    phase = 0.4 * rng.standard_normal(g.dims)
    base = laplacian_unwrap(ScalarVolume(g, phase), ones_volume(g))
    shifted = laplacian_unwrap(ScalarVolume(g, phase + 6 * np.pi), ones_volume(g))
    assert np.abs(base.data - shifted.data).max() < 1e-10


def test_unwrap_rejects_non_binary_mask():
    g = VolumeGrid((8, 8, 8))
    with pytest.raises(ValueError):
        laplacian_unwrap(ScalarVolume.zeros(g), ScalarVolume(g, np.full(g.dims, 0.7)))


def test_smv_config_validation():
    with pytest.raises(ValueError):
        SmvConfig(radius_mm=0.0)
    with pytest.raises(ValueError):
        SmvConfig(tsvd_threshold=1.5)


def test_sphere_kernel_unit_dc():
    g = VolumeGrid((32, 32, 32), (1.0, 1.2, 0.9))
    s = sphere_kernel_spectrum(g, 5.0)
    assert abs(s[0, 0, 0] - 1.0) < 1e-13


def _full_grid_sphere(grid, radius_mm):
    """sphere_kernel_spectrum's ball with distances over the whole grid, rolled
    to index 0, and its voxel count."""
    ball = (_centered_r2(grid) <= radius_mm * radius_mm).astype(np.float64)
    count = ball.sum()
    ball /= count
    return rfft3(np.roll(ball, [-(n // 2) for n in grid.dims], axis=(0, 1, 2))), count


@st.composite
def _sphere_cases(draw):
    """A grid of 1-24 voxels per axis at 0.3-2.5 mm and a radius of 0.2-12 mm:
    any, a whole number of voxels along one axis (where dist^2 ties radius^2),
    or past half the extent of one axis."""
    dims = draw(st.tuples(*[st.integers(1, 24)] * 3))
    spacing = draw(st.tuples(*[st.floats(0.3, 2.5)] * 3))
    axis = draw(st.integers(0, 2))
    whole_voxels = st.integers(1, 40).map(lambda m: m * spacing[axis])
    past_half = st.floats(0.5, 1.5).map(lambda f: f * dims[axis] * spacing[axis])
    radius = draw(st.floats(0.2, 12.0) | (whole_voxels | past_half).filter(lambda r: 0.2 <= r <= 12.0))
    return VolumeGrid(dims, spacing), radius


@settings(max_examples=300, deadline=None)
@given(case=_sphere_cases())
# squares that underflow to 0 tie radius^2 at coordinates past the radius
@example(case=(VolumeGrid((5, 6, 7), (1e-170, 2e-170, 3e-170)), 0.5e-170))
def test_sphere_kernel_equals_the_full_grid_formula(case):
    g, radius = case
    want, count = _full_grid_sphere(g, radius)
    if count == 1:
        with pytest.raises(ValueError, match="reaches no voxel but the centre"):
            sphere_kernel_spectrum(g, radius)
    else:
        assert sphere_kernel_spectrum(g, radius).tobytes() == want.tobytes()


@pytest.mark.parametrize("radius", [0.3, 0.99])
def test_smv_radius_reaching_no_neighbour_is_refused(radius):
    # the ball would be its centre voxel alone: 1 - sphere mean is 0 at every frequency
    g = VolumeGrid((12, 12, 12))
    phase = ScalarVolume(g, np.random.default_rng(45).standard_normal(g.dims))
    with pytest.raises(ValueError, match=rf"SMV radius {radius} mm .* spacing 1\.0 mm"):
        smv_filter(phase, ones_volume(g), SmvConfig(radius, 0.05))
    tissue, _ = smv_filter(phase, ones_volume(g), SmvConfig(1.0, 0.05))
    assert np.any(tissue.data)


def test_smv_zero_phase():
    g = VolumeGrid((32, 32, 32))
    mask = ScalarVolume(g, (_centered_r2(g) <= 10.0**2).astype(float))
    tissue, reliable = smv_filter(ScalarVolume.zeros(g), mask)
    assert np.all(tissue.data == 0)
    assert np.all(reliable.data <= mask.data)


def test_smv_removes_external_harmonic_field():
    g = VolumeGrid((64, 64, 64))
    xs, ys, zs = voxel_coords(g)
    X = xs[:, None, None]
    r2 = _centered_r2(g)
    mask = ScalarVolume(g, (r2 <= 20.0**2).astype(float))
    source = ScalarVolume(
        g, np.where((X - 28.0) ** 2 + ys[None, :, None] ** 2 + zs[None, None, :] ** 2 <= 3.0**2, 1.0, 0.0)
    )
    background = forward_field(source, dipole_kernel(g, EZ))
    tissue, reliable = smv_filter(background, mask, SmvConfig(5.0, 0.05))
    inside = reliable.data > 0.5
    rms_in = np.sqrt(np.mean(background.data[inside] ** 2))
    rms_out = np.sqrt(np.mean(tissue.data[inside] ** 2))
    assert rms_out <= 0.10 * rms_in
    assert np.all(tissue.data[~inside] == 0.0)  # exactly zero outside reliable mask


def test_smv_recovers_internal_field_under_background():
    g = VolumeGrid((64, 64, 64))
    xs, ys, zs = voxel_coords(g)
    X, Y = xs[:, None, None], ys[None, :, None]
    r2 = _centered_r2(g)
    mask = ScalarVolume(g, (r2 <= 20.0**2).astype(float))
    kernel = dipole_kernel(g, EZ)
    chi_internal = ScalarVolume(
        g, np.where((X - 4.0) ** 2 + (Y + 3.0) ** 2 + zs[None, None, :] ** 2 <= 6.0**2, 0.1, 0.0)
    )
    internal = forward_field(chi_internal, kernel)
    external_src = ScalarVolume(
        g, np.where((X - 28.0) ** 2 + Y**2 + zs[None, None, :] ** 2 <= 3.0**2, 20.0, 0.0)
    )
    total = ScalarVolume(g, internal.data + forward_field(external_src, kernel).data)
    tissue, reliable = smv_filter(total, mask, SmvConfig(5.0, 0.05))
    inside = reliable.data > 0.5
    a = tissue.data[inside] - tissue.data[inside].mean()
    b = internal.data[inside] - internal.data[inside].mean()
    assert np.linalg.norm(a - b) / np.linalg.norm(b) < 0.15


def test_smv_rejects_non_binary_mask():
    g = VolumeGrid((8, 8, 8))
    with pytest.raises(ValueError):
        smv_filter(ScalarVolume.zeros(g), ScalarVolume(g, np.full(g.dims, 0.5)))


def _phase_and_mask(dims, spacing, seed):
    g = VolumeGrid(dims, spacing)
    rng = np.random.default_rng(seed)
    mask = ScalarVolume(g, (_centered_r2(g) <= (0.4 * min(dims)) ** 2).astype(float))
    return ScalarVolume(g, 6.0 * rng.standard_normal(dims)), mask


@pytest.mark.parametrize(
    "dims, spacing", [((64, 64, 64), (1.0, 1.0, 1.0)), ((48, 47, 45), (0.8, 1.2, 1.0))]
)
def test_unwrap_and_smv_same_bits_for_every_thread_count(threads, monkeypatch, dims, spacing):
    phase, mask = _phase_and_mask(dims, spacing, 41)
    # large enough for the trig and the erosion to be split across two threads
    assert phase.data.size >= 2 * core._CHUNK
    unwrapped = laplacian_unwrap(phase, mask)
    tissue, reliable = smv_filter(unwrapped, mask, SmvConfig(3.0, 0.01))
    monkeypatch.setenv("QSM_THREADS", "1")
    assert unwrapped.data.tobytes() == laplacian_unwrap(phase, mask).data.tobytes()
    want_tissue, want_reliable = smv_filter(unwrapped, mask, SmvConfig(3.0, 0.01))
    assert tissue.data.tobytes() == want_tissue.data.tobytes()
    assert reliable.data.tobytes() == want_reliable.data.tobytes()


@pytest.mark.parametrize(
    "dims, spacing", [((64, 64, 64), (1.0, 1.0, 1.0)), ((48, 47, 45), (0.8, 1.2, 1.0))]
)
def test_unwrap_has_the_bits_of_the_gathered_inverse_laplacian(threads, dims, spacing):
    phase, mask = _phase_and_mask(dims, spacing, 43)
    lap = _laplacian_symbol(phase.grid)
    inv_lap = np.zeros_like(lap)
    nonzero = lap != 0.0
    inv_lap[nonzero] = 1.0 / lap[nonzero]
    sin_w, cos_w = np.sin(phase.data), np.cos(phase.data)
    rhs = cos_w * spectral_apply(sin_w, lap) - sin_w * spectral_apply(cos_w, lap)
    phi = spectral_apply(rhs, inv_lap)
    want = phi - phi[mask.data > 0.5].mean()
    assert laplacian_unwrap(phase, mask).data.tobytes() == want.tobytes()


def test_unwrap_trig_keeps_the_callers_error_settings(threads):
    # the last plane falls in the second slab, which a pool thread computes
    # when two threads are allowed; it must raise there as on the caller
    phase, mask = _phase_and_mask((48, 48, 48), (1.0, 1.0, 1.0), 42)
    assert phase.data.size >= 2 * core._CHUNK
    data = phase.data.copy()
    data[-1] = np.inf
    object.__setattr__(phase, "data", data)  # past the volume's finite check
    with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
        laplacian_unwrap(phase, mask)
