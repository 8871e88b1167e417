import numpy as np
import pytest

from qsmkit import (
    ComplexVolume,
    GridMismatchError,
    Orientation,
    ScalarVolume,
    VolumeGrid,
    adjoint_field,
    dipole_kernel,
    fft3,
    forward_field,
    ifft3,
)

from qsmkit.core import frequency_axes, outer_sum
from qsmkit.simulate import simulate_acquisition

from conftest import (
    EZ,
    index_mirror,
    naive_dft3,
    naive_idft3,
    oracle_dipole_values,
    random_volume,
    rot_x,
)


def test_kernel_matches_oracle_anisotropic():
    g = VolumeGrid((8, 6, 10), (1.0, 1.2, 0.8))
    rng = np.random.default_rng(21)
    b = rng.standard_normal(3)
    b /= np.linalg.norm(b)
    kernel = dipole_kernel(g, Orientation(tuple(b)))
    expected = oracle_dipole_values(g.dims, g.spacing, b)
    assert np.abs(kernel.values - expected).max() < 1e-13


def test_kernel_formula_at_plain_points():
    # away from DC and Nyquist planes the value is exactly the formula
    g = VolumeGrid((8, 8, 8), (1.0, 1.0, 1.0))
    b = np.array([0.3, -0.5, np.sqrt(1 - 0.09 - 0.25)])
    kernel = dipole_kernel(g, Orientation(tuple(b)))
    for idx in [(1, 2, 3), (7, 1, 6), (3, 3, 1)]:
        k = np.array([np.fft.fftfreq(8)[i] for i in idx])
        expected = 1.0 / 3.0 - np.dot(k, b) ** 2 / np.dot(k, k)
        assert kernel.values[idx] == pytest.approx(expected, abs=1e-15)


def test_kernel_axis_values():
    g = VolumeGrid((16, 16, 16))
    kernel = dipole_kernel(g, EZ)
    assert kernel.values[0, 0, 1] == pytest.approx(-2.0 / 3.0, abs=1e-15)  # k parallel to b
    assert kernel.values[1, 0, 0] == pytest.approx(1.0 / 3.0, abs=1e-15)  # k perpendicular
    assert kernel.values[0, 0, 0] == 0.0


def test_kernel_magic_angle_zero():
    # with b = (1,1,1)/sqrt(3), k along x has (k.b)^2/|k|^2 = 1/3 exactly
    g = VolumeGrid((8, 8, 8))
    b = Orientation.from_vector((1.0, 1.0, 1.0))
    kernel = dipole_kernel(g, b)
    assert abs(kernel.values[1, 0, 0]) < 1e-15
    assert abs(kernel.values[2, 0, 0]) < 1e-15


def test_kernel_invariants():
    g = VolumeGrid((12, 10, 8), (1.0, 0.9, 1.1))
    kernel = dipole_kernel(g, Orientation.from_vector((0.1, 0.25, 0.96))).values
    assert kernel[0, 0, 0] == 0.0
    assert kernel.min() >= -2.0 / 3.0
    assert kernel.max() <= 1.0 / 3.0
    assert np.array_equal(kernel, index_mirror(kernel))  # even symmetry, exact


def test_kernel_sign_flip_identical():
    g = VolumeGrid((8, 8, 8))
    b = Orientation.from_vector((0.2, -0.4, 0.89))
    bneg = Orientation(tuple(-c for c in b.b))
    assert np.array_equal(dipole_kernel(g, b).values, dipole_kernel(g, bneg).values)


def test_kernel_cache_reuses_values():
    g = VolumeGrid((8, 8, 8))
    assert dipole_kernel(g, EZ).values is dipole_kernel(g, EZ).values


def test_non_unit_orientation_rejected():
    with pytest.raises(ValueError):
        Orientation((0.0, 0.0, 1.5))


def test_forward_field_trivials(grid16):
    kernel = dipole_kernel(grid16, EZ)
    zero = forward_field(ScalarVolume.zeros(grid16), kernel)
    assert np.all(zero.data == 0)
    const = forward_field(ScalarVolume.full(grid16, 3.0), kernel)
    assert np.abs(const.data).max() < 1e-12 * 3.0


def test_forward_field_grid_mismatch(grid16):
    kernel = dipole_kernel(VolumeGrid((8, 8, 8)), EZ)
    with pytest.raises(GridMismatchError):
        forward_field(ScalarVolume.zeros(grid16), kernel)


def test_forward_field_matches_dft_oracle():
    g = VolumeGrid((16, 16, 16))
    rng = np.random.default_rng(22)
    idx = np.indices(g.dims)
    sphere = (
        (idx[0] - 8.0) ** 2 + (idx[1] - 8.0) ** 2 + (idx[2] - 8.0) ** 2 <= 25.0
    ).astype(float)
    chi = ScalarVolume(g, sphere)
    b = rng.standard_normal(3)
    b /= np.linalg.norm(b)
    kernel = dipole_kernel(g, Orientation(tuple(b)))
    got = forward_field(chi, kernel).data
    expected = naive_idft3(oracle_dipole_values(g.dims, g.spacing, b) * naive_dft3(chi.data)).real
    assert np.linalg.norm(got - expected) <= 1e-12 * max(np.linalg.norm(expected), 1.0)


def test_forward_field_imaginary_residual():
    g = VolumeGrid((16, 16, 16))
    rng = np.random.default_rng(23)
    chi = random_volume(g, rng)
    kernel = dipole_kernel(g, Orientation.from_vector((0.3, 0.2, 0.93)))
    spectrum = ComplexVolume(g, kernel.values * fft3(chi).data)
    assert np.abs(ifft3(spectrum).data.imag).max() < 1e-9 * np.abs(chi.data).max()


def test_adjoint_inner_product(grid16):
    rng = np.random.default_rng(24)
    kernel = dipole_kernel(grid16, Orientation.from_vector((0.15, -0.3, 0.94)))
    x = random_volume(grid16, rng)
    y = random_volume(grid16, rng)
    lhs = float(np.sum(forward_field(x, kernel).data * y.data))
    rhs = float(np.sum(x.data * adjoint_field(y, kernel).data))
    assert abs(lhs - rhs) <= 1e-10 * abs(lhs)


def test_adjoint_trivials_and_self_adjointness(grid16):
    rng = np.random.default_rng(25)
    kernel = dipole_kernel(grid16, EZ)
    assert np.all(adjoint_field(ScalarVolume.zeros(grid16), kernel).data == 0)
    y = random_volume(grid16, rng)
    assert np.array_equal(adjoint_field(y, kernel).data, forward_field(y, kernel).data)


def test_spectral_bound(grid16):
    for seed in range(3):
        chi = random_volume(grid16, np.random.default_rng(seed))
        kernel = dipole_kernel(grid16, Orientation.from_vector((0.4, 0.1, 0.91)))
        out = forward_field(chi, kernel).data
        assert np.linalg.norm(out) <= (2.0 / 3.0) * np.linalg.norm(chi.data) * (1 + 1e-12)


def test_orientation_axis_permutation():
    # b = x on v equals b = z on the axis-swapped volume, swapped back
    g = VolumeGrid((12, 12, 12))
    rng = np.random.default_rng(26)
    v = random_volume(g, rng)
    ex = Orientation((1.0, 0.0, 0.0))
    direct = forward_field(v, dipole_kernel(g, ex)).data
    swapped = ScalarVolume(g, np.transpose(v.data, (2, 1, 0)))
    via_z = np.transpose(forward_field(swapped, dipole_kernel(g, EZ)).data, (2, 1, 0))
    assert np.abs(direct - via_z).max() < 1e-12 * max(np.abs(direct).max(), 1.0)


def _full_lattice_kernel(dims, spacing, b):
    """The kernel as built on the full lattice: the formula, the origin 0, the average
    with its np.roll index mirror, then the clip."""
    fx, fy, fz = frequency_axes(VolumeGrid(dims, spacing))
    k2 = outer_sum(fx * fx, fy * fy, fz * fz)
    dot = outer_sum(fx * b[0], fy * b[1], fz * b[2])
    with np.errstate(divide="ignore", invalid="ignore"):
        values = 1.0 / 3.0 - (dot * dot) / k2
    values[0, 0, 0] = 0.0
    values = 0.5 * (values + index_mirror(values))
    np.clip(values, -2.0 / 3.0, 1.0 / 3.0, out=values)
    return values


@pytest.mark.parametrize("dims, spacing", [
    ((16, 16, 16), (1.0, 1.0, 1.0)),
    ((33, 28, 21), (0.7, 1.1, 1.3)),
    ((64, 64, 64), (1.0, 1.0, 1.0)),
    ((20, 24, 18), (0.5, 0.5, 2.0)),
    ((15, 17, 19), (1.0, 1.0, 1.0)),
])
@pytest.mark.parametrize("orientation", [EZ, rot_x(30), Orientation.from_vector((0.3, -0.2, 0.9))],
                         ids=["z", "x30", "oblique"])
def test_kernel_bytes_equal_the_full_lattice_formula(dims, spacing, orientation):
    kernel = dipole_kernel(VolumeGrid(dims, spacing), orientation)
    full = _full_lattice_kernel(dims, spacing, orientation.b)
    assert kernel.values.shape == dims and kernel.values.tobytes() == full.tobytes()
    assert kernel.half.shape == dims[:2] + (dims[2] // 2 + 1,)
    assert kernel.half.tobytes() == full[:, :, : dims[2] // 2 + 1].tobytes()
    assert kernel.half.flags.c_contiguous and not kernel.half.flags.writeable


def test_field_past_the_float_range_is_refused_without_a_warning():
    # a warning here is an error, as pyproject sets: the k-space product must overflow quietly
    grid = VolumeGrid((8, 8, 8))
    chi = random_volume(grid, np.random.default_rng(5), scale=1e307)
    with pytest.raises(ValueError, match="finite"):
        forward_field(chi, dipole_kernel(grid, EZ))
    with pytest.raises(ValueError, match="finite"):
        simulate_acquisition(chi, ScalarVolume(grid, np.ones(grid.dims)), [EZ])


def test_kernel_whose_squared_frequencies_are_subnormal_is_refused():
    # at 1e160 mm, k^2 is subnormal: the kernel came out finite but 0.016 off its direction's values
    with pytest.raises(ValueError, match=r"normal float64 range on voxel spacing \(1e\+160, 1e\+160, 1e\+160\)"):
        dipole_kernel(VolumeGrid((8, 8, 8), (1e160,) * 3), Orientation((0.0, 0.6, 0.8)))


@pytest.mark.parametrize("spacing", [float(np.finfo(np.float32).max), float(np.finfo(np.float32).tiny),
                                     float(np.finfo(np.float32).smallest_subnormal)])
def test_kernel_on_every_float32_spacing_is_the_unit_spacing_kernel(spacing):
    # a NIfTI pixdim is float32, so no spacing read from a header reaches the refusal above
    b = Orientation((0.0, 0.6, 0.8))
    kernel = dipole_kernel(VolumeGrid((8, 8, 8), (spacing,) * 3), b).half
    unit = dipole_kernel(VolumeGrid((8, 8, 8)), b).half
    assert np.abs(kernel - unit).max() <= 1e-15
