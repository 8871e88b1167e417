import numpy as np
import pytest
import scipy.fft as sfft

from qsmkit import (
    Acquisition,
    CosmosConfig,
    L2Config,
    NoiseSpec,
    Orientation,
    OrientationDataset,
    ScalarVolume,
    TkdConfig,
    VolumeGrid,
    cosmos,
    data_consistency,
    dipole_kernel,
    forward_field,
    l2_closedform,
    nrmse,
    simulate_acquisition,
    tkd,
)
from qsmkit.core import irfft3, rfft3, voxel_coords
from qsmkit.invert import gradient_energy_spectrum, tkd_multiplier

from conftest import EZ, ones_volume, random_volume, rot_x


def test_config_validation():
    with pytest.raises(ValueError):
        TkdConfig(delta=0.0)
    with pytest.raises(ValueError):
        TkdConfig(delta=0.7)
    with pytest.raises(ValueError):
        CosmosConfig(eps=0.0)
    with pytest.raises(ValueError):
        L2Config(lam=-1.0)


def test_tkd_multiplier_examples():
    d = np.array([0.5, -0.05, 0.0])
    out = tkd_multiplier(d, 0.2)
    assert out[0] == 2.0
    assert out[1] == -5.0
    assert out[2] == 0.0


def _sphere_volume(g, radius, chi):
    xs, ys, zs = voxel_coords(g)
    r2 = xs[:, None, None] ** 2 + ys[None, :, None] ** 2 + zs[None, None, :] ** 2
    return ScalarVolume(g, np.where(r2 <= radius**2, chi, 0.0)), r2 <= radius**2


@pytest.mark.parametrize("delta", [0.1, 0.2, 0.3])
def test_tkd_underestimates_sphere_mean(delta):
    g = VolumeGrid((64, 64, 64))
    chi, in_sphere = _sphere_volume(g, 10.0, 0.1)
    kernel = dipole_kernel(g, EZ)
    phase = forward_field(chi, kernel)
    rec = tkd(phase, kernel, TkdConfig(delta))
    assert abs(rec.data[in_sphere].mean()) < 0.1


def test_linearity_of_all_inversions():
    g = VolumeGrid((16, 16, 16))
    rng = np.random.default_rng(41)
    p1, p2 = random_volume(g, rng), random_volume(g, rng)
    combo = ScalarVolume(g, 1.3 * p1.data - 0.7 * p2.data)
    kernel = dipole_kernel(g, rot_x(15))
    mask = ones_volume(g)

    for solve in (
        lambda p: tkd(p, kernel, TkdConfig(0.2)).data,
        lambda p: l2_closedform(p, kernel, L2Config(0.05)).data,
        lambda p: cosmos(
            OrientationDataset(entries=(Acquisition(p, mask, rot_x(15)),), mask=mask),
            CosmosConfig(),
        ).data,
    ):
        lhs = solve(combo)
        rhs = 1.3 * solve(p1) - 0.7 * solve(p2)
        assert np.linalg.norm(lhs - rhs) <= 1e-10 * max(np.linalg.norm(rhs), 1e-30)


def test_cosmos_repeated_orientation_matches_single():
    g = VolumeGrid((16, 16, 16))
    rng = np.random.default_rng(42)
    phase = random_volume(g, rng)
    mask = ones_volume(g)
    one = OrientationDataset(entries=(Acquisition(phase, mask, EZ),), mask=mask)
    three = OrientationDataset(entries=tuple(Acquisition(phase, mask, EZ) for _ in range(3)), mask=mask)
    a = cosmos(one).data
    b = cosmos(three).data
    assert np.abs(a - b).max() < 1e-12 * max(np.abs(a).max(), 1.0)


def test_cosmos_multi_orientation_exact_vs_single_streaky():
    g = VolumeGrid((32, 32, 32))
    chi, _ = _sphere_volume(g, 6.0, 0.05)
    ds3 = simulate_acquisition(chi, ones_volume(g), [EZ, rot_x(20), rot_x(-20)], NoiseSpec(0.0, 0))
    mask = ds3.mask
    err3 = nrmse(cosmos(ds3), chi, mask)
    ds1 = OrientationDataset(entries=(ds3.entries[0],), mask=mask)
    err1 = nrmse(cosmos(ds1), chi, mask)
    assert err3 < 1e-6
    assert err1 > err3


def test_l2_strong_regularization_shrinks_to_zero():
    g = VolumeGrid((16, 16, 16))
    phase = random_volume(g, np.random.default_rng(43))
    kernel = dipole_kernel(g, EZ)
    rec = l2_closedform(phase, kernel, L2Config(1e12))
    assert np.abs(rec.data).max() < 1e-9 * np.abs(phase.data).max()


def test_l2_lambda_zero_is_plain_division_off_cone():
    g = VolumeGrid((16, 16, 16))
    phase = random_volume(g, np.random.default_rng(44))
    kernel = dipole_kernel(g, EZ)
    rec = l2_closedform(phase, kernel, L2Config(0.0))
    chi_spec = sfft.fftn(rec.data)
    phase_spec = sfft.fftn(phase.data)
    idx = (0, 0, 3)  # k parallel to z: d = -2/3, far from the zero cone
    d = kernel.values[idx]
    assert abs(d) > 0.1
    assert abs(chi_spec[idx] - phase_spec[idx] / d) < 1e-9 * abs(phase_spec[idx] / d)


def test_l2_data_consistency_monotone_in_lambda():
    g = VolumeGrid((32, 32, 32))
    chi, _ = _sphere_volume(g, 6.0, 0.1)
    ds = simulate_acquisition(chi, ones_volume(g), [EZ], NoiseSpec(0.002, 3))
    kernel = dipole_kernel(g, EZ)
    errors = [
        data_consistency(l2_closedform(ds.entries[0].phase, kernel, L2Config(lam)), ds)
        for lam in (1e-3, 1e-2, 1e-1)
    ]
    assert errors[0] < errors[1] < errors[2]


def _plain_least_squares(terms, penalty, floor, dims):
    """sum_r d_r*rfft3(phi_r) / (sum_r d_r^2 + penalty), 0 where that denominator is
    <= floor, written as whole-array expressions on fresh arrays: the reference the
    shared solve behind cosmos and l2_closedform must match bit for bit."""
    num = den = None
    for phi, d in terms:
        term = rfft3(phi) * d
        num = term if num is None else num + term
        den = d * d if den is None else den + d * d
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        den = den + penalty
        keep = den > floor
        return irfft3(np.where(keep, num / den, 0.0), dims)


@pytest.mark.parametrize("n_orient", [1, 3])
def test_cosmos_and_l2_same_bits_as_plain_expressions(n_orient):
    g = VolumeGrid((33, 28, 21), (0.7, 1.1, 1.3))
    rng = np.random.default_rng(47)
    orientations = [EZ, rot_x(30), Orientation.from_vector((0.3, -0.5, 0.8))][:n_orient]
    entries = tuple(Acquisition(random_volume(g, rng), ones_volume(g), o) for o in orientations)
    ds = OrientationDataset(entries=entries, mask=ones_volume(g))
    terms = [(e.phase.data, dipole_kernel(g, e.orientation).half) for e in entries]
    for eps in (1e-6, 1e-2):
        want = _plain_least_squares(terms, 0.0, eps, g.dims)
        assert cosmos(ds, CosmosConfig(eps)).data.tobytes() == want.tobytes()
    for lam in (0.0, 0.01, 1e12):
        for e, term in zip(entries, terms):
            want = _plain_least_squares([term], lam * gradient_energy_spectrum(g), 0.0, g.dims)
            got = l2_closedform(e.phase, dipole_kernel(g, e.orientation), L2Config(lam))
            assert got.data.tobytes() == want.tobytes()


def test_gradient_energy_spectrum_positive_off_dc():
    g = VolumeGrid((8, 6, 10))
    e = gradient_energy_spectrum(g)
    assert e[0, 0, 0] == 0.0
    flat = e.ravel().copy()
    flat[0] = 1.0
    assert flat.min() > 0.0


def test_tkd_grid_mismatch():
    kernel = dipole_kernel(VolumeGrid((8, 8, 8)), EZ)
    with pytest.raises(ValueError):
        tkd(ScalarVolume.zeros(VolumeGrid((16, 16, 16))), kernel)
