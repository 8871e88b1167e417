import sys
import warnings

import numpy as np
import pytest

from qsmkit import (
    Acquisition,
    NdiConfig,
    NdiDivergenceError,
    NoiseSpec,
    Orientation,
    OrientationDataset,
    ScalarVolume,
    TkdConfig,
    VolumeGrid,
    dipole_kernel,
    forward_field,
    ndi_cost,
    ndi_gradient,
    ndi_reconstruct,
    nrmse,
    simulate_acquisition,
    tkd,
)
from qsmkit import core
from qsmkit.core import irfft3, rfft3, voxel_coords
from qsmkit.ndi import _half_norm2, residual_and_cost, weighted_sin_residual

from conftest import EZ, ones_volume, random_volume, rot_x


def _random_dataset(g, rng, n_orient=2, phase_scale=0.5):
    entries = []
    for _ in range(n_orient):
        phase = ScalarVolume(g, phase_scale * rng.standard_normal(g.dims))
        mag = ScalarVolume(g, rng.uniform(0.2, 1.0, g.dims))
        b = rng.standard_normal(3)
        b /= np.linalg.norm(b)
        entries.append(Acquisition(phase, mag, Orientation(tuple(b))))
    return OrientationDataset(entries=tuple(entries), mask=ones_volume(g))


def _complex_residual_cost(chi, dataset):
    total = 0.0
    for e in dataset.entries:
        field = forward_field(chi, dipole_kernel(dataset.grid, e.orientation)).data
        residual = e.magnitude.data * (np.exp(1j * field) - np.exp(1j * e.phase.data))
        total += float(np.sum(np.abs(residual) ** 2))
    return total


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cost_equals_complex_residual_form(grid8, seed):
    rng = np.random.default_rng(seed)
    ds = _random_dataset(grid8, rng, n_orient=1 + seed % 3, phase_scale=np.pi)
    chi = random_volume(grid8, rng)
    trig = ndi_cost(chi, ds)
    direct = _complex_residual_cost(chi, ds)
    assert abs(trig - direct) <= 1e-10 * direct


def test_cost_zero_at_exact_solution(grid8):
    rng = np.random.default_rng(3)
    chi = random_volume(grid8, rng, scale=0.1)
    phase = forward_field(chi, dipole_kernel(grid8, EZ))
    ds = OrientationDataset(
        entries=(Acquisition(phase, ones_volume(grid8), EZ),), mask=ones_volume(grid8)
    )
    assert ndi_cost(chi, ds) < 1e-15


def test_cost_single_voxel_contributions(grid8):
    phase = np.zeros(grid8.dims)
    weight = np.zeros(grid8.dims)
    phase[2, 3, 4] = np.pi
    weight[2, 3, 4] = 1.0
    ds = OrientationDataset(
        entries=(Acquisition(ScalarVolume(grid8, phase), ScalarVolume(grid8, weight), EZ),),
        mask=ones_volume(grid8),
    )
    # residual pi at weight 1: 2*(1 - cos(pi)) = 4
    assert ndi_cost(ScalarVolume.zeros(grid8), ds) == pytest.approx(4.0, abs=1e-12)

    phase[2, 3, 4] = np.pi / 2
    weight[2, 3, 4] = 0.5
    ds = OrientationDataset(
        entries=(Acquisition(ScalarVolume(grid8, phase), ScalarVolume(grid8, weight), EZ),),
        mask=ones_volume(grid8),
    )
    # residual pi/2 at weight 0.5: 2*0.25*(1 - 0) = 0.5
    assert ndi_cost(ScalarVolume.zeros(grid8), ds) == pytest.approx(0.5, abs=1e-12)


def test_gradient_vanishes_at_noiseless_solution(grid8):
    rng = np.random.default_rng(4)
    chi = random_volume(grid8, rng, scale=0.1)
    phase = forward_field(chi, dipole_kernel(grid8, EZ))
    ds = OrientationDataset(
        entries=(Acquisition(phase, ones_volume(grid8), EZ),), mask=ones_volume(grid8)
    )
    grad = ndi_gradient(chi, ds, lam=0.0).data
    assert np.abs(grad).max() < 1e-9


def test_gradient_matches_finite_differences(grid8):
    rng = np.random.default_rng(5)
    h = 1e-5
    for _ in range(5):
        ds = _random_dataset(grid8, rng)
        chi0 = 0.05 * rng.standard_normal(grid8.dims)
        lam = float(rng.choice([0.0, 0.01]))
        grad = ndi_gradient(ScalarVolume(grid8, chi0), ds, lam).data
        gnorm = float(np.linalg.norm(grad))
        for _ in range(8):
            u = rng.standard_normal(grid8.dims)
            u /= np.linalg.norm(u)
            fp = ndi_cost(ScalarVolume(grid8, chi0 + h * u), ds) + lam * float(
                np.sum((chi0 + h * u) ** 2)
            )
            fm = ndi_cost(ScalarVolume(grid8, chi0 - h * u), ds) + lam * float(
                np.sum((chi0 - h * u) ** 2)
            )
            fd = (fp - fm) / (2 * h)
            assert abs(fd - float(np.sum(grad * u))) <= 1e-6 * gnorm


def test_gradient_pure_tikhonov_when_weights_vanish(grid8):
    rng = np.random.default_rng(6)
    chi = random_volume(grid8, rng)
    ds = OrientationDataset(
        entries=(Acquisition(random_volume(grid8, rng), ScalarVolume.zeros(grid8), EZ),),
        mask=ones_volume(grid8),
    )
    grad = ndi_gradient(chi, ds, lam=0.5).data
    assert np.array_equal(grad, chi.data)  # 2*0.5*chi exactly


def test_reconstruct_beats_tkd_on_noiseless_sphere():
    g = VolumeGrid((64, 64, 64))
    xs, ys, zs = voxel_coords(g)
    r2 = xs[:, None, None] ** 2 + ys[None, :, None] ** 2 + zs[None, None, :] ** 2
    chi = ScalarVolume(g, np.where(r2 <= 8.0**2, 0.1, 0.0))
    ds = simulate_acquisition(chi, ones_volume(g), [EZ], NoiseSpec(0.0, 0))
    res = ndi_reconstruct(ds, NdiConfig(step_size=1.0, lam=0.0, max_iters=400))
    ndi_err = nrmse(res.chi, chi, ds.mask)
    tkd_err = nrmse(tkd(ds.entries[0].phase, dipole_kernel(g, EZ), TkdConfig(0.2)), chi, ds.mask)
    assert ndi_err < tkd_err


def test_reconstruct_histories_and_descent(grid16):
    rng = np.random.default_rng(7)
    xs, ys, zs = voxel_coords(grid16)
    r2 = xs[:, None, None] ** 2 + ys[None, :, None] ** 2 + zs[None, None, :] ** 2
    chi = ScalarVolume(grid16, np.where(r2 <= 4.0**2, 0.1, 0.0))
    ds = simulate_acquisition(chi, ones_volume(grid16), [EZ, rot_x(30)], NoiseSpec(0.002, 8))
    res = ndi_reconstruct(
        ds, NdiConfig(step_size=1.0, lam=0.0, max_iters=50, record_history=True, reference=chi)
    )
    assert len(res.cost_history) == 50
    assert len(res.nrmse_history) == 50
    assert all(b <= a for a, b in zip(res.cost_history, res.cost_history[1:]))

    bare = ndi_reconstruct(ds, NdiConfig(step_size=1.0, lam=0.0, max_iters=5))
    assert bare.cost_history == []
    assert bare.nrmse_history is None


def test_reconstruct_orientation_permutation_bit_identical(grid16):
    rng = np.random.default_rng(9)
    ds = _random_dataset(grid16, rng, n_orient=3, phase_scale=0.3)
    swapped = OrientationDataset(
        entries=(ds.entries[2], ds.entries[0], ds.entries[1]), mask=ds.mask
    )
    a = ndi_reconstruct(ds, NdiConfig(max_iters=10, lam=0.001))
    b = ndi_reconstruct(swapped, NdiConfig(max_iters=10, lam=0.001))
    assert np.array_equal(a.chi.data, b.chi.data)


def test_lambda_shrinkage(grid16):
    xs, ys, zs = voxel_coords(grid16)
    r2 = xs[:, None, None] ** 2 + ys[None, :, None] ** 2 + zs[None, None, :] ** 2
    chi = ScalarVolume(grid16, np.where(r2 <= 4.0**2, 0.1, 0.0))
    ds = simulate_acquisition(chi, ones_volume(grid16), [EZ], NoiseSpec(0.005, 10))
    small = ndi_reconstruct(ds, NdiConfig(lam=0.001, max_iters=100)).chi.data
    large = ndi_reconstruct(ds, NdiConfig(lam=0.01, max_iters=100)).chi.data
    assert np.linalg.norm(large) <= np.linalg.norm(small)


def test_divergence_guard_names_iteration(grid8):
    rng = np.random.default_rng(11)
    ds = _random_dataset(grid8, rng, n_orient=1)
    with pytest.raises(NdiDivergenceError, match="iteration"):
        ndi_reconstruct(ds, NdiConfig(step_size=1e154, lam=0.5, max_iters=5))


def test_divergence_guard_with_threaded_trig(monkeypatch):
    # At 48^3 the numpy trig runs on worker threads. This step overflows the
    # field to inf inside the FFT, so the trig sees it; the workers must keep
    # the solver's silenced invalid-value warnings, even under "error", so
    # that the divergence ends in the guard's error.
    monkeypatch.setenv("QSM_THREADS", "2")
    g = VolumeGrid((48, 48, 48))
    ds = _random_dataset(g, np.random.default_rng(13), n_orient=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NdiDivergenceError, match="iteration 1"):
            ndi_reconstruct(ds, NdiConfig(step_size=1e305, lam=0.0, max_iters=5))


def test_divergence_guard_names_the_same_iteration_when_recording(monkeypatch):
    # the recording solve guards its cost, the bare one its residual; with
    # lam = 0 both see the overflowed field at the same iteration
    monkeypatch.setenv("QSM_THREADS", "2")
    g = VolumeGrid((48, 48, 48))
    ds = _random_dataset(g, np.random.default_rng(13), n_orient=1)
    cfg = NdiConfig(step_size=1e305, lam=0.0, max_iters=5, record_history=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NdiDivergenceError, match="iteration 1"):
            ndi_reconstruct(ds, cfg)


def test_final_cost_finite_when_chi_squared_overflows(grid8):
    # the last iterate is finite but its square overflows; with lam = 0 the
    # final cost has no lam*||chi||^2 term, so the history stays finite
    ds = _random_dataset(grid8, np.random.default_rng(0), n_orient=1)
    bare = ndi_reconstruct(ds, NdiConfig(step_size=1e305, lam=0.0, max_iters=5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = ndi_reconstruct(
            ds, NdiConfig(step_size=1e305, lam=0.0, max_iters=5, record_history=True)
        )
    assert np.all(np.isfinite(res.cost_history)) and len(res.cost_history) == 5
    assert res.chi.data.tobytes() == bare.chi.data.tobytes()


def test_non_finite_final_cost_names_the_last_iteration(grid8):
    # one iteration: the cost of chi = 0 is finite, lam*||chi||^2 of the
    # produced iterate is not
    ds = _random_dataset(grid8, np.random.default_rng(0), n_orient=1)
    cfg = NdiConfig(step_size=1e154, lam=0.001, max_iters=1, record_history=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NdiDivergenceError, match="iteration 1"):
            ndi_reconstruct(ds, cfg)


def _sphere_dataset_48(n_orient):
    g = VolumeGrid((48, 48, 48))
    xs, ys, zs = voxel_coords(g)
    r2 = xs[:, None, None] ** 2 + ys[None, :, None] ** 2 + zs[None, None, :] ** 2
    chi = ScalarVolume(g, np.where(r2 <= 8.0**2, 0.1, 0.0))
    mask = ScalarVolume(g, (r2 <= 20.0**2).astype(float))
    ds = simulate_acquisition(chi, mask, [EZ, rot_x(30)][:n_orient], NoiseSpec(0.01, 14))
    return chi, OrientationDataset(entries=ds.entries, mask=mask)


@pytest.mark.parametrize("record_history", [False, True])
def test_solve_same_bits_for_every_thread_count(monkeypatch, record_history):
    # 48^3 is large enough for the voxelwise trig to be split across threads
    chi, ds = _sphere_dataset_48(n_orient=2)
    cfg = NdiConfig(
        lam=0.001,
        max_iters=20,
        record_history=record_history,
        reference=chi if record_history else None,
    )
    results = []
    for threads in ("1", "2"):
        monkeypatch.setenv("QSM_THREADS", threads)
        results.append(ndi_reconstruct(ds, cfg))
    one, two = results
    assert one.chi.data.tobytes() == two.chi.data.tobytes()
    assert one.cost_history == two.cost_history
    assert one.nrmse_history == two.nrmse_history


@pytest.mark.parametrize("lam", [0.0, 0.001])
def test_bare_solve_same_bits_as_recording_solve(lam):
    # the bare solve skips the cost; the iterates must not notice
    chi, ds = _sphere_dataset_48(n_orient=1)
    bare = ndi_reconstruct(ds, NdiConfig(lam=lam, max_iters=20))
    recording = ndi_reconstruct(
        ds, NdiConfig(lam=lam, max_iters=20, record_history=True, reference=chi)
    )
    assert bare.chi.data.tobytes() == recording.chi.data.tobytes()
    assert len(recording.cost_history) == 20


def test_magnitude_normalization_is_global(grid8):
    # scaling all magnitudes by a constant leaves the reconstruction unchanged
    rng = np.random.default_rng(12)
    ds = _random_dataset(grid8, rng, n_orient=2, phase_scale=0.2)
    scaled = OrientationDataset(
        entries=tuple(
            Acquisition(e.phase, ScalarVolume(grid8, 7.5 * e.magnitude.data), e.orientation)
            for e in ds.entries
        ),
        mask=ds.mask,
    )
    a = ndi_reconstruct(ds, NdiConfig(max_iters=20)).chi.data
    b = ndi_reconstruct(scaled, NdiConfig(max_iters=20)).chi.data
    assert np.allclose(a, b, atol=1e-13)


def test_zero_magnitude_dataset_rejected(grid8):
    ds = OrientationDataset(
        entries=(Acquisition(ones_volume(grid8), ScalarVolume.zeros(grid8), EZ),),
        mask=ones_volume(grid8),
    )
    with pytest.raises(ValueError):
        ndi_reconstruct(ds, NdiConfig(max_iters=1))


def test_config_validation():
    with pytest.raises(ValueError):
        NdiConfig(step_size=0.0)
    with pytest.raises(ValueError):
        NdiConfig(lam=-0.1)
    with pytest.raises(ValueError):
        NdiConfig(max_iters=0)
    for max_iters in (2.5, float("inf"), True):
        with pytest.raises(ValueError, match="max_iters"):
            NdiConfig(max_iters=max_iters)
    assert NdiConfig(max_iters=np.int64(3)).max_iters == 3
    # the NRMSE history is the reference's only reader: without it the reference would be ignored
    with pytest.raises(ValueError, match="record_history"):
        NdiConfig(reference=ones_volume(VolumeGrid((4, 4, 4))))


def _per_orientation_solve(ds, cfg):
    """The solver written as one k-space product, FFT pair and accumulation per
    orientation, on whole arrays and one thread: the reference the fused slab
    passes of ndi_reconstruct must match bit for bit.

    Returns (chi, cost_history, nrmse_history), recording both histories.
    """
    dims = ds.grid.dims
    inside = ds.mask.data > 0.5
    gmax = max(float(e.magnitude.data[inside].max()) for e in ds.entries)
    terms = [
        (e.phase.data, (e.magnitude.data / gmax) ** 2, dipole_kernel(ds.grid, e.orientation).half)
        for e in sorted(ds.entries, key=lambda e: e.orientation.b)
    ]
    ref = cfg.reference.data[inside]
    ref = ref - ref.mean()
    ref_norm = float(np.linalg.norm(ref))
    tau, lam = cfg.step_size, cfg.lam
    chi_hat = np.zeros((dims[0], dims[1], dims[2] // 2 + 1), dtype=np.complex128)
    costs, nrmses = [], []
    for t in range(cfg.max_iters):
        with np.errstate(over="ignore", invalid="ignore"):
            cost = lam * _half_norm2(chi_hat, dims) if lam != 0.0 else 0.0
            update = None
            for phi, w2, half in terms:
                d = irfft3(chi_hat * half, dims) - phi
                cost += float(np.sum(2.0 * w2 * (1.0 - np.cos(d))))
                term = rfft3(w2 * np.sin(d))
                term *= half
                if update is None:
                    update = term
                else:
                    update += term
            if t >= 1:
                costs.append(cost)
            chi_hat *= 1.0 - 2.0 * tau * lam
            update *= 2.0 * tau
            chi_hat -= update
        xv = irfft3(chi_hat, dims)[inside]
        xv -= xv.mean()
        xv -= ref
        nrmses.append(float(np.sqrt(np.einsum("i,i->", xv, xv))) / ref_norm)
    chi = irfft3(chi_hat, dims)
    final = lam * float(np.sum(chi * chi)) if lam != 0.0 else 0.0
    for phi, w2, half in terms:
        final += float(np.sum(2.0 * w2 * (1.0 - np.cos(irfft3(chi_hat * half, dims) - phi))))
    return chi * ds.mask.data, costs + [final], nrmses


@pytest.mark.parametrize("dims", [(33, 28, 21), (48, 48, 48)])
@pytest.mark.parametrize("n_orient", [1, 3])
@pytest.mark.parametrize("lam", [0.0, 0.001])
def test_solve_same_bits_as_per_orientation_loop(monkeypatch, dims, n_orient, lam):
    # every thread count, slabs small enough for the half-spectrum passes to
    # split as well as the voxelwise trig, and more workers than cores with
    # a short switch interval, so that overlapping slabs would show
    g = VolumeGrid(dims)
    rng = np.random.default_rng(41)
    ds = _random_dataset(g, rng, n_orient=n_orient, phase_scale=0.5)
    xs, ys, zs = voxel_coords(g)
    r2 = xs[:, None, None] ** 2 + ys[None, :, None] ** 2 + zs[None, None, :] ** 2
    ds = OrientationDataset(entries=ds.entries, mask=ScalarVolume(g, (r2 <= 10.0**2).astype(float)))
    reference = random_volume(g, rng, scale=0.1)
    cfg = NdiConfig(lam=lam, max_iters=6, record_history=True, reference=reference)
    chi, costs, nrmses = _per_orientation_solve(ds, cfg)
    for threads, chunk in [("1", core._CHUNK), ("2", core._CHUNK), ("2", 1024), ("5", 256)]:
        monkeypatch.setenv("QSM_THREADS", threads)
        monkeypatch.setattr(core, "_CHUNK", chunk)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            recording = ndi_reconstruct(ds, cfg)
            bare = ndi_reconstruct(ds, NdiConfig(lam=lam, max_iters=6))
        finally:
            sys.setswitchinterval(interval)
        assert recording.chi.data.tobytes() == chi.tobytes()
        assert bare.chi.data.tobytes() == chi.tobytes()
        assert np.array(recording.cost_history).tobytes() == np.array(costs).tobytes()
        assert np.array(recording.nrmse_history).tobytes() == np.array(nrmses).tobytes()


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
    resid, cost = residual_and_cost(field, phase, w2)
    assert resid is field
    assert resid.tobytes() == expected[0].tobytes()
    assert cost == expected[1]


def test_weighted_sin_residual_numpy_same_bits_for_every_thread_count(threads):
    rng = np.random.default_rng(74)
    field = rng.standard_normal((48, 48, 48))
    phase = rng.standard_normal((48, 48, 48))
    w2 = rng.uniform(0.0, 2.0, (48, 48, 48))
    assert field.size >= 2 * core._CHUNK
    expected = w2 * np.sin(field - phase)
    resid = weighted_sin_residual(field, phase, w2)
    assert resid is field
    assert resid.tobytes() == expected.tobytes()


def test_residual_kernels_refuse_a_field_they_cannot_write_over():
    phase = w2 = np.zeros((4, 4, 4))
    for field in (np.zeros((4, 4, 4), dtype=np.float32), np.zeros((4, 4, 8))[:, :, ::2]):
        with pytest.raises(ValueError, match="overwritten"):
            weighted_sin_residual(field, phase, w2)
        with pytest.raises(ValueError, match="overwritten"):
            residual_and_cost(field, phase, w2)
