import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qsmkit import ScalarVolume, VolumeGrid
from qsmkit.io import NiftiFormatError, read_nifti, require_nifti_grid, require_nifti_volume, slice_to_pgm, write_nifti

from conftest import random_volume


def test_roundtrip_preserves_grid_and_samples(tmp_path):
    g = VolumeGrid((11, 7, 5), (1.0, 0.8, 2.5))
    v = random_volume(g, np.random.default_rng(61))
    path = tmp_path / "vol.nii"
    write_nifti(path, v)
    back = read_nifti(path)
    assert back.grid.dims == g.dims
    assert all(abs(a - b) < 1e-6 for a, b in zip(back.grid.spacing, g.spacing))
    assert np.array_equal(back.data, v.data.astype("<f4").astype(np.float64))


@pytest.mark.parametrize("seed", range(5))
def test_roundtrip_fuzz(tmp_path, seed):
    rng = np.random.default_rng(100 + seed)
    dims = tuple(int(n) for n in rng.integers(2, 9, size=3))
    spacing = tuple(float(s) for s in rng.uniform(0.3, 3.0, size=3))
    g = VolumeGrid(dims, spacing)
    v = ScalarVolume(g, rng.standard_normal(dims))
    path = tmp_path / "fuzz.nii"
    write_nifti(path, v)
    back = read_nifti(path)
    assert back.grid.dims == dims
    assert all(abs(a - b) < 1e-6 for a, b in zip(back.grid.spacing, spacing))
    assert np.allclose(back.data, v.data, atol=1e-6)


def _patch_header(path, offset, fmt, *values):
    blob = bytearray(path.read_bytes())
    struct.pack_into(fmt, blob, offset, *values)
    path.write_bytes(bytes(blob))


def _write_sample(tmp_path):
    g = VolumeGrid((4, 4, 4))
    v = ScalarVolume(g, np.arange(64, dtype=float))
    path = tmp_path / "v.nii"
    write_nifti(path, v)
    return path, v


def test_reader_applies_scl_slope_inter(tmp_path):
    path, v = _write_sample(tmp_path)
    _patch_header(path, 112, "<f", 2.5)  # scl_slope
    _patch_header(path, 116, "<f", -1.0)  # scl_inter
    back = read_nifti(path)
    expected = v.data.astype("<f4").astype(np.float64) * 2.5 - 1.0
    assert np.allclose(back.data, expected, atol=1e-5)


def test_reader_supports_float64(tmp_path):
    g = VolumeGrid((3, 4, 5), (1.5, 1.0, 0.5))
    v = random_volume(g, np.random.default_rng(62))
    path = tmp_path / "f64.nii"
    write_nifti(path, v)
    # rewrite data section as float64 and patch datatype/bitpix
    blob = bytearray(path.read_bytes())
    struct.pack_into("<h", blob, 70, 64)
    struct.pack_into("<h", blob, 72, 64)
    payload = v.data.astype("<f8").tobytes(order="F")
    path.write_bytes(bytes(blob[:352]) + payload)
    back = read_nifti(path)
    assert np.array_equal(back.data, v.data)


def test_reader_honors_vox_offset(tmp_path):
    path, v = _write_sample(tmp_path)
    blob = bytearray(path.read_bytes())
    struct.pack_into("<f", blob, 108, 368.0)
    path.write_bytes(bytes(blob[:352]) + b"\x00" * 16 + bytes(blob[352:]))
    back = read_nifti(path)
    assert np.array_equal(back.data, v.data.astype("<f4").astype(np.float64))


def test_reader_rejects_bad_dim0(tmp_path):
    path, _ = _write_sample(tmp_path)
    _patch_header(path, 40, "<h", 4)
    with pytest.raises(NiftiFormatError, match="dim"):
        read_nifti(path)


def test_reader_rejects_unsupported_datatype(tmp_path):
    path, _ = _write_sample(tmp_path)
    _patch_header(path, 70, "<h", 4)  # int16
    with pytest.raises(NiftiFormatError, match="datatype"):
        read_nifti(path)


def test_reader_rejects_bad_magic(tmp_path):
    path, _ = _write_sample(tmp_path)
    _patch_header(path, 344, "<4s", b"ni1\x00")
    with pytest.raises(NiftiFormatError, match="magic"):
        read_nifti(path)


def test_reader_rejects_truncated_file(tmp_path):
    path, _ = _write_sample(tmp_path)
    blob = path.read_bytes()
    path.write_bytes(blob[:400])
    with pytest.raises(NiftiFormatError, match="truncated"):
        read_nifti(path)
    path.write_bytes(blob[:100])
    with pytest.raises(NiftiFormatError):
        read_nifti(path)


def test_reader_rejects_bad_spacing(tmp_path):
    path, _ = _write_sample(tmp_path)
    _patch_header(path, 76, "<8f", 1.0, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0)
    with pytest.raises(NiftiFormatError, match="pixdim"):
        read_nifti(path)


@pytest.mark.parametrize(
    "offset, fmt, values, message",
    [
        (108, "<f", [float("inf")], "vox_offset"),
        (108, "<f", [float("nan")], "vox_offset"),
        (42, "<h", [0], "dim"),
        (44, "<h", [-3], "dim"),
        (80, "<f", [float("nan")], "pixdim"),
        (84, "<f", [float("inf")], "pixdim"),
        (112, "<f", [float("inf")], "finite"),
        (112, "<f", [float("nan")], "finite"),
        (116, "<f", [float("-inf")], "finite"),
        (42, "<3h", [2**15 - 1] * 3, "truncated"),
    ],
    ids=["vox-offset-inf", "vox-offset-nan", "dim-0", "dim-negative", "pixdim-nan", "pixdim-inf",
         "slope-inf", "slope-nan", "inter-inf", "dims-past-memory"],
)
def test_reader_rejects_bad_header_value(tmp_path, offset, fmt, values, message):
    path, _ = _write_sample(tmp_path)
    _patch_header(path, offset, fmt, *values)
    with pytest.raises(NiftiFormatError, match=message):
        read_nifti(path)


def test_reader_rejects_non_finite_stored_sample(tmp_path):
    path, _ = _write_sample(tmp_path)
    _patch_header(path, 352 + 4 * 5, "<f", float("nan"))
    with pytest.raises(NiftiFormatError, match="finite"):
        read_nifti(path)


def _field(offset, fmt, values):
    return values.map(lambda v: (offset, fmt, v))


_EXTENT = st.integers(-2, 12) | st.just(2**15 - 1)
_FLOAT32 = st.floats(width=32)
# one rewritten header field: (byte offset, struct format, values)
_MUTATION = st.one_of(
    _field(40, "<4h", st.tuples(st.sampled_from([3, 2, 4, 0, -1]), _EXTENT, _EXTENT, _EXTENT)),  # dim
    _field(70, "<h", st.sampled_from([16, 64, 2, 4, 8, 512, 0, -1]).map(lambda v: [v])),  # datatype
    _field(76, "<4f", st.tuples(_FLOAT32, _FLOAT32, _FLOAT32, _FLOAT32)),  # pixdim
    _field(108, "<f", (_FLOAT32 | st.integers(340, 480).map(float)).map(lambda v: [v])),  # vox_offset
    _field(112, "<2f", st.tuples(_FLOAT32, _FLOAT32)),  # scl_slope, scl_inter
)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutations=st.lists(_MUTATION, min_size=1, max_size=3), keep=st.none() | st.integers(0, 600))
def test_mutated_header_gives_a_volume_or_nifti_format_error(tmp_path, mutations, keep):
    path = tmp_path / "fuzz.nii"
    write_nifti(path, ScalarVolume(VolumeGrid((3, 4, 5), (1.0, 0.7, 1.3)), np.arange(60.0)))
    blob = bytearray(path.read_bytes())
    for offset, fmt, values in mutations:
        struct.pack_into(fmt, blob, offset, *values)
    path.write_bytes(bytes(blob[:keep]))
    try:
        volume = read_nifti(path)
    except NiftiFormatError:
        return
    assert np.all(np.isfinite(volume.data)) and all(0 < s < np.inf for s in volume.grid.spacing)


# ------------------------------------------------------------------- PGM


def test_slice_constant_maps_to_midpoint():
    g = VolumeGrid((8, 8, 8))
    v = ScalarVolume.full(g, 5.0)
    blob = slice_to_pgm(v, "z", 3, 0.0, 10.0)
    assert blob.startswith(b"P5\n8 8\n255\n")
    assert set(blob[len(b"P5\n8 8\n255\n") :]) == {128}


def test_slice_clamps_window():
    g = VolumeGrid((4, 4, 4))
    data = np.zeros(g.dims)
    data[0, 0, 0] = -10.0  # below window -> 0
    data[1, 0, 0] = 10.0  # above window -> 255
    v = ScalarVolume(g, data)
    pixels = np.frombuffer(slice_to_pgm(v, "z", 0, -1.0, 1.0).split(b"\n", 3)[3], dtype=np.uint8).reshape(4, 4)
    # row = y, column = x
    assert pixels[0, 0] == 0
    assert pixels[0, 1] == 255
    assert pixels[1, 1] == 128  # value 0 at window midpoint


def test_slice_dimensions_and_orientation():
    g = VolumeGrid((6, 4, 5))
    data = np.zeros(g.dims)
    data[2, 3, 1] = 1.0
    v = ScalarVolume(g, data)
    header, rest = slice_to_pgm(v, "z", 1, 0.0, 1.0).split(b"\n255\n", 1)
    assert header == b"P5\n6 4"
    pixels = np.frombuffer(rest, dtype=np.uint8).reshape(4, 6)
    assert pixels[3, 2] == 255  # row y=3, column x=2


def test_slice_errors():
    g = VolumeGrid((4, 4, 4))
    v = ScalarVolume.zeros(g)
    with pytest.raises(ValueError):
        slice_to_pgm(v, "z", 7, 0.0, 1.0)
    with pytest.raises(ValueError):
        slice_to_pgm(v, "w", 0, 0.0, 1.0)
    with pytest.raises(ValueError):
        slice_to_pgm(v, "z", 0, 1.0, 1.0)
    for index in (1.5, 1.0, True):
        with pytest.raises(ValueError, match="must be an integer"):
            slice_to_pgm(v, "x", index, 0.0, 1.0)


def test_writer_rejects_values_beyond_float32_before_opening(tmp_path):
    g = VolumeGrid((4, 4, 4))
    data = np.zeros(g.dims)
    data[1, 2, 3] = -1e306
    path = tmp_path / "big.nii"
    with pytest.raises(ValueError, match="float32"):
        write_nifti(path, ScalarVolume(g, data))
    assert not path.exists()


@pytest.mark.filterwarnings("error")  # the float32 cast must not warn
def test_writer_keeps_values_that_round_to_the_largest_float32(tmp_path):
    # float32's largest value plus half an ulp rounds to inf; anything below it rounds to a finite value
    edge = 2.0**128 - 2.0**103
    g = VolumeGrid((2, 1, 1))
    largest = float(np.finfo(np.float32).max)
    for sign in (1.0, -1.0):
        volume = ScalarVolume(g, np.array([0.0, sign * np.nextafter(edge, 0.0)]))
        require_nifti_volume(tmp_path / "edge.nii", volume)
        write_nifti(tmp_path / "edge.nii", volume)
        assert read_nifti(tmp_path / "edge.nii").data[1, 0, 0] == sign * largest
        path = tmp_path / "over.nii"
        with pytest.raises(ValueError, match="float32"):
            require_nifti_volume(path, ScalarVolume(g, np.array([0.0, sign * edge])))
        with pytest.raises(ValueError, match="float32"):
            write_nifti(path, ScalarVolume(g, np.array([0.0, sign * edge])))
        assert not path.exists()


@pytest.mark.parametrize(
    "dims, spacing, message",
    [
        ((40000, 1, 1), (1.0, 1.0, 1.0), "32767"),  # dim is int16 in the header
        ((4, 4, 4), (1e308, 1.0, 1.0), "pixdim"),  # float32 pixdim would be inf
        ((4, 4, 4), (1.0, 1e-50, 1.0), "pixdim"),  # float32 pixdim would be 0
    ],
    ids=["extent-past-int16", "spacing-past-float32", "spacing-below-float32"],
)
@pytest.mark.filterwarnings("error")  # the float32 cast must not warn
def test_writer_rejects_a_grid_the_header_cannot_hold_before_opening(tmp_path, dims, spacing, message):
    grid = VolumeGrid(dims, spacing)
    with pytest.raises(ValueError, match=message):
        require_nifti_grid(grid)
    path = tmp_path / "grid.nii"
    with pytest.raises(ValueError, match=message):
        write_nifti(path, ScalarVolume.zeros(grid))
    assert not path.exists()


def test_header_holds_the_largest_extent_and_float32_spacings(tmp_path):
    grid = VolumeGrid((32767, 1, 2), (3.4e38, 1e-44, 1.0))
    require_nifti_grid(grid)
    write_nifti(tmp_path / "edge.nii", ScalarVolume.zeros(grid))
    back = read_nifti(tmp_path / "edge.nii")
    assert back.grid.dims == grid.dims
    assert back.grid.spacing[0] == np.float32(3.4e38) and back.grid.spacing[1] > 0
