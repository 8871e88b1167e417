import argparse
import ast
import contextlib
import io
import json
import math
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import qsmkit
from qsmkit import cli
from qsmkit.cli import main
from qsmkit.core import ScalarVolume, VolumeGrid
from qsmkit.io import read_nifti, write_nifti

from conftest import child_env


def _phantom_config(tmp_path, dims=32, radius=6.0, chi=0.1, mask_radius=12.0):
    return {
        "grid": {"dims": [dims, dims, dims], "spacing": [1.0, 1.0, 1.0]},
        "phantom": {
            "background": 0.0,
            "shapes": [{"kind": "sphere", "center": [0, 0, 0], "size": [radius], "chi": chi}],
        },
        "mask": {"shapes": [{"kind": "sphere", "center": [0, 0, 0], "size": [mask_radius]}]},
    }


def _write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def _run_phantom(tmp_path, cfg=None):
    cfg = cfg or _phantom_config(tmp_path)
    config = _write_config(tmp_path, cfg)
    rc = main(
        [
            "phantom",
            "--config",
            config,
            "--out-chi",
            str(tmp_path / "chi.nii"),
            "--out-magnitude",
            str(tmp_path / "mag.nii"),
            "--out-mask",
            str(tmp_path / "mask.nii"),
        ]
    )
    assert rc == 0
    return tmp_path


def test_phantom_writes_three_matching_volumes(tmp_path):
    _run_phantom(tmp_path)
    chi = read_nifti(tmp_path / "chi.nii")
    mag = read_nifti(tmp_path / "mag.nii")
    mask = read_nifti(tmp_path / "mask.nii")
    assert chi.grid.dims == (32, 32, 32)
    assert chi.grid.compatible(mag.grid) and chi.grid.compatible(mask.grid)
    assert set(np.unique(mask.data)) <= {0.0, 1.0}
    assert mag.data.max() == 1.0


def test_phantom_header_contract(tmp_path):
    cfg = _phantom_config(tmp_path, dims=64)
    _run_phantom(tmp_path, cfg)
    blob = (tmp_path / "chi.nii").read_bytes()
    import struct

    dim = struct.unpack_from("<8h", blob, 40)
    pixdim = struct.unpack_from("<8f", blob, 76)
    assert dim == (3, 64, 64, 64, 1, 1, 1, 1)
    assert pixdim[1:4] == (1.0, 1.0, 1.0)


def test_phantom_invalid_shape_exits_2(tmp_path, capsys):
    cfg = _phantom_config(tmp_path, radius=-3.0)
    config = _write_config(tmp_path, cfg)
    rc = main(["phantom", "--config", config, "--out-chi", str(tmp_path / "c.nii")])
    assert rc == 2
    assert "size" in capsys.readouterr().err


def _run_simulate(tmp_path, sigma=0.0, seed=0, bvecs=("0,0,1", "0,0.5,0.8660254037844387")):
    args = [
        "simulate",
        "--chi",
        str(tmp_path / "chi.nii"),
        "--magnitude",
        str(tmp_path / "mag.nii"),
        "--mask",
        str(tmp_path / "mask.nii"),
        "--sigma",
        str(sigma),
        "--seed",
        str(seed),
        "--out-dir",
        str(tmp_path / "sim"),
    ]
    for b in bvecs:
        args += ["--bvec", b]
    rc = main(args)
    assert rc == 0
    return tmp_path / "sim"


def test_simulate_writes_volumes_and_sidecar(tmp_path):
    _run_phantom(tmp_path)
    sim = _run_simulate(tmp_path, bvecs=("0,0,1", "0,0.5,0.8660254037844387", "1,0,0"))
    sidecar = json.loads((sim / "dataset.json").read_text())
    assert len(sidecar["entries"]) == 3
    for entry in sidecar["entries"]:
        assert (sim / entry["phase"]).exists()
        assert (sim / entry["magnitude"]).exists()
    assert (sim / sidecar["mask"]).exists()


def test_simulate_deterministic_and_seed_irrelevant_at_sigma_zero(tmp_path):
    _run_phantom(tmp_path)
    a = _run_simulate(tmp_path, sigma=0.0, seed=1)
    blob_a = (a / "phase_000.nii").read_bytes()
    b = _run_simulate(tmp_path, sigma=0.0, seed=2)
    assert (b / "phase_000.nii").read_bytes() == blob_a  # seed irrelevant at sigma=0

    c = _run_simulate(tmp_path, sigma=0.01, seed=5)
    blob_c = (c / "phase_000.nii").read_bytes()
    d = _run_simulate(tmp_path, sigma=0.01, seed=5)
    assert (d / "phase_000.nii").read_bytes() == blob_c  # bit-identical re-run


def test_invert_unknown_algorithm_exits_2(tmp_path, capsys):
    _run_phantom(tmp_path)
    rc = main(
        [
            "invert",
            "--algo",
            "magic",
            "--phase",
            str(tmp_path / "chi.nii"),
            "--bvec",
            "0,0,1",
            "--mask",
            str(tmp_path / "mask.nii"),
            "--out",
            str(tmp_path / "o.nii"),
        ]
    )
    assert rc == 2
    assert "magic" in capsys.readouterr().err


def test_missing_input_exits_2_with_path(tmp_path, capsys):
    rc = main(
        [
            "invert",
            "--algo",
            "tkd",
            "--phase",
            str(tmp_path / "nope.nii"),
            "--bvec",
            "0,0,1",
            "--mask",
            str(tmp_path / "nope_mask.nii"),
            "--out",
            str(tmp_path / "o.nii"),
        ]
    )
    assert rc == 2
    assert "nope" in capsys.readouterr().err


def test_tkd_rejects_multiple_orientations(tmp_path, capsys):
    _run_phantom(tmp_path)
    sim = _run_simulate(tmp_path)
    rc = main(
        [
            "invert",
            "--algo",
            "tkd",
            "--dataset",
            str(sim / "dataset.json"),
            "--mask",
            str(tmp_path / "mask.nii"),
            "--out",
            str(tmp_path / "o.nii"),
        ]
    )
    assert rc == 2
    assert "one orientation" in capsys.readouterr().err


def test_non_unit_bvec_exits_2(tmp_path, capsys):
    _run_phantom(tmp_path)
    capsys.readouterr()
    for bvec in ("0,0,2", "nan,0,1"):
        rc = main(
            [
                "invert",
                "--algo",
                "tkd",
                "--phase",
                str(tmp_path / "chi.nii"),
                "--bvec",
                bvec,
                "--mask",
                str(tmp_path / "mask.nii"),
                "--out",
                str(tmp_path / "o.nii"),
            ]
        )
        assert rc == 2, bvec
        assert "unit-norm" in _one_line_error(capsys)
        assert not (tmp_path / "o.nii").exists()


def test_metrics_reports_json_with_mask_name(tmp_path, capsys):
    _run_phantom(tmp_path)
    sim = _run_simulate(tmp_path, bvecs=("0,0,1",))
    rc = main(
        [
            "invert",
            "--algo",
            "tkd",
            "--dataset",
            str(sim / "dataset.json"),
            "--mask",
            str(tmp_path / "mask.nii"),
            "--out",
            str(tmp_path / "rec.nii"),
        ]
    )
    assert rc == 0
    capsys.readouterr()  # drain the invert command's output
    rc = main(
        [
            "metrics",
            "--x",
            str(tmp_path / "rec.nii"),
            "--ref",
            str(tmp_path / "chi.nii"),
            "--mask",
            str(tmp_path / "mask.nii"),
            "--dataset",
            str(sim / "dataset.json"),
        ]
    )
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report) >= {"nrmse", "ssim", "data_consistency", "mask", "x", "ref"}
    assert report["mask"].endswith("mask.nii")
    assert 0.0 <= report["nrmse"] <= 2.0


@pytest.mark.filterwarnings("error")  # a warning would print lines of its own on the CLI's stderr
def test_metrics_on_an_empty_mask_exits_1_with_one_line(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _run_phantom(tmp_path, _phantom_config(tmp_path, dims=16, radius=3.0, mask_radius=6.0))
    write_nifti(tmp_path / "empty.nii", ScalarVolume.zeros(VolumeGrid((16, 16, 16))))
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    assert main(["metrics", "--x", "chi.nii", "--ref", "chi.nii", "--mask", "empty.nii", "--out", "r.json"]) == 1
    assert "mask is empty" in _one_line_error(capsys)
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("flag", [["--phase", "chi.nii"], ["--magnitude", "chi.nii"], ["--bvec", "0,0,1"]])
def test_metrics_refuses_the_data_flags_it_would_ignore(flag, capsys):
    # metrics reads a dataset only from --dataset; invert's repeatable flags are usage errors here
    assert main(["metrics", "--x", "chi.nii", "--ref", "chi.nii", "--mask", "mask.nii", *flag]) == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in _one_line_error(capsys)


def test_slice_command(tmp_path):
    _run_phantom(tmp_path)
    out = tmp_path / "s.pgm"
    rc = main(
        ["slice", "--volume", str(tmp_path / "chi.nii"), "--axis", "z", "--index", "16",
         "--window-min", "0", "--window-max", "0.1", "--out", str(out)]
    )
    assert rc == 0
    assert out.read_bytes().startswith(b"P5\n32 32\n255\n")

    rc = main(
        ["slice", "--volume", str(tmp_path / "chi.nii"), "--axis", "z", "--index", "99",
         "--window-min", "0", "--window-max", "0.1", "--out", str(out)]
    )
    assert rc == 1  # runtime failure: index out of range


def test_unwrap_smv_invert_chain(tmp_path):
    _run_phantom(tmp_path)
    sim = _run_simulate(tmp_path, bvecs=("0,0,1",))
    rc = main(
        ["unwrap", "--phase", str(sim / "phase_000.nii"), "--mask", str(tmp_path / "mask.nii"),
         "--out", str(tmp_path / "unwrapped.nii")]
    )
    assert rc == 0
    rc = main(
        ["smv", "--phase", str(tmp_path / "unwrapped.nii"), "--mask", str(tmp_path / "mask.nii"),
         "--out", str(tmp_path / "tissue.nii"), "--reliable-mask-out", str(tmp_path / "reliable.nii"),
         "--smv-radius", "4", "--smv-threshold", "0.01"]
    )
    assert rc == 0
    rc = main(
        ["invert", "--algo", "ndi", "--phase", str(tmp_path / "tissue.nii"),
         "--magnitude", str(sim / "magnitude_000.nii"), "--bvec", "0,0,1",
         "--mask", str(tmp_path / "reliable.nii"), "--out", str(tmp_path / "chi_ndi.nii"),
         "--ndi-iters", "40", "--ndi-step", "0.8", "--ndi-lambda", "0.001",
         "--history-out", str(tmp_path / "history.csv")]
    )
    assert rc == 0
    history = (tmp_path / "history.csv").read_text().strip().splitlines()
    assert history[0] == "iteration,cost"
    assert len(history) == 41
    costs = [float(line.split(",")[1]) for line in history[1:]]
    assert all(b <= a for a, b in zip(costs, costs[1:]))
    rec = read_nifti(tmp_path / "chi_ndi.nii")
    assert rec.grid.dims == (32, 32, 32)


def test_config_file_supplies_defaults(tmp_path):
    _run_phantom(tmp_path)
    sim = _run_simulate(tmp_path, bvecs=("0,0,1",))
    cfg = {
        "algo": "l2",
        "dataset": str(sim / "dataset.json"),
        "mask": str(tmp_path / "mask.nii"),
        "out": str(tmp_path / "cfg_out.nii"),
        "l2_lambda": 0.05,
    }
    rc = main(["invert", "--config", _write_config(tmp_path, cfg, "invert.json")])
    assert rc == 0
    assert (tmp_path / "cfg_out.nii").exists()


def _small_dataset(tmp_path):
    """An 8^3 phantom with one noisy orientation; returns the sidecar path."""
    _run_phantom(tmp_path, _phantom_config(tmp_path, dims=8, radius=2.0, mask_radius=3.5))
    return _run_simulate(tmp_path, sigma=0.01, seed=1, bvecs=("0,0,1",)) / "dataset.json"


def _invert(tmp_path, dataset, *flags):
    return main(
        ["invert", "--dataset", str(dataset), "--mask", str(tmp_path / "mask.nii"),
         "--out", str(tmp_path / "out.nii"), *flags]
    )


def _one_line_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


def test_ndi_divergence_exits_1(tmp_path, capsys):
    dataset = _small_dataset(tmp_path)
    capsys.readouterr()
    rc = _invert(tmp_path, dataset, "--algo", "ndi",
                 "--ndi-step", "1e154", "--ndi-lambda", "0.5", "--ndi-iters", "5")
    assert rc == 1
    assert "iteration" in _one_line_error(capsys)
    assert not (tmp_path / "out.nii").exists()


@pytest.mark.parametrize(
    "flags",
    [
        ("--algo", "ndi", "--ndi-iters", "0"),
        ("--algo", "ndi", "--ndi-step", "0"),
        ("--algo", "ndi", "--ndi-lambda", "-1"),
        ("--algo", "tkd", "--tkd-delta", "5"),
        ("--algo", "l2", "--l2-lambda", "-1"),
        ("--algo", "cosmos", "--cosmos-eps", "0"),
        ("--algo", "ndi", "--ndi-step", "nan"),
        ("--algo", "ndi", "--ndi-lambda", "inf"),
        ("--algo", "l2", "--l2-lambda", "nan"),
        ("--algo", "cosmos", "--cosmos-eps", "nan"),
    ],
    ids=["ndi-iters-0", "ndi-step-0", "ndi-lambda-negative", "tkd-delta-5", "l2-lambda-negative",
         "cosmos-eps-0", "ndi-step-nan", "ndi-lambda-inf", "l2-lambda-nan", "cosmos-eps-nan"],
)
def test_invalid_solver_option_exits_2(tmp_path, capsys, flags):
    dataset = _small_dataset(tmp_path)
    capsys.readouterr()
    assert _invert(tmp_path, dataset, *flags) == 2
    assert flags[1] in _one_line_error(capsys)


def test_reference_without_history_out_exits_2(tmp_path, capsys):
    # the reference feeds only the history's nrmse column: alone it would be read and ignored
    dataset = _small_dataset(tmp_path)
    capsys.readouterr()
    rc = _invert(tmp_path, dataset, "--algo", "ndi", "--ndi-iters", "3", "--reference", str(tmp_path / "chi.nii"))
    assert rc == 2
    assert "reference" in _one_line_error(capsys)
    assert not (tmp_path / "out.nii").exists()


@pytest.mark.parametrize("flag", [("--phase", "chi.nii"), ("--magnitude", "mag.nii"), ("--bvec", "1,0,0")])
def test_invert_refuses_a_dataset_with_the_flags_it_would_ignore(tmp_path, capsys, monkeypatch, flag):
    # the sidecar lists every input: --phase, --magnitude and --bvec beside it would be read and ignored
    monkeypatch.chdir(tmp_path)
    dataset = _small_dataset(tmp_path)
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    assert _invert(tmp_path, dataset, "--algo", "cosmos", *flag) == 2
    assert "--dataset" in _one_line_error(capsys)
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("algo", ["tkd", "cosmos", "l2"])
@pytest.mark.parametrize("flags", [("--history-out", "h.csv"), ("--reference", "chi.nii"),
                                   ("--history-out", "h.csv", "--reference", "chi.nii")])
def test_invert_refuses_history_options_for_an_algorithm_other_than_ndi(tmp_path, capsys, monkeypatch,
                                                                        algo, flags):
    # only NDI records a history: any other algorithm would write no CSV and exit 0
    monkeypatch.chdir(tmp_path)
    dataset = _small_dataset(tmp_path)
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    assert _invert(tmp_path, dataset, "--algo", algo, *flags) == 2
    assert f"--algo ndi, not {algo}" in _one_line_error(capsys)
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize(
    "flags",
    [
        ("--smv-radius", "inf"),
        ("--smv-radius", "nan"),
        ("--smv-radius", "-1"),
        ("--smv-radius", "0"),
        ("--smv-threshold", "2"),
    ],
    ids=["radius-inf", "radius-nan", "radius-negative", "radius-0", "threshold-2"],
)
def test_invalid_smv_option_exits_2(tmp_path, capsys, flags):
    _run_phantom(tmp_path, _phantom_config(tmp_path, dims=8, radius=2.0, mask_radius=3.5))
    capsys.readouterr()
    rc = main(["smv", "--phase", str(tmp_path / "chi.nii"), "--mask", str(tmp_path / "mask.nii"),
               "--out", str(tmp_path / "tissue.nii"), *flags])
    assert rc == 2
    assert "smv options" in _one_line_error(capsys)
    assert not (tmp_path / "tissue.nii").exists()


def test_non_numeric_solver_option_in_config_exits_2(tmp_path, capsys):
    dataset = _small_dataset(tmp_path)
    capsys.readouterr()
    config = _write_config(tmp_path, {"ndi_iters": "many"}, "invert.json")
    assert _invert(tmp_path, dataset, "--algo", "ndi", "--config", config) == 2
    assert "many" in _one_line_error(capsys)


@pytest.mark.parametrize(
    "text, message",
    [
        ('[{"phase": "phase_000.nii"}]', "top level must be a JSON object"),
        ('{"entries": [{"phase": "phase_000.nii", "orientation": [0, 0, 1]}]}', "'magnitude'"),
        ('{"entries": [', "invalid JSON"),
        ('{"entries": ' + "[" * 100_000 + "]" * 100_000 + "}", "invalid JSON"),
        ('{"entries": [{"phase": "phase_000.nii", "magnitude": "magnitude_000.nii", '
         '"orientation": [false, false, true]}]}', "orientation must be 3 numbers"),
        ('{"entries": [{"phase": "phase_000.nii", "magnitude": "magnitude_000.nii", '
         '"orientation": [0, 0, 1' + "0" * 400 + "]}]}", "orientation must be 3 numbers"),
        ('{"entries": [{"phase": "phase_000.nii", "magnitude": "magnitude_000.nii", '
         '"orientation": [1e300, 1e300, 0]}]}', "unit-norm"),
    ],
    ids=["top-level-list", "entry-missing-magnitude", "invalid-json", "nested-too-deep",
         "orientation-booleans", "orientation-overflow", "orientation-norm-overflow"],
)
@pytest.mark.filterwarnings("error")  # a warning would print lines of its own on the CLI's stderr
def test_malformed_sidecar_exits_2_naming_it(tmp_path, capsys, text, message):
    dataset = _small_dataset(tmp_path)
    sidecar = dataset.parent / "broken.json"
    sidecar.write_text(text)
    capsys.readouterr()
    assert _invert(tmp_path, sidecar, "--algo", "tkd") == 2
    err = _one_line_error(capsys)
    assert str(sidecar) in err and message in err


@pytest.fixture(scope="module")
def sidecar_dir(tmp_path_factory):
    """An 8^3 dataset plus volumes a sidecar may wrongly name: another grid, a
    negative magnitude, a file that is not NIfTI."""
    root = tmp_path_factory.mktemp("sidecars")
    sim = _small_dataset(root).parent
    write_nifti(sim / "other_grid.nii", ScalarVolume.zeros(VolumeGrid((6, 6, 6))))
    write_nifti(sim / "negative.nii", ScalarVolume.full(VolumeGrid((8, 8, 8)), -1.0))
    (sim / "text.nii").write_text("not a volume\n")
    return sim


_ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(10**300, 10**400) | st.floats()
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
_BAD_FILE_NAME = st.sampled_from(["other_grid.nii", "negative.nii", "text.nii", "missing.nii",
                                  "", ".", "dataset.json"])
_BAD_ORIENTATION = (
    st.sampled_from([[0, 0, 2], [0, 0, 0], [0, 0, 1, 0], [[0, 0, 1]], "0,0,1", [1e300, 1e300, 0]])
    | st.lists(st.integers() | st.integers(10**300, 10**400) | st.floats() | st.booleans(),
               min_size=3, max_size=3)
)


@st.composite
def _sidecars(draw):
    """Mostly a valid sidecar with up to two entry values dropped or swapped for
    bad ones; else any JSON as the sidecar or as its entries."""
    form = draw(st.sampled_from(["near-valid"] * 3 + ["any-entries", "any"]))
    if form == "any":
        return draw(_ANY_JSON)
    if form == "any-entries":
        return {"entries": draw(_ANY_JSON)}
    entries = [{"phase": "phase_000.nii", "magnitude": "magnitude_000.nii", "orientation": b}
               for b in ([0, 0, 1], [0, 0.6, 0.8], [1.0, 0.0, 0.0])[: draw(st.integers(1, 3))]]
    for _ in range(draw(st.integers(0, 2))):
        entry = draw(st.sampled_from(entries))
        key = draw(st.sampled_from(sorted(entry)))
        bad = _BAD_ORIENTATION if key == "orientation" else _BAD_FILE_NAME
        value = draw(st.none() | bad | _ANY_JSON)
        if value is None:
            del entry[key]
        else:
            entry[key] = value
    return {"entries": entries, **draw(st.dictionaries(st.sampled_from(["mask", "seed"]), _ANY_JSON))}


@settings(max_examples=300, deadline=None)
@given(sidecar=_sidecars(), algo=st.sampled_from(["tkd", "cosmos", "ndi"]),
       mask=st.sampled_from(["mask.nii", "mask.nii", "other_grid.nii", "negative.nii"]))  # valid: 1/2
def test_fuzzed_sidecar_exits_0_1_or_2_with_one_error_line(sidecar_dir, sidecar, algo, mask):
    path = sidecar_dir / "fuzz.json"
    path.write_text(json.dumps(sidecar))
    out, err = io.StringIO(), io.StringIO()
    # a warning would print lines of its own on the CLI's stderr
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["invert", "--algo", algo, "--dataset", str(path), "--mask", str(sidecar_dir / mask),
                   "--out", str(sidecar_dir / "fuzz_out.nii"), "--ndi-iters", "2"])
    event(f"exit {rc}")
    assert rc in (0, 1, 2)
    message = err.getvalue()
    if rc == 0:
        assert message == ""
    else:
        assert message.startswith("error: ") and message.count("\n") == 1, message
        assert "Traceback" not in message


def test_sidecar_volume_on_another_grid_exits_1_naming_the_grids(sidecar_dir, capsys):
    sidecar = sidecar_dir / "other_grid.json"
    sidecar.write_text(json.dumps({"entries": [
        {"phase": "other_grid.nii", "magnitude": "magnitude_000.nii", "orientation": [0, 0, 1]}]}))
    capsys.readouterr()
    rc = main(["invert", "--algo", "tkd", "--dataset", str(sidecar), "--mask",
               str(sidecar_dir / "mask.nii"), "--out", str(sidecar_dir / "other_grid_out.nii")])
    assert rc == 1
    assert "grids differ" in _one_line_error(capsys)


_SLICE = ["slice", "--volume", "chi.nii", "--axis", "z", "--out", "slice.pgm"]


@pytest.mark.parametrize(
    "argv, config",
    [
        (["phantom"], '{"grid": {"dims": [8, 8, 8]}, "phantom": [1, 2]}'),
        (["phantom"], '{"grid": {"dims": [8, 8, 8]}, "mask": [1]}'),
        (["phantom"], '{"grid": {"dims": [8, 8, 8]}, "mask": {"shapes": [3]}}'),
        (["phantom"], '{"grid": {"dims": [8, 8, 8]}, "outputs": ["out_chi"]}'),
        (["phantom"], '{"grid": {"dims": [8, 8, 8]}, "magnitude_inside": "high"}'),
        (["phantom"], '{"grid": {"dims": [8, 8, 8]}, "phantom": {"background": "none"}}'),
        (["phantom"], '{"grid": {"dims": [1e400, 8, 8]}}'),
        (["simulate"], '{"orientations": 5}'),
        (["simulate"], '{"orientations": [[0, 0, 1]], "seed": 1e400}'),
        (["simulate"], '{"orientations": [[0, 0, 1]], "seed": "one"}'),
        (["simulate"], '{"orientations": [[0, 0, 1]], "sigma": "low"}'),
        (["invert", "--algo", "tkd"], '{"phase_scale": "big"}'),
        (["invert", "--algo", "ndi"], '{"ndi_iters": 1e400}'),
        (_SLICE, '{"index": "mid", "window_min": 0, "window_max": 1}'),
        (_SLICE, '{"index": 2, "window_min": "low", "window_max": 1}'),
        (_SLICE, '{"index": 2, "window_min": 0, "window_max": [1]}'),
        (["simulate"], '{"orientations": [[0, 0, 1]], "out_dir": 5}'),
        (["unwrap"], '{"out": ["x"]}'),
        (["unwrap"], '{"out": 7}'),
        (["slice", "--volume", "chi.nii", "--out", "slice.pgm"],
         '{"axis": ["z"], "index": 2, "window_min": 0, "window_max": 1}'),
        (["invert"], '{"algo": ["ndi"]}'),
        (["phantom"], '{"grid": {"dims": [8, 8, 8]}, "magnitude_inside": NaN}'),
        (["phantom"], '{"grid": {"dims": [8, 8, 8]}, "phantom": {"background": Infinity}}'),
        (["phantom"], '{"grid": {"dims": [8, 8, 8]}, '
                      '"phantom": {"shapes": [{"kind": "sphere", "center": [NaN, 0, 0], "size": [2]}]}}'),
        (["simulate"], '{"orientations": [[0, 0, 1]], "sigma": -1}'),
        (["phantom"], '{"grid": {"dims": [8, true, 8]}}'),
        (["phantom"], '{"grid": {"dims": [8, 8, 8], "spacing": [1, 1, true]}}'),
        (["phantom"], '{"grid": {"dims": [8, 8, 8]}, "magnitude_inside": true}'),
        (["phantom"], '{"grid": {"dims": [8, 8, 8]}, "phantom": {"background": false}}'),
        (["phantom"], '{"grid": {"dims": [8, 8, 8]}, '
                      '"phantom": {"shapes": [{"kind": "sphere", "center": [true, 0, 0], "size": [2]}]}}'),
        (["phantom"], '{"grid": {"dims": [8, 8, 8]}, '
                      '"phantom": {"shapes": [{"kind": "sphere", "center": [0, 0, 0], "size": true}]}}'),
        (["phantom"], '{"grid": {"dims": [8, 8, 8]}, '
                      '"phantom": {"shapes": [{"kind": "sphere", "center": [0, 0, 0], "size": [2], '
                      '"chi": true}]}}'),
        (["simulate"], '{"orientations": [[false, false, true]]}'),
        (["simulate"], '{"orientations": [[0, 0, 1]], "seed": true}'),
        (["invert", "--algo", "ndi"], '{"ndi_lambda": true}'),
        (["phantom"], '{"grid": {"dims": [8.7, 8, 8]}}'),
        (["phantom"], '{"grid": {"dims": "888"}}'),
        (["phantom"], '{"grid": {"dims": [8, 8, 8], "spacing": "111"}}'),
        (["phantom"], '{"grid": {"dims": [8, 8, 8]}, '
                      '"phantom": {"shapes": [{"kind": "sphere", "center": "000", "size": [2]}]}}'),
        (["phantom"], '{"grid": {"dims": [40000, 1, 1]}}'),
        (["phantom"], '{"grid": {"dims": [8, 8, 8], "spacing": [1e308, 1, 1]}}'),
        (["phantom"], '{"grid": {"dims": [8, 8, 8], "spacing": [1e-50, 1, 1]}}'),
        (["phantom"], '{"grid": {"dims": [1000000, 1000000, 1]}}'),
        (["simulate"], '{"orientations": []}'),
        (["phantom"], '{"grid": {"dims": [8, 8, 8]}, '
                      '"phantom": {"shapes": [{"kind": "sphere", "center": [0, 0], "size": [2]}]}}'),
    ],
    ids=["phantom-list", "mask-list", "mask-shape-number", "outputs-list", "magnitude-inside-text",
         "background-text", "grid-dim-overflow", "orientations-number", "seed-overflow",
         "seed-text", "sigma-text", "phase-scale-text", "ndi-iters-overflow", "slice-index-text",
         "slice-window-min-text", "slice-window-max-list", "out-dir-number", "unwrap-out-list",
         "unwrap-out-number", "slice-axis-list", "algo-list", "magnitude-inside-nan",
         "background-inf", "shape-center-nan", "sigma-negative", "grid-dim-boolean",
         "grid-spacing-boolean", "magnitude-inside-boolean", "background-boolean",
         "shape-center-boolean", "shape-size-boolean", "shape-chi-boolean",
         "orientation-booleans", "seed-boolean", "ndi-lambda-boolean", "grid-dim-fraction",
         "grid-dims-text", "grid-spacing-text", "shape-center-text", "grid-dim-past-int16",
         "grid-spacing-past-float32", "grid-spacing-below-float32", "grid-past-memory",
         "orientations-empty", "shape-center-two-coordinates"],
)
def test_malformed_config_exits_2(tmp_path, capsys, monkeypatch, argv, config):
    dataset = _small_dataset(tmp_path)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.json").write_text(config)
    io_options = {
        "phantom": {"out_chi": "new_chi.nii"},
        "simulate": {"chi": "chi.nii", "magnitude": "mag.nii", "mask": "mask.nii", "out_dir": "new_sim"},
        "unwrap": {"phase": "chi.nii", "mask": "mask.nii", "out": "out.nii"},
        "invert": {"dataset": str(dataset), "mask": "mask.nii", "out": "out.nii"},
        "slice": {},
    }[argv[0]]
    # a flag would win over the config value under test
    io_flags = [arg for key, value in io_options.items() if key not in json.loads(config)
                for arg in ("--" + key.replace("_", "-"), value)]
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    assert main([*argv, *io_flags, "--config", "bad.json"]) == 2
    assert sorted(tmp_path.rglob("*")) == before
    err = _one_line_error(capsys)
    assert "Traceback" not in err
    assert not any((tmp_path / name).exists() for name in ("new_chi.nii", "new_sim", "out.nii", "slice.pgm"))


def test_smv_radius_past_the_volume_erodes_everything(tmp_path, capsys):
    _run_phantom(tmp_path, _phantom_config(tmp_path, dims=8, radius=2.0, mask_radius=3.5))
    capsys.readouterr()
    rc = main(["smv", "--phase", str(tmp_path / "chi.nii"), "--mask", str(tmp_path / "mask.nii"),
               "--out", str(tmp_path / "tissue.nii"), "--reliable-mask-out",
               str(tmp_path / "reliable.nii"), "--smv-radius", "1e9"])
    assert rc == 0
    assert capsys.readouterr().err == ""
    assert not np.any(read_nifti(tmp_path / "reliable.nii").data)
    assert not np.any(read_nifti(tmp_path / "tissue.nii").data)


def test_smv_radius_reaching_no_neighbour_exits_1_and_writes_nothing(tmp_path, capsys):
    _run_phantom(tmp_path, _phantom_config(tmp_path, dims=8, radius=2.0, mask_radius=3.5))
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    rc = main(["smv", "--phase", str(tmp_path / "chi.nii"), "--mask", str(tmp_path / "mask.nii"),
               "--out", str(tmp_path / "tissue.nii"), "--reliable-mask-out",
               str(tmp_path / "reliable.nii"), "--smv-radius", "0.5"])
    assert rc == 1
    assert "SMV radius 0.5 mm" in _one_line_error(capsys)
    assert sorted(tmp_path.rglob("*")) == before


def test_malformed_qsm_threads_exits_2(tmp_path, capsys, monkeypatch):
    dataset = _small_dataset(tmp_path)
    capsys.readouterr()
    for value in ("abc", "-2"):
        monkeypatch.setenv("QSM_THREADS", value)
        assert _invert(tmp_path, dataset, "--algo", "tkd") == 2, value
        assert "QSM_THREADS" in _one_line_error(capsys)
        assert not (tmp_path / "out.nii").exists()


def test_chi_beyond_float32_exits_1_without_writing(tmp_path, capsys):
    # the solve ends finite near 1e306, which float32 cannot hold
    dataset = _small_dataset(tmp_path)
    capsys.readouterr()
    rc = _invert(tmp_path, dataset, "--algo", "ndi",
                 "--ndi-step", "1e305", "--ndi-lambda", "0", "--ndi-iters", "5")
    assert rc == 1
    assert "float32" in _one_line_error(capsys)
    assert not (tmp_path / "out.nii").exists()


@pytest.mark.parametrize("stage", ["phantom", "simulate", "invert-ndi-history"])
def test_stage_with_an_output_beyond_float32_exits_1_and_writes_nothing(tmp_path, capsys, monkeypatch, stage):
    # each stage's first output can be written; a later one cannot
    monkeypatch.chdir(tmp_path)
    small = _phantom_config(tmp_path, dims=8, radius=2.0, mask_radius=3.5)
    if stage == "phantom":
        argv = ["phantom", "--config", _write_config(tmp_path, {**small, "magnitude_inside": 1e300})]
    elif stage == "simulate":
        _run_phantom(tmp_path, small)
        argv = ["simulate", "--chi", "chi.nii", "--magnitude", "mag.nii", "--mask", "mask.nii",
                "--bvec", "0,0,1", "--bvec", "0,1,0", "--sigma", "1e300", "--out-dir", "sim"]
    else:
        argv = ["invert", "--algo", "ndi", "--dataset", str(_small_dataset(tmp_path)), "--mask", "mask.nii",
                "--out", "x.nii", "--ndi-step", "1e35", "--ndi-iters", "3", "--history-out", "h.csv"]
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    assert main(argv) == 1
    assert "float32" in _one_line_error(capsys)
    assert sorted(tmp_path.rglob("*")) == before


_SIMULATE = ["simulate", "--chi", "chi.nii", "--magnitude", "mag.nii", "--mask", "mask.nii", "--bvec", "0,0,1"]
_INVERT = ["invert", "--algo", "ndi", "--dataset", "sim/dataset.json", "--mask", "mask.nii", "--out", "x.nii",
           "--ndi-iters", "2"]


def _fail_if_any_work(monkeypatch):
    """Make the stages' volume reader, phantom painter and NDI solver fail the test if called."""
    for name in ("read_nifti", "make_phantom", "ndi_reconstruct"):
        monkeypatch.setattr(cli, name, lambda *a, **k: pytest.fail("called before the refusal"))


@pytest.mark.parametrize("argv", [
    ["phantom", "--config", "config.json", "--out-mask", "nodir/mask.nii"],
    ["phantom", "--config", "config.json", "--out-chi", "nodir/c.nii"],
    ["smv", "--phase", "chi.nii", "--mask", "mask.nii", "--out", "t.nii", "--reliable-mask-out", "nodir/r.nii"],
    [*_INVERT, "--history-out", "nodir/h.csv"],
    ["invert", "--algo", "ndi", "--dataset", "sim/dataset.json", "--mask", "mask.nii", "--out", "nodir/x.nii"],
    ["metrics", "--x", "chi.nii", "--ref", "chi.nii", "--mask", "mask.nii", "--out", "nodir/r.json"],
    ["slice", "--volume", "chi.nii", "--axis", "z", "--index", "1", "--window-min", "0", "--window-max", "1",
     "--out", "nodir/s.pgm"],
    ["unwrap", "--phase", "chi.nii", "--mask", "mask.nii", "--out", "sim"],
    ["phantom", "--config", "config.json", "--out-mask", ""],
    [*_INVERT, "--history-out", "h\0.csv"],
    [*_SIMULATE, "--prefix", "sub/", "--out-dir", "new"],
    [*_SIMULATE, "--out-dir", "chi.nii"],
    [*_SIMULATE, "--out-dir", "chi.nii/sub"],
], ids=["missing-directory", "phantom-chi", "smv-reliable-mask", "invert-history", "invert-out", "metrics-out",
        "slice-out", "existing-directory", "empty-name", "null-byte", "simulate-prefix-directory",
        "simulate-out-dir-file", "simulate-out-dir-under-file"])
def test_stage_with_an_unwritable_output_path_exits_1_and_writes_nothing(tmp_path, capsys, monkeypatch, argv):
    # a declared output or --out-dir is refused before any input is read; simulate names its own
    # files under --out-dir with --prefix, so those are refused after the simulation but before any
    # write or directory
    monkeypatch.chdir(tmp_path)
    _small_dataset(tmp_path)  # config.json, chi.nii, mag.nii, mask.nii and sim/
    if "--prefix" not in argv:
        _fail_if_any_work(monkeypatch)
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    assert main(argv) == 1
    message = _one_line_error(capsys)
    assert sorted(tmp_path.rglob("*")) == before
    assert "cannot write" in message


@pytest.mark.parametrize("argv", [
    ["phantom", "--config", "config.json", "--out-chi", "a.nii", "--out-magnitude", "b.nii", "--out-mask", "./a.nii"],
    [*_INVERT, "--history-out", "x.nii"],
    ["smv", "--phase", "chi.nii", "--mask", "mask.nii", "--out", "t.nii", "--reliable-mask-out", "t.nii"],
], ids=["phantom", "invert", "smv"])
def test_stage_with_two_outputs_at_one_path_exits_2_and_writes_nothing(tmp_path, capsys, monkeypatch, argv):
    # the second write would replace the first, so the stage would lose an output and still exit 0
    monkeypatch.chdir(tmp_path)
    _small_dataset(tmp_path)
    _fail_if_any_work(monkeypatch)
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    assert main(argv) == 2
    assert "two outputs at one path" in _one_line_error(capsys)
    assert sorted(tmp_path.rglob("*")) == before


_NO_DATA = ["invert", "--algo", "ndi", "--mask", "mask.nii", "--out", "x.nii"]
_PHASE = ["--phase", "sim/phase_000.nii", "--bvec", "0,0,1"]


@pytest.mark.parametrize("argv, code, message", [
    (["phantom", "--config", "nope.json"], 2, "config file not found: nope.json"),
    (_NO_DATA, 2, "no input data"),
    ([*_NO_DATA, *_PHASE, "--phase", "sim/phase_000.nii"], 2, "2 --phase flags but 1 --bvec flags"),
    ([*_NO_DATA, *_PHASE, "--magnitude", "mag.nii", "--magnitude", "mag.nii"], 2,
     "1 --phase flags but 2 --magnitude flags"),
    (["invert", "--algo", "ndi", "--dataset", "sim/dataset.json", "--mask", "empty.nii", "--out", "x.nii"], 1,
     "dataset mask is empty"),
    (["simulate", "--chi", "chi.nii", "--magnitude", "negative.nii", "--mask", "mask.nii", "--bvec", "0,0,1",
      "--out-dir", "new"], 1, "magnitude must be non-negative"),
    (["metrics", "--x", "chi.nii", "--ref", "constant.nii", "--mask", "mask.nii", "--out", "r.json"], 1,
     "reference is constant inside the mask"),
    ([*_INVERT, "--history-out", "h.csv", "--reference", "constant.nii"], 1,
     "NRMSE reference is constant inside the mask"),
], ids=["config-not-found", "no-input-data", "phase-bvec-count", "phase-magnitude-count", "empty-mask",
        "negative-magnitude", "metrics-constant-reference", "invert-constant-reference"])
def test_refused_stage_exits_with_one_line_and_writes_nothing(tmp_path, capsys, monkeypatch, argv, code, message):
    monkeypatch.chdir(tmp_path)
    _small_dataset(tmp_path)
    grid = read_nifti("mask.nii").grid
    for name, value in [("empty.nii", 0.0), ("negative.nii", -1.0), ("constant.nii", 0.05)]:
        write_nifti(name, ScalarVolume.full(grid, value))
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    assert main(argv) == code
    assert message in _one_line_error(capsys)
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("out_dir", ["sim/", "a/b"])
def test_simulate_makes_its_out_dir_and_names_every_file_it_wrote(tmp_path, capsys, monkeypatch, out_dir):
    monkeypatch.chdir(tmp_path)
    _run_phantom(tmp_path, _phantom_config(tmp_path, dims=8, radius=2.0, mask_radius=3.5))
    capsys.readouterr()
    assert main([*_SIMULATE, "--out-dir", out_dir]) == 0
    names = ["mask.nii", "phase_000.nii", "magnitude_000.nii", "dataset.json"]
    written = [str(Path(out_dir) / name) for name in names]
    assert capsys.readouterr() == (f"wrote {', '.join(written)}\n", "")
    assert sorted(p.name for p in Path(out_dir).iterdir()) == sorted(names)


def test_cli_writes_files_only_inside_write_all():
    """Every stage's outputs pass _write_all's checks: no other function in cli.py calls
    write_nifti, makes a directory, or opens a file for writing."""
    writers = set()
    for top in ast.parse(Path(cli.__file__).read_text()).body:
        for call in (node for node in ast.walk(top) if isinstance(node, ast.Call)):
            name = getattr(call.func, "id", getattr(call.func, "attr", None))
            mode = call.args[1] if len(call.args) > 1 else next(
                (k.value for k in call.keywords if k.arg == "mode"), ast.Constant("r"))
            reads = isinstance(mode, ast.Constant) and set(mode.value) <= set("rbt")
            if name in ("write_nifti", "makedirs", "mkdir") or (name == "open" and not reads):
                writers.add(getattr(top, "name", "<module>"))
    assert writers == {"_write_all"}


_SCIPY_LOADED = (
    "import json, sys; "
    "print(json.dumps([m for m in ('scipy.fft', 'scipy.ndimage') if m in sys.modules]))"
)


def _scipy_modules_after(code, cwd):
    """The scipy.fft and scipy.ndimage modules a fresh interpreter holds after running code."""
    proc = subprocess.run([sys.executable, "-c", f"{code}\n{_SCIPY_LOADED}"], cwd=cwd,
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_cli_loads_no_scipy_module(tmp_path):
    assert _scipy_modules_after("import qsmkit.cli", tmp_path) == []


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (["phantom", "--config", "config.json", "--out-chi", "c.nii", "--out-magnitude", "m.nii",
          "--out-mask", "k.nii"], []),
        (["simulate", "--chi", "chi.nii", "--magnitude", "mag.nii", "--mask", "mask.nii",
          "--bvec", "0,0,1", "--out-dir", "again"], ["scipy.fft"]),
        (["unwrap", "--phase", "sim/phase_000.nii", "--mask", "mask.nii", "--out", "u.nii"],
         ["scipy.fft"]),
        (["invert", "--algo", "ndi", "--dataset", "sim/dataset.json", "--mask", "mask.nii",
          "--out", "ndi.nii", "--ndi-iters", "3"], ["scipy.fft"]),
        (["smv", "--phase", "sim/phase_000.nii", "--mask", "mask.nii", "--out", "s.nii",
          "--smv-radius", "2"], ["scipy.fft"]),
        (["metrics", "--x", "chi.nii", "--ref", "chi.nii", "--mask", "mask.nii", "--out", "m.json"],
         ["scipy.ndimage"]),
    ],
    ids=["phantom", "simulate", "unwrap", "invert-ndi", "smv", "metrics"],
)
def test_stage_loads_only_the_scipy_modules_it_calls(tmp_path, argv, loaded):
    _small_dataset(tmp_path)
    _write_config(tmp_path, _phantom_config(tmp_path, dims=8, radius=2.0, mask_radius=3.5))
    code = f"from qsmkit.cli import main\nassert main({argv!r}) == 0"
    assert _scipy_modules_after(code, tmp_path) == loaded


def test_module_entrypoint_help():
    proc = subprocess.run(
        [sys.executable, "-m", "qsmkit.cli", "--help"], capture_output=True, text=True, env=child_env()
    )
    assert proc.returncode == 0
    assert "invert" in proc.stdout
    assert "QSM_THREADS" in proc.stdout


def test_child_env_imports_qsmkit_under_test_from_any_cwd(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", "import qsmkit; print(qsmkit.__file__)"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == str(Path(qsmkit.__file__).resolve())


def test_missing_subcommand_exits_2():
    assert main([]) == 2


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_subcommand_help_lists_every_option(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for key, *_ in cli._COMMANDS[command][2]:
        assert "--" + key.replace("_", "-") in out


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """An 8^3 phantom and a one-orientation dataset, for configs to name by absolute path."""
    root = tmp_path_factory.mktemp("inputs")
    _small_dataset(root)
    return root


def _valid_config(command, algo, inputs):
    """A config giving every option of command a valid value; outputs are relative names.
    invert's history_out and reference are given with algo ndi only, the one algorithm that reads them."""
    volume, mask = str(inputs / "chi.nii"), str(inputs / "mask.nii")
    return {
        "phantom": {"out_chi": "c.nii", "out_magnitude": "m.nii", "out_mask": "k.nii"},
        "simulate": {"chi": volume, "magnitude": str(inputs / "mag.nii"), "mask": mask,
                     "sigma": 0.01, "seed": 3, "out_dir": "sim", "prefix": "p_",
                     "orientations": [[0, 0, 1]]},
        "unwrap": {"phase": str(inputs / "sim" / "phase_000.nii"), "mask": mask, "out": "u.nii"},
        "smv": {"phase": volume, "mask": mask, "out": "t.nii", "reliable_mask_out": "r.nii",
                "smv_radius": 2, "smv_threshold": 0.05},
        "invert": {"algo": algo, "dataset": str(inputs / "sim" / "dataset.json"), "mask": mask,
                   "out": "x.nii", "phase_scale": 1.0, "tkd_delta": 0.2, "cosmos_eps": 1e-6,
                   "l2_lambda": 0.01, "ndi_lambda": 0.001, "ndi_iters": 3, "ndi_step": 1.0,
                   **({"history_out": "h.csv", "reference": volume} if algo == "ndi" else {})},
        "metrics": {"x": volume, "ref": volume, "mask": mask,
                    "dataset": str(inputs / "sim" / "dataset.json"), "out": "r.json"},
        "slice": {"volume": volume, "axis": "z", "index": 4, "window_min": 0, "window_max": 0.1,
                  "out": "s.pgm"},
    }[command]


def _run_config(command, cfg, workdir, monkeypatch):
    """main([command, "--config", ...]) in workdir; phantom's options go under "outputs"."""
    if command == "phantom":
        cfg = {"grid": {"dims": [8, 8, 8]}, "outputs": cfg}
    workdir.mkdir()
    (workdir / "cfg.json").write_text(json.dumps(cfg))
    monkeypatch.chdir(workdir)
    return main([command, "--config", "cfg.json"])


_OPTIONS = [(command, key) for command, row in cli._COMMANDS.items() for key, *_ in row[2]]


@pytest.mark.parametrize("command, algo", [*((c, "ndi") for c in cli._COMMANDS if c != "invert"),
                                           *(("invert", a) for a in cli._SOLVERS)])
def test_valid_config_of_every_option_runs(tmp_path, inputs, capsys, monkeypatch, command, algo):
    cfg = _valid_config(command, algo, inputs)
    written, write_all = [], cli._write_all

    def spy(outputs, *args):
        written.extend(path for path, _ in outputs)
        write_all(outputs, *args)

    monkeypatch.setattr(cli, "_write_all", spy)
    assert _run_config(command, cfg, tmp_path / "run", monkeypatch) == 0
    assert capsys.readouterr().err == ""
    # main checked each declared output before the stage; only simulate names files of its own
    declared = {cfg[key] for key, kind, *_ in cli._COMMANDS[command][2] if kind is cli._output and key in cfg}
    assert written
    for path in written:
        assert path in declared or command == "simulate" and Path(cfg["out_dir"]) in Path(path).parents, path


@pytest.mark.parametrize("command, key", _OPTIONS, ids=[f"{c}-{k}" for c, k in _OPTIONS])
def test_option_of_the_wrong_json_type_exits_2(tmp_path, inputs, capsys, monkeypatch, command, key):
    """Each option in turn, with every other option valid: no output, one error line."""
    kind = next(row[1] for row in cli._COMMANDS[command][2] if row[0] == key)
    # a value the option's type rejects, whichever JSON type the option wants
    bad = [["x"], {"x": 1}, None, math.nan, math.inf, -math.inf, True]
    bad.append(5 if kind in (cli._text, cli._output) else "x")
    prefix = key.split("_")[0]
    algo = prefix if prefix in cli._SOLVERS else "ndi"
    capsys.readouterr()
    for i, value in enumerate(bad):
        cfg = dict(_valid_config(command, algo, inputs), **{key: value})
        workdir = tmp_path / str(i)
        assert _run_config(command, cfg, workdir, monkeypatch) == 2, value
        assert "Traceback" not in _one_line_error(capsys)
        assert [p.name for p in workdir.iterdir()] == ["cfg.json"]



def test_flag_wins_over_a_config_value_that_is_never_read(tmp_path, capsys, monkeypatch):
    """A config value that a flag replaces is not read, so a value its type refuses does no harm."""
    monkeypatch.chdir(tmp_path)
    _write_config(tmp_path, {"grid": {"dims": [8, 8, 8]}, "outputs": {"out_chi": 5}}, "p.json")
    _write_config(tmp_path, {"out": 7}, "u.json")
    assert main(["phantom", "--config", "p.json", "--out-chi", "c.nii"]) == 0
    assert main(["unwrap", "--config", "u.json", "--phase", "c.nii", "--mask", "mask.nii", "--out", "u.nii"]) == 0
    assert capsys.readouterr().err == ""
    assert (tmp_path / "c.nii").exists() and (tmp_path / "u.nii").exists()


def test_phantom_null_mask_writes_an_all_ones_mask(tmp_path):
    _run_phantom(tmp_path, {**_phantom_config(tmp_path, dims=8, radius=2.0), "mask": None})
    assert np.all(read_nifti(tmp_path / "mask.nii").data == 1.0)


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_undeclared_config_keys_named_like_parser_attributes_are_ignored(
        tmp_path, inputs, capsys, monkeypatch, command):
    undeclared = dict.fromkeys(["func", "schema", "options", "command"], 5)
    cfg = dict(_valid_config(command, "ndi", inputs), **undeclared)
    assert _run_config(command, cfg, tmp_path / "run", monkeypatch) == 0
    assert capsys.readouterr().err == ""


_REQUIRED_OPTIONS = [(command, key) for command, row in cli._COMMANDS.items()
                     for key, _, default, *_ in row[2] if default is cli._REQUIRED]


@pytest.mark.parametrize("command, key", _REQUIRED_OPTIONS, ids=[f"{c}-{k}" for c, k in _REQUIRED_OPTIONS])
def test_missing_required_option_exits_2_naming_it(tmp_path, inputs, capsys, monkeypatch, command, key):
    cfg = _valid_config(command, "ndi", inputs)
    del cfg[key]
    capsys.readouterr()
    assert _run_config(command, cfg, tmp_path / "run", monkeypatch) == 2
    err = _one_line_error(capsys)
    assert "missing" in err and ("--" + key.replace("_", "-") in err or repr(key) in err), err
    assert [p.name for p in (tmp_path / "run").iterdir()] == ["cfg.json"]


@pytest.mark.parametrize("argv", [
    ["slice", "--volume", "v.nii", "--axis", "z", "--index", "2.7"],
    ["slice", "--volume", "v.nii", "--window-min", "x"],
    ["invert", "--algo", "ndi", "--ndi-iters", "abc"],
    ["simulate", "--seed", "inf"],
    ["no-such-command"],
    [],
])
def test_refused_flag_value_is_one_error_line(argv, capsys):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_slice_axis_is_checked_before_the_volume_is_read(tmp_path, capsys):
    rc = main(["slice", "--volume", str(tmp_path / "missing.nii"), "--axis", "w", "--index", "0",
               "--window-min", "0", "--window-max", "1", "--out", str(tmp_path / "s.pgm")])
    assert rc == 2
    assert "axis must be x, y or z" in _one_line_error(capsys)


@pytest.mark.parametrize("key", ["seed", "ndi_iters", "index"])
def test_integer_option_refuses_a_fractional_config_value(tmp_path, inputs, capsys, monkeypatch, key):
    command = next(c for c, row in cli._COMMANDS.items() if key in [k for k, *_ in row[2]])
    capsys.readouterr()
    for i, value in enumerate([2.7, -0.5, 3.5]):
        cfg = dict(_valid_config(command, "ndi", inputs), **{key: value})
        assert _run_config(command, cfg, tmp_path / str(i), monkeypatch) == 2, value
        assert "expected an integer" in _one_line_error(capsys)
    # an integral value is the integer, given as a JSON integer or not
    for i, value in enumerate([2, 2.0]):
        cfg = dict(_valid_config(command, "ndi", inputs), **{key: value})
        assert _run_config(command, cfg, tmp_path / f"ok{i}", monkeypatch) == 0, value


def test_integer_type_agrees_for_flag_text_and_config_number():
    assert cli._integer("2") == cli._integer(2) == cli._integer(2.0) == 2
    for value in ("2.7", 2.7, math.nan, math.inf, "inf", "x", [2]):
        with pytest.raises(argparse.ArgumentTypeError):
            cli._integer(value)


def test_grid_past_the_address_space_exits_1_with_small_peak_rss(tmp_path):
    """A grid the header holds but no address space can (216 TB of float64) is a
    runtime failure: its first full-grid allocation fails at once."""
    (tmp_path / "big.json").write_text(json.dumps({"grid": {"dims": [30000, 30000, 30000]}}))
    # VmHWM is this process's own peak; ru_maxrss may hold the forking parent's
    code = ("from qsmkit.cli import main\n"
            "rc = main(['phantom', '--config', 'big.json'])\n"
            "peak = next(line.split()[1] for line in open('/proc/self/status') if line.startswith('VmHWM'))\n"
            "print(rc, peak)")
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, capture_output=True, text=True,
                          env=child_env())
    rc, peak_kib = map(int, proc.stdout.split())
    assert rc == 1
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
    assert peak_kib < 200 * 1024
    assert [p.name for p in tmp_path.iterdir()] == ["big.json"]


# Fuzzed whole configs: numbers stay within 50 or are extreme, so that no grid
# is large, and text has no "/", so that no output name leaves the run directory.
_CONFIG_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-50, 50) | st.floats(-50, 50)
    | st.sampled_from([10**400, 1e308, -1e308, 5e-324, math.inf, math.nan])
    | st.text(st.characters(blacklist_characters="/"), max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
_BAD_CONFIG_VALUE = (st.booleans() | st.sampled_from([0.5, 2.7, -1.5, math.inf, 10**400, 1e308, -1e308])
                     | st.sampled_from(["888", "000", "0,0,1", ""]) | _CONFIG_JSON)
_UNIT_VECTORS = [[0, 0, 1], [0, 0.6, 0.8], [1.0, 0.0, 0.0], ["0", "1", "0"]]


@st.composite
def _shape_config(draw):
    kind = draw(st.sampled_from(["sphere", "cylinder", "cuboid"]))
    n_sizes = {"sphere": 1, "cylinder": 2, "cuboid": 3}[kind]
    shape = {"kind": kind, "center": draw(st.lists(st.floats(-4, 4), min_size=3, max_size=3)),
             "size": draw(st.lists(st.floats(0.5, 6), min_size=n_sizes, max_size=n_sizes)),
             "chi": draw(st.floats(-0.1, 0.1)), "axis": draw(st.sampled_from("xyz"))}
    assert set(shape) == set(cli._SHAPES["shapes"][0].item)  # every declared key, for mutation
    return shape


def _valid_whole_config(draw, command, inputs):
    """A valid config giving every key of command's schema and options; outputs are relative."""
    if command == "phantom":
        cfg = {
            "grid": {"dims": draw(st.lists(st.integers(1, 8), min_size=3, max_size=3)),
                     "spacing": draw(st.lists(st.floats(0.5, 2), min_size=3, max_size=3))},
            "phantom": {"background": draw(st.floats(-0.1, 0.1)),
                        "shapes": draw(st.lists(_shape_config(), min_size=1, max_size=3))},
            "mask": draw(st.none() | st.builds(lambda shapes: {"shapes": shapes},
                                               st.lists(_shape_config(), max_size=2))),
            "magnitude_inside": draw(st.floats(0.1, 2)),
            "outputs": {"out_chi": "c.nii", "out_magnitude": "m.nii", "out_mask": "k.nii"},
        }
        assert set(cfg) == set(cli._PHANTOM) and set(cfg["grid"]) == set(cli._PHANTOM["grid"][0])
        return cfg
    cfg = _valid_config(command, draw(st.sampled_from(list(cli._SOLVERS))), inputs)
    if command == "simulate":
        vectors = st.sampled_from(_UNIT_VECTORS).map(list)  # a fresh list, which a mutation may change
        cfg["orientations"] = draw(st.lists(vectors, min_size=1, max_size=3))
    return cfg


def _json_paths(value, path=()):
    """The path of every object member and list element in value, outermost first."""
    if isinstance(value, (dict, list)):
        members = value.items() if isinstance(value, dict) else enumerate(value)
    else:
        members = ()
    for key, child in members:
        yield (*path, key)
        yield from _json_paths(child, (*path, key))


@st.composite
def _whole_configs(draw, inputs):
    """A command and its valid config with up to two values dropped or swapped for bad ones."""
    command = draw(st.sampled_from(["phantom", "simulate", "invert"]))
    cfg = _valid_whole_config(draw, command, inputs)
    for _ in range(draw(st.integers(0, 2))):
        paths = list(_json_paths(cfg))
        if not paths:
            break
        *parent, key = draw(st.sampled_from(paths))
        container = cfg
        for step in parent:
            container = container[step]
        if draw(st.booleans()):
            del container[key]
        else:
            container[key] = draw(_BAD_CONFIG_VALUE)
    return command, cfg


@pytest.fixture(scope="module")
def fuzz_root(tmp_path_factory):
    return tmp_path_factory.mktemp("whole_configs")


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_fuzzed_whole_config_exits_0_1_or_2_with_one_error_line(inputs, fuzz_root, data):
    command, cfg = data.draw(_whole_configs(inputs))
    run_dir = Path(tempfile.mkdtemp(dir=fuzz_root))
    config = run_dir.with_suffix(".json")
    config.write_text(json.dumps(cfg))
    out, err = io.StringIO(), io.StringIO()
    # a warning would print lines of its own on the CLI's stderr
    with contextlib.chdir(run_dir), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main([command, "--config", str(config), *(["--ndi-iters", "2"] if command == "invert" else [])])
    event(f"{command} exit {rc}")
    assert rc in (0, 1, 2)
    message = err.getvalue()
    if rc == 0:
        assert message == ""
    else:
        assert message.startswith("error: ") and message.count("\n") == 1, message
        assert "Traceback" not in message
    if rc != 0:
        assert list(run_dir.iterdir()) == []


def _readme_example_phantom_config():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    after = readme.split("Example phantom config:", 1)[1]
    return json.loads(after.split("```json", 1)[1].split("```", 1)[0])


def test_readme_example_phantom_config_runs(tmp_path, capsys, monkeypatch):
    _write_config(tmp_path, _readme_example_phantom_config())
    monkeypatch.chdir(tmp_path)
    assert main(["phantom", "--config", "config.json"]) == 0
    assert capsys.readouterr().err == ""
    assert read_nifti(tmp_path / "chi.nii").grid.dims == (64, 64, 64)
