import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qsmkit
from qsmkit.cli import main
from qsmkit.io import read_nifti

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
    rc = main(
        [
            "invert",
            "--algo",
            "tkd",
            "--phase",
            str(tmp_path / "chi.nii"),
            "--bvec",
            "0,0,2",
            "--mask",
            str(tmp_path / "mask.nii"),
            "--out",
            str(tmp_path / "o.nii"),
        ]
    )
    assert rc == 2
    assert "unit-norm" in capsys.readouterr().err


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
    ],
    ids=["top-level-list", "entry-missing-magnitude", "invalid-json"],
)
def test_malformed_sidecar_exits_2_naming_it(tmp_path, capsys, text, message):
    dataset = _small_dataset(tmp_path)
    sidecar = dataset.parent / "broken.json"
    sidecar.write_text(text)
    capsys.readouterr()
    assert _invert(tmp_path, sidecar, "--algo", "tkd") == 2
    err = _one_line_error(capsys)
    assert str(sidecar) in err and message in err


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
    ],
    ids=["phantom-list", "mask-list", "mask-shape-number", "outputs-list", "magnitude-inside-text",
         "background-text", "grid-dim-overflow", "orientations-number", "seed-overflow",
         "seed-text", "sigma-text", "phase-scale-text", "ndi-iters-overflow", "slice-index-text",
         "slice-window-min-text", "slice-window-max-list"],
)
def test_malformed_config_exits_2(tmp_path, capsys, monkeypatch, argv, config):
    dataset = _small_dataset(tmp_path)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.json").write_text(config)
    io_flags = {
        "phantom": ["--out-chi", "new_chi.nii"],
        "simulate": ["--chi", "chi.nii", "--magnitude", "mag.nii", "--mask", "mask.nii",
                     "--out-dir", "new_sim"],
        "invert": ["--dataset", str(dataset), "--mask", "mask.nii", "--out", "out.nii"],
        "slice": [],
    }[argv[0]]
    capsys.readouterr()
    assert main([*argv, *io_flags, "--config", "bad.json"]) == 2
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


def test_malformed_qsm_threads_exits_2(tmp_path, capsys, monkeypatch):
    dataset = _small_dataset(tmp_path)
    capsys.readouterr()
    monkeypatch.setenv("QSM_THREADS", "abc")
    assert _invert(tmp_path, dataset, "--algo", "tkd") == 2
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
          "--smv-radius", "2"], ["scipy.fft", "scipy.ndimage"]),
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
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
