"""Command-line pipeline: phantom -> simulate -> unwrap -> smv -> invert -> metrics -> slice.

Every command is deterministic given its config (seeds included). Exit codes:
0 success, 2 usage/config errors, 1 runtime failures. ``--config file.json``
supplies defaults for any flag (flags win); structured inputs (grid, shapes,
orientation lists) live in the config file. The environment variable
QSM_THREADS caps internal parallelism (0 = auto).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .core import Acquisition, Orientation, OrientationDataset, ScalarVolume, VolumeGrid, fft_workers
from .dipole import dipole_kernel
from .invert import CosmosConfig, L2Config, TkdConfig, cosmos, l2_closedform, tkd
from .io import NiftiFormatError, read_nifti, slice_to_pgm, write_nifti
from .metrics import SsimConfig, data_consistency, nrmse, ssim3d
from .ndi import NdiConfig, NdiDivergenceError, ndi_reconstruct
from .preprocess import SmvConfig, laplacian_unwrap, smv_filter
from .simulate import NoiseSpec, PhantomSpec, Shape, make_phantom, simulate_acquisition

__all__ = ["main"]


class ConfigError(ValueError):
    """Configuration or usage problem; maps to exit code 2."""


def _load_json_object(path, what):
    if not os.path.exists(path):
        raise ConfigError(f"{what} file not found: {path}")
    with open(path) as fh:
        try:
            value = json.load(fh)
        except ValueError as exc:  # bad JSON or bad UTF-8
            raise ConfigError(f"{what} {path}: invalid JSON ({exc})") from exc
    if not isinstance(value, dict):
        raise ConfigError(f"{what} {path}: top level must be a JSON object")
    return value


def _load_config(path):
    if path is None:
        return {}
    return _load_json_object(path, "config")


def _opt(args, cfg, name, default=None):
    """Effective option value: flag wins, then config, then default."""
    value = getattr(args, name, None)
    if value is not None:
        return value
    if name in cfg:
        return cfg[name]
    return default


def _require(args, cfg, name):
    value = _opt(args, cfg, name)
    if value is None:
        raise ConfigError(f"missing required option --{name.replace('_', '-')}")
    return value


def _number(kind, value, what):
    """value as kind (float or int); a value that is not a number is a ConfigError."""
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{what}: {exc}") from exc


def _member(cfg, key, kind, where="config"):
    """cfg[key], or an empty kind when absent; a value of another JSON type is a ConfigError."""
    value = cfg.get(key, kind())
    if not isinstance(value, kind):
        name = "an object" if kind is dict else "a list"
        raise ConfigError(f"{where} {key!r} must be {name}, got {value!r}")
    return value


def _require_input(path):
    if not os.path.exists(path):
        raise ConfigError(f"input file not found: {path}")
    return path


def _load_volume(path) -> ScalarVolume:
    return read_nifti(_require_input(path))


def _parse_grid(cfg):
    grid_cfg = cfg.get("grid")
    if grid_cfg is None:
        raise ConfigError("config must define 'grid': {'dims': [...], 'spacing': [...]}")
    try:
        return VolumeGrid(tuple(grid_cfg["dims"]), tuple(grid_cfg.get("spacing", (1.0, 1.0, 1.0))))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"config grid: {exc}") from exc


def _parse_shape(entry, where, chi=None):
    """A Shape from its config entry; chi, when given, replaces the entry's."""
    if not isinstance(entry, dict):
        raise ConfigError(f"{where}: must be an object, got {entry!r}")
    try:
        return Shape(
            kind=entry["kind"],
            center=tuple(entry["center"]),
            size=tuple(np.atleast_1d(entry["size"])),
            chi=float(entry.get("chi", 1.0) if chi is None else chi),
            axis=entry.get("axis", "z"),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _parse_orientation(vec, where) -> Orientation:
    try:
        arr = np.asarray(vec, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: orientation must be 3 numbers, got {vec!r}") from exc
    if arr.shape != (3,):
        raise ConfigError(f"{where}: orientation needs 3 components, got {vec!r}")
    norm = float(np.linalg.norm(arr))
    if abs(norm - 1.0) > 1e-6:
        raise ConfigError(f"{where}: orientation must be unit-norm within 1e-6, |b|={norm}")
    return Orientation.from_vector(arr)


def _parse_bvec(text, where) -> Orientation:
    try:
        parts = [float(p) for p in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"{where}: cannot parse orientation {text!r}") from exc
    return _parse_orientation(parts, where)


# ----------------------------------------------------------------- commands


def cmd_phantom(args):
    cfg = _load_config(args.config)
    grid = _parse_grid(cfg)
    phantom_cfg = _member(cfg, "phantom", dict)
    shapes = [
        _parse_shape(s, f"phantom.shapes[{i}]")
        for i, s in enumerate(_member(phantom_cfg, "shapes", list, "phantom"))
    ]
    background = _number(float, phantom_cfg.get("background", 0.0), "phantom.background")
    chi = make_phantom(grid, PhantomSpec(shapes=tuple(shapes), background=background))

    if cfg.get("mask") is None:
        mask = ScalarVolume(grid, np.ones(grid.dims))
    else:
        mask_shapes = [
            _parse_shape(s, f"mask.shapes[{i}]", chi=1.0)
            for i, s in enumerate(_member(_member(cfg, "mask", dict), "shapes", list, "mask"))
        ]
        mask = make_phantom(grid, PhantomSpec(shapes=tuple(mask_shapes), background=0.0))

    inside_value = _number(float, cfg.get("magnitude_inside", 1.0), "magnitude_inside")
    magnitude = ScalarVolume(grid, inside_value * mask.data)

    outputs = _member(cfg, "outputs", dict)
    out_chi = _opt(args, outputs, "out_chi", "chi.nii")
    out_magnitude = _opt(args, outputs, "out_magnitude", "magnitude.nii")
    out_mask = _opt(args, outputs, "out_mask", "mask.nii")
    write_nifti(out_chi, chi)
    write_nifti(out_magnitude, magnitude)
    write_nifti(out_mask, mask)
    print(f"wrote {out_chi}, {out_magnitude}, {out_mask}")
    return 0


def cmd_simulate(args):
    cfg = _load_config(args.config)
    chi = _load_volume(_require(args, cfg, "chi"))
    magnitude = _load_volume(_require(args, cfg, "magnitude"))
    mask = _load_volume(_require(args, cfg, "mask"))

    if args.bvec:
        orientations = [_parse_bvec(b, f"--bvec[{i}]") for i, b in enumerate(args.bvec)]
    elif "orientations" in cfg:
        orientations = [
            _parse_orientation(v, f"orientations[{i}]")
            for i, v in enumerate(_member(cfg, "orientations", list))
        ]
    else:
        raise ConfigError("no orientations given (--bvec or config 'orientations')")

    sigma = _number(float, _opt(args, cfg, "sigma", 0.0), "sigma")
    seed = _number(int, _opt(args, cfg, "seed", 0), "seed")
    out_dir = _opt(args, cfg, "out_dir", ".")
    prefix = _opt(args, cfg, "prefix", "")
    os.makedirs(out_dir, exist_ok=True)

    dataset = simulate_acquisition(chi, magnitude, orientations, NoiseSpec(sigma, seed), mask=mask)

    mask_name = f"{prefix}mask.nii"
    write_nifti(os.path.join(out_dir, mask_name), dataset.mask)
    entries = []
    for r, entry in enumerate(dataset.entries):
        phase_name = f"{prefix}phase_{r:03d}.nii"
        mag_name = f"{prefix}magnitude_{r:03d}.nii"
        write_nifti(os.path.join(out_dir, phase_name), entry.phase)
        write_nifti(os.path.join(out_dir, mag_name), entry.magnitude)
        entries.append(
            {"phase": phase_name, "magnitude": mag_name, "orientation": list(entry.orientation.b)}
        )
    sidecar = {"seed": seed, "sigma": sigma, "mask": mask_name, "entries": entries}
    sidecar_path = os.path.join(out_dir, f"{prefix}dataset.json")
    with open(sidecar_path, "w") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(entries)} orientation(s) and {sidecar_path}")
    return 0


def cmd_unwrap(args):
    cfg = _load_config(args.config)
    phase = _load_volume(_require(args, cfg, "phase"))
    mask = _load_volume(_require(args, cfg, "mask"))
    out = _require(args, cfg, "out")
    write_nifti(out, laplacian_unwrap(phase, mask))
    print(f"wrote {out}")
    return 0


def cmd_smv(args):
    cfg = _load_config(args.config)
    smv_cfg = _solver_config(args, cfg, "smv", None)
    phase = _load_volume(_require(args, cfg, "phase"))
    mask = _load_volume(_require(args, cfg, "mask"))
    out = _require(args, cfg, "out")
    tissue, reliable = smv_filter(phase, mask, smv_cfg)
    write_nifti(out, tissue)
    written = [out]
    reliable_out = _opt(args, cfg, "reliable_mask_out")
    if reliable_out:
        write_nifti(reliable_out, reliable)
        written.append(reliable_out)
    print(f"wrote {', '.join(written)}")
    return 0


def _sidecar_entries(path):
    """The entries of a dataset sidecar, checked for the keys _load_dataset reads."""
    entries = _load_json_object(path, "dataset").get("entries")
    if not isinstance(entries, list) or not entries:
        raise ConfigError(f"dataset {path}: 'entries' must be a non-empty list")
    for i, item in enumerate(entries):
        where = f"dataset {path} entries[{i}]"
        if not isinstance(item, dict):
            raise ConfigError(f"{where}: must be a JSON object")
        missing = [k for k in ("phase", "magnitude", "orientation") if k not in item]
        if missing:
            raise ConfigError(f"{where}: missing {', '.join(map(repr, missing))}")
        for key in ("phase", "magnitude"):
            if not isinstance(item[key], str):
                raise ConfigError(f"{where}: {key!r} must be a file name, got {item[key]!r}")
    return entries


def _load_dataset(
    args, cfg, mask: ScalarVolume, phase_scale: float, mask_phase=False
) -> OrientationDataset:
    """Dataset from a sidecar JSON or from repeated --phase/--magnitude/--bvec.

    mask_phase zeroes the phase outside the mask, as the linear inversions need.
    """
    sidecar_path = _opt(args, cfg, "dataset")
    entries = []
    if sidecar_path is not None:
        base = os.path.dirname(os.path.abspath(sidecar_path))
        for i, item in enumerate(_sidecar_entries(sidecar_path)):
            where = f"dataset {sidecar_path} entries[{i}]"
            phase = _load_volume(os.path.join(base, item["phase"]))
            magnitude = _load_volume(os.path.join(base, item["magnitude"]))
            entries.append((phase, magnitude, _parse_orientation(item["orientation"], where)))
    else:
        phases = args.phase or []
        if not phases:
            raise ConfigError("no input data: give --dataset or repeated --phase/--bvec")
        bvecs = args.bvec or []
        if len(bvecs) != len(phases):
            raise ConfigError(f"{len(phases)} --phase flags but {len(bvecs)} --bvec flags")
        magnitudes = args.magnitude or []
        if magnitudes and len(magnitudes) != len(phases):
            raise ConfigError(f"{len(phases)} --phase flags but {len(magnitudes)} --magnitude flags")
        for i, path in enumerate(phases):
            phase = _load_volume(path)
            if magnitudes:
                magnitude = _load_volume(magnitudes[i])
            else:
                magnitude = ScalarVolume(phase.grid, np.ones(phase.grid.dims))
            entries.append((phase, magnitude, _parse_bvec(bvecs[i], f"--bvec[{i}]")))

    acquisitions = []
    for phase, magnitude, orientation in entries:
        if phase_scale != 1.0:
            phase = ScalarVolume(phase.grid, phase_scale * phase.data)
        if mask_phase:
            phase = ScalarVolume(phase.grid, phase.data * mask.data)
        # restrict the data term to the trusted region
        magnitude = ScalarVolume(magnitude.grid, magnitude.data * mask.data)
        acquisitions.append(Acquisition(phase=phase, magnitude=magnitude, orientation=orientation))
    return OrientationDataset(entries=tuple(acquisitions), mask=mask)


_ALGORITHMS = ("tkd", "cosmos", "l2", "ndi")


def _solver_config(args, cfg, algo, reference):
    """The config of algo (or "smv") from flags and config file; a bad value is a ConfigError."""
    try:
        if algo == "smv":
            return SmvConfig(
                radius_mm=float(_opt(args, cfg, "smv_radius", 5.0)),
                tsvd_threshold=float(_opt(args, cfg, "smv_threshold", 0.05)),
            )
        if algo == "tkd":
            return TkdConfig(delta=float(_opt(args, cfg, "tkd_delta", 0.2)))
        if algo == "l2":
            return L2Config(lam=float(_opt(args, cfg, "l2_lambda", 0.01)))
        if algo == "cosmos":
            return CosmosConfig(eps=float(_opt(args, cfg, "cosmos_eps", 1e-6)))
        return NdiConfig(
            step_size=float(_opt(args, cfg, "ndi_step", 1.0)),
            lam=float(_opt(args, cfg, "ndi_lambda", 0.001)),
            max_iters=int(_opt(args, cfg, "ndi_iters", 400)),
            record_history=bool(_opt(args, cfg, "history_out")),
            reference=reference,
        )
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{algo} options: {exc}") from exc


def cmd_invert(args):
    cfg = _load_config(args.config)
    algo = _require(args, cfg, "algo")
    if algo not in _ALGORITHMS:
        raise ConfigError(f"unknown algorithm {algo!r}, expected one of {', '.join(_ALGORITHMS)}")
    reference = _opt(args, cfg, "reference") if algo == "ndi" else None
    solver_cfg = _solver_config(args, cfg, algo, _load_volume(reference) if reference else None)
    mask = _load_volume(_require(args, cfg, "mask"))
    phase_scale = _number(float, _opt(args, cfg, "phase_scale", 1.0), "phase_scale")
    # NDI weights its data term by the masked magnitude and reads the phase as given
    dataset = _load_dataset(args, cfg, mask, phase_scale, mask_phase=algo != "ndi")
    out = _require(args, cfg, "out")

    if algo == "cosmos":
        result = ScalarVolume(dataset.grid, cosmos(dataset, solver_cfg).data * mask.data)
    elif algo in ("tkd", "l2"):
        if dataset.n_orientations != 1:
            raise ConfigError(f"{algo} takes exactly one orientation, got {dataset.n_orientations}")
        entry = dataset.entries[0]
        solve = tkd if algo == "tkd" else l2_closedform
        result = solve(entry.phase, dipole_kernel(dataset.grid, entry.orientation), solver_cfg)
        result = ScalarVolume(dataset.grid, result.data * mask.data)
    else:
        ndi_result = ndi_reconstruct(dataset, solver_cfg)
        result = ndi_result.chi
        history_out = _opt(args, cfg, "history_out")
        if history_out:
            with open(history_out, "w") as fh:
                if ndi_result.nrmse_history is not None:
                    fh.write("iteration,cost,nrmse\n")
                    rows = zip(ndi_result.cost_history, ndi_result.nrmse_history)
                    for i, (c, e) in enumerate(rows, start=1):
                        fh.write(f"{i},{c:.17g},{e:.17g}\n")
                else:
                    fh.write("iteration,cost\n")
                    for i, c in enumerate(ndi_result.cost_history, start=1):
                        fh.write(f"{i},{c:.17g}\n")

    write_nifti(out, result)
    print(f"wrote {out}")
    return 0


def cmd_metrics(args):
    cfg = _load_config(args.config)
    x_path = _require(args, cfg, "x")
    ref_path = _require(args, cfg, "ref")
    mask_path = _require(args, cfg, "mask")
    x = _load_volume(x_path)
    ref = _load_volume(ref_path)
    mask = _load_volume(mask_path)

    report = {
        "x": x_path,
        "ref": ref_path,
        "mask": mask_path,
        "nrmse": nrmse(x, ref, mask),
        "ssim": ssim3d(x, ref, mask, SsimConfig()),
    }
    if _opt(args, cfg, "dataset") is not None:
        dataset = _load_dataset(args, cfg, mask, phase_scale=1.0)
        report["data_consistency"] = data_consistency(x, dataset)

    text = json.dumps(report, indent=2, sort_keys=True)
    out = _opt(args, cfg, "out")
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def cmd_slice(args):
    cfg = _load_config(args.config)
    volume = _load_volume(_require(args, cfg, "volume"))
    out = _require(args, cfg, "out")
    slice_to_pgm(
        volume,
        axis=_require(args, cfg, "axis"),
        index=_number(int, _require(args, cfg, "index"), "index"),
        window_min=_number(float, _require(args, cfg, "window_min"), "window_min"),
        window_max=_number(float, _require(args, cfg, "window_max"), "window_max"),
        path=out,
    )
    print(f"wrote {out}")
    return 0


# -------------------------------------------------------------------- main


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="qsm",
        description="Susceptibility-mapping pipeline: phantoms, forward simulation, "
        "preprocessing, dipole inversion, metrics, and slice export.",
        epilog="QSM_THREADS caps internal parallelism (0 = auto).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--config", help="JSON config merged with flags (flags win)")
        return p

    p = add("phantom", cmd_phantom, "rasterize ground-truth chi, magnitude template, and mask")
    p.add_argument("--out-chi")
    p.add_argument("--out-magnitude")
    p.add_argument("--out-mask")

    p = add("simulate", cmd_simulate, "forward-simulate noisy multi-orientation phase data")
    p.add_argument("--chi")
    p.add_argument("--magnitude")
    p.add_argument("--mask")
    p.add_argument("--bvec", action="append", help="B0 direction x,y,z (repeatable)")
    p.add_argument("--sigma", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--out-dir")
    p.add_argument("--prefix")

    p = add("unwrap", cmd_unwrap, "Laplacian phase unwrapping")
    p.add_argument("--phase")
    p.add_argument("--mask")
    p.add_argument("--out")

    p = add("smv", cmd_smv, "SMV background-field removal")
    p.add_argument("--phase")
    p.add_argument("--mask")
    p.add_argument("--out")
    p.add_argument("--reliable-mask-out")
    p.add_argument("--smv-radius", type=float)
    p.add_argument("--smv-threshold", type=float)

    p = add("invert", cmd_invert, "dipole inversion (tkd | cosmos | l2 | ndi)")
    p.add_argument("--algo")
    p.add_argument("--dataset", help="sidecar JSON listing phase/magnitude/orientation entries")
    p.add_argument("--phase", action="append")
    p.add_argument("--magnitude", action="append")
    p.add_argument("--bvec", action="append")
    p.add_argument("--mask")
    p.add_argument("--out")
    p.add_argument("--phase-scale", type=float, help="multiply input phase (radians -> field units)")
    p.add_argument("--tkd-delta", type=float)
    p.add_argument("--cosmos-eps", type=float)
    p.add_argument("--l2-lambda", type=float)
    p.add_argument("--ndi-lambda", type=float, help="Tikhonov fraction; 0.001 means 0.1 percent")
    p.add_argument("--ndi-iters", type=int)
    p.add_argument("--ndi-step", type=float)
    p.add_argument("--history-out", help="CSV of iteration,cost[,nrmse]")
    p.add_argument("--reference", help="truth volume enabling the nrmse history column")

    p = add("metrics", cmd_metrics, "NRMSE/SSIM report, plus data consistency with --dataset")
    p.add_argument("--x")
    p.add_argument("--ref")
    p.add_argument("--mask")
    p.add_argument("--dataset")
    p.add_argument("--phase", action="append", help=argparse.SUPPRESS)
    p.add_argument("--magnitude", action="append", help=argparse.SUPPRESS)
    p.add_argument("--bvec", action="append", help=argparse.SUPPRESS)
    p.add_argument("--out")

    p = add("slice", cmd_slice, "export one slice as a binary PGM image")
    p.add_argument("--volume")
    p.add_argument("--axis")
    p.add_argument("--index", type=int)
    p.add_argument("--window-min", type=float)
    p.add_argument("--window-max", type=float)
    p.add_argument("--out")

    return parser


def _check_threads():
    """A malformed QSM_THREADS is a usage error, reported before any work."""
    try:
        fft_workers()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _check_threads()
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, NiftiFormatError, OSError, NdiDivergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
