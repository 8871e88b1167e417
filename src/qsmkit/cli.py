"""Command-line pipeline: phantom -> simulate -> unwrap -> smv -> invert -> metrics -> slice.

Every command is deterministic given its config (seeds included). Exit codes:
0 success, 2 usage/config errors, 1 runtime failures. Each option is declared
once, in _COMMANDS, and ``--config file.json`` may set it under its flag's name
with "_" for "-" (flags win); structured inputs (grid, shapes, orientation
lists) live in the config file. QSM_THREADS caps internal parallelism (0 = auto).
"""

from __future__ import annotations

import argparse
import json
import math
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


def _text(value):
    """A file name or word; a config must give it as a JSON string."""
    if not isinstance(value, str):
        raise argparse.ArgumentTypeError(f"expected a string, got {value!r}")
    return value


def _finite(value):
    """A finite float, from a flag's text or a config number."""
    try:
        if math.isfinite(number := float(value)):
            return number
    except (TypeError, ValueError, OverflowError):
        pass
    raise argparse.ArgumentTypeError(f"expected a finite number, got {value!r}")


def _integer(value):
    """An integer, from a flag's text or a config number with no fractional part."""
    try:
        if isinstance(value, str):
            return int(value)
        if (number := int(value)) == value:
            return number
    except (TypeError, ValueError, OverflowError):
        pass
    raise argparse.ArgumentTypeError(f"expected an integer, got {value!r}")


def _converted(kind, value, what):
    """value as kind (a flag type such as _finite); a value kind rejects is a ConfigError."""
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError, argparse.ArgumentTypeError) as exc:
        raise ConfigError(f"{what}: {exc}") from exc


_REQUIRED = object()  # the default of an option that must be given


def _options(args, cfg):
    """Set each of args.options from its flag, else from cfg through its type, else its default.

    A value the type rejects, or a missing required option, is a ConfigError.
    """
    for key, kind, default, *_ in args.options:
        if getattr(args, key) is not None:
            continue
        if key in cfg:
            setattr(args, key, _converted(kind, cfg[key], f"config {key!r}"))
        elif default is _REQUIRED:
            raise ConfigError(f"missing required option --{key.replace('_', '-')}")
        else:
            setattr(args, key, default)


def _config(kind, what, **values):
    """kind(**values); a value the config class rejects is a ConfigError naming what."""
    try:
        return kind(**values)
    except ValueError as exc:
        raise ConfigError(f"{what} options: {exc}") from exc


def _member(cfg, key, kind, where="config"):
    """cfg[key], or an empty kind when absent; a value of another JSON type is a ConfigError."""
    value = cfg.get(key, kind())
    if not isinstance(value, kind):
        name = "an object" if kind is dict else "a list"
        raise ConfigError(f"{where} {key!r} must be {name}, got {value!r}")
    return value


def _load_volume(path) -> ScalarVolume:
    if not os.path.exists(path):
        raise ConfigError(f"input file not found: {path}")
    return read_nifti(path)


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
    if not abs(norm - 1.0) <= 1e-6:
        raise ConfigError(f"{where}: orientation must be unit-norm within 1e-6, |b|={norm}")
    return Orientation.from_vector(arr)


def _parse_bvec(text, where) -> Orientation:
    try:
        parts = [float(p) for p in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"{where}: cannot parse orientation {text!r}") from exc
    return _parse_orientation(parts, where)


# ----------------------------------------------------------------- commands


def cmd_phantom(args, cfg):
    grid = _parse_grid(cfg)
    phantom_cfg = _member(cfg, "phantom", dict)
    shapes = [
        _parse_shape(s, f"phantom.shapes[{i}]")
        for i, s in enumerate(_member(phantom_cfg, "shapes", list, "phantom"))
    ]
    background = _converted(_finite, phantom_cfg.get("background", 0.0), "phantom.background")
    chi = make_phantom(grid, PhantomSpec(shapes=tuple(shapes), background=background))

    if cfg.get("mask") is None:
        mask = ScalarVolume(grid, np.ones(grid.dims))
    else:
        mask_shapes = [
            _parse_shape(s, f"mask.shapes[{i}]", chi=1.0)
            for i, s in enumerate(_member(_member(cfg, "mask", dict), "shapes", list, "mask"))
        ]
        mask = make_phantom(grid, PhantomSpec(shapes=tuple(mask_shapes), background=0.0))

    inside_value = _converted(_finite, cfg.get("magnitude_inside", 1.0), "magnitude_inside")
    magnitude = ScalarVolume(grid, inside_value * mask.data)

    write_nifti(args.out_chi, chi)
    write_nifti(args.out_magnitude, magnitude)
    write_nifti(args.out_mask, mask)
    print(f"wrote {args.out_chi}, {args.out_magnitude}, {args.out_mask}")
    return 0


def cmd_simulate(args, cfg):
    chi = _load_volume(args.chi)
    magnitude = _load_volume(args.magnitude)
    mask = _load_volume(args.mask)

    if args.bvec:
        orientations = [_parse_bvec(b, f"--bvec[{i}]") for i, b in enumerate(args.bvec)]
    elif "orientations" in cfg:
        orientations = [
            _parse_orientation(v, f"orientations[{i}]")
            for i, v in enumerate(_member(cfg, "orientations", list))
        ]
    else:
        raise ConfigError("no orientations given (--bvec or config 'orientations')")

    noise = _config(NoiseSpec, "noise", sigma=args.sigma, seed=args.seed)
    os.makedirs(args.out_dir, exist_ok=True)
    dataset = simulate_acquisition(chi, magnitude, orientations, noise, mask=mask)

    mask_name = f"{args.prefix}mask.nii"
    write_nifti(os.path.join(args.out_dir, mask_name), dataset.mask)
    entries = []
    for r, entry in enumerate(dataset.entries):
        phase_name = f"{args.prefix}phase_{r:03d}.nii"
        mag_name = f"{args.prefix}magnitude_{r:03d}.nii"
        write_nifti(os.path.join(args.out_dir, phase_name), entry.phase)
        write_nifti(os.path.join(args.out_dir, mag_name), entry.magnitude)
        entries.append(
            {"phase": phase_name, "magnitude": mag_name, "orientation": list(entry.orientation.b)}
        )
    sidecar = {"seed": args.seed, "sigma": args.sigma, "mask": mask_name, "entries": entries}
    sidecar_path = os.path.join(args.out_dir, f"{args.prefix}dataset.json")
    with open(sidecar_path, "w") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(entries)} orientation(s) and {sidecar_path}")
    return 0


def cmd_unwrap(args, cfg):
    phase = _load_volume(args.phase)
    mask = _load_volume(args.mask)
    write_nifti(args.out, laplacian_unwrap(phase, mask))
    print(f"wrote {args.out}")
    return 0


def cmd_smv(args, cfg):
    smv_cfg = _config(SmvConfig, "smv", radius_mm=args.smv_radius, tsvd_threshold=args.smv_threshold)
    phase = _load_volume(args.phase)
    mask = _load_volume(args.mask)
    tissue, reliable = smv_filter(phase, mask, smv_cfg)
    write_nifti(args.out, tissue)
    written = [args.out]
    if args.reliable_mask_out:
        write_nifti(args.reliable_mask_out, reliable)
        written.append(args.reliable_mask_out)
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


def _load_dataset(args, mask: ScalarVolume, phase_scale: float, mask_phase=False) -> OrientationDataset:
    """Dataset from a sidecar JSON or from repeated --phase/--magnitude/--bvec.

    mask_phase zeroes the phase outside the mask, as the linear inversions need.
    """
    entries = []
    if args.dataset is not None:
        base = os.path.dirname(os.path.abspath(args.dataset))
        for i, item in enumerate(_sidecar_entries(args.dataset)):
            where = f"dataset {args.dataset} entries[{i}]"
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


# each algorithm's config class, with the option that fills each of its fields
_SOLVERS = {
    "tkd": (TkdConfig, {"delta": "tkd_delta"}),
    "cosmos": (CosmosConfig, {"eps": "cosmos_eps"}),
    "l2": (L2Config, {"lam": "l2_lambda"}),
    "ndi": (NdiConfig, {"step_size": "ndi_step", "lam": "ndi_lambda", "max_iters": "ndi_iters"}),
}


def cmd_invert(args, cfg):
    algo = args.algo
    if algo not in _SOLVERS:
        raise ConfigError(f"unknown algorithm {algo!r}, expected one of {', '.join(_SOLVERS)}")
    kind, fields = _SOLVERS[algo]
    values = {name: getattr(args, key) for name, key in fields.items()}
    if algo == "ndi":
        reference = _load_volume(args.reference) if args.reference else None
        values.update(record_history=bool(args.history_out), reference=reference)
    solver_cfg = _config(kind, algo, **values)
    mask = _load_volume(args.mask)
    # NDI weights its data term by the masked magnitude and reads the phase as given
    dataset = _load_dataset(args, mask, args.phase_scale, mask_phase=algo != "ndi")

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
        if args.history_out:
            columns = {"cost": ndi_result.cost_history, "nrmse": ndi_result.nrmse_history}
            columns = {name: column for name, column in columns.items() if column is not None}
            with open(args.history_out, "w") as fh:
                fh.write(",".join(["iteration", *columns]) + "\n")
                for i, row in enumerate(zip(*columns.values()), start=1):
                    fh.write(",".join([str(i), *(f"{v:.17g}" for v in row)]) + "\n")

    write_nifti(args.out, result)
    print(f"wrote {args.out}")
    return 0


def cmd_metrics(args, cfg):
    x = _load_volume(args.x)
    ref = _load_volume(args.ref)
    mask = _load_volume(args.mask)

    report = {
        "x": args.x,
        "ref": args.ref,
        "mask": args.mask,
        "nrmse": nrmse(x, ref, mask),
        "ssim": ssim3d(x, ref, mask, SsimConfig()),
    }
    if args.dataset is not None:
        dataset = _load_dataset(args, mask, phase_scale=1.0)
        report["data_consistency"] = data_consistency(x, dataset)

    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def cmd_slice(args, cfg):
    if args.axis not in ("x", "y", "z"):
        raise ConfigError(f"axis must be x, y or z, got {args.axis!r}")
    volume = _load_volume(args.volume)
    slice_to_pgm(volume, args.axis, args.index, args.window_min, args.window_max, path=args.out)
    print(f"wrote {args.out}")
    return 0


# -------------------------------------------------------------------- main

_DATA_FLAGS = ("--phase", "--magnitude", "--bvec")
_PHASE_IN_OUT = [("phase", _text, _REQUIRED), ("mask", _text, _REQUIRED), ("out", _text, _REQUIRED)]

# Each subcommand: its function, its help, its options and its repeatable
# flags. An option is (config key, type, default[, help]); its flag is the key
# with "-" for "_", and _options resolves it. Repeatable flags have no config key.
_COMMANDS = {
    "phantom": (cmd_phantom, "rasterize ground-truth chi, magnitude template, and mask", [
        ("out_chi", _text, "chi.nii"),
        ("out_magnitude", _text, "magnitude.nii"),
        ("out_mask", _text, "mask.nii"),
    ], {}),
    "simulate": (cmd_simulate, "forward-simulate noisy multi-orientation phase data", [
        ("chi", _text, _REQUIRED),
        ("magnitude", _text, _REQUIRED),
        ("mask", _text, _REQUIRED),
        ("sigma", _finite, NoiseSpec.sigma),
        ("seed", _integer, NoiseSpec.seed),
        ("out_dir", _text, "."),
        ("prefix", _text, ""),
    ], {"--bvec": "B0 direction x,y,z (repeatable)"}),
    "unwrap": (cmd_unwrap, "Laplacian phase unwrapping", _PHASE_IN_OUT, {}),
    "smv": (cmd_smv, "SMV background-field removal", [
        *_PHASE_IN_OUT,
        ("reliable_mask_out", _text, None),
        ("smv_radius", float, SmvConfig.radius_mm),
        ("smv_threshold", float, SmvConfig.tsvd_threshold),
    ], {}),
    "invert": (cmd_invert, "dipole inversion (tkd | cosmos | l2 | ndi)", [
        ("algo", _text, _REQUIRED),
        ("dataset", _text, None, "sidecar JSON listing phase/magnitude/orientation entries"),
        ("mask", _text, _REQUIRED),
        ("out", _text, _REQUIRED),
        ("phase_scale", _finite, 1.0, "multiply input phase (radians -> field units)"),
        ("tkd_delta", float, TkdConfig.delta),
        ("cosmos_eps", float, CosmosConfig.eps),
        ("l2_lambda", float, L2Config.lam),
        ("ndi_lambda", float, NdiConfig.lam, "Tikhonov fraction; 0.001 means 0.1 percent"),
        ("ndi_iters", _integer, NdiConfig.max_iters),
        ("ndi_step", float, NdiConfig.step_size),
        ("history_out", _text, None, "CSV of iteration,cost[,nrmse]"),
        ("reference", _text, None, "truth volume enabling the nrmse history column"),
    ], dict.fromkeys(_DATA_FLAGS)),
    "metrics": (cmd_metrics, "NRMSE/SSIM report, plus data consistency with --dataset", [
        ("x", _text, _REQUIRED),
        ("ref", _text, _REQUIRED),
        ("mask", _text, _REQUIRED),
        ("dataset", _text, None),
        ("out", _text, None),
    ], dict.fromkeys(_DATA_FLAGS, argparse.SUPPRESS)),
    "slice": (cmd_slice, "export one slice as a binary PGM image", [
        ("volume", _text, _REQUIRED),
        ("axis", _text, _REQUIRED),
        ("index", _integer, _REQUIRED),
        ("window_min", _finite, _REQUIRED),
        ("window_max", _finite, _REQUIRED),
        ("out", _text, _REQUIRED),
    ], {}),
}


class _Parser(argparse.ArgumentParser):
    """argparse with its usage errors reported as one "error: ..." line, exit 2.

    Subparsers are made with the class of their parent, so they report alike.
    """

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def _build_parser():
    parser = _Parser(
        prog="qsm",
        description="Susceptibility-mapping pipeline: phantoms, forward simulation, "
        "preprocessing, dipole inversion, metrics, and slice export.",
        epilog="QSM_THREADS caps internal parallelism (0 = auto).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, options, repeated) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func, options=options)
        p.add_argument("--config", help="JSON config merged with flags (flags win)")
        for key, kind, _, *help_ in options:
            p.add_argument("--" + key.replace("_", "-"), type=kind, help=help_[0] if help_ else None)
        for flag, flag_help in repeated.items():
            p.add_argument(flag, action="append", help=flag_help)
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
        cfg = _load_json_object(args.config, "config") if args.config is not None else {}
        # phantom's config holds its output names under "outputs"
        _options(args, _member(cfg, "outputs", dict) if args.command == "phantom" else cfg)
        return args.func(args, cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, NiftiFormatError, OSError, NdiDivergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
