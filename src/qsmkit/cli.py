"""Command-line pipeline: phantom -> simulate -> unwrap -> smv -> invert -> metrics -> slice.

Every command is deterministic given its config (seeds included). Exit codes: 0 success, 2
usage/config errors, 1 runtime failures. Each option is declared once, in _COMMANDS, and
``--config file.json`` may set it under its flag's name with "_" for "-" (flags win); structured
inputs (grid, shapes, orientation lists) live in the config file. _walk reads options, nested
config, --bvec and sidecars; main refuses bad _output paths and --out-dir before the stage runs, and
_write_all writes every stage's outputs. QSM_THREADS caps internal parallelism (0 = auto).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .core import _AXES, Acquisition, Orientation, OrientationDataset, ScalarVolume, VolumeGrid, fft_workers
from .dipole import dipole_kernel
from .invert import CosmosConfig, L2Config, TkdConfig, cosmos, l2_closedform, tkd
from .io import read_nifti, require_nifti_grid, require_nifti_volume, slice_to_pgm, write_nifti
from .metrics import data_consistency, nrmse, ssim3d
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
        except (ValueError, RecursionError) as exc:  # bad JSON, bad UTF-8 or too deep
            raise ConfigError(f"{what} {path}: invalid JSON ({exc})") from exc
    if not isinstance(value, dict):
        raise ConfigError(f"{what} {path}: top level must be a JSON object")
    return value


def _text(value):
    """A file name or word; a config must give it as a JSON string."""
    if not isinstance(value, str):
        raise argparse.ArgumentTypeError(f"expected a string, got {value!r}")
    return value


def _output(value):
    """A file name the stage writes, read as a _text is; main refuses a bad one before the stage runs."""
    return _text(value)


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


_REQUIRED = object()  # the default of an option or a config key that must be given


def _config(kind, what, /, *args, **values):
    """kind(*args, **values), kind a flag type or a config class; a value it rejects is a ConfigError."""
    try:
        return kind(*args, **values)
    except (TypeError, ValueError, OverflowError, argparse.ArgumentTypeError) as exc:
        raise ConfigError(f"{what}: {exc}") from exc


class _List:
    """Schema of a JSON list of item values; lone: a lone value stands for a list of one."""

    def __init__(self, item, nonempty=False, lone=False):
        self.item, self.nonempty, self.lone = item, nonempty, lone


def _walk(schema, value, where, path=""):
    """value read by schema: a leaf type (a flag type such as _finite), a _List, or a dict of
    key -> (schema, default) for a JSON object, whose undeclared keys are kept. A default is
    read like a given value; _REQUIRED marks a key that must be given. A key with default None
    reads as None when absent, or when null if its schema is an object; a null leaf is refused.
    A bad value is a ConfigError naming where and its JSON path."""
    at = f"{where} {path}" if path else where
    if isinstance(schema, dict):
        if not isinstance(value, dict):
            raise ConfigError(f"{at}: expected an object, got {value!r}")
        out = dict(value)
        for key, (field, default) in schema.items():
            given = value.get(key, default)
            if given is _REQUIRED:
                raise ConfigError(f"{at}: missing {key!r}")
            nested = f"{path}.{key}".lstrip(".")
            absent = key not in value or given is None and isinstance(field, dict)
            out[key] = None if absent and default is None else _walk(field, given, where, nested)
        return out
    if isinstance(schema, _List):
        if schema.lone and not isinstance(value, list):
            value = [value]
        if not isinstance(value, list) or (schema.nonempty and not value):
            raise ConfigError(f"{at}: expected a {'non-empty ' * schema.nonempty}list, got {value!r}")
        return [_walk(schema.item, v, where, f"{path}[{i}]") for i, v in enumerate(value)]
    if isinstance(value, bool):
        raise ConfigError(f"{at}: true/false is not a valid value here, got {value!r}")
    return _config(schema, at, value)


def _load_volume(path) -> ScalarVolume:
    if not os.path.exists(path):
        raise ConfigError(f"input file not found: {path}")
    return read_nifti(path)


def _require_writable(paths, out_dir="."):
    """Refuse two outputs at one path (ConfigError), then a bad out_dir or output path (OSError)."""
    normal = [os.path.normpath(path) for path in paths]
    if repeated := sorted({path for path in normal if normal.count(path) > 1}):
        raise ConfigError(f"two outputs at one path: {', '.join(repeated)}")
    ancestor = os.path.normpath(out_dir)  # its nearest existing ancestor, or itself, must be a directory
    while not os.path.lexists(ancestor) and ancestor != (up := os.path.dirname(ancestor) or "."):
        ancestor = up
    if not os.path.isdir(ancestor):
        raise OSError(f"cannot write {out_dir!r}: {ancestor!r} is not a directory")
    for path in paths:
        parent = os.path.normpath(os.path.dirname(path))  # out_dir is made after the checks, so may be new
        in_dir = os.path.isdir(parent) or (parent == os.path.normpath(out_dir) and not os.path.lexists(parent))
        if not os.path.basename(path) or "\0" in path or os.path.isdir(path) or not in_dir:
            raise OSError(f"cannot write {path!r}: not a file name in an existing directory")


def _write_all(outputs, out_dir="."):
    """Write a stage's (path, volume, text or bytes) outputs after checking them all; print one "wrote" line."""
    _require_writable([path for path, _ in outputs], out_dir)
    for path, value in outputs:
        if isinstance(value, ScalarVolume):
            require_nifti_volume(path, value)
    os.makedirs(os.path.normpath(out_dir), exist_ok=True)
    for path, value in outputs:
        if isinstance(value, ScalarVolume):
            write_nifti(path, value)
        else:
            with open(path, "wb" if isinstance(value, bytes) else "w") as fh:
                fh.write(value)
    print(f"wrote {', '.join(path for path, _ in outputs)}")


def _parse_orientation(vec) -> Orientation:
    """A unit B0 direction from a list of 3 numbers (or numeric strings, as --bvec's parts)."""
    try:
        if not isinstance(vec, list) or any(isinstance(c, bool) for c in vec):
            raise TypeError
        arr = np.asarray(vec, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"orientation must be 3 numbers, got {vec!r}") from None
    if arr.shape != (3,):
        raise ValueError(f"orientation needs 3 components, got {vec!r}")
    with np.errstate(over="ignore"):  # a component past 1e154 gives inf, refused below
        norm = float(np.linalg.norm(arr))
    if not abs(norm - 1.0) <= 1e-6:
        raise ValueError(f"orientation must be unit-norm within 1e-6, |b|={norm}")
    return Orientation.from_vector(arr)


# The nested config values and the dataset sidecar, read by _walk.
_SHAPES = {"shapes": (_List({
    "kind": (_text, _REQUIRED),
    "center": (_List(_finite), _REQUIRED),
    "size": (_List(_finite, lone=True), _REQUIRED),  # a sphere's radius may be one number
    "chi": (_finite, 1.0),
    "axis": (_text, "z"),
}), [])}
_PHANTOM = {
    "grid": ({"dims": (_List(_integer), _REQUIRED), "spacing": (_List(_finite), [1, 1, 1])}, _REQUIRED),
    "phantom": ({**_SHAPES, "background": (_finite, 0.0)}, {}),
    "mask": (_SHAPES, None),  # absent or null: an all-ones mask
    "magnitude_inside": (_finite, 1.0),
    "outputs": ({}, {}),  # phantom's options, read by main
}
_ORIENTATIONS = _List(_parse_orientation, nonempty=True)
_SIDECAR = {"entries": (_List({
    "phase": (_text, _REQUIRED),
    "magnitude": (_text, _REQUIRED),
    "orientation": (_parse_orientation, _REQUIRED),
}, nonempty=True), _REQUIRED)}


# ----------------------------------------------------------------- commands


def _shapes(cfg, key, chi=None):
    """The Shapes of a walked config's cfg[key]["shapes"]; chi, when given, replaces each one's."""
    return tuple(
        _config(Shape, f"config {key}.shapes[{i}]", kind=s["kind"], center=s["center"], size=s["size"],
                chi=s["chi"] if chi is None else chi, axis=s["axis"])
        for i, s in enumerate(cfg[key]["shapes"])
    )


def cmd_phantom(args, cfg):
    grid = _config(VolumeGrid, "config grid", dims=cfg["grid"]["dims"], spacing=cfg["grid"]["spacing"])
    _config(require_nifti_grid, "config grid", grid=grid)  # before a grid's worth of work
    chi = make_phantom(grid, PhantomSpec(_shapes(cfg, "phantom"), cfg["phantom"]["background"]))
    if cfg["mask"] is None:
        mask = ScalarVolume(grid, np.ones(grid.dims))
    else:
        mask = make_phantom(grid, PhantomSpec(_shapes(cfg, "mask", chi=1.0)))
    magnitude = ScalarVolume(grid, cfg["magnitude_inside"] * mask.data)

    _write_all([(args.out_chi, chi), (args.out_magnitude, magnitude), (args.out_mask, mask)])


def cmd_simulate(args, cfg):
    if not args.bvec and "orientations" not in cfg:
        raise ConfigError("no orientations given (--bvec or config 'orientations')")
    orientations = args.bvec or _walk(_ORIENTATIONS, cfg["orientations"], "config", "orientations")
    chi = _load_volume(args.chi)
    magnitude = _load_volume(args.magnitude)
    mask = _load_volume(args.mask)

    noise = _config(NoiseSpec, "noise options", sigma=args.sigma, seed=args.seed)
    dataset = simulate_acquisition(chi, magnitude, orientations, noise, mask=mask)

    mask_name = f"{args.prefix}mask.nii"
    outputs = [(mask_name, dataset.mask)]
    entries = []
    for r, entry in enumerate(dataset.entries):
        phase_name = f"{args.prefix}phase_{r:03d}.nii"
        mag_name = f"{args.prefix}magnitude_{r:03d}.nii"
        outputs += [(phase_name, entry.phase), (mag_name, entry.magnitude)]
        entries.append(
            {"phase": phase_name, "magnitude": mag_name, "orientation": list(entry.orientation.b)}
        )
    sidecar = {"seed": args.seed, "sigma": args.sigma, "mask": mask_name, "entries": entries}
    outputs.append((f"{args.prefix}dataset.json", json.dumps(sidecar, indent=2, sort_keys=True) + "\n"))
    _write_all([(os.path.join(args.out_dir, name), value) for name, value in outputs], args.out_dir)


def cmd_unwrap(args, cfg):
    phase = _load_volume(args.phase)
    mask = _load_volume(args.mask)
    _write_all([(args.out, laplacian_unwrap(phase, mask))])


def cmd_smv(args, cfg):
    smv_cfg = _config(SmvConfig, "smv options", radius_mm=args.smv_radius, tsvd_threshold=args.smv_threshold)
    phase = _load_volume(args.phase)
    mask = _load_volume(args.mask)
    tissue, reliable = smv_filter(phase, mask, smv_cfg)
    _write_all([(args.out, tissue)] + ([(args.reliable_mask_out, reliable)] if args.reliable_mask_out else []))


def _load_dataset(args, mask: ScalarVolume, phase_scale: float) -> OrientationDataset:
    """Dataset from a sidecar JSON or from repeated --phase/--magnitude/--bvec.

    Phase and magnitude are zero outside the mask: every reader trusts only
    the data inside it, and a missing magnitude is the mask itself.
    """
    if args.dataset is not None:
        base = os.path.dirname(os.path.abspath(args.dataset))
        sidecar = _walk(_SIDECAR, _load_json_object(args.dataset, "dataset"), f"dataset {args.dataset}")
        sources = [(os.path.join(base, item["phase"]), os.path.join(base, item["magnitude"]),
                    item["orientation"]) for item in sidecar["entries"]]
    else:
        phases = args.phase or []
        if not phases:
            raise ConfigError("no input data: give --dataset or repeated --phase/--bvec")
        bvecs = args.bvec or []
        if len(bvecs) != len(phases):
            raise ConfigError(f"{len(phases)} --phase flags but {len(bvecs)} --bvec flags")
        magnitudes = args.magnitude or [None] * len(phases)
        if len(magnitudes) != len(phases):
            raise ConfigError(f"{len(phases)} --phase flags but {len(magnitudes)} --magnitude flags")
        sources = zip(phases, magnitudes, bvecs)

    acquisitions = []
    for phase_path, magnitude_path, orientation in sources:
        phase = _load_volume(phase_path)
        magnitude = mask if magnitude_path is None else _load_volume(magnitude_path)
        # the products below need the mask's grid: name the grids, not a failed broadcast
        mask.grid.require_compatible(phase.grid)
        mask.grid.require_compatible(magnitude.grid)
        with np.errstate(over="ignore", invalid="ignore"):  # inf, or nan if masked: ScalarVolume refuses it
            phase = ScalarVolume(phase.grid, phase_scale * phase.data * mask.data)
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
    if args.dataset is not None and (args.phase or args.magnitude or args.bvec):
        raise ConfigError("--dataset lists the inputs: give it without --phase, --magnitude and --bvec")
    if algo != "ndi" and (args.history_out or args.reference):
        raise ConfigError(f"--history-out and --reference are read only by --algo ndi, not {algo}")
    kind, fields = _SOLVERS[algo]
    values = {name: getattr(args, key) for name, key in fields.items()}
    if algo == "ndi":
        reference = _load_volume(args.reference) if args.reference else None
        values.update(record_history=bool(args.history_out), reference=reference)
    solver_cfg = _config(kind, f"{algo} options", **values)
    mask = _load_volume(args.mask)
    dataset = _load_dataset(args, mask, args.phase_scale)

    history = []
    if algo == "cosmos":
        result = cosmos(dataset, solver_cfg)
    elif algo in ("tkd", "l2"):
        if dataset.n_orientations != 1:
            raise ConfigError(f"{algo} takes exactly one orientation, got {dataset.n_orientations}")
        entry = dataset.entries[0]
        solve = tkd if algo == "tkd" else l2_closedform
        result = solve(entry.phase, dipole_kernel(dataset.grid, entry.orientation), solver_cfg)
    else:
        ndi_result = ndi_reconstruct(dataset, solver_cfg)
        result = ndi_result.chi
        if args.history_out:
            columns = {"cost": ndi_result.cost_history, "nrmse": ndi_result.nrmse_history}
            columns = {name: column for name, column in columns.items() if column is not None}
            rows = [",".join([str(i), *(f"{v:.17g}" for v in row)])
                    for i, row in enumerate(zip(*columns.values()), start=1)]
            history = [(args.history_out, "\n".join([",".join(["iteration", *columns]), *rows, ""]))]
    _write_all([(args.out, ScalarVolume(dataset.grid, result.data * mask.data)), *history])


def cmd_metrics(args, cfg):
    x = _load_volume(args.x)
    ref = _load_volume(args.ref)
    mask = _load_volume(args.mask)

    report = {
        "x": args.x,
        "ref": args.ref,
        "mask": args.mask,
        "nrmse": nrmse(x, ref, mask),
        "ssim": ssim3d(x, ref, mask),
    }
    if args.dataset is not None:
        dataset = _load_dataset(args, mask, phase_scale=1.0)
        report["data_consistency"] = data_consistency(x, dataset)

    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        _write_all([(args.out, text + "\n")])
    else:
        print(text)


def cmd_slice(args, cfg):
    if args.axis not in _AXES:
        raise ConfigError(f"axis must be x, y or z, got {args.axis!r}")
    if not args.window_max > args.window_min:
        raise ConfigError(f"--window-max {args.window_max!r} must exceed --window-min {args.window_min!r}")
    volume = _load_volume(args.volume)
    _write_all([(args.out, slice_to_pgm(volume, args.axis, args.index, args.window_min, args.window_max))])


# -------------------------------------------------------------------- main

_PHASE_IN_OUT = [("phase", _text, _REQUIRED), ("mask", _text, _REQUIRED), ("out", _output, _REQUIRED)]

# Each subcommand: its function, its help, its options and its repeatable flags. An option
# is (config key, type, default[, help]), type _output for a file the stage writes; its flag
# is the key with "-" for "_", and main reads it with _walk. Repeatable flags have no config key.
_COMMANDS = {
    "phantom": (cmd_phantom, "rasterize ground-truth chi, magnitude template, and mask", [
        ("out_chi", _output, "chi.nii"),
        ("out_magnitude", _output, "magnitude.nii"),
        ("out_mask", _output, "mask.nii"),
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
        ("reliable_mask_out", _output, None),
        ("smv_radius", float, SmvConfig.radius_mm),
        ("smv_threshold", float, SmvConfig.tsvd_threshold),
    ], {}),
    "invert": (cmd_invert, "dipole inversion (tkd | cosmos | l2 | ndi)", [
        ("algo", _text, _REQUIRED),
        ("dataset", _text, None, "sidecar JSON listing phase/magnitude/orientation entries"),
        ("mask", _text, _REQUIRED),
        ("out", _output, _REQUIRED),
        ("phase_scale", _finite, 1.0, "multiply input phase (radians -> field units)"),
        ("tkd_delta", float, TkdConfig.delta),
        ("cosmos_eps", float, CosmosConfig.eps),
        ("l2_lambda", float, L2Config.lam),
        ("ndi_lambda", float, NdiConfig.lam, "Tikhonov fraction; 0.001 means 0.1 percent"),
        ("ndi_iters", _integer, NdiConfig.max_iters),
        ("ndi_step", float, NdiConfig.step_size),
        ("history_out", _output, None, "CSV of iteration,cost[,nrmse]"),
        ("reference", _text, None, "truth volume enabling the nrmse history column"),
    ], dict.fromkeys(("--phase", "--magnitude", "--bvec"))),
    "metrics": (cmd_metrics, "NRMSE/SSIM report, plus data consistency with --dataset", [
        ("x", _text, _REQUIRED),
        ("ref", _text, _REQUIRED),
        ("mask", _text, _REQUIRED),
        ("dataset", _text, None),
        ("out", _output, None),
    ], {}),
    "slice": (cmd_slice, "export one slice as a binary PGM image", [
        ("volume", _text, _REQUIRED),
        ("axis", _text, _REQUIRED),
        ("index", _integer, _REQUIRED),
        ("window_min", _finite, _REQUIRED),
        ("window_max", _finite, _REQUIRED),
        ("out", _output, _REQUIRED),
    ], {}),
}


class _Parser(argparse.ArgumentParser):
    """argparse with its usage errors raised as a ConfigError, which main reports.

    Subparsers are made with the class of their parent, so they report alike.
    """

    def error(self, message):
        raise ConfigError(message)


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
        p.set_defaults(func=func, schema={key: (kind, default) for key, kind, default, *_ in options})
        p.add_argument("--config", help="JSON config merged with flags (flags win)")
        for key, kind, _, *help_ in options:
            p.add_argument("--" + key.replace("_", "-"), type=kind, help=help_[0] if help_ else None)
        for flag, flag_help in repeated.items():
            p.add_argument(flag, action="append", help=flag_help)
    return parser


def main(argv=None) -> int:
    """Run one command; the exit code is returned, and only --help exits through SystemExit(0)."""
    try:
        args = _build_parser().parse_args(argv)
        _config(fft_workers, "environment")  # a malformed QSM_THREADS, before any work
        cfg = _load_json_object(args.config, "config") if args.config is not None else {}
        flags = {key: getattr(args, key) for key in args.schema if getattr(args, key) is not None}
        if args.command != "phantom":
            cfg = options = _walk(args.schema, cfg | flags, "options")
        else:  # its options live under "outputs", and flags go there only if that is an object
            if isinstance(outputs := cfg.get("outputs", {}), dict):
                cfg = {**cfg, "outputs": outputs | flags}
            cfg = _walk({**_PHANTOM, "outputs": (args.schema, {})}, cfg, "config")
            options = cfg["outputs"]
        vars(args).update({key: options[key] for key in args.schema})  # never a key such as "func"
        if getattr(args, "bvec", None):
            args.bvec = _walk(_ORIENTATIONS, [b.split(",") for b in args.bvec], "--bvec")
        _require_writable([options[key] for key, (kind, _) in args.schema.items()  # before any input is read
                           if kind is _output and options[key] is not None], getattr(args, "out_dir", "."))
        args.func(args, cfg)
        return 0
    except (ValueError, OSError, NdiDivergenceError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ConfigError) else 1


if __name__ == "__main__":
    sys.exit(main())
