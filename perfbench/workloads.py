"""The benchmark's workloads, and the worker process that runs one of them.

`run.py` starts this file as a fresh process per set-up sample and per
measuring run, with the checkout's ``src`` first on ``PYTHONPATH``:

    python perfbench/workloads.py --workload ndi-64-1o --seed 3 --seconds 25 --trace 0

The worker sets the workload up, prints ``ready`` (the parent times the
fresh process up to that line as one set-up sample), then runs one
untimed warm-up unit and timed units back to back, each followed by one
timed run of the workload's `Reference` kernel, which gauges the machine's
speed at that moment, while the next pair is expected to end within
``--seconds`` (at least one). It checks every unit's output and prints one
JSON line with the samples. With ``--setup-only`` it exits after
``ready``. With ``--trace 1`` it runs no reference; it alternates untraced
and traced units, so the tracing overhead is measured in the same process,
and reports layer totals of set-up plus one unit.

Each workload is a class with ``setup()``, ``unit()`` and ``check(output)``;
``check`` returns the in-mask NRMSE, the problems found, and a digest of
the output bytes.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import importlib
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy
import scipy.fft

import qsmkit
from qsmkit import (
    Acquisition,
    CosmosConfig,
    L2Config,
    NdiConfig,
    NoiseSpec,
    Orientation,
    OrientationDataset,
    PhantomSpec,
    ScalarVolume,
    Shape,
    SmvConfig,
    TkdConfig,
    VolumeGrid,
)
from qsmkit import _accel, dipole, invert, metrics, ndi, preprocess, simulate
from qsmkit.core import fft_workers, voxel_coords

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

EZ = Orientation((0.0, 0.0, 1.0))


def rot_x(deg: float) -> Orientation:
    t = np.deg2rad(deg)
    return Orientation((0.0, float(np.sin(t)), float(np.cos(t))))


def acceptance_phantom(n: int):
    """The acceptance suite's 64^3 phantom, scaled to an n^3 grid of 1 mm voxels."""
    s = n / 64.0
    g = VolumeGrid((n, n, n))
    spec = PhantomSpec(
        shapes=(
            Shape("sphere", (6.0 * s, 5.0 * s, 4.0 * s), (7.0 * s,), 0.10),
            Shape("sphere", (-9.0 * s, -6.0 * s, 2.0 * s), (5.0 * s,), -0.06),
            Shape("cylinder", (0.0, 6.0 * s, -8.0 * s), (3.0 * s, 14.0 * s), 0.08, axis="y"),
            Shape("cuboid", (-5.0 * s, 9.0 * s, 9.0 * s), (8.0 * s, 6.0 * s, 6.0 * s), -0.04),
        )
    )
    return g, simulate.make_phantom(g, spec)


def snr20_sigma(chi: ScalarVolume) -> float:
    """Complex-noise sigma giving an in-mask phase SNR of about 20 (acceptance convention)."""
    clean = dipole.forward_field(chi, dipole.dipole_kernel(chi.grid, EZ)).data
    return float(np.sqrt(np.mean(clean**2))) / 20.0


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def nonfinite(**arrays) -> list[str]:
    return [f"{k} not finite" for k, a in arrays.items() if not np.all(np.isfinite(a))]


class Reference:
    """A fixed numpy/scipy kernel that gauges how fast the machine runs right now.

    On a shared host the same code runs up to half slower for minutes at a
    time. Each timed unit is followed by one run of this kernel, and the
    run's median unit and set-up times are scaled by ``nominal_s / r``,
    where r is the median time of those kernel runs and ``nominal_s`` is the
    kernel's time on the machine in perfbench/README.md. The kernel calls
    nothing in qsmkit and takes no setting from it, so a change to qsmkit
    moves the unit time and not the gauge. Its steps are those the workloads spend their time
    in: forward and inverse real FFTs with the machine's default worker
    count, a spectral multiply and voxelwise trig, on an n^3 grid like the
    workload's; with ``spawns`` it also starts that many interpreters that
    import numpy and scipy, as every `cli-golden` stage does. One run lasts
    a tenth to a third of a unit.
    """

    def __init__(self, n: int, reps: int, nominal_s: float, spawns: int = 0):
        self.n, self.reps, self.nominal_s, self.spawns = n, reps, nominal_s, spawns
        self.workers = os.cpu_count() or 1

    def time(self) -> float:
        """Seconds one run of the kernel takes now.

        Its arrays live only inside this call, so they add nothing to the
        workload's resident memory while a unit runs.
        """
        t0 = time.perf_counter()
        for _ in range(self.spawns):
            subprocess.run([sys.executable, "-c", "import numpy, scipy.fft, scipy.ndimage"], check=True)
        n = self.n
        rng = np.random.default_rng(1909)
        x, y = rng.standard_normal((2, n, n, n))
        k = rng.standard_normal((n, n, n // 2 + 1))
        for _ in range(self.reps):
            d = scipy.fft.irfftn(scipy.fft.rfftn(x, workers=self.workers) * k, s=x.shape, workers=self.workers) - y
            float(np.sum(np.cos(d))) + float(np.sum(np.sin(d) * y))
        return time.perf_counter() - t0


class Workload:
    """Defaults shared by the workloads."""

    iterations = None  # solver iterations per unit, for NDI workloads
    in_process = True  # False: units run in child processes, whose peak RSS counts
    reference: dict  # arguments of the workload's Reference

    def __init__(self, seed: int):
        self.seed = seed

    def traced_unit(self, tracer):
        """One unit with the tracer installed; returns (output, layer totals)."""
        tracer.install()
        try:
            with tracer.window() as window:
                output = self.unit()
        finally:
            tracer.uninstall()
        return output, window.metrics

    def close(self):
        pass


class Ndi64(Workload):
    """Acceptance phantom64, 1 orientation, lam 0.001, 100 iterations, no history.

    Mirrors criteria 5 and 6: the NDI result must beat single-orientation
    COSMOS and TKD(0.2) on the same data. A quarter of the criteria's 400
    iterations keeps one unit near a second, so a run holds many units.
    """

    name = "ndi-64-1o"
    iterations = 100
    reference = dict(n=64, reps=30, nominal_s=0.5)

    def setup(self):
        self.grid, self.chi = acceptance_phantom(64)
        ones = ScalarVolume(self.grid, np.ones(self.grid.dims))
        self.dataset = simulate.simulate_acquisition(
            self.chi, ones, [EZ], NoiseSpec(snr20_sigma(self.chi), self.seed)
        )

    def unit(self):
        return ndi.ndi_reconstruct(self.dataset, NdiConfig(lam=0.001, max_iters=self.iterations))

    @functools.cached_property
    def limit(self) -> float:
        mask = self.dataset.mask
        entry = self.dataset.entries[0]
        kernel = dipole.dipole_kernel(self.grid, EZ)
        one = OrientationDataset(entries=(entry,), mask=mask)
        return min(
            metrics.nrmse(invert.tkd(entry.phase, kernel, TkdConfig(0.2)), self.chi, mask),
            metrics.nrmse(invert.cosmos(one, CosmosConfig()), self.chi, mask),
        )

    def check(self, res):
        problems = nonfinite(chi=res.chi.data)
        err = metrics.nrmse(res.chi, self.chi, self.dataset.mask)
        if not err < self.limit:
            problems.append(f"NRMSE {err:.4f} not below TKD/COSMOS 1-orientation {self.limit:.4f}")
        return err, problems, digest(res.chi.data)


class Linear128(Workload):
    """128^3 phantom in a 48 mm spherical mask, 3 orientations, the linear chain.

    Per orientation: Laplacian unwrap, then SMV (5 mm, threshold 0.01, as in
    the golden CLI run); then TKD and L2 on the first orientation, COSMOS on
    all three, and NRMSE, SSIM and data consistency of COSMOS. No NDI runs.
    Mirrors criteria 5 and 6: 3-orientation COSMOS beats 1-orientation TKD.
    """

    name = "linear-128"
    reference = dict(n=128, reps=8, nominal_s=1.0)

    def setup(self):
        self.grid, self.chi = acceptance_phantom(128)
        xs, ys, zs = voxel_coords(self.grid)
        r2 = xs[:, None, None] ** 2 + ys[None, :, None] ** 2 + zs[None, None, :] ** 2
        self.mask = ScalarVolume(self.grid, (r2 <= 48.0**2).astype(np.float64))
        self.dataset = simulate.simulate_acquisition(
            self.chi,
            self.mask,
            [EZ, rot_x(30), rot_x(-30)],
            NoiseSpec(snr20_sigma(self.chi), self.seed),
            mask=self.mask,
        )

    def unit(self):
        smv = SmvConfig(radius_mm=5.0, tsvd_threshold=0.01)
        tissues = []
        for entry in self.dataset.entries:
            unwrapped = preprocess.laplacian_unwrap(entry.phase, self.mask)
            tissue, reliable = preprocess.smv_filter(unwrapped, self.mask, smv)
            tissues.append(Acquisition(tissue, entry.magnitude, entry.orientation))
        tissue_ds = OrientationDataset(entries=tuple(tissues), mask=reliable)
        first = tissues[0]
        kernel = dipole.dipole_kernel(self.grid, first.orientation)
        tkd = invert.tkd(first.phase, kernel, TkdConfig(0.2))
        l2 = invert.l2_closedform(first.phase, kernel, L2Config(0.01))
        chi = invert.cosmos(tissue_ds, CosmosConfig())
        scores = (
            metrics.nrmse(chi, self.chi, reliable),
            metrics.ssim3d(chi, self.chi, reliable),
            metrics.data_consistency(chi, tissue_ds),
        )
        return tissues, reliable, tkd, l2, chi, scores

    def check(self, out):
        tissues, reliable, tkd, l2, chi, scores = out
        arrays = {f"tissue{r}": t.phase.data for r, t in enumerate(tissues)}
        arrays.update(tkd=tkd.data, l2=l2.data, cosmos=chi.data, scores=np.array(scores))
        problems = nonfinite(**arrays)
        err = scores[0]
        limit = metrics.nrmse(tkd, self.chi, reliable)
        if not err < limit:
            problems.append(f"COSMOS NRMSE {err:.4f} not below TKD 1-orientation {limit:.4f}")
        return err, problems, digest(reliable.data, *arrays.values())


GOLDEN_CONFIG = {
    "grid": {"dims": [64, 64, 64], "spacing": [1.0, 1.0, 1.0]},
    "phantom": {
        "background": 0.0,
        "shapes": [
            {"kind": "sphere", "center": [5.0, 3.0, 2.0], "size": [6.0], "chi": 0.1},
            {"kind": "sphere", "center": [-7.0, -5.0, 0.0], "size": [4.0], "chi": -0.05},
        ],
    },
    "mask": {"shapes": [{"kind": "sphere", "center": [0, 0, 0], "size": [24.0]}]},
}
GOLDEN_BVECS = ["0,0,1", "0,0.5,0.8660254037844387", "0.5,0,0.8660254037844387"]
GOLDEN_NDI_ITERS = 50  # criterion 10 runs 400


def golden_stages(seed: int):
    """Criterion 10's stage sequence, each a list of `qsm` arguments."""
    sim = ["simulate", "--chi", "chi.nii", "--magnitude", "magnitude.nii", "--mask", "mask.nii",
           "--sigma", "0", "--seed", str(seed), "--out-dir", "sim"]
    invert_args = ["invert", "--algo", "ndi", "--mask", "reliable.nii", "--out", "chi_ndi.nii",
                   "--ndi-iters", str(GOLDEN_NDI_ITERS), "--ndi-lambda", "0.001"]
    stages = [["phantom", "--config", "config.json", "--out-chi", "chi.nii",
               "--out-magnitude", "magnitude.nii", "--out-mask", "mask.nii"]]
    for b in GOLDEN_BVECS:
        sim += ["--bvec", b]
    stages.append(sim)
    for r, b in enumerate(GOLDEN_BVECS):
        stages.append(["unwrap", "--phase", f"sim/phase_{r:03d}.nii", "--mask", "mask.nii",
                       "--out", f"unwrapped_{r}.nii"])
        stages.append(["smv", "--phase", f"unwrapped_{r}.nii", "--mask", "mask.nii",
                       "--out", f"tissue_{r}.nii", "--reliable-mask-out", "reliable.nii",
                       "--smv-radius", "5", "--smv-threshold", "0.01"])
        invert_args += ["--phase", f"tissue_{r}.nii", "--magnitude", f"sim/magnitude_{r:03d}.nii",
                        "--bvec", b]
    stages.append(invert_args)
    stages.append(["metrics", "--x", "chi_ndi.nii", "--ref", "chi.nii", "--mask", "reliable.nii",
                   "--out", "metrics.json"])
    return stages


class CliGolden(Workload):
    """Criterion 10's golden pipeline as separate `python -m qsmkit.cli` processes.

    The only workload that pays interpreter start-up and NIfTI IO per stage.
    Seed 0 is exactly criterion 10's config and stages, except that the NDI
    invert runs GOLDEN_NDI_ITERS iterations instead of 400, so that a run
    holds several pipelines; other seeds move each phantom shape centre by up
    to 0.25 mm per axis. The run directory holds every file the stages write;
    its NRMSE must stay under criterion 10's 0.05.
    """

    name = "cli-golden"
    stage_timeout_s = 150
    in_process = False
    reference = dict(n=64, reps=25, nominal_s=1.0, spawns=1)

    def __init__(self, seed: int):
        super().__init__(seed)
        self.count = 0

    def setup(self):
        importlib.import_module("qsmkit.cli")  # what every stage process imports before main
        self.config = json.loads(json.dumps(GOLDEN_CONFIG))
        if self.seed != 0:
            rng = np.random.default_rng(self.seed)
            for shape in self.config["phantom"]["shapes"]:
                shape["center"] = [float(c + rng.uniform(-0.25, 0.25)) for c in shape["center"]]
        self.stages = golden_stages(self.seed)
        self.base = OUT / f"{self.name}-{os.getpid()}"
        self.base.mkdir(parents=True, exist_ok=True)
        # children import the checkout's package whatever their working directory
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def _fresh_dir(self) -> Path:
        self.count += 1
        workdir = self.base / f"unit{self.count}"
        workdir.mkdir()
        (workdir / "config.json").write_text(json.dumps(self.config))
        return workdir

    def _stage(self, launcher, args, workdir, env):
        proc = subprocess.run([*launcher, *args], cwd=workdir, env=env, capture_output=True,
                              text=True, timeout=self.stage_timeout_s)
        if proc.returncode != 0:
            raise RuntimeError(f"stage {args[0]} exited {proc.returncode}: {proc.stderr.strip()}")

    def unit(self):
        workdir = self._fresh_dir()
        for args in self.stages:
            self._stage([sys.executable, "-m", "qsmkit.cli"], args, workdir, self.env)
        return workdir

    def traced_unit(self, tracer):
        """One pipeline run with every stage under tracer.py; returns (workdir, layer totals)."""
        workdir = self._fresh_dir()
        trace_file = self.base / "trace.json"
        env = dict(self.env, PERFBENCH_TRACE_OUT=str(trace_file))
        totals: dict[str, float] = {}
        for args in self.stages:
            t0 = time.perf_counter()
            self._stage([sys.executable, str(BENCH_DIR / "tracer.py")], args, workdir, env)
            wall = time.perf_counter() - t0
            child = json.loads(trace_file.read_text())
            stage = {f"cli.{args[0]}.ms": 1e3 * wall, "cli.startup.ms": 1e3 * (wall - child["main_s"])}
            for key, value in [*child["metrics"].items(), *stage.items()]:
                totals[key] = totals.get(key, 0) + value
        return workdir, totals

    def check(self, workdir):
        from qsmkit.io import read_nifti

        try:
            report = json.loads((workdir / "metrics.json").read_text())
            chi = read_nifti(workdir / "chi_ndi.nii").data
            problems = nonfinite(chi=chi, nrmse=np.array([report["nrmse"]]))
            err = float(report["nrmse"])
            if not err < 0.05:
                problems.append(f"golden NRMSE {err:.4f} not below 0.05")
            files = sorted(p for p in workdir.rglob("*") if p.is_file())
            h = hashlib.sha256()
            for p in files:
                h.update(str(p.relative_to(workdir)).encode() + b"\0" + p.read_bytes())
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return err, problems, h.hexdigest()

    def close(self):
        shutil.rmtree(self.base, ignore_errors=True)


WORKLOADS = {w.name: w for w in (Ndi64, Linear128, CliGolden)}


def machine_facts() -> dict:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    return {
        "cpu_count": os.cpu_count(),
        "fft_workers": fft_workers(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numba_present": importlib.util.find_spec("numba") is not None,
        "numba_active": _accel.USING_NUMBA,
        "cache": caches,
        "qsmkit": qsmkit.__version__,
    }


class Runner:
    """Runs units of one workload until the time is up, checking each output.

    With a reference, every timed unit is followed by one timed run of it.
    """

    def __init__(self, workload, seconds: float, reference: Reference | None = None):
        self.workload = workload
        self.reference = reference
        self.deadline = time.perf_counter() + seconds
        self.unit_s: list[float] = []
        self.ref_s: list[float] = []
        self.nrmse: list[float] = []
        self.digests: list[str] = []
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    def attempt(self, fn):
        """(seconds, result) of fn(); result is None when fn raised."""
        t0 = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:  # a failing unit is counted, and the run goes on
            self.problems.append(f"{type(exc).__name__}: {exc}")
            result = None
        return time.perf_counter() - t0, result

    def judge(self, output):
        """Count one attempted unit and check its output (None: the unit raised)."""
        self.attempted += 1
        if output is None:
            self.failed += 1
            return
        try:
            err, problems, dig = self.workload.check(output)
        except Exception as exc:  # an unreadable output fails its unit
            self.failed += 1
            self.problems.append(f"check raised {type(exc).__name__}: {exc}")
            return
        self.nrmse.append(err)
        if self.digests and dig != self.digests[0]:
            problems.append("output bytes differ from the first unit of this run")
        self.digests.append(dig)
        if problems:
            self.failed += 1
            self.problems += problems

    def plain_unit(self):
        seconds, output = self.attempt(self.workload.unit)
        self.unit_s.append(seconds)
        if self.reference is not None:
            self.ref_s.append(self.reference.time())
        self.judge(output)

    def fits(self, seconds: float) -> bool:
        """Whether work expected to take `seconds` ends before the deadline."""
        return time.perf_counter() + seconds <= self.deadline

    def warm_up(self):
        """One checked but untimed unit, so first-call costs stay out of the samples.

        Only in-process workloads need it: each `cli-golden` unit starts
        fresh processes anyway.
        """
        if self.workload.in_process:
            self.judge(self.attempt(self.workload.unit)[1])

    def run(self):
        self.warm_up()
        self.plain_unit()
        while self.fits(statistics.median(self.unit_s) + statistics.median(self.ref_s)):
            self.plain_unit()

    def run_alternating(self, tracer):
        """Untraced and traced units in turn; returns traced seconds and layer totals."""
        traced_s, totals = [], []
        self.warm_up()
        while not traced_s or self.fits(self.unit_s[-1] + traced_s[-1]):
            self.plain_unit()
            seconds, result = self.attempt(lambda: self.workload.traced_unit(tracer))
            output, layers = result or (None, None)
            traced_s.append(seconds)
            self.judge(output)
            if output is not None:
                totals.append(layers)
        return traced_s, totals


def source_digest() -> str:
    """Digest of the package's and the benchmark's sources, which together fix a unit's output."""
    h = hashlib.sha256()
    for path in [*sorted((SRC / "qsmkit").rglob("*.py")), *sorted(BENCH_DIR.glob("*.py"))]:
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def compare_with_earlier_runs(name: str, seed: int, first: str | None) -> list[str]:
    """Output digest must match the first run made with this seed and these sources in this checkout."""
    if first is None:
        return []
    store = OUT / "digests.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    key = f"{name}:{seed}:{source_digest()}"
    if key not in known:
        known[key] = first
        OUT.mkdir(exist_ok=True)
        store.write_text(json.dumps(known, indent=1, sort_keys=True))
        return []
    return [] if known[key] == first else [f"output bytes differ from the first run with seed {seed}"]


def median_totals(windows: list[dict]) -> dict:
    keys = set().union(*windows) if windows else set()
    return {k: statistics.median(w.get(k, 0) for w in windows) for k in keys}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload in this process.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    if not Path(qsmkit.__file__).resolve().is_relative_to(SRC):
        print(f"qsmkit imported from {qsmkit.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload](args.seed)
    tracer = None
    if args.trace:
        from tracer import Tracer, derive

        tracer = Tracer()
        tracer.install()
        try:
            with tracer.window() as setup_window:
                workload.setup()
        finally:
            tracer.uninstall()
    else:
        workload.setup()
    print("ready", flush=True)
    if args.setup_only:
        workload.close()
        return 0

    reference = None if args.trace else Reference(**workload.reference)
    runner = Runner(workload, args.seconds, reference)
    result = {"machine": machine_facts(), "ref_nominal_s": reference.nominal_s if reference else None}
    try:
        if tracer is None:
            runner.run()
            who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
            result["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
        else:
            traced_s, windows = runner.run_alternating(tracer)
            layers = median_totals(windows)
            for key, value in setup_window.metrics.items():
                layers[key] = layers.get(key, 0) + value
            layers = derive(layers)
            layers["trace.wall_s"] = statistics.median(traced_s)
            layers["trace.overhead_s"] = statistics.median(traced_s) - statistics.median(runner.unit_s)
            result["layers"] = layers
    finally:
        workload.close()

    first = runner.digests[0] if runner.digests else None
    mismatch = compare_with_earlier_runs(workload.name, args.seed, first)
    if mismatch:  # every unit matched the first one, or already failed
        runner.failed = runner.attempted
        runner.problems += mismatch
    result.update(
        unit_s=runner.unit_s,
        ref_s=runner.ref_s,
        recon_nrmse=statistics.median(runner.nrmse) if runner.nrmse else None,
        checked=len(runner.nrmse),
        iterations=workload.iterations,
        attempted=runner.attempted,
        failed=runner.failed,
        problems=runner.problems,
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
