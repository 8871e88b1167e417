#!/usr/bin/env python3
"""qsmkit's benchmark: one workload run, end to end or per layer.

    python3 perfbench/run.py --workload ndi-64-1o --seed 1 --seconds 25 --trace 0

Run from anywhere; the checkout is the parent of this directory, and the
package is imported from its ``src``. The workloads, metrics and bounds are
listed in ``BENCHMARK.json`` at the checkout root; perfbench/README.md says
why each workload is there and which layer metric should move which
end-to-end metric.

Load is one closed-loop client: the workload's units run back to back in
one fresh worker process (``workloads.py``), with the default QSM_THREADS.
Before it, ``SETUP_PROBES`` fresh processes only set the workload up.

Times in the end-to-end metrics are calibrated: each timed unit is
followed by one run of a fixed numpy/scipy reference kernel
(``workloads.Reference``), and a median time is scaled by the kernel's
nominal time over the median time of those kernel runs. ``wall_s`` is the
calibrated median unit time, ``setup_s`` the calibrated median set-up time
of the probes and the worker. The report lines give the raw medians too.

With ``--trace 0`` the last line of standard output is a JSON object with
every end-to-end metric; with ``--trace 1`` it has every per-layer metric.
The lines before it give the machine facts and a readable report, and the
whole result is also written to ``.bench_out/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 2
RUN_LIMIT_S = 170.0  # every process this run starts is stopped by then


class WorkerFailed(RuntimeError):
    pass


def run_worker(argv, env, deadline):
    """Run one worker process; returns (seconds from start to its 'ready' line, last stdout line).

    The worker runs in its own session, so on a timeout its whole process
    group, CLI stages included, is killed and reaped.
    """
    cmd = [sys.executable, str(BENCH_DIR / "workloads.py"), *argv]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, start_new_session=True)
    buf, ready_s = b"", None
    try:
        while True:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                raise WorkerFailed(f"{' '.join(argv)}: still running at the time limit")
            readable, _, _ = select.select([proc.stdout], [], [], remaining)
            if not readable:
                continue
            chunk = os.read(proc.stdout.fileno(), 65536)
            if not chunk:
                break
            buf += chunk
            if ready_s is None and b"\n" in buf:
                ready_s = time.perf_counter() - t0
                if buf.split(b"\n", 1)[0] != b"ready":
                    raise WorkerFailed(f"unexpected first line from worker: {buf[:200]!r}")
        code = proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
    except (WorkerFailed, subprocess.TimeoutExpired):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    finally:
        proc.stdout.close()
    if code != 0 or ready_s is None:
        raise WorkerFailed(f"worker {' '.join(argv)} exited with code {code}")
    lines = buf.decode().strip().splitlines()
    return ready_s, lines[-1]


def metric(value, unit):
    return {"value": value, "unit": unit}


def calibrated(samples, ref_samples, nominal_s):
    """Median of `samples`, in seconds at the reference kernel's nominal speed.

    `ref_samples` are times of the kernel taken in the same run as `samples`,
    within a minute of them.
    """
    return statistics.median(samples) * nominal_s / statistics.median(ref_samples)


def end_to_end(spec, setup_samples, worker):
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    nominal = worker["ref_nominal_s"]
    values = {
        "wall_s": calibrated(worker["unit_s"], worker["ref_s"], nominal),
        "setup_s": calibrated(setup_samples, worker["ref_s"], nominal),
        "peak_rss_mb": worker["peak_rss_mb"],
        "recon_nrmse": worker["recon_nrmse"],
    }
    return {name: metric(values[name], unit) for name, unit in units.items()}


def per_layer(spec, worker):
    layers = worker["layers"]
    return {m["name"]: metric(layers.get(m["name"], 0), m["unit"]) for m in spec["per_layer"]}


def report_lines(args, metrics, setup_samples, worker):
    """Readable report: every metric by name and unit, and the samples behind it."""
    lines = [f"workload {args.workload}  seed {args.seed}  trace {args.trace}"]
    for name, m in metrics.items():
        lines.append(f"  {name:<40} {m['value']:>14.6g} {m['unit']}")
    if not args.trace:
        n = len(worker["unit_s"])
        lines.append(f"  wall_s is the median of {n} unit(s); setup_s of {len(setup_samples)} fresh processes")
        lines.append(f"  raw medians: wall {statistics.median(worker['unit_s']):.6g} s, "
                     f"set-up {statistics.median(setup_samples):.6g} s, "
                     f"reference {statistics.median(worker['ref_s']):.6g} s (nominal {worker['ref_nominal_s']} s)")
        if worker["iterations"]:
            per_iter = 1e3 * metrics["wall_s"]["value"] / worker["iterations"]
            lines.append(f"  {'ndi_ms_per_iter':<40} {per_iter:>14.6g} ms  (wall_s / {worker['iterations']} iterations)")
    ratio = worker["failed"] / worker["attempted"]
    lines.append(f"  {'failed_ratio':<40} {ratio:>14.6g} ratio  ({worker['failed']} of {worker['attempted']} units)")
    lines += [f"  problem: {p}" for p in worker["problems"]]
    return lines


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qsmkit" / "__init__.py").is_file():
        print(f"error: no qsmkit package under {SRC}", file=sys.stderr)
        return 2
    caller_threads = os.environ.get("QSM_THREADS")
    env = {k: v for k, v in os.environ.items() if k != "QSM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)

    deadline = time.perf_counter() + RUN_LIMIT_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setup_samples = [
            run_worker([*common, "--setup-only"], env, deadline)[0] for _ in range(0 if args.trace else SETUP_PROBES)
        ]
        ready_s, last = run_worker(
            [*common, "--seconds", str(args.seconds), "--trace", str(args.trace)], env, deadline
        )
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setup_samples.append(ready_s)
    worker = json.loads(last)
    if not worker["checked"]:
        print("error: no unit produced a checkable output", *worker["problems"], sep="\n  ", file=sys.stderr)
        return 1
    worker["machine"]["QSM_THREADS"] = f"unset for the run (caller's value: {caller_threads})"

    metrics = per_layer(spec, worker) if args.trace else end_to_end(spec, setup_samples, worker)
    result = {
        "correct": worker["failed"] == 0,
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "metrics": metrics,
    }
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    record = {**worker, "setup_s": setup_samples, "result": result}
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True)
    )

    print("machine " + json.dumps(worker["machine"], sort_keys=True))
    print("\n".join(report_lines(args, metrics, setup_samples, worker)))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
