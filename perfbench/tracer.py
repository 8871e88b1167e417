"""Layer spans recorded from outside qsmkit by wrapping its public entry points.

`Tracer.install()` swaps each wrapped function, in every ``qsmkit.*`` module
namespace that holds it, for a wrapper that records a span; the scipy.fft
transforms are swapped on the ``scipy.fft`` module, through which the package
calls them. `Tracer.uninstall()` puts the originals back, so untraced code
runs exactly as shipped. Nothing under ``src/`` is edited.

Spans are kept in memory. `Tracer.window()` marks a stretch of work (set-up,
one workload unit, one CLI process) and condenses its spans into flat layer
metrics: calls, total and self milliseconds, computed bytes and item counts.
A layer's self time is its span minus the direct child spans inside it.

Run as a script, this file executes one ``qsm`` CLI command under the tracer
and writes the command's layer summary and its time inside ``main`` to the
JSON file named by ``PERFBENCH_TRACE_OUT``:

    PERFBENCH_TRACE_OUT=trace.json python perfbench/tracer.py phantom --config c.json
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

# Voxelwise kernels of qsmkit._accel, summed into the `accel.voxelwise` layer.
VOXELWISE = ("residual_and_cost", "trig_cost", "weighted_sin_residual")
VOXELWISE_LAYER = "accel.voxelwise"
FFT_NAMES = ("fftn", "ifftn", "rfftn", "irfftn")


def _nbytes(x):
    return int(getattr(x, "nbytes", 0))


def _fft_size(args, kwargs, out):
    """Computed bytes moved: transform input plus output."""
    return _nbytes(args[0]) + _nbytes(out), 0


def _voxelwise_size(args, kwargs, out):
    """Computed bytes moved: field, phase and weights read, residual written."""
    written = out[0] if isinstance(out, tuple) else out
    return sum(_nbytes(a) for a in args[:3]) + _nbytes(written), int(args[0].size)


def _file_size(args, kwargs, out):
    return os.path.getsize(args[0]), 0


def _iterations(args, kwargs, out):
    cfg = args[1] if len(args) > 1 else kwargs.get("cfg")
    if cfg is None:
        from qsmkit.ndi import NdiConfig

        cfg = NdiConfig()
    return 0, int(cfg.max_iters)


class Span:
    __slots__ = ("name", "parent", "start", "end", "nbytes", "items")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.nbytes = self.items = 0


class Window:
    """Layer totals of the spans recorded between enter and exit."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.metrics: dict[str, float] = {}
        self.seconds = 0.0

    def __enter__(self):
        self.first = len(self.tracer.spans)
        self.cache0 = self.tracer.kernel_cache.cache_info()
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = time.perf_counter() - self.t0
        cache1 = self.tracer.kernel_cache.cache_info()
        self.metrics = summarize(self.tracer.spans, self.first)
        self.metrics["dipole.kernel.builds"] = cache1.misses - self.cache0.misses
        self.metrics["dipole.kernel.hits"] = cache1.hits - self.cache0.hits


def summarize(spans, first=0):
    """Summed layer totals of spans[first:]; spans never nest across `first`.

    Totals add across windows and processes; `derive` turns them into ratios.
    """
    child_s = [0.0] * len(spans)
    for i in range(first, len(spans)):
        s = spans[i]
        if s.parent >= first:
            child_s[s.parent] += s.end - s.start
    out: dict[str, float] = {}

    def add(key, value):
        out[key] = out.get(key, 0) + value

    for i in range(first, len(spans)):
        s = spans[i]
        names = [s.name]
        if s.name.startswith("accel.") and s.name[len("accel."):] in VOXELWISE:
            names.append(VOXELWISE_LAYER)
        dur = s.end - s.start
        outermost = not _has_ancestor(spans, s, s.name)
        for name in names:
            if outermost:
                add(f"{name}.calls", 1)
                add(f"{name}.ms", 1e3 * dur)
                if s.nbytes or s.items:
                    add(f"{name}.bytes", s.nbytes)
                    add(f"{name}.items", s.items)
            add(f"{name}.self.ms", 1e3 * (dur - child_s[i]))
        if s.name == "core.fft" and _has_ancestor(spans, s, "ndi.solve"):
            add("ndi.fft.calls", 1)
    return out


def derive(totals):
    """Layer totals plus their per-call and per-iteration ratios."""
    out = dict(totals)

    def ratio(num, den):
        return out.get(num, 0) / out[den] if out.get(den) else 0

    for layer in ("core.fft", VOXELWISE_LAYER):
        out[f"{layer}.bytes_per_call"] = ratio(f"{layer}.bytes", f"{layer}.calls")
    out[f"{VOXELWISE_LAYER}.voxels"] = out.get(f"{VOXELWISE_LAYER}.items", 0)
    out["ndi.iterations"] = out.get("ndi.solve.items", 0)
    out["ndi.self.ms"] = out.get("ndi.solve.self.ms", 0.0)
    out["ndi.fft_per_iter"] = ratio("ndi.fft.calls", "ndi.iterations")
    out["ndi.ms_per_iter"] = ratio("ndi.solve.ms", "ndi.iterations")
    return out


def _has_ancestor(spans, span, name):
    p = span.parent
    while p >= 0:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False


class Tracer:
    """Records a span around each call into the wrapped qsmkit layers."""

    def __init__(self):
        import scipy.fft

        import qsmkit
        import qsmkit.cli
        import qsmkit.io
        from qsmkit import _accel, core, dipole, invert, metrics, ndi, preprocess, simulate

        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.kernel_cache = dipole._kernel_values
        # (namespace, attribute, span name, size function)
        targets = [(scipy.fft, n, "core.fft", _fft_size) for n in FFT_NAMES]
        targets += [(_accel, n, f"accel.{n}", _voxelwise_size) for n in VOXELWISE]
        targets += [
            (_accel, "rasterize_shapes", "accel.rasterize", None),
            (core, "mask_erode", "core.mask_erode", None),
            (dipole, "_kernel_values", "dipole.kernel", None),
            (dipole, "forward_field", "dipole.field", None),
            (dipole, "adjoint_field", "dipole.field", None),
            (simulate, "make_phantom", "simulate.phantom", None),
            (simulate, "simulate_acquisition", "simulate.acquisition", None),
            (preprocess, "laplacian_unwrap", "preprocess.unwrap", None),
            (preprocess, "smv_filter", "preprocess.smv", None),
            (invert, "tkd", "invert.tkd", None),
            (invert, "l2_closedform", "invert.l2", None),
            (invert, "cosmos", "invert.cosmos", None),
            (metrics, "nrmse", "metrics.nrmse", None),
            (metrics, "ssim3d", "metrics.ssim3d", None),
            (metrics, "data_consistency", "metrics.data_consistency", None),
            (ndi, "ndi_reconstruct", "ndi.solve", _iterations),
            (qsmkit.io, "read_nifti", "io.read", _file_size),
            (qsmkit.io, "write_nifti", "io.write", _file_size),
        ]
        package = [m for k, m in sys.modules.items() if k == "qsmkit" or k.startswith("qsmkit.")]
        # every (namespace, attribute) that holds one of the originals
        self._swaps = []
        for home, attr, name, size in targets:
            original = getattr(home, attr)
            wrapper = self._wrap(name, original, size)
            holders = [home] if home is scipy.fft else package
            for mod in holders:
                for key, value in vars(mod).items():
                    if value is original:
                        self._swaps.append((mod, key, original, wrapper))

    def _wrap(self, name, fn, size):
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if size is not None:
                span.nbytes, span.items = size(args, kwargs, out)
            return out

        return wrapper

    def install(self):
        for mod, key, _, wrapper in self._swaps:
            setattr(mod, key, wrapper)

    def uninstall(self):
        for mod, key, original, _ in self._swaps:
            setattr(mod, key, original)

    def window(self) -> Window:
        return Window(self)


def _trace_cli(argv) -> int:
    import qsmkit.cli

    tracer = Tracer()
    tracer.install()
    with tracer.window() as w:
        code = qsmkit.cli.main(argv)
    tracer.uninstall()
    with open(os.environ["PERFBENCH_TRACE_OUT"], "w") as fh:
        json.dump({"main_s": w.seconds, "metrics": w.metrics}, fh)
    return code


if __name__ == "__main__":
    sys.exit(_trace_cli(sys.argv[1:]))
