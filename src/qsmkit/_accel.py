"""Voxelwise hot kernels, JIT-compiled with numba when available.

Every kernel has a pure-numpy implementation (``*_numpy``). The module-level
names point at the numba build unless ``QSM_DISABLE_NUMBA=1`` is set or numba
cannot be imported, in which case they fall back to numpy. Output must be
bit-deterministic for fixed input: the numba kernels are sequential, and the
numpy residual kernel splits only its elementwise work across threads, so its
values do not depend on the thread count.
"""

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .core import fft_workers

_env = os.environ.get("QSM_DISABLE_NUMBA", "").strip()
NUMBA_DISABLED = _env not in ("", "0")

try:
    if NUMBA_DISABLED:
        raise ImportError("numba disabled via QSM_DISABLE_NUMBA")
    from numba import njit

    USING_NUMBA = True
except ImportError:
    njit = None
    USING_NUMBA = False

# shape kind codes shared with simulate.py
KIND_SPHERE = 0
KIND_CYLINDER = 1
KIND_CUBOID = 2


def trig_cost_numpy(field, phase, w2):
    """sum of 2 * w2 * (1 - cos(field - phase))."""
    return float(np.sum(2.0 * w2 * (1.0 - np.cos(field - phase))))


# Chunks start on multiples of this many voxels and hold at least this many.
# On a 2-core x86 host, two threads took 1.03 ms on a 32^3 volume against
# 0.89 ms for one, and 1.6 ms on 40^3 against 2.5 ms.
_CHUNK = 1 << 15
# One pool per process, made on first use: on the same host a pool made and
# shut down per call cost 0.5-0.9 ms, a call into a standing pool 0.07 ms.
_pool = None


def _for_chunks(fn, n):
    """Call fn(lo, hi) on contiguous chunks covering range(n), one per FFT worker.

    Workers run under the caller's numpy floating-point error settings, which
    threads do not inherit.
    """
    global _pool
    workers = min(fft_workers(), n // _CHUNK)
    if workers <= 1:
        fn(0, n)
        return
    if _pool is None:
        _pool = ThreadPoolExecutor(thread_name_prefix="qsmkit-accel")
    err = np.geterr()

    def run(lo, hi):
        with np.errstate(**err):
            fn(lo, hi)

    bounds = [n * i // workers // _CHUNK * _CHUNK for i in range(workers)] + [n]
    # list() waits for every chunk and re-raises the first failure
    list(_pool.map(run, bounds[:-1], bounds[1:]))


def _flat64(*volumes):
    return [np.ascontiguousarray(v, dtype=np.float64).reshape(-1) for v in volumes]


def weighted_sin_residual_numpy(field, phase, w2):
    """w2 * sin(field - phase), elementwise.

    The subtract, sin and multiply run in place on one thread per FFT worker,
    over the chunks residual_and_cost_numpy uses, so the result is the same
    bits as the plain expression for every thread count.
    """
    resid = np.empty(np.shape(field))
    f, p, w = _flat64(field, phase, w2)
    r = resid.reshape(-1)

    def chunk(lo, hi):
        np.subtract(f[lo:hi], p[lo:hi], out=r[lo:hi])
        np.sin(r[lo:hi], out=r[lo:hi])
        r[lo:hi] *= w[lo:hi]

    _for_chunks(chunk, f.size)
    return resid


def residual_and_cost_numpy(field, phase, w2):
    """One pass over the residual angle: returns (w2*sin(d), sum 2*w2*(1-cos(d))).

    The three volumes share one shape. The sin and cos run on one thread per
    FFT worker (numpy releases the GIL), each over its own chunk and into
    preallocated outputs; the cost terms are then summed once over the whole
    volume, so both results are the same bits for every thread count.
    """
    resid = np.empty(np.shape(field))
    terms = np.empty(np.shape(field))
    f, p, w = _flat64(field, phase, w2)
    r, c = resid.reshape(-1), terms.reshape(-1)

    def chunk(lo, hi):
        d = np.subtract(f[lo:hi], p[lo:hi])
        np.sin(d, out=r[lo:hi])
        r[lo:hi] *= w[lo:hi]
        np.cos(d, out=d)
        np.subtract(1.0, d, out=d)
        np.multiply(2.0, w[lo:hi], out=c[lo:hi])
        c[lo:hi] *= d

    _for_chunks(chunk, f.size)
    return resid, float(np.sum(terms))


def rasterize_shapes_numpy(xs, ys, zs, kinds, centers, sizes, axes, chis, background):
    """Fill a volume from shape primitives; the last shape containing a voxel wins."""
    out = np.full((xs.size, ys.size, zs.size), background, dtype=np.float64)
    px = xs[:, None, None]
    py = ys[None, :, None]
    pz = zs[None, None, :]
    for s in range(kinds.shape[0]):
        cx, cy, cz = centers[s]
        if kinds[s] == KIND_SPHERE:
            inside = (px - cx) ** 2 + (py - cy) ** 2 + (pz - cz) ** 2 <= sizes[s, 0] ** 2
        elif kinds[s] == KIND_CYLINDER:
            d = [px - cx, py - cy, pz - cz]
            a = axes[s]
            along = d[a]
            radial2 = sum(d[i] ** 2 for i in range(3) if i != a)
            inside = (np.abs(along) <= sizes[s, 1]) & (radial2 <= sizes[s, 0] ** 2)
        else:
            inside = (
                (np.abs(px - cx) <= sizes[s, 0])
                & (np.abs(py - cy) <= sizes[s, 1])
                & (np.abs(pz - cz) <= sizes[s, 2])
            )
        out[inside] = chis[s]
    return out


if USING_NUMBA:

    @njit(cache=True)
    def weighted_sin_residual(field, phase, w2):
        out = np.empty_like(field)
        f = field.ravel()
        p = phase.ravel()
        w = w2.ravel()
        o = out.ravel()
        for i in range(f.size):
            o[i] = w[i] * np.sin(f[i] - p[i])
        return out

    @njit(cache=True)
    def trig_cost(field, phase, w2):
        f = field.ravel()
        p = phase.ravel()
        w = w2.ravel()
        acc = 0.0
        for i in range(f.size):
            acc += 2.0 * w[i] * (1.0 - np.cos(f[i] - p[i]))
        return acc

    @njit(cache=True)
    def residual_and_cost(field, phase, w2):
        out = np.empty_like(field)
        f = field.ravel()
        p = phase.ravel()
        w = w2.ravel()
        o = out.ravel()
        acc = 0.0
        for i in range(f.size):
            d = f[i] - p[i]
            o[i] = w[i] * np.sin(d)
            acc += 2.0 * w[i] * (1.0 - np.cos(d))
        return out, acc

    @njit(cache=True)
    def _rasterize_shapes_jit(xs, ys, zs, kinds, centers, sizes, axes, chis, background):
        out = np.empty((xs.size, ys.size, zs.size), dtype=np.float64)
        n = kinds.shape[0]
        for i in range(xs.size):
            for j in range(ys.size):
                for k in range(zs.size):
                    value = background
                    # walk shapes back-to-front so the last containing shape wins
                    for s in range(n - 1, -1, -1):
                        dx = xs[i] - centers[s, 0]
                        dy = ys[j] - centers[s, 1]
                        dz = zs[k] - centers[s, 2]
                        if kinds[s] == KIND_SPHERE:
                            hit = dx * dx + dy * dy + dz * dz <= sizes[s, 0] * sizes[s, 0]
                        elif kinds[s] == KIND_CYLINDER:
                            if axes[s] == 0:
                                along, r2 = dx, dy * dy + dz * dz
                            elif axes[s] == 1:
                                along, r2 = dy, dx * dx + dz * dz
                            else:
                                along, r2 = dz, dx * dx + dy * dy
                            hit = abs(along) <= sizes[s, 1] and r2 <= sizes[s, 0] * sizes[s, 0]
                        else:
                            hit = (
                                abs(dx) <= sizes[s, 0]
                                and abs(dy) <= sizes[s, 1]
                                and abs(dz) <= sizes[s, 2]
                            )
                        if hit:
                            value = chis[s]
                            break
                    out[i, j, k] = value
        return out

    def rasterize_shapes(xs, ys, zs, kinds, centers, sizes, axes, chis, background):
        if kinds.shape[0] == 0:
            return np.full((xs.size, ys.size, zs.size), background, dtype=np.float64)
        return _rasterize_shapes_jit(xs, ys, zs, kinds, centers, sizes, axes, chis, background)

else:
    weighted_sin_residual = weighted_sin_residual_numpy
    trig_cost = trig_cost_numpy
    residual_and_cost = residual_and_cost_numpy
    rasterize_shapes = rasterize_shapes_numpy
