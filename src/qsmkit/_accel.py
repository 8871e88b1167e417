"""Voxelwise hot kernels of the solver and the phantom rasterizer, in numpy.

Output is bit-deterministic for fixed input: the residual kernels split only
their elementwise work across threads, with the package's one splitter
``core.for_slabs``, and sum once over the whole volume.
"""

import numpy as np

from .core import for_slabs

# Read by the benchmark's machine facts; the kernels are numpy only.
USING_NUMBA = False

# shape kind codes shared with simulate.py
KIND_SPHERE = 0
KIND_CYLINDER = 1
KIND_CUBOID = 2


def trig_cost(field, phase, w2):
    """sum of 2 * w2 * (1 - cos(field - phase))."""
    return float(np.sum(2.0 * w2 * (1.0 - np.cos(field - phase))))


def _flat64(*volumes):
    return [np.ascontiguousarray(v, dtype=np.float64).reshape(-1) for v in volumes]


def weighted_sin_residual(field, phase, w2):
    """w2 * sin(field - phase), elementwise.

    The subtract, sin and multiply run in place on one thread per FFT worker,
    over the slabs residual_and_cost uses, so the result is the same
    bits as the plain expression for every thread count.
    """
    resid = np.empty(np.shape(field))
    f, p, w = _flat64(field, phase, w2)
    r = resid.reshape(-1)

    def slab(lo, hi):
        np.subtract(f[lo:hi], p[lo:hi], out=r[lo:hi])
        np.sin(r[lo:hi], out=r[lo:hi])
        r[lo:hi] *= w[lo:hi]

    for_slabs(slab, f.size)
    return resid


def residual_and_cost(field, phase, w2):
    """One pass over the residual angle: returns (w2*sin(d), sum 2*w2*(1-cos(d))).

    The three volumes share one shape. The sin and cos run on one thread per
    FFT worker (numpy releases the GIL), each over its own slab and into
    preallocated outputs; the cost terms are then summed once over the whole
    volume, so both results are the same bits for every thread count.
    """
    resid = np.empty(np.shape(field))
    terms = np.empty(np.shape(field))
    f, p, w = _flat64(field, phase, w2)
    r, c = resid.reshape(-1), terms.reshape(-1)

    def slab(lo, hi):
        d = np.subtract(f[lo:hi], p[lo:hi])
        np.sin(d, out=r[lo:hi])
        r[lo:hi] *= w[lo:hi]
        np.cos(d, out=d)
        np.subtract(1.0, d, out=d)
        np.multiply(2.0, w[lo:hi], out=c[lo:hi])
        c[lo:hi] *= d

    for_slabs(slab, f.size)
    return resid, float(np.sum(terms))


def rasterize_shapes(xs, ys, zs, kinds, centers, sizes, axes, chis, background):
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
