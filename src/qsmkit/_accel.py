"""Voxelwise hot kernels of the solver and the phantom rasterizer, in numpy.

Output is bit-deterministic for fixed input: the residual kernels split only
their elementwise work across threads, with the package's one splitter
``core.for_slabs``, and sum once over the whole volume.
"""

import numpy as np

from .core import for_slabs

# Read by the benchmark's machine facts; the kernels are numpy only.
USING_NUMBA = False


def trig_cost(field, phase, w2):
    """sum of 2 * w2 * (1 - cos(field - phase))."""
    return float(np.sum(2.0 * w2 * (1.0 - np.cos(field - phase))))


def _scratch(field):
    """field as a flat view, for a kernel that writes its result over it."""
    if field.dtype != np.float64 or not field.flags.c_contiguous:
        raise ValueError("field must be a C-contiguous float64 array: it is overwritten")
    return field.reshape(-1)


def weighted_sin_residual(field, phase, w2):
    """w2 * sin(field - phase), elementwise, written over field and returned.

    field is scratch, such as an irfft3 output: the subtract, sin and
    multiply run in place in it, on one thread per FFT worker, over the
    slabs residual_and_cost uses, so the result is the same bits as the
    plain expression for every thread count.
    """
    r = _scratch(field)
    p, w = np.ravel(phase), np.ravel(w2)

    def slab(lo, hi):
        np.subtract(r[lo:hi], p[lo:hi], out=r[lo:hi])
        np.sin(r[lo:hi], out=r[lo:hi])
        r[lo:hi] *= w[lo:hi]

    for_slabs(slab, r.size)
    return field


def residual_and_cost(field, phase, w2):
    """One pass over the residual angle: returns (w2*sin(d), sum 2*w2*(1-cos(d))).

    The three volumes share one shape; the residual is written over field,
    which is scratch as in weighted_sin_residual. The sin and cos run on one
    thread per FFT worker (numpy releases the GIL), each over its own slab
    and into preallocated outputs; the cost terms are then summed once over
    the whole volume, so both results are the same bits for every thread
    count.
    """
    r = _scratch(field)
    terms = np.empty(np.shape(field))
    p, w = np.ravel(phase), np.ravel(w2)
    c = terms.reshape(-1)

    def slab(lo, hi):
        d = np.subtract(r[lo:hi], p[lo:hi])
        np.sin(d, out=r[lo:hi])
        r[lo:hi] *= w[lo:hi]
        np.cos(d, out=d)
        np.subtract(1.0, d, out=d)
        np.multiply(2.0, w[lo:hi], out=c[lo:hi])
        c[lo:hi] *= d

    for_slabs(slab, r.size)
    return field, float(np.sum(terms))


def rasterize_shapes(coords, shapes, background):
    """Fill a volume on the voxel_coords axes; the last shape containing a voxel wins."""
    xs, ys, zs = coords
    out = np.full((xs.size, ys.size, zs.size), background, dtype=np.float64)
    points = (xs[:, None, None], ys[None, :, None], zs[None, None, :])
    for shape in shapes:
        out[shape.contains(*points)] = shape.chi
    return out
